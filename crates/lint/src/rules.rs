//! The rule engine: project invariants enforced over the token stream.
//!
//! Five rules:
//!
//! * **`no-panic-in-parsers`** — the wire-facing decode/view modules
//!   (attacker-controlled input) must be total: no `.unwrap()` /
//!   `.expect()`, no `panic!`-family macros, no direct slice indexing
//!   (`x[i]` can panic; `x.get(i)` cannot).
//! * **`no-alloc-in-into`** — `fn *_into` / `fn *_view` bodies are the
//!   0-allocation hot paths; no `Vec::new`, `to_vec`, `format!`,
//!   `clone`, and friends inside them.
//! * **`unsafe-needs-safety-comment`** — every `unsafe` keyword is
//!   preceded (within two lines) by a `// SAFETY:` comment.
//! * **`pub-needs-caller`** — every `pub fn` in `crates/*/src` is
//!   named somewhere in non-test code under the caller roots
//!   (`src/`, `crates/*/{src,benches}`, `examples/`, `docbench/src`);
//!   a function only tests reach is dead API. Name-based: the caller
//!   set comes from [`collect_callers`], where a `.name` token counts
//!   only for a method (a `pub fn` in an `impl` body), and oracles or
//!   fakes that only tests call carry a waiver with the reason they
//!   stay.
//! * **`no-raw-ms-in-quic`** *(warning, soaking)* — `doc-quic`,
//!   `doc-netsim` and `doc-dtls` express time as the shared `doc-time`
//!   newtypes (`Millis`/`Instant`); a raw `<name>_ms: u64` binding in those
//!   crates reintroduces the unit-confusable surface the typed API
//!   removed. Soaks at [`Severity::Warning`] (reported, does not fail
//!   the gate) until the remaining escape hatches are retired.
//!
//! Every rule honours the inline waiver syntax
//!
//! ```text
//! // lint:allow(<rule>): <non-empty reason>
//! ```
//!
//! on the violation's line or the line above — so every exception is
//! written down next to the code it excuses, greppable, and auditable.
//! `#[cfg(test)]` modules are skipped entirely: tests are allowed to
//! unwrap.

use std::collections::HashSet;

use crate::lexer::{lex, Token, TokenKind};

/// Rule identifier: wire-facing parser/view modules must be total.
pub const NO_PANIC: &str = "no-panic-in-parsers";
/// Rule identifier: `*_into`/`*_view` bodies must not allocate.
pub const NO_ALLOC: &str = "no-alloc-in-into";
/// Rule identifier: `unsafe` needs an adjacent `// SAFETY:` comment.
pub const UNSAFE_COMMENT: &str = "unsafe-needs-safety-comment";
/// Rule identifier: `doc-quic`/`doc-netsim`/`doc-dtls` use `doc-time` newtypes,
/// not raw `*_ms: u64` bindings (warning severity while soaking).
pub const NO_RAW_MS: &str = "no-raw-ms-in-quic";
/// Rule identifier: a `pub fn` in `crates/*/src` needs a caller
/// outside test code.
pub const PUB_NEEDS_CALLER: &str = "pub-needs-caller";

/// All rule names, in reporting order.
pub const ALL_RULES: &[&str] = &[
    NO_PANIC,
    NO_ALLOC,
    UNSAFE_COMMENT,
    NO_RAW_MS,
    PUB_NEEDS_CALLER,
];

/// Path prefixes (repo-relative, `/`-separated) of the crates whose
/// time surfaces are typed — the scope of [`NO_RAW_MS`].
pub const TYPED_TIME_CRATES: &[&str] = &["crates/quic/", "crates/netsim/", "crates/dtls/"];

/// Path suffixes (repo-relative, `/`-separated) of the modules that
/// parse or view attacker-controlled wire input — the scope of
/// [`NO_PANIC`].
pub const PANIC_FREE_MODULES: &[&str] = &[
    "crates/dns/src/view.rs",
    "crates/coap/src/view.rs",
    "crates/dtls/src/record.rs",
    "crates/quic/src/varint.rs",
    "crates/quic/src/frame.rs",
    "crates/quic/src/doq.rs",
    "crates/core/src/io.rs",
    "crates/core/src/pool.rs",
    "crates/core/src/proxy.rs",
    "crates/coap/src/cache.rs",
];

/// How a violation affects the gate's exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Severity {
    /// Fails the gate.
    #[default]
    Error,
    /// Reported but does not fail the gate (a rule soaking before
    /// promotion to [`Severity::Error`]).
    Warning,
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Whether the violation fails the gate or only warns.
    pub severity: Severity,
    /// The file label passed to [`lint_source`].
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human-readable description of the offending construct.
    pub message: String,
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A waiver that matched no violation — reported as a warning so stale
/// excuses get cleaned up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnusedWaiver {
    /// The file label passed to [`lint_source`].
    pub file: String,
    /// 1-indexed line of the waiver comment.
    pub line: usize,
    /// The rule the waiver names.
    pub rule: String,
}

/// The outcome of linting one file.
#[derive(Debug, Clone, Default)]
pub struct FileReport {
    /// Violations with no covering waiver — these fail the gate.
    pub violations: Vec<Violation>,
    /// Violations excused by a waiver (kept for `--verbose` audits).
    pub waived: Vec<Violation>,
    /// Waivers that excused nothing.
    pub unused_waivers: Vec<UnusedWaiver>,
}

struct Waiver {
    line: usize,
    rule: String,
    used: bool,
}

/// Parse `// lint:allow(<rule>): <reason>` out of a comment token.
/// Malformed waivers (no reason, unknown shape) are ignored — they
/// excuse nothing, so the violation they meant to cover still fires,
/// which is the safe failure mode.
fn parse_waiver(t: &Token) -> Option<(String, String)> {
    let body = t.text.trim_start_matches('/').trim();
    let rest = body.strip_prefix("lint:allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let reason = rest[close + 1..].trim_start_matches(':').trim().to_string();
    (!rule.is_empty() && !reason.is_empty()).then_some((rule, reason))
}

/// Token indexes covered by `#[cfg(test)] mod … { … }` blocks.
fn test_module_mask(tokens: &[Token]) -> Vec<bool> {
    let mut masked = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| {
            !matches!(
                tokens[i].kind,
                TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let tok = |ci: usize| -> &Token { &tokens[code[ci]] };
    let mut ci = 0;
    while ci + 6 < code.len() {
        let is_cfg_test = tok(ci).punct() == Some('#')
            && tok(ci + 1).punct() == Some('[')
            && tok(ci + 2).text == "cfg"
            && tok(ci + 3).punct() == Some('(')
            && tok(ci + 4).text == "test"
            && tok(ci + 5).punct() == Some(')')
            && tok(ci + 6).punct() == Some(']');
        if is_cfg_test && code.len() > ci + 7 && tok(ci + 7).text == "mod" {
            // Find the opening brace, then match it.
            let mut cj = ci + 8;
            while cj < code.len() && tok(cj).punct() != Some('{') {
                cj += 1;
            }
            let mut depth = 0usize;
            let start = code[ci];
            while cj < code.len() {
                match tok(cj).punct() {
                    Some('{') => depth += 1,
                    Some('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                cj += 1;
            }
            let end = code.get(cj).copied().unwrap_or(tokens.len() - 1);
            for m in masked.iter_mut().take(end + 1).skip(start) {
                *m = true;
            }
            ci = cj + 1;
        } else {
            ci += 1;
        }
    }
    masked
}

/// Rust keywords that may legitimately precede a `[` starting an array
/// literal or type rather than an indexing expression.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// Whether the code token before `[` makes it an indexing expression:
/// an identifier (not a keyword), a closing bracket, or a closing
/// paren — i.e. something that evaluates to a place.
fn is_indexing(prev: Option<&Token>) -> bool {
    match prev {
        Some(t) if t.kind == TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&t.text.as_str()),
        Some(t) => matches!(t.punct(), Some(']') | Some(')')),
        None => false,
    }
}

/// Method names banned in [`NO_PANIC`] scope when called as `.name(`.
const PANICKY_METHODS: &[&str] = &["unwrap", "expect"];
/// Macro names banned in [`NO_PANIC`] scope when invoked as `name!`.
const PANICKY_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Method names banned inside `*_into`/`*_view` bodies when called as
/// `.name(`.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "to_string", "clone", "collect"];
/// Macro names banned inside `*_into`/`*_view` bodies.
const ALLOC_MACROS: &[&str] = &["format", "vec"];
/// `Type::constructor` paths banned inside `*_into`/`*_view` bodies.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("String", "new"),
    ("String", "from"),
    ("Box", "new"),
];

/// Byte ranges (as token-index ranges) of `fn *_into` / `fn *_view`
/// bodies, found by brace-matching from each matching `fn` signature.
fn alloc_checked_fn_bodies(tokens: &[Token], code: &[usize]) -> Vec<(usize, usize, String)> {
    let mut bodies = Vec::new();
    for (ci, &ti) in code.iter().enumerate() {
        if tokens[ti].text != "fn" || ci + 1 >= code.len() {
            continue;
        }
        let name = &tokens[code[ci + 1]].text;
        if !(name.ends_with("_into") || name.ends_with("_view")) {
            continue;
        }
        // Walk to the body's opening brace. A `where` clause or return
        // type cannot contain a bare `{`, and a `;` first means a
        // trait method signature with no body.
        let mut cj = ci + 2;
        while cj < code.len() {
            match tokens[code[cj]].punct() {
                Some('{') => break,
                Some(';') => {
                    cj = code.len();
                    break;
                }
                _ => cj += 1,
            }
        }
        if cj >= code.len() {
            continue;
        }
        let open = cj;
        let mut depth = 0usize;
        while cj < code.len() {
            match tokens[code[cj]].punct() {
                Some('{') => depth += 1,
                Some('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            cj += 1;
        }
        bodies.push((open, cj.min(code.len() - 1), name.clone()));
    }
    bodies
}

/// Add every identifier in `source`'s non-test code to `callers`,
/// except the name right after `fn`: a definition is not a caller. A
/// method-call or field token `.name` goes in as `".name"`, so it
/// counts for a method called `name` but not for a free function.
pub fn collect_callers(source: &str, callers: &mut HashSet<String>) {
    let tokens = lex(source);
    let masked = test_module_mask(&tokens);
    // The two code tokens before the current one: `.name` is a method
    // or field, `..name` a range end.
    let mut prev: [Option<char>; 2] = [None, None];
    let mut after_fn = false;
    for (t, &in_test) in tokens.iter().zip(&masked) {
        if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let is_ident = t.kind == TokenKind::Ident;
        if is_ident && !in_test && !after_fn {
            if prev[0] == Some('.') && prev[1] != Some('.') {
                callers.insert(format!(".{}", t.text));
            } else {
                callers.insert(t.text.clone());
            }
        }
        after_fn = is_ident && t.text == "fn";
        prev = [t.punct(), prev[0]];
    }
}

/// For each entry of `code`, whether the innermost `{}` block around
/// it is an `impl` body, where a `pub fn` is a method.
fn impl_body_mask(tokens: &[Token], code: &[usize]) -> Vec<bool> {
    let mut blocks: Vec<bool> = Vec::new();
    let mut header_has_impl = false;
    code.iter()
        .map(|&ti| {
            let inside = blocks.last().copied().unwrap_or(false);
            match tokens[ti].punct() {
                Some('{') => {
                    blocks.push(header_has_impl);
                    header_has_impl = false;
                }
                Some('}') => {
                    blocks.pop();
                    header_has_impl = false;
                }
                Some(';') => header_has_impl = false,
                _ => header_has_impl |= tokens[ti].text == "impl",
            }
            inside
        })
        .collect()
}

/// Lint one source file. `file` is only a label for reports; the
/// [`NO_PANIC`] scope check matches it against
/// [`PANIC_FREE_MODULES`] suffixes. [`PUB_NEEDS_CALLER`] runs only
/// when `callers` (built by [`collect_callers`]) is given.
pub fn lint_source(file: &str, source: &str, callers: Option<&HashSet<String>>) -> FileReport {
    let tokens = lex(source);
    let masked = test_module_mask(&tokens);
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| {
            !matches!(
                tokens[i].kind,
                TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();

    let mut waivers: Vec<Waiver> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::LineComment)
        .filter_map(|t| {
            parse_waiver(t).map(|(rule, _reason)| Waiver {
                line: t.line,
                rule,
                used: false,
            })
        })
        .collect();

    let mut raw: Vec<Violation> = Vec::new();
    let normalized = file.replace('\\', "/");
    let panic_scope = PANIC_FREE_MODULES
        .iter()
        .any(|suffix| normalized.ends_with(suffix));

    // --- no-panic-in-parsers ------------------------------------------------
    if panic_scope {
        for (ci, &ti) in code.iter().enumerate() {
            if masked[ti] {
                continue;
            }
            let t = &tokens[ti];
            if t.kind == TokenKind::Ident {
                let prev = ci.checked_sub(1).map(|p| &tokens[code[p]]);
                let next = code.get(ci + 1).map(|&n| &tokens[n]);
                if PANICKY_METHODS.contains(&t.text.as_str())
                    && prev.and_then(|p| p.punct()) == Some('.')
                {
                    raw.push(Violation {
                        rule: NO_PANIC,
                        severity: Severity::Error,
                        file: file.to_string(),
                        line: t.line,
                        message: format!(".{}() can panic on attacker-controlled input", t.text),
                    });
                }
                if PANICKY_MACROS.contains(&t.text.as_str())
                    && next.and_then(|n| n.punct()) == Some('!')
                {
                    raw.push(Violation {
                        rule: NO_PANIC,
                        severity: Severity::Error,
                        file: file.to_string(),
                        line: t.line,
                        message: format!("{}! in a total parser", t.text),
                    });
                }
            }
            if t.punct() == Some('[') {
                let prev = ci.checked_sub(1).map(|p| &tokens[code[p]]);
                if is_indexing(prev) {
                    raw.push(Violation {
                        rule: NO_PANIC,
                        severity: Severity::Error,
                        file: file.to_string(),
                        line: t.line,
                        message: format!(
                            "direct indexing `{}[..]` can panic; use .get()",
                            prev.map(|p| p.text.as_str()).unwrap_or("")
                        ),
                    });
                }
            }
        }
    }

    // --- no-alloc-in-into ---------------------------------------------------
    for (open, close, fn_name) in alloc_checked_fn_bodies(&tokens, &code) {
        for ci in open..=close {
            let ti = code[ci];
            if masked[ti] {
                continue;
            }
            let t = &tokens[ti];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let prev = ci.checked_sub(1).map(|p| &tokens[code[p]]);
            let next = code.get(ci + 1).map(|&n| &tokens[n]);
            let mut hit: Option<String> = None;
            if ALLOC_METHODS.contains(&t.text.as_str()) && prev.and_then(|p| p.punct()) == Some('.')
            {
                hit = Some(format!(".{}()", t.text));
            }
            if ALLOC_MACROS.contains(&t.text.as_str()) && next.and_then(|n| n.punct()) == Some('!')
            {
                hit = Some(format!("{}!", t.text));
            }
            if ALLOC_PATHS.iter().any(|(ty, ctor)| {
                t.text == *ty
                    && code.get(ci + 1).map(|&n| tokens[n].punct()) == Some(Some(':'))
                    && code.get(ci + 2).map(|&n| tokens[n].punct()) == Some(Some(':'))
                    && code.get(ci + 3).map(|&n| tokens[n].text.as_str()) == Some(*ctor)
            }) {
                let ctor = &tokens[code[ci + 3]].text;
                hit = Some(format!("{}::{}", t.text, ctor));
            }
            if let Some(what) = hit {
                raw.push(Violation {
                    rule: NO_ALLOC,
                    severity: Severity::Error,
                    file: file.to_string(),
                    line: t.line,
                    message: format!("{what} allocates inside 0-alloc hot path `fn {fn_name}`"),
                });
            }
        }
    }

    // --- unsafe-needs-safety-comment ----------------------------------------
    // A `// SAFETY:` comment covers the `unsafe` on its own line and —
    // walking a contiguous run of comment lines — any `unsafe` directly
    // below the run, so multi-line justifications work.
    let mut comment_lines: std::collections::BTreeMap<usize, bool> = Default::default();
    for c in &tokens {
        if !matches!(c.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let has_safety = c.text.contains("SAFETY:");
        for (i, _) in c.text.split('\n').enumerate() {
            let entry = comment_lines.entry(c.line + i).or_insert(false);
            *entry |= has_safety;
        }
    }
    for &ti in &code {
        let t = &tokens[ti];
        if t.kind != TokenKind::Ident || t.text != "unsafe" || masked[ti] {
            continue;
        }
        let mut covered = comment_lines.get(&t.line).copied() == Some(true);
        let mut line = t.line;
        while !covered && line > 1 {
            line -= 1;
            match comment_lines.get(&line) {
                Some(true) => covered = true,
                Some(false) => continue,
                None => break,
            }
        }
        if !covered {
            raw.push(Violation {
                rule: UNSAFE_COMMENT,
                severity: Severity::Error,
                file: file.to_string(),
                line: t.line,
                message: "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
            });
        }
    }

    // --- no-raw-ms-in-quic --------------------------------------------------
    // Pattern: an identifier ending in `_ms`, a `:`, then `u64` — a
    // millisecond count smuggled past the typed time API as a bare
    // integer (fn params and struct fields alike). Scoped to the
    // crates whose public time surfaces are `doc-time` newtypes.
    if TYPED_TIME_CRATES
        .iter()
        .any(|prefix| normalized.contains(prefix))
    {
        for (ci, &ti) in code.iter().enumerate() {
            if masked[ti] {
                continue;
            }
            let t = &tokens[ti];
            if t.kind != TokenKind::Ident || !t.text.ends_with("_ms") {
                continue;
            }
            let colon = code.get(ci + 1).map(|&n| tokens[n].punct()) == Some(Some(':'));
            // `::` starts a path, not a type ascription.
            let path = code.get(ci + 2).map(|&n| tokens[n].punct()) == Some(Some(':'));
            let u64_ty = code.get(ci + 2).map(|&n| tokens[n].text.as_str()) == Some("u64");
            if colon && !path && u64_ty {
                raw.push(Violation {
                    rule: NO_RAW_MS,
                    severity: Severity::Warning,
                    file: file.to_string(),
                    line: t.line,
                    message: format!(
                        "`{}: u64` — use doc_time::Millis/Instant for time in this crate",
                        t.text
                    ),
                });
            }
        }
    }

    // --- pub-needs-caller ---------------------------------------------------
    // `pub [const|unsafe|async] fn <name>` outside test modules, in a
    // `crates/*/src` file, whose name no non-test code mentions. A
    // `.name` token only reaches a method (a `pub fn` in an `impl`
    // body). Trait methods carry no `pub`, so impls are never flagged.
    let crate_src = normalized.starts_with("crates/") && normalized.contains("/src/");
    if let Some(callers) = callers.filter(|_| crate_src) {
        let in_impl = impl_body_mask(&tokens, &code);
        for (ci, &ti) in code.iter().enumerate() {
            if masked[ti] || tokens[ti].text != "pub" {
                continue;
            }
            let mut cj = ci + 1;
            while code
                .get(cj)
                .is_some_and(|&n| matches!(tokens[n].text.as_str(), "const" | "unsafe" | "async"))
            {
                cj += 1;
            }
            let is_fn = code.get(cj).is_some_and(|&n| tokens[n].text == "fn");
            let Some(name) = code.get(cj + 1).map(|&n| &tokens[n]).filter(|_| is_fn) else {
                continue;
            };
            let method_called = in_impl[ci] && callers.contains(&format!(".{}", name.text));
            if !callers.contains(&name.text) && !method_called {
                raw.push(Violation {
                    rule: PUB_NEEDS_CALLER,
                    severity: Severity::Error,
                    file: file.to_string(),
                    line: name.line,
                    message: format!("`pub fn {}` has no caller outside test code", name.text),
                });
            }
        }
    }

    // --- apply waivers ------------------------------------------------------
    let mut report = FileReport::default();
    for v in raw {
        let waived = waivers.iter_mut().any(|w| {
            w.rule == v.rule && (w.line == v.line || w.line + 1 == v.line) && {
                w.used = true;
                true
            }
        });
        if waived {
            report.waived.push(v);
        } else {
            report.violations.push(v);
        }
    }
    report.unused_waivers = waivers
        .into_iter()
        .filter(|w| !w.used)
        .map(|w| UnusedWaiver {
            file: file.to_string(),
            line: w.line,
            rule: w.rule,
        })
        .collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_parsing() {
        let t = |s: &str| Token {
            kind: TokenKind::LineComment,
            text: s.to_string(),
            line: 1,
        };
        assert_eq!(
            parse_waiver(&t(
                "// lint:allow(no-panic-in-parsers): bounds checked above"
            )),
            Some((
                "no-panic-in-parsers".to_string(),
                "bounds checked above".to_string()
            ))
        );
        // A reason is mandatory; a bare waiver excuses nothing.
        assert_eq!(
            parse_waiver(&t("// lint:allow(no-panic-in-parsers):")),
            None
        );
        assert_eq!(parse_waiver(&t("// lint:allow(): because")), None);
        assert_eq!(parse_waiver(&t("// plain comment")), None);
    }

    #[test]
    fn test_modules_are_masked() {
        let src = r#"
            fn real() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn t() { y.unwrap(); data[0]; }
            }
        "#;
        let report = lint_source("crates/dns/src/view.rs", src, None);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].line, 2);
    }

    #[test]
    fn waived_violations_move_to_waived() {
        let src = "\
fn f() {
    // lint:allow(no-panic-in-parsers): length checked by caller
    let x = data[0];
    let y = data[1];
}
";
        let report = lint_source("crates/coap/src/view.rs", src, None);
        assert_eq!(report.waived.len(), 1);
        assert_eq!(report.violations.len(), 1, "second index is not covered");
        assert_eq!(report.violations[0].line, 4);
        assert!(report.unused_waivers.is_empty());
    }

    #[test]
    fn unused_waivers_are_reported() {
        let src = "// lint:allow(no-alloc-in-into): stale excuse\nfn g() {}\n";
        let report = lint_source("crates/dns/src/view.rs", src, None);
        assert!(report.violations.is_empty());
        assert_eq!(report.unused_waivers.len(), 1);
        assert_eq!(report.unused_waivers[0].rule, "no-alloc-in-into");
    }

    #[test]
    fn raw_ms_rule_warns_in_typed_time_crates_only() {
        let src = "pub fn set_timer(&mut self, at_ms: u64, token: u64) {}\n";
        let report = lint_source("crates/netsim/src/lib.rs", src, None);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let v = &report.violations[0];
        assert_eq!(v.rule, NO_RAW_MS);
        assert_eq!(v.severity, Severity::Warning);
        assert!(v.message.contains("at_ms"), "{}", v.message);
        // Struct fields are flagged too.
        let report = lint_source(
            "crates/quic/src/conn.rs",
            "struct S { deadline_ms: u64 }\n",
            None,
        );
        assert_eq!(report.violations.len(), 1);
        // Outside the typed-time crates the same code is fine.
        let report = lint_source("crates/core/src/pool.rs", src, None);
        assert!(report.violations.is_empty());
        // `_ms` bindings of a *typed* kind are fine, and `::` paths
        // are not type ascriptions.
        let ok = "fn f(at_ms: Millis) { let x = now_ms::helper(); }\n";
        assert!(lint_source("crates/quic/src/conn.rs", ok, None)
            .violations
            .is_empty());
    }

    #[test]
    fn rules_scope_to_their_modules() {
        // unwrap outside the parser allowlist is fine…
        let report = lint_source("crates/bench/src/lib.rs", "fn f() { x.unwrap(); }", None);
        assert!(report.violations.is_empty());
        // …but unsafe without SAFETY is flagged everywhere.
        let report = lint_source("crates/bench/src/lib.rs", "unsafe fn f() {}", None);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, UNSAFE_COMMENT);
    }
}
