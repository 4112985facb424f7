//! Fixture-based rule tests: each fixture is a small, realistic Rust
//! program embedded as a raw string; assertions pin which rule fires
//! on which line — and that the real workspace stays lint-clean.

use std::fs;
use std::path::Path;

use doc_lint::rules::{NO_ALLOC, NO_PANIC, PUB_NEEDS_CALLER, UNSAFE_COMMENT};
use doc_lint::{lint_source, lint_workspace, FileReport};

/// A parser-scoped fixture with one violation of each panic flavour.
#[test]
fn panic_rule_fires_on_each_flavour() {
    let src = r#"
pub fn parse(data: &[u8]) -> Result<u8, ()> {
    let first = data[0];
    let second = *data.get(1).unwrap();
    let third = data.first().copied().expect("nonempty");
    if first == 0 {
        unreachable!("checked");
    }
    Ok(first + second + third)
}
"#;
    let report = lint_source("crates/quic/src/frame.rs", src, None);
    let lines: Vec<(usize, &str)> = report.violations.iter().map(|v| (v.line, v.rule)).collect();
    assert_eq!(
        lines,
        vec![
            (3, NO_PANIC), // data[0]
            (4, NO_PANIC), // .unwrap()
            (5, NO_PANIC), // .expect()
            (7, NO_PANIC), // unreachable!
        ],
        "{:?}",
        report.violations
    );
}

/// The same source outside the parser allowlist is clean.
#[test]
fn panic_rule_is_scoped_to_parser_modules() {
    let src = "pub fn helper(data: &[u8]) -> u8 { data[0] }\n";
    assert!(lint_source("crates/netsim/src/lib.rs", src, None)
        .violations
        .is_empty());
}

/// Checked `.get()` rewrites — the fix the rule demands — are clean.
#[test]
fn checked_gets_are_clean() {
    let src = r#"
pub fn parse(data: &[u8]) -> Option<(u8, u16)> {
    let (header, rest) = data.split_first_chunk::<4>()?;
    let &[first, _, hi, lo] = header;
    let tail = rest.get(..2)?;
    let _ = tail;
    Some((first, u16::from_be_bytes([hi, lo])))
}
"#;
    let report = lint_source("crates/dns/src/view.rs", src, None);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

/// Alloc rule: fires inside `*_into`/`*_view` bodies, not elsewhere.
#[test]
fn alloc_rule_scopes_to_into_and_view_fns() {
    let src = r#"
pub fn encode_into(&self, out: &mut Vec<u8>) {
    let copy = self.data.to_vec();
    out.extend_from_slice(&copy);
}

pub fn encode(&self) -> Vec<u8> {
    let mut out = Vec::new();
    self.data.to_vec()
}
"#;
    let report = lint_source("crates/coap/src/msg.rs", src, None);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert_eq!(report.violations[0].rule, NO_ALLOC);
    assert_eq!(report.violations[0].line, 3);
}

#[test]
fn alloc_rule_catches_constructor_paths_and_macros() {
    let src = r#"
fn build_view(buf: &mut Vec<u8>) {
    let a = Vec::with_capacity(8);
    let b = format!("{a:?}");
    let _ = (a, b);
}
"#;
    let report = lint_source("anywhere.rs", src, None);
    assert_eq!(
        report.violations.iter().map(|v| v.line).collect::<Vec<_>>(),
        vec![3, 4],
        "{:?}",
        report.violations
    );
}

/// Unsafe rule: a multi-line SAFETY block covers the `unsafe` below
/// it; an undocumented one is flagged.
#[test]
fn unsafe_rule_accepts_multiline_safety_blocks() {
    let src = r#"
// SAFETY: the pointer comes from Box::into_raw two lines up and is
// consumed exactly once, so the Box contract holds across the
// round-trip.
unsafe fn documented(p: *mut u8) {
    let _ = p;
}

unsafe fn undocumented(p: *mut u8) {
    let _ = p;
}
"#;
    let report = lint_source("crates/core/src/lib.rs", src, None);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert_eq!(report.violations[0].rule, UNSAFE_COMMENT);
    assert_eq!(report.violations[0].line, 9);
}

/// Waivers: cover their own line and the next; carry their reason;
/// stale ones surface as unused.
#[test]
fn waivers_cover_fix_sites_and_report_staleness() {
    let src = r#"
fn decode(data: &[u8]) -> u8 {
    // lint:allow(no-panic-in-parsers): caller guarantees one byte
    data[0]
}
// lint:allow(no-alloc-in-into): nothing here allocates any more
fn other() {}
"#;
    let report = lint_source("crates/coap/src/view.rs", src, None);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.waived.len(), 1);
    assert_eq!(report.unused_waivers.len(), 1);
    assert_eq!(report.unused_waivers[0].line, 6);
}

/// The acceptance criterion, enforced in tier-1: the workspace itself
/// has zero unwaivered violations. (`lint_gate` checks the same thing
/// in CI; this keeps `cargo test` sufficient to catch regressions.)
#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint lives two levels below the workspace root")
        .to_path_buf();
    let reports = lint_workspace(&root).expect("workspace is readable");
    let violations: Vec<String> = reports
        .iter()
        .flat_map(|(_, r)| r.violations.iter().map(|v| v.to_string()))
        .collect();
    assert!(
        violations.is_empty(),
        "unwaivered lint violations:\n{}",
        violations.join("\n")
    );
}

/// Lay `files` out as a workspace in a fresh directory named `name`
/// and lint it.
fn lint_tree(name: &str, files: &[(&str, &str)]) -> Vec<(String, FileReport)> {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    for (path, source) in files {
        let path = root.join(path);
        fs::create_dir_all(path.parent().expect("file paths have a parent")).unwrap();
        fs::write(path, source).unwrap();
    }
    lint_workspace(&root).expect("fixture tree is readable")
}

/// `(file:line, message)` of each unwaived `pub-needs-caller` hit.
fn dead_pub_fns(reports: &[(String, FileReport)]) -> Vec<String> {
    reports
        .iter()
        .flat_map(|(_, r)| &r.violations)
        .filter(|v| v.rule == PUB_NEEDS_CALLER)
        .map(|v| format!("{}:{}", v.file, v.line))
        .collect()
}

/// A `pub fn` that only a `#[cfg(test)]` module or a `tests/` file
/// calls has no caller; neither its own definition nor test code
/// counts.
#[test]
fn pub_fn_reached_only_from_tests_is_flagged() {
    let lib = r#"pub fn only_unit_tested() {}
pub fn only_integration_tested() {}
pub fn used() {}
fn private_helper() {
    used();
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::only_unit_tested();
    }
}
"#;
    let reports = lint_tree(
        "pub_fn_tests_only",
        &[
            ("crates/a/src/lib.rs", lib),
            (
                "crates/a/tests/it.rs",
                "fn t() { a::only_integration_tested(); }\n",
            ),
        ],
    );
    assert_eq!(
        dead_pub_fns(&reports),
        ["crates/a/src/lib.rs:1", "crates/a/src/lib.rs:2"]
    );
}

/// Benches, examples and the standalone benchmark's sources are
/// callers.
#[test]
fn bench_example_and_docbench_callers_count() {
    let lib = "pub fn from_bench() {}\npub fn from_example() {}\npub fn from_docbench() {}\n";
    let reports = lint_tree(
        "pub_fn_callers",
        &[
            ("crates/a/src/lib.rs", lib),
            ("crates/a/benches/b.rs", "fn main() { a::from_bench(); }\n"),
            ("examples/e.rs", "fn main() { a::from_example(); }\n"),
            (
                "docbench/src/main.rs",
                "fn main() { a::from_docbench(); }\n",
            ),
        ],
    );
    assert!(dead_pub_fns(&reports).is_empty(), "{reports:?}");
}

/// Trait methods carry no `pub`, so an impl's method is never
/// flagged, while an uncalled inherent `pub fn` beside it is.
#[test]
fn trait_impl_methods_are_not_flagged() {
    let lib = r#"pub struct S;
pub trait Run {
    fn run(&self);
}
impl Run for S {
    fn run(&self) {}
}
impl S {
    pub fn inherent_dead(&self) {}
}
"#;
    let reports = lint_tree("pub_fn_trait_impl", &[("crates/a/src/lib.rs", lib)]);
    assert_eq!(dead_pub_fns(&reports), ["crates/a/src/lib.rs:9"]);
}

/// A `.name` token is a method call (or a field): it reaches a
/// `pub fn name` in an `impl` body but not a free `pub fn name` that
/// only shares the name, while a path call or a range end `..name()`
/// reaches the free one.
#[test]
fn method_call_tokens_do_not_reach_free_fns() {
    let lib = r#"pub fn decode(data: &[u8]) -> u8 { data[0] }
pub fn len_of() -> usize { 1 }
pub struct Client;
impl Client {
    pub fn decode(&self) {}
    pub fn run(&self) { self.decode(); }
}
pub fn run_all() { for _ in 0..len_of() { Client.run(); } }
"#;
    let reports = lint_tree(
        "pub_fn_method_tokens",
        &[
            ("crates/a/src/lib.rs", lib),
            ("src/main.rs", "fn main() { a::run_all(); }\n"),
        ],
    );
    assert_eq!(dead_pub_fns(&reports), ["crates/a/src/lib.rs:1"]);
}

/// A waived oracle counts as waived; a waiver on a function that has
/// a caller excuses nothing and is reported unused. The rule covers
/// `crates/*/src` only, so the uncalled `pub fn` in `src/` is fine.
#[test]
fn pub_fn_waivers_are_used_or_reported() {
    let lib = r#"// lint:allow(pub-needs-caller): the oracle the tests compare against
pub fn oracle() {}
// lint:allow(pub-needs-caller): stale, this one has a caller
pub fn called() {}
"#;
    let reports = lint_tree(
        "pub_fn_waivers",
        &[
            ("crates/a/src/lib.rs", lib),
            ("src/lib.rs", "pub fn umbrella() { a::called(); }\n"),
        ],
    );
    let (label, report) = &reports[0];
    assert_eq!((reports.len(), label.as_str()), (1, "crates/a/src/lib.rs"));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let waived: Vec<_> = report.waived.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(waived, [(PUB_NEEDS_CALLER, 2)]);
    let unused: Vec<_> = report.unused_waivers.iter().map(|w| w.line).collect();
    assert_eq!(unused, [3]);
}
