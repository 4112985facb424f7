//! `lint_gate` — the workspace invariant linter's CI entry point.
//!
//! Walks `src/` plus every `crates/*/src` (and, for the
//! `pub-needs-caller` caller set, `crates/*/benches`, `examples/` and
//! `docbench/src`), runs the `doc-lint` rules, and exits 0 iff there
//! are zero unwaivered *error*-severity violations.
//! Warning-severity rules (those soaking before
//! promotion, e.g. `no-raw-ms-in-quic`) are printed but never affect
//! the exit status. Waived violations and unused waivers are printed
//! as warnings so exceptions stay visible. `./ci.sh check` invokes
//! exactly this.
//!
//! ```text
//! lint_gate [--root DIR] [--rule NAME] [--list]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use doc_lint::{lint_workspace, Severity, ALL_RULES};

struct Args {
    root: PathBuf,
    rule: Option<String>,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        rule: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--rule" => args.rule = Some(value("--rule")?),
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(rule) = &args.rule {
        if !ALL_RULES.contains(&rule.as_str()) {
            return Err(format!("unknown rule {rule:?} (try --list)"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lint_gate: {e}");
            eprintln!("usage: lint_gate [--root DIR] [--rule NAME] [--list]");
            return ExitCode::from(2);
        }
    };

    if args.list {
        for rule in ALL_RULES {
            println!("{rule}");
        }
        return ExitCode::SUCCESS;
    }

    let reports = match lint_workspace(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint_gate: walking {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    let mut violations = 0usize;
    let mut warnings = 0usize;
    let mut waived = 0usize;
    let mut files = 0usize;
    for (_, report) in &reports {
        files += 1;
        for v in &report.violations {
            if args.rule.as_deref().is_some_and(|r| r != v.rule) {
                continue;
            }
            match v.severity {
                Severity::Error => {
                    violations += 1;
                    eprintln!("error: {v}");
                }
                Severity::Warning => {
                    warnings += 1;
                    println!("warning: {v}");
                }
            }
        }
        for v in &report.waived {
            if args.rule.as_deref().is_some_and(|r| r != v.rule) {
                continue;
            }
            waived += 1;
            println!("waived: {v}");
        }
        for w in &report.unused_waivers {
            println!(
                "warning: {}:{}: unused waiver for {} — remove it",
                w.file, w.line, w.rule
            );
        }
    }

    println!(
        "lint_gate: {violations} violation(s), {warnings} warning(s), {waived} waived, \
         across {files} flagged file(s)"
    );
    if violations > 0 {
        eprintln!("lint_gate: add fixes or `// lint:allow(<rule>): <reason>` waivers");
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
