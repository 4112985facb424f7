//! Workspace walker: finds the Rust sources the linter covers and
//! aggregates per-file reports into one gate verdict.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

use crate::rules::{collect_callers, lint_source, FileReport};

/// Collect every `.rs` file under `root` that the lint gate covers:
/// the umbrella `src/` tree plus each `crates/*/src` tree. `target/`
/// and anything named `third_party` are skipped.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut roots = vec![root.join("src")];
    roots.extend(crate_dirs(root, "src"));
    rs_files(&roots)
}

/// The files whose non-test code counts as a caller for
/// `pub-needs-caller`: the linted sources plus `crates/*/benches`,
/// `examples/` and the standalone benchmark's `docbench/src`.
fn caller_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut roots = vec![
        root.join("src"),
        root.join("examples"),
        root.join("docbench/src"),
    ];
    roots.extend(crate_dirs(root, "src"));
    roots.extend(crate_dirs(root, "benches"));
    rs_files(&roots)
}

/// `crates/*/<sub>` directories that exist.
fn crate_dirs(root: &Path, sub: &str) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        return Vec::new();
    };
    entries
        .flatten()
        .map(|entry| entry.path().join(sub))
        .filter(|dir| dir.is_dir())
        .collect()
}

fn rs_files(roots: &[PathBuf]) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for dir in roots {
        collect_rs(dir, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)?.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == "target" || name == "third_party" {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every workspace source under `root`, labelling each file with
/// its `root`-relative path so reports are stable across machines.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<(String, FileReport)>> {
    let mut callers = HashSet::new();
    for path in caller_sources(root)? {
        collect_callers(&fs::read_to_string(&path)?, &mut callers);
    }
    let mut reports = Vec::new();
    for path in workspace_sources(root)? {
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&path)?;
        let report = lint_source(&label, &source, Some(&callers));
        if !report.violations.is_empty()
            || !report.waived.is_empty()
            || !report.unused_waivers.is_empty()
        {
            reports.push((label, report));
        }
    }
    Ok(reports)
}
