//! `doc-lint` — workspace invariant linter.
//!
//! A deliberately small static analyzer for the invariants this
//! workspace cares about and `clippy` cannot express: wire-facing
//! parsers must be total, `*_into`/`*_view` hot paths must not
//! allocate, every `unsafe` must carry a `// SAFETY:` comment, and
//! every `pub fn` in `crates/*/src` must have a caller outside tests.
//!
//! The pipeline is three layers, each independently testable:
//!
//! * [`lexer`] — a hand-rolled Rust lexer (raw strings, nested block
//!   comments, lifetimes-vs-char-literals) that turns source text into
//!   tokens so the rules never false-positive on `unwrap` inside a
//!   string or a doc comment.
//! * [`rules`] — the rule engine plus the
//!   `// lint:allow(<rule>): <reason>` waiver mechanism.
//! * [`workspace`] — the file walker and report aggregator that
//!   `lint_gate` (and `./ci.sh check`) drives. It collects the
//!   `pub-needs-caller` caller set from every caller root before it
//!   lints file by file.

pub mod lexer;
pub mod rules;
pub mod workspace;

pub use rules::{lint_source, FileReport, Severity, UnusedWaiver, Violation, ALL_RULES};
pub use workspace::{lint_workspace, workspace_sources};
