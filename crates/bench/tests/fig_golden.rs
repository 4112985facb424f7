//! Every paper figure/table binary prints exactly the text recorded in
//! `tests/golden/<name>.txt`, byte for byte.
//!
//! The simulations are seeded and virtual-timed, so their output is a
//! pure function of the code: a diff here means a change moved a paper
//! number (or introduced nondeterminism), not that the host was busy.
//! When a change is *meant* to move a figure, regenerate its golden with
//! `cargo run -q --release -p doc-bench --bin <name> >
//! crates/bench/tests/golden/<name>.txt` and say why in the change log.

use std::path::Path;
use std::process::Command;

fn check(name: &str, exe: &str) {
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let want = std::fs::read(&golden).unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
    if out.stdout != want {
        let got = String::from_utf8_lossy(&out.stdout);
        let want = String::from_utf8_lossy(&want);
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{name}: stdout differs from {} at line {}\n  got:  {:?}\n  want: {:?}",
            golden.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line),
        );
    }
}

macro_rules! golden {
    ($($test:ident => $bin:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                check($bin, env!(concat!("CARGO_BIN_EXE_", $bin)));
            }
        )*
    };
}

golden! {
    fig1_matches_golden => "fig1",
    fig3_matches_golden => "fig3",
    fig5_matches_golden => "fig5",
    fig6_matches_golden => "fig6",
    fig7_matches_golden => "fig7",
    fig8_matches_golden => "fig8",
    fig9_matches_golden => "fig9",
    fig10_matches_golden => "fig10",
    fig11_matches_golden => "fig11",
    fig12_matches_golden => "fig12",
    fig14_matches_golden => "fig14",
    fig15_matches_golden => "fig15",
    table1_matches_golden => "table1",
    table3_matches_golden => "table3",
    table4_matches_golden => "table4",
    table5_matches_golden => "table5",
    compression_matches_golden => "compression",
}
