//! `doc-bench` — the evaluation harness.
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index) regenerates the corresponding rows/series on stdout:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table 1 — transport feature matrix |
//! | `table3` | Table 3 — name-length statistics |
//! | `table4` | Table 4 — record-type mix |
//! | `table5` | Table 5 — method comparison |
//! | `fig1` | Fig. 1 — name-length densities |
//! | `fig3` | Fig. 3 — DoH-like caching sequence |
//! | `fig5` | Fig. 5 — ROM/RAM per transport |
//! | `fig6` | Fig. 6 — link-layer packet sizes |
//! | `fig7` | Fig. 7 — resolution-time CDFs |
//! | `fig8` | Fig. 8 — code sizes incl. QUIC |
//! | `fig9` | Fig. 9 — DoQ penalty sweep |
//! | `fig10` | Fig. 10 — link utilization under caching |
//! | `fig11` | Fig. 11 — retransmission/cache-event scatter |
//! | `fig12` | Fig. 12 — block-wise transfer sequences |
//! | `fig14` | Fig. 14 — block-wise packet sizes |
//! | `fig15` | Fig. 15 — block-wise resolution CDFs |
//! | `compression` | §7 — dns+cbor compression |
//!
//! `cargo bench -p doc-bench` additionally runs the codec (`encode`)
//! and crypto (`crypto`) micro-benchmarks on [`harness::time`], and the
//! `doc-bench` binary runs the multi-worker proxy load generator.

pub mod alloc_counter;
pub mod gate;
pub mod harness;
pub mod json;
pub mod throughput;

/// Render a labelled CDF as text rows (latency ms → cumulative
/// fraction) at the given probe points.
pub fn cdf_rows(latencies_ms: &[u64], total: usize, probes: &[u64]) -> Vec<(u64, f64)> {
    probes
        .iter()
        .map(|&p| {
            let n = latencies_ms.iter().filter(|&&l| l <= p).count();
            (p, n as f64 / total.max(1) as f64)
        })
        .collect()
}

/// Pretty-print a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

/// A `✓`/`✘` cell.
pub fn check(b: bool) -> &'static str {
    if b {
        "✓"
    } else {
        "✘"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_rows_monotone() {
        let lat = vec![10, 20, 30, 40, 1000];
        let rows = cdf_rows(&lat, 5, &[0, 15, 35, 2000]);
        assert_eq!(rows[0].1, 0.0);
        assert_eq!(rows[1].1, 0.2);
        assert_eq!(rows[2].1, 0.6);
        assert_eq!(rows[3].1, 1.0);
        assert!(rows.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn cdf_counts_failures_via_total() {
        // 5 queries, only 3 resolved: CDF tops out at 0.6.
        let lat = vec![10, 20, 30];
        let rows = cdf_rows(&lat, 5, &[100]);
        assert_eq!(rows[0].1, 0.6);
    }

    #[test]
    fn format_helpers() {
        assert_eq!(pct(0.5), " 50.0%");
        assert_eq!(check(true), "✓");
        assert_eq!(check(false), "✘");
    }
}
