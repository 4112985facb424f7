//! Regenerates Fig. 7: resolution-time CDFs for 50 queries
//! (Poisson λ = 5 /s) per transport and method, for A and AAAA records.

use doc_bench::cdf_rows;
use doc_core::experiment::{run, ExperimentConfig};
use doc_core::method::DocMethod;
use doc_core::transport::{TransportKind, TRANSPORT_MATRIX};
use doc_dns::RecordType;

fn main() {
    let probes = [100u64, 250, 500, 1000, 2500, 5000, 10_000, 20_000, 40_000];
    for (panel, rtype) in [
        ("(a) A record", RecordType::A),
        ("(b) AAAA record", RecordType::Aaaa),
    ] {
        println!("Fig. 7 {panel} — CDF of resolution time [ms] over 50 queries");
        print!("{:<22}", "transport/method");
        for p in probes {
            print!(" {p:>6}");
        }
        println!();
        // Rows come from the shared transport × method matrix (the same
        // table the end-to-end suite uses), so a new transport appears
        // here automatically.
        let configs: Vec<(String, TransportKind, DocMethod)> = TRANSPORT_MATRIX
            .iter()
            .map(|&(transport, method)| {
                let label = if transport.coap_based() {
                    format!("{} {}", transport.name(), method.name())
                } else {
                    transport.name().to_string()
                };
                (label, transport, method)
            })
            .collect();
        for (label, transport, method) in configs {
            // Average over 10 repetitions like the paper ("All runs are
            // repeated 10 times").
            let mut all = Vec::new();
            let mut total = 0usize;
            for rep in 0..10u64 {
                let cfg = ExperimentConfig {
                    transport,
                    method,
                    record_type: rtype,
                    num_queries: 50,
                    num_names: 50,
                    loss_permille: 120,
                    seed: 0xF16_0007 + rep,
                    ..Default::default()
                };
                let r = run(&cfg);
                total += r.queries.len();
                all.extend(r.sorted_latencies());
            }
            all.sort_unstable();
            print!("{label:<22}");
            for (_, frac) in cdf_rows(&all, total, &probes) {
                print!(" {:>6.3}", frac);
            }
            println!();
        }
        println!();
    }
}
