//! `bench_gate` — the parsed CI gate over the `BENCH_*.json`
//! artifacts.
//!
//! Usage (subcommands, one artifact each):
//!
//! ```text
//! bench_gate proxy  PATH [--require-scaling]
//! bench_gate crypto PATH
//! bench_gate codecs PATH
//! bench_gate docbench PATH
//! ```
//!
//! * `codecs PATH` — validate a `doc-bench/codecs/v2` artifact
//!   (schema + row shapes + the 0 allocs/iter invariant on every
//!   `*_view`/`*_into` row).
//! * `proxy PATH` — validate a `doc-bench/proxy/v4` artifact
//!   (schema + 1/2/4/8-worker CoAP rows + doq/doh/dot rows +
//!   per-worker steal counts + percentile sanity + the zero-alloc
//!   bound `allocs_per_req < 1` on the 4-worker CoAP sim-path row +
//!   the congested-bottleneck `recovery` rows: all three congestion
//!   controllers present, both adaptive controllers' p99 below the
//!   fixed-RTO oracle's).
//! * `crypto PATH` — validate a `doc-bench/crypto/v1` artifact
//!   (schema + per-backend 1/4/8 CCM seal sweep; on full measurement
//!   windows also the vectorization bounds: AES-NI seal ≥ 2× the
//!   scalar reference, batch-8 ≥ 1.3× batch-1 on the multi-block
//!   backends).
//! * `docbench PATH` — validate one run of the standalone benchmark
//!   (`docbench/`, one JSON document on stdout): `"correct": true`,
//!   `"failed": 0`, a positive `attempted` count, a `cpu_us_per_req`
//!   metric.
//! * `--require-scaling` (proxy only) — additionally enforce the
//!   4-vs-1 worker throughput ratio; the required ratio depends on the
//!   parallelism recorded in the artifact (≥ 2× on ≥ 4 cores, a
//!   no-collapse bound on fewer — a 1-core container cannot
//!   demonstrate a parallel speedup).
//!
//! Several subcommands may be chained in one invocation:
//!
//! ```text
//! bench_gate codecs BENCH_codecs.json proxy BENCH_proxy.json --require-scaling
//! ```
//!
//! Exit status 0 = every requested gate passed. Any parse error,
//! schema drift, missing field, failed bound, or unknown argument
//! (including the pre-subcommand `--codecs/--proxy/--crypto` flag
//! spellings, whose deprecation window has ended) exits 1 with a
//! usage diagnostic.

use doc_bench::{gate, json};

fn fail(msg: &str) -> ! {
    eprintln!("bench_gate: FAIL: {msg}");
    std::process::exit(1);
}

fn load(path: &str) -> json::Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

/// One requested check: which gate, over which artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Codecs,
    Proxy,
    Crypto,
    Docbench,
}

const USAGE: &str = "usage: bench_gate {proxy|crypto|codecs|docbench} PATH ... [--require-scaling]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut checks: Vec<(Kind, String)> = Vec::new();
    let mut require_scaling = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut subcommand = |kind: Kind, name: &str| {
            let path = it
                .next()
                .unwrap_or_else(|| fail(&format!("{name} needs a path")))
                .clone();
            checks.push((kind, path));
        };
        match arg.as_str() {
            "codecs" => subcommand(Kind::Codecs, "codecs"),
            "proxy" => subcommand(Kind::Proxy, "proxy"),
            "crypto" => subcommand(Kind::Crypto, "crypto"),
            "docbench" => subcommand(Kind::Docbench, "docbench"),
            "--require-scaling" => require_scaling = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument {other} ({USAGE})")),
        }
    }
    if checks.is_empty() {
        fail(&format!("nothing to check ({USAGE})"));
    }
    if require_scaling && !checks.iter().any(|(k, _)| *k == Kind::Proxy) {
        fail("--require-scaling only applies to the proxy gate");
    }
    for (kind, path) in checks {
        let doc = load(&path);
        let result = match kind {
            Kind::Codecs => gate::check_codecs(&doc),
            Kind::Proxy => gate::check_proxy(&doc, require_scaling),
            Kind::Crypto => gate::check_crypto(&doc),
            Kind::Docbench => gate::check_docbench(&doc),
        };
        match result {
            Ok(summary) => println!("bench_gate: OK {path}: {summary}"),
            Err(e) => fail(&format!("{path}: {e}")),
        }
    }
}
