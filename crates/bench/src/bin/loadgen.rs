//! `doc-bench` — the standalone closed-loop load generator.
//!
//! Replays the paper's DoC query mix against the sharded multi-worker
//! proxy front-end and prints one summary row per worker count:
//!
//! ```text
//! cargo run --release -p doc-bench --bin doc-bench -- \
//!     --workers 1,2,4,8 --requests 200000 --concurrency 256 \
//!     --names 256 --shards 16 --json BENCH_proxy.json
//! ```
//!
//! All flags are optional: the worker sweep defaults to 1,2,4,8 and the
//! rest to `LoadSpec::default()` (50,000 requests, concurrency 256, 256
//! names, 16 shards, 300 ‰ GET). Worker counts, `--requests` and
//! `--names` must be at least 1. Every row must answer every request
//! from a hit-dominated steady state (> 90 % hits), or the run panics.
//!
//! With `--json PATH` the run also writes the `doc-bench/proxy/v5`
//! artifact (`BENCH_proxy.json`): the worker rows plus the
//! deterministic congested-bottleneck `recovery` rows. A 1,2,4,8 sweep
//! passes `bench_gate proxy`; `bench_gate proxy --require-scaling`
//! adds the 4-vs-1 scaling bound, scaled to the parallelism the
//! artifact records.

use doc_bench::alloc_counter::{alloc_count, CountingAllocator};
use doc_bench::throughput::{
    proxy_json, recovery_rows, run_load, LoadSpec, ThroughputRow, WORKER_SWEEP,
};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const USAGE: &str = "usage: doc-bench [--workers N,N,..] [--requests N] [--concurrency N] \
                     [--names N] [--shards N] [--get-permille N] [--json PATH]\n\
                     worker counts, --requests and --names must be >= 1";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn print_row(r: &ThroughputRow) {
    println!(
        "{:>3} workers  {:>10.0} req/s  p50 {:>8.1} µs  p99 {:>8.1} µs  {:>6.1} allocs/req  hit rate {:>5.1}%",
        r.workers,
        r.req_per_s,
        r.p50_us,
        r.p99_us,
        r.allocs_per_req,
        r.cache_hit_rate * 100.0
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workers: Vec<usize> = WORKER_SWEEP.to_vec();
    let mut base = LoadSpec::default();
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    let parse_num =
        |v: Option<&String>| -> u64 { v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()) };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => {
                let list = it.next().unwrap_or_else(|| usage());
                workers = list
                    .split(',')
                    .map(|w| match w.trim().parse() {
                        Ok(n) if n > 0 => n,
                        _ => usage(),
                    })
                    .collect();
            }
            "--requests" => {
                base.total_requests = parse_num(it.next());
                if base.total_requests == 0 {
                    usage();
                }
            }
            "--concurrency" => base.concurrency = parse_num(it.next()) as usize,
            "--names" => {
                base.unique_names = parse_num(it.next()) as u32;
                if base.unique_names == 0 {
                    usage();
                }
            }
            "--shards" => base.shards = parse_num(it.next()) as usize,
            "--get-permille" => base.get_permille = parse_num(it.next()) as u32,
            "--json" => json_path = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            _ => usage(),
        }
    }
    println!(
        "doc-bench load generator: {} requests/run, concurrency {}, {} names, {} shards, GET {}‰",
        base.total_requests, base.concurrency, base.unique_names, base.shards, base.get_permille
    );
    let mut rows = Vec::new();
    for w in workers {
        let spec = LoadSpec {
            workers: w,
            ..base.clone()
        };
        let row = run_load(&spec, &alloc_count);
        print_row(&row);
        // Machine-independent sanity: a healthy closed loop answers
        // every request, from a hit-dominated steady state.
        assert_eq!(
            row.replies, row.requests,
            "lost replies at {} workers",
            row.workers
        );
        assert!(
            row.cache_hit_rate > 0.9,
            "steady state not hit-dominated at {} workers: {}",
            row.workers,
            row.cache_hit_rate
        );
        rows.push(row);
    }
    if let Some(path) = json_path {
        std::fs::write(&path, proxy_json(&rows, &recovery_rows())).expect("write JSON artifact");
        println!("wrote {path}");
    }
}
