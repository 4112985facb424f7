//! Multi-worker proxy throughput bench: the scale-out companion of the
//! `encode` codec bench.
//!
//! Replays the DoC query mix closed-loop through the sharded
//! proxy/server behind the worker pool at 1/2/4/8 workers,
//! prints a summary table, and emits `BENCH_proxy.json`
//! (schema `doc-bench/proxy/v5`, path overridable via
//! `BENCH_PROXY_JSON`) for the `bench_gate` CI check. The artifact
//! also carries one congested-bottleneck `recovery` row per
//! congestion controller (fixed_rto / cubic / bbr_lite), produced by
//! the deterministic virtual-time scenario in
//! `doc_core::bottleneck`; `bench_gate proxy` asserts the adaptive
//! controllers beat the fixed-RTO oracle's p99 under loss.
//!
//! Knobs (environment):
//!
//! * `BENCH_PROXY_REQUESTS` — requests per worker-count run (default
//!   200 000; `ci.sh` smoke uses a small value).
//! * `BENCH_PROXY_CONCURRENCY` — most datagrams a worker pulls at once
//!   (default 256, clamped to `MAX_DRAIN`).
//! * `BENCH_PROXY_NAMES` — distinct names in the mix (default 256).
//! * `BENCH_PROXY_SHARDS` — cache shard count (default 16).
//!
//! The run itself asserts only machine-independent invariants (every
//! request answered, hit-dominated steady state). The 4-vs-1 scaling
//! bound is enforced by `bench_gate --require-scaling`, which scales
//! its expectation to the parallelism recorded in the artifact: the
//! ≥ 2× tentpole bound applies on ≥ 4-core machines (e.g. the CI
//! runner); a 1-core container can only demonstrate that
//! oversubscription does not collapse throughput.

use doc_bench::alloc_counter::{alloc_count, CountingAllocator};
use doc_bench::throughput::{env_u64, proxy_json, recovery_rows, run_load, LoadSpec, WORKER_SWEEP};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn main() {
    let base = LoadSpec {
        total_requests: env_u64("BENCH_PROXY_REQUESTS", 200_000),
        concurrency: env_u64("BENCH_PROXY_CONCURRENCY", 256) as usize,
        unique_names: env_u64("BENCH_PROXY_NAMES", 256) as u32,
        shards: env_u64("BENCH_PROXY_SHARDS", 16) as usize,
        ..LoadSpec::default()
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "proxy throughput: {} requests/run, concurrency {}, {} names, {} shards, machine parallelism {}",
        base.total_requests, base.concurrency, base.unique_names, base.shards, cores
    );
    println!(
        "{:<8} {:>12} {:>10} {:>10} {:>12} {:>10}",
        "workers", "req/s", "p50 µs", "p99 µs", "allocs/req", "hit rate"
    );
    let mut rows = Vec::new();
    for workers in WORKER_SWEEP {
        let spec = LoadSpec {
            workers,
            ..base.clone()
        };
        let row = run_load(&spec, &alloc_count);
        println!(
            "{:<8} {:>12.0} {:>10.1} {:>10.1} {:>12.1} {:>9.1}%",
            row.workers,
            row.req_per_s,
            row.p50_us,
            row.p99_us,
            row.allocs_per_req,
            row.cache_hit_rate * 100.0
        );
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
    // Congested-bottleneck recovery scenario: one row per congestion
    // controller, deterministic in virtual time.
    println!(
        "{:<10} {:>8} {:>8} {:>9} {:>8} {:>8}",
        "controller", "loss\u{2030}", "queries", "resolved", "p50 ms", "p99 ms"
    );
    let recovery = recovery_rows();
    for r in &recovery {
        println!(
            "{:<10} {:>8} {:>8} {:>9} {:>8} {:>8}",
            r.controller, r.loss_permille, r.queries, r.resolved, r.p50_ms, r.p99_ms
        );
    }
    // Default to the workspace root (cargo runs benches with the
    // package directory as CWD), same as the encode bench.
    let path = std::env::var("BENCH_PROXY_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_proxy.json").into());
    std::fs::write(&path, proxy_json(&rows, &recovery)).expect("write BENCH_proxy.json");
    println!("wrote {path} (gate with: cargo run -p doc-bench --bin bench_gate -- proxy {path})");
}
