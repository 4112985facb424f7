//! A short load-generator run reads its steady-state allocation rate:
//! the buffers a run needs to warm up are allocated before its
//! measured window opens, so a 2,000-request window at 4 workers stays
//! under `bench_gate proxy`'s one allocation per request.
//!
//! This binary holds a single test because the counting allocator is
//! process-wide.

use doc_bench::alloc_counter::{alloc_count, CountingAllocator};
use doc_bench::throughput::{run_load, LoadSpec};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn short_four_worker_run_reads_under_one_alloc_per_request() {
    let spec = LoadSpec {
        workers: 4,
        total_requests: 2_000,
        ..LoadSpec::default()
    };
    // A few runs: how the drains spread over the workers varies run
    // to run.
    for _ in 0..5 {
        let row = run_load(&spec, &alloc_count);
        assert_eq!(row.replies, spec.total_requests);
        assert!(
            row.allocs_per_req < 1.0,
            "{:.3} allocations per request over {} requests at 4 workers",
            row.allocs_per_req,
            spec.total_requests
        );
    }
}
