//! The shared timing loop counts allocations exactly: the zero-alloc
//! assertions of the `encode` bench and of `bench_gate codecs` read
//! `allocs_per_iter` straight from it.
//!
//! This binary holds a single test because the counting allocator is
//! process-wide.

use std::hint::black_box;

use doc_bench::alloc_counter::CountingAllocator;
use doc_bench::harness::time;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn time_counts_allocations_per_call() {
    std::env::set_var("BENCH_WARMUP_MS", "2");
    std::env::set_var("BENCH_MEASURE_MS", "10");

    let one = time(|| {
        black_box(Box::new(black_box(7u64)));
    });
    assert_eq!(one.allocs_per_iter, 1.0, "{one:?}");
    assert!(one.ns_per_iter > 0.0, "{one:?}");

    let mut x = 0u64;
    let none = time(|| {
        x = black_box(x).wrapping_mul(31).wrapping_add(7);
    });
    assert_eq!(none.allocs_per_iter, 0.0, "{none:?}");
    assert!(none.ns_per_iter > 0.0, "{none:?}");
}
