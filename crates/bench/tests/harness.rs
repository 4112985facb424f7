//! The shared timing loop counts allocations exactly: the zero-alloc
//! assertions of the `encode` bench and of `bench_gate codecs` read
//! `allocs_per_iter` straight from it. It counts the calling thread's
//! events only, so the test runner's own bookkeeping on its main thread
//! cannot enter a window, however the threads are scheduled.
//!
//! This binary holds a single test because the counting allocator is
//! process-wide.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

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

    // Another thread allocating throughout the window is not counted.
    let stop = AtomicBool::new(false);
    let busy = std::thread::scope(|s| {
        let churn = s.spawn(|| {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                black_box(Box::new(black_box(n)));
                n += 1;
            }
            n
        });
        let busy = time(|| {
            x = black_box(x).wrapping_mul(31).wrapping_add(7);
        });
        stop.store(true, Ordering::Relaxed);
        assert!(churn.join().unwrap() > 0);
        busy
    });
    assert_eq!(busy.allocs_per_iter, 0.0, "{busy:?}");
}
