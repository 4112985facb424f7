//! The timing loop shared by the `encode` and `crypto` benches.
//!
//! [`time`] warms a routine up, sizes one batch from the observed rate
//! so the clock is read once per batch rather than once per call, then
//! times the batch while counting allocator events. Allocations are
//! counted through [`crate::alloc_counter`], so a binary reads real
//! counts only when it installs `CountingAllocator` as its global
//! allocator. The count is the calling thread's own, so it is exact for
//! a routine that runs on that thread even while other threads allocate.
//!
//! The windows come from the environment: `BENCH_WARMUP_MS` (default
//! 50) and `BENCH_MEASURE_MS` (default 200).

use std::time::{Duration, Instant};

use crate::alloc_counter::thread_alloc_count;

/// Mean cost of one call of a timed routine.
#[derive(Debug)]
pub struct Timing {
    /// Wall time per call, nanoseconds.
    pub ns_per_iter: f64,
    /// Allocator events (alloc/realloc/alloc_zeroed) per call.
    pub allocs_per_iter: f64,
}

fn env_ms(var: &str, default_ms: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_ms)
}

/// The measurement window in milliseconds (`BENCH_MEASURE_MS`).
pub fn measure_ms() -> u64 {
    env_ms("BENCH_MEASURE_MS", 200)
}

/// Whether the window is long enough to assert same-machine timing
/// ratios. Shorter smoke windows only print them: scheduler noise over
/// a few milliseconds could fail a run without any code change.
pub fn full_window() -> bool {
    measure_ms() >= 100
}

/// Warm up, size a batch from the observed rate, then time the batch
/// while counting allocator events.
pub fn time(mut routine: impl FnMut()) -> Timing {
    let warmup = Duration::from_millis(env_ms("BENCH_WARMUP_MS", 50));
    let measure = Duration::from_millis(measure_ms());
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    while warm_start.elapsed() < warmup {
        routine();
        warm_iters += 1;
    }
    let per_iter = warm_start.elapsed().as_nanos().max(1) / u128::from(warm_iters.max(1));
    let batch = (measure.as_nanos() / per_iter.max(1)).clamp(1, u128::from(u64::MAX)) as u64;
    let allocs_before = thread_alloc_count();
    let start = Instant::now();
    for _ in 0..batch {
        routine();
    }
    let elapsed = start.elapsed();
    let allocs = thread_alloc_count() - allocs_before;
    Timing {
        ns_per_iter: elapsed.as_nanos() as f64 / batch as f64,
        allocs_per_iter: allocs as f64 / batch as f64,
    }
}
