//! A shared allocation-counting `GlobalAlloc` wrapper.
//!
//! The `encode` bench (through [`crate::harness::time`]) and the
//! `doc-bench` load generator report heap allocations per operation,
//! and the `crypto` bench installs the same allocator. The counter
//! type and its event tally live here once; each binary only opts in
//! with the two lines Rust requires to be in the final crate:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: doc_bench::alloc_counter::CountingAllocator =
//!     doc_bench::alloc_counter::CountingAllocator;
//! ```
//!
//! Counted events are alloc/realloc/alloc_zeroed — frees are not
//! events of interest for the allocs/op bounds. Keeping one impl
//! guarantees `BENCH_codecs.json` and `BENCH_proxy.json` count
//! allocations identically.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper that counts every allocation event.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Total allocation events since process start.
pub fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: a pure pass-through to `System` — every pointer returned or
// accepted comes from / goes to the system allocator unmodified, so
// `System`'s own `GlobalAlloc` contract carries over verbatim. The
// only added behavior is a `Relaxed` counter bump, which touches no
// allocator state and cannot unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (non-zero
    // layout); forwarded to `System.alloc` under the same contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller passed, same contract.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: `ptr` was produced by `self.alloc`-family methods, which
    // all return `System` pointers, so releasing via `System.dealloc`
    // with the same layout is exactly the paired deallocation.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` pair originates from `System` (above).
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: same pairing argument as `dealloc` — `ptr` originates
    // from `System`, and the caller upholds the realloc contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` pair originates from `System` (above).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    // SAFETY: caller upholds the layout contract; forwarded verbatim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller passed, same contract.
        unsafe { System.alloc_zeroed(layout) }
    }
}
