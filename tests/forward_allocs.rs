//! Allocation budget of the pool's serve path under cache churn.
//!
//! More names than the proxy cache holds, short TTLs and a clock that
//! advances 1 ms per request: about half the requests are fresh hits,
//! the rest are forwards — misses with a FIFO eviction, and stale
//! entries revalidated with their ETag. Once the per-caller buffers
//! are warm, a fresh hit must allocate nothing and a forward at most
//! what the cache keeps: the key and the stored response.
//!
//! This binary holds a single test because the counting allocator is
//! process-wide.

use doc_bench::alloc_counter::{alloc_count, CountingAllocator};
use doc_bench::throughput::{build_mix, LoadSpec};
use doc_core::{
    CachePolicy, CoapProxy, Datagram, DocServer, MockUpstream, ProxyPool, ServeScratch,
};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations one forwarded exchange may make in steady state.
const FORWARD_BUDGET: u64 = 8;

#[test]
fn forward_path_allocation_budget() {
    const NAMES: u32 = 1024;
    const WARMUP: u64 = 20_000;
    const MEASURED: u64 = 40_000;
    let upstream = MockUpstream::with_shards(0xD0C, 1, 3, 16);
    let spec = LoadSpec {
        unique_names: NAMES,
        ..LoadSpec::default()
    };
    let mix = build_mix(&spec, &upstream);
    let proxy = Arc::new(CoapProxy::with_shards(NAMES as usize / 2, 16));
    let server = Arc::new(DocServer::with_shards(CachePolicy::EolTtls, upstream, 16));
    let pool = ProxyPool::new(1, Arc::clone(&proxy), server);

    let mut scratch = ServeScratch::default();
    let mut out = Vec::new();
    let mut d = Datagram {
        peer: 0,
        seq: 0,
        at: doc_time::Instant::from_millis(0),
        wire: Vec::with_capacity(256),
    };
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let (mut hits, mut hit_allocs) = (0u64, 0u64);
    let (mut forwards, mut forward_allocs, mut worst_forward) = (0u64, 0u64, 0u64);
    for k in 0..WARMUP + MEASURED {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let entry = (rng % u64::from(NAMES)) as usize;
        d.seq = k;
        d.peer = entry as u64 % 16;
        d.at = doc_time::Instant::from_millis(k);
        d.wire.clear();
        d.wire.extend_from_slice(&mix.wires()[entry]);
        let hits_before = proxy.stats().cache_hits;
        let a0 = alloc_count();
        assert!(pool.serve_wire(&d, &mut scratch, &mut out), "request {k}");
        let allocs = alloc_count() - a0;
        if k < WARMUP {
            continue;
        }
        if proxy.stats().cache_hits > hits_before {
            hits += 1;
            hit_allocs += allocs;
        } else {
            forwards += 1;
            forward_allocs += allocs;
            worst_forward = worst_forward.max(allocs);
        }
    }
    let stats = proxy.stats();
    assert!(
        hits > MEASURED / 5 && forwards > MEASURED / 5,
        "{hits} hits, {forwards} forwards"
    );
    assert!(
        stats.revalidated > 100,
        "revalidations exercised: {stats:?}"
    );
    assert!(proxy.cache_stats().evictions > 1000, "evictions exercised");
    assert_eq!(hit_allocs, 0, "allocations over {hits} fresh hits");
    assert!(
        worst_forward <= FORWARD_BUDGET,
        "a forward allocated {worst_forward} times (mean {:.2})",
        forward_allocs as f64 / forwards as f64
    );
}
