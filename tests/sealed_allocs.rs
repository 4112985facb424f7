//! Allocation budget of the pool's protected path: QUIC-lite-protected
//! requests in, DTLS-sealed replies out, spent request buffers recycled
//! to the producer.
//!
//! Every request is a cache hit. Once a worker's buffers are warm,
//! opening a drain, serving it and sealing its replies in their slab
//! buffers must allocate nothing; what a run still allocates is its
//! worker thread and that worker's scratch growing once, spread over
//! the run's requests.
//!
//! This binary holds a single test because the counting allocator is
//! process-wide.

use doc_bench::alloc_counter::{alloc_count, CountingAllocator};
use doc_bench::throughput::{build_mix, LoadSpec};
use doc_core::pool::{ReplySeal, RequestOpen};
use doc_core::{BufferPool, CachePolicy, CoapProxy, Datagram, DocServer, MockUpstream, ProxyPool};
use doc_dtls::record::{ContentType, RecordView};
use doc_quic::packet::{Header, PacketKeys, Space};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations per request one warm protected run may make.
const PER_REQUEST_BUDGET: f64 = 0.05;

#[test]
fn sealed_path_allocation_budget() {
    const NAMES: u32 = 256;
    const WARMUP: u64 = 4_096;
    const MEASURED: u64 = 40_000;
    const SECRET: &[u8] = b"sealed allocation budget secret";
    let upstream = MockUpstream::with_shards(0xD0C, 3600, 3600, 16);
    let spec = LoadSpec {
        unique_names: NAMES,
        ..LoadSpec::default()
    };
    let mix = build_mix(&spec, &upstream);
    let proxy = Arc::new(CoapProxy::with_shards(4 * NAMES as usize, 16));
    let server = Arc::new(DocServer::with_shards(CachePolicy::EolTtls, upstream, 16));
    let buffers = Arc::new(BufferPool::new());
    let pool = ProxyPool::new(1, Arc::clone(&proxy), server)
        .with_request_open(RequestOpen::new(PacketKeys::derive(SECRET, "client write")))
        .with_reply_seal(ReplySeal::new(&[0x5E; 16], [1, 2, 3, 4], 1))
        .with_wire_recycling(Arc::clone(&buffers));
    let keys = PacketKeys::derive(SECRET, "client write");

    // The producer protects each request into a recycled buffer.
    let mut header = Vec::with_capacity(16);
    let mut protect = |k: u64| {
        let plaintext = &mix.wires()[(k % u64::from(NAMES)) as usize];
        header.clear();
        Header::encode_into(Space::OneRtt, [7, 7], k, &mut header);
        let mut wire = buffers.take();
        wire.extend_from_slice(&header);
        keys.seal_into(k, &header, plaintext, &mut wire)
            .expect("requests fit one packet");
        Datagram {
            peer: k % 16,
            seq: k,
            at: doc_time::Instant::from_millis(1),
            wire,
        }
    };
    let records = AtomicU64::new(0);
    let on_reply = |r: &doc_core::Reply| {
        let record = r.wire.as_deref().map(RecordView::decode);
        if let Some(Ok((view, used))) = record {
            if view.ctype == ContentType::ApplicationData
                && used == r.wire.as_ref().map_or(0, Vec::len)
            {
                records.fetch_add(1, Ordering::Relaxed);
            }
        }
    };

    // Warm-up: primes the cache and fills the buffer pool.
    let warm = pool.run(256, (0..WARMUP).map(&mut protect), &on_reply);
    assert_eq!(warm.replies, WARMUP);
    assert_eq!(proxy.stats().forwards, NAMES, "one miss per name");

    let a0 = alloc_count();
    let stats = pool.run(
        256,
        (WARMUP..WARMUP + MEASURED).map(&mut protect),
        &on_reply,
    );
    let allocs = alloc_count() - a0;
    assert_eq!((stats.replies, stats.errors), (MEASURED, 0));
    assert_eq!(
        records.load(Ordering::Relaxed),
        WARMUP + MEASURED,
        "every reply is one record"
    );
    let per_request = allocs as f64 / MEASURED as f64;
    assert!(
        per_request < PER_REQUEST_BUDGET,
        "{allocs} allocations over {MEASURED} protected requests ({per_request:.3}/req)"
    );
}
