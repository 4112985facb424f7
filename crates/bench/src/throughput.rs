//! Closed-loop proxy throughput harness.
//!
//! Replays the paper's DoC query mix (FETCH-dominant with a GET
//! minority, A/AAAA answers, names drawn from the experiment name
//! shape of Table 3) against the multi-worker front-end
//! ([`doc_core::pool::ProxyPool`]): N workers pull drains of
//! pre-encoded request datagrams from one shared iterator and run the
//! sans-IO view path against the sharded proxy/server, and the load is
//! *closed-loop* — each worker holds at most one drain in flight, so
//! the system is measured at saturation without unbounded queueing.
//!
//! Reported per run: requests/s, p50/p99 sojourn latency (pull →
//! reply), heap allocations per request (the caller supplies the
//! allocation counter, since the counting `#[global_allocator]` must
//! live in the final binary), and the proxy cache hit rate.

use doc_core::policy::CachePolicy;
use doc_core::pool::{Datagram, ProxyPool, MAX_DRAIN};
use doc_core::server::{DocServer, MockUpstream};
use doc_core::transport::experiment_name;
use doc_core::{CoapProxy, DocMethod};
use doc_dns::{Message, RecordType};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration of one throughput run.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Worker-thread count.
    pub workers: usize,
    /// Cache/table shard count for proxy and server.
    pub shards: usize,
    /// Total requests replayed in the measured window.
    pub total_requests: u64,
    /// Most datagrams a worker pulls at once (clamped to
    /// `1..=MAX_DRAIN`); the closed loop holds at most `workers` times
    /// that in flight.
    pub concurrency: usize,
    /// Distinct names in the replayed mix.
    pub unique_names: u32,
    /// GET share of the mix in permille (rest is FETCH, the paper's
    /// preferred method).
    pub get_permille: u32,
    /// Upstream TTL in seconds (large = cache-hit steady state).
    pub ttl_s: u32,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            workers: 1,
            shards: 16,
            total_requests: 50_000,
            concurrency: 256,
            unique_names: 256,
            get_permille: 300,
            ttl_s: 3600,
        }
    }
}

/// Result of one throughput run (one `BENCH_proxy.json` row).
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Worker-thread count of this run.
    pub workers: usize,
    /// Requests replayed.
    pub requests: u64,
    /// Replies produced (must equal `requests` on a healthy run).
    pub replies: u64,
    /// Closed-loop throughput.
    pub req_per_s: f64,
    /// Median sojourn latency (pull → reply), microseconds.
    pub p50_us: f64,
    /// 99th-percentile sojourn latency, microseconds.
    pub p99_us: f64,
    /// Heap allocations per request across the whole path.
    pub allocs_per_req: f64,
    /// Proxy cache hit rate over the measured window.
    pub cache_hit_rate: f64,
}

/// Pre-encoded replay mix: one wire datagram per (name, method,
/// record-type) combination, cycled by the load loop.
pub struct QueryMix {
    wires: Vec<Vec<u8>>,
}

impl QueryMix {
    /// The pre-encoded request datagrams.
    pub fn wires(&self) -> &[Vec<u8>] {
        &self.wires
    }
}

/// Build the replay mix and the zone behind it.
///
/// Names follow the 24-character experiment shape; record types
/// alternate A/AAAA (the paper's evaluation queries both); methods are
/// FETCH with a `get_permille` GET share. Tokens/MIDs are derived from
/// the mix index — they are echo-only fields, not cache-key inputs.
pub fn build_mix(spec: &LoadSpec, upstream: &MockUpstream) -> QueryMix {
    let mut wires = Vec::with_capacity(spec.unique_names as usize);
    for i in 0..spec.unique_names {
        let name = experiment_name(i);
        let rtype = if i % 2 == 0 {
            RecordType::Aaaa
        } else {
            RecordType::A
        };
        let mut q = Message::query(0, name, rtype);
        q.canonicalize_id();
        let method = if (i * 1000 / spec.unique_names.max(1)) < spec.get_permille {
            DocMethod::Get
        } else {
            DocMethod::Fetch
        };
        let wire = doc_core::method::build_request(
            method,
            &q.encode(),
            doc_coap::msg::MsgType::Con,
            i as u16,
            vec![i as u8, (i >> 8) as u8],
        )
        .expect("experiment queries are well-formed")
        .encode();
        // The zone entry takes the query's own name: no clone.
        let name = q.questions.pop().expect("a query has one question").qname;
        match rtype {
            RecordType::Aaaa => upstream.add_aaaa(name, 1),
            _ => upstream.add_a(name, 1),
        }
        wires.push(wire);
    }
    QueryMix { wires }
}

/// Percentile (nearest-rank) of an unsorted latency sample, in µs.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1000.0
}

/// Run one closed-loop measurement.
///
/// `alloc_count` reads the binary's counting global allocator (pass
/// `|| 0` to skip allocation accounting). The cache is primed with one
/// single-threaded pass over the mix before timing starts, so the
/// measured window exercises the steady-state (cache-hit dominated)
/// hot path the sharding targets, and the request-buffer pool is
/// filled before the window too, so a short window does not count
/// the workers' first buffers.
pub fn run_load(spec: &LoadSpec, alloc_count: &dyn Fn() -> u64) -> ThroughputRow {
    let upstream = MockUpstream::with_shards(0xD0C, spec.ttl_s, spec.ttl_s, spec.shards);
    let proxy = Arc::new(CoapProxy::with_shards(
        spec.unique_names as usize * 4,
        spec.shards,
    ));
    let mix_upstream = &upstream;
    let mix = build_mix(spec, mix_upstream);
    let server = Arc::new(DocServer::with_shards(
        CachePolicy::EolTtls,
        upstream,
        spec.shards,
    ));
    // The wire-buffer recycling loop: workers return every spent
    // `Datagram::wire` here and the producer takes them back instead
    // of allocating — after warmup the closed loop runs on a fixed
    // set of buffers (this is what holds `allocs_per_req` below 1).
    let recycle = Arc::new(doc_core::BufferPool::new());
    let pool = ProxyPool::new(spec.workers, Arc::clone(&proxy), server)
        .with_wire_recycling(Arc::clone(&recycle));

    // Prime: every mix entry once, single-threaded.
    let mut scratch = Vec::new();
    for (i, wire) in mix.wires.iter().enumerate() {
        let served = pool.serve(
            &Datagram {
                peer: i as u64 % 64,
                seq: i as u64,
                at: doc_netsim::Instant::from_millis(1),
                wire: wire.clone(),
            },
            &mut scratch,
        );
        assert!(served.is_some(), "mix entry {i} must be servable");
    }
    let hits_before = proxy.cache_stats().hits;
    // Pre-filled, each buffer sized to the longest request, so the
    // source never finds the pool dry or grows a buffer inside the
    // window: every worker holding a full drain, which it hands back
    // before its next pull.
    let longest = mix.wires.iter().map(Vec::len).max().unwrap_or(0);
    let in_flight = pool.workers() * spec.concurrency.clamp(1, MAX_DRAIN);
    recycle.put_batch((0..in_flight).map(|_| Vec::with_capacity(longest)));

    // Measured closed-loop window.
    let total = spec.total_requests;
    let pulled_ns: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
    // Full capacity per bucket: any worker may take any drain, so one
    // worker can end up recording most of the run, and a mid-window
    // realloc would both skew latency and count against
    // `allocs_per_req`.
    let latency_buckets: Vec<Mutex<Vec<u64>>> = (0..pool.workers())
        .map(|_| Mutex::new(Vec::with_capacity(total as usize)))
        .collect();
    let epoch = Instant::now();
    let allocs_before = alloc_count();
    let stats = pool.run(
        spec.concurrency,
        (0..total).map(|seq| {
            pulled_ns[seq as usize].store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let mut wire = recycle.take();
            wire.extend_from_slice(&mix.wires[(seq % mix.wires.len() as u64) as usize]);
            Datagram {
                peer: seq % 64,
                seq,
                at: doc_netsim::Instant::from_millis(1),
                wire,
            }
        }),
        &|reply| {
            let done = epoch.elapsed().as_nanos() as u64;
            let pulled = pulled_ns[reply.seq as usize].load(Ordering::Relaxed);
            latency_buckets[reply.worker]
                .lock()
                .unwrap()
                .push(done.saturating_sub(pulled));
        },
    );
    let elapsed = epoch.elapsed();
    let allocs = alloc_count().saturating_sub(allocs_before);

    let mut latencies: Vec<u64> = Vec::with_capacity(total as usize);
    for b in &latency_buckets {
        latencies.append(&mut b.lock().unwrap());
    }
    latencies.sort_unstable();
    let hits = proxy.cache_stats().hits - hits_before;
    ThroughputRow {
        workers: pool.workers(),
        requests: total,
        replies: stats.replies,
        req_per_s: stats.replies as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        allocs_per_req: allocs as f64 / total.max(1) as f64,
        cache_hit_rate: hits as f64 / total.max(1) as f64,
    }
}

/// Run the congested-bottleneck recovery scenario once per congestion
/// controller, producing the `recovery` rows of the proxy artifact.
/// The scenario is virtual-time deterministic, so the rows — and the
/// p99 ordering the gate asserts over them — are reproducible on any
/// machine.
pub fn recovery_rows() -> Vec<doc_core::bottleneck::BottleneckResult> {
    doc_quic::recovery::ControllerKind::ALL
        .iter()
        .map(|&controller| {
            doc_core::bottleneck::run_bottleneck(&doc_core::bottleneck::BottleneckConfig {
                controller,
                ..Default::default()
            })
        })
        .collect()
}

/// Render the `BENCH_proxy.json` artifact (schema `doc-bench/proxy/v5`)
/// for a set of runs, recording the measuring machine's parallelism so
/// the gate can scale its expectations. Each throughput row is one
/// worker count of the CoAP pool; the `recovery` rows record the
/// congested-bottleneck scenario per congestion controller.
pub fn proxy_json(
    rows: &[ThroughputRow],
    recovery: &[doc_core::bottleneck::BottleneckResult],
) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = format!(
        "{{\n  \"schema\": \"doc-bench/proxy/v5\",\n  \"machine\": {{\"available_parallelism\": {cores}}},\n  \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"requests\": {}, \"req_per_s\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"allocs_per_req\": {:.2}, \"cache_hit_rate\": {:.4}}}{}\n",
            r.workers,
            r.requests,
            r.req_per_s,
            r.p50_us,
            r.p99_us,
            r.allocs_per_req,
            r.cache_hit_rate,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"recovery\": [\n");
    for (i, r) in recovery.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"controller\": \"{}\", \"loss_permille\": {}, \"queries\": {}, \"resolved\": {}, \"p50_ms\": {}, \"p99_ms\": {}}}{}\n",
            r.controller,
            r.loss_permille,
            r.queries,
            r.resolved,
            r.p50_ms,
            r.p99_ms,
            if i + 1 < recovery.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// The default worker sweep of the `doc-bench` load generator.
pub const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_covers_methods_and_names() {
        let spec = LoadSpec {
            unique_names: 10,
            get_permille: 300,
            ..LoadSpec::default()
        };
        let upstream = MockUpstream::new(1, 60, 60);
        let mix = build_mix(&spec, &upstream);
        assert_eq!(mix.wires().len(), 10);
        let gets = mix
            .wires
            .iter()
            .filter(|w| {
                doc_coap::view::CoapView::parse(w).unwrap().code == doc_coap::msg::Code::GET
            })
            .count();
        assert_eq!(gets, 3, "300‰ of 10 names are GET");
        // All wires must be distinct requests (distinct names).
        let mut uniq = mix.wires.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 10);
    }

    /// FNV-1a over the concatenated mix wires for `names` distinct
    /// names at docbench's 300 ‰ GET share.
    fn mix_hash(names: u32) -> u64 {
        let spec = LoadSpec {
            unique_names: names,
            get_permille: 300,
            ..LoadSpec::default()
        };
        let mix = build_mix(&spec, &MockUpstream::new(1, 60, 60));
        mix.wires()
            .iter()
            .flatten()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn mix_bytes_are_pinned() {
        // The standalone benchmark replays these exact wires (`hot`
        // uses 256 names, `churn` 4096): any change to the mix changes
        // what it measures.
        assert_eq!(mix_hash(256), 0xb3d8_fde7_923f_888f);
        assert_eq!(mix_hash(4096), 0x26d3_b5c4_9690_a040);
    }

    #[test]
    fn small_load_run_is_sane() {
        let spec = LoadSpec {
            workers: 2,
            total_requests: 500,
            concurrency: 16,
            unique_names: 8,
            ..LoadSpec::default()
        };
        let row = run_load(&spec, &|| 0);
        assert_eq!(row.requests, 500);
        assert_eq!(row.replies, 500);
        assert!(row.req_per_s > 0.0);
        assert!(row.p50_us <= row.p99_us);
        assert!(
            row.cache_hit_rate > 0.95,
            "primed steady state must be hit-dominated, got {}",
            row.cache_hit_rate
        );
    }

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(percentile_us(&sorted, 0.50), 50.0);
        assert_eq!(percentile_us(&sorted, 0.99), 99.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
    }

    #[test]
    fn proxy_json_round_trips_through_the_gate() {
        let row = |workers: usize| ThroughputRow {
            workers,
            requests: 100,
            replies: 100,
            req_per_s: 1000.0 * workers as f64,
            p50_us: 10.0,
            p99_us: 90.0,
            allocs_per_req: 0.5,
            cache_hit_rate: 0.99,
        };
        let rows: Vec<ThroughputRow> = WORKER_SWEEP.iter().map(|&w| row(w)).collect();
        let json = proxy_json(&rows, &recovery_rows());
        let doc = crate::json::parse(&json).expect("emitted JSON parses");
        crate::gate::check_proxy(&doc, false).expect("emitted JSON passes the structural gate");
    }

    #[test]
    fn recovery_rows_cover_all_controllers_and_order_p99() {
        let rows = recovery_rows();
        let names: Vec<&str> = rows.iter().map(|r| r.controller).collect();
        assert_eq!(names, vec!["fixed_rto", "cubic", "bbr_lite"]);
        let fixed = rows[0].p99_ms;
        for adaptive in &rows[1..] {
            assert!(
                adaptive.p99_ms < fixed,
                "{}: p99 {} not below fixed_rto {}",
                adaptive.controller,
                adaptive.p99_ms,
                fixed
            );
        }
    }
}
