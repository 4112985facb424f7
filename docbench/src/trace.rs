//! The traced run: per-layer counts and self times, measured from the
//! benchmark's side of the public API.
//!
//! * `io` and `pool` are timed through wrappers on the live program:
//!   a delegating `IoProvider` around the `UdpProvider`, and the
//!   datagram iterator plus `on_reply` of `ProxyPool::run`.
//! * `proxy`, `cache`, `server`, `coap` and `crypto` are timed by
//!   replaying the next seeded requests single-threaded through the
//!   calls a pool worker makes for each datagram (`open_drain`,
//!   `serve_wire`, `encode_into`, `handle_request_wire`,
//!   `handle_upstream_response`, `seal_batch`), every reply checked
//!   against the reference like a measured one.
//!
//! Spans (name, start, end, parent, request) are kept in a fixed-size
//! buffer and written to `out/<workload>.spans.tsv` at the end.

use crate::heap;
use crate::measure::{self, Bench, Metric, Report, Segment, Totals};
use crate::stats::{quantile_u64, ratio};
use crate::udp::{IoCounts, TracedIo};
use crate::workload::{peer_of, request_keys, Workload, REPLY_EPOCH, REPLY_IV, REPLY_KEY};
use doc_coap::view::CoapView;
use doc_core::pool::{PoolRunStats, RequestOpen};
use doc_core::proxy::{ProxyScratch, WireAction};
use doc_core::{Datagram, UdpProvider};
use doc_dtls::record::{CipherState, ContentType, Record, RecordSeal};
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

/// Spans kept in memory; later ones are counted, not stored.
const SPAN_CAPACITY: usize = 300_000;
/// Of those, at most this many come from the live-program wrappers,
/// so the replay's spans always fit.
const WRAPPER_SPANS: usize = 60_000;
/// Receive stamps of in-flight UDP datagrams, indexed by sequence
/// number modulo this (far more than can be in flight).
const STAMP_RING: usize = 1 << 16;
/// Datagrams per crypto batch in the replay: the pool's injector grab.
const REPLAY_BATCH: usize = 128;

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<u32>,
    req: Option<u64>,
}

/// Pool-level counts of the traced segments.
#[derive(Default)]
struct PoolCounts {
    replies: u64,
    errors: u64,
    steals: u64,
    producer_wait_ns: u64,
}

pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    dropped: u64,
    pub io: IoCounts,
    /// Datagrams received by the provider and not yet sent back.
    pub in_flight: u64,
    recv_stamps: Vec<u64>,
    sojourns: Vec<u64>,
    pool: PoolCounts,
}

impl Tracer {
    fn new(base: Instant, sojourn_capacity: usize) -> Tracer {
        Tracer {
            base,
            spans: Vec::with_capacity(SPAN_CAPACITY),
            dropped: 0,
            io: IoCounts::default(),
            in_flight: 0,
            recv_stamps: vec![0; STAMP_RING],
            sojourns: Vec::with_capacity(sojourn_capacity),
            pool: PoolCounts::default(),
        }
    }

    /// Same clock as the bench's sojourn stamps.
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64 + 1
    }

    /// Record a span from a wrapper around the live program.
    pub fn wrapper_span(&mut self, name: &'static str, start: u64, end: u64, req: Option<u64>) {
        if self.spans.len() < WRAPPER_SPANS {
            self.span(name, start, end, None, req);
        } else {
            self.dropped += 1;
        }
    }

    /// Record a span; returns its id, or `None` once the buffer is full.
    pub fn span(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<u32>,
        req: Option<u64>,
    ) -> Option<u32> {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn wrap_io<'a>(&'a mut self, inner: &'a mut UdpProvider) -> TracedIo<'a> {
        TracedIo {
            inner,
            tracer: self,
        }
    }

    pub fn stamp_recv(&mut self, seq: u64, at: u64) {
        self.recv_stamps[seq as usize % STAMP_RING] = at;
    }

    /// A reply to datagram `seq` leaves the pool at `at`.
    pub fn sojourn_to(&mut self, seq: u64, at: u64) {
        let recv = self.recv_stamps[seq as usize % STAMP_RING];
        if recv != 0 && self.sojourns.len() < self.sojourns.capacity() {
            self.sojourns.push(at - recv);
            self.wrapper_span("pool.sojourn", recv, at, Some(seq));
        }
    }

    /// Account one `ProxyPool::run` call (UDP rounds may make several).
    pub fn pool_run(&mut self, run: &PoolRunStats) {
        self.pool.replies += run.replies;
        self.pool.errors += run.errors;
        self.pool.steals += run.total_steals();
    }

    /// Account one traced in-memory segment.
    pub fn pool_segment(&mut self, b: &Bench, run: &PoolRunStats, wait_ns: u64, lat: &[u64]) {
        self.pool_run(run);
        self.pool.producer_wait_ns += wait_ns;
        self.sojourns.extend_from_slice(lat);
        for (k, (s, r)) in b.sent.iter().zip(&b.recv).enumerate() {
            let (s, r) = (s.load(Relaxed), r.load(Relaxed));
            if s != 0 && r != 0 {
                self.wrapper_span("pool.sojourn", s, r, Some(k as u64));
            }
        }
    }

    fn write(&self, w: Workload) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.spans.tsv", w.name()));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{id}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(u64::from)),
                opt(s.req)
            )?;
        }
        f.flush()?;
        Ok(path)
    }
}

/// Sums over the single-threaded replay.
#[derive(Default)]
struct Replay {
    requests: u64,
    wrong: u64,
    hits: u64,
    forwards: u64,
    parse_ns: u64,
    serve_hit_ns: u64,
    serve_miss_ns: u64,
    upstream_ns: u64,
    encodes: u64,
    encode_ns: u64,
    handle_ns: u64,
    allocs_hit: u64,
    allocs_forward: u64,
    allocs_server: u64,
    batches: u64,
    packets: u64,
    open_ns: u64,
    seal_ns: u64,
    allocs_crypto: u64,
    auth_failures: u64,
}

/// Time `f` as one child span of `parent`.
fn timed<R>(
    t: &mut Tracer,
    name: &'static str,
    parent: Option<u32>,
    req: u64,
    sum_ns: &mut u64,
    f: impl FnOnce() -> R,
) -> R {
    let start = t.now_ns();
    let r = f();
    let end = t.now_ns();
    *sum_ns += end - start;
    t.span(name, start, end, parent, Some(req));
    r
}

/// Replay the next `n` seeded requests through the worker's sequence
/// of public calls, on the calling thread, against the live program.
fn replay(b: &mut Bench, t: &mut Tracer, n: usize) -> Result<Replay, String> {
    b.plan(n);
    let sealed = b.w == Workload::Sealed;
    let open = RequestOpen::new(request_keys());
    let cipher = CipherState::new(&REPLY_KEY, REPLY_IV);
    // `plan` numbered the sealed replies' records; other workloads have none.
    let first_record = if sealed { b.record_seq - n as u64 } else { 0 };
    let step = b.w.clock_step_ms();
    let (proxy, server) = (&b.prog.pool.proxy, &b.prog.pool.server);
    let mut r = Replay::default();
    let mut scratch = ProxyScratch::default();
    let mut upstream = Vec::with_capacity(512);
    // Grown up front, so first use inside a span allocates nothing.
    let mut replies: Vec<Vec<u8>> = (0..REPLAY_BATCH).map(|_| Vec::with_capacity(512)).collect();
    let mut batch: Vec<Datagram> = Vec::with_capacity(REPLAY_BATCH);
    for chunk in (0..n).step_by(REPLAY_BATCH) {
        let ks = chunk..(chunk + REPLAY_BATCH).min(n);
        batch.clear();
        for k in ks.clone() {
            let entry = b.idx[k];
            batch.push(Datagram {
                peer: peer_of(entry),
                seq: k as u64,
                at: doc_time::Instant::from_millis(b.clock_ms + k as u64 * step),
                wire: b.prog.wires[entry as usize].clone(),
            });
        }
        if sealed {
            let a0 = heap::allocs();
            let start = t.now_ns();
            r.auth_failures += open.open_drain(&mut batch);
            let end = t.now_ns();
            r.allocs_crypto += heap::allocs() - a0;
            r.open_ns += end - start;
            t.span("crypto.open_drain", start, end, None, None);
        }
        for (i, d) in batch.iter().enumerate() {
            let k = d.seq;
            let root_start = t.now_ns();
            let root = t.span("request", root_start, root_start, None, Some(k));
            let now = d.at.as_millis();
            timed(t, "coap.parse", root, k, &mut r.parse_ns, || {
                black_box(CoapView::parse(black_box(&d.wire)).is_ok())
            });
            let out = &mut replies[i];
            let a0 = heap::allocs();
            let start = t.now_ns();
            let action = proxy.serve_wire(&d.wire, now, &mut scratch, out);
            let end = t.now_ns();
            let serve_allocs = heap::allocs() - a0;
            match action {
                Ok(WireAction::Responded) => {
                    r.hits += 1;
                    r.serve_hit_ns += end - start;
                    r.allocs_hit += serve_allocs;
                    t.span("proxy.serve_wire", start, end, root, Some(k));
                }
                Ok(WireAction::Forward {
                    request,
                    exchange_id,
                }) => {
                    r.forwards += 1;
                    r.serve_miss_ns += end - start;
                    t.span("proxy.serve_wire", start, end, root, Some(k));
                    upstream.clear();
                    r.encodes += 1;
                    timed(t, "coap.encode", root, k, &mut r.encode_ns, || {
                        request.encode_into(&mut upstream)
                    });
                    let a0 = heap::allocs();
                    let resp = timed(t, "server.handle", root, k, &mut r.handle_ns, || {
                        server.handle_request_wire(d.peer, &upstream, now)
                    })
                    .map_err(|e| format!("origin rejected a forwarded request: {e:?}"))?;
                    let a1 = heap::allocs();
                    r.allocs_server += a1 - a0;
                    let relay = timed(
                        t,
                        "proxy.upstream_response",
                        root,
                        k,
                        &mut r.upstream_ns,
                        || proxy.handle_upstream_response(exchange_id, &resp, now),
                    )
                    .ok_or("the proxy lost a forwarded exchange")?;
                    r.allocs_forward += serve_allocs + (heap::allocs() - a1);
                    out.clear();
                    r.encodes += 1;
                    timed(t, "coap.encode", root, k, &mut r.encode_ns, || {
                        relay.encode_into(out)
                    });
                }
                Err(_) => out.clear(),
            }
            if let Some(id) = root {
                t.spans[id as usize].end = t.now_ns();
            }
            r.requests += 1;
            if !sealed && out.as_slice() != b.expected.get(k as usize) {
                r.wrong += 1;
            }
        }
        if sealed {
            let a0 = heap::allocs();
            let start = t.now_ns();
            let items: Vec<RecordSeal<'_>> = ks
                .clone()
                .zip(&replies)
                .map(|(k, plaintext)| RecordSeal {
                    ctype: ContentType::ApplicationData,
                    epoch: REPLY_EPOCH,
                    seq: first_record + k as u64,
                    plaintext,
                })
                .collect();
            let payloads = cipher
                .seal_batch(&items)
                .map_err(|e| format!("seal_batch: {e:?}"))?;
            let wires: Vec<Vec<u8>> = items
                .iter()
                .zip(payloads)
                .map(|(it, payload)| {
                    Record {
                        ctype: it.ctype,
                        epoch: it.epoch,
                        seq: it.seq,
                        payload,
                    }
                    .encode()
                })
                .collect();
            let end = t.now_ns();
            r.allocs_crypto += heap::allocs() - a0;
            r.seal_ns += end - start;
            t.span("crypto.seal_batch", start, end, None, None);
            for (k, wire) in ks.clone().zip(&wires) {
                if wire.as_slice() != b.expected.get(k) {
                    r.wrong += 1;
                }
            }
            r.batches += 1;
            r.packets += ks.len() as u64;
        }
    }
    b.clock_ms += n as u64 * step;
    Ok(r)
}

/// Median over segments of a per-segment time, in microseconds as
/// measured.
fn raw_median(segs: &[Segment], f: impl Fn(&Segment) -> u64) -> f64 {
    crate::stats::median(&mut segs.iter().map(|s| f(s) as f64 / 1e3).collect::<Vec<_>>())
}

/// The traced run: half the time untraced segments, half traced
/// segments, then the replay; every per-layer metric.
pub fn run(w: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut b = Bench::new(w, seed)?;
    let half = Duration::from_secs(seconds) / 2;
    measure::warm_up(&mut b)?;
    let untraced = measure::segments(&mut b, half, 4, None)?;
    let cpu_untraced = measure::per_run(&untraced, Segment::cpu_us_per_req);

    let proxy0 = b.prog.pool.proxy.stats();
    let cache0 = b.prog.pool.proxy.cache_stats();
    let server0 = b.prog.pool.server.stats();
    let up0 = (
        b.prog.pool.server.upstream.cache_hits(),
        b.prog.pool.server.upstream.ns_queries(),
    );
    b.sample_every = 1;
    let base = b.base;
    let mut tracer = b.bench_phase(|_| Tracer::new(base, 4 * w.segment_requests() * 64));
    let traced = measure::segments(&mut b, half, 4, Some(&mut tracer))?;
    let cpu_traced = measure::per_run(&traced, Segment::cpu_us_per_req);
    let proxy1 = b.prog.pool.proxy.stats();
    let cache1 = b.prog.pool.proxy.cache_stats();
    let server1 = b.prog.pool.server.stats();
    let up1 = (
        b.prog.pool.server.upstream.cache_hits(),
        b.prog.pool.server.upstream.ns_queries(),
    );

    let rp = replay(&mut b, &mut tracer, w.segment_requests() / 2)?;
    // Every other time below is scaled like the end-to-end metrics,
    // through the run's median calibration.
    let speed = measure::time_scale(&untraced);
    let mut cals: Vec<f64> = untraced.iter().map(|s| s.cal_ns as f64 / 1e6).collect();
    let spans_path = tracer.write(w).map_err(|e| format!("writing spans: {e}"))?;

    let tu = Totals::of(&untraced);
    let tt = Totals::of(&traced);
    let proxied = (proxy1.requests - proxy0.requests) as f64;
    let io = &tracer.io;
    let served = tt.answered as f64;
    let replayed = rp.requests as f64;
    let us = |ns: u64, n: f64| ratio(ns as f64 * speed / 1e3, n);
    let ns = |ns: u64, n: u64| ratio(ns as f64 * speed, n as f64);
    let self_io = us(io.recv_cpu_ns + io.send_cpu_ns, served);
    let self_proxy = us(
        rp.serve_hit_ns + rp.serve_miss_ns + rp.upstream_ns,
        replayed,
    ) - us(rp.parse_ns, replayed);
    let self_coap = us(rp.parse_ns + rp.encode_ns, replayed);
    let self_server = us(rp.handle_ns, replayed);
    let self_crypto = us(rp.open_ns + rp.seal_ns, replayed);
    let attributed = self_io + self_proxy + self_coap + self_server + self_crypto;
    let mut sojourns = std::mem::take(&mut tracer.sojourns);
    let window_peak = measure::peak_heap_bytes(&untraced);
    let up_hits = (up1.0 - up0.0) as f64;
    let up_ns = (up1.1 - up0.1) as f64;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m(
            "io.recv_calls_per_req",
            ratio(io.recv_calls as f64, served),
            "count",
        ),
        m(
            "io.recv_batch_mean",
            ratio(
                io.recv_datagrams as f64,
                (io.recv_calls - io.recv_empty) as f64,
            ),
            "count",
        ),
        m("io.recv_us_per_req", us(io.recv_cpu_ns, served), "us"),
        m("io.idle_polls", io.idle_polls as f64, "count"),
        m(
            "io.send_batch_mean",
            ratio(io.send_replies as f64, io.send_calls as f64),
            "count",
        ),
        m("io.send_us_per_req", us(io.send_cpu_ns, served), "us"),
        m("io.send_failed", io.send_failed as f64, "count"),
        m("latency.p50_us", raw_median(&untraced, |s| s.p50_ns), "us"),
        m("latency.p99_us", raw_median(&untraced, |s| s.p99_ns), "us"),
        m(
            "pool.sojourn_p50_us",
            us(quantile_u64(&mut sojourns, 0.5), 1.0),
            "us",
        ),
        m(
            "pool.sojourn_p99_us",
            us(quantile_u64(&mut sojourns, 0.99), 1.0),
            "us",
        ),
        m(
            "pool.producer_wait_us_per_req",
            us(tracer.pool.producer_wait_ns, served),
            "us",
        ),
        m("pool.replies", tracer.pool.replies as f64, "count"),
        m("pool.errors", tracer.pool.errors as f64, "count"),
        m("pool.steals", tracer.pool.steals as f64, "count"),
        m(
            "proxy.hit_ratio",
            ratio((proxy1.cache_hits - proxy0.cache_hits) as f64, proxied),
            "ratio",
        ),
        m(
            "proxy.forwards_per_req",
            ratio((proxy1.forwards - proxy0.forwards) as f64, proxied),
            "ratio",
        ),
        m(
            "proxy.revalidations_per_req",
            ratio(
                (proxy1.revalidations - proxy0.revalidations) as f64,
                proxied,
            ),
            "ratio",
        ),
        m(
            "cache.evictions_per_req",
            ratio((cache1.evictions - cache0.evictions) as f64, proxied),
            "ratio",
        ),
        m(
            "proxy.serve_wire_hit_ns",
            ns(rp.serve_hit_ns, rp.hits),
            "ns",
        ),
        m(
            "proxy.serve_wire_miss_ns",
            ns(rp.serve_miss_ns, rp.forwards),
            "ns",
        ),
        m(
            "proxy.upstream_response_ns",
            ns(rp.upstream_ns, rp.forwards),
            "ns",
        ),
        m(
            "proxy.allocs_per_hit",
            ratio(rp.allocs_hit as f64, rp.hits as f64),
            "count",
        ),
        m(
            "proxy.allocs_per_forward",
            ratio(rp.allocs_forward as f64, rp.forwards as f64),
            "count",
        ),
        m("server.handle_ns", ns(rp.handle_ns, rp.forwards), "ns"),
        m(
            "server.allocs_per_call",
            ratio(rp.allocs_server as f64, rp.forwards as f64),
            "count",
        ),
        m(
            "upstream.hit_ratio",
            ratio(up_hits, up_hits + up_ns),
            "ratio",
        ),
        m(
            "server.validations_per_req",
            ratio((server1.validations - server0.validations) as f64, proxied),
            "ratio",
        ),
        m("coap.parse_ns", ns(rp.parse_ns, rp.requests), "ns"),
        m("coap.encode_ns", ns(rp.encode_ns, rp.encodes), "ns"),
        m("coap.request_bytes", b.mean_request_bytes(), "bytes"),
        m("coap.reply_bytes", b.mean_reply_bytes(), "bytes"),
        m("crypto.open_ns_per_pkt", ns(rp.open_ns, rp.packets), "ns"),
        m("crypto.seal_ns_per_pkt", ns(rp.seal_ns, rp.packets), "ns"),
        m(
            "crypto.batch_mean",
            ratio(rp.packets as f64, rp.batches as f64),
            "count",
        ),
        m(
            "crypto.allocs_per_batch",
            ratio(rp.allocs_crypto as f64, rp.batches as f64),
            "count",
        ),
        m("crypto.auth_failures", rp.auth_failures as f64, "count"),
        m(
            "heap.live_bytes_after_setup",
            b.live_after_setup as f64,
            "bytes",
        ),
        m("heap.peak_bytes_setup", b.peak_setup as f64, "bytes"),
        m("heap.peak_bytes_window", window_peak, "bytes"),
        m("self.io_us_per_req", self_io, "us"),
        m("self.proxy_us_per_req", self_proxy, "us"),
        m("self.coap_us_per_req", self_coap, "us"),
        m("self.server_us_per_req", self_server, "us"),
        m("self.crypto_us_per_req", self_crypto, "us"),
        m("trace.span_share", ratio(attributed, cpu_untraced), "ratio"),
        m(
            "trace.unattributed_us_per_req",
            cpu_untraced - attributed,
            "us",
        ),
        m("trace.cpu_us_per_req_untraced", cpu_untraced, "us"),
        m("trace.cpu_us_per_req_traced", cpu_traced, "us"),
        m("trace.overhead_us_per_req", cpu_traced - cpu_untraced, "us"),
        m("host.calibration_ms", crate::stats::median(&mut cals), "ms"),
    ];
    let wrong = tu.wrong + tt.wrong + rp.wrong;
    eprintln!(
        "docbench {} traced: {} + {} segments, replayed {}, {} spans ({} dropped) in {}",
        w.name(),
        untraced.len(),
        traced.len(),
        rp.requests,
        tracer.spans.len(),
        tracer.dropped,
        spans_path.display()
    );
    Ok(Report {
        correct: rp.wrong == 0 && tu.correct(w) && tt.correct(w),
        attempted: tu.requests + tt.requests + rp.requests,
        failed: wrong + tu.lost + tt.lost,
        metrics,
    })
}
