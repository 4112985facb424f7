//! One benchmark run: set-up, seeded segments, the measurements taken
//! around each segment and the per-run statistics over them.
//!
//! A run is many short segments. Each segment's CPU and latency
//! figures are divided by the calibration kernel timed right after it
//! (`calib`), and the run reports the median over segments: the host
//! changes speed from minute to minute, and this ratio repeats where
//! the raw figures do not (see NOTES.md).

use crate::stats::{median, quantile_u64, ratio};
use crate::workload::{
    peer_of, seal_reply, Arena, Program, Reference, Rng, Workload, PINNED_MS, REPLY_IV, REPLY_KEY,
    RING,
};
use crate::{calib, heap, sys, udp};
use doc_core::{Datagram, Reply};
use doc_dtls::record::{CipherState, RecordView};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request in `SAMPLE_EVERY` carries sojourn stamps when untraced.
const SAMPLE_EVERY: usize = 16;
/// Segments measured at least, however short `--seconds` is.
const MIN_SEGMENTS: usize = 8;

/// What `on_reply` saw for one request of an in-memory segment.
const UNANSWERED: u8 = 0;
const RIGHT: u8 = 1;
const WRONG: u8 = 2;

/// Copies of a segment's replies: (request index, reply wire).
type Captured = Mutex<Vec<(usize, Vec<u8>)>>;

/// What one segment measured.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    pub requests: u64,
    /// Requests that got a reply; `wrong` of them a reply that is not
    /// the expected one (or, in memory, none: the pool dropped it).
    pub answered: u64,
    pub wrong: u64,
    pub lost: u64,
    /// CPU of the program's threads (process CPU minus the client's).
    pub cpu_ns: u64,
    pub allocs: u64,
    /// The program's live heap at the segment's start, and its highest
    /// mark during the segment.
    pub start_bytes: u64,
    pub peak_bytes: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Request plus reply bytes of the correctly answered requests.
    pub wire_bytes: u64,
    /// CPU time of the set-up made just before the segment.
    pub setup_ns: u64,
    /// CPU time of the calibration kernel run just after it.
    pub cal_ns: u64,
}

impl Segment {
    /// Correctly answered requests.
    pub fn right(&self) -> u64 {
        self.answered - self.wrong
    }

    pub fn cpu_us_per_req(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.right() as f64
    }

    /// Convert a time measured in this segment to reference-host time.
    pub fn to_reference(&self, t: f64) -> f64 {
        t * calib::REFERENCE_NS / self.cal_ns as f64
    }
}

/// The run's figure for a time measured per segment: the median over
/// segments of the time in reference-host units (see `calib`).
pub fn per_run(segs: &[Segment], f: impl Fn(&Segment) -> f64) -> f64 {
    let mut v: Vec<f64> = segs.iter().map(|s| s.to_reference(f(s))).collect();
    median(&mut v)
}

/// The factor `per_run` applies, on the run's median calibration, for
/// times measured outside the segments.
pub fn time_scale(segs: &[Segment]) -> f64 {
    let mut cal: Vec<f64> = segs.iter().map(|s| s.cal_ns as f64).collect();
    calib::REFERENCE_NS / median(&mut cal)
}

/// The benchmark state of one run: the program, its reference, the
/// seeded input stream and the current segment's inputs and answers.
pub struct Bench {
    pub w: Workload,
    rng: Rng,
    pub prog: Program,
    reference: Reference,
    /// Reference reply to each name at the pinned instant (all but churn).
    table: Arena,
    reply_cipher: CipherState,
    /// Next DTLS record sequence number the pool's reply leg assigns.
    pub record_seq: u64,
    /// Virtual clock of the next request.
    pub clock_ms: u64,
    /// The current segment: mix entry and expected reply per request.
    pub idx: Vec<u32>,
    pub expected: Arena,
    /// Live heap owned by the benchmark rather than the program.
    bench_bytes: u64,
    calibrator: calib::Calibrator,
    pub live_after_setup: u64,
    pub peak_setup: u64,
    /// Sojourn stamps (ns since `base`, 0 = none) of sampled requests.
    pub sent: Vec<AtomicU64>,
    pub recv: Vec<AtomicU64>,
    /// `UNANSWERED`, `RIGHT` or `WRONG` per request of the current
    /// in-memory segment: one store per reply on the hot path.
    outcome: Vec<AtomicU8>,
    pub base: Instant,
    pub sample_every: usize,
    /// CPU for the `udp` client thread, apart from the program's.
    pub client_cpu: Option<usize>,
    pub udp_client: Option<udp::Client>,
    /// Round trips of the current `udp` round.
    pub rtts: Vec<u64>,
    /// When set (an unmeasured segment), `on_reply` also keeps a copy
    /// of every reply.
    captured: Option<Captured>,
}

impl Bench {
    /// Set up a run. Pins the calling thread, and so every program
    /// thread, to one CPU (see NOTES.md for why).
    pub fn new(w: Workload, seed: u64) -> Result<Bench, String> {
        let client_cpu = sys::pin_program();
        let reference = Reference::new(w);
        let mut table = Arena::default();
        if w != Workload::Churn {
            for entry in 0..w.names() {
                reference.reply(entry, PINNED_MS, table.open());
                table.seal();
            }
        }
        let n = w.segment_requests();
        let stamps = || (0..=n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let (sent, recv) = (stamps(), stamps());
        let outcome = (0..n).map(|_| AtomicU8::new(UNANSWERED)).collect();
        let (idx, rtts) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let calibrator = calib::Calibrator::new();
        // Everything allocated so far is the benchmark's; what the
        // set-up below adds is the program's.
        let bench_bytes = heap::live();
        heap::reset_peak();
        let prog = Program::build(w).map_err(|e| format!("set-up: {e}"))?;
        let live_after_setup = heap::live() - bench_bytes;
        let peak_setup = heap::peak() - bench_bytes;
        Ok(Bench {
            w,
            rng: Rng::new(seed),
            prog,
            reference,
            table,
            reply_cipher: CipherState::new(&REPLY_KEY, REPLY_IV),
            record_seq: 0,
            clock_ms: PINNED_MS,
            idx,
            expected: Arena::default(),
            bench_bytes,
            calibrator,
            live_after_setup,
            peak_setup,
            sent,
            recv,
            outcome,
            base: Instant::now(),
            sample_every: SAMPLE_EVERY,
            client_cpu,
            udp_client: None,
            rtts,
            captured: None,
        })
    }

    /// Nanoseconds since the run began, never 0.
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64 + 1
    }

    /// Run `f` as benchmark work, with the program's threads stopped:
    /// whatever it leaves allocated is the benchmark's, not the
    /// program's.
    pub fn bench_phase<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let before = heap::live();
        let r = f(self);
        self.bench_bytes = self
            .bench_bytes
            .wrapping_add(heap::live().wrapping_sub(before));
        r
    }

    /// Highest program heap since the last `heap::reset_peak`.
    pub fn program_peak(&self) -> u64 {
        heap::peak().saturating_sub(self.bench_bytes)
    }

    /// The program's live heap now.
    pub fn program_live(&self) -> u64 {
        heap::live().saturating_sub(self.bench_bytes)
    }

    /// Draw the next segment's requests and compute their expected
    /// replies with the reference.
    pub fn plan(&mut self, n: usize) {
        self.idx.clear();
        self.expected.clear();
        let step = self.w.clock_step_ms();
        for k in 0..n as u64 {
            let entry = self.rng.below(self.w.names());
            self.idx.push(entry);
            match self.w {
                Workload::Hot | Workload::Udp => self.expected.push(self.table.get(entry as usize)),
                Workload::Churn => {
                    let now = self.clock_ms + k * step;
                    self.reference.reply(entry, now, self.expected.open());
                    self.expected.seal();
                }
                Workload::Sealed => {
                    let plain = self.table.get(entry as usize);
                    seal_reply(
                        &self.reply_cipher,
                        self.record_seq,
                        plain,
                        self.expected.open(),
                    );
                    self.expected.seal();
                    self.record_seq += 1;
                }
            }
        }
    }

    /// CPU time of one more set-up at the workload's real size (all
    /// of it on this thread), which is then dropped.
    fn setup_rep(&self) -> Result<u64, String> {
        let start = sys::thread_cpu_ns();
        let prog = Program::build(self.w).map_err(|e| format!("set-up: {e}"))?;
        let cpu = sys::thread_cpu_ns() - start;
        drop(prog);
        Ok(cpu)
    }

    /// Plan and run one segment (benchmark work first, then the
    /// measured part). `traced` selects the traced variant.
    pub fn step(&mut self, traced: Option<&mut crate::trace::Tracer>) -> Result<Segment, String> {
        let n = self.w.segment_requests();
        let setup_ns = self.bench_phase(|b| {
            if let (Some(io), None) = (&b.prog.io, &b.udp_client) {
                b.udp_client =
                    Some(udp::Client::connect(io).map_err(|e| format!("udp client: {e}"))?);
            }
            b.plan(n);
            b.setup_rep()
        })?;
        for s in self.sent.iter().chain(&self.recv) {
            s.store(0, Relaxed);
        }
        for o in &self.outcome {
            o.store(UNANSWERED, Relaxed);
        }
        let mut seg = match self.w {
            Workload::Udp => udp::round(self, traced)?,
            _ => self.memory_segment(traced),
        };
        if seg.right() == 0 {
            return Err(format!(
                "{}: a segment answered none of its {} requests correctly ({} wrong, {} lost)",
                self.w.name(),
                seg.requests,
                seg.wrong,
                seg.lost
            ));
        }
        self.clock_ms += n as u64 * self.w.clock_step_ms();
        seg.setup_ns = setup_ns;
        seg.cal_ns = self.bench_phase(|b| b.calibrator.run());
        Ok(seg)
    }

    /// One `ProxyPool::run` over the planned requests, fed in memory.
    fn memory_segment(&mut self, traced: Option<&mut crate::trace::Tracer>) -> Segment {
        let every = self.sample_every;
        let step = self.w.clock_step_ms();
        let clock0 = self.clock_ms;
        let mut producer_wait_ns = 0u64;
        let mut last_out = 0u64;
        let this = &*self;
        let tracing = traced.is_some();
        let feed = this.idx.iter().enumerate().map(|(k, &entry)| {
            if tracing {
                let now = this.now_ns();
                if last_out != 0 {
                    producer_wait_ns += now - last_out;
                }
            }
            let mut wire = this.prog.recycle.take();
            wire.extend_from_slice(&this.prog.wires[entry as usize]);
            if k.is_multiple_of(every) {
                this.sent[k / every].store(this.now_ns(), Relaxed);
            }
            let d = Datagram {
                peer: peer_of(entry),
                seq: k as u64,
                at: doc_time::Instant::from_millis(clock0 + k as u64 * step),
                wire,
            };
            if tracing {
                last_out = this.now_ns();
            }
            d
        });
        let on_reply = |r: &Reply| {
            let k = r.seq as usize;
            let right = r.wire.as_deref() == Some(this.expected.get(k));
            this.outcome[k].store(if right { RIGHT } else { WRONG }, Relaxed);
            if let Some(wire) = &r.wire {
                if let Some(captured) = &this.captured {
                    captured
                        .lock()
                        .expect("no reply panicked")
                        .push((k, wire.clone()));
                }
            }
            if k.is_multiple_of(every) {
                this.recv[k / every].store(this.now_ns(), Relaxed);
            }
        };
        heap::reset_peak();
        let start_bytes = this.program_live();
        let allocs0 = heap::allocs();
        let cpu0 = sys::process_cpu_ns();
        let run = this.prog.pool.run(RING, feed, &on_reply);
        let cpu_ns = sys::process_cpu_ns() - cpu0;
        let allocs = heap::allocs() - allocs0;
        let peak_bytes = this.program_peak();
        let requests = this.idx.len() as u64;
        let (mut answered, mut wrong, mut wire_bytes) = (0, 0, 0);
        for (k, &entry) in this.idx.iter().enumerate() {
            match this.outcome[k].load(Relaxed) {
                RIGHT => {
                    answered += 1;
                    wire_bytes +=
                        (this.prog.wires[entry as usize].len() + this.expected.get(k).len()) as u64;
                }
                WRONG => {
                    answered += 1;
                    wrong += 1;
                }
                _ => {}
            }
        }
        let mut lat = self.sojourns();
        if let Some(t) = traced {
            t.pool_segment(self, &run, producer_wait_ns, &lat);
        }
        Segment {
            requests,
            answered,
            wrong,
            lost: requests - answered,
            cpu_ns,
            allocs,
            start_bytes,
            peak_bytes,
            p50_ns: quantile_u64(&mut lat, 0.5),
            p99_ns: quantile_u64(&mut lat, 0.99),
            wire_bytes,
            ..Segment::default()
        }
    }

    /// How many of `replies` (request index, reply wire) are one DTLS
    /// record that opens with the reply key to the reference reply.
    fn opened_to_reference(&self, replies: &[(usize, Vec<u8>)]) -> u64 {
        let cipher = CipherState::new(&REPLY_KEY, REPLY_IV);
        let opens = |k: usize, wire: &[u8]| -> Option<bool> {
            let (record, used) = RecordView::decode(wire).ok()?;
            let plain = cipher
                .open(record.ctype, record.epoch, record.seq, record.payload)
                .ok()?;
            Some(used == wire.len() && plain == self.table.get(self.idx[k] as usize))
        };
        replies
            .iter()
            .filter(|(k, wire)| opens(*k, wire) == Some(true))
            .count() as u64
    }

    /// Mean request datagram of the current plan, in bytes.
    pub fn mean_request_bytes(&self) -> f64 {
        let total: usize = self
            .idx
            .iter()
            .map(|&e| self.prog.wires[e as usize].len())
            .sum();
        ratio(total as f64, self.idx.len() as f64)
    }

    /// Mean expected reply of the current plan, in bytes.
    pub fn mean_reply_bytes(&self) -> f64 {
        let total: usize = (0..self.expected.len())
            .map(|k| self.expected.get(k).len())
            .sum();
        ratio(total as f64, self.expected.len() as f64)
    }

    /// Sojourn of every stamped request, in stamp order.
    pub fn sojourns(&self) -> Vec<u64> {
        self.sent
            .iter()
            .zip(&self.recv)
            .filter_map(|(s, r)| {
                let (s, r) = (s.load(Relaxed), r.load(Relaxed));
                (s != 0 && r != 0).then(|| r.saturating_sub(s))
            })
            .collect()
    }
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The last line of a run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Totals over the measured segments.
#[derive(Default, Debug)]
pub struct Totals {
    pub requests: u64,
    pub answered: u64,
    pub wrong: u64,
    pub lost: u64,
}

impl Totals {
    /// No wrong answer and, in memory, no lost request: only the
    /// kernel may drop a datagram, and only over loopback (`udp`).
    pub fn correct(&self, w: Workload) -> bool {
        self.wrong == 0 && (w == Workload::Udp || self.lost == 0)
    }

    pub fn of(segs: &[Segment]) -> Totals {
        let mut t = Totals::default();
        for s in segs {
            t.requests += s.requests;
            t.answered += s.answered;
            t.wrong += s.wrong;
            t.lost += s.lost;
        }
        t
    }
}

/// Warm-up segments before measuring: churn needs its cache full and
/// its TTLs cycling (about two minutes of virtual time); the others
/// need the pool's buffers grown once.
fn warmup_segments(w: Workload) -> usize {
    match w {
        Workload::Churn => 8,
        _ => 1,
    }
}

/// The program's heap at the window's start plus the highest rise
/// above its starting level within any one segment. Each spawned and
/// joined thread leaves ~128 bytes behind in the standard library, and
/// every segment spawns a worker; counting rises per segment keeps that
/// creep (≈ 250 bytes a segment) out, so the figure does not grow with
/// the number of segments a run fits in.
pub fn peak_heap_bytes(segs: &[Segment]) -> f64 {
    let rise = segs
        .iter()
        .map(|s| s.peak_bytes.saturating_sub(s.start_bytes))
        .max();
    segs.first()
        .map_or(0, |s| s.start_bytes + rise.unwrap_or(0)) as f64
}

/// Run the unmeasured warm-up segments, which must be answered as
/// correctly as measured ones.
///
/// On `sealed`, the warm-up also keeps every reply and opens it with
/// the reply key: each must be one DTLS record whose plaintext is the
/// reference reply. The measured segments then compare bytes with
/// expectations sealed the same way, without opening.
pub fn warm_up(b: &mut Bench) -> Result<(), String> {
    for _ in 0..warmup_segments(b.w) {
        if b.w == Workload::Sealed {
            b.captured = Some(Mutex::new(Vec::new()));
        }
        let seg = b.step(None)?;
        let unopened = match b.captured.take() {
            Some(captured) => {
                let captured = captured.into_inner().expect("no reply panicked");
                captured.len() as u64 - b.opened_to_reference(&captured)
            }
            None => 0,
        };
        if unopened > 0 || !Totals::of(std::slice::from_ref(&seg)).correct(b.w) {
            return Err(format!(
                "{} warm-up: {} wrong, {} lost, {unopened} replies did not open to the reference",
                b.w.name(),
                seg.wrong,
                seg.lost
            ));
        }
    }
    Ok(())
}

/// Measured segments for `budget`, at least `min` of them; `tracer`
/// selects the traced variant.
pub fn segments(
    b: &mut Bench,
    budget: Duration,
    min: usize,
    mut tracer: Option<&mut crate::trace::Tracer>,
) -> Result<Vec<Segment>, String> {
    let mut segs = Vec::new();
    let start = Instant::now();
    while segs.len() < min || start.elapsed() < budget {
        let seg = b.step(tracer.as_deref_mut())?;
        b.bench_phase(|_| segs.push(seg));
    }
    Ok(segs)
}

/// The untraced run: every end-to-end metric.
pub fn run(w: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut b = Bench::new(w, seed)?;
    warm_up(&mut b)?;
    let segs = segments(&mut b, Duration::from_secs(seconds), MIN_SEGMENTS, None)?;
    let t = Totals::of(&segs);
    let correct_answers = t.answered - t.wrong;
    let metrics = vec![
        Metric {
            name: "cpu_us_per_req",
            value: per_run(&segs, Segment::cpu_us_per_req),
            unit: "us",
        },
        Metric {
            name: "allocs_per_req",
            value: ratio(
                segs.iter().map(|s| s.allocs).sum::<u64>() as f64,
                t.answered as f64,
            ),
            unit: "count",
        },
        Metric {
            name: "peak_heap_bytes",
            value: peak_heap_bytes(&segs),
            unit: "bytes",
        },
        Metric {
            name: "wire_bytes_per_req",
            value: ratio(
                segs.iter().map(|s| s.wire_bytes).sum::<u64>() as f64,
                correct_answers as f64,
            ),
            unit: "bytes",
        },
        Metric {
            name: "setup_s",
            // Set-up is single-threaded work on the program's CPU on
            // every workload, `udp`'s socket bind included.
            value: median(
                &mut segs
                    .iter()
                    .map(|s| s.to_reference(s.setup_ns as f64 / 1e9))
                    .collect::<Vec<_>>(),
            ),
            unit: "s",
        },
    ];
    eprintln!(
        "docbench {}: {} segments, attempted {} answered {} wrong {} lost {}",
        w.name(),
        segs.len(),
        t.requests,
        t.answered,
        t.wrong,
        t.lost,
    );
    Ok(Report {
        correct: t.correct(w),
        attempted: t.requests,
        failed: t.wrong + t.lost,
        metrics,
    })
}
