//! The `udp` workload: a closed-loop client on one loopback socket
//! against `UdpProvider` + `ProxyPool::run_io`.
//!
//! The client keeps `WINDOW` queries outstanding. Each window slot
//! stamps its query's 2-byte CoAP token with (slot, generation), so a
//! reply names the query it answers; a query unanswered after
//! `LOSS_TIMEOUT` is counted lost and its slot refilled, and a reply
//! that arrives after that is ignored. The client thread's own CPU is
//! subtracted from the process CPU; the pump thread that calls
//! `run_io` and the pool's worker are the program.

use crate::measure::{Bench, Segment};
use crate::stats::quantile_u64;
use crate::trace::Tracer;
use crate::workload::RING;
use crate::{heap, sys};
use doc_core::io::{IoProvider, RecvSlot};
use doc_core::pool::PoolRunStats;
use doc_core::{Reply, UdpProvider};
use doc_time::Millis;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Queries the client keeps outstanding: two receive batches' worth.
/// With 32 or 64 a round's CPU per request swings with how often the
/// pump's poll stalls; with 128 the receive batches stay full and it
/// repeats (NOTES.md).
pub const WINDOW: usize = 2 * SLOTS;
/// Receive slots per `recv_batch`.
const SLOTS: usize = 64;
/// `run_io` returns after this long with nothing received or in flight.
const IDLE: Millis = Millis::from_millis(20);
/// A query unanswered this long is lost.
const LOSS_TIMEOUT: Duration = Duration::from_millis(500);
/// Offset and length of the CoAP token in every mix request.
const TOKEN_AT: usize = 4;
const TOKEN_LEN: usize = 2;

/// What the client saw over one round.
struct ClientOutcome {
    answered: u64,
    wrong: u64,
    lost: u64,
    wire_bytes: u64,
    /// Process CPU minus this thread's CPU over the round.
    program_cpu_ns: u64,
}

/// The client's socket and window, kept for the whole run: one
/// source address, and generations that keep counting across rounds,
/// so a reply to a query lost in an earlier round is never taken for
/// a later one.
pub struct Client {
    socket: UdpSocket,
    slots: [Slot; WINDOW],
}

impl Client {
    /// Bind a loopback socket connected to `io`'s address.
    pub fn connect(io: &UdpProvider) -> std::io::Result<Client> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.connect(io.local_addr()?)?;
        socket.set_read_timeout(Some(Duration::from_millis(1)))?;
        Ok(Client {
            socket,
            slots: [Slot::default(); WINDOW],
        })
    }
}

#[derive(Clone, Copy, Default)]
struct Slot {
    /// Index into the round's requests of the query in flight.
    k: usize,
    generation: u8,
    sent_ns: u64,
    busy: bool,
}

/// Serve the round through `io` (the bare provider or the traced
/// wrapper around it); returns the summed pool counts.
fn pump<P: IoProvider>(b: &Bench, io: &mut P, done: &AtomicBool) -> PoolRunStats {
    let mut total = PoolRunStats::default();
    // `run_io` also returns when the client is silent for `IDLE`
    // (a descheduled client on a busy host); keep pumping until the
    // client says it is finished.
    while !done.load(Ordering::Acquire) {
        let run = b.prog.pool.run_io(io, RING, SLOTS, IDLE);
        total.processed += run.processed;
        total.replies += run.replies;
        total.errors += run.errors;
        total.steals_per_worker.push(run.total_steals());
    }
    total
}

/// One round: the planned requests over loopback, `WINDOW` at a time.
pub fn round(b: &mut Bench, traced: Option<&mut Tracer>) -> Result<Segment, String> {
    let mut io = b.prog.io.take().expect("the udp program binds a socket");
    let mut client = b.udp_client.take().expect("the udp run connects a client");
    let mut rtts = std::mem::take(&mut b.rtts);
    rtts.clear();
    let result = round_with(b, &mut io, &mut client, &mut rtts, traced);
    b.prog.io = Some(io);
    b.udp_client = Some(client);
    b.rtts = rtts;
    result
}

fn round_with(
    b: &Bench,
    io: &mut UdpProvider,
    c: &mut Client,
    rtts: &mut Vec<u64>,
    traced: Option<&mut Tracer>,
) -> Result<Segment, String> {
    let done = AtomicBool::new(false);
    heap::reset_peak();
    let start_bytes = b.program_live();
    let allocs0 = heap::allocs();
    let outcome = std::thread::scope(|s| {
        let client = s.spawn(|| {
            if let Some(cpu) = b.client_cpu {
                sys::pin_to(cpu);
            }
            let cpu0 = sys::process_cpu_ns();
            let own0 = sys::thread_cpu_ns();
            let outcome = run_client(b, c, rtts);
            let own = sys::thread_cpu_ns() - own0;
            let cpu = sys::process_cpu_ns() - cpu0;
            done.store(true, Ordering::Release);
            outcome.map(|o| ClientOutcome {
                program_cpu_ns: cpu.saturating_sub(own),
                ..o
            })
        });
        let run = match traced {
            Some(t) => {
                let run = pump(b, &mut t.wrap_io(io), &done);
                t.pool_run(&run);
                run
            }
            None => pump(b, io, &done),
        };
        let outcome = client.join().expect("the udp client does not panic")?;
        // A datagram the pool dropped as malformed is a wrong answer,
        // not a loss; the client timed it out like one the kernel lost.
        let dropped = run.errors.min(outcome.lost);
        Ok::<_, String>(ClientOutcome {
            answered: outcome.answered + dropped,
            wrong: outcome.wrong + dropped,
            lost: outcome.lost - dropped,
            ..outcome
        })
    })?;
    let allocs = heap::allocs() - allocs0;
    let peak_bytes = b.program_peak();
    let requests = b.idx.len() as u64;
    Ok(Segment {
        requests,
        answered: outcome.answered,
        wrong: outcome.wrong,
        lost: outcome.lost,
        cpu_ns: outcome.program_cpu_ns,
        allocs,
        start_bytes,
        peak_bytes,
        p50_ns: quantile_u64(rtts, 0.5),
        p99_ns: quantile_u64(rtts, 0.99),
        wire_bytes: outcome.wire_bytes,
        ..Segment::default()
    })
}

/// Whether `reply` is the expected reply with the slot's token.
fn matches(reply: &[u8], expected: &[u8], token: [u8; TOKEN_LEN]) -> bool {
    let t = TOKEN_AT..TOKEN_AT + TOKEN_LEN;
    reply.len() == expected.len()
        && reply[..TOKEN_AT] == expected[..TOKEN_AT]
        && reply[t.clone()] == token
        && reply[t.end..] == expected[t.end..]
}

fn run_client(b: &Bench, c: &mut Client, rtts: &mut Vec<u64>) -> Result<ClientOutcome, String> {
    let n = b.idx.len();
    let (socket, slots) = (&c.socket, &mut c.slots);
    let mut out = ClientOutcome {
        answered: 0,
        wrong: 0,
        lost: 0,
        wire_bytes: 0,
        program_cpu_ns: 0,
    };
    let mut sendbuf: Vec<u8> = Vec::with_capacity(256);
    let mut buf = [0u8; 2048];
    let mut next = 0usize;
    let mut busy = 0usize;
    let send = |slot: usize,
                slots: &mut [Slot; WINDOW],
                next: &mut usize,
                sendbuf: &mut Vec<u8>|
     -> Result<(), String> {
        let s = &mut slots[slot];
        s.k = *next;
        *next += 1;
        s.generation = s.generation.wrapping_add(1);
        sendbuf.clear();
        sendbuf.extend_from_slice(&b.prog.wires[b.idx[s.k] as usize]);
        sendbuf[TOKEN_AT..TOKEN_AT + TOKEN_LEN].copy_from_slice(&[slot as u8, s.generation]);
        s.sent_ns = b.now_ns();
        s.busy = true;
        socket.send(sendbuf).map_err(|e| e.to_string())?;
        Ok(())
    };
    while busy < WINDOW && next < n {
        send(busy, slots, &mut next, &mut sendbuf)?;
        busy += 1;
    }
    let mut polls = 0u32;
    while busy > 0 {
        polls = polls.wrapping_add(1);
        match socket.recv(&mut buf) {
            Ok(len) => {
                let reply = &buf[..len];
                let token = reply.get(TOKEN_AT..TOKEN_AT + TOKEN_LEN);
                let Some(&[slot, generation]) = token else {
                    // A reply too short to name its query: wrong.
                    out.answered += 1;
                    out.wrong += 1;
                    continue;
                };
                let slot = slot as usize;
                if slot >= WINDOW || !slots[slot].busy || slots[slot].generation != generation {
                    continue; // answers a query already counted lost
                }
                let s = slots[slot];
                rtts.push(b.now_ns() - s.sent_ns);
                out.answered += 1;
                let expected = b.expected.get(s.k);
                if matches(reply, expected, [slot as u8, generation]) {
                    out.wire_bytes += (len + b.prog.wires[b.idx[s.k] as usize].len()) as u64;
                } else {
                    out.wrong += 1;
                }
                slots[slot].busy = false;
                busy -= 1;
                if next < n {
                    send(slot, slots, &mut next, &mut sendbuf)?;
                    busy += 1;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                polls = 0; // check for losses now
            }
            Err(e) => return Err(format!("udp client recv: {e}")),
        }
        if polls.is_multiple_of(256) {
            let now = b.now_ns();
            for slot in 0..WINDOW {
                let s = slots[slot];
                if s.busy && now - s.sent_ns > LOSS_TIMEOUT.as_nanos() as u64 {
                    out.lost += 1;
                    slots[slot].busy = false;
                    busy -= 1;
                    if next < n {
                        send(slot, slots, &mut next, &mut sendbuf)?;
                        busy += 1;
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Per-call figures of the traced I/O provider.
#[derive(Default, Debug)]
pub struct IoCounts {
    pub recv_calls: u64,
    /// Calls that returned no datagram.
    pub recv_empty: u64,
    pub recv_datagrams: u64,
    pub recv_cpu_ns: u64,
    pub idle_polls: u64,
    pub send_calls: u64,
    pub send_replies: u64,
    pub send_cpu_ns: u64,
    pub send_failed: u64,
}

/// A delegating `IoProvider` that times every call into the wrapped
/// `UdpProvider` with the pump thread's CPU clock and records the
/// receive-to-send time of every datagram.
pub struct TracedIo<'a> {
    pub inner: &'a mut UdpProvider,
    pub tracer: &'a mut Tracer,
}

impl IoProvider for TracedIo<'_> {
    fn recv_batch(&mut self, slots: &mut [RecvSlot], timeout: Millis) -> usize {
        let (w0, c0) = (self.tracer.now_ns(), sys::thread_cpu_ns());
        let n = self.inner.recv_batch(slots, timeout);
        let (c1, w1) = (sys::thread_cpu_ns(), self.tracer.now_ns());
        let t = &mut self.tracer.io;
        t.recv_calls += 1;
        t.recv_datagrams += n as u64;
        t.recv_cpu_ns += c1 - c0;
        if n == 0 {
            t.recv_empty += 1;
            if self.tracer.in_flight > 0 {
                t.idle_polls += 1;
            }
        }
        self.tracer.in_flight += n as u64;
        for slot in &slots[..n] {
            if let Some(d) = &slot.datagram {
                self.tracer.stamp_recv(d.seq, w1);
            }
        }
        self.tracer.wrapper_span("io.recv_batch", w0, w1, None);
        n
    }

    fn send_batch(&mut self, replies: &[Reply]) -> usize {
        let (w0, c0) = (self.tracer.now_ns(), sys::thread_cpu_ns());
        let sent = self.inner.send_batch(replies);
        let (c1, w1) = (sys::thread_cpu_ns(), self.tracer.now_ns());
        let t = &mut self.tracer.io;
        t.send_calls += 1;
        t.send_replies += replies.len() as u64;
        t.send_cpu_ns += c1 - c0;
        let with_wire = replies.iter().filter(|r| r.wire.is_some()).count();
        t.send_failed += (with_wire - sent.min(with_wire)) as u64;
        self.tracer.in_flight = self.tracer.in_flight.saturating_sub(replies.len() as u64);
        for r in replies {
            self.tracer.sojourn_to(r.seq, w1);
        }
        self.tracer.wrapper_span("io.send_batch", w0, w1, None);
        sent
    }
}
