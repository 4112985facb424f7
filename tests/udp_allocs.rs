//! Allocation budget of the UDP path: cache hits received by
//! [`UdpProvider`], served by [`ProxyPool::run_io`] and sent back over
//! loopback.
//!
//! Once every receive slot has carried a datagram, a received request
//! lands in the wire buffer of the spent datagram its slot holds and
//! its reply is written into the reply slab, so serving allocates
//! nothing. What the first `run_io` call still allocates is its slots,
//! scratch and first buffers, spread over the call's requests; the
//! pool keeps them, so the short pumps that follow it, each ending on
//! its idle timeout, allocate nothing at all.
//!
//! The loopback client allocates nothing itself (stack buffers, a
//! connected socket), so the process-wide count is the server's. Each
//! query's 2-byte CoAP token names its window slot and generation, and
//! every reply must be the expected hit reply carrying that token.
//!
//! This binary holds a single test because the counting allocator is
//! process-wide. `UdpProvider` is Linux-only, and so is the test.

#![cfg(target_os = "linux")]

use doc_bench::alloc_counter::{alloc_count, CountingAllocator};
use doc_bench::throughput::{build_mix, LoadSpec};
use doc_core::{CachePolicy, CoapProxy, Datagram, DocServer, MockUpstream, ProxyPool, UdpProvider};
use doc_time::{Instant, Millis};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations per request one `run_io` call may make.
const PER_REQUEST_BUDGET: f64 = 0.05;
/// Requests driven through the first measured `run_io` call.
const REQUESTS: usize = 24_000;
/// Short `run_io` calls after it, and the requests each serves.
const SHORT_RUNS: usize = 4;
const SHORT_REQUESTS: usize = 32;
/// Queries the client keeps outstanding: two receive batches' worth.
const WINDOW: usize = 128;
/// Receive slots per `recv_batch`.
const SLOTS: usize = 64;
/// Offset and length of the CoAP token in every mix request.
const TOKEN_AT: usize = 4;
const TOKEN_LEN: usize = 2;
/// Largest mix request, with room to spare.
const MAX_REQUEST: usize = 256;

/// What the client saw.
#[derive(Debug, Default, PartialEq, Eq)]
struct Outcome {
    answered: usize,
    wrong: usize,
    lost: usize,
}

#[derive(Clone, Copy, Default)]
struct Slot {
    /// Mix entry of the query in flight.
    entry: usize,
    generation: u8,
    busy: bool,
}

/// Whether `reply` is `expected` with `token` in place of its token.
fn matches(reply: &[u8], expected: &[u8], token: [u8; TOKEN_LEN]) -> bool {
    let t = TOKEN_AT..TOKEN_AT + TOKEN_LEN;
    reply.len() == expected.len()
        && reply[..TOKEN_AT] == expected[..TOKEN_AT]
        && reply[t.clone()] == token
        && reply[t.end..] == expected[t.end..]
}

/// A closed-loop client keeping `WINDOW` queries outstanding until
/// `requests` have been answered (or one reply is 2 s late). Uses
/// only stack memory.
fn run_client(
    socket: &UdpSocket,
    wires: &[Vec<u8>],
    expected: &[Vec<u8>],
    requests: usize,
) -> Outcome {
    let mut out = Outcome::default();
    let mut slots = [Slot::default(); WINDOW];
    let mut sendbuf = [0u8; MAX_REQUEST];
    let mut buf = [0u8; 2048];
    let mut next = 0usize;
    let mut busy = 0usize;
    let mut send = |slot: usize, slots: &mut [Slot; WINDOW], next: &mut usize| {
        let s = &mut slots[slot];
        s.entry = *next % wires.len();
        s.generation = s.generation.wrapping_add(1);
        s.busy = true;
        *next += 1;
        let wire = &wires[s.entry];
        let msg = &mut sendbuf[..wire.len()];
        msg.copy_from_slice(wire);
        msg[TOKEN_AT..TOKEN_AT + TOKEN_LEN].copy_from_slice(&[slot as u8, s.generation]);
        socket.send(msg).expect("loopback send");
    };
    while busy < WINDOW && next < requests {
        send(busy, &mut slots, &mut next);
        busy += 1;
    }
    while busy > 0 {
        let Ok(len) = socket.recv(&mut buf) else {
            out.lost = busy;
            break;
        };
        let reply = &buf[..len];
        out.answered += 1;
        let Some(&[slot, generation]) = reply.get(TOKEN_AT..TOKEN_AT + TOKEN_LEN) else {
            out.wrong += 1;
            continue;
        };
        let slot = usize::from(slot);
        match slots.get(slot) {
            Some(s) if s.busy && s.generation == generation => {
                if !matches(reply, &expected[s.entry], [slot as u8, generation]) {
                    out.wrong += 1;
                }
            }
            _ => {
                out.wrong += 1;
                continue;
            }
        }
        slots[slot].busy = false;
        busy -= 1;
        if next < requests {
            send(slot, &mut slots, &mut next);
            busy += 1;
        }
    }
    out
}

#[test]
fn udp_path_allocation_budget() {
    const NAMES: u32 = 256;
    let at = Instant::from_millis(1);
    let upstream = MockUpstream::with_shards(0xD0C, 3600, 3600, 16);
    let spec = LoadSpec {
        unique_names: NAMES,
        ..LoadSpec::default()
    };
    let mix = build_mix(&spec, &upstream);
    let wires = mix.wires();
    assert!(wires.iter().all(|w| w.len() <= MAX_REQUEST));
    let proxy = Arc::new(CoapProxy::with_shards(4 * NAMES as usize, 16));
    let server = Arc::new(DocServer::with_shards(CachePolicy::EolTtls, upstream, 16));
    let pool = ProxyPool::new(1, Arc::clone(&proxy), server);

    // Prime the cache; the second pass gives each name's hit reply.
    let mut scratch = Vec::new();
    let mut serve = |i: usize| {
        let d = Datagram {
            peer: 0,
            seq: i as u64,
            at,
            wire: wires[i].clone(),
        };
        pool.serve(&d, &mut scratch)
            .expect("mix requests are servable")
    };
    (0..wires.len()).for_each(|i| drop(serve(i)));
    let expected: Vec<Vec<u8>> = (0..wires.len()).map(serve).collect();
    assert_eq!(proxy.stats().forwards, NAMES, "one miss per name");

    let mut provider = UdpProvider::bind("127.0.0.1:0")
        .unwrap()
        .with_virtual_time(at);
    let client = UdpSocket::bind("127.0.0.1:0").unwrap();
    client.connect(provider.local_addr().unwrap()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let go = AtomicBool::new(false);
    let (stats, outcome, allocs) = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            while !go.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            run_client(&client, wires, &expected, REQUESTS)
        });
        let a0 = alloc_count();
        go.store(true, Ordering::Release);
        let stats = pool.run_io(&mut provider, WINDOW, SLOTS, Millis::from_millis(500));
        let allocs = alloc_count() - a0;
        (stats, handle.join().unwrap(), allocs)
    });
    assert_eq!(
        outcome,
        Outcome {
            answered: REQUESTS,
            wrong: 0,
            lost: 0
        },
        "every query answered with its expected reply"
    );
    assert_eq!(
        (stats.processed, stats.replies, stats.errors),
        (REQUESTS as u64, REQUESTS as u64, 0)
    );
    assert_eq!(proxy.stats().forwards, NAMES, "every measured request hit");
    let per_request = allocs as f64 / REQUESTS as f64;
    assert!(
        per_request <= PER_REQUEST_BUDGET,
        "{allocs} allocations over {REQUESTS} UDP requests ({per_request:.3}/req)"
    );

    // Short pumps, each returning on its idle timeout: the client
    // thread serves every round, and each call reuses the run state
    // the previous call left on the pool.
    // The client thread reports in before the first call, so whatever
    // its start-up allocates is not counted against `run_io`.
    let round = AtomicUsize::new(0);
    let ready = AtomicBool::new(false);
    let (short, served, short_allocs) = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            ready.store(true, Ordering::Release);
            let mut total = Outcome::default();
            for r in 1..=SHORT_RUNS {
                while round.load(Ordering::Acquire) < r {
                    std::hint::spin_loop();
                }
                let o = run_client(&client, wires, &expected, SHORT_REQUESTS);
                total.answered += o.answered;
                total.wrong += o.wrong;
                total.lost += o.lost;
            }
            total
        });
        while !ready.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let (mut served, mut allocs) = (0u64, [0u64; SHORT_RUNS]);
        for (r, a) in allocs.iter_mut().enumerate() {
            let a0 = alloc_count();
            round.store(r + 1, Ordering::Release);
            let stats = pool.run_io(&mut provider, WINDOW, SLOTS, Millis::from_millis(200));
            *a = alloc_count() - a0;
            served += stats.replies;
        }
        (handle.join().unwrap(), served, allocs)
    });
    assert_eq!(
        short,
        Outcome {
            answered: SHORT_RUNS * SHORT_REQUESTS,
            wrong: 0,
            lost: 0
        },
        "every short-pump query answered with its expected reply"
    );
    assert_eq!(served, (SHORT_RUNS * SHORT_REQUESTS) as u64);
    assert_eq!(
        short_allocs, [0; SHORT_RUNS],
        "allocations per restarted run_io call"
    );
}
