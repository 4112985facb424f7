//! End-to-end tests of the scale-out front-end: the sharded
//! proxy/server behind the worker pool, fed both by the
//! throughput harness's replay mix and by the network simulator's
//! batched event drain (through [`SimProvider`]).

use doc_bench::throughput::{build_mix, LoadSpec};
use doc_repro::doc::io::SimProvider;
use doc_repro::doc::policy::CachePolicy;
use doc_repro::doc::pool::{Datagram, ProxyPool};
use doc_repro::doc::server::{DocServer, MockUpstream};
use doc_repro::doc::CoapProxy;
use doc_repro::netsim::{LinkKind, Sim, Tag};
use doc_repro::time::Millis;
use std::sync::{Arc, Mutex};

fn sharded_pool(workers: usize, spec: &LoadSpec) -> (ProxyPool, Vec<Vec<u8>>) {
    let upstream = MockUpstream::new(1, spec.ttl_s, spec.ttl_s);
    let mix = build_mix(spec, &upstream);
    let pool = ProxyPool::new(
        workers,
        Arc::new(CoapProxy::with_shards(1024, spec.shards)),
        Arc::new(DocServer::new(CachePolicy::EolTtls, upstream)),
    );
    (pool, mix.wires().to_vec())
}

/// The full replay mix through 4 workers: every datagram answered,
/// every reply well-formed, proxy/server accounting adds up.
#[test]
fn pool_replays_query_mix_end_to_end() {
    let spec = LoadSpec {
        unique_names: 32,
        ..LoadSpec::default()
    };
    let (pool, wires) = sharded_pool(4, &spec);
    let total = 2_000u64;
    let replies = Mutex::new(0u64);
    let stats = pool.run(
        64,
        (0..total).map(|seq| Datagram {
            peer: seq % 16,
            seq,
            at: doc_repro::time::Instant::from_millis(1),
            wire: wires[(seq % wires.len() as u64) as usize].clone(),
        }),
        &|r| {
            assert!(r.wire.is_some(), "seq {} dropped", r.seq);
            *replies.lock().unwrap() += 1;
        },
    );
    assert_eq!(stats.processed, total);
    assert_eq!(stats.replies, total);
    assert_eq!(*replies.lock().unwrap(), total);
    let p = pool.proxy.stats();
    assert_eq!(p.requests, total as u32);
    // Steady state after the 32 first touches (racing first touches
    // are bounded by names × workers).
    assert!(p.cache_hits >= (total as u32) - 32 * 4);
    // Every forward reached the origin.
    assert_eq!(pool.server.stats().requests, p.forwards + p.revalidations);
}

/// The simulator feeds the pool in batched virtual-time windows:
/// clients transmit queries over the simulated 802.15.4 topology,
/// `run_io` over a [`SimProvider`] serves each window's arrivals, and
/// the replies are sent back into the simulator toward the clients.
/// Every client ends up with a reply datagram.
#[test]
fn netsim_batched_drain_feeds_the_pool() {
    const CLIENTS: usize = 8;
    const PROXY_NODE: usize = 100;
    let spec = LoadSpec {
        unique_names: CLIENTS as u32,
        ..LoadSpec::default()
    };
    let (pool, wires) = sharded_pool(2, &spec);

    // Star topology: every client one lossless wireless hop from the
    // proxy node.
    let mut sim = Sim::new(42);
    for (c, wire) in wires.iter().enumerate().take(CLIENTS) {
        sim.add_link(
            c,
            PROXY_NODE,
            LinkKind::Wireless {
                channel: 0,
                loss_permille: 0,
            },
        );
        sim.add_route(&[c, PROXY_NODE]);
        sim.send_datagram(c, PROXY_NODE, wire.clone(), Tag::Query);
    }

    // Pump the simulator through the pool in 50 ms drain windows;
    // replies re-enter the simulator and arrive back at the clients.
    let mut provider = SimProvider::new(&mut sim, PROXY_NODE, 50_000);
    let stats = pool.run_io(&mut provider, 16, 16, Millis::from_millis(10));
    assert_eq!(stats.errors, 0);
    let mut client_replies = vec![0u32; CLIENTS];
    for (to, _) in provider.take_delivered() {
        client_replies[to] += 1;
    }
    assert_eq!(client_replies, vec![1; CLIENTS], "one reply per client");
    assert_eq!(pool.proxy.stats().requests, CLIENTS as u32);
}

/// A single hot peer: every datagram comes from one client, and the
/// shared source spreads their drains over all workers. Every request is
/// still answered exactly once, and the per-worker steal column keeps
/// its shape (one zero per worker) for consumers of that field.
#[test]
fn single_hot_peer_is_served_exactly_once() {
    const WORKERS: usize = 4;
    let spec = LoadSpec {
        unique_names: 16,
        ..LoadSpec::default()
    };
    let (pool, wires) = sharded_pool(WORKERS, &spec);
    let total = 1_000u64;
    let served = Mutex::new(vec![0u32; total as usize]);
    let stats = pool.run(
        64,
        (0..total).map(|seq| Datagram {
            peer: 1,
            seq,
            at: doc_repro::time::Instant::from_millis(1),
            wire: wires[(seq % wires.len() as u64) as usize].clone(),
        }),
        &|r| {
            assert!(r.wire.is_some(), "seq {} dropped", r.seq);
            served.lock().unwrap()[r.seq as usize] += 1;
        },
    );
    assert_eq!(stats.processed, total);
    assert_eq!(stats.replies, total);
    assert!(
        served.lock().unwrap().iter().all(|&n| n == 1),
        "every request served exactly once"
    );
    assert_eq!(stats.steals_per_worker, vec![0; WORKERS]);
}
