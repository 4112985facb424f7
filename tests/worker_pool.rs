//! End-to-end tests of the scale-out front-end: the sharded
//! proxy/server behind the SPMC-ring worker pool, fed both by the
//! throughput harness's replay mix and by the network simulator's
//! batched event drain.

use doc_bench::throughput::{build_mix, LoadSpec};
use doc_repro::doc::policy::CachePolicy;
use doc_repro::doc::pool::{Datagram, ProxyPool};
use doc_repro::doc::server::{DocServer, MockUpstream};
use doc_repro::doc::CoapProxy;
use doc_repro::netsim::{LinkKind, Sim, SimEvent, Tag};
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

/// The simulator feeds the ring in batched virtual-time windows:
/// clients transmit queries over the simulated 802.15.4 topology,
/// `drain_due` harvests each window's arrivals, the pool serves them,
/// and the replies are injected back into the simulator toward the
/// clients. Every client ends up with a reply datagram.
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

    // Pump the simulator in 50 ms batches; each batch's datagrams fan
    // through the worker pool, and replies re-enter the simulator.
    let mut horizon_us = 0;
    let mut batch = Vec::new();
    let mut client_replies = vec![0u32; CLIENTS];
    while !sim.is_idle() {
        horizon_us += 50_000;
        batch.clear();
        sim.drain_due(horizon_us, &mut batch);
        let at = sim.now();
        let mut arrived = Vec::new();
        for (_, ev) in batch.drain(..) {
            match ev {
                SimEvent::Datagram { from, to, bytes } if to == PROXY_NODE => {
                    arrived.push(Datagram {
                        peer: from as u64,
                        seq: from as u64,
                        at,
                        wire: bytes,
                    });
                }
                SimEvent::Datagram { to, .. } => {
                    client_replies[to] += 1;
                }
                SimEvent::Timer { .. } => {}
            }
        }
        if arrived.is_empty() {
            continue;
        }
        let replies = Mutex::new(Vec::new());
        let stats = pool.run(16, arrived, &|r| {
            replies.lock().unwrap().push(r.clone());
        });
        assert_eq!(stats.errors, 0);
        for r in replies.into_inner().unwrap() {
            let wire = r.wire.expect("served");
            sim.send_datagram(PROXY_NODE, r.peer as usize, wire, Tag::Response);
        }
    }
    assert_eq!(client_replies, vec![1; CLIENTS], "one reply per client");
    assert_eq!(pool.proxy.stats().requests, CLIENTS as u32);
}

/// A single hot peer: every datagram comes from one client, and the
/// shared injector spreads them over all workers. Every request is
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
