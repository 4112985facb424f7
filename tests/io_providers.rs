//! End-to-end tests of the I/O provider seam: the same worker-pool
//! code serving the same query mix through the network simulator
//! ([`SimProvider`]) and through a real loopback UDP socket
//! ([`UdpProvider`]) must produce byte-identical replies — the
//! guarantee that lets the paper's simulated experiments stand in for
//! the production front-end.

use doc_bench::throughput::{build_mix, LoadSpec};
use doc_repro::coap::view::CoapView;
use doc_repro::doc::io::{IoProvider, SimProvider, UdpProvider};
use doc_repro::doc::policy::CachePolicy;
use doc_repro::doc::pool::{ProxyPool, ReplySeal, RequestOpen};
use doc_repro::doc::server::{DocServer, MockUpstream};
use doc_repro::doc::CoapProxy;
use doc_repro::dtls::record::{CipherState, ContentType, Record};
use doc_repro::netsim::{LinkKind, NodeId, Sim, Tag};
use doc_repro::quic::packet::{Header, PacketKeys, Space};
use doc_repro::time::{Instant, Millis};
use std::net::UdpSocket;

/// One pool + the replay wires, identically seeded for every provider
/// (same upstream zone, same mix, same cache geometry).
fn pool_and_wires(workers: usize) -> (ProxyPool, Vec<Vec<u8>>) {
    let spec = LoadSpec {
        unique_names: 8,
        ..LoadSpec::default()
    };
    let upstream = MockUpstream::new(1, spec.ttl_s, spec.ttl_s);
    let mix = build_mix(&spec, &upstream);
    let pool = ProxyPool::new(
        workers,
        std::sync::Arc::new(CoapProxy::with_shards(64, spec.shards)),
        std::sync::Arc::new(DocServer::new(CachePolicy::EolTtls, upstream)),
    );
    (pool, mix.wires().to_vec())
}

/// The query sequence both providers serve: arbitrary repetition so
/// cache hits follow misses and short replies follow long ones.
fn query_sequence(wires: &[Vec<u8>], total: usize) -> Vec<Vec<u8>> {
    (0..total)
        .map(|i| wires[(i * 7 + i / 3) % wires.len()].clone())
        .collect()
}

/// Serve `queries` through a 1-worker pool fed by the simulator:
/// one client node sends every query up front, replies come back along
/// the installed route. Returns the reply wires in query order.
fn replies_via_sim(queries: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let (pool, _) = pool_and_wires(1);
    let mut sim = Sim::new(7);
    let proxy_node: NodeId = 0;
    let client: NodeId = 1;
    sim.add_link(proxy_node, client, LinkKind::Wired { latency_us: 100 });
    sim.add_route(&[client, proxy_node]);
    for q in queries {
        sim.send_datagram(client, proxy_node, q.clone(), Tag::Query);
    }
    let mut provider = SimProvider::new(&mut sim, proxy_node, 1_000);
    let stats = pool.run_io(&mut provider, 16, 8, Millis::from_millis(10));
    assert_eq!(stats.processed, queries.len() as u64);
    assert_eq!(stats.errors, 0);
    // Pump the sim dry so the tail of the final reply flush arrives.
    let mut none: [doc_repro::doc::io::RecvSlot; 1] = Default::default();
    assert_eq!(provider.recv_batch(&mut none, Millis::from_millis(1)), 0);
    provider
        .take_delivered()
        .into_iter()
        .map(|(node, bytes)| {
            assert_eq!(node, client, "reply routed back to the client");
            bytes
        })
        .collect()
}

/// Serve `queries` through a 1-worker pool fed by a loopback UDP
/// socket: a serial client sends query N only after receiving reply
/// N−1, so the ordering matches the sim's FIFO delivery. The provider's
/// virtual receive time is pinned inside the same second the sim run
/// uses, which is the granularity Max-Age decay observes.
fn replies_via_udp(queries: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let (pool, _) = pool_and_wires(1);
    let mut provider = UdpProvider::bind("127.0.0.1:0")
        .unwrap()
        .with_virtual_time(Instant::from_millis(1));
    let server_addr = provider.local_addr().unwrap();
    let queries = queries.to_vec();
    let handle = std::thread::spawn(move || {
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(std::time::Duration::from_millis(5_000)))
            .unwrap();
        let mut replies = Vec::new();
        let mut buf = [0u8; 2048];
        for q in &queries {
            client.send_to(q, server_addr).unwrap();
            let (len, _) = client.recv_from(&mut buf).unwrap();
            replies.push(buf[..len].to_vec());
        }
        replies
    });
    let stats = pool.run_io(&mut provider, 16, 8, Millis::from_millis(500));
    let replies = handle.join().unwrap();
    assert_eq!(stats.processed, replies.len() as u64);
    assert_eq!(stats.errors, 0);
    replies
}

/// The tentpole guarantee: the simulated and the socket front-end are
/// interchangeable — same queries through the same worker code yield
/// byte-identical reply wires, per query.
#[test]
fn sim_and_udp_providers_serve_byte_identical_replies() {
    let (_, wires) = pool_and_wires(1);
    let queries = query_sequence(&wires, 48);
    let via_sim = replies_via_sim(&queries);
    let via_udp = replies_via_udp(&queries);
    assert_eq!(via_sim.len(), queries.len());
    assert_eq!(via_udp.len(), queries.len());
    for (i, (s, u)) in via_sim.iter().zip(&via_udp).enumerate() {
        assert_eq!(s, u, "reply {i} differs between sim and UDP front-ends");
    }
}

/// Loopback smoke for CI: a pool built with several workers behind the
/// UDP provider (`run_io` serves on its calling thread whatever the
/// worker count) serves a serial client's full query run — the cheap
/// end-to-end proof that the socket path works on the build machine.
#[test]
fn udp_loopback_smoke_multi_worker() {
    let (pool, wires) = pool_and_wires(4);
    let mut provider = UdpProvider::bind("127.0.0.1:0")
        .unwrap()
        .with_virtual_time(Instant::from_millis(1));
    let server_addr = provider.local_addr().unwrap();
    let queries = query_sequence(&wires, 64);
    let handle = std::thread::spawn(move || {
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(std::time::Duration::from_millis(5_000)))
            .unwrap();
        let mut got = 0usize;
        let mut buf = [0u8; 2048];
        for q in &queries {
            client.send_to(q, server_addr).unwrap();
            if client.recv_from(&mut buf).is_ok() {
                got += 1;
            }
        }
        got
    });
    let stats = pool.run_io(&mut provider, 32, 8, Millis::from_millis(500));
    let got = handle.join().unwrap();
    assert_eq!(got, 64, "every loopback query answered");
    assert_eq!(stats.processed, 64);
    assert_eq!(stats.replies, 64);
    assert_eq!(stats.errors, 0);
}

/// A serial loopback client: sends each query and waits for its reply.
/// Returns the replies received, in query order.
fn serial_client(server: std::net::SocketAddr, queries: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    let client = UdpSocket::bind("127.0.0.1:0").unwrap();
    client
        .set_read_timeout(Some(std::time::Duration::from_millis(5_000)))
        .unwrap();
    let mut replies = Vec::new();
    let mut buf = [0u8; 2048];
    for q in &queries {
        client.send_to(q, server).unwrap();
        let (len, _) = client.recv_from(&mut buf).unwrap();
        replies.push(buf[..len].to_vec());
    }
    replies
}

/// A datagram longer than the provider's receive buffer is not served
/// from its truncated prefix: it reaches the pool with an empty wire
/// and is counted as malformed, and the next datagram is answered.
#[test]
fn udp_oversize_datagram_is_an_error_not_a_truncated_request() {
    let (pool, wires) = pool_and_wires(1);
    let mut provider = UdpProvider::bind("127.0.0.1:0")
        .unwrap()
        .with_virtual_time(Instant::from_millis(1));
    let server = provider.local_addr().unwrap();
    // A valid request padded past the buffer: a truncating receive
    // would still parse its prefix.
    let mut oversize = wires[0].clone();
    oversize.resize(3_000, 0);
    let normal = wires[1].clone();
    let expected_mid = CoapView::parse(&normal).unwrap().message_id;
    let handle = std::thread::spawn(move || {
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(std::time::Duration::from_millis(5_000)))
            .unwrap();
        client.send_to(&oversize, server).unwrap();
        client.send_to(&normal, server).unwrap();
        let mut buf = [0u8; 2048];
        let (len, _) = client.recv_from(&mut buf).unwrap();
        buf[..len].to_vec()
    });
    let stats = pool.run_io(&mut provider, 16, 8, Millis::from_millis(500));
    let reply = handle.join().unwrap();
    assert_eq!(stats.processed, 2);
    assert_eq!(stats.errors, 1, "the oversize datagram is malformed");
    assert_eq!(stats.replies, 1);
    let v = CoapView::parse(&reply).unwrap();
    assert_eq!(v.message_id, expected_mid, "the normal query is answered");
}

/// More cores means more providers: two threads each pump their own
/// UDP provider through `run_io` on one shared pool, with no queue
/// between them. Every query is answered and the pool's counts add up.
#[test]
fn two_providers_share_one_pool() {
    let (pool, wires) = pool_and_wires(1);
    let per_client = 40;
    let queries = query_sequence(&wires, per_client);
    let (served, answered) = std::thread::scope(|s| {
        let pumps: Vec<_> = (0..2)
            .map(|_| {
                let mut provider = UdpProvider::bind("127.0.0.1:0")
                    .unwrap()
                    .with_virtual_time(Instant::from_millis(1));
                let server = provider.local_addr().unwrap();
                let client = s.spawn({
                    let queries = queries.clone();
                    move || serial_client(server, queries)
                });
                let pool = &pool;
                let pump =
                    s.spawn(move || pool.run_io(&mut provider, 16, 8, Millis::from_millis(500)));
                (pump, client)
            })
            .collect();
        let mut served = Vec::new();
        let mut answered = Vec::new();
        for (pump, client) in pumps {
            served.push(pump.join().unwrap());
            answered.push(client.join().unwrap());
        }
        (served, answered)
    });
    let total = 2 * per_client as u64;
    for replies in &answered {
        assert_eq!(replies.len(), per_client, "every query answered");
        for (q, r) in queries.iter().zip(replies) {
            let (q, r) = (CoapView::parse(q).unwrap(), CoapView::parse(r).unwrap());
            assert_eq!(q.message_id, r.message_id);
        }
    }
    assert_eq!(served[0].processed + served[1].processed, total);
    assert_eq!(served.iter().map(|s| s.errors).sum::<u64>(), 0);
    assert_eq!(pool.proxy.stats().requests, total as u32);
}

/// Both protected legs through `run_io`: QUIC-lite protected requests
/// are opened and DTLS-sealed replies go back through the simulator.
/// Every reply opens under the reply key to exactly the plaintext
/// reply a plain pool gives, record sequence numbers are unique, and a
/// forged request is counted as an error.
#[test]
fn sim_provider_serves_protected_legs() {
    const FORGED: usize = 5;
    let secret = b"psk-material-client-random-bits";
    let (key, iv, epoch) = ([0x4Du8; 16], [1, 2, 3, 4], 1);
    let request_keys = || PacketKeys::derive(secret, "client write");
    let (pool, wires) = pool_and_wires(1);
    let pool = pool
        .with_request_open(RequestOpen::new(request_keys()))
        .with_reply_seal(ReplySeal::new(&key, iv, epoch));
    let queries = query_sequence(&wires, 24);
    let keys = request_keys();
    let protected: Vec<Vec<u8>> = queries
        .iter()
        .enumerate()
        .map(|(pn, q)| {
            let mut wire = Vec::new();
            Header::encode_into(Space::OneRtt, [7, 7], pn as u64, &mut wire);
            let header = wire.clone();
            keys.seal_into(pn as u64, &header, q, &mut wire).unwrap();
            if pn == FORGED {
                *wire.last_mut().unwrap() ^= 0xFF; // break the AEAD tag
            }
            wire
        })
        .collect();

    let mut sim = Sim::new(7);
    let (proxy_node, client): (NodeId, NodeId) = (0, 1);
    sim.add_link(proxy_node, client, LinkKind::Wired { latency_us: 100 });
    sim.add_route(&[client, proxy_node]);
    for p in &protected {
        sim.send_datagram(client, proxy_node, p.clone(), Tag::Query);
    }
    let mut provider = SimProvider::new(&mut sim, proxy_node, 1_000);
    let stats = pool.run_io(&mut provider, 16, 8, Millis::from_millis(10));
    assert_eq!(stats.processed, queries.len() as u64);
    assert_eq!(stats.errors, 1, "the forged request is dropped");
    let delivered = provider.take_delivered();

    // The forged request never reached the proxy, so the plain
    // reference serves the same sequence without it.
    let mut authentic = queries.clone();
    authentic.remove(FORGED);
    let expected = replies_via_sim(&authentic);
    assert_eq!(delivered.len(), expected.len());
    let cipher = CipherState::new(&key, iv);
    let mut record_seqs = Vec::new();
    for (i, ((node, wire), plain)) in delivered.iter().zip(&expected).enumerate() {
        assert_eq!(*node, client);
        let (rec, used) = Record::decode(wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(
            (rec.ctype, rec.epoch),
            (ContentType::ApplicationData, epoch)
        );
        let opened = cipher
            .open(rec.ctype, rec.epoch, rec.seq, &rec.payload)
            .unwrap();
        assert_eq!(&opened, plain, "reply {i} opens to the plain reply");
        record_seqs.push(rec.seq);
    }
    record_seqs.sort_unstable();
    record_seqs.dedup();
    assert_eq!(record_seqs.len(), expected.len(), "record seqs unique");
}
