//! Conformance of the *simulated* DoQ transport (`doc-quic` +
//! `TransportKind::Quic`) against the paper's *analytical* DNS-over-
//! QUIC model (`doc-models::quic`, §5.5 / Fig. 9): the handshake must
//! cost the 1 RTT the model assumes, and the bytes a DoQ packet puts
//! on the wire must fall inside the model's swept 1-RTT overhead
//! envelope — so Fig. 9's curves and the simulation describe the same
//! transport.

use doc_repro::doc::method::DocMethod;
use doc_repro::doc::transport::{dissect, PacketItem, TransportKind, QUIC_PSK};
use doc_repro::models::quic::{
    doq_bytes_on_air, doq_frames, quic_penalty, QuicHandshake, QUIC_MIN_OVERHEAD,
};
use doc_repro::netsim::{LinkKind, Sim, SimEvent, Tag};
use doc_repro::quic::{conn, doq, Connection, ControllerKind, QuicEvent};
use doc_repro::time::Instant;

const ITEMS: [PacketItem; 3] = [
    PacketItem::Query,
    PacketItem::ResponseA,
    PacketItem::ResponseAaaa,
];

/// The simulated DoQ packet overhead (everything that is not the DNS
/// message) sits inside the model's 1-RTT header envelope, for the
/// query and both response shapes.
#[test]
fn doq_overhead_within_analytical_1rtt_envelope() {
    let (lo, hi) = QuicHandshake::OneRtt.header_range();
    assert_eq!(lo, QUIC_MIN_OVERHEAD);
    for item in ITEMS {
        let d = dissect(TransportKind::Quic, DocMethod::Fetch, item);
        let overhead = d.udp_payload() - d.dns;
        assert!(
            (lo..=hi).contains(&overhead),
            "{}: overhead {overhead} outside the {lo}–{hi} envelope",
            d.label
        );
    }
}

/// Feeding the *measured* overhead back into the analytical
/// bytes-on-air / fragment-count formulas reproduces the simulated
/// packet exactly — the model and the simulation agree byte for byte.
#[test]
fn analytical_formulas_reproduce_simulated_packets() {
    for item in ITEMS {
        let d = dissect(TransportKind::Quic, DocMethod::Fetch, item);
        let overhead = d.udp_payload() - d.dns;
        assert_eq!(
            doq_bytes_on_air(d.dns, overhead),
            d.total,
            "{}: bytes on air",
            d.label
        );
        assert_eq!(doq_frames(d.dns, overhead), d.frames, "{}: frames", d.label);
    }
}

/// Fig. 9 cross-check: the simulated DoQ-vs-DTLS penalty lands inside
/// the band the analytical sweep spans for 1-RTT headers.
#[test]
fn simulated_penalty_inside_fig9_band() {
    let (lo, hi) = QuicHandshake::OneRtt.header_range();
    for item in ITEMS {
        let doq = dissect(TransportKind::Quic, DocMethod::Fetch, item);
        let base = dissect(TransportKind::Dtls, DocMethod::Fetch, item);
        let actual = doq.total as f64 / base.total as f64 * 100.0;
        let band_lo = quic_penalty(TransportKind::Dtls, item, lo);
        let band_hi = quic_penalty(TransportKind::Dtls, item, hi);
        assert!(
            (band_lo..=band_hi).contains(&actual),
            "{:?}: simulated penalty {actual:.1}% outside the analytical band {band_lo:.1}–{band_hi:.1}%",
            item
        );
    }
}

/// Drive the QUIC-lite handshake *in band* through the simulated
/// multi-hop network: the client must be established after exactly one
/// flight in each direction (the model's 1-RTT assumption), and the
/// first query then resolves in roughly one more round trip — so a
/// cold DoQ resolution costs ~2 RTT, not the 8 flights of DTLS.
#[test]
fn in_band_handshake_is_one_rtt_and_query_follows() {
    // client(0) -- proxy(1) -- border router(2) -- resolver(3), no loss.
    let mut sim = Sim::new(0xD0C);
    for (a, b) in [(0, 1), (1, 2)] {
        sim.add_link(
            a,
            b,
            LinkKind::Wireless {
                channel: 0,
                loss_permille: 0,
            },
        );
    }
    sim.add_link(2, 3, LinkKind::Wired { latency_us: 1000 });
    sim.add_route(&[0, 1, 2, 3]);

    let mut client = Connection::client(1, QUIC_PSK);
    let mut server = Connection::server(2, QUIC_PSK);
    let mut client_flights = 0u32;
    let mut server_flights = 0u32;
    for d in client.connect(Instant::EPOCH) {
        client_flights += 1;
        sim.send_datagram(0, 3, d, Tag::Other);
    }
    let mut established_at = None;
    let mut resolved_at = None;
    let dns_query = b"\x00\x2A-stand-in-dns-query-bytes-padded-to-42".to_vec();
    while let Some((now, ev)) = sim.next_event() {
        let SimEvent::Datagram { to, bytes, .. } = ev else {
            continue;
        };
        if to == 3 {
            for ev in server.handle_datagram(now, &bytes) {
                match ev {
                    QuicEvent::Transmit(d) => {
                        server_flights += 1;
                        sim.send_datagram(3, 0, d, Tag::Other);
                    }
                    QuicEvent::Stream { id, data, fin } => {
                        assert!(fin, "DoQ query stream must FIN");
                        let echoed = doq::decode_doq(&data).expect("framed query").to_vec();
                        for d in server
                            .send_stream(id, &doq::encode_doq(&echoed), true, now)
                            .expect("established")
                        {
                            sim.send_datagram(3, 0, d, Tag::Response);
                        }
                    }
                    QuicEvent::Established => {}
                }
            }
        } else if to == 0 {
            for ev in client.handle_datagram(now, &bytes) {
                match ev {
                    QuicEvent::Transmit(d) => sim.send_datagram(0, 3, d, Tag::Other),
                    QuicEvent::Established => {
                        established_at = Some(now);
                        // Data can flow immediately: open the query
                        // stream in the same instant.
                        let sid = client.open_stream();
                        for d in client
                            .send_stream(sid, &doq::encode_doq(&dns_query), true, now)
                            .expect("established")
                        {
                            sim.send_datagram(0, 3, d, Tag::Query);
                        }
                    }
                    QuicEvent::Stream { data, fin, .. } => {
                        assert!(fin);
                        assert_eq!(doq::decode_doq(&data).expect("framed"), dns_query);
                        resolved_at = Some(now);
                    }
                }
            }
        }
        if resolved_at.is_some() {
            break;
        }
    }
    let established_at = established_at.expect("handshake completed");
    let resolved_at = resolved_at.expect("query resolved");
    assert_eq!(client_flights, 1, "client handshake is one datagram");
    assert_eq!(server_flights, 1, "server handshake is one datagram");
    assert!(established_at > Instant::EPOCH);
    // The query round trip costs about one more RTT: allow generous
    // slack for CSMA backoff and the slightly larger protected packet,
    // but rule out any extra handshake round trip.
    let handshake_rtt = established_at - Instant::EPOCH;
    let query_rtt = resolved_at - established_at;
    assert!(
        query_rtt <= handshake_rtt.saturating_mul(2),
        "query RTT {query_rtt} vs handshake RTT {handshake_rtt}"
    );
}

/// `FixedRto` is the conformance oracle: with the pluggable-recovery
/// redesign in place, its wire behaviour must stay byte-exact — the
/// retransmission schedule is the analytical 300 ms initial RTO with
/// binary exponential backoff, the retransmitted datagrams carry fresh
/// packet numbers but identical frames, and every packet stays inside
/// the model's 1-RTT overhead envelope.
#[test]
fn fixed_rto_schedule_and_bytes_are_pinned() {
    let at = |ms: u64| Instant::from_millis(ms);
    // `establish_pair` defaults to `FixedRto`; the 300 ms doubling
    // schedule asserted below is that controller's and no other's.
    let (mut client, _server) = doc_repro::quic::establish_pair(7, QUIC_PSK);
    let sid = client.open_stream();
    let dns_msg = b"\x00\x08pinned-q";
    let payload = doq::encode_doq(dns_msg);
    let first = client
        .send_stream(sid, &payload, true, at(0))
        .expect("established");
    assert_eq!(first.len(), 1, "one-MTU query is a single datagram");

    // No ack ever arrives: the timer fires at exactly 300 ms, then
    // 300 ms + 600 ms, then + 1200 ms, ... (RFC 6298-style doubling
    // with the analytical model's fixed base).
    let mut expected_deadline = at(0) + conn::INITIAL_RTO;
    let mut rto = conn::INITIAL_RTO;
    let mut wire_sizes = Vec::new();
    for _ in 0..conn::MAX_RETRIES {
        assert_eq!(client.next_timeout(), Some(expected_deadline));
        // Polling *before* the deadline transmits nothing.
        let early = client.poll(expected_deadline - doc_repro::time::Millis::from_millis(1));
        assert!(early.datagrams.is_empty());
        let fired = client.poll(expected_deadline);
        assert_eq!(fired.datagrams.len(), 1, "one retransmission per expiry");
        wire_sizes.push(fired.datagrams[0].len());
        rto = rto.saturating_mul(2);
        expected_deadline = expected_deadline + rto;
        assert_eq!(fired.next_timeout, Some(expected_deadline));
    }
    // Identical frames re-packetized under a fresh packet number keep
    // an identical wire size — the retransmit bytes are deterministic.
    assert!(wire_sizes.windows(2).all(|w| w[0] == w[1]));

    // After MAX_RETRIES expiries the packet is abandoned and the timer
    // goes quiet.
    let last = client.poll(expected_deadline);
    assert!(last.datagrams.is_empty());
    assert_eq!(last.next_timeout, None);
    assert_eq!(client.abandoned(), 1);

    // The pinned wire size sits inside the analytical 1-RTT overhead
    // envelope (everything that is not the raw DNS message: header,
    // protection, and DoQ length prefix).
    let (lo, hi) = QuicHandshake::OneRtt.header_range();
    let overhead = wire_sizes[0] - dns_msg.len();
    assert!(
        (lo..=hi).contains(&overhead),
        "retransmit overhead {overhead} outside {lo}–{hi}"
    );
}

/// The adaptive controllers share the oracle's handshake: swapping the
/// congestion controller must not change the handshake wire bytes at
/// all (the redesign only alters post-handshake recovery).
#[test]
fn controllers_share_byte_exact_handshake() {
    let fixed = Connection::client(9, QUIC_PSK).connect(Instant::EPOCH);
    for kind in [ControllerKind::Cubic, ControllerKind::BbrLite] {
        let adaptive = Connection::client_with(9, QUIC_PSK, kind).connect(Instant::EPOCH);
        assert_eq!(fixed, adaptive, "{kind:?} handshake diverges from oracle");
    }
}

/// The 0-RTT half of the model stays analytical (QUIC-lite does not
/// implement session resumption): its envelope must remain *above* the
/// simulated 1-RTT packets, as Fig. 9 draws it.
#[test]
fn zero_rtt_model_upper_bounds_simulation() {
    let (_, hi0) = QuicHandshake::ZeroRtt.header_range();
    for item in ITEMS {
        let d = dissect(TransportKind::Quic, DocMethod::Fetch, item);
        assert!(
            d.total <= doq_bytes_on_air(d.dns, hi0),
            "{}: simulated packet exceeds the max-0-RTT model",
            d.label
        );
    }
}
