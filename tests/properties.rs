//! Property-based tests (proptest) over the core data structures and
//! invariants of the workspace: codecs must round-trip, parsers must be
//! total, security layers must preserve payloads and reject tampering.

use doc_repro::coap::msg::{CoapMessage, Code, MsgType};
use doc_repro::coap::opt::{CoapOption, OptionNumber};
use doc_repro::coap::view::CoapView;
use doc_repro::crypto::base64url;
use doc_repro::crypto::cbor::Value;
use doc_repro::crypto::ccm::AesCcm;
use doc_repro::dns::view::MessageView;
use doc_repro::dns::{cbor_fmt, Message, Name, Question, Rcode, Record, RecordType};
use doc_repro::dtls::record::{ContentType, Record as DtlsRecord, RecordView as DtlsRecordView};
use doc_repro::quic::recovery::{CongestionController, Cubic, RttEstimator, MIN_WINDOW};
use doc_repro::quic::{doq, frame::Frame, packet, varint};
use doc_repro::time::{Instant, Millis};
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9][a-z0-9-]{0,20}").expect("valid regex")
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| Name::parse(&labels.join(".")).expect("labels are valid"))
}

proptest! {
    /// DNS messages round-trip through the wire codec.
    #[test]
    fn dns_message_roundtrip(name in arb_name(), id in any::<u16>(), n in 0usize..6) {
        let query = Message::query(id, name.clone(), RecordType::Aaaa);
        let mut answers = Vec::new();
        for i in 0..n {
            answers.push(Record::aaaa(
                name.clone(),
                i as u32 * 7,
                std::net::Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i as u16),
            ));
        }
        let resp = Message::response(&query, Rcode::NoError, answers);
        let wire = resp.encode();
        let back = Message::decode(&wire).unwrap();
        prop_assert_eq!(back, resp);
    }

    /// The DNS decoder never panics on arbitrary input.
    #[test]
    fn dns_decode_total(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = Message::decode(&data);
    }

    /// Guard for the zero-copy compression rewrite: over arbitrary
    /// multi-name messages (names sharing suffixes to various depths,
    /// plus unrelated names), the compressed encoding decodes to
    /// exactly the message the uncompressed encoding decodes to, and is
    /// never larger than the uncompressed wire form.
    #[test]
    fn dns_compression_roundtrip_matches_uncompressed(
        base in arb_name(),
        hosts in proptest::collection::vec(arb_label(), 1..10),
        others in proptest::collection::vec(arb_name(), 0..4),
        ttl in 0u32..100_000,
    ) {
        let query = Message::query(0, base.clone(), RecordType::Aaaa);
        let mut answers = Vec::new();
        for (i, h) in hosts.iter().enumerate() {
            // Rotate through: subdomain of the query name, the query
            // name itself, and a deeper two-label subdomain — all
            // compressible to different depths.
            let name = match i % 3 {
                0 => Name::parse(&format!("{h}.{base}")).expect("valid"),
                1 => base.clone(),
                _ => Name::parse(&format!("{h}.sub.{base}")).expect("valid"),
            };
            if name.wire_len() > 255 { continue; }
            answers.push(Record::aaaa(
                name,
                ttl,
                std::net::Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i as u16),
            ));
        }
        for (i, name) in others.iter().enumerate() {
            answers.push(Record::aaaa(
                name.clone(),
                ttl,
                std::net::Ipv6Addr::new(0x2001, 0xdb8, 0, 1, 0, 0, 0, i as u16),
            ));
        }
        let resp = Message::response(&query, Rcode::NoError, answers);
        let compressed = resp.encode();
        let uncompressed = resp.encode_uncompressed();
        prop_assert!(compressed.len() <= uncompressed.len());
        prop_assert_eq!(uncompressed.len(), resp.uncompressed_len());
        let via_compressed = Message::decode(&compressed).unwrap();
        let via_uncompressed = Message::decode(&uncompressed).unwrap();
        prop_assert_eq!(&via_compressed, &via_uncompressed);
        prop_assert_eq!(&via_compressed, &resp);
    }

    /// Arbitrary records round-trip.
    #[test]
    fn dns_record_roundtrip(name in arb_name(), ttl in any::<u32>(), octets in any::<[u8; 16]>()) {
        let rec = Record::aaaa(name, ttl, std::net::Ipv6Addr::from(octets));
        let mut msg = Vec::new();
        let mut table = doc_repro::dns::CompressionMap::new();
        rec.encode(&mut msg, &mut table);
        let mut pos = 0;
        let back = Record::decode(&msg, &mut pos).unwrap();
        prop_assert_eq!(back, rec);
    }

    /// CoAP messages round-trip with arbitrary token/options/payload.
    #[test]
    fn coap_roundtrip(
        token in proptest::collection::vec(any::<u8>(), 0..=8),
        mid in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        max_age in any::<u32>(),
        etag in proptest::collection::vec(any::<u8>(), 1..=8),
    ) {
        let mut msg = CoapMessage::request(Code::FETCH, MsgType::Con, mid, token);
        msg.options.push(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()));
        msg.options.push(CoapOption::uint(OptionNumber::MAX_AGE, max_age));
        msg.options.push(CoapOption::new(OptionNumber::ETAG, etag));
        msg.payload = payload;
        let back = CoapMessage::decode(&msg.encode()).unwrap();
        prop_assert_eq!(back.message_id, msg.message_id);
        prop_assert_eq!(back.max_age(), msg.max_age());
        prop_assert_eq!(&back.token, &msg.token);
        prop_assert_eq!(&back.payload, &msg.payload);
    }

    /// The CoAP decoder never panics on arbitrary input.
    #[test]
    fn coap_decode_total(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = CoapMessage::decode(&data);
    }

    /// Equivalence guard for the borrowed DNS decode layer: on
    /// arbitrary bytes, `MessageView::parse` and `Message::decode`
    /// either both reject or both accept — and when they accept, every
    /// field of the view materializes to exactly the owned decode.
    /// View iterators must be total on whatever parses.
    #[test]
    fn dns_view_agrees_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..400)) {
        let owned = Message::decode(&data);
        let view = MessageView::parse(&data);
        prop_assert_eq!(owned.is_ok(), view.is_ok());
        if let (Ok(m), Ok(v)) = (owned, view) {
            prop_assert_eq!(v.to_owned(), m);
            for (_, r) in v.records() {
                let _ = (r.name.wire_len(), r.rdata().len());
            }
        }
    }

    /// The same equivalence over *mutated and truncated* valid wire
    /// messages — the adversarial neighborhood of real traffic, where
    /// compression pointers and RDATA lengths go subtly wrong.
    #[test]
    fn dns_view_agrees_on_mutated_wire(
        name in arb_name(),
        n in 0usize..5,
        flips in proptest::collection::vec(any::<(usize, u8)>(), 0..4),
        cut in any::<usize>(),
    ) {
        let query = Message::query(0, name.clone(), RecordType::Aaaa);
        let answers = (0..n)
            .map(|i| Record::aaaa(
                name.clone(),
                300,
                std::net::Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i as u16),
            ))
            .collect();
        let mut wire = Message::response(&query, Rcode::NoError, answers).encode();
        for (pos, bits) in flips {
            let len = wire.len();
            wire[pos % len] ^= bits;
        }
        wire.truncate(cut % (wire.len() + 1));
        let owned = Message::decode(&wire);
        let view = MessageView::parse(&wire);
        prop_assert_eq!(owned.is_ok(), view.is_ok(), "wire {:02X?}", wire);
        if let (Ok(m), Ok(v)) = (owned, view) {
            prop_assert_eq!(v.to_owned(), m);
        }
    }

    /// Equivalence guard for the borrowed CoAP decode layer, on
    /// arbitrary bytes.
    #[test]
    fn coap_view_agrees_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let owned = CoapMessage::decode(&data);
        let view = CoapView::parse(&data);
        prop_assert_eq!(owned.is_ok(), view.is_ok());
        if let (Ok(m), Ok(v)) = (owned, view) {
            prop_assert_eq!(v.to_owned(), m);
            for o in v.options() {
                let _ = (o.number, o.value.len());
            }
        }
    }

    /// ... and over mutated/truncated valid CoAP requests.
    #[test]
    fn coap_view_agrees_on_mutated_wire(
        token in proptest::collection::vec(any::<u8>(), 0..=8),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        etag in proptest::collection::vec(any::<u8>(), 1..=8),
        flips in proptest::collection::vec(any::<(usize, u8)>(), 0..4),
        cut in any::<usize>(),
    ) {
        let mut msg = CoapMessage::request(Code::FETCH, MsgType::Con, 7, token);
        msg.options.push(CoapOption::new(OptionNumber::ETAG, etag));
        msg.options.push(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()));
        msg.options.push(CoapOption::new(OptionNumber::ECHO, vec![0x5A; 300]));
        msg.payload = payload;
        let mut wire = msg.encode();
        for (pos, bits) in flips {
            let len = wire.len();
            wire[pos % len] ^= bits;
        }
        wire.truncate(cut % (wire.len() + 1));
        let owned = CoapMessage::decode(&wire);
        let view = CoapView::parse(&wire);
        prop_assert_eq!(owned.is_ok(), view.is_ok(), "wire {:02X?}", wire);
        if let (Ok(m), Ok(v)) = (owned, view) {
            prop_assert_eq!(v.to_owned(), m);
        }
    }

    /// Equivalence guard for the borrowed DTLS record layer, on
    /// arbitrary bytes: `RecordView::decode` and `Record::decode` must
    /// agree byte-for-byte — same acceptance, same *error*, same
    /// consumed length, same materialized record — and the lazy
    /// datagram iterator must walk exactly like `Record::decode_all`.
    #[test]
    fn dtls_view_agrees_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let owned = DtlsRecord::decode(&data);
        let view = DtlsRecordView::decode(&data);
        match (owned, view) {
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (Ok((rec, used_o)), Ok((v, used_v))) => {
                prop_assert_eq!(used_o, used_v);
                prop_assert_eq!(v.to_owned(), rec);
            }
            (o, v) => prop_assert!(false, "acceptance differs: {:?} vs {:?}", o, v),
        }
        let all = DtlsRecord::decode_all(&data);
        let walked: Result<Vec<_>, _> =
            DtlsRecordView::iter(&data).map(|r| r.map(|v| v.to_owned())).collect();
        prop_assert_eq!(all, walked);
    }

    /// ... and over mutated/truncated valid DTLS flights — the
    /// adversarial neighborhood where record length fields and version
    /// bytes go subtly wrong mid-datagram.
    #[test]
    fn dtls_view_agrees_on_mutated_wire(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..60), 1..4),
        epoch in any::<u16>(),
        seq in 0u64..(1 << 48),
        flips in proptest::collection::vec(any::<(usize, u8)>(), 0..4),
        cut in any::<usize>(),
    ) {
        let mut wire = Vec::new();
        for (i, payload) in payloads.into_iter().enumerate() {
            DtlsRecord {
                ctype: if i % 2 == 0 { ContentType::Handshake } else { ContentType::ApplicationData },
                epoch,
                seq: seq.wrapping_add(i as u64) & ((1 << 48) - 1),
                payload,
            }
            .encode_into(&mut wire);
        }
        for (pos, bits) in flips {
            let len = wire.len();
            wire[pos % len] ^= bits;
        }
        wire.truncate(cut % (wire.len() + 1));
        match (DtlsRecord::decode(&wire), DtlsRecordView::decode(&wire)) {
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "wire {:02X?}", wire),
            (Ok((rec, used_o)), Ok((v, used_v))) => {
                prop_assert_eq!(used_o, used_v);
                prop_assert_eq!(v.to_owned(), rec);
            }
            (o, v) => prop_assert!(false, "acceptance differs on {:02X?}: {:?} vs {:?}", wire, o, v),
        }
        let all = DtlsRecord::decode_all(&wire);
        let walked: Result<Vec<_>, _> =
            DtlsRecordView::iter(&wire).map(|r| r.map(|v| v.to_owned())).collect();
        prop_assert_eq!(all, walked);
    }

    /// The view-derived cache key is byte-identical to the owned one on
    /// arbitrary FETCH requests (same key ⇒ same cache entry).
    #[test]
    fn cache_key_view_matches_owned(
        token in proptest::collection::vec(any::<u8>(), 0..=8),
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        segs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 0..4),
    ) {
        use doc_repro::coap::cache::{cache_key, cache_key_view};
        let mut msg = CoapMessage::request(Code::FETCH, MsgType::Con, 7, token);
        for s in segs {
            msg.options.push(CoapOption::new(OptionNumber::URI_PATH, s));
        }
        msg.payload = payload;
        let wire = msg.encode();
        let view = CoapView::parse(&wire).unwrap();
        prop_assert_eq!(cache_key_view(&view), cache_key(&msg));
    }

    /// base64url round-trips arbitrary bytes (GET query encoding).
    #[test]
    fn base64url_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let enc = base64url::encode(&data);
        prop_assert_eq!(enc.len(), base64url::encoded_len(data.len()));
        prop_assert_eq!(base64url::decode(&enc).unwrap(), data);
    }

    /// CBOR values round-trip (ints, bytes, arrays).
    #[test]
    fn cbor_roundtrip(n in any::<i64>(), bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let v = Value::Array(vec![
            Value::int(n),
            Value::Bytes(bytes),
            Value::Text("x".into()),
            Value::Null,
        ]);
        prop_assert_eq!(Value::decode(&v.encode()).unwrap(), v);
    }

    /// The CBOR decoder never panics on arbitrary input.
    #[test]
    fn cbor_decode_total(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Value::decode(&data);
    }

    /// dns+cbor responses round-trip against their question context.
    #[test]
    fn dns_cbor_roundtrip(name in arb_name(), ttl in 0u32..100_000, n in 1usize..5) {
        let q = Question::new(name.clone(), RecordType::Aaaa);
        let query = Message::query(0, name.clone(), RecordType::Aaaa);
        let answers: Vec<Record> = (0..n)
            .map(|i| Record::aaaa(
                name.clone(),
                ttl,
                std::net::Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i as u16),
            ))
            .collect();
        let resp = Message::response(&query, Rcode::NoError, answers);
        let encoded = cbor_fmt::encode_response(&resp, &q);
        let back = cbor_fmt::decode_response(&encoded, &q).unwrap();
        // Compression: cbor is never larger than wire format for
        // homogeneous AAAA answers.
        prop_assert!(encoded.len() <= resp.encode().len());
        prop_assert_eq!(back.answers, resp.answers);
    }

    /// CCM seal/open round-trips and rejects any single-bit flip.
    #[test]
    fn ccm_roundtrip_and_tamper(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 13]>(),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        plain in proptest::collection::vec(any::<u8>(), 0..128),
        flip in any::<(usize, u8)>(),
    ) {
        let ccm = AesCcm::cose_ccm_16_64_128(&key);
        let sealed = ccm.seal(&nonce, &aad, &plain).unwrap();
        prop_assert_eq!(ccm.open(&nonce, &aad, &sealed).unwrap(), plain);
        let mut bad = sealed.clone();
        let idx = flip.0 % bad.len();
        let bit = 1u8 << (flip.1 % 8);
        bad[idx] ^= bit;
        prop_assert!(ccm.open(&nonce, &aad, &bad).is_err());
    }

    /// 6LoWPAN fragmentation always reassembles to the original
    /// datagram, in order or reversed. (Real datagrams start with the
    /// IPHC dispatch 0b011…, which is what distinguishes unfragmented
    /// payloads from FRAG1/FRAGN dispatches — the generator pins the
    /// first byte accordingly.)
    #[test]
    fn sixlowpan_fragment_roundtrip(
        mut data in proptest::collection::vec(any::<u8>(), 0..1200),
        reverse in any::<bool>(),
    ) {
        if let Some(first) = data.first_mut() {
            *first = 0x7A; // IPHC dispatch
        }
        let mut f = doc_repro::sixlowpan::frag::Fragmenter::new();
        let mut frames = f.fragment(&data, 102).unwrap();
        if reverse {
            frames.reverse();
        }
        let mut r = doc_repro::sixlowpan::frag::Reassembler::new();
        let mut out = None;
        for fr in &frames {
            if let Some(d) = r.push(fr).unwrap() {
                out = Some(d);
            }
        }
        prop_assert_eq!(out.unwrap(), data);
    }

    /// The fragment plan covers any payload exactly, with every frame
    /// within the 127-byte PDU.
    #[test]
    fn fragment_plan_invariants(len in 0usize..1500) {
        let plan = doc_repro::sixlowpan::fragment_plan(len);
        let covered: usize = plan.iter().map(|f| f.payload).sum();
        prop_assert_eq!(covered, len);
        for f in &plan {
            prop_assert!(f.total <= doc_repro::sixlowpan::MAX_FRAME);
            prop_assert_eq!(f.total, f.mac + f.sixlowpan + f.payload);
        }
    }

    /// QUIC-lite varints round-trip for every representable value and
    /// report their own encoded length.
    #[test]
    fn quic_varint_roundtrip(v in 0u64..=(1 << 62) - 1) {
        let mut buf = Vec::new();
        varint::encode_into(v, &mut buf);
        prop_assert_eq!(buf.len(), varint::len(v));
        prop_assert_eq!(varint::decode(&buf).unwrap(), (v, buf.len()));
    }

    /// The varint decoder is total on arbitrary bytes, and whatever it
    /// accepts re-encodes to at most the consumed length (QUIC varints
    /// admit non-canonical longer encodings; the value must survive).
    #[test]
    fn quic_varint_decode_total(data in proptest::collection::vec(any::<u8>(), 0..12)) {
        if let Ok((v, used)) = varint::decode(&data) {
            prop_assert!(used <= data.len());
            prop_assert!(varint::len(v) <= used);
        }
    }

    /// QUIC-lite frames round-trip through the codec, individually and
    /// concatenated into one packet payload.
    #[test]
    fn quic_frame_roundtrip(
        id in (0u64..1 << 20).prop_map(|v| v * 4),
        offset in 0u64..1 << 30,
        fin in any::<bool>(),
        data in proptest::collection::vec(any::<u8>(), 0..200),
        crypto in proptest::collection::vec(any::<u8>(), 0..64),
        largest in 0u64..1 << 40,
        range in 0u64..1 << 10,
    ) {
        let frames = vec![
            Frame::Ack { largest: largest + range, first_range: range },
            Frame::Crypto { offset, data: crypto },
            Frame::Stream { id, offset, fin, data },
            Frame::Ping,
            Frame::Padding,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            let one = f.encode();
            let (back, used) = Frame::decode(&one).unwrap();
            prop_assert_eq!(&back, f);
            prop_assert_eq!(used, one.len());
            wire.extend_from_slice(&one);
        }
        prop_assert_eq!(Frame::decode_all(&wire).unwrap(), frames);
    }

    /// Frame and packet-header decoding is total: arbitrary bytes,
    /// and mutated/truncated valid encodings, never panic.
    #[test]
    fn quic_decode_total_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = Frame::decode_all(&data);
        let _ = packet::Header::decode(&data);
        let _ = doq::decode_doq(&data);
        let _ = doq::decode_doh(&data);
        let mut r = doq::DotReassembler::new();
        let _ = r.push(&data);
    }

    /// ... including the adversarial neighborhood of valid frames.
    #[test]
    fn quic_frame_decode_total_on_mutated_wire(
        data in proptest::collection::vec(any::<u8>(), 0..100),
        offset in 0u64..1 << 20,
        flips in proptest::collection::vec(any::<(usize, u8)>(), 0..4),
        cut in any::<usize>(),
    ) {
        let mut wire = Vec::new();
        Frame::Stream { id: 4, offset, fin: true, data: data.clone() }.encode_into(&mut wire);
        Frame::Crypto { offset, data }.encode_into(&mut wire);
        Frame::Ack { largest: offset + 1, first_range: 1 }.encode_into(&mut wire);
        for (pos, bits) in flips {
            let len = wire.len();
            wire[pos % len] ^= bits;
        }
        wire.truncate(cut % (wire.len() + 1));
        let _ = Frame::decode_all(&wire); // must not panic
    }

    /// DoQ 2-byte length framing: round-trips, rejects every
    /// truncation, and rejects trailing garbage (RFC 9250: exactly one
    /// message per stream).
    #[test]
    fn doq_framing_exactly_one_message(
        dns in proptest::collection::vec(any::<u8>(), 0..300),
        garbage in proptest::collection::vec(any::<u8>(), 1..16),
        cut in any::<usize>(),
    ) {
        let framed = doq::encode_doq(&dns);
        prop_assert_eq!(framed.len(), dns.len() + 2);
        prop_assert_eq!(doq::decode_doq(&framed).unwrap(), dns.as_slice());
        let mut trailing = framed.clone();
        trailing.extend_from_slice(&garbage);
        prop_assert!(doq::decode_doq(&trailing).is_err(), "trailing garbage accepted");
        let cut = cut % framed.len().max(1);
        if cut < framed.len() {
            prop_assert!(doq::decode_doq(&framed[..cut]).is_err(), "truncation accepted");
        }
        // The DoH framing enforces the same exactly-one discipline.
        let doh = doq::encode_doh_request(&dns);
        prop_assert_eq!(doq::decode_doh(&doh).unwrap(), dns.as_slice());
        let mut doh_trailing = doh.clone();
        doh_trailing.extend_from_slice(&garbage);
        prop_assert!(doq::decode_doh(&doh_trailing).is_err());
    }

    /// The DoT splitter reassembles any pipelined message sequence
    /// from any chunking of the byte stream.
    #[test]
    fn dot_splitter_reassembles_any_chunking(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..80), 0..6),
        chunk in 1usize..20,
    ) {
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&doq::encode_dot(m));
        }
        let mut r = doq::DotReassembler::new();
        let mut got = Vec::new();
        for piece in wire.chunks(chunk.max(1)) {
            got.extend(r.push(piece));
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(r.pending(), 0);
    }

    /// The RFC 6298-style estimator never leaves the envelope of its
    /// inputs: SRTT is always within [min observed, max observed], the
    /// windowed min-RTT tracks the true minimum (while inside the
    /// window), and the PTO strictly exceeds SRTT.
    #[test]
    fn rtt_srtt_bounded_by_observed_samples(
        samples in proptest::collection::vec(1u64..2_000, 1..40),
    ) {
        let mut est = RttEstimator::new();
        let mut now = Instant::EPOCH;
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for &s in &samples {
            // Small gaps keep every sample inside the min-RTT window.
            now = now + Millis::from_millis(7);
            est.on_sample(now, Millis::from_millis(s));
            lo = lo.min(s);
            hi = hi.max(s);
            let srtt = est.srtt().expect("sample observed").as_millis();
            prop_assert!(srtt >= lo && srtt <= hi, "srtt {} outside [{}, {}]", srtt, lo, hi);
            prop_assert_eq!(est.min_rtt().expect("sample observed").as_millis(), lo);
            prop_assert!(est.pto().as_millis() > srtt);
        }
    }

    /// Under a constant RTT the smoothed estimate converges
    /// monotonically: the distance |SRTT − RTT| never grows, whatever
    /// history preceded the steady state.
    #[test]
    fn rtt_converges_monotonically_under_constant_samples(
        prefix in proptest::collection::vec(1u64..2_000, 0..10),
        constant in 1u64..2_000,
        n in 1usize..30,
    ) {
        let mut est = RttEstimator::new();
        let mut now = Instant::EPOCH;
        for &s in &prefix {
            now = now + Millis::from_millis(7);
            est.on_sample(now, Millis::from_millis(s));
        }
        let mut dist = u64::MAX;
        for _ in 0..n {
            now = now + Millis::from_millis(7);
            est.on_sample(now, Millis::from_millis(constant));
            let d = est.srtt().expect("sample observed").as_millis().abs_diff(constant);
            prop_assert!(d <= dist, "estimate diverged: |srtt − rtt| grew {} → {}", dist, d);
            dist = d;
        }
    }

    /// CUBIC's window is monotone non-decreasing between loss events
    /// (slow start and congestion avoidance alike, hystart or not) and
    /// every loss applies the β = 0.7 multiplicative decrease, floored
    /// at MIN_WINDOW.
    #[test]
    fn cubic_monotone_growth_and_multiplicative_decrease(
        events in proptest::collection::vec((1usize..1500, 1u64..200, 1u64..100), 1..80),
        loss_every in 5usize..20,
    ) {
        let mut cubic = Cubic::new();
        let mut est = RttEstimator::new();
        let mut now = Instant::EPOCH;
        let mut last_window = cubic.window();
        for (i, &(bytes, rtt_ms, gap)) in events.iter().enumerate() {
            now = now + Millis::from_millis(gap);
            if i % loss_every == loss_every - 1 {
                let before = cubic.window();
                cubic.on_loss(now, bytes);
                let after = cubic.window();
                let expect = ((before as f64 * 0.7).max(MIN_WINDOW as f64)) as usize;
                prop_assert!(after >= MIN_WINDOW);
                prop_assert!(
                    after.abs_diff(expect) <= 1,
                    "loss backoff {} -> {} (expected ≈{})", before, after, expect
                );
                last_window = after;
            } else {
                est.on_sample(now, Millis::from_millis(rtt_ms));
                cubic.on_ack(now, bytes, &est);
                prop_assert!(
                    cubic.window() >= last_window,
                    "window shrank on ACK: {} -> {}", last_window, cubic.window()
                );
                last_window = cubic.window();
            }
        }
    }

    /// OSCORE protects any payload: round-trips, hides the plaintext,
    /// rejects bit flips.
    #[test]
    fn oscore_protect_invariants(payload in proptest::collection::vec(1u8..255, 8..64)) {
        use doc_repro::oscore::context::SecurityContext;
        use doc_repro::oscore::protect::OscoreEndpoint;
        let secret = b"0123456789abcdef";
        let mut client = OscoreEndpoint::new(
            SecurityContext::derive(secret, b"s", &[], &[1]), false);
        let mut server = OscoreEndpoint::new(
            SecurityContext::derive(secret, b"s", &[1], &[]), false);
        let req = CoapMessage::request(Code::FETCH, MsgType::Con, 1, vec![9])
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
            .with_payload(payload.clone());
        let (outer, _) = client.protect_request(&req).unwrap();
        // Confidentiality: the ciphertext must not contain the
        // plaintext as a substring (8+ bytes of entropy-free payload
        // would be visible if unencrypted).
        let ct = outer.encode();
        prop_assert!(!ct.windows(payload.len()).any(|w| w == payload.as_slice()));
        let (inner, _) = server.unprotect_request(&outer).unwrap();
        prop_assert_eq!(inner.payload, payload);
    }

    /// Slab-reset guard for the zero-alloc pool path: a 1-worker
    /// `ProxyPool::run` serves replies out of per-worker slab buffers
    /// reused across batches, while `ProxyPool::serve` allocates fresh
    /// per call. Over arbitrary query sequences (arbitrary repetition,
    /// so cache hits follow misses and short replies follow long ones)
    /// the two paths must be byte-identical per sequence number — any
    /// stale bytes surviving a batch boundary show up as a mismatch.
    #[test]
    fn pool_slab_path_matches_owned_serve(
        picks in proptest::collection::vec(any::<usize>(), 1..60),
    ) {
        use doc_bench::throughput::{build_mix, LoadSpec};
        use doc_repro::doc::policy::CachePolicy;
        use doc_repro::doc::pool::{Datagram, ProxyPool};
        use doc_repro::doc::server::{DocServer, MockUpstream};
        use doc_repro::doc::CoapProxy;
        use std::sync::{Arc, Mutex};

        let spec = LoadSpec { unique_names: 8, ..LoadSpec::default() };
        let make_pool = || {
            let upstream = MockUpstream::new(1, spec.ttl_s, spec.ttl_s);
            let mix = build_mix(&spec, &upstream);
            let pool = ProxyPool::new(
                1,
                Arc::new(CoapProxy::with_shards(64, spec.shards)),
                Arc::new(DocServer::new(CachePolicy::EolTtls, upstream)),
            );
            (pool, mix.wires().to_vec())
        };
        let datagrams = |wires: &[Vec<u8>]| -> Vec<Datagram> {
            picks
                .iter()
                .enumerate()
                .map(|(seq, &p)| Datagram {
                    peer: seq as u64 % 4,
                    seq: seq as u64,
                    at: doc_repro::time::Instant::from_millis(1),
                    wire: wires[p % wires.len()].clone(),
                })
                .collect()
        };

        // Slab path: 1 worker drains the injector in input order, so
        // cache state evolves exactly like the sequential pass below.
        let (pool, wires) = make_pool();
        let via_run = Mutex::new(vec![None; picks.len()]);
        pool.run(16, datagrams(&wires).into_iter(), &|r| {
            via_run.lock().unwrap()[r.seq as usize] = r.wire.clone();
        });

        // Owned path: same mix on an identically-seeded pool, one
        // fresh-allocated reply per call.
        let (pool2, wires2) = make_pool();
        prop_assert_eq!(&wires, &wires2);
        let mut upstream_buf = Vec::new();
        for (seq, d) in datagrams(&wires2).iter().enumerate() {
            let expect = pool2.serve(d, &mut upstream_buf);
            prop_assert_eq!(
                &via_run.lock().unwrap()[seq], &expect,
                "slab reply diverged from owned reply at seq {}", seq
            );
        }
    }

    /// Differential test of the server's wire core against the owned
    /// oracle `prepare_response(policy, &upstream.resolve(&query))`,
    /// with the oracle on a second, identically seeded upstream (so TTL
    /// draws and refreshes line up request by request). Over both
    /// policies: multi-record RRsets registered out of order (answer
    /// sorting), mixed-case qnames, NXDOMAIN, qdcount 0 and 2, GET /
    /// FETCH / POST, a client holding the current ETag (2.03), and
    /// Block2 slicing — the reply's payload, ETag and Max-Age bytes
    /// must be the oracle's.
    #[test]
    fn server_wire_core_matches_owned_oracle(
        zone in proptest::collection::vec(
            (arb_name(), proptest::collection::vec(any::<u16>(), 0..6)),
            1..5,
        ),
        steps in proptest::collection::vec(
            (any::<usize>(), any::<usize>(), 0u8..4, 0u8..3, any::<bool>(), 0u8..3, 0u64..4_000),
            1..16,
        ),
    ) {
        use doc_repro::coap::block::BlockOpt;
        use doc_repro::coap::opt::encode_uint_value;
        use doc_repro::dns::RecordData;
        use doc_repro::doc::method::{build_request, DocMethod};
        use doc_repro::doc::policy::{prepare_response, CachePolicy};
        use doc_repro::doc::server::{DocServer, MockUpstream, ServerScratch};

        let register = |up: &MockUpstream| {
            for (i, (name, addrs)) in zone.iter().enumerate() {
                let (rtype, data): (RecordType, Vec<RecordData>) = if i.is_multiple_of(2) {
                    let data = addrs.iter().map(|&a| {
                        RecordData::Aaaa(std::net::Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, a >> 8, a))
                    });
                    (RecordType::Aaaa, data.collect())
                } else {
                    let data = addrs.iter().map(|&a| {
                        RecordData::A(std::net::Ipv4Addr::new(192, 0, (a >> 8) as u8, a as u8))
                    });
                    (RecordType::A, data.collect())
                };
                up.add_rrset(name.clone(), rtype, data);
            }
        };
        for policy in [CachePolicy::DohLike, CachePolicy::EolTtls] {
            let server_up = MockUpstream::new(7, 2, 8);
            let oracle = MockUpstream::new(7, 2, 8);
            register(&server_up);
            register(&oracle);
            let server = DocServer::new(policy, server_up);
            let (mut scratch, mut out) = (ServerScratch::default(), Vec::new());
            let mut now = 0u64;
            for (k, &(a, b, shape, method, holds_etag, block, dt)) in steps.iter().enumerate() {
                now += dt;
                let entry = |x: usize| {
                    let i = x % zone.len();
                    let rtype = if i.is_multiple_of(2) { RecordType::Aaaa } else { RecordType::A };
                    (zone[i].0.clone(), rtype)
                };
                let (name, rtype) = entry(a);
                let mut query = Message::query(0, name, rtype);
                match shape {
                    // Mixed case: flipped on the wire below.
                    0 => {}
                    1 => {
                        let nx = Name::parse("nx_domain.example").expect("valid");
                        query.questions[0].qname = nx;
                    }
                    2 => query.questions.clear(),
                    _ => {
                        let (second, rtype) = entry(b);
                        query.questions.push(Question::new(second, rtype));
                    }
                }
                let mut dns = query.encode();
                if shape == 0 {
                    let qname_end = dns.len() - 4;
                    for byte in &mut dns[12..qname_end] {
                        if byte.is_ascii_lowercase() && (a + usize::from(*byte)) % 2 == 0 {
                            byte.make_ascii_uppercase();
                        }
                    }
                }
                let expect = prepare_response(
                    policy,
                    &oracle.resolve(&Message::decode(&dns).expect("valid query"), now),
                );
                let method = [DocMethod::Get, DocMethod::Fetch, DocMethod::Post][usize::from(method)];
                let mut req = build_request(method, &dns, MsgType::Con, k as u16, vec![k as u8, 1])
                    .expect("well-formed request");
                if holds_etag {
                    req.set_option(CoapOption::new(OptionNumber::ETAG, expect.etag.clone()));
                }
                let block_size = [None, Some(16), Some(32)][usize::from(block)];
                if let Some(size) = block_size {
                    let opt = BlockOpt::new(0, false, size).expect("valid size");
                    req.set_option(opt.to_option(OptionNumber::BLOCK2));
                }
                server
                    .serve_wire(1, &req.encode(), now, &mut scratch, &mut out)
                    .expect("well-formed datagram");
                let reply = CoapMessage::decode(&out).expect("well-formed reply");
                let option = |n: OptionNumber| reply.option(n).map(|o| o.value.clone());
                prop_assert_eq!(option(OptionNumber::ETAG), Some(expect.etag.clone()), "step {}", k);
                prop_assert_eq!(
                    option(OptionNumber::MAX_AGE),
                    Some(encode_uint_value(expect.max_age)),
                    "step {}", k
                );
                if holds_etag {
                    prop_assert_eq!(reply.code, Code::VALID, "step {}", k);
                    prop_assert!(reply.payload.is_empty());
                    continue;
                }
                prop_assert_eq!(reply.code, Code::CONTENT, "step {}", k);
                let sliced = block_size.filter(|&size| expect.payload.len() > size);
                let body = &expect.payload[..sliced.unwrap_or(expect.payload.len())];
                prop_assert_eq!(&reply.payload, &body.to_vec(), "step {}", k);
                prop_assert_eq!(option(OptionNumber::BLOCK2).is_some(), sliced.is_some());
            }
        }
    }
}
