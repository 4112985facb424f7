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

        // Slab path: 1 worker pulls the source in input order, so
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

/// The proxy cache as it was before entries kept the reply wire in a
/// ring of slots: each entry an owned `CoapMessage` in a `HashMap`,
/// evicted in insertion order through a `VecDeque` of keys, every hit
/// re-encoded by a walk over its options, every refresh an edit of the
/// option list. The oracle the ring of wire entries is checked against.
mod message_cache {
    use doc_repro::coap::cache::{encode_valid_into, CacheKey, CacheStats, Probe, ReplyTo};
    use doc_repro::coap::msg::{
        encode_header_into, encode_payload_into, encode_raw_option_into, encode_uint_option_into,
        CoapMessage, MsgType,
    };
    use doc_repro::coap::opt::{CoapOption, OptionNumber};
    use doc_repro::coap::view::CoapView;
    use std::collections::{HashMap, VecDeque};

    struct Entry {
        response: CoapMessage,
        stored_at_ms: u64,
        max_age_ms: u64,
    }

    impl Entry {
        fn age_ms(&self, now: u64) -> u64 {
            now.saturating_sub(self.stored_at_ms)
        }
        fn is_fresh(&self, now: u64) -> bool {
            self.age_ms(now) < self.max_age_ms
        }
        fn remaining_s(&self, now: u64) -> u32 {
            ((self.max_age_ms.saturating_sub(self.age_ms(now))) / 1000) as u32
        }
    }

    /// A FIFO cache of at most `capacity` entries.
    pub struct MessageCache {
        entries: HashMap<CacheKey, Entry>,
        order: VecDeque<CacheKey>,
        capacity: usize,
        stats: CacheStats,
    }

    impl MessageCache {
        pub fn new(capacity: usize) -> Self {
            MessageCache {
                entries: HashMap::new(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
                stats: CacheStats::default(),
            }
        }

        pub fn stats(&self) -> CacheStats {
            self.stats
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        pub fn lookup_into(
            &mut self,
            key: &CacheKey,
            now: u64,
            to: ReplyTo<'_>,
            out: &mut Vec<u8>,
            stale_etag: &mut Vec<u8>,
        ) -> Probe {
            let Some(e) = self.entries.get(key) else {
                self.stats.misses += 1;
                return Probe::Miss;
            };
            if e.is_fresh(now) {
                self.stats.hits += 1;
                out.clear();
                encode_entry_reply_into(&e.response, e.remaining_s(now), to, out);
                return Probe::Hit;
            }
            self.stats.stale += 1;
            match e.response.option(OptionNumber::ETAG) {
                Some(etag) => {
                    stale_etag.clear();
                    stale_etag.extend_from_slice(&etag.value);
                    Probe::Stale
                }
                None => Probe::StaleNoEtag,
            }
        }

        /// What the proxy stored from an origin reply's view. A new key
        /// in a full cache evicts the oldest key; a stored key keeps its
        /// place in the order.
        pub fn insert_view(&mut self, key: &CacheKey, resp: &CoapView<'_>, now: u64) {
            let response = CoapMessage {
                mtype: resp.mtype,
                code: resp.code,
                message_id: resp.message_id,
                token: Vec::new(),
                options: resp.options().map(|o| o.to_owned()).collect(),
                payload: resp.payload().to_vec(),
            };
            let max_age_ms = response.max_age() as u64 * 1000;
            if !self.entries.contains_key(key) {
                if self.entries.len() >= self.capacity {
                    if let Some(victim) = self.order.pop_front() {
                        self.entries.remove(&victim);
                        self.stats.evictions += 1;
                    }
                }
                self.order.push_back(key.clone());
            }
            self.entries.insert(
                key.clone(),
                Entry {
                    response,
                    stored_at_ms: now,
                    max_age_ms,
                },
            );
        }

        pub fn revalidate_wire(
            &mut self,
            key: &CacheKey,
            valid: &CoapView<'_>,
            now: u64,
            to: ReplyTo<'_>,
            out: &mut Vec<u8>,
        ) -> bool {
            out.clear();
            let options = valid.options().map(|o| (o.number, o.value));
            let Some(e) = self.refresh(key, options, valid.max_age(), now) else {
                return false;
            };
            encode_entry_reply_into(&e.response, e.remaining_s(now), to, out);
            true
        }

        fn refresh<'v>(
            &mut self,
            key: &CacheKey,
            options: impl Iterator<Item = (OptionNumber, &'v [u8])> + Clone,
            max_age: u32,
            now: u64,
        ) -> Option<&Entry> {
            let e = self.entries.get_mut(key)?;
            e.stored_at_ms = now;
            e.max_age_ms = max_age as u64 * 1000;
            for (number, _) in options.clone() {
                e.response.remove_option(number);
            }
            for (number, value) in options.filter(|(n, _)| *n != OptionNumber::MAX_AGE) {
                e.response
                    .options
                    .push(CoapOption::new(number, value.to_vec()));
            }
            e.response
                .set_option(CoapOption::uint(OptionNumber::MAX_AGE, max_age));
            self.stats.revalidations += 1;
            Some(e)
        }
    }

    /// The stored message re-keyed to `to` with its Max-Age instances
    /// replaced, streamed in stable (number, index) order by repeated
    /// minimum scans; or a `2.03 Valid` when `to` holds the ETag.
    fn encode_entry_reply_into(
        resp: &CoapMessage,
        remaining_s: u32,
        to: ReplyTo<'_>,
        out: &mut Vec<u8>,
    ) {
        let entry_etag = resp.option(OptionNumber::ETAG).map(|o| o.value.as_slice());
        if let Some(etag) = entry_etag.filter(|e| to.holds(e)) {
            encode_valid_into(to, etag, remaining_s, out);
            return;
        }
        encode_header_into(MsgType::Ack, resp.code, to.message_id, to.token, out);
        let mut prev = 0u16;
        let mut max_age_emitted = false;
        let mut last: Option<(u16, usize)> = None;
        loop {
            let mut next: Option<(u16, usize)> = None;
            for (i, o) in resp.options.iter().enumerate() {
                if o.number == OptionNumber::MAX_AGE {
                    continue;
                }
                let cand = (o.number.0, i);
                if Some(cand) > last && (next.is_none() || Some(cand) < next) {
                    next = Some(cand);
                }
            }
            let Some((num, idx)) = next else {
                break;
            };
            if !max_age_emitted && num > OptionNumber::MAX_AGE.0 {
                prev = encode_uint_option_into(prev, OptionNumber::MAX_AGE.0, remaining_s, out);
                max_age_emitted = true;
            }
            prev = encode_raw_option_into(prev, num, &resp.options[idx].value, out);
            last = Some((num, idx));
        }
        if !max_age_emitted {
            encode_uint_option_into(prev, OptionNumber::MAX_AGE.0, remaining_s, out);
        }
        encode_payload_into(&resp.payload, out);
    }

    /// The cache operations a differential script drives, implemented
    /// by the wire cache and by this oracle alike.
    pub trait CacheOps {
        fn stats(&self) -> CacheStats;
        fn len(&self) -> usize;
        fn insert_view(&mut self, key: &CacheKey, response: &CoapView<'_>, now: u64);
        fn lookup_into(
            &mut self,
            key: &CacheKey,
            now: u64,
            to: ReplyTo<'_>,
            out: &mut Vec<u8>,
            stale_etag: &mut Vec<u8>,
        ) -> Probe;
        fn revalidate_wire(
            &mut self,
            key: &CacheKey,
            valid: &CoapView<'_>,
            now: u64,
            to: ReplyTo<'_>,
            out: &mut Vec<u8>,
        ) -> bool;
    }

    macro_rules! cache_ops {
        ($ty:ty, $insert_view:ident) => {
            impl CacheOps for $ty {
                fn stats(&self) -> CacheStats {
                    <$ty>::stats(self)
                }
                fn len(&self) -> usize {
                    <$ty>::len(self)
                }
                fn insert_view(&mut self, key: &CacheKey, response: &CoapView<'_>, now: u64) {
                    <$ty>::$insert_view(self, key, response, now)
                }
                fn lookup_into(
                    &mut self,
                    key: &CacheKey,
                    now: u64,
                    to: ReplyTo<'_>,
                    out: &mut Vec<u8>,
                    stale_etag: &mut Vec<u8>,
                ) -> Probe {
                    <$ty>::lookup_into(self, key, now, to, out, stale_etag)
                }
                fn revalidate_wire(
                    &mut self,
                    key: &CacheKey,
                    valid: &CoapView<'_>,
                    now: u64,
                    to: ReplyTo<'_>,
                    out: &mut Vec<u8>,
                ) -> bool {
                    <$ty>::revalidate_wire(self, key, valid, now, to, out)
                }
            }
        };
    }

    cache_ops!(MessageCache, insert_view);
    cache_ops!(doc_repro::coap::cache::ResponseCache, insert_wire);
}

/// Option numbers an origin reply draws from: below Max-Age (ETag
/// among them, so a reply may carry a second one), above it by a
/// one-byte extended delta (Size1 at 60), and by a two-byte one.
const REPLY_OPTIONS: [OptionNumber; 8] = [
    OptionNumber::IF_MATCH,
    OptionNumber::ETAG,
    OptionNumber::URI_PATH,
    OptionNumber::CONTENT_FORMAT,
    OptionNumber::URI_QUERY,
    OptionNumber::PROXY_URI,
    OptionNumber::SIZE1,
    OptionNumber(300),
];

/// One differential case: the origin reply, the `2.03 Valid` that
/// refreshes it, the client and the clock.
#[derive(Debug, Clone)]
struct CacheCase {
    /// `(REPLY_OPTIONS index, value)`, in the order the message holds
    /// them (not necessarily ascending).
    options: Vec<(usize, Vec<u8>)>,
    /// Max-Age instances and the option index each goes in front of.
    max_ages: Vec<(u32, usize)>,
    etag: Option<Vec<u8>>,
    payload: Vec<u8>,
    /// The 2.03's ETag: 0 none, 1 the stored one, 2 a rotated one.
    valid_etag: u8,
    valid_max_age: Option<u32>,
    /// Another option the 2.03 carries (replacing the stored ones).
    valid_extra: Option<(usize, Vec<u8>)>,
    /// The client's ETag: 0 none, 1 the stored one, 2 the 2.03's, 3
    /// an unrelated one.
    client_etag: u8,
    t1: u64,
    dt: u64,
}

impl CacheCase {
    fn origin(&self) -> CoapMessage {
        let mut options: Vec<CoapOption> = self
            .options
            .iter()
            .map(|(i, v)| CoapOption::new(REPLY_OPTIONS[*i], v.clone()))
            .collect();
        for &(age, at) in &self.max_ages {
            let at = at.min(options.len());
            options.insert(at, CoapOption::uint(OptionNumber::MAX_AGE, age));
        }
        // In front, so this is the entry's first ETag even when the
        // options repeat it.
        if let Some(etag) = &self.etag {
            options.insert(0, CoapOption::new(OptionNumber::ETAG, etag.clone()));
        }
        CoapMessage {
            mtype: MsgType::Ack,
            code: Code::CONTENT,
            message_id: 0x0102,
            token: vec![0xA0, 0xA1],
            options,
            payload: self.payload.clone(),
        }
    }

    fn rotated(&self) -> Vec<u8> {
        let mut tag = self.etag.clone().unwrap_or_default();
        tag.push(0x5A);
        tag
    }

    fn valid(&self) -> CoapMessage {
        let mut v = CoapMessage::ack_reply(0x0203, vec![0xB0], Code::VALID);
        if let Some((i, value)) = &self.valid_extra {
            v.options
                .push(CoapOption::new(REPLY_OPTIONS[*i], value.clone()));
        }
        match (self.valid_etag, &self.etag) {
            (1, Some(etag)) => v
                .options
                .push(CoapOption::new(OptionNumber::ETAG, etag.clone())),
            (2, _) => v
                .options
                .push(CoapOption::new(OptionNumber::ETAG, self.rotated())),
            _ => {}
        }
        if let Some(age) = self.valid_max_age {
            v.options.push(CoapOption::uint(OptionNumber::MAX_AGE, age));
        }
        v
    }

    fn client_etag(&self) -> Option<Vec<u8>> {
        match self.client_etag {
            1 => self.etag.clone(),
            2 => Some(self.rotated()),
            3 => Some(vec![0xEE; 9]),
            _ => None,
        }
    }
}

fn arb_cache_case() -> impl Strategy<Value = CacheCase> {
    let option = || {
        (
            0..REPLY_OPTIONS.len(),
            proptest::collection::vec(any::<u8>(), 0..20),
        )
    };
    (
        proptest::collection::vec(option(), 0..6),
        proptest::collection::vec((0u32..100_000, 0usize..6), 0..=2),
        (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..=8)),
        proptest::collection::vec(any::<u8>(), 0..40),
        (
            0u8..3,
            (any::<bool>(), 0u32..120),
            (any::<bool>(), option()),
        ),
        0u8..4,
        0u64..130_000,
        0u64..130_000,
    )
        .prop_map(
            |(
                options,
                max_ages,
                (has_etag, etag),
                payload,
                (valid_etag, (has_age, age), (has_extra, extra)),
                client_etag,
                t1,
                dt,
            )| CacheCase {
                options,
                max_ages,
                etag: has_etag.then_some(etag),
                payload,
                valid_etag,
                valid_max_age: has_age.then_some(age),
                valid_extra: has_extra.then_some(extra),
                client_etag,
                t1,
                dt,
            },
        )
}

/// Drive one case through a cache, returning every reply it writes
/// and its statistics: the origin's reply is stored from its view and
/// served through `lookup_into`/`revalidate_wire`.
fn drive_cache_case(
    cache: &mut impl message_cache::CacheOps,
    case: &CacheCase,
) -> (Vec<Vec<u8>>, doc_repro::coap::cache::CacheStats) {
    use doc_repro::coap::cache::{cache_key, Probe, ReplyTo};
    let key = cache_key(
        &CoapMessage::request(Code::FETCH, MsgType::Con, 1, vec![1])
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
            .with_payload(b"query".to_vec()),
    );
    let client_etag = case.client_etag();
    let to = ReplyTo {
        message_id: 0x7788,
        token: &[7, 8],
        etag: client_etag.as_deref(),
    };
    let (origin_wire, valid_wire) = (case.origin().encode(), case.valid().encode());
    let mut trace = Vec::new();
    let mut probe = |cache: &mut dyn FnMut(&mut Vec<u8>, &mut Vec<u8>) -> Probe| {
        let (mut out, mut etag) = (vec![0xAA], vec![0xBB]);
        let p = cache(&mut out, &mut etag);
        trace.push(format!("{p:?}").into_bytes());
        match p {
            Probe::Hit => out,
            Probe::Stale => etag,
            Probe::Miss | Probe::StaleNoEtag => Vec::new(),
        }
    };
    let mut replies = Vec::new();
    cache.insert_view(&key, &CoapView::parse(&origin_wire).unwrap(), 0);
    let valid_view = CoapView::parse(&valid_wire).unwrap();
    replies.push(probe(&mut |out, etag| {
        cache.lookup_into(&key, case.t1, to, out, etag)
    }));
    let mut out = vec![0xCC];
    let refreshed = cache.revalidate_wire(&key, &valid_view, case.t1, to, &mut out);
    replies.push([vec![u8::from(refreshed)], out].concat());
    let t2 = case.t1 + case.dt;
    replies.push(probe(&mut |out, etag| {
        cache.lookup_into(&key, t2, to, out, etag)
    }));
    trace.extend(replies);
    (trace, cache.stats())
}

proptest! {
    /// The wire entries serve exactly what the message entries served:
    /// byte-identical hits (full replies and `2.03 Valid`s), stale
    /// ETags, revalidation replies and the lookups after a refresh,
    /// with identical statistics — over origin replies with options on
    /// both sides of Max-Age (repeated, unsorted, with extended
    /// deltas), zero to two Max-Age instances, ETags absent, kept or
    /// rotated by the 2.03, a 2.03 without Max-Age (60 s) or with
    /// another option, and a client ETag that matches or does not.
    #[test]
    fn wire_cache_matches_message_cache(case in arb_cache_case()) {
        use doc_repro::coap::cache::ResponseCache;
        let ours = drive_cache_case(&mut ResponseCache::new(8), &case);
        let oracle = drive_cache_case(&mut message_cache::MessageCache::new(8), &case);
        prop_assert_eq!(ours, oracle);
    }
}

/// One operation of a cache script: `(kind, key, variant, ms)` — an
/// insert (kind 0), a lookup (1) or a revalidation (2) of key `key`,
/// with the reply, the client's ETag or the `2.03 Valid` picked by
/// `variant`, after the clock advances `ms`.
type CacheOp = (u8, usize, u8, u64);

/// The request key of script key `k`: FETCH payloads of four lengths,
/// so a slot's next key may be longer or shorter than its last.
fn script_key(k: usize) -> doc_repro::coap::cache::CacheKey {
    doc_repro::coap::cache::cache_key(
        &CoapMessage::request(Code::FETCH, MsgType::Con, 1, vec![1])
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
            .with_payload(vec![k as u8; 1 + k % 4]),
    )
}

/// The origin reply `variant` for key `k`: a payload of 0 to 47 bytes,
/// 0 to 4 s of freshness, an ETag from a set of four or none, and a
/// Size1 option above Max-Age or none.
fn script_reply(k: usize, variant: u8) -> Vec<u8> {
    let mut r = CoapMessage {
        mtype: MsgType::Ack,
        code: Code::CONTENT,
        message_id: 0x0102,
        token: vec![0xA0],
        options: vec![CoapOption::uint(
            OptionNumber::MAX_AGE,
            u32::from(variant % 5),
        )],
        payload: vec![k as u8; usize::from(variant) % 48],
    };
    if !variant.is_multiple_of(3) {
        r.set_option(CoapOption::new(OptionNumber::ETAG, vec![variant % 4]));
    }
    if variant.is_multiple_of(7) {
        r.set_option(CoapOption::uint(OptionNumber::SIZE1, u32::from(variant)));
    }
    r.encode()
}

/// The `2.03 Valid` `variant`: an ETag from the same set of four or
/// none, 0 to 4 s of freshness or no Max-Age (60 s), and sometimes a
/// Size1 that replaces the stored one.
fn script_valid(variant: u8) -> Vec<u8> {
    let mut v = CoapMessage::ack_reply(0x0203, vec![0xB0], Code::VALID);
    if variant % 4 != 3 {
        v.set_option(CoapOption::new(OptionNumber::ETAG, vec![variant % 4]));
    }
    if variant % 6 != 5 {
        v.set_option(CoapOption::uint(
            OptionNumber::MAX_AGE,
            u32::from(variant % 5),
        ));
    }
    if variant.is_multiple_of(11) {
        v.set_option(CoapOption::uint(OptionNumber::SIZE1, 7));
    }
    v.encode()
}

/// Run one script operation, returning what it wrote: the probe and
/// its reply or stale ETag, or whether the revalidation found the
/// entry and its reply; then the statistics and the entry count.
fn run_cache_op(
    cache: &mut impl message_cache::CacheOps,
    (kind, k, variant, _): CacheOp,
    now: u64,
) -> (String, Vec<u8>, doc_repro::coap::cache::CacheStats, usize) {
    use doc_repro::coap::cache::ReplyTo;
    let key = script_key(k);
    let client_etag = [variant % 4];
    let to = ReplyTo {
        message_id: 0x7788,
        token: &[7, 8],
        etag: variant.is_multiple_of(2).then_some(&client_etag[..]),
    };
    let (mut out, mut etag) = (vec![0xAA], vec![0xBB]);
    let outcome = match kind {
        0 => {
            let wire = script_reply(k, variant);
            cache.insert_view(&key, &CoapView::parse(&wire).unwrap(), now);
            "stored".to_string()
        }
        1 => format!(
            "{:?}",
            cache.lookup_into(&key, now, to, &mut out, &mut etag)
        ),
        _ => {
            let wire = script_valid(variant);
            let valid = CoapView::parse(&wire).unwrap();
            format!("{}", cache.revalidate_wire(&key, &valid, now, to, &mut out))
        }
    };
    (outcome, [out, etag].concat(), cache.stats(), cache.len())
}

proptest! {
    /// The ring of slots and its open-addressed index behave exactly
    /// like a `HashMap` with a `VecDeque` FIFO of keys: over random
    /// scripts of inserts (new keys, and stored keys re-inserted with
    /// longer or shorter replies), lookups and revalidations at random
    /// times, with capacities 1 to 8 and three times as many keys or
    /// more, every operation finds the same outcome, writes the same
    /// reply or stale ETag and leaves the same statistics and count.
    #[test]
    fn ring_cache_matches_fifo_map(
        capacity in 1usize..=8,
        extra in 0usize..4,
        ops in proptest::collection::vec((0u8..3, 0usize..64, any::<u8>(), 0u64..2_500), 0..160),
    ) {
        use doc_repro::coap::cache::ResponseCache;
        let keys = 3 * capacity + extra;
        let (mut ours, mut oracle) = (ResponseCache::new(capacity), message_cache::MessageCache::new(capacity));
        let mut now = 0;
        for (i, &(kind, k, variant, ms)) in ops.iter().enumerate() {
            now += ms;
            let op = (kind, k % keys, variant, ms);
            let got = run_cache_op(&mut ours, op, now);
            prop_assert_eq!(got, run_cache_op(&mut oracle, op, now), "op {}: {:?}", i, op);
        }
    }
}

/// One `answer_into` case. The question names are suffixes of one base
/// name, some behind an extra label; the records, if any, are
/// registered under the first question.
#[derive(Debug, Clone)]
struct AnswerCase {
    /// Mixed-case labels: none (the root), a few, 127 one-byte labels
    /// or four long ones (both 255 wire bytes).
    base: Vec<Vec<u8>>,
    /// Per question: labels of `base` skipped, an optional label in
    /// front, and the record type (A, AAAA or TXT).
    questions: Vec<(usize, Option<Vec<u8>>, RecordType)>,
    /// `None` leaves the first question's name out of the zone
    /// (NXDOMAIN).
    records: Option<Vec<doc_repro::dns::RecordData>>,
    ttl: (u32, u32),
    /// First query time and the gap to the second, in milliseconds.
    times: (u64, u64),
    seed: u64,
}

impl AnswerCase {
    /// The labels of question `i` (mixed case).
    fn qname(&self, i: usize) -> Vec<Vec<u8>> {
        let (skip, prefix, _) = &self.questions[i];
        let mut labels = self.base[(*skip).min(self.base.len())..].to_vec();
        if let Some(prefix) = prefix {
            // The name's wire length with the prefix label in front.
            let wire: usize = labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1;
            if wire + 1 + prefix.len() <= 255 {
                labels.insert(0, prefix.clone());
            }
        }
        labels
    }

    /// The query, every name spelled out in its mixed case.
    fn query_wire(&self) -> Vec<u8> {
        let mut wire = vec![(self.seed >> 8) as u8, self.seed as u8, 0x01, 0];
        wire.extend_from_slice(&(self.questions.len() as u16).to_be_bytes());
        wire.extend_from_slice(&[0; 6]);
        for (i, &(_, _, qtype)) in self.questions.iter().enumerate() {
            for label in self.qname(i) {
                wire.push(label.len() as u8);
                wire.extend_from_slice(&label);
            }
            wire.push(0);
            wire.extend_from_slice(&qtype.to_u16().to_be_bytes());
            wire.extend_from_slice(&[0, 1]);
        }
        wire
    }

    fn upstream(&self) -> doc_repro::doc::server::MockUpstream {
        let up = doc_repro::doc::server::MockUpstream::new(self.seed, self.ttl.0, self.ttl.1);
        if let Some(records) = &self.records {
            let name = Name::from_labels(&self.qname(0)).expect("names stay in bounds");
            up.add_rrset(name, self.questions[0].2, records.clone());
        }
        up
    }
}

fn arb_answer_case() -> impl Strategy<Value = AnswerCase> {
    const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    let label = || proptest::string::string_regex("[a-zA-Z0-9][a-zA-Z0-9-]{0,20}").expect("regex");
    let base = (
        0u8..4,
        proptest::collection::vec(label(), 1..6),
        proptest::collection::vec(any::<u8>(), 127),
    )
        .prop_map(|(kind, labels, bytes)| {
            let letter = |b: u8| ALPHA[usize::from(b) % ALPHA.len()];
            match kind {
                0 => Vec::new(),
                1 => labels.into_iter().map(String::into_bytes).collect(),
                2 => bytes.iter().map(|&b| vec![letter(b)]).collect(),
                _ => [63, 63, 63, 61]
                    .iter()
                    .enumerate()
                    .map(|(i, &len)| (0..len).map(|j| letter(bytes[(i * 7 + j) % 127])).collect())
                    .collect(),
            }
        });
    let question = (
        prop_oneof![0usize..3, 0usize..128],
        (any::<bool>(), label()),
        0u8..3,
    )
        .prop_map(|(skip, (prefixed, prefix), qtype)| {
            let qtype = [RecordType::A, RecordType::Aaaa, RecordType::Txt][usize::from(qtype)];
            (skip, prefixed.then(|| prefix.into_bytes()), qtype)
        });
    let record = (0u8..4, proptest::collection::vec(any::<u8>(), 16)).prop_map(|(kind, b)| {
        use doc_repro::dns::RecordData;
        match kind {
            0 => RecordData::A(std::net::Ipv4Addr::new(b[0], b[1], b[2], b[3])),
            1 => RecordData::Aaaa(std::net::Ipv6Addr::from(<[u8; 16]>::try_from(b).unwrap())),
            2 => RecordData::Txt(vec![b[..usize::from(b[0] % 16)].to_vec()]),
            _ => RecordData::Cname(
                Name::from_labels(&[&b[..1 + usize::from(b[0] % 4)]])
                    .unwrap_or_else(|_| Name::root()),
            ),
        }
    });
    (
        base,
        proptest::collection::vec(question, 1..=3),
        (any::<bool>(), proptest::collection::vec(record, 0..=4)),
        (1u32..60, 0u32..60),
        (0u64..200_000, 0u64..200_000),
        any::<u64>(),
    )
        .prop_map(
            |(base, questions, (nx, records), (lo, span), times, seed)| AnswerCase {
                base,
                questions,
                records: (!nx).then_some(records),
                ttl: (lo, lo + span),
                times,
                seed,
            },
        )
}

proptest! {
    /// `MockUpstream::answer_into` writes what the owned path prepares:
    /// on twin upstreams queried at the same times, its bytes, Max-Age
    /// and ETag (memoised at the second query when the answer repeats)
    /// equal `prepare_response(policy, &resolve(&query.to_owned(),
    /// now))` under both policies — over the root, mixed-case names and
    /// names at the 255-byte and 127-label bounds, one to three
    /// questions sharing suffixes, NXDOMAIN and zero to four records,
    /// at a first query and a second one that finds the TTL decayed or
    /// redrawn.
    #[test]
    fn answer_into_matches_owned_resolution(case in arb_answer_case()) {
        use doc_repro::doc::policy::{prepare_response, CachePolicy};
        let wire = case.query_wire();
        let view = MessageView::parse(&wire).unwrap();
        let query = view.to_owned();
        for policy in [CachePolicy::DohLike, CachePolicy::EolTtls] {
            let (ours, theirs) = (case.upstream(), case.upstream());
            for now in [case.times.0, case.times.0 + case.times.1] {
                let mut out = vec![0xAA];
                let (max_age, etag) = ours.answer_into(&view, policy, now, &mut out);
                let prepared = prepare_response(policy, &theirs.resolve(&query, now));
                prop_assert_eq!(&out, &prepared.payload, "{:?} at {}", policy, now);
                prop_assert_eq!(max_age, prepared.max_age, "{:?} at {}", policy, now);
                prop_assert_eq!(&etag[..], &prepared.etag[..], "{:?} at {}", policy, now);
            }
        }
    }
}
