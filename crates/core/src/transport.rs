//! Datagram framings for the five evaluated DNS transports and the
//! byte-exact packet dissection behind the paper's Fig. 6/9/14.
//!
//! Every size in this module is produced by *really constructing* the
//! packet: a real DNS message for a 24-character name, wrapped by the
//! real CoAP codec, protected by the real DTLS record layer or the real
//! OSCORE implementation, then laid onto 802.15.4 frames by the real
//! 6LoWPAN fragmentation planner. Nothing is hard-coded.

use crate::method::{build_request, DocMethod};
use crate::policy::{prepare_response, CachePolicy};
use doc_coap::msg::{CoapMessage, Code, MsgType};
use doc_coap::opt::{CoapOption, OptionNumber};
use doc_dns::{Message, Name, Rcode, Record, RecordType};
use doc_dtls::record::CipherState;
use doc_oscore::context::SecurityContext;
use doc_oscore::protect::OscoreEndpoint;
use doc_sixlowpan::{bytes_on_air, fragment_count};
use std::net::{Ipv4Addr, Ipv6Addr};

/// The DNS transports compared in §5 (short names as in the paper),
/// plus the three stream transports the paper discusses analytically
/// (§5.5) and this reproduction simulates over the QUIC-lite layer
/// (`doc-quic`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Plain DNS over UDP.
    Udp,
    /// DNS over DTLS 1.2 (DoDTLS).
    Dtls,
    /// DNS over unencrypted CoAP (DoC).
    Coap,
    /// DNS over CoAP over DTLS (CoAPSv1.2).
    Coaps,
    /// DNS over OSCORE.
    Oscore,
    /// DNS over QUIC (RFC 9250): one query per QUIC-lite stream,
    /// 2-byte length-prefixed.
    Quic,
    /// DNS over HTTPS, HTTP/3-flavoured: HEADERS+DATA frames on a
    /// QUIC-lite stream.
    DohLite,
    /// DNS over TLS (RFC 7858 framing): pipelined length-prefixed
    /// messages on one long-lived QUIC-lite stream.
    Dot,
}

impl TransportKind {
    /// Paper label.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Udp => "UDP",
            TransportKind::Dtls => "DTLSv1.2",
            TransportKind::Coap => "CoAP",
            TransportKind::Coaps => "CoAPSv1.2",
            TransportKind::Oscore => "OSCORE",
            TransportKind::Quic => "DoQ",
            TransportKind::DohLite => "DoH",
            TransportKind::Dot => "DoT",
        }
    }

    /// Whether the transport is CoAP-based (method choice applies).
    pub fn coap_based(self) -> bool {
        matches!(
            self,
            TransportKind::Coap | TransportKind::Coaps | TransportKind::Oscore
        )
    }

    /// Whether the transport runs over QUIC-lite streams (DoQ, DoH,
    /// DoT): per-query or pipelined reliable streams with their own
    /// loss recovery instead of CoAP/raw-datagram retransmission.
    pub fn stream_based(self) -> bool {
        matches!(
            self,
            TransportKind::Quic | TransportKind::DohLite | TransportKind::Dot
        )
    }
}

/// The canonical transport × method evaluation matrix: every
/// combination the end-to-end suite and the Fig. 7 sweep must cover.
/// Non-CoAP transports carry `Fetch` as a placeholder (the method only
/// applies to CoAP-based rows).
///
/// This is the *single* source of truth — `tests/transports_end_to_end.rs`
/// and the `fig7` binary derive their row sets from it, so a new
/// transport cannot be silently omitted from either.
pub const TRANSPORT_MATRIX: [(TransportKind, DocMethod); 12] = [
    (TransportKind::Udp, DocMethod::Fetch),
    (TransportKind::Dtls, DocMethod::Fetch),
    (TransportKind::Coap, DocMethod::Fetch),
    (TransportKind::Coap, DocMethod::Get),
    (TransportKind::Coap, DocMethod::Post),
    (TransportKind::Coaps, DocMethod::Fetch),
    (TransportKind::Coaps, DocMethod::Get),
    (TransportKind::Coaps, DocMethod::Post),
    (TransportKind::Oscore, DocMethod::Fetch),
    (TransportKind::Quic, DocMethod::Fetch),
    (TransportKind::DohLite, DocMethod::Fetch),
    (TransportKind::Dot, DocMethod::Fetch),
];

/// The PSK the simulated QUIC-lite transports are provisioned with
/// (mirrors the paper's 9-byte DTLS PSK setup; the value is arbitrary).
pub const QUIC_PSK: &[u8] = b"123456789";

/// The packet of interest in Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketItem {
    /// The DNS query.
    Query,
    /// The response carrying one A record.
    ResponseA,
    /// The response carrying one AAAA record.
    ResponseAaaa,
}

impl PacketItem {
    /// Paper label.
    pub fn name(self) -> &'static str {
        match self {
            PacketItem::Query => "Query",
            PacketItem::ResponseA => "Response (A)",
            PacketItem::ResponseAaaa => "Response (AAAA)",
        }
    }
}

/// Per-layer byte breakdown of one transport PDU (a Fig. 6 bar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dissection {
    /// What this packet is.
    pub label: String,
    /// 802.15.4 MAC + 6LoWPAN bytes summed over all fragments.
    pub l2_sixlo: usize,
    /// DTLS record-layer bytes (header + nonce + tag).
    pub dtls: usize,
    /// CoAP header/option bytes.
    pub coap: usize,
    /// OSCORE bytes (option + COSE overhead).
    pub oscore: usize,
    /// DNS message bytes.
    pub dns: usize,
    /// Number of 802.15.4 frames (>1 ⇒ 6LoWPAN fragmentation).
    pub frames: usize,
    /// Total bytes on air.
    pub total: usize,
}

impl Dissection {
    /// UDP payload size (everything above the compressed IP/UDP
    /// headers).
    pub fn udp_payload(&self) -> usize {
        self.dtls + self.coap + self.oscore + self.dns
    }
}

/// The canonical 24-character experiment name (median of the empirical
/// IoT name-length distribution, Table 3).
pub fn experiment_name(id: u32) -> Name {
    // "name-XXXXX.c.example.org" = 24 chars with a 5-digit id.
    let name = format!("name-{id:05}.c.example.org");
    debug_assert_eq!(name.len(), 24);
    Name::parse(&name).expect("static name shape is valid")
}

/// Canonical DNS query bytes (ID = 0) for the experiment name.
pub fn dns_query_bytes(name: &Name, rtype: RecordType) -> Vec<u8> {
    let mut q = Message::query(0, name.clone(), rtype);
    q.canonicalize_id();
    q.encode()
}

/// Canonical single-record DNS response bytes for the experiment name.
pub fn dns_response_bytes(name: &Name, rtype: RecordType, ttl: u32) -> Vec<u8> {
    let q = Message::query(0, name.clone(), rtype);
    let rec = match rtype {
        RecordType::A => Record::a(name.clone(), ttl, Ipv4Addr::new(192, 0, 2, 1)),
        _ => Record::aaaa(
            name.clone(),
            ttl,
            Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1),
        ),
    };
    let mut resp = Message::response(&q, Rcode::NoError, vec![rec]);
    resp.canonicalize_id();
    resp.encode()
}

/// Build the CoAP response message a DoC server would send for
/// `dns_payload` (ETag + Max-Age + Content-Format), matching
/// [`crate::server::DocServer`]'s output shape.
pub fn coap_response_for(req: &CoapMessage, dns_payload: &[u8]) -> CoapMessage {
    let msg = Message::decode(dns_payload).expect("valid dns payload");
    let prepared = prepare_response(CachePolicy::EolTtls, &msg);
    let mut resp = CoapMessage::ack_response(req, Code::CONTENT);
    resp.set_option(CoapOption::new(OptionNumber::ETAG, prepared.etag));
    resp.set_option(CoapOption::uint(OptionNumber::MAX_AGE, prepared.max_age));
    resp.set_option(CoapOption::uint(
        OptionNumber::CONTENT_FORMAT,
        crate::CONTENT_FORMAT_DNS_MESSAGE as u32,
    ));
    resp.payload = prepared.payload;
    resp
}

/// DTLS record-layer overhead for one application-data record:
/// header(13) + explicit nonce(8) + tag(8).
pub const DTLS_RECORD_OVERHEAD: usize = doc_dtls::record::RECORD_HEADER_LEN + CipherState::OVERHEAD;

/// Dissect the `item` packet of `kind`/`method` (Fig. 6 bars; Fig. 14
/// uses [`dissect_blockwise`]).
pub fn dissect(kind: TransportKind, method: DocMethod, item: PacketItem) -> Dissection {
    let name = experiment_name(0);
    let rtype = match item {
        PacketItem::ResponseA => RecordType::A,
        _ => RecordType::Aaaa,
    };
    // For the query the record type does not change the size; Fig. 6
    // shows identical query bars for A and AAAA.
    let dns = match item {
        PacketItem::Query => dns_query_bytes(&name, rtype),
        _ => dns_response_bytes(&name, rtype, 3600),
    };
    let label = format!("{} {}", kind.name(), item.name());
    match kind {
        TransportKind::Udp => finish(label, 0, 0, 0, dns.len(), dns.len()),
        TransportKind::Dtls => {
            let payload = dns.len() + DTLS_RECORD_OVERHEAD;
            finish(label, DTLS_RECORD_OVERHEAD, 0, 0, dns.len(), payload)
        }
        TransportKind::Coap => {
            let msg = coap_message(method, item, &dns);
            let total = msg.encoded_len();
            finish(
                label,
                0,
                total - dns_in_coap(&msg, &dns),
                0,
                dns_in_coap(&msg, &dns),
                total,
            )
        }
        TransportKind::Coaps => {
            let msg = coap_message(method, item, &dns);
            let coap_total = msg.encoded_len();
            let dns_len = dns_in_coap(&msg, &dns);
            let total = coap_total + DTLS_RECORD_OVERHEAD;
            finish(
                label,
                DTLS_RECORD_OVERHEAD,
                coap_total - dns_len,
                0,
                dns_len,
                total,
            )
        }
        TransportKind::Quic | TransportKind::DohLite | TransportKind::Dot => {
            // Really construct the packet: an established QUIC-lite
            // pair frames, protects and (for responses) acks exactly
            // like the simulated transport does. Everything that is
            // not DNS payload — short header, AEAD tag, STREAM frame,
            // DoQ/DoH/DoT framing, piggybacked ACK — is attributed to
            // the transport-security layer (the `dtls` column of the
            // Fig. 6 bars).
            let (mut client, mut server) = doc_quic::establish_pair(0xD0C, QUIC_PSK);
            let framed_query = frame_stream_query(kind, &dns_query_bytes(&name, rtype));
            let sid = if kind == TransportKind::Dot {
                0
            } else {
                client.open_stream()
            };
            let fin = kind != TransportKind::Dot;
            let query_pkts = client
                .send_stream(sid, &framed_query, fin, doc_time::Instant::EPOCH)
                .expect("established");
            let datagram = match item {
                PacketItem::Query => query_pkts.into_iter().next().expect("one packet"),
                _ => {
                    for d in &query_pkts {
                        server.handle_datagram(doc_time::Instant::EPOCH, d);
                    }
                    let framed_resp = frame_stream_response(kind, &dns);
                    server
                        .send_stream(sid, &framed_resp, fin, doc_time::Instant::EPOCH)
                        .expect("established")
                        .into_iter()
                        .next()
                        .expect("one packet")
                }
            };
            let total = datagram.len();
            finish(label, total - dns.len(), 0, 0, dns.len(), total)
        }
        TransportKind::Oscore => {
            // Protect a real message pair and measure the outer bytes.
            let (mut client, mut server) = oscore_pair(false);
            let inner_req = coap_message(
                DocMethod::Fetch,
                PacketItem::Query,
                &dns_query_bytes(&name, rtype),
            );
            let (outer_req, binding) = client
                .protect_request(&inner_req)
                .expect("protect succeeds");
            let outer = match item {
                PacketItem::Query => outer_req,
                _ => {
                    let (inner_at_server, s_binding) = server
                        .unprotect_request(&outer_req)
                        .expect("unprotect succeeds");
                    let _ = binding;
                    let resp = coap_response_for(&inner_at_server, &dns);
                    server
                        .protect_response(&resp, &s_binding, &outer_req)
                        .expect("protect succeeds")
                }
            };
            let total = outer.encoded_len();
            // Layer attribution: outer CoAP framing vs OSCORE overhead.
            let coap_bytes = 4 + outer.token.len();
            let oscore_bytes = total - coap_bytes - dns.len();
            finish(label, 0, coap_bytes, oscore_bytes, dns.len(), total)
        }
    }
}

fn coap_message(method: DocMethod, item: PacketItem, dns: &[u8]) -> CoapMessage {
    match item {
        PacketItem::Query => build_request(method, dns, MsgType::Con, 0x0101, vec![0xAA, 0x01])
            .expect("request construction"),
        _ => {
            // Response to a FETCH-style request (method affects only
            // the request side).
            let req = build_request(
                DocMethod::Fetch,
                &dns_query_bytes(&experiment_name(0), RecordType::Aaaa),
                MsgType::Con,
                0x0101,
                vec![0xAA, 0x01],
            )
            .expect("request construction");
            coap_response_for(&req, dns)
        }
    }
}

/// DNS bytes carried inside a CoAP message. For GET the query is
/// base64url-inflated into the URI, so the "DNS" layer is the encoded
/// variable (what actually travels), exactly how Fig. 6 draws it.
fn dns_in_coap(msg: &CoapMessage, dns: &[u8]) -> usize {
    if !msg.payload.is_empty() {
        msg.payload.len()
    } else {
        // GET: dns=<base64url>
        doc_crypto::base64url::encoded_len(dns.len())
    }
}

/// Frame a DNS query for a stream transport's request direction.
pub fn frame_stream_query(kind: TransportKind, dns: &[u8]) -> Vec<u8> {
    match kind {
        TransportKind::Quic => doc_quic::doq::encode_doq(dns),
        TransportKind::DohLite => doc_quic::doq::encode_doh_request(dns),
        TransportKind::Dot => doc_quic::doq::encode_dot(dns),
        _ => panic!("{kind:?} is not a stream transport"),
    }
}

/// Frame a DNS response for a stream transport's response direction.
pub fn frame_stream_response(kind: TransportKind, dns: &[u8]) -> Vec<u8> {
    match kind {
        TransportKind::Quic => doc_quic::doq::encode_doq(dns),
        TransportKind::DohLite => doc_quic::doq::encode_doh_response(dns),
        TransportKind::Dot => doc_quic::doq::encode_dot(dns),
        _ => panic!("{kind:?} is not a stream transport"),
    }
}

/// A client/server OSCORE pair; `require_echo` arms the server's
/// replay-window initialization (the Fig. 6 Echo round trip).
fn oscore_pair(require_echo: bool) -> (OscoreEndpoint, OscoreEndpoint) {
    let secret = b"0123456789abcdef";
    let salt = b"doc-salt";
    (
        OscoreEndpoint::new(SecurityContext::derive(secret, salt, &[], &[0x01]), false),
        OscoreEndpoint::new(
            SecurityContext::derive(secret, salt, &[0x01], &[]),
            require_echo,
        ),
    )
}

fn finish(
    label: String,
    dtls: usize,
    coap: usize,
    oscore: usize,
    dns: usize,
    udp_payload: usize,
) -> Dissection {
    let frames = fragment_count(udp_payload);
    let total = bytes_on_air(udp_payload);
    let l2 = total - udp_payload;
    Dissection {
        label,
        l2_sixlo: l2,
        dtls,
        coap,
        oscore,
        dns,
        frames,
        total,
    }
}

/// Session-setup packets (Fig. 6 "Session setup" panels): the DTLS
/// handshake flights, measured from a real loopback handshake, and the
/// OSCORE Echo round trip.
pub fn session_setup(kind: TransportKind) -> Vec<Dissection> {
    match kind {
        TransportKind::Dtls | TransportKind::Coaps => {
            let mut client = doc_dtls::DtlsConnection::client(0xD0C, b"Client_ID", b"123456789");
            let mut server = doc_dtls::DtlsConnection::server(0x5E4, b"123456789");
            doc_dtls::run_handshake(&mut client, &mut server)
                .into_iter()
                .map(|(label, len)| finish(label.to_string(), len, 0, 0, 0, len))
                .collect()
        }
        TransportKind::Oscore => {
            // Replay-window initialization: request → 4.01 w/ Echo →
            // request w/ Echo.
            let (mut client, mut server) = oscore_pair(true);
            let name = experiment_name(0);
            let dns = dns_query_bytes(&name, RecordType::Aaaa);
            let inner = coap_message(DocMethod::Fetch, PacketItem::Query, &dns);
            let (outer1, binding1) = client.protect_request(&inner).expect("protect");
            let challenge = match server.unprotect_request(&outer1) {
                Err(doc_oscore::OscoreError::EchoRequired(c)) => c,
                other => panic!("expected echo challenge, got {other:?}"),
            };
            // The server's binding is the client's: the same (kid, piv).
            let unauthorized = server
                .protect_echo_challenge(&outer1, &binding1, &challenge)
                .expect("protect");
            let echoed = client
                .unprotect_response(&unauthorized, &binding1)
                .expect("unprotect")
                .option(OptionNumber::ECHO)
                .expect("echo present")
                .value
                .clone();
            let mut retry_inner = inner.clone();
            retry_inner.set_option(CoapOption::new(OptionNumber::ECHO, echoed));
            let (outer2, _) = client.protect_request(&retry_inner).expect("protect");
            [
                ("4.01 Unauthorized", unauthorized.encoded_len()),
                ("Query (w/ Echo)", outer2.encoded_len()),
            ]
            .into_iter()
            .map(|(label, len)| finish(label.to_string(), 0, 0, len, 0, len))
            .collect()
        }
        TransportKind::Quic | TransportKind::DohLite | TransportKind::Dot => {
            // The QUIC-lite 1-RTT handshake: ClientInitial → server
            // handshake flight; data can flow one round trip after the
            // first packet (the assumption behind `doc-models::quic`).
            let mut client = doc_quic::Connection::client(0xD0C, QUIC_PSK);
            let mut server = doc_quic::Connection::server(0x5E4, QUIC_PSK);
            let mut trace: Vec<(&'static str, usize)> = Vec::new();
            for d in client.connect(doc_time::Instant::EPOCH) {
                trace.push(("ClientInitial", d.len()));
                for ev in server.handle_datagram(doc_time::Instant::EPOCH, &d) {
                    if let doc_quic::QuicEvent::Transmit(reply) = ev {
                        trace.push(("ServerHandshake", reply.len()));
                        client.handle_datagram(doc_time::Instant::EPOCH, &reply);
                    }
                }
            }
            assert!(client.is_established() && server.is_established());
            trace
                .into_iter()
                .map(|(label, len)| finish(label.to_string(), len, 0, 0, 0, len))
                .collect()
        }
        _ => Vec::new(),
    }
}

/// Fig. 14: packet sizes with block-wise transfer. Returns one
/// dissection per (message, block) for the given block size.
pub fn dissect_blockwise(
    method: DocMethod,
    item: PacketItem,
    block_size: usize,
    coaps: bool,
) -> Vec<Dissection> {
    use doc_coap::block::{Block1Sender, BlockOpt};
    let name = experiment_name(0);
    let rtype = match item {
        PacketItem::ResponseA => RecordType::A,
        _ => RecordType::Aaaa,
    };
    let dtls_extra = if coaps { DTLS_RECORD_OVERHEAD } else { 0 };
    let mut out = Vec::new();
    match item {
        PacketItem::Query => {
            let dns = dns_query_bytes(&name, rtype);
            if method == DocMethod::Get {
                // GET cannot block-transfer its query (carried in URI).
                let d = dissect(
                    if coaps {
                        TransportKind::Coaps
                    } else {
                        TransportKind::Coap
                    },
                    method,
                    item,
                );
                return vec![d];
            }
            let mut sender = Block1Sender::new(dns.clone(), block_size).expect("valid block size");
            let total_blocks = sender.block_count();
            let mut idx = 0;
            while let Some((slice, block)) = sender.next_block() {
                let mut msg = build_request(method, &[], MsgType::Con, 0x0101, vec![0xAA, 0x01])
                    .expect("request");
                doc_coap::block::apply_block1(&mut msg, slice.clone(), block);
                let coap_total = msg.encoded_len();
                let payload = coap_total + dtls_extra;
                let is_last = idx == total_blocks - 1;
                let mut d = finish(
                    format!(
                        "Query [{}]{}",
                        method.name(),
                        if is_last { " (Last)" } else { "" }
                    ),
                    dtls_extra,
                    coap_total - slice.len(),
                    0,
                    slice.len(),
                    payload,
                );
                d.label = d.label.clone();
                out.push(d);
                idx += 1;
            }
            // The 2.31 Continue acknowledgement.
            let req = build_request(method, &[], MsgType::Con, 0x0101, vec![0xAA, 0x01])
                .expect("request");
            let cont = doc_coap::block::continue_response(
                &req,
                BlockOpt::new(0, true, block_size).expect("valid"),
            );
            let len = cont.encoded_len() + dtls_extra;
            out.push(finish(
                "2.31 Continue".to_string(),
                dtls_extra,
                cont.encoded_len(),
                0,
                0,
                len,
            ));
        }
        _ => {
            let dns = dns_response_bytes(&name, rtype, 3600);
            let msg = coap_message(DocMethod::Fetch, item, &dns);
            let body = msg.payload.clone();
            if body.len() <= block_size {
                let d = dissect(
                    if coaps {
                        TransportKind::Coaps
                    } else {
                        TransportKind::Coap
                    },
                    method,
                    item,
                );
                return vec![d];
            }
            let server = doc_coap::block::Block2Server::new(body, block_size).expect("valid");
            let mut num = 0;
            loop {
                let (slice, block) = server.block(num, block_size).expect("in range");
                let mut resp = msg.clone();
                resp.payload = slice.clone();
                resp.set_option(block.to_option(OptionNumber::BLOCK2));
                let coap_total = resp.encoded_len();
                let is_last = !block.more;
                out.push(finish(
                    format!("{}{}", item.name(), if is_last { " (Last)" } else { "" }),
                    dtls_extra,
                    coap_total - slice.len(),
                    0,
                    slice.len(),
                    coap_total + dtls_extra,
                ));
                if is_last {
                    break;
                }
                num += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_name_is_24_chars() {
        for id in [0u32, 7, 49, 99999] {
            assert_eq!(experiment_name(id).presentation_len(), 24);
        }
    }

    /// Fig. 6 regime 1: plain UDP — the query is 42 bytes of DNS, one
    /// frame; responses also fit one frame.
    #[test]
    fn fig6_udp_sizes() {
        let q = dissect(TransportKind::Udp, DocMethod::Fetch, PacketItem::Query);
        assert_eq!(q.dns, 42);
        assert_eq!(q.frames, 1);
        let ra = dissect(TransportKind::Udp, DocMethod::Fetch, PacketItem::ResponseA);
        assert_eq!(ra.dns, 58);
        assert_eq!(ra.frames, 1);
        let raaaa = dissect(
            TransportKind::Udp,
            DocMethod::Fetch,
            PacketItem::ResponseAaaa,
        );
        assert_eq!(raaaa.dns, 70, "the §7 baseline AAAA response");
        // §5.4: "The query is not fragmented, but the response is."
        assert_eq!(raaaa.frames, 2);
    }

    /// Fig. 6: DTLS adds a fixed 29-byte record overhead, pushing both
    /// queries and responses over the fragmentation line (§5.4 groups
    /// DTLSv1.2 with the transports "for which both queries and
    /// responses fragment").
    #[test]
    fn fig6_dtls_sizes() {
        let q = dissect(TransportKind::Dtls, DocMethod::Fetch, PacketItem::Query);
        assert_eq!(q.dtls, 29);
        assert_eq!(q.udp_payload(), 42 + 29);
        assert_eq!(q.frames, 2, "DTLS query fragments");
        let raaaa = dissect(
            TransportKind::Dtls,
            DocMethod::Fetch,
            PacketItem::ResponseAaaa,
        );
        assert_eq!(raaaa.udp_payload(), 70 + 29);
        assert_eq!(raaaa.frames, 2, "AAAA over DTLS fragments");
    }

    /// Fig. 6: plain CoAP FETCH queries stay below the line; AAAA
    /// responses fragment (CoAP options + 70-byte payload).
    #[test]
    fn fig6_coap_fetch_sizes() {
        let q = dissect(TransportKind::Coap, DocMethod::Fetch, PacketItem::Query);
        assert_eq!(q.dns, 42);
        assert!(
            q.coap > 0 && q.coap < 20,
            "CoAP framing is small: {}",
            q.coap
        );
        assert_eq!(q.frames, 1);
        let r = dissect(
            TransportKind::Coap,
            DocMethod::Fetch,
            PacketItem::ResponseAaaa,
        );
        assert_eq!(r.dns, 70);
        assert_eq!(r.frames, 2, "CoAP AAAA response fragments");
    }

    /// §5.3: "DNS queries are base64-encoded within the GET method.
    /// This inflates requests … approximately 1.5 times larger" and
    /// "a DNS query using GET will be fragmented".
    #[test]
    fn fig6_get_query_fragments() {
        let fetch = dissect(TransportKind::Coap, DocMethod::Fetch, PacketItem::Query);
        let get = dissect(TransportKind::Coap, DocMethod::Get, PacketItem::Query);
        assert!(get.dns > fetch.dns, "base64url inflation");
        assert_eq!(get.dns, 56); // 42 bytes -> 56 base64url chars
        assert_eq!(get.frames, 2, "GET query fragments");
    }

    /// Fig. 6: CoAPS leaves "little room … for the DNS message itself"
    /// — both query and responses fragment.
    #[test]
    fn fig6_coaps_fragments() {
        let q = dissect(TransportKind::Coaps, DocMethod::Fetch, PacketItem::Query);
        assert!(q.udp_payload() > 85, "payload {}", q.udp_payload());
        let r = dissect(
            TransportKind::Coaps,
            DocMethod::Fetch,
            PacketItem::ResponseAaaa,
        );
        assert_eq!(r.frames, 2);
    }

    /// Fig. 6: OSCORE sits between plain CoAP and CoAPS.
    #[test]
    fn fig6_oscore_overhead_between_coap_and_coaps() {
        let coap = dissect(TransportKind::Coap, DocMethod::Fetch, PacketItem::Query);
        let oscore = dissect(TransportKind::Oscore, DocMethod::Fetch, PacketItem::Query);
        let coaps = dissect(TransportKind::Coaps, DocMethod::Fetch, PacketItem::Query);
        assert!(oscore.total > coap.total);
        assert!(oscore.total < coaps.total);
        assert!(oscore.oscore >= 8, "at least the COSE tag");
    }

    /// Fig. 6 session setup: the DTLS handshake costs 8 flights with
    /// multiple fragmenting datagrams; OSCORE costs one Echo round
    /// trip.
    #[test]
    fn session_setup_shapes() {
        let dtls = session_setup(TransportKind::Dtls);
        assert_eq!(dtls.len(), 8);
        let total_frames: usize = dtls.iter().map(|d| d.frames).sum();
        assert!(
            total_frames >= 8,
            "handshake spans at least 8 frames, got {total_frames}"
        );
        let oscore = session_setup(TransportKind::Oscore);
        assert_eq!(oscore.len(), 2);
        assert_eq!(oscore[0].label, "4.01 Unauthorized");
        assert_eq!(oscore[1].label, "Query (w/ Echo)");
        // The Echo-carrying query is bigger than a plain OSCORE query.
        let plain = dissect(TransportKind::Oscore, DocMethod::Fetch, PacketItem::Query);
        assert!(oscore[1].total > plain.total);
        assert!(session_setup(TransportKind::Udp).is_empty());
        assert!(session_setup(TransportKind::Coap).is_empty());
    }

    /// Fig. 14: with 32-byte blocks everything stays below the
    /// fragmentation limit; 64-byte blocks re-fragment AAAA responses
    /// (paper: "64 already leads to 6LoWPAN fragmentation").
    #[test]
    fn fig14_blockwise_sizes() {
        for method in [DocMethod::Fetch, DocMethod::Post] {
            let blocks = dissect_blockwise(method, PacketItem::Query, 32, false);
            // 42-byte query in 32-byte blocks: 2 query blocks + 2.31.
            assert_eq!(blocks.len(), 3, "{method:?}");
            for b in &blocks {
                assert_eq!(b.frames, 1, "{}: must not fragment", b.label);
            }
        }
        let resp32 = dissect_blockwise(DocMethod::Fetch, PacketItem::ResponseAaaa, 32, false);
        assert!(resp32.len() >= 3);
        assert!(resp32.iter().all(|d| d.frames == 1));
        // 16-byte blocks: more, smaller exchanges.
        let resp16 = dissect_blockwise(DocMethod::Fetch, PacketItem::ResponseAaaa, 16, false);
        assert!(resp16.len() > resp32.len());
    }

    #[test]
    fn fig14_get_query_cannot_block() {
        let blocks = dissect_blockwise(DocMethod::Get, PacketItem::Query, 32, false);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].frames, 2, "GET query still fragments");
    }

    #[test]
    fn transport_properties() {
        assert!(TransportKind::Coap.coap_based());
        assert!(!TransportKind::Udp.coap_based());
        for kind in [
            TransportKind::Quic,
            TransportKind::DohLite,
            TransportKind::Dot,
        ] {
            assert!(!kind.coap_based(), "{kind:?}");
            assert!(kind.stream_based(), "{kind:?}");
        }
        assert!(!TransportKind::Udp.stream_based());
        assert!(!TransportKind::Coaps.stream_based());
    }

    /// The shared evaluation matrix covers every transport variant at
    /// least once (the guard that keeps the e2e suite and `fig7` in
    /// sync when a transport is added).
    #[test]
    fn transport_matrix_covers_every_kind() {
        for kind in [
            TransportKind::Udp,
            TransportKind::Dtls,
            TransportKind::Coap,
            TransportKind::Coaps,
            TransportKind::Oscore,
            TransportKind::Quic,
            TransportKind::DohLite,
            TransportKind::Dot,
        ] {
            assert!(
                TRANSPORT_MATRIX.iter().any(|&(k, _)| k == kind),
                "{kind:?} missing from TRANSPORT_MATRIX"
            );
        }
        // Method rows only vary for CoAP-based transports.
        for (kind, method) in TRANSPORT_MATRIX {
            assert!(
                kind.coap_based() || method == DocMethod::Fetch,
                "{kind:?}/{method:?}"
            );
        }
    }

    /// Fig. 9 cross-check at the packet level: the simulated DoQ query
    /// carries its DNS message with an overhead inside the analytical
    /// 1-RTT envelope (24–64 bytes), and DoH's HTTP framing makes it
    /// strictly larger.
    #[test]
    fn stream_transport_overheads() {
        let doq = dissect(TransportKind::Quic, DocMethod::Fetch, PacketItem::Query);
        assert_eq!(doq.dns, 42);
        assert!(
            (24..=64).contains(&doq.dtls),
            "DoQ overhead {} outside the 1-RTT envelope",
            doq.dtls
        );
        let doh = dissect(TransportKind::DohLite, DocMethod::Fetch, PacketItem::Query);
        assert!(
            doh.total > doq.total,
            "DoH {} <= DoQ {}",
            doh.total,
            doq.total
        );
        let dot = dissect(TransportKind::Dot, DocMethod::Fetch, PacketItem::Query);
        // DoT shares DoQ's 2-byte framing; first-message packets differ
        // only in header/frame bytes.
        assert!(
            dot.dtls.abs_diff(doq.dtls) <= 4,
            "DoT {} vs DoQ {}",
            dot.dtls,
            doq.dtls
        );
    }

    /// The QUIC-lite session setup is one round trip: two flights,
    /// against DTLS's eight.
    #[test]
    fn quic_session_setup_is_one_rtt() {
        for kind in [
            TransportKind::Quic,
            TransportKind::DohLite,
            TransportKind::Dot,
        ] {
            let setup = session_setup(kind);
            assert_eq!(setup.len(), 2, "{kind:?}");
            assert_eq!(setup[0].label, "ClientInitial");
            assert_eq!(setup[1].label, "ServerHandshake");
            let dtls_flights = session_setup(TransportKind::Dtls).len();
            assert!(setup.len() < dtls_flights);
        }
    }

    #[test]
    fn dissection_totals_consistent() {
        for kind in [
            TransportKind::Udp,
            TransportKind::Dtls,
            TransportKind::Coap,
            TransportKind::Coaps,
            TransportKind::Oscore,
            TransportKind::Quic,
            TransportKind::DohLite,
            TransportKind::Dot,
        ] {
            for item in [
                PacketItem::Query,
                PacketItem::ResponseA,
                PacketItem::ResponseAaaa,
            ] {
                let d = dissect(kind, DocMethod::Fetch, item);
                assert_eq!(
                    d.total,
                    d.l2_sixlo + d.udp_payload(),
                    "{}: layer sum mismatch",
                    d.label
                );
                let plan = doc_sixlowpan::fragment_plan(d.udp_payload());
                assert_eq!(d.frames, plan.len());
            }
        }
    }
}
