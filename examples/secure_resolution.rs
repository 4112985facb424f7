//! Secure name resolution with OSCORE and with DTLS (CoAPS) — the two
//! security modes of the paper's §4.3 — including the session-setup
//! cost each one pays.
//!
//! ```sh
//! cargo run --example secure_resolution
//! ```

use doc_repro::coap::msg::Code;
use doc_repro::dns::{Message, Name, RecordType};
use doc_repro::doc::method::{build_request, DocMethod};
use doc_repro::doc::server::{DocServer, MockUpstream};
use doc_repro::doc::transport::{dns_query_bytes, session_setup, TransportKind};
use doc_repro::dtls::{run_handshake, DtlsConnection, DtlsEvent};
use doc_repro::oscore::context::SecurityContext;
use doc_repro::oscore::protect::OscoreEndpoint;
use doc_repro::time::Instant;

const PSK: &[u8] = b"123456789"; // 9-byte PSK, as in the paper

fn main() {
    let name = Name::parse("camera-3.things.example.org").expect("valid name");
    let query = dns_query_bytes(&name, RecordType::Aaaa);

    oscore_resolution(&name, &query);
    println!();
    dtls_resolution(&name, &query);
}

/// OSCORE: object security; the proxy-cacheable mode (Fig. 4b).
fn oscore_resolution(name: &Name, query: &[u8]) {
    println!("=== DNS over OSCORE ===");
    let secret = b"0123456789abcdef";
    let salt = b"example-salt";
    let mut client = OscoreEndpoint::new(SecurityContext::derive(secret, salt, b"C", b"S"), false);
    let mut server_osc =
        OscoreEndpoint::new(SecurityContext::derive(secret, salt, b"S", b"C"), false);
    let upstream = MockUpstream::new(2, 600, 600);
    upstream.add_aaaa(name.clone(), 1);
    let server = DocServer::new(doc_repro::doc::policy::CachePolicy::EolTtls, upstream);

    // Build the inner FETCH and protect it.
    let inner = build_request(
        DocMethod::Fetch,
        query,
        doc_repro::coap::msg::MsgType::Con,
        0x0101,
        vec![0xAA, 0x01],
    )
    .expect("request construction");
    let (outer, binding) = client.protect_request(&inner).expect("protect");
    println!(
        "-> outer CoAP {} ({} bytes; inner FETCH hidden, {} bytes overhead)",
        outer.code,
        outer.encoded_len(),
        outer.encoded_len() - inner.encoded_len()
    );

    // Server unprotects, resolves, protects the response.
    let (inner_at_server, s_binding) = server_osc.unprotect_request(&outer).expect("unprotect");
    let resp = server.handle_request(&inner_at_server, 0);
    let outer_resp = server_osc
        .protect_response(&resp, &s_binding, &outer)
        .expect("protect");
    println!(
        "<- outer CoAP {} ({} bytes; real code hidden)",
        outer_resp.code,
        outer_resp.encoded_len()
    );

    // Client unprotects and reads the answer.
    let inner_resp = client
        .unprotect_response(&outer_resp, &binding)
        .expect("unprotect");
    assert_eq!(inner_resp.code, Code::CONTENT);
    let msg = Message::decode(&inner_resp.payload).expect("valid DNS");
    println!(
        "   resolved {} answer(s); Max-Age {}",
        msg.answers.len(),
        inner_resp.max_age()
    );

    // Session setup: one Echo round trip (vs. the DTLS handshake).
    let setup = session_setup(TransportKind::Oscore);
    let setup_bytes: usize = setup.iter().map(|d| d.total).sum();
    println!(
        "   replay-window init: {} packets, {} bytes on air total",
        setup.len(),
        setup_bytes
    );
}

/// DTLS: transport security; needs the full handshake first.
fn dtls_resolution(name: &Name, query: &[u8]) {
    println!("=== DNS over DTLSv1.2 (PSK, AES-128-CCM-8) ===");
    let mut client = DtlsConnection::client(7, b"Client_identity", PSK);
    let mut server_dtls = DtlsConnection::server(8, PSK);

    // Handshake (8 flights).
    let trace = run_handshake(&mut client, &mut server_dtls);
    assert!(client.is_connected() && server_dtls.is_connected());
    for (label, len) in &trace {
        println!("   handshake: {label} ({len} bytes)");
    }
    let flights = trace.len();
    let bytes: usize = trace.iter().map(|(_, len)| len).sum();
    println!("   handshake complete: {flights} flights, {bytes} bytes");

    // Resolve over the established session.
    let upstream = MockUpstream::new(3, 600, 600);
    upstream.add_aaaa(name.clone(), 1);
    let record = client.send_application_data(query).expect("session up");
    println!(
        "-> DTLS record ({} bytes for a {}-byte DNS query)",
        record.len(),
        query.len()
    );
    let mut answer = None;
    for ev in server_dtls.handle_datagram(Instant::EPOCH, &record) {
        if let DtlsEvent::ApplicationData(dns_query) = ev {
            let q = Message::decode(&dns_query).expect("valid DNS");
            let resp = upstream.resolve(&q, 0);
            answer = Some(
                server_dtls
                    .send_application_data(&resp.encode())
                    .expect("session up"),
            );
        }
    }
    let record = answer.expect("server answered");
    for ev in client.handle_datagram(Instant::EPOCH, &record) {
        if let DtlsEvent::ApplicationData(dns_resp) = ev {
            let msg = Message::decode(&dns_resp).expect("valid DNS");
            println!(
                "<- DTLS record ({} bytes): {} answer(s), TTL {} s",
                record.len(),
                msg.answers.len(),
                msg.answers[0].ttl
            );
        }
    }
}
