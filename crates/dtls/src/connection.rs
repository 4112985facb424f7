//! A sans-IO DTLS 1.2 PSK connection: one type for both ends, its
//! role chosen at construction, as `doc_quic::Connection` is.
//!
//! Implements the cookie-exchange handshake of RFC 6347 §4.2 with the
//! PSK key exchange — the exact message sequence of the paper's Fig. 6
//! "Session setup" panel:
//!
//! ```text
//! C -> S  ClientHello
//! S -> C  HelloVerifyRequest
//! C -> S  ClientHello[Cookie]
//! S -> C  ServerHello
//! S -> C  ServerHelloDone
//! C -> S  ClientKeyExchange
//! C -> S  ChangeCipherSpec (+ Finished)
//! S -> C  ChangeCipherSpec + Finished
//! ```
//!
//! Key schedule per RFC 5246 §8.1 with the PSK premaster secret of RFC
//! 4279 §2; Finished verification over the SHA-256 transcript hash.
//! Each end keeps its last flight (RFC 6347 §4.2.4). The client resends
//! it on a timer with exponential back-off (initial 1 s) until the
//! peer's next flight arrives; either end resends it when the peer's
//! previous flight arrives again, so a lost server flight is recovered
//! too.

use crate::handshake::{
    ClientHello, ClientKeyExchangePsk, HelloVerifyRequest, HsMessage, HsType, ServerHello,
    TLS_PSK_WITH_AES_128_CCM_8, VERIFY_DATA_LEN,
};
use crate::record::{CipherState, ContentType, Record, RecordView};
use crate::DtlsError;
use doc_crypto::prf::{prf, psk_premaster_secret};
use doc_crypto::replay::ReplayWindow;
use doc_crypto::sha256::Sha256;
use doc_time::{Instant, Millis};

/// Records each connection's replay window spans (RFC 6347 §4.1.2.6).
const REPLAY_WINDOW_BITS: u32 = 64;
/// A flight's first retransmission timeout (RFC 6347 §4.2.4.1); it
/// doubles on every retry.
const INITIAL_TIMEOUT: Millis = Millis::from_millis(1000);
/// Retransmissions of one flight before the handshake fails.
const MAX_RETRIES: u32 = 6;

/// Events surfaced to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtlsEvent {
    /// Send this datagram to the peer. The label names the flight
    /// message for packet-size accounting (paper Fig. 6).
    Transmit {
        /// Encoded datagram (one or more DTLS records).
        datagram: Vec<u8>,
        /// Human-readable message name ("Client Hello", "Finished", …).
        label: &'static str,
    },
    /// The handshake completed.
    Connected,
    /// Decrypted application data arrived.
    ApplicationData(Vec<u8>),
    /// The handshake gave up after too many retransmissions.
    HandshakeFailed,
}

/// Connection role.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Client,
    /// The server keys its stateless cookies with this secret.
    Server {
        cookie_secret: [u8; 32],
    },
}

impl Role {
    /// The Finished labels (RFC 5246 §7.4.9): this end's, then the
    /// peer's.
    fn finished_labels(self) -> (&'static [u8], &'static [u8]) {
        match self {
            Role::Client => (b"client finished", b"server finished"),
            Role::Server { .. } => (b"server finished", b"client finished"),
        }
    }
}

/// Handshake progress. The states up to `AwaitServerHelloDone` are the
/// client's, `AwaitClientHello` and `AwaitClientKeyExchange` the
/// server's; both ends pass through the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Start,
    AwaitHelloVerify,
    AwaitServerHello,
    AwaitServerHelloDone,
    AwaitClientHello,
    AwaitClientKeyExchange,
    AwaitChangeCipher,
    AwaitFinished,
    Connected,
    Failed,
}

/// Shared session keying material and record protection state.
struct Session {
    master_secret: [u8; 48],
    write: Option<CipherState>,
    read: Option<CipherState>,
    /// Outgoing epoch/sequence.
    epoch: u16,
    seq: u64,
    /// Incoming replay protection (epoch 1).
    replay: ReplayWindow,
}

impl Session {
    fn new() -> Self {
        Session {
            master_secret: [0u8; 48],
            write: None,
            read: None,
            epoch: 0,
            seq: 0,
            replay: ReplayWindow::new(REPLAY_WINDOW_BITS),
        }
    }

    /// Derive the key block and install cipher states.
    /// `is_client` selects which half of the key block is "write".
    fn install_keys(
        &mut self,
        client_random: &[u8; 32],
        server_random: &[u8; 32],
        psk: &[u8],
        is_client: bool,
    ) {
        let premaster = psk_premaster_secret(psk);
        let mut seed = Vec::with_capacity(64);
        seed.extend_from_slice(client_random);
        seed.extend_from_slice(server_random);
        prf(&premaster, b"master secret", &seed, &mut self.master_secret);

        // key block: client_key(16) server_key(16) client_iv(4) server_iv(4)
        let mut key_seed = Vec::with_capacity(64);
        key_seed.extend_from_slice(server_random);
        key_seed.extend_from_slice(client_random);
        let mut block = [0u8; 40];
        prf(&self.master_secret, b"key expansion", &key_seed, &mut block);
        let client_key: [u8; 16] = block[0..16].try_into().expect("16");
        let server_key: [u8; 16] = block[16..32].try_into().expect("16");
        let client_iv: [u8; 4] = block[32..36].try_into().expect("4");
        let server_iv: [u8; 4] = block[36..40].try_into().expect("4");
        if is_client {
            self.write = Some(CipherState::new(&client_key, client_iv));
            self.read = Some(CipherState::new(&server_key, server_iv));
        } else {
            self.write = Some(CipherState::new(&server_key, server_iv));
            self.read = Some(CipherState::new(&client_key, client_iv));
        }
    }

    /// Frame `body` as this end's next record of `ctype`, sealed once
    /// the epoch is 1.
    fn record(&mut self, ctype: ContentType, body: &[u8]) -> Result<Vec<u8>, DtlsError> {
        let epoch = self.epoch;
        let seq = self.next_seq();
        let payload = if epoch == 0 {
            body.to_vec()
        } else {
            self.write
                .as_ref()
                .ok_or(DtlsError::NotConnected)?
                .seal(ctype, epoch, seq, body)?
        };
        Ok(Record {
            ctype,
            epoch,
            seq,
            payload,
        }
        .encode())
    }

    /// Open a protected (epoch ≥ 1) record, and only once it has
    /// authenticated mark its sequence number seen (RFC 6347
    /// §4.1.2.6): a forged record never moves the replay window.
    fn open(&mut self, rec: &RecordView<'_>) -> Result<Vec<u8>, DtlsError> {
        let plain = self
            .read
            .as_ref()
            .ok_or(DtlsError::UnexpectedMessage)?
            .open(rec.ctype, rec.epoch, rec.seq, rec.payload)?;
        if !self.replay.check_and_update(rec.seq) {
            return Err(DtlsError::Replay);
        }
        Ok(plain)
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn verify_data(&self, label: &[u8], transcript_hash: &[u8; 32]) -> [u8; VERIFY_DATA_LEN] {
        let mut out = [0u8; VERIFY_DATA_LEN];
        prf(&self.master_secret, label, transcript_hash, &mut out);
        out
    }
}

/// This end's last flight, kept to be sent again (RFC 6347 §4.2.4).
struct Flight {
    datagrams: Vec<(Vec<u8>, &'static str)>,
    /// The first message of the peer flight this one answers: when it
    /// arrives again, this flight was lost.
    answers: Option<HsType>,
    /// When the client resends unprompted; a server only resends when
    /// prompted.
    deadline: Option<Instant>,
    timeout: Millis,
    retries: u32,
}

impl Flight {
    fn transmits(&self) -> Vec<DtlsEvent> {
        self.datagrams
            .iter()
            .map(|(datagram, label)| DtlsEvent::Transmit {
                datagram: datagram.clone(),
                label,
            })
            .collect()
    }
}

fn rand32(state: &mut u64) -> [u8; 32] {
    let mut out = [0u8; 32];
    for chunk in out.chunks_mut(8) {
        let mut x = *state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *state = x;
        chunk.copy_from_slice(&x.wrapping_mul(0x2545F4914F6CDD1D).to_be_bytes());
    }
    out
}

/// One end of a DTLS 1.2 PSK connection.
pub struct DtlsConnection {
    role: Role,
    state: State,
    psk: Vec<u8>,
    /// The PSK identity: the client's own; the server learns it from
    /// the ClientKeyExchange.
    identity: Vec<u8>,
    session: Session,
    transcript: Vec<u8>,
    client_random: [u8; 32],
    server_random: [u8; 32],
    msg_seq: u16,
    flight: Flight,
}

impl DtlsConnection {
    fn new(role: Role, psk: &[u8], identity: &[u8]) -> Self {
        DtlsConnection {
            role,
            state: match role {
                Role::Client => State::Start,
                Role::Server { .. } => State::AwaitClientHello,
            },
            psk: psk.to_vec(),
            identity: identity.to_vec(),
            session: Session::new(),
            transcript: Vec::new(),
            client_random: [0u8; 32],
            server_random: [0u8; 32],
            msg_seq: 0,
            flight: Flight {
                datagrams: Vec::new(),
                answers: None,
                deadline: None,
                timeout: INITIAL_TIMEOUT,
                retries: 0,
            },
        }
    }

    /// A client for the given PSK identity/key.
    pub fn client(seed: u64, identity: &[u8], psk: &[u8]) -> Self {
        let mut rng = seed | 1;
        DtlsConnection {
            client_random: rand32(&mut rng),
            ..DtlsConnection::new(Role::Client, psk, identity)
        }
    }

    /// A server endpoint (one per client endpoint) with the given PSK.
    pub fn server(seed: u64, psk: &[u8]) -> Self {
        let mut rng = seed | 1;
        let cookie_secret = rand32(&mut rng);
        DtlsConnection {
            server_random: rand32(&mut rng),
            ..DtlsConnection::new(Role::Server { cookie_secret }, psk, &[])
        }
    }

    /// Whether the handshake has completed.
    pub fn is_connected(&self) -> bool {
        self.state == State::Connected
    }

    /// Begin the handshake (client only): emits the first ClientHello.
    pub fn start(&mut self, now: Instant) -> Vec<DtlsEvent> {
        assert_eq!(
            self.state,
            State::Start,
            "start() on a server or called twice"
        );
        let hello = self.client_hello(Vec::new());
        let datagram = self.hs_record(HsType::ClientHello, hello).expect("epoch 0");
        self.state = State::AwaitHelloVerify;
        self.send_flight(now, vec![(datagram, "Client Hello")], None)
    }

    fn client_hello(&self, cookie: Vec<u8>) -> Vec<u8> {
        ClientHello {
            random: self.client_random,
            cookie,
            cipher_suites: vec![TLS_PSK_WITH_AES_128_CCM_8],
        }
        .encode()
    }

    fn take_msg_seq(&mut self) -> u16 {
        let s = self.msg_seq;
        self.msg_seq += 1;
        s
    }

    fn transcript_hash(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&self.transcript);
        h.finalize()
    }

    /// Frame this end's next handshake message as a record and add it
    /// to the transcript.
    fn hs_record(&mut self, htype: HsType, body: Vec<u8>) -> Result<Vec<u8>, DtlsError> {
        let msg = HsMessage {
            htype,
            message_seq: self.take_msg_seq(),
            body,
        }
        .encode();
        self.transcript.extend_from_slice(&msg);
        self.session.record(ContentType::Handshake, &msg)
    }

    fn install_keys(&mut self) {
        self.session.install_keys(
            &self.client_random,
            &self.server_random,
            &self.psk,
            self.role == Role::Client,
        );
    }

    /// ChangeCipherSpec, the switch to epoch 1, then this end's
    /// Finished under the new keys: one datagram.
    fn finished_flight(&mut self) -> Result<Vec<u8>, DtlsError> {
        let mut datagram = self.session.record(ContentType::ChangeCipherSpec, &[1])?;
        self.session.epoch = 1;
        self.session.seq = 0;
        let (label, _) = self.role.finished_labels();
        let verify_data = self.session.verify_data(label, &self.transcript_hash());
        datagram.extend_from_slice(&self.hs_record(HsType::Finished, verify_data.to_vec())?);
        Ok(datagram)
    }

    /// Send `datagrams` as this end's flight and keep them until the
    /// next one, to resend when the peer's `answers` arrives again; a
    /// client also arms its timer.
    fn send_flight(
        &mut self,
        now: Instant,
        datagrams: Vec<(Vec<u8>, &'static str)>,
        answers: Option<HsType>,
    ) -> Vec<DtlsEvent> {
        self.flight = Flight {
            datagrams,
            answers,
            deadline: (self.role == Role::Client).then_some(now + INITIAL_TIMEOUT),
            timeout: INITIAL_TIMEOUT,
            retries: 0,
        };
        self.flight.transmits()
    }

    /// Encrypt and frame application data (requires a completed
    /// handshake).
    pub fn send_application_data(&mut self, data: &[u8]) -> Result<Vec<u8>, DtlsError> {
        if self.state != State::Connected {
            return Err(DtlsError::NotConnected);
        }
        self.session.record(ContentType::ApplicationData, data)
    }

    /// Process an incoming datagram. Records are walked as borrowed
    /// [`RecordView`]s — payloads are only copied out of the datagram
    /// by decryption (or epoch-0 handshake reassembly).
    pub fn handle_datagram(&mut self, now: Instant, datagram: &[u8]) -> Vec<DtlsEvent> {
        let Ok(records) = RecordView::iter(datagram).collect::<Result<Vec<_>, _>>() else {
            return Vec::new();
        };
        let mut events = Vec::new();
        for rec in records {
            // A bad record is dropped.
            if let Ok(mut evs) = self.handle_record(now, rec) {
                events.append(&mut evs);
            }
        }
        events
    }

    fn handle_record(
        &mut self,
        now: Instant,
        rec: RecordView<'_>,
    ) -> Result<Vec<DtlsEvent>, DtlsError> {
        match rec.ctype {
            ContentType::Handshake => {
                let body = if rec.epoch == 0 {
                    rec.payload.to_vec()
                } else {
                    self.session.open(&rec)?
                };
                let (msg, _) = HsMessage::decode(&body)?;
                self.handle_handshake(now, msg)
            }
            ContentType::ChangeCipherSpec => {
                if self.state != State::AwaitChangeCipher {
                    return Err(DtlsError::UnexpectedMessage);
                }
                self.state = State::AwaitFinished;
                Ok(Vec::new())
            }
            ContentType::ApplicationData => {
                if self.state != State::Connected {
                    return Err(DtlsError::NotConnected);
                }
                Ok(vec![DtlsEvent::ApplicationData(self.session.open(&rec)?)])
            }
            ContentType::Alert => Ok(Vec::new()),
        }
    }

    fn handle_handshake(
        &mut self,
        now: Instant,
        msg: HsMessage,
    ) -> Result<Vec<DtlsEvent>, DtlsError> {
        match (self.state, msg.htype) {
            // Client, flight 3: the ClientHello echoing the cookie.
            (State::AwaitHelloVerify, HsType::HelloVerifyRequest) => {
                let hv = HelloVerifyRequest::decode(&msg.body)?;
                // The first ClientHello and the HelloVerifyRequest stay
                // out of the transcript (RFC 6347 §4.2.6).
                self.transcript.clear();
                let hello = self.client_hello(hv.cookie);
                let datagram = self.hs_record(HsType::ClientHello, hello)?;
                self.state = State::AwaitServerHello;
                let flight = vec![(datagram, "Client Hello [Cookie]")];
                Ok(self.send_flight(now, flight, Some(HsType::HelloVerifyRequest)))
            }
            (State::AwaitServerHello, HsType::ServerHello) => {
                let sh = ServerHello::decode(&msg.body)?;
                if sh.cipher_suite != TLS_PSK_WITH_AES_128_CCM_8 {
                    self.state = State::Failed;
                    return Err(DtlsError::BadCipherSuite);
                }
                self.server_random = sh.random;
                self.transcript.extend_from_slice(&msg.encode());
                self.state = State::AwaitServerHelloDone;
                Ok(Vec::new())
            }
            // Client, flight 5: ClientKeyExchange + CCS + Finished.
            (State::AwaitServerHelloDone, HsType::ServerHelloDone) => {
                self.transcript.extend_from_slice(&msg.encode());
                let cke = ClientKeyExchangePsk {
                    identity: self.identity.clone(),
                }
                .encode();
                let cke = self.hs_record(HsType::ClientKeyExchange, cke)?;
                // Derive keys now that both randoms are known.
                self.install_keys();
                let fin = self.finished_flight()?;
                self.state = State::AwaitChangeCipher;
                let flight = vec![(cke, "Client Key Exchange"), (fin, "Change Cipher Spec")];
                Ok(self.send_flight(now, flight, Some(HsType::ServerHello)))
            }
            (State::AwaitClientHello, HsType::ClientHello) => {
                let Role::Server { cookie_secret } = self.role else {
                    return Err(DtlsError::UnexpectedMessage);
                };
                let ch = ClientHello::decode(&msg.body)?;
                if !ch.cipher_suites.contains(&TLS_PSK_WITH_AES_128_CCM_8) {
                    return Err(DtlsError::BadCipherSuite);
                }
                let cookie =
                    doc_crypto::hmac::hmac_sha256(&cookie_secret, &ch.random)[..16].to_vec();
                if ch.cookie.is_empty() {
                    // Flight 2: a stateless HelloVerifyRequest. It reuses
                    // the incoming message_seq (RFC 6347 §4.2.1) and is
                    // neither in the transcript nor kept.
                    let hv = HsMessage {
                        htype: HsType::HelloVerifyRequest,
                        message_seq: msg.message_seq,
                        body: HelloVerifyRequest { cookie }.encode(),
                    };
                    let datagram = self.session.record(ContentType::Handshake, &hv.encode())?;
                    return Ok(vec![DtlsEvent::Transmit {
                        datagram,
                        label: "Hello Verify Request",
                    }]);
                }
                if ch.cookie != cookie {
                    return Err(DtlsError::BadCookie);
                }
                // Server, flight 4. The valid second ClientHello starts
                // the transcript.
                self.client_random = ch.random;
                self.transcript.extend_from_slice(&msg.encode());
                self.msg_seq = msg.message_seq + 1;
                let sh = ServerHello {
                    random: self.server_random,
                    cipher_suite: TLS_PSK_WITH_AES_128_CCM_8,
                }
                .encode();
                let sh = self.hs_record(HsType::ServerHello, sh)?;
                let shd = self.hs_record(HsType::ServerHelloDone, Vec::new())?;
                self.state = State::AwaitClientKeyExchange;
                let flight = vec![(sh, "Server Hello"), (shd, "Server Hello Done")];
                Ok(self.send_flight(now, flight, Some(HsType::ClientHello)))
            }
            (State::AwaitClientKeyExchange, HsType::ClientKeyExchange) => {
                self.identity = ClientKeyExchangePsk::decode(&msg.body)?.identity;
                self.transcript.extend_from_slice(&msg.encode());
                self.install_keys();
                self.state = State::AwaitChangeCipher;
                Ok(Vec::new())
            }
            (State::AwaitFinished, HsType::Finished) => {
                let (_, peer_label) = self.role.finished_labels();
                let expect = self
                    .session
                    .verify_data(peer_label, &self.transcript_hash());
                if !doc_crypto::ct_eq(&expect, &msg.body) {
                    self.state = State::Failed;
                    return Err(DtlsError::BadFinished);
                }
                let mut events = match self.role {
                    Role::Client => {
                        self.flight.deadline = None;
                        Vec::new()
                    }
                    // Server, flight 6: CCS + Finished.
                    Role::Server { .. } => {
                        self.transcript.extend_from_slice(&msg.encode());
                        let fin = self.finished_flight()?;
                        let answers = Some(HsType::ClientKeyExchange);
                        self.send_flight(now, vec![(fin, "Finish")], answers)
                    }
                };
                self.state = State::Connected;
                events.push(DtlsEvent::Connected);
                Ok(events)
            }
            // The peer sent the flight ours answers again, so ours was
            // lost: resend it (RFC 6347 §4.2.4). A resent Finished is
            // dropped as a replay before it gets here, so the trigger
            // is its flight's first, epoch-0 message.
            (state, htype) if state != State::Failed && self.flight.answers == Some(htype) => {
                Ok(self.flight.transmits())
            }
            // Other repeats and strays are ignored.
            _ => Ok(Vec::new()),
        }
    }

    /// Advance the retransmission timer.
    pub fn poll(&mut self, now: Instant) -> Vec<DtlsEvent> {
        if self.flight.deadline.is_none_or(|at| now < at) {
            return Vec::new();
        }
        if self.flight.retries >= MAX_RETRIES {
            self.flight.deadline = None;
            self.state = State::Failed;
            return vec![DtlsEvent::HandshakeFailed];
        }
        self.flight.retries += 1;
        self.flight.timeout = self.flight.timeout * 2;
        self.flight.deadline = Some(now + self.flight.timeout);
        self.flight.transmits()
    }

    /// Earliest pending timer.
    pub fn next_timeout(&self) -> Option<Instant> {
        self.flight.deadline
    }
}

/// Upper bound on the round trips [`run_handshake`] delivers; a PSK
/// handshake needs three.
const HANDSHAKE_ROUNDS: usize = 10;

/// Run a loopback handshake at time 0: start `client`, then deliver
/// each side's datagrams to the other until none is in flight (at most
/// [`HANDSHAKE_ROUNDS`] round trips). Returns the `(label, length)` of
/// every datagram sent, in send order — the Fig. 6 "Session setup"
/// trace. Whether the handshake completed is the caller's to check
/// with `is_connected`: on a Finished mismatch it stops with nothing
/// in flight and neither end connected.
pub fn run_handshake(
    client: &mut DtlsConnection,
    server: &mut DtlsConnection,
) -> Vec<(&'static str, usize)> {
    let now = Instant::EPOCH;
    let mut trace = Vec::new();
    let mut in_flight = transmits(client.start(now), &mut trace);
    for _ in 0..HANDSHAKE_ROUNDS {
        if in_flight.is_empty() {
            break;
        }
        let events = in_flight
            .iter()
            .flat_map(|d| server.handle_datagram(now, d))
            .collect();
        let replies = transmits(events, &mut trace);
        let events = replies
            .iter()
            .flat_map(|d| client.handle_datagram(now, d))
            .collect();
        in_flight = transmits(events, &mut trace);
    }
    trace
}

/// The datagrams of `events`' transmits, each recorded in `trace`.
fn transmits(events: Vec<DtlsEvent>, trace: &mut Vec<(&'static str, usize)>) -> Vec<Vec<u8>> {
    events
        .into_iter()
        .filter_map(|ev| match ev {
            DtlsEvent::Transmit { datagram, label } => {
                trace.push((label, datagram.len()));
                Some(datagram)
            }
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    const PSK: &[u8] = b"123456789"; // 9 bytes, as in the paper
    const IDENTITY: &[u8] = b"Client_ID";
    const T0: Instant = Instant::EPOCH;

    /// Run a full loopback handshake, returning both endpoints and the
    /// labeled datagram trace.
    fn handshake() -> (DtlsConnection, DtlsConnection, Vec<(&'static str, usize)>) {
        let mut client = DtlsConnection::client(11, IDENTITY, PSK);
        let mut server = DtlsConnection::server(22, PSK);
        let trace = run_handshake(&mut client, &mut server);
        assert!(
            client.is_connected() && server.is_connected(),
            "handshake did not complete"
        );
        (client, server, trace)
    }

    #[test]
    fn full_handshake_completes() {
        let (client, server, trace) = handshake();
        assert!(client.is_connected());
        assert!(server.is_connected());
        // Fig. 6 message sequence.
        let labels: Vec<&str> = trace.iter().map(|(l, _)| *l).collect();
        assert_eq!(
            labels,
            vec![
                "Client Hello",
                "Hello Verify Request",
                "Client Hello [Cookie]",
                "Server Hello",
                "Server Hello Done",
                "Client Key Exchange",
                "Change Cipher Spec",
                "Finish",
            ]
        );
        assert_eq!(server.identity, IDENTITY);
    }

    #[test]
    fn application_data_both_directions() {
        let (mut client, mut server, _) = handshake();
        let d = client.send_application_data(b"dns query").unwrap();
        let evs = server.handle_datagram(T0, &d);
        assert_eq!(evs, vec![DtlsEvent::ApplicationData(b"dns query".to_vec())]);
        let d = server.send_application_data(b"dns response").unwrap();
        let evs = client.handle_datagram(T0, &d);
        assert_eq!(
            evs,
            vec![DtlsEvent::ApplicationData(b"dns response".to_vec())]
        );
    }

    #[test]
    fn replayed_application_record_dropped() {
        let (mut client, mut server, _) = handshake();
        let d = client.send_application_data(b"once").unwrap();
        assert_eq!(server.handle_datagram(T0, &d).len(), 1);
        assert_eq!(server.handle_datagram(T0, &d).len(), 0);
    }

    #[test]
    fn tampered_record_dropped() {
        let (mut client, mut server, _) = handshake();
        let mut d = client.send_application_data(b"secret").unwrap();
        let n = d.len();
        d[n - 1] ^= 0xFF;
        assert!(server.handle_datagram(T0, &d).is_empty());
    }

    #[test]
    fn wrong_psk_fails_finished() {
        let mut client = DtlsConnection::client(1, IDENTITY, b"123456789");
        let mut server = DtlsConnection::server(2, b"987654321");
        let trace = run_handshake(&mut client, &mut server);
        // The server rejects the client's Finished and answers nothing.
        assert_eq!(trace.last().map(|(l, _)| *l), Some("Change Cipher Spec"));
        assert!(!server.is_connected());
        assert!(!client.is_connected());
    }

    #[test]
    fn bad_cookie_rejected() {
        let mut client = DtlsConnection::client(5, IDENTITY, PSK);
        let mut server = DtlsConnection::server(6, PSK);
        let first = match &client.start(T0)[0] {
            DtlsEvent::Transmit { datagram, .. } => datagram.clone(),
            _ => unreachable!(),
        };
        let hv = &server.handle_datagram(T0, &first)[0];
        let hv_datagram = match hv {
            DtlsEvent::Transmit { datagram, .. } => datagram.clone(),
            _ => unreachable!(),
        };
        // Corrupt the cookie before delivering to the client.
        let mut bad = hv_datagram.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        let evs = client.handle_datagram(T0, &bad);
        // Client echoes the corrupted cookie; server rejects silently.
        if let Some(DtlsEvent::Transmit { datagram, .. }) = evs.first() {
            assert!(server.handle_datagram(T0, datagram).is_empty());
        }
        assert!(!server.is_connected());
    }

    #[test]
    fn client_retransmits_lost_flight() {
        let mut client = DtlsConnection::client(7, IDENTITY, PSK);
        let evs = client.start(T0);
        assert_eq!(evs.len(), 1);
        // Nothing arrives; time passes beyond the 1 s initial timeout.
        let t = client.next_timeout().unwrap();
        assert_eq!(t, Instant::from_millis(1000));
        let evs = client.poll(Instant::from_millis(1000));
        assert_eq!(evs.len(), 1);
        assert!(matches!(
            evs[0],
            DtlsEvent::Transmit {
                label: "Client Hello",
                ..
            }
        ));
        // Back-off doubles.
        assert_eq!(
            client.next_timeout().unwrap(),
            Instant::from_millis(1000 + 2000)
        );
    }

    #[test]
    fn handshake_gives_up_eventually() {
        let mut client = DtlsConnection::client(8, IDENTITY, PSK);
        client.start(T0);
        let mut failed = false;
        for _ in 0..20 {
            let now = match client.next_timeout() {
                Some(t) => t,
                None => break,
            };
            for ev in client.poll(now) {
                if ev == DtlsEvent::HandshakeFailed {
                    failed = true;
                }
            }
            if failed {
                break;
            }
        }
        assert!(failed);
    }

    /// RFC 6347 §4.2.4: whichever handshake datagram is lost once, the
    /// client's timer and each end's resending of its last flight when
    /// the peer's previous one comes again still connect both ends.
    #[test]
    fn each_lost_handshake_datagram_is_recovered() {
        for lost in 0..8 {
            let mut client = DtlsConnection::client(41, IDENTITY, PSK);
            let mut server = DtlsConnection::server(42, PSK);
            let mut now = T0;
            // (bound for the server, datagram), in send order.
            let mut wire: VecDeque<(bool, Vec<u8>)> = transmits(client.start(now), &mut Vec::new())
                .into_iter()
                .map(|d| (true, d))
                .collect();
            let mut sent = 0;
            for _ in 0..100 {
                let Some((to_server, datagram)) = wire.pop_front() else {
                    // Nothing in flight: let the client's timer run.
                    let Some(at) = client.next_timeout() else {
                        break;
                    };
                    now = at;
                    let resent = transmits(client.poll(now), &mut Vec::new());
                    wire.extend(resent.into_iter().map(|d| (true, d)));
                    continue;
                };
                sent += 1;
                if sent == lost + 1 {
                    continue;
                }
                let to = if to_server { &mut server } else { &mut client };
                let replies = transmits(to.handle_datagram(now, &datagram), &mut Vec::new());
                wire.extend(replies.into_iter().map(|d| (!to_server, d)));
            }
            assert!(
                client.is_connected() && server.is_connected(),
                "datagram {lost} lost"
            );
        }
    }

    #[test]
    fn app_data_before_handshake_fails() {
        let mut client = DtlsConnection::client(9, IDENTITY, PSK);
        assert_eq!(
            client.send_application_data(b"x"),
            Err(DtlsError::NotConnected)
        );
    }

    #[test]
    fn handshake_sizes_reported() {
        // The Fig. 6 "Session setup" bars: sanity-check the per-message
        // UDP payload sizes are in the right regime (tens of bytes, the
        // ClientHello around 55-75 bytes).
        let (_, _, trace) = handshake();
        let get = |label: &str| {
            trace
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, s)| *s)
                .unwrap()
        };
        let ch = get("Client Hello");
        assert!((50..=90).contains(&ch), "ClientHello size {ch}");
        let ch2 = get("Client Hello [Cookie]");
        assert_eq!(ch2, ch + 16, "cookie adds 16 bytes");
        let fin = get("Finish");
        // CCS record (14) + encrypted Finished (13 hdr + 16 nonce/tag +
        // 24 handshake msg) = 67.
        assert!((50..=90).contains(&fin), "server Finished flight {fin}");
    }

    #[test]
    fn duplicate_server_hello_ignored() {
        let mut client = DtlsConnection::client(31, IDENTITY, PSK);
        let mut server = DtlsConnection::server(32, PSK);
        let d0 = match &client.start(T0)[0] {
            DtlsEvent::Transmit { datagram, .. } => datagram.clone(),
            _ => unreachable!(),
        };
        let hv = match &server.handle_datagram(T0, &d0)[0] {
            DtlsEvent::Transmit { datagram, .. } => datagram.clone(),
            _ => unreachable!(),
        };
        let ch2 = match &client.handle_datagram(T0, &hv)[0] {
            DtlsEvent::Transmit { datagram, .. } => datagram.clone(),
            _ => unreachable!(),
        };
        let server_flight: Vec<Vec<u8>> = server
            .handle_datagram(T0, &ch2)
            .into_iter()
            .filter_map(|e| match e {
                DtlsEvent::Transmit { datagram, .. } => Some(datagram),
                _ => None,
            })
            .collect();
        // Deliver ServerHello twice: the duplicate must not disturb the
        // state machine.
        client.handle_datagram(T0, &server_flight[0]);
        let evs = client.handle_datagram(T0, &server_flight[0]);
        assert!(evs.is_empty());
        let evs = client.handle_datagram(T0, &server_flight[1]);
        assert!(!evs.is_empty(), "handshake continues after duplicate");
    }

    /// A copy of the one-record datagram `genuine` claiming sequence
    /// number `00 00 00 00 10 00`, far ahead of the window, with its
    /// tag broken.
    fn forged_future(genuine: &[u8]) -> Vec<u8> {
        let mut forged = genuine.to_vec();
        forged[5..11].copy_from_slice(&[0, 0, 0, 0, 0x10, 0]);
        let n = forged.len();
        forged[n - 1] ^= 0xFF;
        forged
    }

    /// A forged far-future record fails authentication before it can
    /// slide the receiver's window, so the genuine record still
    /// arrives. `to_server` picks the receive side: the server's, or
    /// the client's.
    fn forged_future_record_leaves_window_alone(to_server: bool, data: &[u8]) {
        let (mut client, mut server, _) = handshake();
        let (sender, receiver) = if to_server {
            (&mut client, &mut server)
        } else {
            (&mut server, &mut client)
        };
        let genuine = sender.send_application_data(data).unwrap();
        assert!(receiver
            .handle_datagram(T0, &forged_future(&genuine))
            .is_empty());
        assert_eq!(
            receiver.handle_datagram(T0, &genuine),
            vec![DtlsEvent::ApplicationData(data.to_vec())]
        );
    }

    #[test]
    fn forged_future_record_leaves_server_window_alone() {
        forged_future_record_leaves_window_alone(true, b"query");
    }

    #[test]
    fn forged_future_record_leaves_client_window_alone() {
        forged_future_record_leaves_window_alone(false, b"answer");
    }
}
