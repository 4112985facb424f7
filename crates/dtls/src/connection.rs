//! Sans-IO DTLS 1.2 PSK client and server connections.
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
//! Flights are retransmitted with exponential back-off (initial 1 s)
//! until acknowledged by progress, per RFC 6347 §4.2.4.

use crate::handshake::{
    ClientHello, ClientKeyExchangePsk, HelloVerifyRequest, HsMessage, HsType, ServerHello,
    TLS_PSK_WITH_AES_128_CCM_8, VERIFY_DATA_LEN,
};
use crate::record::{CipherState, ContentType, Record, RecordView};
use crate::DtlsError;
use doc_crypto::prf::{prf, psk_premaster_secret};
use doc_crypto::replay::ReplayWindow;
use doc_crypto::sha256::Sha256;

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    Start,
    AwaitHelloVerify,
    AwaitServerHello,
    AwaitServerHelloDone,
    AwaitChangeCipher,
    AwaitFinished,
    Connected,
    Failed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerState {
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
    fn new(replay_window_bits: u32) -> Self {
        Session {
            master_secret: [0u8; 48],
            write: None,
            read: None,
            epoch: 0,
            seq: 0,
            replay: ReplayWindow::new(replay_window_bits),
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

/// Flight retransmission bookkeeping (RFC 6347 §4.2.4).
struct FlightTimer {
    datagrams: Vec<(Vec<u8>, &'static str)>,
    timeout_at: u64,
    backoff_ms: u64,
    retries: u32,
    max_retries: u32,
    armed: bool,
}

impl FlightTimer {
    fn new() -> Self {
        FlightTimer {
            datagrams: Vec::new(),
            timeout_at: 0,
            backoff_ms: 1000,
            retries: 0,
            max_retries: 6,
            armed: false,
        }
    }

    fn arm(&mut self, now: u64, datagrams: Vec<(Vec<u8>, &'static str)>) {
        self.datagrams = datagrams;
        self.backoff_ms = 1000;
        self.retries = 0;
        self.timeout_at = now + self.backoff_ms;
        self.armed = true;
    }

    fn disarm(&mut self) {
        self.armed = false;
    }

    fn poll(&mut self, now: u64) -> Option<Vec<(Vec<u8>, &'static str)>> {
        if !self.armed || now < self.timeout_at {
            return None;
        }
        if self.retries >= self.max_retries {
            self.armed = false;
            return Some(Vec::new()); // signal failure with empty flight
        }
        self.retries += 1;
        self.backoff_ms *= 2;
        self.timeout_at = now + self.backoff_ms;
        Some(self.datagrams.clone())
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

/// Wrap a handshake message in an (optionally encrypted) record.
fn hs_record(session: &mut Session, msg: &HsMessage) -> Result<Record, DtlsError> {
    let body = msg.encode();
    let epoch = session.epoch;
    let seq = session.next_seq();
    let payload = if epoch == 0 {
        body
    } else {
        session
            .write
            .as_ref()
            .ok_or(DtlsError::NotConnected)?
            .seal(ContentType::Handshake, epoch, seq, &body)?
    };
    Ok(Record {
        ctype: ContentType::Handshake,
        epoch,
        seq,
        payload,
    })
}

/// A DTLS 1.2 PSK client connection.
pub struct DtlsClient {
    state: ClientState,
    psk: Vec<u8>,
    identity: Vec<u8>,
    session: Session,
    transcript: Vec<u8>,
    client_random: [u8; 32],
    server_random: [u8; 32],
    msg_seq: u16,
    timer: FlightTimer,
}

impl DtlsClient {
    /// Create a client for the given PSK identity/key.
    pub fn new(seed: u64, identity: &[u8], psk: &[u8]) -> Self {
        let mut rng = seed | 1;
        let client_random = rand32(&mut rng);
        let _ = rng;
        DtlsClient {
            state: ClientState::Start,
            psk: psk.to_vec(),
            identity: identity.to_vec(),
            session: Session::new(64),
            transcript: Vec::new(),
            client_random,
            server_random: [0u8; 32],
            msg_seq: 0,
            timer: FlightTimer::new(),
        }
    }

    /// Whether the handshake has completed.
    pub fn is_connected(&self) -> bool {
        self.state == ClientState::Connected
    }

    /// Begin the handshake: emits the first ClientHello.
    pub fn start(&mut self, now: u64) -> Vec<DtlsEvent> {
        assert_eq!(self.state, ClientState::Start, "start() called twice");
        let ch = ClientHello {
            random: self.client_random,
            cookie: Vec::new(),
            cipher_suites: vec![TLS_PSK_WITH_AES_128_CCM_8],
        };
        let msg = HsMessage {
            htype: HsType::ClientHello,
            message_seq: self.take_msg_seq(),
            body: ch.encode(),
        };
        // Initial ClientHello/HelloVerifyRequest are NOT in the
        // transcript (RFC 6347 §4.2.1).
        let rec = hs_record(&mut self.session, &msg).expect("epoch 0");
        let datagram = rec.encode();
        self.state = ClientState::AwaitHelloVerify;
        self.timer
            .arm(now, vec![(datagram.clone(), "Client Hello")]);
        vec![DtlsEvent::Transmit {
            datagram,
            label: "Client Hello",
        }]
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

    /// Encrypt and frame application data (requires a completed
    /// handshake).
    pub fn send_application_data(&mut self, data: &[u8]) -> Result<Vec<u8>, DtlsError> {
        if self.state != ClientState::Connected {
            return Err(DtlsError::NotConnected);
        }
        let epoch = self.session.epoch;
        let seq = self.session.next_seq();
        let payload = self.session.write.as_ref().expect("connected").seal(
            ContentType::ApplicationData,
            epoch,
            seq,
            data,
        )?;
        Ok(Record {
            ctype: ContentType::ApplicationData,
            epoch,
            seq,
            payload,
        }
        .encode())
    }

    /// Process an incoming datagram. Records are walked as borrowed
    /// [`RecordView`]s — payloads are only copied out of the datagram
    /// by decryption (or epoch-0 handshake reassembly).
    pub fn handle_datagram(&mut self, now: u64, datagram: &[u8]) -> Vec<DtlsEvent> {
        let Ok(records) = RecordView::iter(datagram).collect::<Result<Vec<_>, _>>() else {
            return Vec::new();
        };
        let mut events = Vec::new();
        for rec in records {
            match self.handle_record(now, rec) {
                Ok(mut evs) => events.append(&mut evs),
                Err(_) => { /* drop bad record */ }
            }
        }
        events
    }

    fn handle_record(
        &mut self,
        now: u64,
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
                if self.state != ClientState::AwaitChangeCipher {
                    return Err(DtlsError::UnexpectedMessage);
                }
                self.state = ClientState::AwaitFinished;
                Ok(Vec::new())
            }
            ContentType::ApplicationData => {
                if self.state != ClientState::Connected {
                    return Err(DtlsError::NotConnected);
                }
                Ok(vec![DtlsEvent::ApplicationData(self.session.open(&rec)?)])
            }
            ContentType::Alert => Ok(Vec::new()),
        }
    }

    fn handle_handshake(&mut self, now: u64, msg: HsMessage) -> Result<Vec<DtlsEvent>, DtlsError> {
        match (self.state, msg.htype) {
            (ClientState::AwaitHelloVerify, HsType::HelloVerifyRequest) => {
                let hv = HelloVerifyRequest::decode(&msg.body)?;
                let ch = ClientHello {
                    random: self.client_random,
                    cookie: hv.cookie,
                    cipher_suites: vec![TLS_PSK_WITH_AES_128_CCM_8],
                };
                let hs = HsMessage {
                    htype: HsType::ClientHello,
                    message_seq: self.take_msg_seq(),
                    body: ch.encode(),
                };
                self.transcript.extend_from_slice(&hs.encode());
                let rec = hs_record(&mut self.session, &hs)?;
                let datagram = rec.encode();
                self.state = ClientState::AwaitServerHello;
                self.timer
                    .arm(now, vec![(datagram.clone(), "Client Hello [Cookie]")]);
                Ok(vec![DtlsEvent::Transmit {
                    datagram,
                    label: "Client Hello [Cookie]",
                }])
            }
            (ClientState::AwaitServerHello, HsType::ServerHello) => {
                let sh = ServerHello::decode(&msg.body)?;
                if sh.cipher_suite != TLS_PSK_WITH_AES_128_CCM_8 {
                    self.state = ClientState::Failed;
                    return Err(DtlsError::BadCipherSuite);
                }
                self.server_random = sh.random;
                self.transcript.extend_from_slice(&msg.encode());
                self.state = ClientState::AwaitServerHelloDone;
                Ok(Vec::new())
            }
            (ClientState::AwaitServerHelloDone, HsType::ServerHelloDone) => {
                self.transcript.extend_from_slice(&msg.encode());
                // Flight 5: ClientKeyExchange + CCS + Finished.
                let cke = ClientKeyExchangePsk {
                    identity: self.identity.clone(),
                };
                let cke_msg = HsMessage {
                    htype: HsType::ClientKeyExchange,
                    message_seq: self.take_msg_seq(),
                    body: cke.encode(),
                };
                self.transcript.extend_from_slice(&cke_msg.encode());
                let cke_rec = hs_record(&mut self.session, &cke_msg)?;

                // Derive keys now that both randoms are known.
                self.session.install_keys(
                    &self.client_random,
                    &self.server_random,
                    &self.psk,
                    true,
                );

                // ChangeCipherSpec record (epoch 0), then epoch switch.
                let ccs_seq = self.session.next_seq();
                let ccs_rec = Record {
                    ctype: ContentType::ChangeCipherSpec,
                    epoch: 0,
                    seq: ccs_seq,
                    payload: vec![1],
                };
                self.session.epoch = 1;
                self.session.seq = 0;

                // Finished (encrypted).
                let vd = self
                    .session
                    .verify_data(b"client finished", &self.transcript_hash());
                let fin_msg = HsMessage {
                    htype: HsType::Finished,
                    message_seq: self.take_msg_seq(),
                    body: vd.to_vec(),
                };
                self.transcript.extend_from_slice(&fin_msg.encode());
                let fin_rec = hs_record(&mut self.session, &fin_msg)?;

                let d1 = cke_rec.encode();
                let mut d2 = ccs_rec.encode();
                d2.extend_from_slice(&fin_rec.encode());
                self.state = ClientState::AwaitChangeCipher;
                self.timer.arm(
                    now,
                    vec![
                        (d1.clone(), "Client Key Exchange"),
                        (d2.clone(), "Change Cipher Spec"),
                    ],
                );
                Ok(vec![
                    DtlsEvent::Transmit {
                        datagram: d1,
                        label: "Client Key Exchange",
                    },
                    DtlsEvent::Transmit {
                        datagram: d2,
                        label: "Change Cipher Spec",
                    },
                ])
            }
            (ClientState::AwaitFinished, HsType::Finished) => {
                let expect = self
                    .session
                    .verify_data(b"server finished", &self.transcript_hash());
                if !doc_crypto::ct_eq(&expect, &msg.body) {
                    self.state = ClientState::Failed;
                    return Err(DtlsError::BadFinished);
                }
                self.state = ClientState::Connected;
                self.timer.disarm();
                Ok(vec![DtlsEvent::Connected])
            }
            // Retransmitted server flights are ignored once we advanced.
            _ => Ok(Vec::new()),
        }
    }

    /// Advance retransmission timers.
    pub fn poll(&mut self, now: u64) -> Vec<DtlsEvent> {
        match self.timer.poll(now) {
            None => Vec::new(),
            Some(flight) if flight.is_empty() => {
                self.state = ClientState::Failed;
                vec![DtlsEvent::HandshakeFailed]
            }
            Some(flight) => flight
                .into_iter()
                .map(|(datagram, label)| DtlsEvent::Transmit { datagram, label })
                .collect(),
        }
    }

    /// Earliest pending timer.
    pub fn next_timeout(&self) -> Option<u64> {
        self.timer.armed.then_some(self.timer.timeout_at)
    }
}

/// A DTLS 1.2 PSK server connection (one per client endpoint).
pub struct DtlsServer {
    state: ServerState,
    psk: Vec<u8>,
    cookie_secret: [u8; 32],
    session: Session,
    transcript: Vec<u8>,
    client_random: [u8; 32],
    server_random: [u8; 32],
    msg_seq: u16,
    /// Identity presented by the client (available after CKE).
    pub client_identity: Option<Vec<u8>>,
}

impl DtlsServer {
    /// Create a server endpoint with the given PSK.
    pub fn new(seed: u64, psk: &[u8]) -> Self {
        let mut rng = seed | 1;
        let cookie_secret = rand32(&mut rng);
        let server_random = rand32(&mut rng);
        DtlsServer {
            state: ServerState::AwaitClientHello,
            psk: psk.to_vec(),
            cookie_secret,
            session: Session::new(64),
            transcript: Vec::new(),
            client_random: [0u8; 32],
            server_random,
            msg_seq: 0,
            client_identity: None,
        }
    }

    /// Whether the handshake completed.
    pub fn is_connected(&self) -> bool {
        self.state == ServerState::Connected
    }

    fn cookie_for(&self, client_random: &[u8; 32]) -> Vec<u8> {
        doc_crypto::hmac::hmac_sha256(&self.cookie_secret, client_random)[..16].to_vec()
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

    /// Encrypt and frame application data.
    pub fn send_application_data(&mut self, data: &[u8]) -> Result<Vec<u8>, DtlsError> {
        if self.state != ServerState::Connected {
            return Err(DtlsError::NotConnected);
        }
        let epoch = self.session.epoch;
        let seq = self.session.next_seq();
        let payload = self.session.write.as_ref().expect("connected").seal(
            ContentType::ApplicationData,
            epoch,
            seq,
            data,
        )?;
        Ok(Record {
            ctype: ContentType::ApplicationData,
            epoch,
            seq,
            payload,
        }
        .encode())
    }

    /// Process an incoming datagram. Records are walked as borrowed
    /// [`RecordView`]s — payloads are only copied out of the datagram
    /// by decryption (or epoch-0 handshake reassembly).
    pub fn handle_datagram(&mut self, now: u64, datagram: &[u8]) -> Vec<DtlsEvent> {
        let Ok(records) = RecordView::iter(datagram).collect::<Result<Vec<_>, _>>() else {
            return Vec::new();
        };
        let mut events = Vec::new();
        for rec in records {
            if let Ok(mut evs) = self.handle_record(now, rec) {
                events.append(&mut evs);
            }
        }
        events
    }

    fn handle_record(
        &mut self,
        _now: u64,
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
                self.handle_handshake(msg)
            }
            ContentType::ChangeCipherSpec => {
                if self.state != ServerState::AwaitChangeCipher {
                    return Err(DtlsError::UnexpectedMessage);
                }
                self.state = ServerState::AwaitFinished;
                Ok(Vec::new())
            }
            ContentType::ApplicationData => {
                if self.state != ServerState::Connected {
                    return Err(DtlsError::NotConnected);
                }
                Ok(vec![DtlsEvent::ApplicationData(self.session.open(&rec)?)])
            }
            ContentType::Alert => Ok(Vec::new()),
        }
    }

    fn handle_handshake(&mut self, msg: HsMessage) -> Result<Vec<DtlsEvent>, DtlsError> {
        match (self.state, msg.htype) {
            (ServerState::AwaitClientHello, HsType::ClientHello) => {
                let ch = ClientHello::decode(&msg.body)?;
                if !ch.cipher_suites.contains(&TLS_PSK_WITH_AES_128_CCM_8) {
                    return Err(DtlsError::BadCipherSuite);
                }
                let expected_cookie = self.cookie_for(&ch.random);
                if ch.cookie.is_empty() {
                    // Flight 2: stateless HelloVerifyRequest.
                    let hv = HelloVerifyRequest {
                        cookie: expected_cookie,
                    };
                    let hs = HsMessage {
                        htype: HsType::HelloVerifyRequest,
                        // HVR reuses the incoming message_seq (RFC 6347
                        // §4.2.1); it is not in the transcript.
                        message_seq: msg.message_seq,
                        body: hv.encode(),
                    };
                    let rec = Record {
                        ctype: ContentType::Handshake,
                        epoch: 0,
                        seq: self.session.next_seq(),
                        payload: hs.encode(),
                    };
                    return Ok(vec![DtlsEvent::Transmit {
                        datagram: rec.encode(),
                        label: "Hello Verify Request",
                    }]);
                }
                if ch.cookie != expected_cookie {
                    return Err(DtlsError::BadCookie);
                }
                // Valid second ClientHello: enters the transcript.
                self.client_random = ch.random;
                self.transcript.extend_from_slice(&msg.encode());
                self.msg_seq = msg.message_seq + 1;

                let sh = ServerHello {
                    random: self.server_random,
                    cipher_suite: TLS_PSK_WITH_AES_128_CCM_8,
                };
                let sh_msg = HsMessage {
                    htype: HsType::ServerHello,
                    message_seq: self.take_msg_seq(),
                    body: sh.encode(),
                };
                self.transcript.extend_from_slice(&sh_msg.encode());
                let sh_rec = hs_record(&mut self.session, &sh_msg)?;

                let shd_msg = HsMessage {
                    htype: HsType::ServerHelloDone,
                    message_seq: self.take_msg_seq(),
                    body: Vec::new(),
                };
                self.transcript.extend_from_slice(&shd_msg.encode());
                let shd_rec = hs_record(&mut self.session, &shd_msg)?;

                self.state = ServerState::AwaitClientKeyExchange;
                Ok(vec![
                    DtlsEvent::Transmit {
                        datagram: sh_rec.encode(),
                        label: "Server Hello",
                    },
                    DtlsEvent::Transmit {
                        datagram: shd_rec.encode(),
                        label: "Server Hello Done",
                    },
                ])
            }
            (ServerState::AwaitClientKeyExchange, HsType::ClientKeyExchange) => {
                let cke = ClientKeyExchangePsk::decode(&msg.body)?;
                self.client_identity = Some(cke.identity);
                self.transcript.extend_from_slice(&msg.encode());
                self.session.install_keys(
                    &self.client_random,
                    &self.server_random,
                    &self.psk,
                    false,
                );
                self.state = ServerState::AwaitChangeCipher;
                Ok(Vec::new())
            }
            (ServerState::AwaitFinished, HsType::Finished) => {
                let expect = self
                    .session
                    .verify_data(b"client finished", &self.transcript_hash());
                if !doc_crypto::ct_eq(&expect, &msg.body) {
                    self.state = ServerState::Failed;
                    return Err(DtlsError::BadFinished);
                }
                self.transcript.extend_from_slice(&msg.encode());

                // Flight 6: CCS + Finished.
                let ccs_rec = Record {
                    ctype: ContentType::ChangeCipherSpec,
                    epoch: 0,
                    seq: self.session.next_seq(),
                    payload: vec![1],
                };
                self.session.epoch = 1;
                self.session.seq = 0;
                let vd = self
                    .session
                    .verify_data(b"server finished", &self.transcript_hash());
                let fin_msg = HsMessage {
                    htype: HsType::Finished,
                    message_seq: self.take_msg_seq(),
                    body: vd.to_vec(),
                };
                let fin_rec = hs_record(&mut self.session, &fin_msg)?;
                let mut datagram = ccs_rec.encode();
                datagram.extend_from_slice(&fin_rec.encode());
                self.state = ServerState::Connected;
                Ok(vec![
                    DtlsEvent::Transmit {
                        datagram,
                        label: "Finish",
                    },
                    DtlsEvent::Connected,
                ])
            }
            _ => Ok(Vec::new()),
        }
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
    client: &mut DtlsClient,
    server: &mut DtlsServer,
) -> Vec<(&'static str, usize)> {
    let mut trace = Vec::new();
    let mut in_flight = transmits(client.start(0), &mut trace);
    for _ in 0..HANDSHAKE_ROUNDS {
        if in_flight.is_empty() {
            break;
        }
        let events = in_flight
            .iter()
            .flat_map(|d| server.handle_datagram(0, d))
            .collect();
        let replies = transmits(events, &mut trace);
        let events = replies
            .iter()
            .flat_map(|d| client.handle_datagram(0, d))
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

    const PSK: &[u8] = b"123456789"; // 9 bytes, as in the paper
    const IDENTITY: &[u8] = b"Client_ID";

    /// Run a full loopback handshake, returning both endpoints and the
    /// labeled datagram trace.
    fn handshake() -> (DtlsClient, DtlsServer, Vec<(&'static str, usize)>) {
        let mut client = DtlsClient::new(11, IDENTITY, PSK);
        let mut server = DtlsServer::new(22, PSK);
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
        assert_eq!(server.client_identity.as_deref(), Some(IDENTITY));
    }

    #[test]
    fn application_data_both_directions() {
        let (mut client, mut server, _) = handshake();
        let d = client.send_application_data(b"dns query").unwrap();
        let evs = server.handle_datagram(0, &d);
        assert_eq!(evs, vec![DtlsEvent::ApplicationData(b"dns query".to_vec())]);
        let d = server.send_application_data(b"dns response").unwrap();
        let evs = client.handle_datagram(0, &d);
        assert_eq!(
            evs,
            vec![DtlsEvent::ApplicationData(b"dns response".to_vec())]
        );
    }

    #[test]
    fn replayed_application_record_dropped() {
        let (mut client, mut server, _) = handshake();
        let d = client.send_application_data(b"once").unwrap();
        assert_eq!(server.handle_datagram(0, &d).len(), 1);
        assert_eq!(server.handle_datagram(0, &d).len(), 0);
    }

    #[test]
    fn tampered_record_dropped() {
        let (mut client, mut server, _) = handshake();
        let mut d = client.send_application_data(b"secret").unwrap();
        let n = d.len();
        d[n - 1] ^= 0xFF;
        assert!(server.handle_datagram(0, &d).is_empty());
    }

    #[test]
    fn wrong_psk_fails_finished() {
        let mut client = DtlsClient::new(1, IDENTITY, b"123456789");
        let mut server = DtlsServer::new(2, b"987654321");
        let trace = run_handshake(&mut client, &mut server);
        // The server rejects the client's Finished and answers nothing.
        assert_eq!(trace.last().map(|(l, _)| *l), Some("Change Cipher Spec"));
        assert!(!server.is_connected());
        assert!(!client.is_connected());
    }

    #[test]
    fn bad_cookie_rejected() {
        let mut client = DtlsClient::new(5, IDENTITY, PSK);
        let mut server = DtlsServer::new(6, PSK);
        let first = match &client.start(0)[0] {
            DtlsEvent::Transmit { datagram, .. } => datagram.clone(),
            _ => unreachable!(),
        };
        let hv = &server.handle_datagram(0, &first)[0];
        let hv_datagram = match hv {
            DtlsEvent::Transmit { datagram, .. } => datagram.clone(),
            _ => unreachable!(),
        };
        // Corrupt the cookie before delivering to the client.
        let mut bad = hv_datagram.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        let evs = client.handle_datagram(0, &bad);
        // Client echoes the corrupted cookie; server rejects silently.
        if let Some(DtlsEvent::Transmit { datagram, .. }) = evs.first() {
            assert!(server.handle_datagram(0, datagram).is_empty());
        }
        assert!(!server.is_connected());
    }

    #[test]
    fn client_retransmits_lost_flight() {
        let mut client = DtlsClient::new(7, IDENTITY, PSK);
        let evs = client.start(0);
        assert_eq!(evs.len(), 1);
        // Nothing arrives; time passes beyond the 1 s initial timeout.
        let t = client.next_timeout().unwrap();
        assert_eq!(t, 1000);
        let evs = client.poll(1000);
        assert_eq!(evs.len(), 1);
        assert!(matches!(
            evs[0],
            DtlsEvent::Transmit {
                label: "Client Hello",
                ..
            }
        ));
        // Back-off doubles.
        assert_eq!(client.next_timeout().unwrap(), 1000 + 2000);
    }

    #[test]
    fn handshake_gives_up_eventually() {
        let mut client = DtlsClient::new(8, IDENTITY, PSK);
        client.start(0);
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

    #[test]
    fn app_data_before_handshake_fails() {
        let mut client = DtlsClient::new(9, IDENTITY, PSK);
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
        let mut client = DtlsClient::new(31, IDENTITY, PSK);
        let mut server = DtlsServer::new(32, PSK);
        let d0 = match &client.start(0)[0] {
            DtlsEvent::Transmit { datagram, .. } => datagram.clone(),
            _ => unreachable!(),
        };
        let hv = match &server.handle_datagram(0, &d0)[0] {
            DtlsEvent::Transmit { datagram, .. } => datagram.clone(),
            _ => unreachable!(),
        };
        let ch2 = match &client.handle_datagram(0, &hv)[0] {
            DtlsEvent::Transmit { datagram, .. } => datagram.clone(),
            _ => unreachable!(),
        };
        let server_flight: Vec<Vec<u8>> = server
            .handle_datagram(0, &ch2)
            .into_iter()
            .filter_map(|e| match e {
                DtlsEvent::Transmit { datagram, .. } => Some(datagram),
                _ => None,
            })
            .collect();
        // Deliver ServerHello twice: the duplicate must not disturb the
        // state machine.
        client.handle_datagram(0, &server_flight[0]);
        let evs = client.handle_datagram(0, &server_flight[0]);
        assert!(evs.is_empty());
        let evs = client.handle_datagram(0, &server_flight[1]);
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
    /// slide the server's window, so the genuine record still arrives.
    #[test]
    fn forged_future_record_leaves_server_window_alone() {
        let (mut client, mut server, _) = handshake();
        let genuine = client.send_application_data(b"query").unwrap();
        assert!(server
            .handle_datagram(0, &forged_future(&genuine))
            .is_empty());
        assert_eq!(
            server.handle_datagram(0, &genuine),
            vec![DtlsEvent::ApplicationData(b"query".to_vec())]
        );
    }

    /// The same on the client's receive side.
    #[test]
    fn forged_future_record_leaves_client_window_alone() {
        let (mut client, mut server, _) = handshake();
        let genuine = server.send_application_data(b"answer").unwrap();
        assert!(client
            .handle_datagram(0, &forged_future(&genuine))
            .is_empty());
        assert_eq!(
            client.handle_datagram(0, &genuine),
            vec![DtlsEvent::ApplicationData(b"answer".to_vec())]
        );
    }
}
