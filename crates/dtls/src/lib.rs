//! `doc-dtls` — DTLS 1.2 (RFC 6347) with the PSK key exchange (RFC
//! 4279) and the `TLS_PSK_WITH_AES_128_CCM_8` cipher suite (RFC 6655),
//! exactly the configuration the paper evaluates ("With DTLSv1.2 we use
//! the AES-128-CCM-8 cipher suite … pre-shared key lengths are 9
//! bytes").
//!
//! * [`record`] — the 13-byte DTLS record layer, epoch/sequence
//!   numbers, and the CCM cipher state with RFC 6655 partially-explicit
//!   nonces.
//! * [`handshake`] — handshake message codecs with byte-accurate wire
//!   sizes: ClientHello, HelloVerifyRequest (cookie exchange),
//!   ServerHello, ServerHelloDone, ClientKeyExchange (PSK identity),
//!   ChangeCipherSpec and Finished — the eight flights whose frame
//!   sizes appear in the paper's Fig. 6 "Session setup" panels.
//! * [`connection`] — one sans-IO connection, [`DtlsConnection`],
//!   whose role (client or server) is chosen at construction: flight
//!   retransmission and the resending of a lost last flight, the RFC
//!   5246 §8.1 key schedule (master secret → key block), Finished
//!   verification over the handshake transcript, post-handshake
//!   application-data protection, and replay protection through
//!   [`doc_crypto::replay::ReplayWindow`] (64 records per
//!   connection), marked only once a record has authenticated (RFC
//!   6347 §4.1.2.6).
//!
//! Like every protocol crate in this workspace the implementation is
//! sans-IO. Its timers run on explicit `doc_time::Instant` timestamps,
//! so the simulator can reproduce handshake timing deterministically.

pub mod connection;
pub mod handshake;
pub mod record;

pub use connection::{run_handshake, DtlsConnection, DtlsEvent};
pub use record::{Record, RecordView};

/// Errors produced by the DTLS layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtlsError {
    /// Record or handshake message was truncated/malformed.
    Malformed,
    /// Record failed authentication or decryption.
    Crypto,
    /// A replayed record was detected and dropped.
    Replay,
    /// A handshake message arrived in the wrong state.
    UnexpectedMessage,
    /// The Finished verify_data did not match the transcript.
    BadFinished,
    /// The peer's cookie did not match.
    BadCookie,
    /// The proposed cipher suite is not supported.
    BadCipherSuite,
    /// The handshake has not completed yet.
    NotConnected,
    /// The 48-bit record sequence space is used up; sealing another
    /// record under these keys would reuse a nonce.
    SeqExhausted,
}

impl core::fmt::Display for DtlsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DtlsError::Malformed => write!(f, "malformed DTLS data"),
            DtlsError::Crypto => write!(f, "DTLS record failed decryption"),
            DtlsError::Replay => write!(f, "replayed DTLS record"),
            DtlsError::UnexpectedMessage => write!(f, "unexpected handshake message"),
            DtlsError::BadFinished => write!(f, "Finished verification failed"),
            DtlsError::BadCookie => write!(f, "cookie verification failed"),
            DtlsError::BadCipherSuite => write!(f, "unsupported cipher suite"),
            DtlsError::NotConnected => write!(f, "handshake not complete"),
            DtlsError::SeqExhausted => write!(f, "record sequence numbers exhausted"),
        }
    }
}

impl std::error::Error for DtlsError {}
