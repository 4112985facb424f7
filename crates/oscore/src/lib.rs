//! `doc-oscore` — Object Security for Constrained RESTful Environments
//! (RFC 8613).
//!
//! OSCORE protects CoAP messages at the object level: the inner code,
//! Class-E options and payload are encrypted into a compressed
//! COSE_Encrypt0 object carried as the payload of an outer CoAP
//! message, while the outer header exposes only the token, message-ID
//! and the OSCORE option. This is what lets DoC responses be cached
//! en-route and traverse untrusted gateways without a trust
//! relationship (paper §4.3, Fig. 4b).
//!
//! * [`context`] — security-context derivation via HKDF-SHA256
//!   (RFC 8613 §3.2) for the paper's `AES-CCM-16-64-128` algorithm,
//!   including the RFC 8613 Appendix C test vectors.
//! * [`protect`] — the compressed COSE object (§6), OSCORE option
//!   encoding, AAD/nonce construction (§5), request/response
//!   protect/unprotect, replay protection
//!   ([`doc_crypto::replay::ReplayWindow`]), and the Echo-based replay
//!   window initialization the paper's Fig. 6 shows
//!   ("4.01 Unauthorized / Query (w/ Echo)").

pub mod context;
pub mod group;
pub mod protect;

pub use context::SecurityContext;
pub use group::GroupContext;
pub use protect::{OscoreOption, RequestBinding};

/// Errors produced by the OSCORE layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OscoreError {
    /// COSE/option structure malformed.
    Malformed,
    /// Decryption or tag verification failed.
    Crypto,
    /// Replay window rejected the partial IV.
    Replay,
    /// Sequence number space exhausted.
    PivExhausted,
    /// The message is not an OSCORE message.
    NotOscore,
    /// A fresh Echo value is required (replay-window initialization).
    EchoRequired(Vec<u8>),
}

impl core::fmt::Display for OscoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OscoreError::Malformed => write!(f, "malformed OSCORE message"),
            OscoreError::Crypto => write!(f, "OSCORE decryption failed"),
            OscoreError::Replay => write!(f, "OSCORE replay detected"),
            OscoreError::PivExhausted => write!(f, "partial IV space exhausted"),
            OscoreError::NotOscore => write!(f, "not an OSCORE message"),
            OscoreError::EchoRequired(_) => write!(f, "Echo challenge required"),
        }
    }
}

impl std::error::Error for OscoreError {}
