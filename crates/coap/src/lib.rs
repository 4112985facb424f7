//! `doc-coap` — Constrained Application Protocol substrate.
//!
//! A from-scratch CoAP implementation covering the protocol surface the
//! DoC paper exercises:
//!
//! * [`msg`] — the RFC 7252 message codec: 4-byte header, token,
//!   option delta/length encoding, payload marker; all request methods
//!   including FETCH/PATCH/iPATCH (RFC 8132).
//! * [`opt`] — option numbers and their Critical/Unsafe/NoCacheKey
//!   classes, plus typed accessors (`Max-Age`, `ETag`,
//!   `Content-Format`, `Uri-Path`, `Uri-Query`, `Block1/2`, `Echo`,
//!   the OSCORE option …).
//! * [`block`] — RFC 7959 block-wise transfer: BLOCK option value
//!   codec, body slicing/reassembly state machines for Block1
//!   (requests) and Block2 (responses) as used in Appendix A/D of the
//!   paper.
//! * [`reliability`] — the RFC 7252 §4 message layer as a sans-IO state
//!   machine: CON retransmission with exponential back-off
//!   (`ACK_TIMEOUT = 2 s`, `ACK_RANDOM_FACTOR = 1.5`,
//!   `MAX_RETRANSMIT = 4`), MID deduplication, token-based
//!   request/response matching. Driven by virtual time from
//!   `doc-netsim`.
//! * [`cache`] — the RFC 7252 §5.6 freshness model: cache keys over
//!   method + options (minus NoCacheKey) + payload (FETCH) or URI
//!   (GET), Max-Age expiry, and ETag-based validation (2.03 Valid).
//! * [`view`] — borrowed, zero-allocation [`CoapView`]s over wire
//!   bytes for the decode hot path: lazy option iteration over borrowed
//!   values, borrowed token/payload, with a `to_owned()` escape hatch.
//!
//! The implementation is deterministic (seeded jitter) so that testbed
//! experiments are exactly reproducible.
//!
//! # Example
//!
//! Build the FETCH request the DoC client sends, encode it to the
//! wire, and decode it back:
//!
//! ```
//! use doc_coap::msg::{Code, CoapMessage, MsgType};
//! use doc_coap::opt::{CoapOption, OptionNumber};
//!
//! let request = CoapMessage::request(Code::FETCH, MsgType::Con, 0x1d0c, vec![0xC0])
//!     .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
//!     .with_option(CoapOption::uint(OptionNumber::CONTENT_FORMAT, 553))
//!     .with_payload(b"\x00\x00...".to_vec()); // DNS query bytes
//!
//! let wire = request.encode();
//! let back = CoapMessage::decode(&wire).unwrap();
//! assert_eq!(back.code, Code::FETCH);
//! assert_eq!(back.option(OptionNumber::URI_PATH).unwrap().value, b"dns");
//! assert_eq!(back.payload, request.payload);
//! ```

pub mod block;
pub mod cache;
pub mod msg;
pub mod opt;
pub mod reliability;
pub mod shard;
pub mod view;

pub use block::BlockOpt;
pub use msg::{CoapMessage, Code, MsgType};
pub use opt::OptionNumber;
pub use view::{CoapView, OptionView};

/// Errors produced by the CoAP layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoapError {
    /// Datagram shorter than a CoAP header or truncated mid-structure.
    Truncated,
    /// Version field was not 1.
    BadVersion,
    /// Token length > 8 or other header inconsistency.
    BadHeader,
    /// Option delta/length used a reserved (0xF) nibble illegally.
    BadOption,
    /// A BLOCK option value was malformed (e.g. SZX = 7).
    BadBlock,
    /// Block-wise reassembly saw an unexpected block number.
    BlockSequence,
    /// Message too large for the configured buffer.
    TooLarge,
}

impl core::fmt::Display for CoapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoapError::Truncated => write!(f, "truncated CoAP message"),
            CoapError::BadVersion => write!(f, "unsupported CoAP version"),
            CoapError::BadHeader => write!(f, "invalid CoAP header"),
            CoapError::BadOption => write!(f, "invalid CoAP option encoding"),
            CoapError::BadBlock => write!(f, "invalid BLOCK option"),
            CoapError::BlockSequence => write!(f, "unexpected block number"),
            CoapError::TooLarge => write!(f, "message exceeds buffer"),
        }
    }
}

impl std::error::Error for CoapError {}
