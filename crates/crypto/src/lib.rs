//! `doc-crypto` — self-contained cryptographic and encoding substrate for
//! the DNS-over-CoAP reproduction.
//!
//! Implements everything the DoC protocol stack needs, from scratch:
//!
//! * [`aes`] — AES-128 block cipher (FIPS-197, encryption direction)
//!   with three runtime-dispatched implementations under [`backend`]:
//!   a scalar reference, a bitsliced constant-time fallback, and an
//!   AES-NI path (see the README "crypto substrate" section).
//! * [`ccm`] — AES-CCM authenticated encryption (RFC 3610), with the two
//!   parameterizations used by the paper: `AES-128-CCM-8` (DTLS,
//!   RFC 6655) and `AES-CCM-16-64-128` (COSE/OSCORE, RFC 8152).
//! * [`sha256`] — SHA-256 (FIPS 180-4).
//! * [`hmac`] — HMAC-SHA256 (RFC 2104).
//! * [`hkdf`] — HKDF extract/expand (RFC 5869), used by OSCORE context
//!   derivation.
//! * [`prf`] — the TLS 1.2 / DTLS 1.2 pseudo-random function
//!   (P_SHA256, RFC 5246 §5).
//! * [`replay`] — the sliding anti-replay window DTLS (RFC 6347
//!   §4.1.2.6) and OSCORE (RFC 8613 §7.4) both keep.
//! * [`base64url`] — unpadded base64url (RFC 4648 §5), used for the DoC
//!   GET request `dns=` query variable.
//! * [`cbor`] — a compact CBOR encoder/decoder (RFC 8949) sufficient for
//!   COSE structures and the `application/dns+cbor` format.
//!
//! All primitives are pure Rust with no dependencies. The AES/SHA hot
//! paths dispatch once per process to the fastest backend the CPU
//! offers (`DOC_CRYPTO_BACKEND=reference|soft|aesni|auto` overrides the
//! choice); the scalar reference implementations remain in-tree as the
//! ground truth the vector paths are differentially pinned to (see the
//! `crypto` fuzz family and `BENCH_crypto.json`).
//!
//! # Example
//!
//! Seal a DNS query under the OSCORE AEAD (`AES-CCM-16-64-128`) and
//! reject a tampered ciphertext:
//!
//! ```
//! use doc_crypto::ccm::AesCcm;
//!
//! let ccm = AesCcm::cose_ccm_16_64_128(b"0123456789abcdef");
//! let nonce = [0x42u8; 13];
//! let sealed = ccm.seal(&nonce, b"aad", b"dns query").unwrap();
//! assert_eq!(ccm.open(&nonce, b"aad", &sealed).unwrap(), b"dns query");
//!
//! let mut tampered = sealed.clone();
//! tampered[0] ^= 1;
//! assert!(ccm.open(&nonce, b"aad", &tampered).is_err());
//! ```

pub mod aes;
pub mod backend;
pub mod base64url;
pub mod cbor;
pub mod ccm;
pub mod hkdf;
pub mod hmac;
pub mod prf;
pub mod replay;
pub mod sha256;

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// Authentication tag verification failed on decryption.
    AuthFailed,
    /// A parameter (nonce length, tag length, key length) was invalid.
    InvalidParameter,
    /// Input data was malformed (e.g. bad base64 or truncated CBOR).
    Malformed,
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::AuthFailed => write!(f, "authentication failed"),
            CryptoError::InvalidParameter => write!(f, "invalid parameter"),
            CryptoError::Malformed => write!(f, "malformed input"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Constant-time byte-slice comparison.
///
/// Used for MAC/tag verification so that unequal prefixes do not leak
/// timing information.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_equal() {
        assert!(ct_eq(b"hello", b"hello"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn ct_eq_unequal_content() {
        assert!(!ct_eq(b"hello", b"hellp"));
    }

    #[test]
    fn ct_eq_unequal_length() {
        assert!(!ct_eq(b"hello", b"hell"));
    }

    #[test]
    fn error_display() {
        assert_eq!(CryptoError::AuthFailed.to_string(), "authentication failed");
        assert_eq!(
            CryptoError::InvalidParameter.to_string(),
            "invalid parameter"
        );
        assert_eq!(CryptoError::Malformed.to_string(), "malformed input");
    }
}
