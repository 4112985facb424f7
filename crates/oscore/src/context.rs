//! OSCORE security-context derivation (RFC 8613 §3).
//!
//! Both endpoints share a Common Context (master secret, master salt,
//! algorithm, ID context) from which HKDF-SHA256 derives the Sender
//! Key, Recipient Key and Common IV:
//!
//! ```text
//! info = [ id, id_context, alg_aead, type, L ]   (CBOR array)
//! output = HKDF(salt = master_salt, IKM = master_secret, info, L)
//! ```
//!
//! The algorithm is `AES-CCM-16-64-128` (COSE algorithm 10): 128-bit
//! key, 64-bit tag, 13-byte nonce — the configuration the paper
//! evaluates against DTLS's `AES-128-CCM-8`.

use doc_crypto::cbor::Value;
use doc_crypto::hkdf;

/// COSE algorithm identifier for AES-CCM-16-64-128 (RFC 8152 §10.2).
pub const ALG_AES_CCM_16_64_128: i64 = 10;
/// Key length for the AEAD algorithm.
pub const KEY_LEN: usize = 16;
/// Nonce length for the AEAD algorithm.
pub const NONCE_LEN: usize = 13;
/// Tag length for the AEAD algorithm.
pub const TAG_LEN: usize = 8;
/// Longest sender or recipient ID: the nonce's ID field (RFC 8613
/// §5.2), `NONCE_LEN - 6` bytes.
pub const MAX_ID_LEN: usize = NONCE_LEN - 6;

/// A derived OSCORE security context for one sender/recipient pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityContext {
    /// Our sender ID (put on the wire as `kid` in requests).
    pub sender_id: Vec<u8>,
    /// The peer's sender ID (our recipient ID).
    pub recipient_id: Vec<u8>,
    /// Derived sender key (encrypts what we send).
    pub sender_key: [u8; KEY_LEN],
    /// Derived recipient key (decrypts what the peer sends).
    pub recipient_key: [u8; KEY_LEN],
    /// Derived common IV.
    pub common_iv: [u8; NONCE_LEN],
    /// Next partial IV (sender sequence number).
    pub sender_seq: u64,
}

/// Build the HKDF `info` structure of RFC 8613 §3.2.1. `id_context`
/// is `None` (CBOR null) for a pairwise context and the group id for a
/// Group OSCORE one.
fn kdf_info(id: &[u8], id_context: Option<&[u8]>, type_: &str, len: usize) -> Vec<u8> {
    Value::Array(vec![
        Value::Bytes(id.to_vec()),
        id_context.map_or(Value::Null, |c| Value::Bytes(c.to_vec())),
        Value::int(ALG_AES_CCM_16_64_128),
        Value::Text(type_.to_string()),
        Value::Uint(len as u64),
    ])
    .encode()
}

/// Derive one `N`-byte parameter (`type_` "Key", "IV", …) for `id`
/// with HKDF-SHA256 (RFC 8613 §3.2.1).
pub(crate) fn derive_param<const N: usize>(
    secret: &[u8],
    salt: &[u8],
    id: &[u8],
    id_context: Option<&[u8]>,
    type_: &str,
) -> [u8; N] {
    let okm = hkdf::hkdf(salt, secret, &kdf_info(id, id_context, type_, N), N);
    okm.try_into().expect("HKDF returns N bytes")
}

impl SecurityContext {
    /// Derive a context from the common-context parameters.
    ///
    /// `sender_id`/`recipient_id` are from *this endpoint's*
    /// perspective: a client configured with `(sender=C, recipient=S)`
    /// pairs with a server configured `(sender=S, recipient=C)`.
    ///
    /// # Panics
    ///
    /// If `sender_id` or `recipient_id` is longer than [`MAX_ID_LEN`]
    /// (7) bytes: the nonce has no room for it (RFC 8613 §3.3).
    pub fn derive(
        master_secret: &[u8],
        master_salt: &[u8],
        sender_id: &[u8],
        recipient_id: &[u8],
    ) -> Self {
        assert!(
            sender_id.len() <= MAX_ID_LEN && recipient_id.len() <= MAX_ID_LEN,
            "sender or recipient id longer than 7 bytes"
        );
        let param = |id, type_| derive_param(master_secret, master_salt, id, None, type_);
        SecurityContext {
            sender_id: sender_id.to_vec(),
            recipient_id: recipient_id.to_vec(),
            sender_key: param(sender_id, "Key"),
            recipient_key: param(recipient_id, "Key"),
            common_iv: derive_param(master_secret, master_salt, &[], None, "IV"),
            sender_seq: 0,
        }
    }
}

/// Compute the AEAD nonce for (`id`, `piv`) per RFC 8613 §5.2:
/// left-pad PIV to 5 bytes, left-pad ID to `nonce_len - 6`, prefix the
/// ID length, XOR with the Common IV. An `id` longer than
/// [`MAX_ID_LEN`] bytes has no nonce: [`SecurityContext::derive`] and
/// [`crate::group::GroupContext::join`] refuse such a configured ID and
/// [`crate::OscoreOption::decode`] such a received kid.
pub(crate) fn nonce(common_iv: &[u8; NONCE_LEN], id: &[u8], piv: &[u8]) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[0] = id.len() as u8;
    // ID left-padded into bytes [1 .. nonce_len-5).
    nonce[1 + MAX_ID_LEN - id.len()..1 + MAX_ID_LEN].copy_from_slice(id);
    // PIV left-padded into the last 5 bytes.
    nonce[NONCE_LEN - piv.len()..].copy_from_slice(piv);
    for (n, c) in nonce.iter_mut().zip(common_iv) {
        *n ^= c;
    }
    nonce
}

/// Take the next partial IV from a sender sequence number (minimal
/// big-endian encoding, at least one byte, at most 5).
pub(crate) fn next_piv(sender_seq: &mut u64) -> Result<Vec<u8>, crate::OscoreError> {
    if *sender_seq >= 1 << 40 {
        return Err(crate::OscoreError::PivExhausted);
    }
    let piv = encode_piv(*sender_seq);
    *sender_seq += 1;
    Ok(piv)
}

/// Minimal big-endian PIV encoding (RFC 8613 §6.1: 0 encodes as one
/// zero byte... actually as the 1-byte 0x00 per "the Partial IV SHALL
/// be encoded with minimum length, and the value 0 encodes to 0x00").
pub fn encode_piv(seq: u64) -> Vec<u8> {
    let bytes = seq.to_be_bytes();
    let skip = bytes.iter().take_while(|&&b| b == 0).count().min(7);
    bytes[skip..].to_vec()
}

/// Decode a PIV back to a sequence number.
pub fn decode_piv(piv: &[u8]) -> Option<u64> {
    if piv.is_empty() || piv.len() > 5 {
        return None;
    }
    let mut v = 0u64;
    for &b in piv {
        v = (v << 8) | b as u64;
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// RFC 8613 Appendix C.1.1 test vector: client context with
    /// Master Secret 0102…10, Master Salt 9e7ca92223786340,
    /// Sender ID empty, Recipient ID 0x01.
    #[test]
    fn rfc8613_c1_client_derivation() {
        let secret = unhex("0102030405060708090a0b0c0d0e0f10");
        let salt = unhex("9e7ca92223786340");
        let ctx = SecurityContext::derive(&secret, &salt, &[], &[0x01]);
        assert_eq!(hex(&ctx.sender_key), "f0910ed7295e6ad4b54fc793154302ff");
        assert_eq!(hex(&ctx.recipient_key), "ffb14e093c94c9cac9471648b4f98710");
        assert_eq!(hex(&ctx.common_iv), "4622d4dd6d944168eefb54987c");
    }

    /// The longest IDs the nonce holds derive and round-trip; one byte
    /// more is refused at set-up, not at the first `protect_request`.
    #[test]
    fn ids_are_bounded_at_set_up() {
        use crate::protect::OscoreEndpoint;
        use doc_coap::{CoapMessage, Code, MsgType};
        let (client_id, server_id) = (b"client1", b"server1");
        let client = SecurityContext::derive(b"secret", b"salt", client_id, server_id);
        let server = SecurityContext::derive(b"secret", b"salt", server_id, client_id);
        let (mut client, mut server) = (
            OscoreEndpoint::new(client, false),
            OscoreEndpoint::new(server, false),
        );
        let req = CoapMessage::request(Code::FETCH, MsgType::Con, 1, vec![1]).with_payload(vec![7]);
        let (outer, _) = client.protect_request(&req).unwrap();
        let (inner, _) = server.unprotect_request(&outer).unwrap();
        assert_eq!(inner.payload, [7]);
        for (sender, recipient) in [(&[1u8; 8][..], &[2u8][..]), (&[1], &[2; 8])] {
            let derive = || SecurityContext::derive(b"secret", b"salt", sender, recipient);
            assert!(
                std::panic::catch_unwind(derive).is_err(),
                "{sender:?} {recipient:?}"
            );
        }
    }

    /// RFC 8613 Appendix C.1.2: the server's derivation mirrors the
    /// client's (sender/recipient swapped).
    #[test]
    fn rfc8613_c1_server_derivation() {
        let secret = unhex("0102030405060708090a0b0c0d0e0f10");
        let salt = unhex("9e7ca92223786340");
        let ctx = SecurityContext::derive(&secret, &salt, &[0x01], &[]);
        assert_eq!(hex(&ctx.sender_key), "ffb14e093c94c9cac9471648b4f98710");
        assert_eq!(hex(&ctx.recipient_key), "f0910ed7295e6ad4b54fc793154302ff");
        assert_eq!(hex(&ctx.common_iv), "4622d4dd6d944168eefb54987c");
    }

    /// RFC 8613 Appendix C.4 (request vector): the nonce for Sender ID
    /// empty, PIV 0x14 with the C.1 Common IV must be
    /// 4622d4dd6d944168eefb549868.
    #[test]
    fn rfc8613_c4_request_nonce() {
        let secret = unhex("0102030405060708090a0b0c0d0e0f10");
        let salt = unhex("9e7ca92223786340");
        let ctx = SecurityContext::derive(&secret, &salt, &[], &[0x01]);
        let nonce = nonce(&ctx.common_iv, &[], &[0x14]);
        assert_eq!(hex(&nonce), "4622d4dd6d944168eefb549868");
    }

    #[test]
    fn piv_encoding_minimal() {
        assert_eq!(encode_piv(0), vec![0x00]);
        assert_eq!(encode_piv(0x14), vec![0x14]);
        assert_eq!(encode_piv(0x0100), vec![0x01, 0x00]);
        assert_eq!(encode_piv(0xFF_FFFF), vec![0xFF, 0xFF, 0xFF]);
    }

    #[test]
    fn piv_roundtrip() {
        for seq in [0u64, 1, 0x14, 255, 256, 65536, (1 << 40) - 1] {
            assert_eq!(decode_piv(&encode_piv(seq)), Some(seq));
        }
        assert_eq!(decode_piv(&[]), None);
        assert_eq!(decode_piv(&[0; 6]), None);
    }

    #[test]
    fn next_piv_increments() {
        let ctx_params = (
            unhex("0102030405060708090a0b0c0d0e0f10"),
            unhex("9e7ca92223786340"),
        );
        let mut ctx = SecurityContext::derive(&ctx_params.0, &ctx_params.1, &[], &[1]);
        assert_eq!(next_piv(&mut ctx.sender_seq).unwrap(), vec![0x00]);
        assert_eq!(next_piv(&mut ctx.sender_seq).unwrap(), vec![0x01]);
        assert_eq!(ctx.sender_seq, 2);
    }

    #[test]
    fn piv_exhaustion() {
        let mut ctx = SecurityContext::derive(b"secret", b"", &[], &[1]);
        ctx.sender_seq = 1 << 40;
        assert_eq!(
            next_piv(&mut ctx.sender_seq),
            Err(crate::OscoreError::PivExhausted)
        );
    }

    #[test]
    fn peer_contexts_are_mirrored() {
        let client = SecurityContext::derive(b"master", b"salt", b"C", b"S");
        let server = SecurityContext::derive(b"master", b"salt", b"S", b"C");
        assert_eq!(client.sender_key, server.recipient_key);
        assert_eq!(client.recipient_key, server.sender_key);
        assert_eq!(client.common_iv, server.common_iv);
    }

    #[test]
    fn different_salts_differ() {
        let a = SecurityContext::derive(b"master", b"salt1", b"C", b"S");
        let b = SecurityContext::derive(b"master", b"salt2", b"C", b"S");
        assert_ne!(a.sender_key, b.sender_key);
    }
}
