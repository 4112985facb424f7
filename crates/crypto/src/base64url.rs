//! Unpadded base64url (RFC 4648 §5).
//!
//! DoH (RFC 8484 §4.1) and DoC GET requests encode the DNS query with
//! base64url *without* padding in the `dns` URI variable. The paper
//! (§5.3) notes this inflates GET requests to ≈1.5× the binary size —
//! which this module's 4/3 expansion reproduces exactly.

use crate::CryptoError;

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Encode `data` as unpadded base64url.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = *chunk.get(1).unwrap_or(&0) as u32;
        let b2 = *chunk.get(2).unwrap_or(&0) as u32;
        let n = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(n >> 18) as usize & 0x3f] as char);
        out.push(ALPHABET[(n >> 12) as usize & 0x3f] as char);
        if chunk.len() > 1 {
            out.push(ALPHABET[(n >> 6) as usize & 0x3f] as char);
        }
        if chunk.len() > 2 {
            out.push(ALPHABET[n as usize & 0x3f] as char);
        }
    }
    out
}

fn decode_char(c: u8) -> Result<u32, CryptoError> {
    match c {
        b'A'..=b'Z' => Ok((c - b'A') as u32),
        b'a'..=b'z' => Ok((c - b'a') as u32 + 26),
        b'0'..=b'9' => Ok((c - b'0') as u32 + 52),
        b'-' => Ok(62),
        b'_' => Ok(63),
        _ => Err(CryptoError::Malformed),
    }
}

/// Decode unpadded base64url text.
pub fn decode(text: &str) -> Result<Vec<u8>, CryptoError> {
    let mut out = Vec::with_capacity(text.len() * 3 / 4);
    decode_into(text.as_bytes(), &mut out)?;
    Ok(out)
}

/// Append the decoding of unpadded base64url `text` to `out` — the
/// allocation-free form of [`decode`] for a reused buffer. On error
/// `out` may hold a partial decode.
pub fn decode_into(text: &[u8], out: &mut Vec<u8>) -> Result<(), CryptoError> {
    if text.len() % 4 == 1 {
        return Err(CryptoError::Malformed);
    }
    for chunk in text.chunks(4) {
        let mut n = 0u32;
        for &c in chunk {
            n = (n << 6) | decode_char(c)?;
        }
        // Left-align partial groups.
        n <<= 6 * (4 - chunk.len());
        out.push((n >> 16) as u8);
        if chunk.len() > 2 {
            out.push((n >> 8) as u8);
        }
        if chunk.len() > 3 {
            out.push(n as u8);
        }
    }
    Ok(())
}

/// The exact encoded length for `n` input bytes (no padding).
pub fn encoded_len(n: usize) -> usize {
    (n * 4).div_ceil(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 4648 §10 test vectors, adjusted for the URL-safe unpadded
    /// variant.
    #[test]
    fn rfc4648_vectors() {
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"f"), "Zg");
        assert_eq!(encode(b"fo"), "Zm8");
        assert_eq!(encode(b"foo"), "Zm9v");
        assert_eq!(encode(b"foob"), "Zm9vYg");
        assert_eq!(encode(b"fooba"), "Zm9vYmE");
        assert_eq!(encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn url_safe_alphabet() {
        // 0xfb 0xff maps to chars that would be '+' '/' in plain base64.
        let enc = encode(&[0xfb, 0xef, 0xff]);
        assert!(!enc.contains('+') && !enc.contains('/'));
        assert_eq!(decode(&enc).unwrap(), vec![0xfb, 0xef, 0xff]);
    }

    #[test]
    fn roundtrip_all_lengths() {
        for len in 0..100usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            let enc = encode(&data);
            assert_eq!(enc.len(), encoded_len(len));
            assert_eq!(decode(&enc).unwrap(), data);
        }
    }

    #[test]
    fn reject_invalid_chars() {
        assert!(decode("ab+d").is_err());
        assert!(decode("ab/d").is_err());
        assert!(decode("ab=d").is_err());
        assert!(decode("ab d").is_err());
    }

    #[test]
    fn reject_impossible_length() {
        // A base64 group of 1 char cannot encode any bytes.
        assert!(decode("A").is_err());
        assert!(decode("AAAAA").is_err());
    }

    /// The ≈1.5× inflation claimed in §5.3 of the paper: a 40-byte DNS
    /// query encodes to 54 characters (ratio 1.35–1.34 asymptotically;
    /// with URI variable name overhead the paper rounds to 1.5×).
    #[test]
    fn inflation_ratio() {
        assert_eq!(encoded_len(40), 54);
        assert_eq!(encoded_len(66), 88);
    }
}
