//! Concise Binary Object Representation (RFC 8949).
//!
//! A small, allocation-friendly CBOR encoder/decoder covering the subset
//! needed by COSE (`Encrypt0` structures, OSCORE `info` arrays) and by
//! the `application/dns+cbor` message format of
//! draft-lenders-dns-cbor (§7 of the paper).
//!
//! Supported: unsigned/negative integers, byte strings, text strings,
//! arrays, maps, tags, booleans, null. Indefinite lengths and floats are
//! intentionally omitted (neither COSE deterministic encoding nor
//! dns+cbor uses them); the decoder rejects them as
//! [`CryptoError::Malformed`].
//!
//! Encoding follows the RFC 8949 §4.2.1 core deterministic requirements:
//! shortest-form argument encoding.

use crate::CryptoError;

/// A decoded CBOR data item.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Major type 0.
    Uint(u64),
    /// Major type 1: the value `-1 - n` is stored as `Nint(n)`.
    Nint(u64),
    /// Major type 2.
    Bytes(Vec<u8>),
    /// Major type 3.
    Text(String),
    /// Major type 4.
    Array(Vec<Value>),
    /// Major type 5 (keys may be any value; order preserved).
    Map(Vec<(Value, Value)>),
    /// Major type 6.
    Tag(u64, Box<Value>),
    /// Simple values true/false.
    Bool(bool),
    /// Simple value null.
    Null,
}

impl Value {
    /// Convenience: view as u64 if this is an unsigned integer.
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            Value::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// Convenience: view as byte slice.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Convenience: view as array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Encode this value to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encode this value, appending to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Uint(n) => write_head(out, 0, *n),
            Value::Nint(n) => write_head(out, 1, *n),
            Value::Bytes(b) => {
                write_head(out, 2, b.len() as u64);
                out.extend_from_slice(b);
            }
            Value::Text(t) => {
                write_head(out, 3, t.len() as u64);
                out.extend_from_slice(t.as_bytes());
            }
            Value::Array(items) => {
                write_head(out, 4, items.len() as u64);
                for item in items {
                    item.encode_into(out);
                }
            }
            Value::Map(pairs) => {
                write_head(out, 5, pairs.len() as u64);
                for (k, v) in pairs {
                    k.encode_into(out);
                    v.encode_into(out);
                }
            }
            Value::Tag(tag, inner) => {
                write_head(out, 6, *tag);
                inner.encode_into(out);
            }
            Value::Bool(false) => out.push(0xf4),
            Value::Bool(true) => out.push(0xf5),
            Value::Null => out.push(0xf6),
        }
    }

    /// Decode a single CBOR item consuming the entire input.
    pub fn decode(data: &[u8]) -> Result<Value, CryptoError> {
        let mut dec = Decoder::new(data);
        let v = dec.item()?;
        if !dec.is_empty() {
            return Err(CryptoError::Malformed);
        }
        Ok(v)
    }

    /// Construct a signed integer value.
    pub fn int(n: i64) -> Value {
        if n >= 0 {
            Value::Uint(n as u64)
        } else {
            Value::Nint((-1 - n) as u64)
        }
    }
}

/// Write a major-type head with shortest-form argument.
fn write_head(out: &mut Vec<u8>, major: u8, arg: u64) {
    let mt = major << 5;
    if arg < 24 {
        out.push(mt | arg as u8);
    } else if arg <= 0xff {
        out.push(mt | 24);
        out.push(arg as u8);
    } else if arg <= 0xffff {
        out.push(mt | 25);
        out.extend_from_slice(&(arg as u16).to_be_bytes());
    } else if arg <= 0xffff_ffff {
        out.push(mt | 26);
        out.extend_from_slice(&(arg as u32).to_be_bytes());
    } else {
        out.push(mt | 27);
        out.extend_from_slice(&arg.to_be_bytes());
    }
}

/// Stateful CBOR decoder over a byte slice.
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Maximum nesting depth accepted (defends against stack exhaustion from
/// adversarial input).
const MAX_DEPTH: usize = 32;

impl<'a> Decoder<'a> {
    /// Create a decoder over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder {
            data,
            pos: 0,
            depth: 0,
        }
    }

    /// Whether all input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.data.len()
    }

    fn byte(&mut self) -> Result<u8, CryptoError> {
        let b = *self.data.get(self.pos).ok_or(CryptoError::Malformed)?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CryptoError> {
        if self.data.len() - self.pos < n {
            return Err(CryptoError::Malformed);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn argument(&mut self, info: u8) -> Result<u64, CryptoError> {
        match info {
            0..=23 => Ok(info as u64),
            24 => Ok(self.byte()? as u64),
            25 => {
                let b = self.take(2)?;
                Ok(u16::from_be_bytes([b[0], b[1]]) as u64)
            }
            26 => {
                let b = self.take(4)?;
                Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as u64)
            }
            27 => {
                let b = self.take(8)?;
                Ok(u64::from_be_bytes(b.try_into().expect("8 bytes")))
            }
            _ => Err(CryptoError::Malformed), // indefinite / reserved
        }
    }

    /// Decode the next data item.
    pub fn item(&mut self) -> Result<Value, CryptoError> {
        if self.depth >= MAX_DEPTH {
            return Err(CryptoError::Malformed);
        }
        let initial = self.byte()?;
        let major = initial >> 5;
        let info = initial & 0x1f;
        match major {
            0 => Ok(Value::Uint(self.argument(info)?)),
            1 => Ok(Value::Nint(self.argument(info)?)),
            2 => {
                let len = self.argument(info)? as usize;
                Ok(Value::Bytes(self.take(len)?.to_vec()))
            }
            3 => {
                let len = self.argument(info)? as usize;
                let raw = self.take(len)?;
                let s = std::str::from_utf8(raw).map_err(|_| CryptoError::Malformed)?;
                Ok(Value::Text(s.to_string()))
            }
            4 => {
                let len = self.argument(info)? as usize;
                // Each element takes at least one byte — pre-check to
                // bound allocation on adversarial length claims.
                if len > self.data.len() - self.pos {
                    return Err(CryptoError::Malformed);
                }
                let mut items = Vec::with_capacity(len.min(64));
                self.depth += 1;
                for _ in 0..len {
                    items.push(self.item()?);
                }
                self.depth -= 1;
                Ok(Value::Array(items))
            }
            5 => {
                let len = self.argument(info)? as usize;
                if len > (self.data.len() - self.pos) / 2 {
                    return Err(CryptoError::Malformed);
                }
                let mut pairs = Vec::with_capacity(len.min(64));
                self.depth += 1;
                for _ in 0..len {
                    let k = self.item()?;
                    let v = self.item()?;
                    pairs.push((k, v));
                }
                self.depth -= 1;
                Ok(Value::Map(pairs))
            }
            6 => {
                let tag = self.argument(info)?;
                self.depth += 1;
                let inner = self.item()?;
                self.depth -= 1;
                Ok(Value::Tag(tag, Box::new(inner)))
            }
            7 => match info {
                20 => Ok(Value::Bool(false)),
                21 => Ok(Value::Bool(true)),
                22 => Ok(Value::Null),
                _ => Err(CryptoError::Malformed),
            },
            _ => unreachable!("major type is 3 bits"),
        }
    }
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

    /// RFC 8949 Appendix A examples for integers.
    #[test]
    fn rfc8949_integers() {
        assert_eq!(Value::Uint(0).encode(), unhex("00"));
        assert_eq!(Value::Uint(23).encode(), unhex("17"));
        assert_eq!(Value::Uint(24).encode(), unhex("1818"));
        assert_eq!(Value::Uint(100).encode(), unhex("1864"));
        assert_eq!(Value::Uint(1000).encode(), unhex("1903e8"));
        assert_eq!(Value::Uint(1_000_000).encode(), unhex("1a000f4240"));
        assert_eq!(
            Value::Uint(1_000_000_000_000).encode(),
            unhex("1b000000e8d4a51000")
        );
        assert_eq!(Value::int(-1).encode(), unhex("20"));
        assert_eq!(Value::int(-10).encode(), unhex("29"));
        assert_eq!(Value::int(-100).encode(), unhex("3863"));
        assert_eq!(Value::int(-1000).encode(), unhex("3903e7"));
    }

    /// RFC 8949 Appendix A examples for strings/arrays/maps.
    #[test]
    fn rfc8949_composites() {
        assert_eq!(
            Value::Bytes(unhex("01020304")).encode(),
            unhex("4401020304")
        );
        assert_eq!(Value::Text("IETF".into()).encode(), unhex("6449455446"));
        assert_eq!(
            Value::Array(vec![Value::Uint(1), Value::Uint(2), Value::Uint(3)]).encode(),
            unhex("83010203")
        );
        assert_eq!(
            Value::Map(vec![
                (Value::Uint(1), Value::Uint(2)),
                (Value::Uint(3), Value::Uint(4))
            ])
            .encode(),
            unhex("a201020304")
        );
        assert_eq!(Value::Bool(true).encode(), unhex("f5"));
        assert_eq!(Value::Null.encode(), unhex("f6"));
    }

    #[test]
    fn tag_roundtrip() {
        let v = Value::Tag(24, Box::new(Value::Bytes(vec![1, 2, 3])));
        assert_eq!(Value::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn roundtrip_nested() {
        let v = Value::Array(vec![
            Value::Text("example.org".into()),
            Value::Uint(28),
            Value::Map(vec![(Value::int(-5), Value::Bytes(vec![0xAA; 20]))]),
            Value::Null,
            Value::Bool(false),
        ]);
        assert_eq!(Value::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn reject_trailing_garbage() {
        let mut data = Value::Uint(1).encode();
        data.push(0x00);
        assert!(Value::decode(&data).is_err());
    }

    #[test]
    fn reject_truncated() {
        let data = Value::Bytes(vec![1, 2, 3, 4]).encode();
        assert!(Value::decode(&data[..3]).is_err());
    }

    #[test]
    fn reject_indefinite_and_floats() {
        assert!(Value::decode(&unhex("5f")).is_err()); // indefinite bytes
        assert!(Value::decode(&unhex("f97e00")).is_err()); // float16 NaN
        assert!(Value::decode(&unhex("ff")).is_err()); // lone break
    }

    #[test]
    fn reject_bad_utf8_text() {
        // Text string of length 2 with invalid UTF-8.
        assert!(Value::decode(&[0x62, 0xff, 0xfe]).is_err());
    }

    #[test]
    fn reject_huge_claimed_array() {
        // Array claiming 2^32 elements with no content must not allocate.
        assert!(Value::decode(&unhex("9affffffff")).is_err());
    }

    #[test]
    fn reject_deep_nesting() {
        // 64 nested arrays exceeds MAX_DEPTH.
        let mut data = vec![0x81u8; 64];
        data.push(0x01);
        assert!(Value::decode(&data).is_err());
    }

    #[test]
    fn int_conversions() {
        assert_eq!(Value::int(-1), Value::Nint(0));
        assert_eq!(Value::int(42), Value::Uint(42));
        assert_eq!(Value::int(i64::MIN + 1), Value::Nint(i64::MAX as u64 - 1));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Uint(7).as_uint(), Some(7));
        assert_eq!(Value::Bytes(vec![1]).as_bytes(), Some(&[1u8][..]));
        assert!(Value::Array(vec![]).as_array().is_some());
        assert_eq!(Value::Null.as_uint(), None);
    }
}
