//! CoAP message codec (RFC 7252 §3).
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |Ver| T |  TKL  |      Code     |          Message ID           |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |   Token (if any, TKL bytes) ...                               |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |   Options (if any) ...  | 0xFF | Payload (if any) ...         |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```

use crate::opt::{CoapOption, OptionNumber};
use crate::CoapError;

/// Message types (RFC 7252 §4.2/§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgType {
    /// Confirmable — retransmitted until acknowledged.
    Con,
    /// Non-confirmable.
    Non,
    /// Acknowledgement.
    Ack,
    /// Reset.
    Rst,
}

impl MsgType {
    /// The 2-bit wire representation (RFC 7252 §3).
    pub fn to_bits(self) -> u8 {
        match self {
            MsgType::Con => 0,
            MsgType::Non => 1,
            MsgType::Ack => 2,
            MsgType::Rst => 3,
        }
    }
    pub(crate) fn from_bits(b: u8) -> Self {
        match b & 3 {
            0 => MsgType::Con,
            1 => MsgType::Non,
            2 => MsgType::Ack,
            _ => MsgType::Rst,
        }
    }
}

/// A CoAP code: class (3 bits) . detail (5 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Code(pub u8);

impl Code {
    /// 0.00 Empty.
    pub const EMPTY: Code = Code(0x00);
    /// 0.01 GET.
    pub const GET: Code = Code(0x01);
    /// 0.02 POST.
    pub const POST: Code = Code(0x02);
    /// 0.03 PUT.
    pub const PUT: Code = Code(0x03);
    /// 0.04 DELETE.
    pub const DELETE: Code = Code(0x04);
    /// 0.05 FETCH (RFC 8132) — the paper's preferred DoC method.
    pub const FETCH: Code = Code(0x05);
    /// 0.06 PATCH (RFC 8132).
    pub const PATCH: Code = Code(0x06);
    /// 0.07 iPATCH (RFC 8132).
    pub const IPATCH: Code = Code(0x07);
    /// 2.01 Created.
    pub const CREATED: Code = Code(0x41);
    /// 2.02 Deleted.
    pub const DELETED: Code = Code(0x42);
    /// 2.03 Valid — confirms a cache entry on ETag revalidation.
    pub const VALID: Code = Code(0x43);
    /// 2.04 Changed.
    pub const CHANGED: Code = Code(0x44);
    /// 2.05 Content.
    pub const CONTENT: Code = Code(0x45);
    /// 2.31 Continue (RFC 7959 Block1 flow).
    pub const CONTINUE: Code = Code(0x5F);
    /// 4.00 Bad Request.
    pub const BAD_REQUEST: Code = Code(0x80);
    /// 4.01 Unauthorized — OSCORE replay-window init (Echo) response.
    pub const UNAUTHORIZED: Code = Code(0x81);
    /// 4.02 Bad Option.
    pub const BAD_OPTION: Code = Code(0x82);
    /// 4.04 Not Found.
    pub const NOT_FOUND: Code = Code(0x84);
    /// 4.05 Method Not Allowed.
    pub const METHOD_NOT_ALLOWED: Code = Code(0x85);
    /// 4.08 Request Entity Incomplete (RFC 7959).
    pub const REQUEST_ENTITY_INCOMPLETE: Code = Code(0x88);
    /// 4.13 Request Entity Too Large (RFC 7959).
    pub const REQUEST_ENTITY_TOO_LARGE: Code = Code(0x8D);
    /// 4.15 Unsupported Content-Format.
    pub const UNSUPPORTED_CONTENT_FORMAT: Code = Code(0x8F);
    /// 5.00 Internal Server Error.
    pub const INTERNAL_SERVER_ERROR: Code = Code(0xA0);
    /// 5.02 Bad Gateway.
    pub const BAD_GATEWAY: Code = Code(0xA2);
    /// 5.04 Gateway Timeout.
    pub const GATEWAY_TIMEOUT: Code = Code(0xA4);

    /// Code class (0 = request, 2 = success, 4 = client error, 5 =
    /// server error).
    pub fn class(self) -> u8 {
        self.0 >> 5
    }

    /// Code detail.
    pub fn detail(self) -> u8 {
        self.0 & 0x1F
    }

    /// Is this a request method code?
    pub fn is_request(self) -> bool {
        self.class() == 0 && self.0 != 0
    }

    /// Is this a response code?
    pub fn is_response(self) -> bool {
        matches!(self.class(), 2 | 4 | 5)
    }

    /// Is this a successful response?
    pub fn is_success(self) -> bool {
        self.class() == 2
    }
}

impl core::fmt::Display for Code {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}.{:02}", self.class(), self.detail())
    }
}

/// A decoded CoAP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoapMessage {
    /// Message type (CON/NON/ACK/RST).
    pub mtype: MsgType,
    /// Request/response code.
    pub code: Code,
    /// Message ID (message-layer correlation).
    pub message_id: u16,
    /// Token (request/response correlation), up to 8 bytes.
    pub token: Vec<u8>,
    /// Options, kept sorted by option number on encode.
    pub options: Vec<CoapOption>,
    /// Payload (may be empty).
    pub payload: Vec<u8>,
}

impl CoapMessage {
    /// Build a request with the given method.
    pub fn request(method: Code, mtype: MsgType, message_id: u16, token: Vec<u8>) -> Self {
        debug_assert!(method.is_request());
        CoapMessage {
            mtype,
            code: method,
            message_id,
            token,
            options: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Build a piggybacked (ACK) response to `req`.
    pub fn ack_response(req: &CoapMessage, code: Code) -> Self {
        Self::ack_reply(req.message_id, req.token.clone(), code)
    }

    /// Build a piggybacked (ACK) response from the exchange identifiers
    /// directly, taking ownership of the token — the no-clone path for
    /// reply construction from consumed exchange state or a borrowed
    /// request view.
    pub fn ack_reply(message_id: u16, token: Vec<u8>, code: Code) -> Self {
        CoapMessage {
            mtype: MsgType::Ack,
            code,
            message_id,
            token,
            options: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Build an empty ACK for `message_id` (separate-response flow).
    pub fn empty_ack(message_id: u16) -> Self {
        CoapMessage {
            mtype: MsgType::Ack,
            code: Code::EMPTY,
            message_id,
            token: Vec::new(),
            options: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Build a Reset message for `message_id`.
    pub fn reset(message_id: u16) -> Self {
        CoapMessage {
            mtype: MsgType::Rst,
            code: Code::EMPTY,
            message_id,
            token: Vec::new(),
            options: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Add an option (builder style).
    pub fn with_option(mut self, opt: CoapOption) -> Self {
        self.options.push(opt);
        self
    }

    /// Add a payload (builder style).
    pub fn with_payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }

    /// First option with the given number.
    pub fn option(&self, number: OptionNumber) -> Option<&CoapOption> {
        self.options.iter().find(|o| o.number == number)
    }

    /// All options with the given number (e.g. repeated Uri-Path).
    pub fn options_of(&self, number: OptionNumber) -> impl Iterator<Item = &CoapOption> {
        self.options.iter().filter(move |o| o.number == number)
    }

    /// Set (replacing) a single-instance option.
    pub fn set_option(&mut self, opt: CoapOption) {
        self.options.retain(|o| o.number != opt.number);
        self.options.push(opt);
    }

    /// Remove all instances of an option.
    pub fn remove_option(&mut self, number: OptionNumber) {
        self.options.retain(|o| o.number != number);
    }

    /// Max-Age value (default 60 per RFC 7252 §5.10.5 when absent).
    pub fn max_age(&self) -> u32 {
        self.option(OptionNumber::MAX_AGE)
            .map(|o| o.as_uint())
            .unwrap_or(60)
    }

    /// The reconstructed Uri-Path ("/a/b" form).
    pub fn uri_path(&self) -> String {
        let segs: Vec<String> = self
            .options_of(OptionNumber::URI_PATH)
            .map(|o| o.as_str())
            .collect();
        format!("/{}", segs.join("/"))
    }

    /// Encode to wire bytes (exact-capacity allocation, then
    /// [`CoapMessage::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Append the wire form to an existing buffer. With a reused `out`
    /// and options already in ascending number order (the case for
    /// every builder in this workspace), the encode performs zero heap
    /// allocations: option headers, extended delta/length bytes and
    /// values are written directly into the output.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        assert!(self.token.len() <= 8, "token too long");
        encode_header_into(self.mtype, self.code, self.message_id, &self.token, out);
        encode_options_into(self.options.iter(), out);
        encode_payload_into(&self.payload, out);
    }

    /// Decode from wire bytes.
    pub fn decode(data: &[u8]) -> Result<Self, CoapError> {
        if data.len() < 4 {
            return Err(CoapError::Truncated);
        }
        let ver = data[0] >> 6;
        if ver != 1 {
            return Err(CoapError::BadVersion);
        }
        let mtype = MsgType::from_bits(data[0] >> 4);
        let tkl = (data[0] & 0x0F) as usize;
        if tkl > 8 {
            return Err(CoapError::BadHeader);
        }
        let code = Code(data[1]);
        let message_id = u16::from_be_bytes([data[2], data[3]]);
        let token = data.get(4..4 + tkl).ok_or(CoapError::Truncated)?.to_vec();

        let mut pos = 4 + tkl;
        let mut options = Vec::new();
        let mut number = 0u16;
        let mut payload = Vec::new();
        while pos < data.len() {
            let byte = data[pos];
            if byte == 0xFF {
                pos += 1;
                if pos == data.len() {
                    // Payload marker followed by zero-length payload is
                    // a format error (RFC 7252 §3).
                    return Err(CoapError::Truncated);
                }
                payload = data[pos..].to_vec();
                break;
            }
            pos += 1;
            let delta = read_ext(byte >> 4, data, &mut pos)?;
            let len = read_ext(byte & 0x0F, data, &mut pos)? as usize;
            number = number
                .checked_add(u16::try_from(delta).map_err(|_| CoapError::BadOption)?)
                .ok_or(CoapError::BadOption)?;
            let value = data
                .get(pos..pos + len)
                .ok_or(CoapError::Truncated)?
                .to_vec();
            pos += len;
            options.push(CoapOption::new(OptionNumber(number), value));
        }
        Ok(CoapMessage {
            mtype,
            code,
            message_id,
            token,
            options,
            payload,
        })
    }

    /// Encoded size computed analytically, without building any buffer
    /// (used by the packet-size analyses of Fig. 6/14 and to size
    /// [`CoapMessage::encode`]'s single allocation exactly).
    pub fn encoded_len(&self) -> usize {
        let mut n = 4 + self.token.len();
        if is_sorted(&self.options) {
            let mut prev = 0u16;
            for o in &self.options {
                n += option_wire_len(prev, o);
                prev = o.number.0;
            }
        } else {
            let mut nums: Vec<(u16, usize)> = self
                .options
                .iter()
                .map(|o| (o.number.0, o.value.len()))
                .collect();
            nums.sort_unstable();
            let mut prev = 0u16;
            for (num, len) in nums {
                n += 1 + ext_len((num - prev) as u32) + ext_len(len as u32) + len;
                prev = num;
            }
        }
        if !self.payload.is_empty() {
            n += 1 + self.payload.len();
        }
        n
    }
}

fn is_sorted(opts: &[CoapOption]) -> bool {
    opts.windows(2).all(|w| w[0].number.0 <= w[1].number.0)
}

/// Wire length of one option after an option numbered `prev`.
fn option_wire_len(prev: u16, opt: &CoapOption) -> usize {
    1 + ext_len((opt.number.0 - prev) as u32) + ext_len(opt.value.len() as u32) + opt.value.len()
}

/// Number of extended bytes a delta/length value needs (RFC 7252 §3.1).
fn ext_len(v: u32) -> usize {
    match v {
        0..=12 => 0,
        13..=268 => 1,
        _ => 2,
    }
}

/// The 4-bit nibble announcing a delta/length value.
fn nibble(v: u32) -> u8 {
    match v {
        0..=12 => v as u8,
        13..=268 => 13,
        _ => 14,
    }
}

/// Write a value's extended bytes (if any) for the given nibble.
fn push_ext(nib: u8, v: u32, out: &mut Vec<u8>) {
    match nib {
        13 => out.push((v - 13) as u8),
        14 => out.extend_from_slice(&((v - 269) as u16).to_be_bytes()),
        _ => {}
    }
}

/// Append one option's wire form given the number of the previously
/// written option; returns this option's number for delta chaining.
/// Header, extended bytes and value go directly into `out` — no
/// intermediate buffers.
pub fn encode_option_into(prev_number: u16, opt: &CoapOption, out: &mut Vec<u8>) -> u16 {
    encode_raw_option_into(prev_number, opt.number.0, &opt.value, out)
}

/// [`encode_option_into`] for a raw (number, value) pair — lets callers
/// emit options whose values live on the stack (e.g. the OSCORE option
/// in the wire-direct protect path) without building a [`CoapOption`].
pub fn encode_raw_option_into(
    prev_number: u16,
    number: u16,
    value: &[u8],
    out: &mut Vec<u8>,
) -> u16 {
    debug_assert!(number >= prev_number, "options must be ordered");
    let delta = (number - prev_number) as u32;
    let len = value.len() as u32;
    let (dn, ln) = (nibble(delta), nibble(len));
    out.push((dn << 4) | ln);
    push_ext(dn, delta, out);
    push_ext(ln, len, out);
    out.extend_from_slice(value);
    number
}

/// [`encode_raw_option_into`] for a uint-valued option (RFC 7252 §3.2
/// shortest big-endian form, `0` as the empty string), with the value
/// bytes on the stack instead of in a [`CoapOption`].
pub fn encode_uint_option_into(prev_number: u16, number: u16, v: u32, out: &mut Vec<u8>) -> u16 {
    let bytes = v.to_be_bytes();
    let skip = bytes.iter().take_while(|&&b| b == 0).count();
    encode_raw_option_into(prev_number, number, &bytes[skip..], out)
}

/// Append the fixed header and token of a message (version 1). Callers
/// that assemble a reply field by field start here, then add options
/// in ascending order and the payload.
pub fn encode_header_into(
    mtype: MsgType,
    code: Code,
    message_id: u16,
    token: &[u8],
    out: &mut Vec<u8>,
) {
    debug_assert!(token.len() <= 8, "token too long");
    out.push(0x40 | (mtype.to_bits() << 4) | token.len() as u8);
    out.push(code.0);
    out.extend_from_slice(&message_id.to_be_bytes());
    out.extend_from_slice(token);
}

/// Append a payload behind the payload marker; nothing for an empty
/// payload (RFC 7252 §3: a marker followed by zero bytes is invalid).
pub fn encode_payload_into(payload: &[u8], out: &mut Vec<u8>) {
    if !payload.is_empty() {
        out.push(0xFF);
        out.extend_from_slice(payload);
    }
}

/// Append a run of options in ascending option-number order.
///
/// Pre-sorted input — the overwhelmingly common case, since every
/// builder in this workspace adds options in ascending order — streams
/// straight into `out` without allocating. If an out-of-order option is
/// encountered, the partial output is rolled back and a sort-indices
/// slow path re-encodes the run.
pub fn encode_options_into<'a, I>(opts: I, out: &mut Vec<u8>)
where
    I: Iterator<Item = &'a CoapOption> + Clone,
{
    let start = out.len();
    let mut prev = 0u16;
    // lint:allow(no-alloc-in-into): clones the iterator handle, not the options
    for opt in opts.clone() {
        if opt.number.0 < prev {
            // Out of order: roll back and sort (stable, preserving the
            // relative order of repeated options — RFC 7252 §3.1).
            out.truncate(start);
            // lint:allow(no-alloc-in-into): documented out-of-order fallback; the common pre-sorted path never reaches this
            let mut sorted: Vec<&CoapOption> = opts.collect();
            sorted.sort_by_key(|o| o.number.0);
            let mut prev = 0u16;
            for o in sorted {
                prev = encode_option_into(prev, o, out);
            }
            return;
        }
        prev = encode_option_into(prev, opt, out);
    }
}

/// Read an extended delta/length value (RFC 7252 §3.1; nibble 15
/// outside the payload marker is a format error). Shared with the
/// borrowed [`crate::view::CoapView`] parser so the owned and view
/// decoders can never diverge on these rules.
pub(crate) fn read_ext(nibble: u8, data: &[u8], pos: &mut usize) -> Result<u32, CoapError> {
    match nibble {
        0..=12 => Ok(nibble as u32),
        13 => {
            let b = *data.get(*pos).ok_or(CoapError::Truncated)?;
            *pos += 1;
            Ok(b as u32 + 13)
        }
        14 => {
            let b = data.get(*pos..*pos + 2).ok_or(CoapError::Truncated)?;
            *pos += 2;
            Ok(u16::from_be_bytes([b[0], b[1]]) as u32 + 269)
        }
        _ => Err(CoapError::BadOption),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch_request() -> CoapMessage {
        CoapMessage::request(Code::FETCH, MsgType::Con, 0x1234, vec![0xAB, 0xCD])
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
            .with_option(CoapOption::uint(OptionNumber::CONTENT_FORMAT, 553))
            .with_payload(b"dns query bytes".to_vec())
    }

    #[test]
    fn header_roundtrip() {
        let m = fetch_request();
        let wire = m.encode();
        let back = CoapMessage::decode(&wire).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn minimal_empty_message() {
        let ack = CoapMessage::empty_ack(7);
        let wire = ack.encode();
        assert_eq!(wire.len(), 4);
        let back = CoapMessage::decode(&wire).unwrap();
        assert_eq!(back.code, Code::EMPTY);
        assert_eq!(back.mtype, MsgType::Ack);
        assert_eq!(back.message_id, 7);
    }

    #[test]
    fn code_display() {
        assert_eq!(Code::CONTENT.to_string(), "2.05");
        assert_eq!(Code::VALID.to_string(), "2.03");
        assert_eq!(Code::CONTINUE.to_string(), "2.31");
        assert_eq!(Code::UNAUTHORIZED.to_string(), "4.01");
        assert_eq!(Code::FETCH.to_string(), "0.05");
    }

    #[test]
    fn code_classification() {
        assert!(Code::FETCH.is_request());
        assert!(Code::GET.is_request());
        assert!(!Code::EMPTY.is_request());
        assert!(Code::CONTENT.is_response());
        assert!(Code::CONTENT.is_success());
        assert!(!Code::BAD_REQUEST.is_success());
        assert!(Code::BAD_REQUEST.is_response());
    }

    #[test]
    fn option_sorting_on_encode() {
        // Insert out of order; wire must use ascending deltas.
        let m = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![])
            .with_option(CoapOption::uint(OptionNumber::MAX_AGE, 300))
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
            .with_option(CoapOption::new(OptionNumber::ETAG, vec![1, 2, 3, 4]));
        let back = CoapMessage::decode(&m.encode()).unwrap();
        let nums: Vec<u16> = back.options.iter().map(|o| o.number.0).collect();
        assert_eq!(nums, vec![4, 11, 14]);
    }

    #[test]
    fn repeated_uri_path() {
        let m = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![])
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"query".to_vec()));
        let back = CoapMessage::decode(&m.encode()).unwrap();
        assert_eq!(back.uri_path(), "/dns/query");
        assert_eq!(back.options_of(OptionNumber::URI_PATH).count(), 2);
    }

    #[test]
    fn large_option_delta_and_length() {
        // Echo (252) needs the 1-byte extended delta; a 300-byte value
        // needs the 2-byte extended length.
        let m = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![])
            .with_option(CoapOption::new(OptionNumber::ECHO, vec![0x5A; 300]))
            .with_option(CoapOption::new(OptionNumber::NO_RESPONSE, vec![2]));
        let back = CoapMessage::decode(&m.encode()).unwrap();
        assert_eq!(back.option(OptionNumber::ECHO).unwrap().value.len(), 300);
        assert_eq!(
            back.option(OptionNumber::NO_RESPONSE).unwrap().value,
            vec![2]
        );
    }

    #[test]
    fn max_age_default() {
        let m = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![]);
        assert_eq!(m.max_age(), 60);
        let m = m.with_option(CoapOption::uint(OptionNumber::MAX_AGE, 0));
        assert_eq!(m.max_age(), 0);
    }

    #[test]
    fn set_and_remove_option() {
        let mut m = fetch_request();
        m.set_option(CoapOption::uint(OptionNumber::CONTENT_FORMAT, 999));
        assert_eq!(
            m.option(OptionNumber::CONTENT_FORMAT).unwrap().as_uint(),
            999
        );
        assert_eq!(m.options_of(OptionNumber::CONTENT_FORMAT).count(), 1);
        m.remove_option(OptionNumber::CONTENT_FORMAT);
        assert!(m.option(OptionNumber::CONTENT_FORMAT).is_none());
    }

    #[test]
    fn reject_bad_version() {
        let mut wire = fetch_request().encode();
        wire[0] = (wire[0] & 0x3F) | 0x80; // version 2
        assert_eq!(CoapMessage::decode(&wire), Err(CoapError::BadVersion));
    }

    #[test]
    fn reject_token_too_long() {
        let wire = [0x49u8, 0x01, 0, 1]; // TKL 9
        assert_eq!(CoapMessage::decode(&wire), Err(CoapError::BadHeader));
    }

    #[test]
    fn reject_truncated_token() {
        let wire = [0x42u8, 0x01, 0, 1, 0xAA]; // TKL 2 but 1 byte present
        assert_eq!(CoapMessage::decode(&wire), Err(CoapError::Truncated));
    }

    #[test]
    fn reject_empty_payload_after_marker() {
        let mut wire = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![]).encode();
        wire.push(0xFF);
        assert_eq!(CoapMessage::decode(&wire), Err(CoapError::Truncated));
    }

    #[test]
    fn reject_reserved_nibble() {
        // Option byte 0xF0: delta nibble 15 without payload marker.
        let mut wire = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![]).encode();
        wire.push(0xF0);
        assert_eq!(CoapMessage::decode(&wire), Err(CoapError::BadOption));
    }

    #[test]
    fn reject_truncated_option_value() {
        let mut wire = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![]).encode();
        wire.push(0x43); // delta 4 (ETag), length 3
        wire.push(0x01); // only 1 of 3 value bytes
        assert_eq!(CoapMessage::decode(&wire), Err(CoapError::Truncated));
    }

    #[test]
    fn decode_never_panics_on_fuzz_corpus() {
        // A cheap deterministic fuzz: decode every 1..64-byte slice of a
        // pseudo-random stream. Must never panic.
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        for start in (0..data.len() - 64).step_by(7) {
            for len in [1usize, 4, 5, 13, 29, 64] {
                let _ = CoapMessage::decode(&data[start..start + len]);
            }
        }
    }

    #[test]
    fn encoded_len_matches_encode() {
        // Sorted, unsorted, extended-delta/length, empty, payload-less.
        let msgs = vec![
            fetch_request(),
            CoapMessage::empty_ack(9),
            CoapMessage::request(Code::GET, MsgType::Con, 1, vec![1, 2, 3])
                .with_option(CoapOption::uint(OptionNumber::MAX_AGE, 300))
                .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
                .with_option(CoapOption::new(OptionNumber::ETAG, vec![1, 2, 3, 4])),
            CoapMessage::request(Code::GET, MsgType::Con, 1, vec![])
                .with_option(CoapOption::new(OptionNumber::ECHO, vec![0x5A; 300]))
                .with_option(CoapOption::new(OptionNumber::NO_RESPONSE, vec![2])),
        ];
        for m in msgs {
            assert_eq!(m.encoded_len(), m.encode().len(), "{m:?}");
        }
    }

    #[test]
    fn unsorted_encode_rolls_back_and_preserves_repeat_order() {
        // Two Uri-Path segments followed by an out-of-order ETag: the
        // slow path must keep "a" before "b" (stable sort).
        let m = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![])
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"a".to_vec()))
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"b".to_vec()))
            .with_option(CoapOption::new(OptionNumber::ETAG, vec![7]))
            .with_payload(b"x".to_vec());
        let back = CoapMessage::decode(&m.encode()).unwrap();
        assert_eq!(back.uri_path(), "/a/b");
        assert_eq!(back.option(OptionNumber::ETAG).unwrap().value, vec![7]);
        assert_eq!(back.payload, b"x");
        assert_eq!(m.encoded_len(), m.encode().len());
    }

    #[test]
    fn encode_into_reuses_buffer() {
        let m = fetch_request();
        let mut buf = Vec::new();
        for _ in 0..3 {
            buf.clear();
            m.encode_into(&mut buf);
            assert_eq!(CoapMessage::decode(&buf).unwrap(), m);
        }
        assert_eq!(buf.len(), m.encoded_len());
    }

    #[test]
    fn coap_header_is_4_bytes_plus_token() {
        // Fig. 6 relies on CoAP adding only a few bytes: verify the
        // minimal FETCH request framing overhead.
        let m = CoapMessage::request(Code::FETCH, MsgType::Con, 1, vec![0x01])
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
            .with_payload(vec![0u8; 10]);
        // 4 header + 1 token + (1 opt hdr + 3 "dns") + 1 marker + 10
        assert_eq!(m.encoded_len(), 4 + 1 + 4 + 1 + 10);
    }
}
