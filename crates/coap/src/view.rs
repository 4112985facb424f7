//! Borrowed, zero-copy view over a CoAP wire message.
//!
//! [`CoapView`] is the decode-side counterpart of `encode_into`: where
//! [`CoapMessage::decode`] copies the token, every option value and the
//! payload into owned `Vec`s, a view keeps them as slices of the
//! original datagram and walks the option run lazily. Parsing validates
//! the whole message up front with exactly the accept/reject behaviour
//! of the owned decoder (property-tested), so the option iterator is
//! infallible.
//!
//! Views are for messages that do not outlive their datagram — the
//! proxy/server request hot path, cache-key derivation, OSCORE outer
//! parsing. [`CoapView::to_owned`] is the escape hatch for the moment a
//! message must be stored (cache insertion, outstanding exchanges).

use crate::msg::{
    encode_header_into, encode_payload_into, encode_raw_option_into, read_ext, CoapMessage, Code,
    MsgType,
};
use crate::opt::{decode_uint_value, CoapOption, OptionNumber};
use crate::CoapError;

/// One option as seen on the wire: number plus a borrowed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptionView<'a> {
    /// Option number.
    pub number: OptionNumber,
    /// Raw option value (borrowed from the datagram).
    pub value: &'a [u8],
}

impl OptionView<'_> {
    /// Decode this option's value as a uint (RFC 7252 §3.2).
    pub fn as_uint(&self) -> u32 {
        decode_uint_value(self.value)
    }

    /// Materialize an owned [`CoapOption`].
    pub fn to_owned(&self) -> CoapOption {
        CoapOption::new(self.number, self.value.to_vec())
    }
}

/// A validated, borrowed view of a CoAP wire message.
#[derive(Debug, Clone, Copy)]
pub struct CoapView<'a> {
    /// Message type (CON/NON/ACK/RST).
    pub mtype: MsgType,
    /// Request/response code.
    pub code: Code,
    /// Message ID.
    pub message_id: u16,
    token: &'a [u8],
    /// The option run (everything between token and payload marker).
    options_wire: &'a [u8],
    payload: &'a [u8],
}

impl<'a> CoapView<'a> {
    /// Parse and fully validate `data`, accepting and rejecting exactly
    /// the inputs [`CoapMessage::decode`] does, without allocating.
    pub fn parse(data: &'a [u8]) -> Result<Self, CoapError> {
        let (header, _) = data.split_first_chunk::<4>().ok_or(CoapError::Truncated)?;
        let &[first, code_byte, mid_hi, mid_lo] = header;
        let ver = first >> 6;
        if ver != 1 {
            return Err(CoapError::BadVersion);
        }
        let mtype = MsgType::from_bits(first >> 4);
        let tkl = (first & 0x0F) as usize;
        if tkl > 8 {
            return Err(CoapError::BadHeader);
        }
        let code = Code(code_byte);
        let message_id = u16::from_be_bytes([mid_hi, mid_lo]);
        let token = data.get(4..4 + tkl).ok_or(CoapError::Truncated)?;

        // Validate the option run and locate the payload.
        let options_start = 4 + tkl;
        let mut pos = options_start;
        let mut number = 0u16;
        let mut options_end = data.len();
        let mut payload: &[u8] = &[];
        while let Some(&byte) = data.get(pos) {
            if byte == 0xFF {
                options_end = pos;
                pos += 1;
                payload = data.get(pos..).ok_or(CoapError::Truncated)?;
                if payload.is_empty() {
                    return Err(CoapError::Truncated);
                }
                break;
            }
            pos += 1;
            let delta = read_ext(byte >> 4, data, &mut pos)?;
            let len = read_ext(byte & 0x0F, data, &mut pos)? as usize;
            number = number
                .checked_add(u16::try_from(delta).map_err(|_| CoapError::BadOption)?)
                .ok_or(CoapError::BadOption)?;
            if data.get(pos..pos + len).is_none() {
                return Err(CoapError::Truncated);
            }
            pos += len;
        }
        Ok(CoapView {
            mtype,
            code,
            message_id,
            token,
            options_wire: data
                .get(options_start..options_end)
                .ok_or(CoapError::Truncated)?,
            payload,
        })
    }

    /// The token (borrowed).
    pub fn token(&self) -> &'a [u8] {
        self.token
    }

    /// The payload (borrowed; empty when absent).
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// Iterate the options lazily, in wire order (ascending numbers).
    pub fn options(&self) -> OptionIter<'a> {
        OptionIter {
            wire: self.options_wire,
            pos: 0,
            number: 0,
        }
    }

    /// First option with the given number.
    pub fn option(&self, number: OptionNumber) -> Option<OptionView<'a>> {
        self.options().find(|o| o.number == number)
    }

    /// All options with the given number (e.g. repeated Uri-Path).
    pub fn options_of(&self, number: OptionNumber) -> impl Iterator<Item = OptionView<'a>> {
        self.options().filter(move |o| o.number == number)
    }

    /// Max-Age value (default 60 per RFC 7252 §5.10.5 when absent).
    pub fn max_age(&self) -> u32 {
        self.option(OptionNumber::MAX_AGE)
            .map(|o| o.as_uint())
            .unwrap_or(60)
    }

    /// Append this message re-addressed to another exchange: type,
    /// message ID and token replaced, code, options and payload copied
    /// verbatim. A validated option run is canonical (each delta and
    /// length has exactly one encoding), so this is byte-identical to
    /// re-encoding [`CoapView::to_owned`] with those fields swapped.
    pub fn encode_rekeyed_into(
        &self,
        mtype: MsgType,
        message_id: u16,
        token: &[u8],
        out: &mut Vec<u8>,
    ) {
        encode_header_into(mtype, self.code, message_id, token, out);
        out.extend_from_slice(self.options_wire);
        encode_payload_into(self.payload, out);
    }

    /// Append this message with every `number` option replaced by one
    /// carrying `value`, emitted after the lower-numbered options — the
    /// wire twin of `to_owned()`, `set_option` and `encode`.
    pub fn encode_replacing_into(&self, number: OptionNumber, value: &[u8], out: &mut Vec<u8>) {
        encode_header_into(self.mtype, self.code, self.message_id, self.token, out);
        let mut prev = 0u16;
        let mut placed = false;
        for o in self.options().filter(|o| o.number != number) {
            if !placed && o.number.0 > number.0 {
                prev = encode_raw_option_into(prev, number.0, value, out);
                placed = true;
            }
            prev = encode_raw_option_into(prev, o.number.0, o.value, out);
        }
        if !placed {
            encode_raw_option_into(prev, number.0, value, out);
        }
        encode_payload_into(self.payload, out);
    }

    /// Materialize a fully owned [`CoapMessage`] — the escape hatch for
    /// the moment a message must outlive its datagram. Options come out
    /// in wire order (ascending numbers), which every encoder and the
    /// cache key treat identically to the original order.
    pub fn to_owned(&self) -> CoapMessage {
        CoapMessage {
            mtype: self.mtype,
            code: self.code,
            message_id: self.message_id,
            token: self.token.to_vec(),
            options: self.options().map(|o| o.to_owned()).collect(),
            payload: self.payload.to_vec(),
        }
    }
}

/// Lazy iterator over a validated option run.
#[derive(Debug, Clone)]
pub struct OptionIter<'a> {
    wire: &'a [u8],
    pos: usize,
    number: u16,
}

impl<'a> Iterator for OptionIter<'a> {
    type Item = OptionView<'a>;

    fn next(&mut self) -> Option<OptionView<'a>> {
        let byte = *self.wire.get(self.pos)?;
        self.pos += 1;
        let delta = read_ext(byte >> 4, self.wire, &mut self.pos).ok()?;
        let len = read_ext(byte & 0x0F, self.wire, &mut self.pos).ok()? as usize;
        self.number = self.number.checked_add(delta as u16)?;
        let value = self.wire.get(self.pos..self.pos + len)?;
        self.pos += len;
        Some(OptionView {
            number: OptionNumber(self.number),
            value,
        })
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
    fn view_agrees_with_owned_decode() {
        let m = fetch_request();
        let wire = m.encode();
        let view = CoapView::parse(&wire).unwrap();
        let owned = CoapMessage::decode(&wire).unwrap();
        assert_eq!(view.to_owned(), owned);
        assert_eq!(view.code, owned.code);
        assert_eq!(view.message_id, owned.message_id);
        assert_eq!(view.token(), &owned.token[..]);
        assert_eq!(view.payload(), &owned.payload[..]);
        let view_opts: Vec<(u16, &[u8])> = view.options().map(|o| (o.number.0, o.value)).collect();
        let owned_opts: Vec<(u16, &[u8])> = owned
            .options
            .iter()
            .map(|o| (o.number.0, &o.value[..]))
            .collect();
        assert_eq!(view_opts, owned_opts);
    }

    #[test]
    fn option_accessors() {
        let wire = fetch_request().encode();
        let view = CoapView::parse(&wire).unwrap();
        assert_eq!(
            view.option(OptionNumber::CONTENT_FORMAT).unwrap().as_uint(),
            553
        );
        assert!(view.option(OptionNumber::ETAG).is_none());
        assert_eq!(view.options_of(OptionNumber::URI_PATH).count(), 1);
        assert_eq!(view.max_age(), 60);
    }

    #[test]
    fn extended_deltas_and_lengths() {
        let m = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![])
            .with_option(CoapOption::new(OptionNumber::ECHO, vec![0x5A; 300]))
            .with_option(CoapOption::new(OptionNumber::NO_RESPONSE, vec![2]));
        let wire = m.encode();
        let view = CoapView::parse(&wire).unwrap();
        assert_eq!(view.option(OptionNumber::ECHO).unwrap().value.len(), 300);
        assert_eq!(view.option(OptionNumber::NO_RESPONSE).unwrap().value, [2]);
    }

    #[test]
    fn rejections_match_owned() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],                          // empty
            vec![0x40, 0x01, 0, 1],          // minimal valid
            vec![0x80, 0x01, 0, 1],          // version 2
            vec![0x49, 0x01, 0, 1],          // TKL 9
            vec![0x42, 0x01, 0, 1, 0xAA],    // truncated token
            vec![0x40, 0x01, 0, 1, 0xFF],    // marker, no payload
            vec![0x40, 0x01, 0, 1, 0xF0],    // reserved nibble
            vec![0x40, 0x01, 0, 1, 0x43, 1], // truncated option value
        ];
        for wire in cases {
            let owned = CoapMessage::decode(&wire);
            let view = CoapView::parse(&wire);
            assert_eq!(owned.is_ok(), view.is_ok(), "{wire:02X?}");
            if let (Err(a), Err(b)) = (owned, view) {
                assert_eq!(a, b, "{wire:02X?}");
            }
        }
    }

    #[test]
    fn parse_never_panics_on_fuzz_corpus() {
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        for start in (0..data.len() - 64).step_by(7) {
            for len in [1usize, 4, 5, 13, 29, 64] {
                let slice = &data[start..start + len];
                let view = CoapView::parse(slice);
                let owned = CoapMessage::decode(slice);
                assert_eq!(view.is_ok(), owned.is_ok());
                if let Ok(v) = view {
                    for o in v.options() {
                        let _ = (o.number, o.value.len());
                    }
                }
            }
        }
    }

    /// The wire re-encoders equal the owned round trip: re-keying swaps
    /// only the exchange fields, and replacing an option lands it where
    /// `set_option` + `encode` would (below, between and above the
    /// other options, and replacing repeated instances).
    #[test]
    fn wire_reencoders_match_owned_round_trip() {
        let with_etags = fetch_request()
            .with_option(CoapOption::new(OptionNumber::ETAG, vec![1, 2]))
            .with_option(CoapOption::new(OptionNumber::ETAG, vec![3]));
        let only_high = CoapMessage::request(Code::GET, MsgType::Non, 9, vec![])
            .with_option(CoapOption::new(OptionNumber::ECHO, vec![0x5A; 300]));
        let only_low = CoapMessage::request(Code::GET, MsgType::Con, 9, vec![7])
            .with_option(CoapOption::new(OptionNumber::IF_MATCH, vec![1]));
        for m in [fetch_request(), with_etags, only_high, only_low] {
            let wire = m.encode();
            let view = CoapView::parse(&wire).unwrap();
            let mut out = Vec::new();
            view.encode_rekeyed_into(MsgType::Ack, 0xBEEF, &[4, 5, 6], &mut out);
            let mut rekeyed = m.clone();
            rekeyed.mtype = MsgType::Ack;
            rekeyed.message_id = 0xBEEF;
            rekeyed.token = vec![4, 5, 6];
            assert_eq!(out, rekeyed.encode(), "{m:?}");
            out.clear();
            view.encode_replacing_into(OptionNumber::ETAG, &[0xE7; 8], &mut out);
            let mut replaced = m.clone();
            replaced.set_option(CoapOption::new(OptionNumber::ETAG, vec![0xE7; 8]));
            assert_eq!(out, replaced.encode(), "{m:?}");
        }
    }
}
