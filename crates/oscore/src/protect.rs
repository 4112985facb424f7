//! OSCORE message protection (RFC 8613 §5–§8).
//!
//! A protected request looks like:
//!
//! ```text
//! outer CoAP header (POST) | OSCORE option: flags|PIV|kid | 0xFF | COSE ciphertext
//! ```
//!
//! where the ciphertext encrypts `inner code || Class-E options || 0xFF
//! || payload` under AES-CCM-16-64-128 with the nonce/AAD constructions
//! of §5.2/§5.4. Responses omit PIV and kid (empty OSCORE option) and
//! reuse the request's nonce — they are bound to the request through
//! the AAD, which is what makes mismatch/replay attacks fail and lets
//! responses stay valid across CoAP retransmissions (paper §4.3).

use crate::context::{decode_piv, next_piv, nonce, SecurityContext, MAX_ID_LEN, TAG_LEN};
use crate::OscoreError;
use doc_coap::msg::{CoapMessage, Code};
use doc_coap::opt::{CoapOption, OptionNumber};
use doc_crypto::ccm::AesCcm;
use doc_crypto::replay::ReplayWindow;

/// Decoded OSCORE option value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OscoreOption {
    /// Partial IV (absent in responses).
    pub piv: Vec<u8>,
    /// Key identifier (the sender ID of the requester).
    pub kid: Option<Vec<u8>>,
    /// Key identifier context (the group id of a Group OSCORE request).
    pub kid_context: Option<Vec<u8>>,
}

impl OscoreOption {
    /// Encode to option-value bytes (RFC 8613 §6.1): flags, PIV, then
    /// the length-prefixed kid context, then the kid.
    pub fn encode(&self) -> Vec<u8> {
        if *self == OscoreOption::default() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(1 + self.piv.len());
        let mut flags = self.piv.len() as u8 & 0x07;
        if self.kid.is_some() {
            flags |= 0x08;
        }
        if self.kid_context.is_some() {
            flags |= 0x10;
        }
        out.push(flags);
        out.extend_from_slice(&self.piv);
        if let Some(context) = &self.kid_context {
            out.push(context.len() as u8);
            out.extend_from_slice(context);
        }
        if let Some(kid) = &self.kid {
            out.extend_from_slice(kid);
        }
        out
    }

    /// Decode from option-value bytes. A kid longer than the nonce's
    /// `NONCE_LEN - 6` id field (RFC 8613 §3.3) is `Malformed`.
    pub fn decode(value: &[u8]) -> Result<Self, OscoreError> {
        if value.is_empty() {
            return Ok(OscoreOption::default());
        }
        let flags = value[0];
        if flags & 0xE0 != 0 {
            return Err(OscoreError::Malformed); // reserved bits
        }
        let n = (flags & 0x07) as usize;
        if n > 5 {
            return Err(OscoreError::Malformed);
        }
        let mut pos = 1usize;
        let piv = value
            .get(pos..pos + n)
            .ok_or(OscoreError::Malformed)?
            .to_vec();
        pos += n;
        let kid_context = if flags & 0x10 != 0 {
            let l = *value.get(pos).ok_or(OscoreError::Malformed)? as usize;
            let context = value
                .get(pos + 1..pos + 1 + l)
                .ok_or(OscoreError::Malformed)?;
            pos += 1 + l;
            Some(context.to_vec())
        } else {
            None
        };
        let kid = if flags & 0x08 != 0 {
            if value.len() - pos > MAX_ID_LEN {
                return Err(OscoreError::Malformed);
            }
            Some(value[pos..].to_vec())
        } else {
            None
        };
        Ok(OscoreOption {
            piv,
            kid,
            kid_context,
        })
    }
}

/// Binding between a protected request and its response (RFC 8613
/// §5.4: `request_kid` and `request_piv` enter the response AAD).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestBinding {
    /// kid of the request (the client's sender ID).
    pub kid: Vec<u8>,
    /// Partial IV of the request.
    pub piv: Vec<u8>,
}

/// Longest group id (the fifth external-AAD element and the OSCORE
/// kid context) [`build_aad`] takes: Group Managers assign ids of a few
/// bytes, and 32 keeps the AAD inside the stack buffer below.
pub(crate) const MAX_KID_CONTEXT_LEN: usize = 32;

/// Upper bound on the stack-resident AAD: the constant skeleton (11) +
/// external-AAD head (2) + fixed external-AAD bytes (4) + the kid and
/// piv heads and bodies at the RFC 8613 §5.2 nonce's limits (≤ 7-byte
/// kid, ≤ 5-byte piv: 14) + the fifth element's head (≤ 2) and body.
const AAD_BUF_LEN: usize = 11 + 2 + 4 + 14 + 2 + MAX_KID_CONTEXT_LEN;

/// The Enc_structure AAD of RFC 8613 §5.4, built on the stack.
pub(crate) struct Aad {
    buf: [u8; AAD_BUF_LEN],
    len: usize,
}

impl Aad {
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// Constant CBOR prefix of every Enc_structure this deployment builds:
/// `array(3)`, `"Encrypt0"`, and the empty protected bucket. Only the
/// external AAD that follows varies (with the request kid/piv).
const AAD_SKELETON: [u8; 11] = [
    0x83, // array(3)
    0x68, b'E', b'n', b'c', b'r', b'y', b'p', b't', b'0', // text(8) "Encrypt0"
    0x40, // bytes(0): empty protected bucket
];

/// Length of the CBOR head of a byte string of `len` (< 256) bytes.
fn bstr_head_len(len: usize) -> usize {
    if len < 24 {
        1
    } else {
        2
    }
}

/// Write the CBOR head of a byte string of `len` (< 256) bytes at
/// `buf[i..]`; returns the index after it.
fn put_bstr_head(buf: &mut [u8], i: usize, len: usize) -> usize {
    if len < 24 {
        buf[i] = 0x40 | len as u8;
    } else {
        buf[i..i + 2].copy_from_slice(&[0x58, len as u8]);
    }
    i + bstr_head_len(len)
}

/// Write `bytes` as a CBOR byte string at `buf[i..]`; returns the
/// index after it.
fn put_bstr(buf: &mut [u8], i: usize, bytes: &[u8]) -> usize {
    let i = put_bstr_head(buf, i, bytes.len());
    buf[i..i + bytes.len()].copy_from_slice(bytes);
    i + bytes.len()
}

/// Build the Enc_structure AAD of RFC 8613 §5.4 without touching the
/// heap: the constant skeleton is precomputed and only the external
/// AAD `[1, [10], kid, piv, fifth]` is streamed into the stack buffer.
/// `fifth` is the Class-I options (`h''`: none in this deployment) for
/// pairwise OSCORE and the group id for Group OSCORE. Byte-identical
/// to encoding the equivalent CBOR `Value` tree (asserted in tests).
pub(crate) fn build_aad(request_kid: &[u8], request_piv: &[u8], fifth: &[u8]) -> Aad {
    debug_assert!(request_kid.len() <= MAX_ID_LEN && request_piv.len() <= 5);
    debug_assert!(fifth.len() <= MAX_KID_CONTEXT_LEN);
    debug_assert_eq!(crate::context::ALG_AES_CCM_16_64_128, 10);
    let mut buf = [0u8; AAD_BUF_LEN];
    buf[..AAD_SKELETON.len()].copy_from_slice(&AAD_SKELETON);
    let ea_len = 4 + [request_kid, request_piv, fifth]
        .iter()
        .map(|b| bstr_head_len(b.len()) + b.len())
        .sum::<usize>();
    let mut i = put_bstr_head(&mut buf, AAD_SKELETON.len(), ea_len);
    buf[i] = 0x85; // array(5)
    buf[i + 1] = 0x01; // oscore_version = 1
    buf[i + 2] = 0x81; // algorithms: array(1)
    buf[i + 3] = 0x0A; // AES-CCM-16-64-128 (COSE alg 10)
    i += 4;
    for element in [request_kid, request_piv, fifth] {
        i = put_bstr(&mut buf, i, element);
    }
    Aad { buf, len: i }
}

/// Append the Class-U options of `msg` whose numbers fall in
/// `lo..=hi` in ascending (number, position) order — an allocation-free
/// selection scan over the tiny outer option set, tolerant of any
/// stored order, and byte-identical to what the owned path's
/// stable-sorting `encode_options_into` fallback emits. Returns the
/// last written option number for delta chaining.
fn encode_outer_options_sorted(
    msg: &CoapMessage,
    lo: u16,
    hi: u16,
    mut prev: u16,
    out: &mut Vec<u8>,
) -> u16 {
    let mut last: Option<(u16, usize)> = None;
    loop {
        let next = msg
            .options
            .iter()
            .enumerate()
            .filter(|&(i, o)| {
                is_outer_option(o.number)
                    && o.number != OptionNumber::OSCORE
                    && (lo..=hi).contains(&o.number.0)
                    && last.is_none_or(|l| (o.number.0, i) > l)
            })
            .min_by_key(|&(i, o)| (o.number.0, i));
        match next {
            Some((i, o)) => {
                prev = doc_coap::msg::encode_option_into(prev, o, out);
                last = Some((o.number.0, i));
            }
            None => return prev,
        }
    }
}

/// Options that stay on the outer message (Class U). Everything else is
/// encrypted (Class E).
fn is_outer_option(number: OptionNumber) -> bool {
    matches!(
        number,
        OptionNumber::URI_HOST
            | OptionNumber::URI_PORT
            | OptionNumber::PROXY_URI
            | OptionNumber::PROXY_SCHEME
            | OptionNumber::OSCORE
    )
}

/// Serialize the inner (plaintext) form: `code || options || 0xFF ||
/// payload` (RFC 8613 §5.3), written directly into one buffer — no
/// shadow message, no option clones. The returned buffer is then
/// encrypted *in place* by the callers.
pub(crate) fn encode_inner(msg: &CoapMessage) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 16 + msg.payload.len() + TAG_LEN);
    out.push(msg.code.0);
    doc_coap::msg::encode_options_into(
        msg.options.iter().filter(|o| !is_outer_option(o.number)),
        &mut out,
    );
    if !msg.payload.is_empty() {
        out.push(0xFF);
        out.extend_from_slice(&msg.payload);
    }
    out
}

/// Parse an inner plaintext back into code/options/payload — the
/// reference decoder [`open_inner`]'s in-place path is tested against.
#[cfg(test)]
fn decode_inner(plain: &[u8]) -> Result<CoapMessage, OscoreError> {
    if plain.is_empty() {
        return Err(OscoreError::Malformed);
    }
    // Re-add a fake 4-byte header for the codec.
    let mut wire = vec![0x40, plain[0], 0, 0];
    wire.extend_from_slice(&plain[1..]);
    CoapMessage::decode(&wire).map_err(|_| OscoreError::Malformed)
}

/// Open a borrowed ciphertext and decode the inner message without a
/// scratch plaintext buffer: the ciphertext is copied once into the
/// codec's framing buffer (after a fake 4-byte CoAP header) and
/// decrypted **in place** there via [`AesCcm::open_suffix_in_place`] —
/// one allocation on the whole unprotect path instead of two. The
/// inner message takes `outer`'s type, message ID and token.
pub(crate) fn open_inner(
    ccm: &AesCcm,
    nonce: &[u8],
    aad: &[u8],
    outer: &CoapMessage,
    ciphertext: &[u8],
) -> Result<CoapMessage, OscoreError> {
    let mut wire = Vec::with_capacity(4 + ciphertext.len());
    wire.extend_from_slice(&[0x40, 0, 0, 0]);
    wire.extend_from_slice(ciphertext);
    ccm.open_suffix_in_place(nonce, aad, &mut wire, 4)
        .map_err(|_| OscoreError::Crypto)?;
    // `wire` now holds `fake header(4) || inner code || options/payload`;
    // hoist the inner code into the header's code slot for the codec.
    if wire.len() < 5 {
        return Err(OscoreError::Malformed);
    }
    wire[1] = wire[4];
    wire.remove(4);
    let mut inner = CoapMessage::decode(&wire).map_err(|_| OscoreError::Malformed)?;
    inner.mtype = outer.mtype;
    inner.message_id = outer.message_id;
    inner.token = outer.token.clone();
    Ok(inner)
}

/// The outer message of a protected request (RFC 8613 §4.1.3.5): the
/// caller's type, message ID and token, code POST, the Class-U
/// options and the OSCORE option `opt`, and `ciphertext` as payload.
pub(crate) fn outer_request(
    msg: &CoapMessage,
    opt: &OscoreOption,
    ciphertext: Vec<u8>,
) -> CoapMessage {
    let mut outer = CoapMessage {
        mtype: msg.mtype,
        code: Code::POST,
        message_id: msg.message_id,
        token: msg.token.clone(),
        options: msg
            .options
            .iter()
            .filter(|o| is_outer_option(o.number))
            .cloned()
            .collect(),
        payload: ciphertext,
    };
    outer.set_option(CoapOption::new(OptionNumber::OSCORE, opt.encode()));
    outer
}

/// The outer message of a protected response: `msg`'s type, the
/// request's message ID and token, code 2.04 (RFC 8613 §4.1.3.5), the
/// OSCORE option `opt`, and `ciphertext` as payload.
pub(crate) fn outer_response(
    msg: &CoapMessage,
    request_outer: &CoapMessage,
    opt: &OscoreOption,
    ciphertext: Vec<u8>,
) -> CoapMessage {
    let mut outer = CoapMessage {
        mtype: msg.mtype,
        code: Code::CHANGED,
        message_id: request_outer.message_id,
        token: request_outer.token.clone(),
        options: Vec::new(),
        payload: ciphertext,
    };
    outer.set_option(CoapOption::new(OptionNumber::OSCORE, opt.encode()));
    outer
}

/// Serialize the outer request wire — header (code POST), Class-U
/// options merged with the OSCORE option, payload marker — followed by
/// the still-plaintext inner message (RFC 8613 §5.3). Returns the
/// offset where the inner part begins so the caller can seal the
/// buffer's suffix in place.
fn serialize_outer_request(msg: &CoapMessage, kid: &[u8], piv: &[u8], out: &mut Vec<u8>) -> usize {
    assert!(msg.token.len() <= 8, "token too long");
    debug_assert!(
        kid.len() + piv.len() <= 12,
        "OSCORE ids exceed option buffer"
    );

    // Outer header: type/token from the caller, code POST.
    out.push(0x40 | (msg.mtype.to_bits() << 4) | msg.token.len() as u8);
    out.push(Code::POST.0);
    out.extend_from_slice(&msg.message_id.to_be_bytes());
    out.extend_from_slice(&msg.token);

    // OSCORE option value on the stack: flags || piv || kid.
    let mut optval = [0u8; 13];
    optval[0] = (piv.len() as u8 & 0x07) | 0x08;
    optval[1..1 + piv.len()].copy_from_slice(piv);
    optval[1 + piv.len()..1 + piv.len() + kid.len()].copy_from_slice(kid);
    let optval_len = 1 + piv.len() + kid.len();

    // Outer (Class U) options merged with OSCORE at number 9, in
    // ascending (number, position) order regardless of how the
    // caller stored them — the same order the owned path's
    // stable-sort encode fallback produces.
    let mut prev = encode_outer_options_sorted(msg, 0, OptionNumber::OSCORE.0 - 1, 0, out);
    prev = doc_coap::msg::encode_raw_option_into(
        prev,
        OptionNumber::OSCORE.0,
        &optval[..optval_len],
        out,
    );
    encode_outer_options_sorted(msg, OptionNumber::OSCORE.0 + 1, u16::MAX, prev, out);

    // Inner message after the payload marker; sealed at the tail by the
    // caller.
    out.push(0xFF);
    let inner_start = out.len();
    out.push(msg.code.0);
    doc_coap::msg::encode_options_into(
        msg.options.iter().filter(|o| !is_outer_option(o.number)),
        out,
    );
    if !msg.payload.is_empty() {
        out.push(0xFF);
        out.extend_from_slice(&msg.payload);
    }
    inner_start
}

/// An OSCORE endpoint: security context + replay window + Echo state.
pub struct OscoreEndpoint {
    /// The derived security context.
    pub ctx: SecurityContext,
    /// Cached AEAD for the send direction (sender key): the AES key
    /// schedule is expanded once at construction instead of per message.
    sender_ccm: AesCcm,
    /// Cached AEAD for the receive direction (recipient key).
    recipient_ccm: AesCcm,
    replay: ReplayWindow,
    /// Server-side Echo gate: `None` once the replay window is
    /// synchronized. Paper Fig. 6: the first exchange costs one
    /// "4.01 Unauthorized" + "Query (w/ Echo)" round trip.
    echo_challenge: Option<Vec<u8>>,
    echo_required: bool,
    echo_counter: u64,
}

impl OscoreEndpoint {
    /// Create an endpoint. `require_echo` enables the server-side
    /// replay-window initialization challenge.
    pub fn new(ctx: SecurityContext, require_echo: bool) -> Self {
        // Paper §5.1: "we increase … the OSCORE replay window size" for
        // long runs — 64 entries here (RFC default is 32).
        OscoreEndpoint {
            sender_ccm: AesCcm::cose_ccm_16_64_128(&ctx.sender_key),
            recipient_ccm: AesCcm::cose_ccm_16_64_128(&ctx.recipient_key),
            ctx,
            replay: ReplayWindow::new(64),
            echo_challenge: None,
            echo_required: require_echo,
            echo_counter: 0,
        }
    }

    /// Protect a request. The returned outer message keeps the caller's
    /// message ID/token/type; the code becomes POST (RFC 8613 §4.1.3.5).
    pub fn protect_request(
        &mut self,
        msg: &CoapMessage,
    ) -> Result<(CoapMessage, RequestBinding), OscoreError> {
        let piv = next_piv(&mut self.ctx.sender_seq)?;
        let kid = self.ctx.sender_id.clone();
        // The serialized inner message is encrypted in place: the same
        // buffer becomes the outer payload, no intermediate copies.
        let mut ciphertext = encode_inner(msg);
        let aad = build_aad(&kid, &piv, &[]);
        let nonce = nonce(&self.ctx.common_iv, &kid, &piv);
        self.sender_ccm
            .seal_suffix_in_place(&nonce, aad.as_slice(), &mut ciphertext, 0)
            .map_err(|_| OscoreError::Crypto)?;
        let opt = OscoreOption {
            piv: piv.clone(),
            kid: Some(kid.clone()),
            kid_context: None,
        };
        let outer = outer_request(msg, &opt, ciphertext);
        Ok((outer, RequestBinding { kid, piv }))
    }

    /// Protect a request straight onto the wire: the outer message is
    /// serialized into `out` (header, outer options, OSCORE option,
    /// payload marker) and the inner message is serialized after the
    /// marker and sealed **in place** at the buffer's tail. With a
    /// reused `out`, the only allocations are the two `Vec`s of the
    /// returned [`RequestBinding`] — no outer `CoapMessage` is ever
    /// materialized. Byte-identical to encoding
    /// [`OscoreEndpoint::protect_request`]'s outer message.
    pub fn protect_request_into(
        &mut self,
        msg: &CoapMessage,
        out: &mut Vec<u8>,
    ) -> Result<RequestBinding, OscoreError> {
        let piv = next_piv(&mut self.ctx.sender_seq)?;
        // lint:allow(no-alloc-in-into): one of the two documented RequestBinding allocations this function returns
        let kid = self.ctx.sender_id.clone();
        let inner_start = serialize_outer_request(msg, &kid, &piv, out);
        let aad = build_aad(&kid, &piv, &[]);
        let nonce = nonce(&self.ctx.common_iv, &kid, &piv);
        self.sender_ccm
            .seal_suffix_in_place(&nonce, aad.as_slice(), out, inner_start)
            .map_err(|_| OscoreError::Crypto)?;
        Ok(RequestBinding { kid, piv })
    }

    /// Unprotect a request; enforces replay protection and, when
    /// enabled, the Echo round trip. The replay window is marked only
    /// once the request has authenticated (RFC 8613 §7.4).
    pub fn unprotect_request(
        &mut self,
        outer: &CoapMessage,
    ) -> Result<(CoapMessage, RequestBinding), OscoreError> {
        let opt_value = outer
            .option(OptionNumber::OSCORE)
            .ok_or(OscoreError::NotOscore)?;
        let opt = OscoreOption::decode(&opt_value.value)?;
        let kid = opt.kid.clone().ok_or(OscoreError::Malformed)?;
        if kid != self.ctx.recipient_id {
            return Err(OscoreError::Crypto);
        }
        let seq = decode_piv(&opt.piv).ok_or(OscoreError::Malformed)?;
        let aad = build_aad(&kid, &opt.piv, &[]);
        let nonce = nonce(&self.ctx.common_iv, &kid, &opt.piv);
        let inner = open_inner(
            &self.recipient_ccm,
            &nonce,
            aad.as_slice(),
            outer,
            &outer.payload,
        )?;

        // Echo-based replay-window initialization (RFC 8613 Appendix
        // B.1.2 / RFC 9175): before accepting the first request, demand
        // a round trip proving freshness.
        if self.echo_required {
            let presented = inner.option(OptionNumber::ECHO).map(|o| o.value.clone());
            match (&self.echo_challenge, presented) {
                (Some(expect), Some(got)) if *expect == got => {
                    self.echo_required = false;
                    self.echo_challenge = None;
                }
                _ => {
                    let challenge = self.new_echo();
                    return Err(OscoreError::EchoRequired(challenge));
                }
            }
        }
        if !self.replay.check_and_update(seq) {
            return Err(OscoreError::Replay);
        }
        Ok((inner, RequestBinding { kid, piv: opt.piv }))
    }

    fn new_echo(&mut self) -> Vec<u8> {
        self.echo_counter += 1;
        let mut tag =
            doc_crypto::hmac::hmac_sha256(&self.ctx.sender_key, &self.echo_counter.to_be_bytes())
                [..8]
                .to_vec();
        tag.push(self.echo_counter as u8);
        self.echo_challenge = Some(tag.clone());
        tag
    }

    /// Build the outer `4.01 Unauthorized` carrying the Echo challenge
    /// (protected, so only the legitimate client can read it).
    pub fn protect_echo_challenge(
        &mut self,
        request_outer: &CoapMessage,
        binding: &RequestBinding,
        challenge: &[u8],
    ) -> Result<CoapMessage, OscoreError> {
        let mut inner = CoapMessage::ack_response(request_outer, Code::UNAUTHORIZED);
        inner.set_option(CoapOption::new(OptionNumber::ECHO, challenge.to_vec()));
        self.protect_response(&inner, binding, request_outer)
    }

    /// Protect a response bound to `binding` (no PIV: the request's
    /// nonce is reused with our sender key).
    pub fn protect_response(
        &self,
        msg: &CoapMessage,
        binding: &RequestBinding,
        request_outer: &CoapMessage,
    ) -> Result<CoapMessage, OscoreError> {
        let mut ciphertext = encode_inner(msg);
        let aad = build_aad(&binding.kid, &binding.piv, &[]);
        let nonce = nonce(&self.ctx.common_iv, &binding.kid, &binding.piv);
        self.sender_ccm
            .seal_suffix_in_place(&nonce, aad.as_slice(), &mut ciphertext, 0)
            .map_err(|_| OscoreError::Crypto)?;
        Ok(outer_response(
            msg,
            request_outer,
            &OscoreOption::default(),
            ciphertext,
        ))
    }

    /// Unprotect a response bound to our earlier request.
    pub fn unprotect_response(
        &self,
        outer: &CoapMessage,
        binding: &RequestBinding,
    ) -> Result<CoapMessage, OscoreError> {
        outer
            .option(OptionNumber::OSCORE)
            .ok_or(OscoreError::NotOscore)?;
        let aad = build_aad(&binding.kid, &binding.piv, &[]);
        let nonce = nonce(&self.ctx.common_iv, &binding.kid, &binding.piv);
        open_inner(
            &self.recipient_ccm,
            &nonce,
            aad.as_slice(),
            outer,
            &outer.payload,
        )
    }

    /// Per-message ciphertext overhead (the COSE tag).
    pub const TAG_OVERHEAD: usize = TAG_LEN;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::NONCE_LEN;
    use doc_coap::msg::MsgType;

    fn contexts() -> (OscoreEndpoint, OscoreEndpoint) {
        let secret = b"0123456789abcdef";
        let salt = b"salty";
        let client = SecurityContext::derive(secret, salt, &[], &[0x01]);
        let server = SecurityContext::derive(secret, salt, &[0x01], &[]);
        (
            OscoreEndpoint::new(client, false),
            OscoreEndpoint::new(server, false),
        )
    }

    fn fetch_request() -> CoapMessage {
        CoapMessage::request(Code::FETCH, MsgType::Con, 0x0102, vec![0xAA, 0xBB])
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
            .with_option(CoapOption::uint(OptionNumber::CONTENT_FORMAT, 553))
            .with_payload(b"dns query wire format".to_vec())
    }

    #[test]
    fn option_encoding_roundtrip() {
        for opt in [
            OscoreOption::default(),
            OscoreOption {
                piv: vec![0x00],
                kid: Some(vec![]),
                kid_context: None,
            },
            OscoreOption {
                piv: vec![0x14],
                kid: Some(vec![0x01]),
                kid_context: None,
            },
            OscoreOption {
                piv: vec![1, 2, 3, 4, 5],
                kid: Some(b"client1".to_vec()),
                kid_context: None,
            },
            OscoreOption {
                kid_context: Some(Vec::new()),
                ..OscoreOption::default()
            },
            OscoreOption {
                piv: vec![1],
                kid: None,
                kid_context: Some(vec![0xAB; 40]),
            },
        ] {
            assert_eq!(OscoreOption::decode(&opt.encode()).unwrap(), opt);
        }
    }

    /// The kid context (flag `0x10`, one length byte, the context)
    /// sits between the PIV and the kid and survives a round trip.
    #[test]
    fn option_kid_context_roundtrip() {
        let opt = OscoreOption {
            piv: vec![0x07],
            kid: Some(b"Q".to_vec()),
            kid_context: Some(b"dns-sd".to_vec()),
        };
        let wire = opt.encode();
        assert_eq!(wire, b"\x19\x07\x06dns-sdQ");
        assert_eq!(OscoreOption::decode(&wire).unwrap(), opt);
        // A context running past the option value is malformed.
        assert_eq!(
            OscoreOption::decode(b"\x19\x07\x09dns-sdQ"),
            Err(OscoreError::Malformed)
        );
    }

    /// A kid longer than the nonce's 7-byte id field (RFC 8613 §3.3)
    /// is malformed, so the nonce is never asked to hold it.
    #[test]
    fn option_rejects_kid_longer_than_nonce_id_field() {
        let kid = |len: usize| OscoreOption {
            piv: vec![0x01],
            kid: Some(vec![0x42; len]),
            kid_context: None,
        };
        assert!(OscoreOption::decode(&kid(NONCE_LEN - 6).encode()).is_ok());
        assert_eq!(
            OscoreOption::decode(&kid(NONCE_LEN - 5).encode()),
            Err(OscoreError::Malformed)
        );
        // A request carrying such a kid is refused before any crypto.
        let (_, mut server) = contexts();
        let mut outer = CoapMessage::request(Code::POST, MsgType::Con, 1, vec![]);
        outer.set_option(CoapOption::new(OptionNumber::OSCORE, kid(8).encode()));
        outer.payload = vec![0; 16];
        assert_eq!(
            server.unprotect_request(&outer),
            Err(OscoreError::Malformed)
        );
    }

    #[test]
    fn option_rejects_reserved_bits() {
        assert!(OscoreOption::decode(&[0x80, 0]).is_err());
        assert!(OscoreOption::decode(&[0x07]).is_err()); // claims 7-byte piv
    }

    #[test]
    fn request_roundtrip() {
        let (mut client, mut server) = contexts();
        let req = fetch_request();
        let (outer, binding_c) = client.protect_request(&req).unwrap();
        // Outer code is POST; inner is hidden.
        assert_eq!(outer.code, Code::POST);
        assert!(outer.option(OptionNumber::OSCORE).is_some());
        assert!(outer.option(OptionNumber::URI_PATH).is_none());
        assert!(outer.option(OptionNumber::CONTENT_FORMAT).is_none());

        let (inner, binding_s) = server.unprotect_request(&outer).unwrap();
        assert_eq!(inner.code, Code::FETCH);
        assert_eq!(inner.payload, req.payload);
        assert_eq!(
            inner
                .options_of(OptionNumber::URI_PATH)
                .map(|o| o.as_str())
                .collect::<Vec<_>>(),
            ["dns"]
        );
        assert_eq!(inner.token, req.token);
        assert_eq!(binding_c, binding_s);
    }

    #[test]
    fn response_roundtrip() {
        let (mut client, mut server) = contexts();
        let req = fetch_request();
        let (outer_req, binding) = client.protect_request(&req).unwrap();
        let (inner_req, s_binding) = server.unprotect_request(&outer_req).unwrap();

        let resp = CoapMessage::ack_response(&inner_req, Code::CONTENT)
            .with_option(CoapOption::uint(OptionNumber::MAX_AGE, 300))
            .with_payload(b"dns response".to_vec());
        let outer_resp = server
            .protect_response(&resp, &s_binding, &outer_req)
            .unwrap();
        assert_eq!(outer_resp.code, Code::CHANGED);
        // The OSCORE option of a response is empty.
        assert!(outer_resp
            .option(OptionNumber::OSCORE)
            .unwrap()
            .value
            .is_empty());

        let inner_resp = client.unprotect_response(&outer_resp, &binding).unwrap();
        assert_eq!(inner_resp.code, Code::CONTENT);
        assert_eq!(inner_resp.payload, b"dns response");
        assert_eq!(inner_resp.max_age(), 300);
    }

    #[test]
    fn replay_rejected() {
        let (mut client, mut server) = contexts();
        let (outer, _) = client.protect_request(&fetch_request()).unwrap();
        assert!(server.unprotect_request(&outer).is_ok());
        assert_eq!(server.unprotect_request(&outer), Err(OscoreError::Replay));
    }

    #[test]
    fn response_bound_to_request() {
        let (mut client, mut server) = contexts();
        let (outer1, binding1) = client.protect_request(&fetch_request()).unwrap();
        let (outer2, binding2) = client.protect_request(&fetch_request()).unwrap();
        let (_, s_b1) = server.unprotect_request(&outer1).unwrap();
        let (inner2, _) = server.unprotect_request(&outer2).unwrap();
        let resp =
            CoapMessage::ack_response(&inner2, Code::CONTENT).with_payload(b"answer".to_vec());
        // Response protected under binding 1 must not verify under
        // binding 2 (mismatch attack).
        let outer_resp = server.protect_response(&resp, &s_b1, &outer1).unwrap();
        assert!(client.unprotect_response(&outer_resp, &binding1).is_ok());
        let outer_resp = server.protect_response(&resp, &s_b1, &outer1).unwrap();
        assert_eq!(
            client.unprotect_response(&outer_resp, &binding2),
            Err(OscoreError::Crypto)
        );
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let (mut client, mut server) = contexts();
        let (mut outer, _) = client.protect_request(&fetch_request()).unwrap();
        let n = outer.payload.len();
        outer.payload[n - 1] ^= 1;
        assert_eq!(server.unprotect_request(&outer), Err(OscoreError::Crypto));
    }

    #[test]
    fn wrong_kid_rejected() {
        let secret = b"0123456789abcdef";
        let mut client = OscoreEndpoint::new(
            SecurityContext::derive(secret, b"s", &[0x42], &[0x01]),
            false,
        );
        let mut server =
            OscoreEndpoint::new(SecurityContext::derive(secret, b"s", &[0x01], &[]), false);
        let (outer, _) = client.protect_request(&fetch_request()).unwrap();
        assert_eq!(server.unprotect_request(&outer), Err(OscoreError::Crypto));
    }

    #[test]
    fn non_oscore_message_rejected() {
        let (_, mut server) = contexts();
        let plain = fetch_request();
        assert_eq!(
            server.unprotect_request(&plain),
            Err(OscoreError::NotOscore)
        );
    }

    /// Reproduces the paper's Fig. 6 OSCORE session-setup flow: first
    /// request → 4.01 Unauthorized w/ Echo → retried request w/ Echo →
    /// success.
    #[test]
    fn echo_replay_window_initialization() {
        let secret = b"0123456789abcdef";
        let mut client =
            OscoreEndpoint::new(SecurityContext::derive(secret, b"s", &[], &[0x01]), false);
        let mut server = OscoreEndpoint::new(
            SecurityContext::derive(secret, b"s", &[0x01], &[]),
            true, // require Echo
        );
        let req = fetch_request();
        let (outer1, binding1) = client.protect_request(&req).unwrap();
        // Server demands an Echo round trip.
        let challenge = match server.unprotect_request(&outer1) {
            Err(OscoreError::EchoRequired(c)) => c,
            other => panic!("expected EchoRequired, got {other:?}"),
        };
        // It can protect the 4.01 for the client using the binding from
        // the outer option (recompute like the server would).
        let opt =
            OscoreOption::decode(&outer1.option(OptionNumber::OSCORE).unwrap().value).unwrap();
        let s_binding = RequestBinding {
            kid: opt.kid.unwrap(),
            piv: opt.piv,
        };
        let challenge_resp = server
            .protect_echo_challenge(&outer1, &s_binding, &challenge)
            .unwrap();
        let inner_resp = client
            .unprotect_response(&challenge_resp, &binding1)
            .unwrap();
        assert_eq!(inner_resp.code, Code::UNAUTHORIZED);
        let echo = inner_resp.option(OptionNumber::ECHO).unwrap().value.clone();

        // Client retries with the Echo option.
        let mut retry = fetch_request();
        retry.set_option(CoapOption::new(OptionNumber::ECHO, echo));
        let (outer2, _) = client.protect_request(&retry).unwrap();
        let (inner2, _) = server.unprotect_request(&outer2).unwrap();
        assert_eq!(inner2.code, Code::FETCH);
        // Subsequent requests need no Echo.
        let (outer3, _) = client.protect_request(&fetch_request()).unwrap();
        assert!(server.unprotect_request(&outer3).is_ok());
    }

    #[test]
    fn wrong_echo_rechallenged() {
        let secret = b"0123456789abcdef";
        let mut client =
            OscoreEndpoint::new(SecurityContext::derive(secret, b"s", &[], &[0x01]), false);
        let mut server =
            OscoreEndpoint::new(SecurityContext::derive(secret, b"s", &[0x01], &[]), true);
        let mut req = fetch_request();
        req.set_option(CoapOption::new(OptionNumber::ECHO, vec![1, 2, 3]));
        let (outer, _) = client.protect_request(&req).unwrap();
        assert!(matches!(
            server.unprotect_request(&outer),
            Err(OscoreError::EchoRequired(_))
        ));
    }

    /// OSCORE adds a fixed, small overhead: option + tag — the reason
    /// its Fig. 6 bars sit well below DTLS.
    #[test]
    fn overhead_is_small() {
        let (mut client, _) = contexts();
        let req = fetch_request();
        let plain_len = req.encoded_len();
        let (outer, _) = client.protect_request(&req).unwrap();
        let protected_len = outer.encoded_len();
        let overhead = protected_len - plain_len;
        // tag (8) + OSCORE option (~4) + inner code byte, minus elided
        // inner option bytes — must stay under 16 bytes.
        assert!(overhead <= 16, "OSCORE overhead {overhead} bytes");
    }

    /// The stack-buffer AAD must be byte-identical to encoding the
    /// CBOR `Value` tree it replaced (RFC 8613 §5.4 Enc_structure).
    #[test]
    fn stack_aad_matches_cbor_value_tree() {
        use doc_crypto::cbor::Value;
        let reference = |kid: &[u8], piv: &[u8], fifth: &[u8]| -> Vec<u8> {
            let external_aad = Value::Array(vec![
                Value::Uint(1),
                Value::Array(vec![Value::int(crate::context::ALG_AES_CCM_16_64_128)]),
                Value::Bytes(kid.to_vec()),
                Value::Bytes(piv.to_vec()),
                Value::Bytes(fifth.to_vec()),
            ])
            .encode();
            Value::Array(vec![
                Value::Text("Encrypt0".to_string()),
                Value::Bytes(Vec::new()),
                Value::Bytes(external_aad),
            ])
            .encode()
        };
        // Pairwise: the fifth element is h'' (no Class-I options).
        // Group: it is the group id.
        let long_gid = [0x5Au8; 24];
        let max_gid = [0xC3u8; MAX_KID_CONTEXT_LEN];
        for (kid, piv, fifth) in [
            (&b""[..], &[0x00][..], &b""[..]),
            (&[0x01][..], &[0x14][..], &b""[..]),
            (b"client1", &[1, 2, 3, 4, 5][..], &b""[..]),
            (b"Q", &[0x00][..], b"dns-sd"),
            (b"Q", &[0x00][..], &long_gid[..]), // 2-byte gid and outer heads
            (&[0xAB; 7][..], &[0xFF; 5][..], &max_gid[..]), // the largest AAD
        ] {
            assert_eq!(
                build_aad(kid, piv, fifth).as_slice(),
                &reference(kid, piv, fifth)[..],
                "kid {kid:02X?} piv {piv:02X?} fifth {fifth:02X?}"
            );
        }
    }

    /// `protect_request_into` must produce exactly the wire bytes of
    /// encoding `protect_request`'s outer message.
    #[test]
    fn protect_request_into_matches_message_path() {
        let secret = b"0123456789abcdef";
        // Two identically-derived endpoints so both paths consume the
        // same PIV.
        let mut a = OscoreEndpoint::new(SecurityContext::derive(secret, b"s", &[], &[0x01]), false);
        let mut b = OscoreEndpoint::new(SecurityContext::derive(secret, b"s", &[], &[0x01]), false);
        let mut wire = Vec::new();
        for req in [
            fetch_request(),
            CoapMessage::request(Code::GET, MsgType::Con, 9, vec![])
                .with_option(CoapOption::new(OptionNumber::URI_HOST, b"doc".to_vec()))
                .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
                .with_option(CoapOption::new(
                    OptionNumber::PROXY_SCHEME,
                    b"coap".to_vec(),
                )),
            // Outer options stored out of order: both paths must fall
            // back to the same stable ascending order.
            CoapMessage::request(Code::GET, MsgType::Con, 10, vec![0x0A])
                .with_option(CoapOption::new(
                    OptionNumber::PROXY_SCHEME,
                    b"coap".to_vec(),
                ))
                .with_option(CoapOption::uint(OptionNumber::URI_PORT, 5683))
                .with_option(CoapOption::new(OptionNumber::URI_HOST, b"doc".to_vec()))
                .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec())),
        ] {
            let (outer, binding_a) = a.protect_request(&req).unwrap();
            wire.clear();
            let binding_b = b.protect_request_into(&req, &mut wire).unwrap();
            assert_eq!(wire, outer.encode());
            assert_eq!(binding_a, binding_b);
        }
        // And the server can unprotect the decoded wire.
        let mut server =
            OscoreEndpoint::new(SecurityContext::derive(secret, b"s", &[0x01], &[]), false);
        let (inner, _) = server
            .unprotect_request(&CoapMessage::decode(&wire).unwrap())
            .unwrap();
        assert_eq!(inner.code, Code::GET);
        assert_eq!(
            inner
                .options_of(OptionNumber::URI_PATH)
                .map(|o| o.as_str())
                .collect::<Vec<_>>(),
            ["dns"]
        );
    }

    #[test]
    fn inner_codec_roundtrip() {
        let msg = fetch_request();
        let inner = encode_inner(&msg);
        let back = decode_inner(&inner).unwrap();
        assert_eq!(back.code, msg.code);
        assert_eq!(back.payload, msg.payload);
        assert_eq!(
            back.options_of(OptionNumber::URI_PATH)
                .map(|o| o.as_str())
                .collect::<Vec<_>>(),
            ["dns"]
        );
    }

    #[test]
    fn decode_inner_rejects_empty() {
        assert_eq!(decode_inner(&[]), Err(OscoreError::Malformed));
    }
}
