//! DTLS record layer (RFC 6347 §4.1) and AES-128-CCM-8 protection
//! (RFC 6655).
//!
//! Record header (13 bytes):
//! `type(1) || version(2) || epoch(2) || sequence_number(6) || length(2)`.
//!
//! For CCM cipher suites the record payload of a protected record is
//! `explicit_nonce(8) || ciphertext || tag(8)`; the nonce is
//! `client/server_write_IV(4) || explicit_nonce(8)` and the AAD is
//! `epoch(2) || seq(6) || type(1) || version(2) || plaintext_length(2)`.

use crate::DtlsError;
use doc_crypto::ccm::{AesCcm, CcmScratch, SealRequest};

/// DTLS 1.2 on-the-wire version bytes ({254, 253}).
pub const VERSION_DTLS12: [u8; 2] = [254, 253];

/// Record content types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentType {
    /// ChangeCipherSpec (20).
    ChangeCipherSpec,
    /// Alert (21).
    Alert,
    /// Handshake (22).
    Handshake,
    /// ApplicationData (23).
    ApplicationData,
}

impl ContentType {
    /// Numeric value.
    pub fn to_u8(self) -> u8 {
        match self {
            ContentType::ChangeCipherSpec => 20,
            ContentType::Alert => 21,
            ContentType::Handshake => 22,
            ContentType::ApplicationData => 23,
        }
    }
    /// From numeric value.
    pub fn from_u8(v: u8) -> Result<Self, DtlsError> {
        Ok(match v {
            20 => ContentType::ChangeCipherSpec,
            21 => ContentType::Alert,
            22 => ContentType::Handshake,
            23 => ContentType::ApplicationData,
            _ => return Err(DtlsError::Malformed),
        })
    }
}

/// The 13-byte record header.
pub const RECORD_HEADER_LEN: usize = 13;
/// Explicit-nonce bytes prefixed to CCM-protected payloads (RFC 6655).
pub const EXPLICIT_NONCE_LEN: usize = 8;
/// CCM-8 tag length.
pub const TAG_LEN: usize = 8;
/// Where a protected record's ciphertext starts in its wire form:
/// after the record header and the explicit nonce.
pub const CIPHERTEXT_OFFSET: usize = RECORD_HEADER_LEN + EXPLICIT_NONCE_LEN;
/// The largest record sequence number. The record header and the
/// explicit nonce carry 48 bits of it (RFC 6347 §4.1), so sealing past
/// it would repeat an earlier record's CCM nonce.
pub const MAX_SEQ: u64 = (1 << 48) - 1;

/// The 13-byte header of a record with a `payload_len`-byte payload;
/// the sequence number is cut to its 48 wire bits.
fn header(ctype: ContentType, epoch: u16, seq: u64, payload_len: usize) -> [u8; RECORD_HEADER_LEN] {
    let [v0, v1] = VERSION_DTLS12;
    let [e0, e1] = epoch.to_be_bytes();
    let [_, _, s2, s3, s4, s5, s6, s7] = seq.to_be_bytes();
    let [l0, l1] = (payload_len as u16).to_be_bytes();
    let t = ctype.to_u8();
    [t, v0, v1, e0, e1, s2, s3, s4, s5, s6, s7, l0, l1]
}

/// One DTLS record (possibly protected payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Content type.
    pub ctype: ContentType,
    /// Epoch (increments at ChangeCipherSpec).
    pub epoch: u16,
    /// 48-bit sequence number.
    pub seq: u64,
    /// Record payload (plaintext in epoch 0, protected afterwards).
    pub payload: Vec<u8>,
}

impl Record {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(RECORD_HEADER_LEN + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Append the wire form to `out` — allocation-free with a reused
    /// buffer, and appendable, so a multi-record datagram (flight) can
    /// be assembled in one buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&header(
            self.ctype,
            self.epoch,
            self.seq,
            self.payload.len(),
        ));
        out.extend_from_slice(&self.payload);
    }

    /// Decode one record from the front of `data`; returns the record
    /// and the number of bytes consumed (datagrams may carry several
    /// records).
    pub fn decode(data: &[u8]) -> Result<(Self, usize), DtlsError> {
        let (header, _) = data
            .split_first_chunk::<RECORD_HEADER_LEN>()
            .ok_or(DtlsError::Malformed)?;
        let &[ct, v0, v1, e0, e1, s0, s1, s2, s3, s4, s5, l0, l1] = header;
        let ctype = ContentType::from_u8(ct)?;
        // Initial ClientHellos may use {254,255}; accept it too.
        if [v0, v1] != VERSION_DTLS12 && [v0, v1] != [254, 255] {
            return Err(DtlsError::Malformed);
        }
        let epoch = u16::from_be_bytes([e0, e1]);
        let seq = u64::from_be_bytes([0, 0, s0, s1, s2, s3, s4, s5]);
        let len = u16::from_be_bytes([l0, l1]) as usize;
        let payload = data
            .get(RECORD_HEADER_LEN..RECORD_HEADER_LEN + len)
            .ok_or(DtlsError::Malformed)?
            .to_vec();
        Ok((
            Record {
                ctype,
                epoch,
                seq,
                payload,
            },
            RECORD_HEADER_LEN + len,
        ))
    }

    /// Decode every record in a datagram.
    pub fn decode_all(mut data: &[u8]) -> Result<Vec<Record>, DtlsError> {
        let mut out = Vec::new();
        while !data.is_empty() {
            let (rec, used) = Record::decode(data)?;
            out.push(rec);
            data = data.get(used..).ok_or(DtlsError::Malformed)?;
        }
        Ok(out)
    }
}

/// A borrowed DTLS record: header fields decoded, payload left as a
/// slice of the datagram — the unprotect path's zero-copy counterpart
/// of [`Record::decode`], which copies every payload into a `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// Content type.
    pub ctype: ContentType,
    /// Epoch (increments at ChangeCipherSpec).
    pub epoch: u16,
    /// 48-bit sequence number.
    pub seq: u64,
    /// Record payload (borrowed; protected in epochs > 0).
    pub payload: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// Decode one record from the front of `data` without copying the
    /// payload; returns the view and the number of bytes consumed.
    /// Accepts and rejects exactly the inputs [`Record::decode`] does.
    pub fn decode(data: &'a [u8]) -> Result<(Self, usize), DtlsError> {
        let (header, _) = data
            .split_first_chunk::<RECORD_HEADER_LEN>()
            .ok_or(DtlsError::Malformed)?;
        let &[ct, v0, v1, e0, e1, s0, s1, s2, s3, s4, s5, l0, l1] = header;
        let ctype = ContentType::from_u8(ct)?;
        if [v0, v1] != VERSION_DTLS12 && [v0, v1] != [254, 255] {
            return Err(DtlsError::Malformed);
        }
        let epoch = u16::from_be_bytes([e0, e1]);
        let seq = u64::from_be_bytes([0, 0, s0, s1, s2, s3, s4, s5]);
        let len = u16::from_be_bytes([l0, l1]) as usize;
        let payload = data
            .get(RECORD_HEADER_LEN..RECORD_HEADER_LEN + len)
            .ok_or(DtlsError::Malformed)?;
        Ok((
            RecordView {
                ctype,
                epoch,
                seq,
                payload,
            },
            RECORD_HEADER_LEN + len,
        ))
    }

    /// Iterate every record in a datagram lazily. A malformed record
    /// surfaces as a final `Err` item; iteration stops after it.
    pub fn iter(datagram: &'a [u8]) -> RecordViewIter<'a> {
        RecordViewIter { rest: datagram }
    }

    /// Materialize an owned [`Record`].
    pub fn to_owned(&self) -> Record {
        Record {
            ctype: self.ctype,
            epoch: self.epoch,
            seq: self.seq,
            payload: self.payload.to_vec(),
        }
    }
}

/// Lazy iterator over the records of a datagram.
#[derive(Debug, Clone)]
pub struct RecordViewIter<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for RecordViewIter<'a> {
    type Item = Result<RecordView<'a>, DtlsError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        match RecordView::decode(self.rest) {
            Ok((view, used)) => {
                self.rest = self.rest.get(used..).unwrap_or(&[]);
                Some(Ok(view))
            }
            Err(e) => {
                self.rest = &[];
                Some(Err(e))
            }
        }
    }
}

/// One plaintext of a batched record seal (see
/// [`CipherState::seal_batch`]): the header fields that bind the AAD
/// plus the plaintext to protect.
#[derive(Debug, Clone, Copy)]
pub struct RecordSeal<'a> {
    /// Content type.
    pub ctype: ContentType,
    /// Epoch.
    pub epoch: u16,
    /// 48-bit sequence number.
    pub seq: u64,
    /// Plaintext to protect.
    pub plaintext: &'a [u8],
}

/// The CCM nonce and AAD that protect one record (see
/// [`CipherState::frame_in_place`]).
#[derive(Debug, Clone, Copy)]
pub struct RecordCrypto {
    /// `write_IV(4) || explicit_nonce(8)`.
    pub nonce: [u8; 12],
    /// `epoch || seq || type || version || plaintext_length`.
    pub aad: [u8; 13],
}

/// Write-direction cipher state for `TLS_PSK_WITH_AES_128_CCM_8`.
pub struct CipherState {
    ccm: AesCcm,
    /// 4-byte implicit IV (from the key block).
    fixed_iv: [u8; 4],
}

impl CipherState {
    /// Create from the key-block material.
    pub fn new(key: &[u8; 16], fixed_iv: [u8; 4]) -> Self {
        CipherState {
            ccm: AesCcm::dtls_ccm8(key),
            fixed_iv,
        }
    }

    fn nonce(&self, explicit: &[u8; 8]) -> [u8; 12] {
        let [f0, f1, f2, f3] = self.fixed_iv;
        let [e0, e1, e2, e3, e4, e5, e6, e7] = *explicit;
        [f0, f1, f2, f3, e0, e1, e2, e3, e4, e5, e6, e7]
    }

    fn aad(ctype: ContentType, epoch: u16, seq: u64, len: usize) -> [u8; 13] {
        let [e0, e1] = epoch.to_be_bytes();
        let [_, _, s2, s3, s4, s5, s6, s7] = seq.to_be_bytes();
        let [v0, v1] = VERSION_DTLS12;
        let [l0, l1] = (len as u16).to_be_bytes();
        [
            e0,
            e1,
            s2,
            s3,
            s4,
            s5,
            s6,
            s7,
            ctype.to_u8(),
            v0,
            v1,
            l0,
            l1,
        ]
    }

    /// The explicit nonce and the CCM nonce and AAD of record
    /// (`ctype`, `epoch`, `seq`) with a `len`-byte plaintext. A
    /// sequence number past [`MAX_SEQ`] would reuse a nonce and is
    /// refused, as is a plaintext too long for the record's 16-bit
    /// length field.
    fn protect_params(
        &self,
        ctype: ContentType,
        epoch: u16,
        seq: u64,
        len: usize,
    ) -> Result<([u8; EXPLICIT_NONCE_LEN], RecordCrypto), DtlsError> {
        if seq > MAX_SEQ {
            return Err(DtlsError::SeqExhausted);
        }
        if len > usize::from(u16::MAX) - Self::OVERHEAD {
            return Err(DtlsError::Malformed);
        }
        let [e0, e1] = epoch.to_be_bytes();
        let [_, _, s2, s3, s4, s5, s6, s7] = seq.to_be_bytes();
        let explicit = [e0, e1, s2, s3, s4, s5, s6, s7];
        let crypto = RecordCrypto {
            nonce: self.nonce(&explicit),
            aad: Self::aad(ctype, epoch, seq, len),
        };
        Ok((explicit, crypto))
    }

    /// Protect a plaintext into a record payload
    /// (`explicit_nonce || ciphertext || tag`). The explicit nonce is
    /// the epoch+sequence (a common, RFC-sanctioned choice).
    pub fn seal(
        &self,
        ctype: ContentType,
        epoch: u16,
        seq: u64,
        plaintext: &[u8],
    ) -> Result<Vec<u8>, DtlsError> {
        let (explicit, crypto) = self.protect_params(ctype, epoch, seq, plaintext.len())?;
        // Seal straight after the explicit nonce: one output buffer,
        // no intermediate ciphertext allocation.
        let mut out = Vec::with_capacity(Self::OVERHEAD + plaintext.len());
        out.extend_from_slice(&explicit);
        self.ccm
            .seal_into(&crypto.nonce, &crypto.aad, plaintext, &mut out)
            .map_err(|_| DtlsError::Crypto)?;
        Ok(out)
    }

    /// Protect a whole batch of plaintexts in one pass, returning one
    /// record payload (`explicit_nonce || ciphertext || tag`) per item,
    /// byte-identical to sealing each item with [`CipherState::seal`].
    ///
    /// The CBC-MAC chains of every record advance in lockstep and the
    /// CTR keystreams are generated in one flattened multi-block AES
    /// pass ([`AesCcm::seal_suffix_batch_with`]). Validation is
    /// all-or-nothing. This allocates every payload; a caller whose
    /// plaintexts already sit in buffers that should become the record
    /// wire frames them with [`CipherState::frame_in_place`] instead.
    pub fn seal_batch(&self, items: &[RecordSeal<'_>]) -> Result<Vec<Vec<u8>>, DtlsError> {
        let mut outs = Vec::with_capacity(items.len());
        let mut params = Vec::with_capacity(items.len());
        for it in items {
            let (explicit, crypto) =
                self.protect_params(it.ctype, it.epoch, it.seq, it.plaintext.len())?;
            let mut out = Vec::with_capacity(Self::OVERHEAD + it.plaintext.len());
            out.extend_from_slice(&explicit);
            out.extend_from_slice(it.plaintext);
            outs.push(out);
            params.push(crypto);
        }
        let mut reqs: Vec<SealRequest<'_>> = outs
            .iter_mut()
            .zip(params.iter())
            .map(|(buf, crypto)| SealRequest {
                nonce: &crypto.nonce,
                aad: &crypto.aad,
                buf,
                start: EXPLICIT_NONCE_LEN,
            })
            .collect();
        self.ccm
            .seal_suffix_batch_with(&mut reqs, &mut CcmScratch::default())
            .map_err(|_| DtlsError::Crypto)?;
        Ok(outs)
    }

    /// Frame the plaintext in `buf` as record (`ctype`, `epoch`,
    /// `seq`), in place: the record header and the explicit nonce are
    /// written in front of it, and the returned nonce and AAD then seal
    /// the suffix at [`CIPHERTEXT_OFFSET`] through [`CipherState::ccm`]
    /// — batch after batch with [`AesCcm::seal_suffix_batch_with`].
    /// Once sealed, `buf` holds exactly the wire of a [`Record`] whose
    /// payload [`CipherState::seal`] produced: the header's length
    /// already counts the tag the seal appends. On error (see
    /// [`MAX_SEQ`]) `buf` is left untouched.
    pub fn frame_in_place(
        &self,
        ctype: ContentType,
        epoch: u16,
        seq: u64,
        buf: &mut Vec<u8>,
    ) -> Result<RecordCrypto, DtlsError> {
        let len = buf.len();
        let (explicit, crypto) = self.protect_params(ctype, epoch, seq, len)?;
        // Exact: a reused buffer settles at record size, not double.
        buf.reserve_exact(CIPHERTEXT_OFFSET + TAG_LEN);
        let header = header(ctype, epoch, seq, len + Self::OVERHEAD);
        buf.splice(..0, header.into_iter().chain(explicit));
        Ok(crypto)
    }

    /// The AEAD this state seals with, for sealing framed records (see
    /// [`CipherState::frame_in_place`]).
    pub fn ccm(&self) -> &AesCcm {
        &self.ccm
    }

    /// Unprotect a record payload (`explicit_nonce || ciphertext ||
    /// tag`), returning the plaintext.
    pub fn open(
        &self,
        ctype: ContentType,
        epoch: u16,
        seq: u64,
        payload: &[u8],
    ) -> Result<Vec<u8>, DtlsError> {
        if payload.len() < Self::OVERHEAD {
            return Err(DtlsError::Malformed);
        }
        let (explicit, ct) = payload
            .split_first_chunk::<EXPLICIT_NONCE_LEN>()
            .ok_or(DtlsError::Malformed)?;
        let nonce = self.nonce(explicit);
        let aad = Self::aad(ctype, epoch, seq, ct.len() - TAG_LEN);
        self.ccm
            .open(&nonce, &aad, ct)
            .map_err(|_| DtlsError::Crypto)
    }

    /// Per-record protection overhead in bytes (nonce + tag) — the
    /// quantity that inflates every DTLS frame in the paper's Fig. 6.
    pub const OVERHEAD: usize = EXPLICIT_NONCE_LEN + TAG_LEN;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let r = Record {
            ctype: ContentType::Handshake,
            epoch: 0,
            seq: 5,
            payload: vec![1, 2, 3],
        };
        let wire = r.encode();
        assert_eq!(wire.len(), RECORD_HEADER_LEN + 3);
        let (back, used) = Record::decode(&wire).unwrap();
        assert_eq!(back, r);
        assert_eq!(used, wire.len());
    }

    #[test]
    fn multi_record_datagram() {
        let r1 = Record {
            ctype: ContentType::ChangeCipherSpec,
            epoch: 0,
            seq: 1,
            payload: vec![1],
        };
        let r2 = Record {
            ctype: ContentType::Handshake,
            epoch: 1,
            seq: 0,
            payload: vec![9; 20],
        };
        let mut wire = r1.encode();
        wire.extend_from_slice(&r2.encode());
        let records = Record::decode_all(&wire).unwrap();
        assert_eq!(records, vec![r1, r2]);
    }

    #[test]
    fn seq_is_48_bits() {
        let r = Record {
            ctype: ContentType::ApplicationData,
            epoch: 2,
            seq: 0x0000_FFFF_FFFF_FFFF,
            payload: vec![],
        };
        let (back, _) = Record::decode(&r.encode()).unwrap();
        assert_eq!(back.seq, 0x0000_FFFF_FFFF_FFFF);
        assert_eq!(back.epoch, 2);
    }

    #[test]
    fn reject_bad_content_type() {
        let mut wire = Record {
            ctype: ContentType::Alert,
            epoch: 0,
            seq: 0,
            payload: vec![],
        }
        .encode();
        wire[0] = 99;
        assert_eq!(Record::decode(&wire), Err(DtlsError::Malformed));
    }

    #[test]
    fn reject_truncated() {
        assert!(Record::decode(&[22, 254, 253, 0]).is_err());
        let r = Record {
            ctype: ContentType::Handshake,
            epoch: 0,
            seq: 0,
            payload: vec![1, 2, 3, 4],
        };
        let wire = r.encode();
        assert!(Record::decode(&wire[..wire.len() - 1]).is_err());
    }

    #[test]
    fn cipher_roundtrip() {
        let cs = CipherState::new(&[7u8; 16], [1, 2, 3, 4]);
        let sealed = cs
            .seal(ContentType::ApplicationData, 1, 42, b"dns response")
            .unwrap();
        assert_eq!(sealed.len(), b"dns response".len() + CipherState::OVERHEAD);
        let plain = cs
            .open(ContentType::ApplicationData, 1, 42, &sealed)
            .unwrap();
        assert_eq!(plain, b"dns response");
    }

    #[test]
    fn record_view_agrees_with_owned() {
        let r1 = Record {
            ctype: ContentType::ChangeCipherSpec,
            epoch: 0,
            seq: 1,
            payload: vec![1],
        };
        let r2 = Record {
            ctype: ContentType::ApplicationData,
            epoch: 1,
            seq: 0x0000_FFFF_FFFF_FFFF,
            payload: vec![9; 20],
        };
        let mut wire = r1.encode();
        wire.extend_from_slice(&r2.encode());
        let views: Vec<RecordView> = RecordView::iter(&wire).map(|r| r.unwrap()).collect();
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].to_owned(), r1);
        assert_eq!(views[1].to_owned(), r2);
        // Rejection parity with the owned decoder on truncations.
        for cut in 0..wire.len() {
            assert_eq!(
                RecordView::decode(&wire[..cut]).is_ok(),
                Record::decode(&wire[..cut]).is_ok(),
                "divergence at cut {cut}"
            );
        }
    }

    /// A record framed in place and sealed at `CIPHERTEXT_OFFSET` is
    /// the encoded record of `seal`'s payload; a sequence number past
    /// 48 bits is refused on every seal path, leaving buffers as they
    /// were.
    #[test]
    fn frame_in_place_matches_sealed_record_and_refuses_seq_wrap() {
        let cs = CipherState::new(&[7u8; 16], [1, 2, 3, 4]);
        let ct = ContentType::ApplicationData;
        for (seq, len) in [(0u64, 0usize), (5, 1), (MAX_SEQ, 100)] {
            let plain: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut buf = plain.clone();
            let crypto = cs.frame_in_place(ct, 3, seq, &mut buf).unwrap();
            cs.ccm()
                .seal_suffix_in_place(&crypto.nonce, &crypto.aad, &mut buf, CIPHERTEXT_OFFSET)
                .unwrap();
            let expect = Record {
                ctype: ct,
                epoch: 3,
                seq,
                payload: cs.seal(ct, 3, seq, &plain).unwrap(),
            };
            assert_eq!(buf, expect.encode(), "seq {seq} len {len}");
        }
        let mut buf = b"reply".to_vec();
        assert_eq!(
            cs.frame_in_place(ct, 3, MAX_SEQ + 1, &mut buf).unwrap_err(),
            DtlsError::SeqExhausted
        );
        assert_eq!(buf, b"reply");
        assert_eq!(
            cs.seal(ct, 3, MAX_SEQ + 1, b"reply"),
            Err(DtlsError::SeqExhausted)
        );
        let item = RecordSeal {
            ctype: ct,
            epoch: 3,
            seq: 1 << 48,
            plaintext: b"reply",
        };
        assert_eq!(cs.seal_batch(&[item]), Err(DtlsError::SeqExhausted));
    }

    #[test]
    fn seal_batch_matches_sequential() {
        let cs = CipherState::new(&[7u8; 16], [1, 2, 3, 4]);
        let plains: Vec<Vec<u8>> = (0..9usize).map(|i| vec![i as u8; i * 23]).collect();
        let items: Vec<RecordSeal<'_>> = plains
            .iter()
            .enumerate()
            .map(|(i, p)| RecordSeal {
                ctype: ContentType::ApplicationData,
                epoch: 1,
                seq: 100 + i as u64,
                plaintext: p,
            })
            .collect();
        let batched = cs.seal_batch(&items).unwrap();
        for (it, got) in items.iter().zip(batched.iter()) {
            let expect = cs.seal(it.ctype, it.epoch, it.seq, it.plaintext).unwrap();
            assert_eq!(*got, expect, "seq {}", it.seq);
            let plain = cs.open(it.ctype, it.epoch, it.seq, got).unwrap();
            assert_eq!(plain, it.plaintext);
        }
    }

    #[test]
    fn cipher_binds_aad() {
        let cs = CipherState::new(&[7u8; 16], [1, 2, 3, 4]);
        let sealed = cs
            .seal(ContentType::ApplicationData, 1, 42, b"payload")
            .unwrap();
        // Wrong sequence number in AAD fails.
        assert_eq!(
            cs.open(ContentType::ApplicationData, 1, 43, &sealed),
            Err(DtlsError::Crypto)
        );
        // Wrong content type fails.
        assert_eq!(
            cs.open(ContentType::Handshake, 1, 42, &sealed),
            Err(DtlsError::Crypto)
        );
    }

    #[test]
    fn cipher_rejects_short_payload() {
        let cs = CipherState::new(&[7u8; 16], [0; 4]);
        assert_eq!(
            cs.open(ContentType::ApplicationData, 1, 0, &[0u8; 10]),
            Err(DtlsError::Malformed)
        );
    }
}
