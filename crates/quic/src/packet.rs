//! QUIC-lite packets: a long-header-shaped handshake packet (plaintext
//! CRYPTO flights) and a short-header 1-RTT packet protected with
//! AES-128-CCM (16-byte tag) — the same crypto substrate the DTLS
//! record layer uses ([`doc_crypto::ccm::AesCcm`]), keyed via HKDF.
//!
//! Wire layouts (CIDs fixed at 2 bytes, packet numbers varint-encoded
//! in the clear — header protection is out of scope for a simulated
//! transport; the *byte counts* are what the paper's Fig. 9 model
//! sweeps, and the short-header overhead lands inside its 1-RTT
//! envelope):
//!
//! ```text
//! handshake: 0xC5 || dcid(2) || pn varint || frames…          (plaintext)
//! 1-RTT:     0x45 || dcid(2) || pn varint || AEAD(frames…)    (protected)
//! ```

use crate::{varint, QuicError};
use doc_crypto::ccm::{recycle, AesCcm, CcmScratch, OpenRequest};
use doc_crypto::hkdf;

/// First byte of a QUIC-lite long-header (handshake) packet.
pub const FLAGS_HANDSHAKE: u8 = 0xC5;
/// First byte of a QUIC-lite short-header (1-RTT) packet.
pub const FLAGS_ONE_RTT: u8 = 0x45;
/// Connection-ID length (fixed).
pub const CID_LEN: usize = 2;
/// AEAD tag length of the 1-RTT packet protection (QUIC uses 16-byte
/// tags; this is what puts the short-header overhead inside the
/// analytical model's 24–64-byte 1-RTT envelope).
pub const TAG_LEN: usize = 16;

/// Which packet-number space / protection level a packet belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// Plaintext handshake packet (CRYPTO flights).
    Handshake,
    /// Protected application packet.
    OneRtt,
}

/// A parsed packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Packet space.
    pub space: Space,
    /// Destination connection ID.
    pub cid: [u8; CID_LEN],
    /// Packet number.
    pub pn: u64,
    /// Bytes the header occupies on the wire.
    pub len: usize,
}

impl Header {
    /// Append the header for (`space`, `cid`, `pn`) to `out`.
    pub fn encode_into(space: Space, cid: [u8; CID_LEN], pn: u64, out: &mut Vec<u8>) {
        out.push(match space {
            Space::Handshake => FLAGS_HANDSHAKE,
            Space::OneRtt => FLAGS_ONE_RTT,
        });
        out.extend_from_slice(&cid);
        varint::encode_into(pn, out);
    }

    /// Parse the header at the front of `datagram`.
    pub fn decode(datagram: &[u8]) -> Result<Header, QuicError> {
        let flags = *datagram.first().ok_or(QuicError::Truncated)?;
        let space = match flags {
            FLAGS_HANDSHAKE => Space::Handshake,
            FLAGS_ONE_RTT => Space::OneRtt,
            _ => return Err(QuicError::Malformed),
        };
        let cid: [u8; CID_LEN] = datagram
            .get(1..1 + CID_LEN)
            .ok_or(QuicError::Truncated)?
            .try_into()
            .expect("slice length checked");
        let (pn, n) = varint::decode(&datagram[1 + CID_LEN..])?;
        Ok(Header {
            space,
            cid,
            pn,
            len: 1 + CID_LEN + n,
        })
    }
}

/// One direction of 1-RTT packet protection: AES-128-CCM with a
/// 16-byte tag, nonce = IV XOR packet number (RFC 9001 §5.3 shape).
pub struct PacketKeys {
    ccm: AesCcm,
    iv: [u8; 12],
}

impl PacketKeys {
    /// Derive a directional key/IV from the handshake secret material.
    /// `secret` is `psk || client_random || server_random`; `label`
    /// separates the client-write and server-write directions.
    pub fn derive(secret: &[u8], label: &str) -> Self {
        let key_bytes = hkdf::hkdf(b"doq-lite key", secret, label.as_bytes(), 16);
        let iv_bytes = hkdf::hkdf(b"doq-lite iv", secret, label.as_bytes(), 12);
        let key: [u8; 16] = key_bytes.as_slice().try_into().expect("16 bytes");
        let iv: [u8; 12] = iv_bytes.as_slice().try_into().expect("12 bytes");
        PacketKeys {
            ccm: AesCcm::new(&key, TAG_LEN, 3).expect("static parameters are valid"),
            iv,
        }
    }

    fn nonce(&self, pn: u64) -> [u8; 12] {
        let mut nonce = self.iv;
        for (i, b) in pn.to_be_bytes().iter().enumerate() {
            nonce[4 + i] ^= b;
        }
        nonce
    }

    /// Seal `plaintext` for packet `pn`, authenticating the header
    /// bytes, appending `ciphertext || tag` to `out`.
    pub fn seal_into(
        &self,
        pn: u64,
        header: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), QuicError> {
        self.ccm
            .seal_into(&self.nonce(pn), header, plaintext, out)
            .map_err(|_| QuicError::Crypto)
    }

    /// Open a protected packet body for packet `pn` under its header.
    pub fn open(&self, pn: u64, header: &[u8], body: &[u8]) -> Result<Vec<u8>, QuicError> {
        self.ccm
            .open(&self.nonce(pn), header, body)
            .map_err(|_| QuicError::Crypto)
    }

    /// Open a whole batch of 1-RTT packet bodies in one pass, for a
    /// worker draining many protected datagrams at once
    /// ([`AesCcm::open_suffix_batch_with`]). Each item's `buf[start..]`
    /// holds `ciphertext || tag` and becomes the plaintext on success.
    /// All-or-nothing: on any failure every buffer is restored
    /// byte-exactly; fall back to per-packet [`PacketKeys::open`] to
    /// isolate the forged datagram. `scratch` is reused across calls,
    /// so a warm batch allocates nothing.
    pub fn open_batch_with(
        &self,
        items: &mut [PacketOpen<'_>],
        scratch: &mut OpenScratch,
    ) -> Result<(), QuicError> {
        let OpenScratch { ccm, nonces, reqs } = scratch;
        nonces.clear();
        nonces.extend(items.iter().map(|it| self.nonce(it.pn)));
        let mut batch = recycle(std::mem::take(reqs));
        batch.extend(
            items
                .iter_mut()
                .zip(nonces.iter())
                .map(|(it, nonce)| OpenRequest {
                    nonce,
                    aad: it.header,
                    buf: &mut *it.buf,
                    start: it.start,
                }),
        );
        let opened = self.ccm.open_suffix_batch_with(&mut batch, ccm);
        *reqs = recycle(batch);
        opened.map_err(|_| QuicError::Crypto)
    }
}

/// The buffers of [`PacketKeys::open_batch_with`], held by the caller
/// across batches: empty until first used, then grown to the largest
/// batch seen.
#[derive(Default)]
pub struct OpenScratch {
    ccm: CcmScratch,
    nonces: Vec<[u8; 12]>,
    /// Emptied between calls; parked at `'static` (see [`recycle`]).
    reqs: Vec<OpenRequest<'static>>,
}

/// One packet of a batched 1-RTT open (see [`PacketKeys::open_batch_with`]).
pub struct PacketOpen<'a> {
    /// Packet number (forms the nonce).
    pub pn: u64,
    /// Header bytes authenticated as AAD.
    pub header: &'a [u8],
    /// Buffer whose suffix `buf[start..]` holds `ciphertext || tag`
    /// and becomes the plaintext on success.
    pub buf: &'a mut Vec<u8>,
    /// Offset where the protected body begins (typically the header
    /// length, so the datagram is opened in place).
    pub start: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_both_spaces() {
        for (space, pn) in [(Space::Handshake, 0u64), (Space::OneRtt, 70_000)] {
            let mut wire = Vec::new();
            Header::encode_into(space, [0xD0, 0xC1], pn, &mut wire);
            let h = Header::decode(&wire).unwrap();
            assert_eq!(h.space, space);
            assert_eq!(h.cid, [0xD0, 0xC1]);
            assert_eq!(h.pn, pn);
            assert_eq!(h.len, wire.len());
        }
    }

    #[test]
    fn header_rejects_garbage() {
        assert_eq!(Header::decode(&[]), Err(QuicError::Truncated));
        assert_eq!(Header::decode(&[0xFF, 0, 0, 0]), Err(QuicError::Malformed));
        assert_eq!(
            Header::decode(&[FLAGS_ONE_RTT, 1]),
            Err(QuicError::Truncated)
        );
    }

    #[test]
    fn protection_roundtrips_and_binds_header() {
        let secret = b"psk-0123456789abcdef-randoms";
        let tx = PacketKeys::derive(secret, "client write");
        let rx = PacketKeys::derive(secret, "client write");
        let other = PacketKeys::derive(secret, "server write");
        let header = [FLAGS_ONE_RTT, 0xD0, 0xC1, 0x07];
        let mut sealed = Vec::new();
        tx.seal_into(7, &header, b"stream bytes", &mut sealed)
            .unwrap();
        assert_eq!(sealed.len(), b"stream bytes".len() + TAG_LEN);
        assert_eq!(rx.open(7, &header, &sealed).unwrap(), b"stream bytes");
        // Wrong direction, pn or header must all fail.
        assert!(other.open(7, &header, &sealed).is_err());
        assert!(rx.open(8, &header, &sealed).is_err());
        assert!(rx.open(7, &[0u8; 4], &sealed).is_err());
    }

    /// Batched opening over one reused scratch: the whole flight
    /// decrypts in place to what per-packet `open` returns, and a
    /// forged datagram fails the batch and restores every buffer.
    #[test]
    fn open_batch_matches_sequential() {
        let secret = b"psk-0123456789abcdef-randoms";
        let tx = PacketKeys::derive(secret, "client write");
        let rx = PacketKeys::derive(secret, "client write");
        let plains: Vec<Vec<u8>> = (0..9usize).map(|i| vec![i as u8; 5 + i * 19]).collect();
        let headers: Vec<Vec<u8>> = (0..plains.len())
            .map(|i| {
                let mut h = Vec::new();
                Header::encode_into(Space::OneRtt, [0xD0, 0xC1], 500 + i as u64, &mut h);
                h
            })
            .collect();
        // Datagrams: header || sealed body.
        let wires: Vec<Vec<u8>> = plains
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut out = headers[i].clone();
                tx.seal_into(500 + i as u64, &headers[i], p, &mut out)
                    .unwrap();
                out
            })
            .collect();
        let mut scratch = OpenScratch::default();
        let mut open_all = |wires: &mut [Vec<u8>]| {
            let mut opens: Vec<PacketOpen<'_>> = wires
                .iter_mut()
                .enumerate()
                .map(|(i, buf)| PacketOpen {
                    pn: 500 + i as u64,
                    header: &headers[i],
                    buf,
                    start: headers[i].len(),
                })
                .collect();
            rx.open_batch_with(&mut opens, &mut scratch)
        };

        let mut opened = wires.clone();
        open_all(&mut opened).unwrap();
        for (i, wire) in opened.iter().enumerate() {
            let body = &wires[i][headers[i].len()..];
            assert_eq!(&wire[..headers[i].len()], &headers[i][..]);
            assert_eq!(
                wire[headers[i].len()..],
                rx.open(500 + i as u64, &headers[i], body).unwrap()
            );
            assert_eq!(&wire[headers[i].len()..], plains[i]);
        }

        let mut forged = wires.clone();
        forged[4][headers[4].len()] ^= 1;
        let snapshots = forged.clone();
        assert_eq!(open_all(&mut forged), Err(QuicError::Crypto));
        assert_eq!(forged, snapshots);
    }
}
