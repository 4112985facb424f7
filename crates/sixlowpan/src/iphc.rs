//! 6LoWPAN IPv6/UDP header compression (RFC 6282 IPHC + UDP NHC).
//!
//! The paper's §5.1 configuration deactivates *stateful* (context-
//! based) address compression and routes with RPL across multiple
//! hops, so the compressed header is:
//!
//! * **IPHC (2 bytes)**: dispatch `011` + TF=11 (traffic class and flow
//!   label elided — "we … set the traffic class and flow label IPv6
//!   header fields to 0, so they are elided"), NH=1 (next header
//!   compressed via NHC), HLIM=10 (hop limit 64), SAC=0/SAM=01 and
//!   DAC=0/DAM=01: global unicast addresses whose 64-bit IIDs are
//!   carried **inline** (16 bytes) because stateful compression is
//!   off and the prefixes are link-local-derived defaults.
//! * **RPL hop-by-hop option (8 bytes)**: RFC 6553 mandates the RPL
//!   Option in data-plane datagrams; as 6LoWPAN NHC extension header:
//!   NHC-EXT(1) + length(1) + option type/len(2) + flags/instance/
//!   sender-rank(4).
//! * **UDP NHC (7 bytes)**: `11110_C_PP` with P=00 (both ports carried
//!   as 16 bits — DNS/CoAP ports are outside the 0xF0Bx short range),
//!   C=0 (checksum carried): 1 + 2 + 2 + 2.
//!
//! Total: 33 bytes of compressed IP/RPL/UDP — which together with the
//! 25-byte MAC overhead leaves 69 bytes of single-frame UDP payload,
//! reproducing exactly the fragmentation regimes of Fig. 6 (UDP A
//! response fits, UDP AAAA response fragments, FETCH query fits, GET /
//! DTLS / CoAPS / OSCORE queries fragment).

// Binary literals in this module are grouped by IPHC/NHC bit-field
// boundary (e.g. `0b011_11_1_00` = dispatch/TF/NH/HLIM), not by nibble.
#![allow(clippy::unusual_byte_groupings)]

use crate::SixloError;

/// Compressed IPv6 + RPL-HbH + UDP header for the global-unicast,
/// stateless-compression case of the paper's testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressedIpUdp {
    /// Hop limit (compressed to a 2-bit code when 1/64/255).
    pub hop_limit: u8,
    /// Source interface identifier (carried inline, SAM=01).
    pub src_iid: u64,
    /// Destination interface identifier (carried inline, DAM=01).
    pub dst_iid: u64,
    /// RPL instance ID (RFC 6553 option).
    pub rpl_instance: u8,
    /// RPL sender rank (RFC 6553 option).
    pub sender_rank: u16,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// UDP checksum (carried inline; computed over the pseudo-header by
    /// the caller or zeroed in simulation).
    pub checksum: u16,
}

impl CompressedIpUdp {
    /// Compressed header length: IPHC(2) + IIDs(16) + RPL HbH(8) +
    /// UDP NHC(1) + ports(4) + cksum(2) = 33.
    pub const HEADER_LEN: usize = 33;

    /// Encode the compressed headers followed by `payload`.
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER_LEN + payload.len());
        // IPHC byte 1: 011 TF=11 NH=1 HLIM (01=1, 10=64, 11=255).
        let hlim_bits = match self.hop_limit {
            1 => 0b01,
            64 => 0b10,
            255 => 0b11,
            // Inline hop limit not needed in these experiments; encode
            // 64 as the closest behaviour.
            _ => 0b10,
        };
        out.push(0b011_11_1_00 | hlim_bits);
        // IPHC byte 2: CID=0 SAC=0 SAM=01 M=0 DAC=0 DAM=01.
        out.push(0b0_0_01_0_0_01);
        out.extend_from_slice(&self.src_iid.to_be_bytes());
        out.extend_from_slice(&self.dst_iid.to_be_bytes());
        // RPL hop-by-hop extension header (RFC 6553) as NHC extension:
        // NHC-EXT 1110_000_1 (EID=0 HbH, NH=1 compressed next header).
        out.push(0b1110_0001);
        out.push(6); // header length: the option bytes below
        out.push(0x63); // RPL Option type
        out.push(4); // option data length
        out.push(0); // flags (O/R/F)
        out.push(self.rpl_instance);
        out.extend_from_slice(&self.sender_rank.to_be_bytes());
        // UDP NHC: 11110 C=0 P=00.
        out.push(0b11110_0_00);
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.checksum.to_be_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Decode compressed headers; returns (header, payload).
    pub fn decode(data: &[u8]) -> Result<(Self, &[u8]), SixloError> {
        if data.len() < Self::HEADER_LEN {
            return Err(SixloError::Truncated);
        }
        if data[0] >> 5 != 0b011 {
            return Err(SixloError::BadDispatch);
        }
        let hop_limit = match data[0] & 0b11 {
            0b01 => 1,
            0b10 => 64,
            0b11 => 255,
            _ => return Err(SixloError::BadDispatch), // inline unsupported
        };
        if data[1] != 0b0_0_01_0_0_01 {
            return Err(SixloError::BadDispatch);
        }
        let src_iid = u64::from_be_bytes(data[2..10].try_into().expect("8 bytes"));
        let dst_iid = u64::from_be_bytes(data[10..18].try_into().expect("8 bytes"));
        if data[18] != 0b1110_0001 || data[19] != 6 || data[20] != 0x63 || data[21] != 4 {
            return Err(SixloError::BadDispatch);
        }
        let rpl_instance = data[23];
        let sender_rank = u16::from_be_bytes([data[24], data[25]]);
        if data[26] != 0b11110_0_00 {
            return Err(SixloError::BadDispatch);
        }
        let src_port = u16::from_be_bytes([data[27], data[28]]);
        let dst_port = u16::from_be_bytes([data[29], data[30]]);
        let checksum = u16::from_be_bytes([data[31], data[32]]);
        Ok((
            CompressedIpUdp {
                hop_limit,
                src_iid,
                dst_iid,
                rpl_instance,
                sender_rank,
                src_port,
                dst_port,
                checksum,
            },
            &data[Self::HEADER_LEN..],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = CompressedIpUdp {
            hop_limit: 64,
            src_iid: 0x0123456789ABCDEF,
            dst_iid: 0xFEDCBA9876543210,
            rpl_instance: 0,
            sender_rank: 256,
            src_port: 5683,
            dst_port: 53,
            checksum: 0xBEEF,
        };
        let wire = h.encode(b"dns payload");
        assert_eq!(wire.len(), CompressedIpUdp::HEADER_LEN + 11);
        let (back, payload) = CompressedIpUdp::decode(&wire).unwrap();
        assert_eq!(back, h);
        assert_eq!(payload, b"dns payload");
    }

    #[test]
    fn hop_limit_codes() {
        for hl in [1u8, 64, 255] {
            let h = CompressedIpUdp {
                hop_limit: hl,
                src_iid: 1,
                dst_iid: 2,
                rpl_instance: 0,
                sender_rank: 0,
                src_port: 1,
                dst_port: 2,
                checksum: 0,
            };
            let (back, _) = CompressedIpUdp::decode(&h.encode(&[])).unwrap();
            assert_eq!(back.hop_limit, hl);
        }
    }

    #[test]
    fn compression_saves_23_bytes() {
        // 56 uncompressed (IPv6 40 + HbH w/ RPL option 8 + UDP 8) ->
        // 33 compressed.
        assert_eq!(40 + 8 + 8 - CompressedIpUdp::HEADER_LEN, 23);
    }

    #[test]
    fn reject_bad_dispatch() {
        let h = CompressedIpUdp {
            hop_limit: 64,
            src_iid: 1,
            dst_iid: 2,
            rpl_instance: 0,
            sender_rank: 0,
            src_port: 1,
            dst_port: 2,
            checksum: 0,
        };
        let mut wire = h.encode(&[]);
        wire[0] = 0x41; // ESC-like dispatch
        assert_eq!(CompressedIpUdp::decode(&wire), Err(SixloError::BadDispatch));
    }

    #[test]
    fn reject_truncated() {
        assert_eq!(
            CompressedIpUdp::decode(&[0x7A, 0x33]),
            Err(SixloError::Truncated)
        );
    }
}
