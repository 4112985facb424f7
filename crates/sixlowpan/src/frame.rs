//! IEEE 802.15.4 data-frame layout (simplified to the fields the
//! experiments account for).
//!
//! The frame layout matches RIOT's configuration on the FIT IoT-LAB
//! M3 nodes: 2.4 GHz O-QPSK PHY, data frames with 16-bit PAN IDs and
//! 64-bit extended (EUI-64) addresses:
//!
//! ```text
//! FCF(2) | Seq(1) | Dst PAN(2) | Dst(8) | Src PAN(2) | Src(8) | payload … | FCS(2)
//! ```
//!
//! The simulator counts frame bytes; it never builds a frame, so only
//! the per-frame overhead lives here.

/// The MAC header's byte accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacHeader;

impl MacHeader {
    /// Header bytes: FCF 2 + Seq 1 + DstPAN 2 + Dst 8 + SrcPAN 2 +
    /// Src 8.
    pub const HEADER_LEN: usize = 23;
    /// Trailing frame check sequence.
    pub const FCS_LEN: usize = 2;
    /// Total non-payload bytes per frame.
    pub const OVERHEAD: usize = Self::HEADER_LEN + Self::FCS_LEN;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_payload_is_102() {
        // 127 - 25 bytes of overhead.
        assert_eq!(crate::MAX_FRAME - MacHeader::OVERHEAD, 102);
    }
}
