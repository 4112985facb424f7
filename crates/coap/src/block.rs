//! Block-wise transfers (RFC 7959), as used in Appendix A/D of the
//! paper.
//!
//! The BLOCK option value packs `NUM` (block number), `M` (more flag)
//! and `SZX` (size exponent, block size = 2^(SZX+4)) into 0–3 bytes.
//! [`Block1Sender`], [`BlockAssembler`] and [`Block2Server`] implement
//! the state machines of Fig. 12: Block1 splits a request body across
//! multiple exchanges (server answers 2.31 Continue), Block2 serves a
//! response body block by block.

use crate::msg::{CoapMessage, Code};
use crate::opt::{CoapOption, OptionNumber};
use crate::CoapError;

/// A decoded Block1/Block2 option value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockOpt {
    /// Block number (`NUM`).
    pub num: u32,
    /// More-blocks flag (`M`).
    pub more: bool,
    /// Size exponent (`SZX`, 0..=6); block size is `2^(szx+4)`.
    pub szx: u8,
}

impl BlockOpt {
    /// Construct from a block number, more flag and byte size
    /// (16/32/64/…/1024).
    pub fn new(num: u32, more: bool, size: usize) -> Result<Self, CoapError> {
        let szx = match size {
            16 => 0,
            32 => 1,
            64 => 2,
            128 => 3,
            256 => 4,
            512 => 5,
            1024 => 6,
            _ => return Err(CoapError::BadBlock),
        };
        if num >= 1 << 20 {
            return Err(CoapError::BadBlock);
        }
        Ok(BlockOpt { num, more, szx })
    }

    /// Block size in bytes.
    pub fn size(&self) -> usize {
        1 << (self.szx + 4)
    }

    /// Byte offset of this block within the full body.
    pub fn offset(&self) -> usize {
        self.num as usize * self.size()
    }

    /// Encode as option value bytes (0–3 bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(3);
        self.encode_into(&mut out);
        out
    }

    /// Append the option value bytes to `out` without allocating.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        crate::opt::encode_uint_into(self.value(), out);
    }

    /// The option's uint value (`NUM << 4 | M << 3 | SZX`).
    pub fn value(&self) -> u32 {
        (self.num << 4) | ((self.more as u32) << 3) | self.szx as u32
    }

    /// Decode from option value bytes.
    pub fn decode(value: &[u8]) -> Result<Self, CoapError> {
        if value.len() > 3 {
            return Err(CoapError::BadBlock);
        }
        let v = crate::opt::decode_uint_value(value);
        let szx = (v & 7) as u8;
        if szx == 7 {
            return Err(CoapError::BadBlock);
        }
        Ok(BlockOpt {
            num: v >> 4,
            more: v & 8 != 0,
            szx,
        })
    }

    /// Read a BLOCK option off a message.
    pub fn from_message(
        msg: &CoapMessage,
        number: OptionNumber,
    ) -> Option<Result<Self, CoapError>> {
        msg.option(number).map(|o| Self::decode(&o.value))
    }

    /// [`BlockOpt::from_message`] over a borrowed request view.
    pub fn from_view(
        msg: &crate::view::CoapView<'_>,
        number: OptionNumber,
    ) -> Option<Result<Self, CoapError>> {
        msg.option(number).map(|o| Self::decode(o.value))
    }

    /// As a [`CoapOption`] with the given option number.
    pub fn to_option(self, number: OptionNumber) -> CoapOption {
        CoapOption::new(number, self.encode())
    }
}

impl core::fmt::Display for BlockOpt {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The paper's Fig. 12 notation: num/more/size.
        write!(f, "{}/{}/{}", self.num, self.more as u8, self.size())
    }
}

/// Client-side Block1 sender: slices a request body into blocks.
///
/// Protocol (RFC 7959 §2.5, paper Fig. 12a): each non-final block is
/// answered by `2.31 Continue`; the final block carries the actual
/// request semantics and is answered by the real response.
#[derive(Debug, Clone)]
pub struct Block1Sender {
    body: Vec<u8>,
    block_size: usize,
    next: u32,
}

impl Block1Sender {
    /// Create a sender over `body` with `block_size` bytes per block.
    pub fn new(body: Vec<u8>, block_size: usize) -> Result<Self, CoapError> {
        BlockOpt::new(0, false, block_size)?; // validate size
        Ok(Block1Sender {
            body,
            block_size,
            next: 0,
        })
    }

    /// Total number of blocks.
    pub fn block_count(&self) -> usize {
        self.body.len().div_ceil(self.block_size).max(1)
    }

    /// The next (payload, Block1 option) pair, or `None` when done.
    pub fn next_block(&mut self) -> Option<(Vec<u8>, BlockOpt)> {
        let total = self.block_count();
        if self.next as usize >= total {
            return None;
        }
        let num = self.next;
        let start = num as usize * self.block_size;
        let end = (start + self.block_size).min(self.body.len());
        let more = (num as usize) < total - 1;
        self.next += 1;
        Some((
            self.body[start..end].to_vec(),
            BlockOpt {
                num,
                more,
                szx: BlockOpt::new(0, false, self.block_size)
                    .expect("validated")
                    .szx,
            },
        ))
    }
}

/// The largest body a [`BlockAssembler`] reassembles: 65,535 bytes, the
/// largest DNS message (its length is a 16-bit field, RFC 1035 §4.2.2).
pub const MAX_BODY: usize = 65_535;

/// Server-side Block1 reassembler / client-side Block2 reassembler.
///
/// Accumulates blocks in order; rejects gaps or overlaps (the strict
/// sequential mode both RIOT gCoAP and the paper's experiments use) and
/// a body that would grow past [`MAX_BODY`].
#[derive(Debug, Clone, Default)]
pub struct BlockAssembler {
    body: Vec<u8>,
    next_num: u32,
    done: bool,
}

impl BlockAssembler {
    /// Fresh assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one block; returns `Some(body)` when the body is complete,
    /// and [`CoapError::TooLarge`] when it would exceed [`MAX_BODY`].
    pub fn push(&mut self, block: BlockOpt, payload: &[u8]) -> Result<Option<Vec<u8>>, CoapError> {
        if self.done {
            return Err(CoapError::BlockSequence);
        }
        if block.num != self.next_num {
            return Err(CoapError::BlockSequence);
        }
        // All non-final blocks must be exactly the negotiated size.
        if block.more && payload.len() != block.size() {
            return Err(CoapError::BadBlock);
        }
        if self.body.len() + payload.len() > MAX_BODY {
            return Err(CoapError::TooLarge);
        }
        self.body.extend_from_slice(payload);
        self.next_num += 1;
        if block.more {
            Ok(None)
        } else {
            self.done = true;
            Ok(Some(std::mem::take(&mut self.body)))
        }
    }

    /// Number of blocks received so far.
    pub fn received(&self) -> u32 {
        self.next_num
    }
}

/// Server-side Block2 responder: serves a response body block by block.
#[derive(Debug, Clone)]
pub struct Block2Server {
    body: Vec<u8>,
}

impl Block2Server {
    /// Create a responder over `body`; `block_size` must be a valid
    /// block size (16..=1024, a power of two).
    pub fn new(body: Vec<u8>, block_size: usize) -> Result<Self, CoapError> {
        BlockOpt::new(0, false, block_size)?;
        Ok(Block2Server { body })
    }

    /// Produce block `num` (at `size` bytes per block, allowing the
    /// client to renegotiate a smaller size). Returns payload + option.
    pub fn block(&self, num: u32, size: usize) -> Result<(Vec<u8>, BlockOpt), CoapError> {
        let (slice, opt) = Self::slice(&self.body, num, size)?;
        Ok((slice.to_vec(), opt))
    }

    /// [`Block2Server::block`] over a borrowed body: block `num` at
    /// `size` bytes per block, as a slice of `body` plus its option.
    pub fn slice(body: &[u8], num: u32, size: usize) -> Result<(&[u8], BlockOpt), CoapError> {
        BlockOpt::new(0, false, size)?;
        let start = num as usize * size;
        if start >= body.len() && !(num == 0 && body.is_empty()) {
            return Err(CoapError::BlockSequence);
        }
        let end = (start + size).min(body.len());
        let more = end < body.len();
        Ok((&body[start..end], BlockOpt::new(num, more, size)?))
    }

    /// Whole-body length.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }
}

/// Attach a Block1 slice to a request message (helper used by DoC
/// clients performing block-wise FETCH/POST queries).
pub fn apply_block1(msg: &mut CoapMessage, payload: Vec<u8>, block: BlockOpt) {
    msg.payload = payload;
    msg.set_option(block.to_option(OptionNumber::BLOCK1));
}

/// Build the `2.31 Continue` acknowledgment for a non-final Block1
/// request block.
pub fn continue_response(req: &CoapMessage, block: BlockOpt) -> CoapMessage {
    continue_reply(req.message_id, req.token.clone(), block)
}

/// [`continue_response`] from the exchange identifiers directly, taking
/// ownership of the token (no clone from a borrowed view).
pub fn continue_reply(message_id: u16, token: Vec<u8>, block: BlockOpt) -> CoapMessage {
    let mut resp = CoapMessage::ack_reply(message_id, token, Code::CONTINUE);
    resp.set_option(block.to_option(OptionNumber::BLOCK1));
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgType;

    #[test]
    fn block_opt_roundtrip() {
        for (num, more, size) in [
            (0u32, false, 16usize),
            (0, true, 32),
            (1, true, 64),
            (2, false, 32),
            (100, true, 1024),
            (1_048_575, false, 16),
        ] {
            let b = BlockOpt::new(num, more, size).unwrap();
            let back = BlockOpt::decode(&b.encode()).unwrap();
            assert_eq!(back, b);
            assert_eq!(back.size(), size);
        }
    }

    #[test]
    fn block_zero_no_more_szx0_is_empty_value() {
        // NUM=0, M=0, SZX=0 encodes to zero bytes (uint 0).
        let b = BlockOpt::new(0, false, 16).unwrap();
        assert!(b.encode().is_empty());
        assert_eq!(BlockOpt::decode(&[]).unwrap(), b);
    }

    #[test]
    fn reject_bad_blocks() {
        assert!(BlockOpt::new(0, false, 48).is_err());
        assert!(BlockOpt::new(1 << 20, false, 16).is_err());
        assert!(BlockOpt::decode(&[0x07]).is_err()); // SZX=7
        assert!(BlockOpt::decode(&[0, 0, 0, 0]).is_err()); // 4 bytes
    }

    #[test]
    fn display_matches_paper_notation() {
        // Fig. 12 uses n/m/s notation like "0/1/32".
        assert_eq!(BlockOpt::new(0, true, 32).unwrap().to_string(), "0/1/32");
        assert_eq!(BlockOpt::new(2, false, 32).unwrap().to_string(), "2/0/32");
    }

    /// Reproduces Fig. 12a: a 96-byte body in 32-byte blocks takes
    /// exactly 3 Block1 exchanges, the first two answered 2.31.
    #[test]
    fn fig12a_block1_sequence() {
        let body: Vec<u8> = (0..96u8).collect();
        let mut sender = Block1Sender::new(body.clone(), 32).unwrap();
        assert_eq!(sender.block_count(), 3);
        let mut assembler = BlockAssembler::new();
        let mut exchanges = 0;
        let mut result = None;
        while let Some((payload, block)) = sender.next_block() {
            exchanges += 1;
            let req = CoapMessage::request(Code::POST, MsgType::Con, exchanges, vec![1]);
            let mut req = req;
            apply_block1(&mut req, payload.clone(), block);
            // Server side
            let r = assembler.push(block, &req.payload).unwrap();
            if block.more {
                let resp = continue_response(&req, block);
                assert_eq!(resp.code, Code::CONTINUE);
                let echoed = BlockOpt::from_message(&resp, OptionNumber::BLOCK1)
                    .unwrap()
                    .unwrap();
                assert_eq!(echoed, block);
                assert!(r.is_none());
            } else {
                result = r;
            }
        }
        assert_eq!(exchanges, 3);
        assert_eq!(result.unwrap(), body);
        assert!(sender.next_block().is_none());
    }

    /// Fig. 12b: Block2 retrieval of a 96-byte body in 32-byte blocks.
    #[test]
    fn fig12b_block2_sequence() {
        let body: Vec<u8> = (0..96u8).collect();
        let server = Block2Server::new(body.clone(), 32).unwrap();
        assert!(server.len() > 32);
        let mut assembler = BlockAssembler::new();
        let mut num = 0;
        loop {
            let (payload, block) = server.block(num, 32).unwrap();
            if let Some(full) = assembler.push(block, &payload).unwrap() {
                assert_eq!(full, body);
                break;
            }
            num += 1;
        }
        assert_eq!(assembler.received(), 3);
    }

    #[test]
    fn non_aligned_final_block() {
        let body = vec![7u8; 70]; // 3 blocks of 32: 32+32+6
        let mut sender = Block1Sender::new(body.clone(), 32).unwrap();
        let mut sizes = Vec::new();
        while let Some((p, _)) = sender.next_block() {
            sizes.push(p.len());
        }
        assert_eq!(sizes, vec![32, 32, 6]);
    }

    #[test]
    fn empty_body_single_block() {
        let mut sender = Block1Sender::new(Vec::new(), 16).unwrap();
        assert_eq!(sender.block_count(), 1);
        let (p, b) = sender.next_block().unwrap();
        assert!(p.is_empty());
        assert!(!b.more);
        assert!(sender.next_block().is_none());
    }

    #[test]
    fn assembler_rejects_out_of_order() {
        let mut a = BlockAssembler::new();
        let b1 = BlockOpt::new(1, true, 32).unwrap();
        assert_eq!(a.push(b1, &[0u8; 32]), Err(CoapError::BlockSequence));
    }

    #[test]
    fn assembler_rejects_duplicate() {
        let mut a = BlockAssembler::new();
        let b0 = BlockOpt::new(0, true, 32).unwrap();
        a.push(b0, &[0u8; 32]).unwrap();
        assert_eq!(a.push(b0, &[0u8; 32]), Err(CoapError::BlockSequence));
    }

    #[test]
    fn assembler_rejects_short_intermediate_block() {
        let mut a = BlockAssembler::new();
        let b0 = BlockOpt::new(0, true, 32).unwrap();
        assert_eq!(a.push(b0, &[0u8; 31]), Err(CoapError::BadBlock));
    }

    /// A body may reach [`MAX_BODY`] but not pass it, whether the last
    /// block is a full one or a short final one.
    #[test]
    fn assembler_bounds_the_body() {
        let mut a = BlockAssembler::new();
        for num in 0..63 {
            let block = BlockOpt::new(num, true, 1024).unwrap();
            assert_eq!(a.push(block, &[0u8; 1024]), Ok(None));
        }
        let full = BlockOpt::new(63, true, 1024).unwrap();
        assert_eq!(a.push(full, &[0u8; 1024]), Err(CoapError::TooLarge));
        let last = BlockOpt::new(63, false, 1024).unwrap();
        let body = a.push(last, &[0u8; 1023]).unwrap().unwrap();
        assert_eq!(body.len(), MAX_BODY);
    }

    #[test]
    fn assembler_rejects_after_done() {
        let mut a = BlockAssembler::new();
        let b0 = BlockOpt::new(0, false, 32).unwrap();
        a.push(b0, &[0u8; 10]).unwrap();
        assert_eq!(
            a.push(BlockOpt::new(1, false, 32).unwrap(), &[]),
            Err(CoapError::BlockSequence)
        );
    }

    #[test]
    fn block2_server_bounds() {
        let server = Block2Server::new(vec![1u8; 40], 32).unwrap();
        assert!(server.block(2, 32).is_err());
        let (p, b) = server.block(1, 32).unwrap();
        assert_eq!(p.len(), 8);
        assert!(!b.more);
        // Client renegotiates smaller size.
        let (p, b) = server.block(0, 16).unwrap();
        assert_eq!(p.len(), 16);
        assert!(b.more);
    }

    #[test]
    fn block2_empty_body() {
        let server = Block2Server::new(Vec::new(), 32).unwrap();
        assert!(server.is_empty());
        let (p, b) = server.block(0, 32).unwrap();
        assert!(p.is_empty());
        assert!(!b.more);
    }
}
