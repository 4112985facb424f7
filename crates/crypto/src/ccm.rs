//! AES-CCM authenticated encryption (RFC 3610 / NIST SP 800-38C).
//!
//! CCM is parameterized by the tag length `M` and the length-field size
//! `L` (nonce length is `15 - L`). The paper's two configurations:
//!
//! * **`AES-128-CCM-8`** (RFC 6655, used by DTLS): `M = 8`, `L = 3`,
//!   12-byte nonce.
//! * **`AES-CCM-16-64-128`** (RFC 8152 COSE, used by OSCORE): `M = 8`
//!   (64-bit tag), `L = 2`, 13-byte nonce.
//!
//! Both directions (seal/open) are implemented; CCM only needs the AES
//! forward transform.
//!
//! One packet is sealed by [`AesCcm::seal_suffix_in_place`] and opened
//! by [`AesCcm::open_suffix_in_place`]: the suffix of a buffer becomes
//! `ciphertext || tag` or the plaintext, in place. [`AesCcm::seal`] and
//! [`AesCcm::seal_into`] copy the plaintext into a buffer and seal it
//! there; [`AesCcm::open`] copies `ciphertext || tag` into a fresh
//! buffer and opens it there. Many packets go through
//! [`AesCcm::seal_suffix_batch_with`] and
//! [`AesCcm::open_suffix_batch_with`].
//!
//! Every path builds the CBC-MAC block sequence (`B_0`, the
//! length-prefixed AAD, the zero-padded message; RFC 3610 §2.2) and the
//! counter blocks from the same helpers (`b0`, `aad_block`,
//! `load_block`, `counter`), so the single-packet and batched paths
//! cannot diverge. A single packet runs one MAC chain, and `ctr_stream`
//! produces its CTR keystream (`S_0` for the tag plus the data blocks)
//! eight counter blocks per [`Aes128::encrypt_blocks`] call. The batched
//! paths ([`AesCcm::seal_suffix_batch_with`],
//! [`AesCcm::open_suffix_batch_with`]) share one lockstep core, run over
//! groups of up to 32 packets: the group's keystreams come from one
//! wide encrypt, its CBC-MAC chains advance one block per round through
//! one wide encrypt of their states, and each message block is
//! encrypted (or decrypted) in the same visit that feeds it to the MAC.
//! The core's buffers live in a caller-held [`CcmScratch`], so a pool
//! worker sealing or opening a whole drain allocates nothing once warm.

use crate::aes::Aes128;
use crate::backend::Backend;
use crate::{ct_eq, CryptoError};

/// A CCM mode instance: AES-128 key plus (tag length, length-field size).
pub struct AesCcm {
    aes: Aes128,
    /// Tag length in bytes (4..=16, even).
    tag_len: usize,
    /// Length-field size `L` in bytes (2..=8); nonce length is `15 - L`.
    l: usize,
}

/// One packet of a batched seal: the suffix `buf[start..]` holds the
/// plaintext and becomes `ciphertext || tag` in place, byte-exactly
/// what [`AesCcm::seal_suffix_in_place`] would have produced.
pub struct SealRequest<'a> {
    /// AEAD nonce; must be [`AesCcm::nonce_len`] bytes.
    pub nonce: &'a [u8],
    /// Additional authenticated data.
    pub aad: &'a [u8],
    /// Buffer whose suffix is sealed; the tag is appended to it.
    pub buf: &'a mut Vec<u8>,
    /// Offset where the plaintext suffix begins.
    pub start: usize,
}

/// One packet of a batched open: the suffix `buf[start..]` holds
/// `ciphertext || tag` and becomes the plaintext on success,
/// byte-exactly what [`AesCcm::open_suffix_in_place`] would have
/// produced.
pub struct OpenRequest<'a> {
    /// AEAD nonce; must be [`AesCcm::nonce_len`] bytes.
    pub nonce: &'a [u8],
    /// Additional authenticated data.
    pub aad: &'a [u8],
    /// Buffer whose suffix is opened; the tag is truncated off on
    /// success.
    pub buf: &'a mut Vec<u8>,
    /// Offset where the `ciphertext || tag` suffix begins.
    pub start: usize,
}

/// The buffers of the batched paths, held by the caller across
/// batches: empty (no heap) until first used, then grown to the largest
/// group seen (at most [`LOCKSTEP_GROUP`] packets) and reused, so a
/// warm batch allocates nothing.
#[derive(Debug, Default)]
pub struct CcmScratch {
    /// Each packet's place in the group; one lane per packet.
    spans: Vec<Span>,
    /// Every packet's counter blocks `A_0..=A_m`, encrypted in place
    /// into its keystream `S_0..=S_m`, group by group.
    keystream: Vec<[u8; 16]>,
    /// The CBC-MAC state of each lane, in span order.
    states: Vec<[u8; 16]>,
}

/// Where one packet of a batch sits: its data region `buf[start..end]`
/// (plaintext when sealing, ciphertext when opening), its keystream and
/// the length of its CBC-MAC chain.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// The packet's index in the group.
    packet: usize,
    start: usize,
    end: usize,
    /// Index of the packet's `S_0` in the keystream.
    ks: usize,
    /// CBC-MAC blocks before the message: `B_0` and the AAD region.
    head: usize,
    /// All of the packet's CBC-MAC blocks.
    blocks: usize,
}

/// The request fields the lockstep core reads: `(nonce, aad, buf,
/// start)`.
trait BatchItem {
    fn parts(&mut self) -> (&[u8], &[u8], &mut Vec<u8>, usize);
}

impl BatchItem for SealRequest<'_> {
    fn parts(&mut self) -> (&[u8], &[u8], &mut Vec<u8>, usize) {
        (self.nonce, self.aad, self.buf, self.start)
    }
}

impl BatchItem for OpenRequest<'_> {
    fn parts(&mut self) -> (&[u8], &[u8], &mut Vec<u8>, usize) {
        (self.nonce, self.aad, self.buf, self.start)
    }
}

/// Packets whose CBC-MAC chains the batched paths run in lockstep at
/// once: enough lanes to keep the eight-wide AES-NI kernel full, few
/// enough that a group's keystream, states and buffers stay in L1 and
/// a [`CcmScratch`] stays a few KiB whatever the batch size. A caller
/// that hands over its batches in chunks of this size bounds its own
/// per-packet buffers the same way at no cost in parallelism.
pub const LOCKSTEP_GROUP: usize = 32;

/// Hand back `v`'s allocation, emptied, as a vector of `U`. When `T`
/// and `U` share a layout — one request type at two lifetimes — the
/// allocation itself is reused (std collects a `vec::IntoIter` in
/// place), so a caller can keep a vector of borrowing requests
/// ([`SealRequest`], [`OpenRequest`]) warm across batches, parked as
/// `Vec<SealRequest<'static>>` between them. The pool's allocation pin
/// (`tests/sealed_allocs.rs`) fails if the reuse is ever lost.
pub fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().filter_map(|_| None).collect()
}

/// Validate the CCM mode parameters (tag length 4..=16 and even,
/// `L` in 2..=8) shared by every constructor.
fn check_mode_params(tag_len: usize, l: usize) -> Result<(), CryptoError> {
    if !(4..=16).contains(&tag_len) || !tag_len.is_multiple_of(2) || !(2..=8).contains(&l) {
        return Err(CryptoError::InvalidParameter);
    }
    Ok(())
}

impl AesCcm {
    /// Create a CCM instance with explicit parameters on the
    /// process-wide active backend.
    pub fn new(key: &[u8; 16], tag_len: usize, l: usize) -> Result<Self, CryptoError> {
        Self::with_backend(key, tag_len, l, Backend::active())
    }

    /// Create a CCM instance pinned to a specific AES backend — for
    /// known-answer tests and benchmarks covering every implementation.
    pub fn with_backend(
        key: &[u8; 16],
        tag_len: usize,
        l: usize,
        backend: Backend,
    ) -> Result<Self, CryptoError> {
        check_mode_params(tag_len, l)?;
        Ok(AesCcm {
            aes: Aes128::with_backend(key, backend),
            tag_len,
            l,
        })
    }

    /// `AES-128-CCM-8` as used by the DTLS cipher suite
    /// `TLS_PSK_WITH_AES_128_CCM_8` (RFC 6655): 8-byte tag, 12-byte nonce.
    pub fn dtls_ccm8(key: &[u8; 16]) -> Self {
        Self::new(key, 8, 3).expect("static parameters are valid")
    }

    /// `AES-CCM-16-64-128` as used by COSE/OSCORE (RFC 8152 §10.2):
    /// 8-byte (64-bit) tag, 13-byte nonce.
    pub fn cose_ccm_16_64_128(key: &[u8; 16]) -> Self {
        Self::new(key, 8, 2).expect("static parameters are valid")
    }

    /// Nonce length implied by the `L` parameter.
    pub fn nonce_len(&self) -> usize {
        15 - self.l
    }

    /// Tag length in bytes.
    pub fn tag_len(&self) -> usize {
        self.tag_len
    }

    /// The AES backend this instance dispatches to.
    pub fn backend(&self) -> Backend {
        self.aes.backend()
    }

    /// Encrypt `plaintext` with additional authenticated data `aad`,
    /// returning `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8], aad: &[u8], plaintext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut out = Vec::with_capacity(plaintext.len() + self.tag_len);
        self.seal_into(nonce, aad, plaintext, &mut out)?;
        Ok(out)
    }

    /// Encrypt `plaintext`, appending `ciphertext || tag` to `out` —
    /// lets callers seal into a buffer that already carries framing
    /// (e.g. a DTLS explicit nonce) without an intermediate ciphertext
    /// allocation.
    pub fn seal_into(
        &self,
        nonce: &[u8],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        let start = out.len();
        out.extend_from_slice(plaintext);
        self.seal_suffix_in_place(nonce, aad, out, start)
            .inspect_err(|_| out.truncate(start))
    }

    /// Encrypt the tail `buf[start..]` in place and append the tag:
    /// the suffix holding the plaintext *becomes* `ciphertext || tag`
    /// while everything before `start` (outer headers, options,
    /// markers) is left untouched. This is what lets OSCORE serialize a
    /// whole outer message into one buffer and protect the inner part
    /// at the end without copying it.
    pub fn seal_suffix_in_place(
        &self,
        nonce: &[u8],
        aad: &[u8],
        buf: &mut Vec<u8>,
        start: usize,
    ) -> Result<(), CryptoError> {
        debug_assert!(start <= buf.len());
        self.check_seal_params(nonce, buf.len() - start)?;
        let mut tag = self.cbc_mac(nonce, aad, &buf[start..]);
        self.ctr_stream(nonce, &mut tag, &mut buf[start..]);
        buf.extend_from_slice(&tag[..self.tag_len]);
        Ok(())
    }

    /// Seal many packets in one batched pass through the lockstep core
    /// (see the module doc): per group of packets, the keystreams come
    /// from one wide encrypt and the CBC-MAC chains advance together,
    /// one wide encrypt per block round. Validation is all-or-nothing:
    /// if any packet has a bad nonce or an oversized payload, no buffer
    /// is modified. `scratch` is reused across calls, so a warm batch
    /// allocates nothing.
    pub fn seal_suffix_batch_with(
        &self,
        reqs: &mut [SealRequest<'_>],
        scratch: &mut CcmScratch,
    ) -> Result<(), CryptoError> {
        for r in reqs.iter() {
            let Some(len) = r.buf.len().checked_sub(r.start) else {
                return Err(CryptoError::InvalidParameter);
            };
            self.check_seal_params(r.nonce, len)?;
        }
        for group in reqs.chunks_mut(LOCKSTEP_GROUP) {
            self.lockstep::<true, _>(group, scratch);
        }
        Ok(())
    }

    fn check_seal_params(&self, nonce: &[u8], plaintext_len: usize) -> Result<(), CryptoError> {
        if nonce.len() != self.nonce_len() {
            return Err(CryptoError::InvalidParameter);
        }
        if self.l < 8 && (plaintext_len as u64) >= (1u64 << (8 * self.l)) {
            return Err(CryptoError::InvalidParameter);
        }
        Ok(())
    }

    /// Decrypt and verify `ciphertext || tag`; returns the plaintext.
    /// The input is copied into the returned buffer and opened there
    /// ([`AesCcm::open_suffix_in_place`]).
    pub fn open(
        &self,
        nonce: &[u8],
        aad: &[u8],
        ciphertext_and_tag: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut buf = ciphertext_and_tag.to_vec();
        self.open_suffix_in_place(nonce, aad, &mut buf, 0)?;
        Ok(buf)
    }

    /// Decrypt and verify the tail `buf[start..]` (holding `ciphertext
    /// || tag`) in place: on success the suffix *becomes* the plaintext
    /// (tag truncated off) while everything before `start` is left
    /// untouched — the mirror of [`AesCcm::seal_suffix_in_place`]. On
    /// authentication failure the whole buffer is restored byte-exactly
    /// (CTR is an XOR involution, so re-applying the keystream undoes
    /// the trial decryption).
    pub fn open_suffix_in_place(
        &self,
        nonce: &[u8],
        aad: &[u8],
        buf: &mut Vec<u8>,
        start: usize,
    ) -> Result<(), CryptoError> {
        if nonce.len() != self.nonce_len() {
            return Err(CryptoError::InvalidParameter);
        }
        let Some(suffix_len) = buf.len().checked_sub(start) else {
            return Err(CryptoError::InvalidParameter);
        };
        let Some(pt_len) = suffix_len.checked_sub(self.tag_len) else {
            return Err(CryptoError::AuthFailed);
        };
        let split = start + pt_len;
        let mut s0 = [0u8; 16];
        self.ctr_stream(nonce, &mut s0, &mut buf[start..split]);
        let expect_tag = self.cbc_mac(nonce, aad, &buf[start..split]);
        let mut recv_tag = [0u8; 16];
        for i in 0..self.tag_len {
            recv_tag[i] = buf[split + i] ^ s0[i];
        }
        if !ct_eq(&recv_tag[..self.tag_len], &expect_tag[..self.tag_len]) {
            // Re-XOR the keystream: restores the original ciphertext
            // bytes exactly, leaving no plaintext of a forged packet.
            let mut discard = [0u8; 16];
            self.ctr_stream(nonce, &mut discard, &mut buf[start..split]);
            return Err(CryptoError::AuthFailed);
        }
        buf.truncate(split);
        Ok(())
    }

    /// Open many packets in one batched pass — the inbound mirror of
    /// [`AesCcm::seal_suffix_batch_with`], built for a pool worker
    /// draining a whole batch of protected datagrams at once, on the
    /// same lockstep core.
    ///
    /// Verification is all-or-nothing: if any packet has a bad
    /// parameter or a bad tag, *every* buffer is restored byte-exactly
    /// (CTR is an XOR involution, so re-applying the keystream undoes
    /// the trial decryption) and no plaintext is exposed. A caller
    /// that needs to isolate the offending packet falls back to
    /// per-packet [`AesCcm::open_suffix_in_place`].
    pub fn open_suffix_batch_with(
        &self,
        reqs: &mut [OpenRequest<'_>],
        scratch: &mut CcmScratch,
    ) -> Result<(), CryptoError> {
        for r in reqs.iter() {
            if r.nonce.len() != self.nonce_len() {
                return Err(CryptoError::InvalidParameter);
            }
            let Some(suffix_len) = r.buf.len().checked_sub(r.start) else {
                return Err(CryptoError::InvalidParameter);
            };
            if suffix_len < self.tag_len {
                return Err(CryptoError::AuthFailed);
            }
        }
        let mut verified = true;
        for group in reqs.chunks_mut(LOCKSTEP_GROUP) {
            verified &= self.lockstep::<false, _>(group, scratch);
        }
        for r in reqs.iter_mut() {
            let split = r.buf.len() - self.tag_len;
            if verified {
                r.buf.truncate(split);
            } else {
                // Re-XOR the keystream: restores the original
                // ciphertext bytes exactly.
                let mut discard = [0u8; 16];
                self.ctr_stream(r.nonce, &mut discard, &mut r.buf[r.start..split]);
            }
        }
        if verified {
            Ok(())
        } else {
            Err(CryptoError::AuthFailed)
        }
    }

    /// The lockstep core of both batched paths, over one group of
    /// validated requests. Sealing (`SEAL`), each message block is
    /// MACed as plaintext and replaced by its ciphertext, and the tag is
    /// appended. Opening, each block is decrypted in place and the
    /// plaintext MACed; the tag is checked but the buffers are left for
    /// the caller to truncate or restore. Returns whether every tag
    /// verified (always `true` when sealing).
    fn lockstep<const SEAL: bool, R: BatchItem>(
        &self,
        reqs: &mut [R],
        scratch: &mut CcmScratch,
    ) -> bool {
        let CcmScratch {
            spans,
            keystream,
            states,
        } = scratch;
        spans.clear();
        spans.reserve_exact(reqs.len());
        for (packet, r) in reqs.iter_mut().enumerate() {
            let (_, aad, buf, start) = r.parts();
            let end = if SEAL {
                buf.len()
            } else {
                buf.len() - self.tag_len
            };
            spans.push(span(packet, aad.len(), start, end));
        }
        // Longest chain first: the chains still running at any round
        // are then a prefix of the lanes.
        spans.sort_unstable_by_key(|s| core::cmp::Reverse(s.blocks));

        // The group's counter blocks, flattened into one wide encrypt;
        // each lane's chain starts from its packet's B_0.
        let total: usize = spans.iter().map(|s| msg_blocks(s) + 1).sum();
        keystream.clear();
        keystream.reserve_exact(total);
        states.clear();
        states.reserve_exact(spans.len());
        for s in spans.iter_mut() {
            let (nonce, aad, _, _) = reqs[s.packet].parts();
            let a0 = self.counter_base(nonce);
            s.ks = keystream.len();
            keystream.extend((0..msg_blocks(s) + 1).map(|i| self.counter(a0, i)));
            states.push(self.b0(a0, !aad.is_empty(), s.end - s.start));
        }
        self.aes.encrypt_blocks(keystream);

        // Each round encrypts the live states in one call, retires the
        // chains that just absorbed their last block (the tail of the
        // live lanes), then feeds block `k` to the rest.
        let mut verified = true;
        let mut live = spans.len();
        let mut k = 1;
        while live > 0 {
            self.aes.encrypt_blocks(&mut states[..live]);
            while let Some(s) = spans[..live].last().filter(|s| s.blocks == k) {
                live -= 1;
                let tag = xor(states[live], keystream[s.ks]);
                let (_, _, buf, _) = reqs[s.packet].parts();
                if SEAL {
                    buf.extend_from_slice(&tag[..self.tag_len]);
                } else {
                    verified &= ct_eq(&buf[s.end..s.end + self.tag_len], &tag[..self.tag_len]);
                }
            }
            for (x, s) in states[..live].iter_mut().zip(spans.iter()) {
                let (_, aad, buf, _) = reqs[s.packet].parts();
                if k < s.head {
                    *x = xor(*x, aad_block(aad, k - 1));
                    continue;
                }
                let j = k - s.head;
                let key = keystream[s.ks + 1 + j];
                let rest = &mut buf[s.start + 16 * j..s.end];
                if let Some(chunk) = rest.first_chunk_mut::<16>() {
                    let input = *chunk;
                    let output = xor(input, key);
                    *chunk = output;
                    *x = xor(*x, if SEAL { input } else { output });
                } else {
                    let input = load_partial(rest);
                    let mask = front_mask(rest.len());
                    let output = core::array::from_fn(|i| (input[i] ^ key[i]) & mask[i]);
                    store_partial(rest, &output);
                    *x = xor(*x, if SEAL { input } else { output });
                }
            }
            k += 1;
        }
        verified
    }

    /// Compute the raw (unencrypted) CBC-MAC tag over the RFC 3610 §2.2
    /// block sequence of one packet.
    fn cbc_mac(&self, nonce: &[u8], aad: &[u8], msg: &[u8]) -> [u8; 16] {
        let mut x = self.b0(self.counter_base(nonce), !aad.is_empty(), msg.len());
        self.aes.encrypt_block(&mut x);
        for i in 0..head_blocks(aad.len()) - 1 {
            x = xor(x, aad_block(aad, i));
            self.aes.encrypt_block(&mut x);
        }
        for j in 0..msg.len().div_ceil(16) {
            x = xor(x, load_block(msg, j));
            self.aes.encrypt_block(&mut x);
        }
        x
    }

    /// Counter block `A_0` (flags, nonce, zero counter) as a
    /// big-endian integer: every other block of the packet — `A_i` and
    /// `B_0` — is it with a field ORed in.
    fn counter_base(&self, nonce: &[u8]) -> u128 {
        let mut a = [0u8; 16];
        a[0] = (self.l - 1) as u8;
        a[1..].copy_from_slice(&load_partial(nonce)[..15]);
        u128::from_be_bytes(a)
    }

    /// `value` in the low `L` bytes of a block: its counter or length
    /// field.
    fn field(&self, value: u64) -> u128 {
        u128::from(value) & ((1u128 << (8 * self.l)) - 1)
    }

    /// Counter block `A_i` of the packet whose `A_0` is `a0`.
    fn counter(&self, a0: u128, i: usize) -> [u8; 16] {
        (a0 | self.field(i as u64)).to_be_bytes()
    }

    /// `B_0` (RFC 3610 §2.2): `A_0`'s nonce under the MAC flags, with
    /// the message length in the length field.
    fn b0(&self, a0: u128, has_aad: bool, msg_len: usize) -> [u8; 16] {
        let adata_flag = if has_aad { 0x40u128 } else { 0 };
        let m_enc = ((self.tag_len - 2) / 2) as u128;
        (a0 | (adata_flag | m_enc << 3) << 120 | self.field(msg_len as u64)).to_be_bytes()
    }

    /// Generate the whole CTR keystream in multi-block batches: `S_0`
    /// (counter 0) is XORed into `tag`, counters `1..` into `data`.
    /// Allocation-free; on AES-NI this keeps 8 counter blocks in
    /// flight even for a single packet.
    fn ctr_stream(&self, nonce: &[u8], tag: &mut [u8; 16], data: &mut [u8]) {
        const BATCH: usize = 8;
        let nblocks = data.len().div_ceil(16) as u64;
        let a0 = self.counter_base(nonce);
        let mut ks = [[0u8; 16]; BATCH];
        let mut next = 0u64;
        while next <= nblocks {
            let m = usize::min(BATCH, (nblocks - next + 1) as usize);
            for (i, block) in ks[..m].iter_mut().enumerate() {
                *block = self.counter(a0, next as usize + i);
            }
            self.aes.encrypt_blocks(&mut ks[..m]);
            for (i, key) in ks[..m].iter().enumerate() {
                match next + i as u64 {
                    0 => {
                        for (t, k) in tag.iter_mut().zip(key.iter()) {
                            *t ^= k;
                        }
                    }
                    ctr => {
                        let off = (ctr - 1) as usize * 16;
                        let end = usize::min(off + 16, data.len());
                        for (b, k) in data[off..end].iter_mut().zip(key.iter()) {
                            *b ^= k;
                        }
                    }
                }
            }
            next += m as u64;
        }
    }
}

/// The span of a packet with `aad_len` bytes of AAD and data region
/// `start..end`; its keystream offset is set by the core.
fn span(packet: usize, aad_len: usize, start: usize, end: usize) -> Span {
    let head = head_blocks(aad_len);
    Span {
        packet,
        start,
        end,
        ks: 0,
        head,
        blocks: head + (end - start).div_ceil(16),
    }
}

/// Message blocks of a span's data region.
fn msg_blocks(s: &Span) -> usize {
    (s.end - s.start).div_ceil(16)
}

/// Block `i` of the CBC-MAC's AAD region (RFC 3610 §2.2): the AAD's
/// length prefix (2, 6 or 10 bytes, at the front of block 0), the AAD,
/// then zero padding.
fn aad_block(aad: &[u8], i: usize) -> [u8; 16] {
    let lead = aad_prefix_len(aad.len());
    let front = |n: usize| load_partial(&aad[..usize::min(n, aad.len())]);
    if i > 0 {
        let from = 16 * i - lead;
        return load_partial(&aad[from..usize::min(from + 16, aad.len())]);
    }
    let mut block = [0u8; 16];
    let alen = aad.len() as u64;
    match lead {
        2 => {
            block[..2].copy_from_slice(&(alen as u16).to_be_bytes());
            block[2..].copy_from_slice(&front(14)[..14]);
        }
        6 => {
            block[..2].copy_from_slice(&[0xff, 0xfe]);
            block[2..6].copy_from_slice(&(alen as u32).to_be_bytes());
            block[6..].copy_from_slice(&front(10)[..10]);
        }
        _ => {
            block[..2].copy_from_slice(&[0xff, 0xff]);
            block[2..10].copy_from_slice(&alen.to_be_bytes());
            block[10..].copy_from_slice(&front(6)[..6]);
        }
    }
    block
}

/// Length of the AAD's length prefix: none without AAD, else 2, 6 or
/// 10 bytes.
fn aad_prefix_len(aad_len: usize) -> usize {
    match aad_len as u64 {
        0 => 0,
        1..0xFF00 => 2,
        0xFF00..=0xFFFF_FFFF => 6,
        _ => 10,
    }
}

/// CBC-MAC blocks before the message: `B_0` plus the AAD region.
fn head_blocks(aad_len: usize) -> usize {
    1 + (aad_prefix_len(aad_len) + aad_len).div_ceil(16)
}

/// Message block `j` of `data`, zero padded.
#[inline]
fn load_block(data: &[u8], j: usize) -> [u8; 16] {
    let rest = &data[16 * j..];
    match rest.first_chunk::<16>() {
        Some(full) => *full,
        None => load_partial(rest),
    }
}

/// `src` (at most 16 bytes) at the front of a zero-padded block. The
/// two overlapping fixed-size copies stand in for a variable-length
/// `memcpy` call, which costs more than the rest of a block's visit.
#[inline]
fn load_partial(src: &[u8]) -> [u8; 16] {
    let mut block = [0u8; 16];
    let n = src.len();
    if n >= 8 {
        block[..8].copy_from_slice(&src[..8]);
        block[n - 8..n].copy_from_slice(&src[n - 8..]);
    } else if n >= 4 {
        block[..4].copy_from_slice(&src[..4]);
        block[n - 4..n].copy_from_slice(&src[n - 4..]);
    } else if n >= 2 {
        block[..2].copy_from_slice(&src[..2]);
        block[n - 2..n].copy_from_slice(&src[n - 2..]);
    } else if let Some(&byte) = src.first() {
        block[0] = byte;
    }
    block
}

/// Write the front of `block` over `dst` (at most 16 bytes): the store
/// mirror of [`load_partial`].
#[inline]
fn store_partial(dst: &mut [u8], block: &[u8; 16]) {
    let n = dst.len();
    if n >= 8 {
        dst[..8].copy_from_slice(&block[..8]);
        dst[n - 8..].copy_from_slice(&block[n - 8..n]);
    } else if n >= 4 {
        dst[..4].copy_from_slice(&block[..4]);
        dst[n - 4..].copy_from_slice(&block[n - 4..n]);
    } else if n >= 2 {
        dst[..2].copy_from_slice(&block[..2]);
        dst[n - 2..].copy_from_slice(&block[n - 2..n]);
    } else if let Some(byte) = dst.first_mut() {
        *byte = block[0];
    }
}

/// A block whose first `n` (at most 16) bytes are `0xff`, the rest zero.
#[inline]
fn front_mask(n: usize) -> [u8; 16] {
    const ONES_THEN_ZEROS: [u8; 32] = {
        let mut m = [0u8; 32];
        let mut i = 0;
        while i < 16 {
            m[i] = 0xff;
            i += 1;
        }
        m
    };
    let window = &ONES_THEN_ZEROS[16 - n..];
    core::array::from_fn(|i| window[i])
}

/// XOR of two blocks. Written bytewise so it compiles to one 16-byte
/// vector XOR: a `u128` XOR splits into two 8-byte halves, and the
/// AES kernel's 16-byte load of a state stored in halves cannot be
/// forwarded from the store buffer.
#[inline]
fn xor(a: [u8; 16], b: [u8; 16]) -> [u8; 16] {
    core::array::from_fn(|i| a[i] ^ b[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// RFC 3610 packet vector #1: M=8, L=2, 13-byte nonce — exactly the
    /// COSE AES-CCM-16-64-128 configuration. Run on every backend.
    #[test]
    fn rfc3610_vector_1() {
        let key: [u8; 16] = unhex("C0C1C2C3C4C5C6C7C8C9CACBCCCDCECF")
            .try_into()
            .unwrap();
        let nonce = unhex("00000003020100A0A1A2A3A4A5");
        // Total packet 00..1E; first 8 bytes are AAD, rest plaintext.
        let packet = unhex("000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E");
        let (aad, plain) = packet.split_at(8);
        let expect = unhex("588C979A61C663D2F066D0C2C0F989806D5F6B61DAC38417E8D12CFDF926E0");
        for backend in Backend::available() {
            let ccm = AesCcm::with_backend(&key, 8, 2, backend).unwrap();
            let sealed = ccm.seal(&nonce, aad, plain).unwrap();
            assert_eq!(sealed, expect, "{}", backend.label());
            let opened = ccm.open(&nonce, aad, &sealed).unwrap();
            assert_eq!(opened, plain, "{}", backend.label());
        }
    }

    /// `seal_into` / `seal_suffix_in_place` / single-packet
    /// `seal_suffix_batch_with` are byte-identical to `seal`.
    #[test]
    fn seal_variants_agree() {
        let ccm = AesCcm::new(&[7u8; 16], 8, 2).unwrap();
        let nonce = [9u8; 13];
        let aad = b"binding";
        let plain = b"a plaintext spanning multiple AES blocks for good measure";
        let sealed = ccm.seal(&nonce, aad, plain).unwrap();

        let mut framed = vec![0xEE, 0xFF]; // pre-existing framing bytes
        ccm.seal_into(&nonce, aad, plain, &mut framed).unwrap();
        assert_eq!(&framed[..2], &[0xEE, 0xFF]);
        assert_eq!(&framed[2..], &sealed[..]);

        let mut suffixed = vec![0xEE, 0xFF];
        suffixed.extend_from_slice(plain);
        ccm.seal_suffix_in_place(&nonce, aad, &mut suffixed, 2)
            .unwrap();
        assert_eq!(&suffixed[..2], &[0xEE, 0xFF]);
        assert_eq!(&suffixed[2..], &sealed[..]);

        let mut batched = vec![0xEE, 0xFF];
        batched.extend_from_slice(plain);
        let mut reqs = [SealRequest {
            nonce: &nonce,
            aad,
            buf: &mut batched,
            start: 2,
        }];
        ccm.seal_suffix_batch_with(&mut reqs, &mut CcmScratch::default())
            .unwrap();
        assert_eq!(&batched[..2], &[0xEE, 0xFF]);
        assert_eq!(&batched[2..], &sealed[..]);

        assert_eq!(ccm.open(&nonce, aad, &sealed).unwrap(), plain);
    }

    /// Batched sealing is byte-exact with the sequential path across a
    /// spread of packet sizes (empty, sub-block, block-aligned, multi-
    /// block), mixed AADs, and every backend.
    #[test]
    fn batch_matches_sequential() {
        let key = [0x21u8; 16];
        let sizes = [0usize, 1, 15, 16, 17, 47, 48, 64, 200];
        for backend in Backend::available() {
            let ccm = AesCcm::with_backend(&key, 8, 2, backend).unwrap();
            let mut bufs: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| (0..n).map(|j| (i * 31 + j) as u8).collect())
                .collect();
            let nonces: Vec<[u8; 13]> = (0..sizes.len())
                .map(|i| core::array::from_fn(|j| (i * 17 + j) as u8))
                .collect();
            let aads: Vec<Vec<u8>> = (0..sizes.len())
                .map(|i| vec![i as u8; i * 7 % 40])
                .collect();

            let expect: Vec<Vec<u8>> = bufs
                .iter()
                .enumerate()
                .map(|(i, buf)| ccm.seal(&nonces[i], &aads[i], buf).unwrap())
                .collect();

            let mut reqs: Vec<SealRequest<'_>> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, buf)| SealRequest {
                    nonce: &nonces[i],
                    aad: &aads[i],
                    buf,
                    start: 0,
                })
                .collect();
            ccm.seal_suffix_batch_with(&mut reqs, &mut CcmScratch::default())
                .unwrap();
            assert_eq!(bufs, expect, "{}", backend.label());
        }
    }

    /// A bad packet anywhere in a batch leaves every buffer untouched.
    #[test]
    fn batch_validation_is_all_or_nothing() {
        let ccm = AesCcm::cose_ccm_16_64_128(&[1u8; 16]);
        let mut good = b"fine".to_vec();
        let mut bad = b"doomed".to_vec();
        let good_nonce = [2u8; 13];
        let bad_nonce = [3u8; 12]; // wrong length
        let mut reqs = [
            SealRequest {
                nonce: &good_nonce,
                aad: b"",
                buf: &mut good,
                start: 0,
            },
            SealRequest {
                nonce: &bad_nonce,
                aad: b"",
                buf: &mut bad,
                start: 0,
            },
        ];
        assert_eq!(
            ccm.seal_suffix_batch_with(&mut reqs, &mut CcmScratch::default()),
            Err(CryptoError::InvalidParameter)
        );
        assert_eq!(good, b"fine");
        assert_eq!(bad, b"doomed");
    }

    /// Batched opening round-trips the sequential seal across a spread
    /// of packet sizes, mixed AADs, framing prefixes, and every
    /// backend — byte-exact with `open_suffix_in_place`.
    #[test]
    fn open_batch_matches_sequential() {
        let key = [0x43u8; 16];
        let sizes = [0usize, 1, 15, 16, 17, 47, 48, 64, 200];
        for backend in Backend::available() {
            let ccm = AesCcm::with_backend(&key, 8, 2, backend).unwrap();
            let nonces: Vec<[u8; 13]> = (0..sizes.len())
                .map(|i| core::array::from_fn(|j| (i * 29 + j) as u8))
                .collect();
            let aads: Vec<Vec<u8>> = (0..sizes.len())
                .map(|i| vec![i as u8; i * 5 % 33])
                .collect();
            let plains: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| (0..n).map(|j| (i * 13 + j) as u8).collect())
                .collect();
            // Each buffer: 3 framing bytes, then ciphertext || tag.
            let mut bufs: Vec<Vec<u8>> = plains
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let mut buf = vec![0xEE, 0xFF, i as u8];
                    ccm.seal_into(&nonces[i], &aads[i], p, &mut buf).unwrap();
                    buf
                })
                .collect();
            let mut reqs: Vec<OpenRequest<'_>> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, buf)| OpenRequest {
                    nonce: &nonces[i],
                    aad: &aads[i],
                    buf,
                    start: 3,
                })
                .collect();
            ccm.open_suffix_batch_with(&mut reqs, &mut CcmScratch::default())
                .unwrap();
            for (i, buf) in bufs.iter().enumerate() {
                assert_eq!(&buf[..3], &[0xEE, 0xFF, i as u8], "{}", backend.label());
                assert_eq!(&buf[3..], plains[i], "{}", backend.label());
            }
        }
    }

    /// The lockstep core against the per-packet paths at every block
    /// edge: plaintexts on both sides of one (the batch ending on a
    /// block-aligned packet) crossed with AADs that do and do not fill
    /// their blocks, then one scratch reused across batches of 1, 128
    /// and 3 packets — sealed and opened on every backend.
    #[test]
    fn batch_matches_per_packet_at_block_edges_with_reused_scratch() {
        const PLAIN: [usize; 7] = [0, 1, 15, 17, 33, 16, 32];
        const AAD: [usize; 5] = [0, 13, 14, 30, 31];
        let every: Vec<(usize, usize)> = PLAIN
            .iter()
            .flat_map(|&p| AAD.iter().map(move |&a| (p, a)))
            .collect();
        let reused: [Vec<(usize, usize)>; 3] = [
            vec![(16, 13)],
            every.iter().copied().cycle().take(128).collect(),
            vec![(33, 31), (17, 0), (32, 30)],
        ];
        for backend in Backend::available() {
            let ccm = AesCcm::with_backend(&[0x5A; 16], 8, 3, backend).unwrap();
            let label = backend.label();
            let check = |salt: usize, shapes: &[(usize, usize)], scratch: &mut CcmScratch| {
                let nonces: Vec<[u8; 12]> = (0..shapes.len())
                    .map(|i| core::array::from_fn(|j| (salt + i * 7 + j) as u8))
                    .collect();
                let aads: Vec<Vec<u8>> = shapes
                    .iter()
                    .enumerate()
                    .map(|(i, &(_, a))| (0..a).map(|j| ((salt ^ i) + j) as u8).collect())
                    .collect();
                // Two framing bytes, then the plaintext.
                let framed: Vec<Vec<u8>> = shapes
                    .iter()
                    .enumerate()
                    .map(|(i, &(p, _))| {
                        let mut buf = vec![0xEE, i as u8];
                        buf.extend((0..p).map(|j| (salt + 3 * i + j) as u8));
                        buf
                    })
                    .collect();
                let mut expect = framed.clone();
                for (i, buf) in expect.iter_mut().enumerate() {
                    ccm.seal_suffix_in_place(&nonces[i], &aads[i], buf, 2)
                        .unwrap();
                }
                let mut bufs = framed.clone();
                let mut reqs: Vec<SealRequest<'_>> = bufs
                    .iter_mut()
                    .enumerate()
                    .map(|(i, buf)| SealRequest {
                        nonce: &nonces[i],
                        aad: &aads[i],
                        buf,
                        start: 2,
                    })
                    .collect();
                ccm.seal_suffix_batch_with(&mut reqs, scratch).unwrap();
                assert_eq!(bufs, expect, "{label}: seal of {shapes:?}");

                let mut one_by_one = expect.clone();
                for (i, buf) in one_by_one.iter_mut().enumerate() {
                    ccm.open_suffix_in_place(&nonces[i], &aads[i], buf, 2)
                        .unwrap();
                }
                assert_eq!(one_by_one, framed, "{label}: per-packet open");
                let mut reqs: Vec<OpenRequest<'_>> = bufs
                    .iter_mut()
                    .enumerate()
                    .map(|(i, buf)| OpenRequest {
                        nonce: &nonces[i],
                        aad: &aads[i],
                        buf,
                        start: 2,
                    })
                    .collect();
                ccm.open_suffix_batch_with(&mut reqs, scratch).unwrap();
                assert_eq!(bufs, framed, "{label}: open of {shapes:?}");
            };
            check(1, &every, &mut CcmScratch::default());
            let mut scratch = CcmScratch::default();
            for (salt, shapes) in reused.iter().enumerate() {
                check(salt + 2, shapes, &mut scratch);
            }
        }
    }

    /// A forged packet anywhere in an open batch fails the whole batch
    /// and restores *every* buffer byte-exactly — no plaintext of any
    /// packet (valid or forged) is left behind — and the scratch that
    /// failed opens the next clean batch.
    #[test]
    fn open_batch_failure_restores_every_buffer() {
        let ccm = AesCcm::cose_ccm_16_64_128(&[0x61u8; 16]);
        let nonces: Vec<[u8; 13]> = (0..3).map(|i| [i as u8 + 1; 13]).collect();
        let mut bufs: Vec<Vec<u8>> = (0..3)
            .map(|i| {
                ccm.seal(&nonces[i], b"aad", format!("packet {i}").as_bytes())
                    .unwrap()
            })
            .collect();
        let clean = bufs.clone();
        bufs[1][2] ^= 0x80; // forge the middle packet
        let snapshots = bufs.clone();
        let mut scratch = CcmScratch::default();
        let mut reqs: Vec<OpenRequest<'_>> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, buf)| OpenRequest {
                nonce: &nonces[i],
                aad: b"aad",
                buf,
                start: 0,
            })
            .collect();
        assert_eq!(
            ccm.open_suffix_batch_with(&mut reqs, &mut scratch),
            Err(CryptoError::AuthFailed)
        );
        assert_eq!(bufs, snapshots, "all buffers restored on failure");

        // Parameter errors are caught before any buffer is touched: a
        // wrong nonce length is InvalidParameter, a suffix shorter
        // than the tag is AuthFailed.
        let short_nonce = [9u8; 12];
        let mut reqs: Vec<OpenRequest<'_>> = bufs
            .iter_mut()
            .map(|buf| OpenRequest {
                nonce: &short_nonce,
                aad: b"aad",
                buf,
                start: 0,
            })
            .collect();
        assert_eq!(
            ccm.open_suffix_batch_with(&mut reqs, &mut scratch),
            Err(CryptoError::InvalidParameter)
        );
        let mut tiny = vec![1u8, 2, 3];
        let mut reqs = [OpenRequest {
            nonce: &nonces[0],
            aad: b"",
            buf: &mut tiny,
            start: 0,
        }];
        assert_eq!(
            ccm.open_suffix_batch_with(&mut reqs, &mut scratch),
            Err(CryptoError::AuthFailed)
        );
        assert_eq!(tiny, vec![1u8, 2, 3]);

        // The scratch that saw every failure above still opens a clean
        // batch.
        let mut bufs = clean;
        let mut reqs: Vec<OpenRequest<'_>> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, buf)| OpenRequest {
                nonce: &nonces[i],
                aad: b"aad",
                buf,
                start: 0,
            })
            .collect();
        ccm.open_suffix_batch_with(&mut reqs, &mut scratch).unwrap();
        for (i, buf) in bufs.iter().enumerate() {
            assert_eq!(buf, format!("packet {i}").as_bytes());
        }
    }

    /// `open_suffix_in_place` mirrors the seal side, over a whole
    /// buffer or a framed suffix: success leaves the plaintext, failure
    /// restores the ciphertext byte-exactly.
    #[test]
    fn open_in_place_roundtrip_and_restore() {
        let ccm = AesCcm::cose_ccm_16_64_128(&[7u8; 16]);
        let nonce = [9u8; 13];
        let plain = b"plaintext across blocks, in place this time";
        let sealed = ccm.seal(&nonce, b"aad", plain).unwrap();

        let mut buf = sealed.clone();
        ccm.open_suffix_in_place(&nonce, b"aad", &mut buf, 0)
            .unwrap();
        assert_eq!(buf, plain);

        let mut framed = vec![0xEE, 0xFF];
        framed.extend_from_slice(&sealed);
        ccm.open_suffix_in_place(&nonce, b"aad", &mut framed, 2)
            .unwrap();
        assert_eq!(&framed[..2], &[0xEE, 0xFF]);
        assert_eq!(&framed[2..], plain);

        // Tampered: buffer must be restored byte-exactly.
        let mut bad = sealed.clone();
        bad[3] ^= 0x80;
        let snapshot = bad.clone();
        assert_eq!(
            ccm.open_suffix_in_place(&nonce, b"aad", &mut bad, 0),
            Err(CryptoError::AuthFailed)
        );
        assert_eq!(bad, snapshot, "ciphertext restored on failure");

        // Truncated input (shorter than the tag) fails cleanly.
        let mut tiny = sealed[..4].to_vec();
        assert_eq!(
            ccm.open_suffix_in_place(&nonce, b"aad", &mut tiny, 0),
            Err(CryptoError::AuthFailed)
        );
        // `start` beyond the buffer is a parameter error, not a panic.
        let mut buf = sealed.clone();
        assert_eq!(
            ccm.open_suffix_in_place(&nonce, b"aad", &mut buf, sealed.len() + 1),
            Err(CryptoError::InvalidParameter)
        );
    }

    /// RFC 3610 packet vector #2 (plaintext not block-aligned).
    #[test]
    fn rfc3610_vector_2() {
        let key: [u8; 16] = unhex("C0C1C2C3C4C5C6C7C8C9CACBCCCDCECF")
            .try_into()
            .unwrap();
        let nonce = unhex("00000004030201A0A1A2A3A4A5");
        let packet = unhex("000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F");
        let (aad, plain) = packet.split_at(8);
        let ccm = AesCcm::new(&key, 8, 2).unwrap();
        let sealed = ccm.seal(&nonce, aad, plain).unwrap();
        let expect = unhex("72C91A36E135F8CF291CA894085C87E3CC15C439C9E43A3BA091D56E10400916");
        assert_eq!(sealed, expect);
    }

    /// RFC 3610 packet vector #3.
    #[test]
    fn rfc3610_vector_3() {
        let key: [u8; 16] = unhex("C0C1C2C3C4C5C6C7C8C9CACBCCCDCECF")
            .try_into()
            .unwrap();
        let nonce = unhex("00000005040302A0A1A2A3A4A5");
        let packet = unhex("000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F20");
        let (aad, plain) = packet.split_at(8);
        let ccm = AesCcm::new(&key, 8, 2).unwrap();
        let sealed = ccm.seal(&nonce, aad, plain).unwrap();
        let expect = unhex("51B1E5F44A197D1DA46B0F8E2D282AE871E838BB64DA8596574ADAA76FBD9FB0C5");
        assert_eq!(sealed, expect);
    }

    /// DTLS-style CCM-8 with 12-byte nonce round-trips.
    #[test]
    fn dtls_ccm8_roundtrip() {
        let key = [0x42u8; 16];
        let ccm = AesCcm::dtls_ccm8(&key);
        assert_eq!(ccm.nonce_len(), 12);
        let nonce = [7u8; 12];
        let aad = b"record header";
        let plain = b"application data of arbitrary length, hello DoC";
        let sealed = ccm.seal(&nonce, aad, plain).unwrap();
        assert_eq!(sealed.len(), plain.len() + 8);
        assert_eq!(ccm.open(&nonce, aad, &sealed).unwrap(), plain);
    }

    /// Tampering with ciphertext, tag, or AAD must fail authentication.
    #[test]
    fn tamper_detection() {
        let key = [3u8; 16];
        let ccm = AesCcm::cose_ccm_16_64_128(&key);
        let nonce = [9u8; 13];
        let sealed = ccm.seal(&nonce, b"aad", b"payload").unwrap();

        let mut bad = sealed.clone();
        bad[0] ^= 1;
        assert_eq!(ccm.open(&nonce, b"aad", &bad), Err(CryptoError::AuthFailed));

        let mut bad = sealed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert_eq!(ccm.open(&nonce, b"aad", &bad), Err(CryptoError::AuthFailed));

        assert_eq!(
            ccm.open(&nonce, b"axd", &sealed),
            Err(CryptoError::AuthFailed)
        );
    }

    /// Wrong nonce fails authentication.
    #[test]
    fn wrong_nonce_fails() {
        let key = [3u8; 16];
        let ccm = AesCcm::cose_ccm_16_64_128(&key);
        let sealed = ccm.seal(&[1u8; 13], b"", b"payload").unwrap();
        assert_eq!(
            ccm.open(&[2u8; 13], b"", &sealed),
            Err(CryptoError::AuthFailed)
        );
    }

    /// Empty plaintext is legal: output is just the tag.
    #[test]
    fn empty_plaintext() {
        let key = [3u8; 16];
        let ccm = AesCcm::cose_ccm_16_64_128(&key);
        let nonce = [0u8; 13];
        let sealed = ccm.seal(&nonce, b"aad only", b"").unwrap();
        assert_eq!(sealed.len(), 8);
        assert_eq!(ccm.open(&nonce, b"aad only", &sealed).unwrap(), b"");
    }

    /// Empty AAD path (no adata flag) round-trips.
    #[test]
    fn empty_aad() {
        let key = [5u8; 16];
        let ccm = AesCcm::dtls_ccm8(&key);
        let nonce = [1u8; 12];
        let sealed = ccm.seal(&nonce, b"", b"data").unwrap();
        assert_eq!(ccm.open(&nonce, b"", &sealed).unwrap(), b"data");
    }

    /// Invalid parameters are rejected at construction.
    #[test]
    fn invalid_params() {
        let key = [0u8; 16];
        assert!(AesCcm::new(&key, 3, 2).is_err()); // odd tag
        assert!(AesCcm::new(&key, 2, 2).is_err()); // tag too short
        assert!(AesCcm::new(&key, 8, 1).is_err()); // L too small
        assert!(AesCcm::new(&key, 8, 9).is_err()); // L too large
    }

    /// Wrong nonce length is rejected.
    #[test]
    fn wrong_nonce_len() {
        let key = [0u8; 16];
        let ccm = AesCcm::dtls_ccm8(&key);
        assert_eq!(
            ccm.seal(&[0u8; 13], b"", b"x"),
            Err(CryptoError::InvalidParameter)
        );
    }

    /// Large AAD (>= 0xFF00 bytes) exercises the extended length encoding.
    #[test]
    fn large_aad_roundtrip() {
        let key = [1u8; 16];
        let ccm = AesCcm::cose_ccm_16_64_128(&key);
        let nonce = [4u8; 13];
        let aad = vec![0xA5u8; 0x1_0000];
        let sealed = ccm.seal(&nonce, &aad, b"tiny").unwrap();
        assert_eq!(ccm.open(&nonce, &aad, &sealed).unwrap(), b"tiny");
    }
}
