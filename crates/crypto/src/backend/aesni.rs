//! Hardware AES via the x86_64 AES-NI instructions.
//!
//! One `aesenc` per round per block. The kernel runs a fixed eight-wide
//! body: eight independent states, each round issued across all eight
//! back to back, so the pipelined AES unit overlaps the rounds of
//! neighbouring blocks instead of waiting out one block's latency. The
//! width is a compile-time constant, so the states live in registers
//! for the whole chunk; a batch's remainder (fewer than eight blocks)
//! runs through the same body at widths four, two and one. This is
//! where batched CCM gets its throughput: a batch's counter blocks and
//! the lockstep CBC-MAC states of all its packets ride these chunks.
//!
//! The round keys are expanded once by the portable schedule in
//! [`crate::aes`] and loaded with unaligned moves here; no
//! `aeskeygenassist` is needed. All functions carry
//! `#[target_feature(enable = "aes")]` and are **safe to declare but
//! unsafe to reach**: the single dispatch site in `crate::aes` only
//! calls in after `is_x86_feature_detected!("aes")` has confirmed
//! support (cached in [`super::Backend::active`]).

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_setzero_si128,
    _mm_storeu_si128, _mm_xor_si128,
};

/// Blocks kept in flight per chunk.
pub(crate) const PIPELINE: usize = 8;

/// Encrypt `blocks` in place with the expanded schedule `round_keys`.
#[target_feature(enable = "aes")]
pub(crate) fn encrypt_blocks(round_keys: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
    let mut rk = [_mm_setzero_si128(); 11];
    for (r, key) in rk.iter_mut().zip(round_keys.iter()) {
        // SAFETY: `key` points at 16 readable bytes and `loadu` has no
        // alignment requirement.
        *r = unsafe { _mm_loadu_si128(key.as_ptr().cast()) };
    }
    let mut chunks = blocks.chunks_exact_mut(PIPELINE);
    for chunk in &mut chunks {
        if let Ok(lanes) = <&mut [[u8; 16]; PIPELINE]>::try_from(chunk) {
            encrypt_lanes(&rk, lanes);
        }
    }
    // The remainder is under eight blocks: peel four, two and one by
    // its length bits.
    let tail = chunks.into_remainder();
    let (four, tail) = tail.split_at_mut(tail.len() & 4);
    if let Ok(four) = <&mut [[u8; 16]; 4]>::try_from(four) {
        encrypt_lanes(&rk, four);
    }
    let (two, one) = tail.split_at_mut(tail.len() & 2);
    if let Ok(two) = <&mut [[u8; 16]; 2]>::try_from(two) {
        encrypt_lanes(&rk, two);
    }
    if let Ok(one) = <&mut [[u8; 16]; 1]>::try_from(one) {
        encrypt_lanes(&rk, one);
    }
}

/// Encrypt exactly `N` blocks with every round issued across all `N`
/// states back to back. `N` is a constant, so the loops unroll and the
/// states stay in registers.
#[inline]
#[target_feature(enable = "aes")]
fn encrypt_lanes<const N: usize>(rk: &[__m128i; 11], blocks: &mut [[u8; 16]; N]) {
    let mut s = [_mm_setzero_si128(); N];
    for (si, block) in s.iter_mut().zip(blocks.iter()) {
        // SAFETY: each block is 16 readable bytes; unaligned load.
        *si = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
    }
    for si in s.iter_mut() {
        *si = _mm_xor_si128(*si, rk[0]);
    }
    for r in &rk[1..10] {
        // Independent chains: the CPU overlaps these aesenc ops.
        for si in s.iter_mut() {
            *si = _mm_aesenc_si128(*si, *r);
        }
    }
    for (block, si) in blocks.iter_mut().zip(s.iter()) {
        let out = _mm_aesenclast_si128(*si, rk[10]);
        // SAFETY: each block is 16 writable bytes; unaligned store.
        unsafe { _mm_storeu_si128(block.as_mut_ptr().cast::<__m128i>(), out) };
    }
}
