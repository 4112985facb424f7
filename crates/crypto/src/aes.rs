//! AES-128 block cipher (FIPS-197) with runtime-dispatched backends.
//!
//! Only the encryption direction is implemented: every mode used in this
//! workspace (CCM = CTR + CBC-MAC) requires only the forward cipher.
//! Three implementations share the one portable key schedule:
//!
//! * the **reference** path below — a straightforward table-free
//!   byte-oriented cipher (`SubBytes` via a precomputed S-box,
//!   `MixColumns` via xtime), kept as the auditable ground truth;
//! * the **bitsliced** constant-time path in [`crate::backend::soft`],
//!   four blocks per pass;
//! * the **AES-NI** path in `crate::backend::aesni`, eight blocks in
//!   flight through hardware `aesenc`.
//!
//! [`Aes128::new`] picks the backend once per process (see
//! [`Backend::active`]); [`Aes128::with_backend`] pins one explicitly
//! for differential tests and benchmarks. [`Aes128::encrypt_blocks`]
//! is the multi-block entry point the batched CCM paths feed.

use crate::backend::{soft, Backend};

/// The AES S-box (FIPS-197 Figure 7).
#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply a GF(2^8) element by x (i.e. {02}).
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// An expanded AES-128 key schedule ready for block encryption.
#[derive(Clone)]
pub struct Aes128 {
    /// 11 round keys of 16 bytes each.
    round_keys: [[u8; 16]; 11],
    /// The bitsliced schedule for the `Soft` backend (zero otherwise).
    sliced_keys: soft::SlicedKeys,
    /// Which implementation executes this instance's blocks.
    backend: Backend,
}

impl Aes128 {
    /// Expand a 16-byte key for the process-wide active backend.
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_backend(key, Backend::active())
    }

    /// Expand a 16-byte key, pinning a specific backend — used by the
    /// known-answer tests and benchmarks that must exercise every
    /// implementation regardless of what the machine would pick.
    pub fn with_backend(key: &[u8; 16], backend: Backend) -> Self {
        let round_keys = expand_key(key);
        let sliced_keys = if backend == Backend::Soft {
            soft::slice_round_keys(&round_keys)
        } else {
            [[0u64; 8]; 11]
        };
        Aes128 {
            round_keys,
            sliced_keys,
            backend,
        }
    }

    /// The backend this instance dispatches to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        match self.backend {
            Backend::Reference => scalar_encrypt_block(&self.round_keys, block),
            _ => self.encrypt_blocks(core::slice::from_mut(block)),
        }
    }

    /// Encrypt many 16-byte blocks in place — the batch entry point.
    /// AES-NI keeps eight blocks in flight, the bitsliced fallback
    /// packs four per pass, the reference path loops one at a time.
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        match self.backend {
            Backend::Reference => {
                for block in blocks.iter_mut() {
                    scalar_encrypt_block(&self.round_keys, block);
                }
            }
            Backend::Soft => soft::encrypt_blocks(&self.sliced_keys, blocks),
            Backend::AesNi => {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `Backend::AesNi` is only selected by
                // `Backend::active`/`Backend::available` after
                // `is_x86_feature_detected!("aes")` confirmed the CPU
                // executes the AES-NI instruction set.
                unsafe {
                    crate::backend::aesni::encrypt_blocks(&self.round_keys, blocks)
                }
                #[cfg(not(target_arch = "x86_64"))]
                unreachable!("AesNi backend cannot be constructed off x86_64")
            }
        }
    }

    /// Encrypt a copy of `block` and return the ciphertext block.
    // lint:allow(pub-needs-caller): single-block oracle the backend and batch tests compare against
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

/// Expand a 16-byte key into the 11-round-key schedule (FIPS-197 §5.2).
fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
    let mut w = [[0u8; 4]; 44];
    for (i, chunk) in key.chunks_exact(4).enumerate() {
        w[i].copy_from_slice(chunk);
    }
    for i in 4..44 {
        let mut temp = w[i - 1];
        if i % 4 == 0 {
            // RotWord + SubWord + Rcon
            temp.rotate_left(1);
            for t in temp.iter_mut() {
                *t = SBOX[*t as usize];
            }
            temp[0] ^= RCON[i / 4 - 1];
        }
        for j in 0..4 {
            w[i][j] = w[i - 4][j] ^ temp[j];
        }
    }
    let mut round_keys = [[0u8; 16]; 11];
    for (r, rk) in round_keys.iter_mut().enumerate() {
        for c in 0..4 {
            rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
        }
    }
    round_keys
}

/// The scalar reference round function — ground truth for every other
/// backend's differential tests.
fn scalar_encrypt_block(round_keys: &[[u8; 16]; 11], block: &mut [u8; 16]) {
    add_round_key(block, &round_keys[0]);
    for rk in &round_keys[1..10] {
        scalar_sub_bytes(block);
        scalar_shift_rows(block);
        scalar_mix_columns(block);
        add_round_key(block, rk);
    }
    scalar_sub_bytes(block);
    scalar_shift_rows(block);
    add_round_key(block, &round_keys[10]);
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

#[inline]
pub(crate) fn scalar_sub_bytes(state: &mut [u8; 16]) {
    for s in state.iter_mut() {
        *s = SBOX[*s as usize];
    }
}

/// State layout is column-major: byte `state[c*4 + r]` is row `r`,
/// column `c` (as in FIPS-197 when blocks are loaded column-wise).
#[inline]
pub(crate) fn scalar_shift_rows(state: &mut [u8; 16]) {
    // Row 1: rotate left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: rotate left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: rotate left by 3 (== right by 1).
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

#[inline]
pub(crate) fn scalar_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let i = c * 4;
        let (a0, a1, a2, a3) = (state[i], state[i + 1], state[i + 2], state[i + 3]);
        let x = a0 ^ a1 ^ a2 ^ a3;
        state[i] ^= x ^ xtime(a0 ^ a1);
        state[i + 1] ^= x ^ xtime(a1 ^ a2);
        state[i + 2] ^= x ^ xtime(a2 ^ a3);
        state[i + 3] ^= x ^ xtime(a3 ^ a0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix C.1 example vector — on every backend the
    /// machine can run.
    #[test]
    fn fips197_c1_all_backends() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let plain: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expect: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        for backend in Backend::available() {
            let aes = Aes128::with_backend(&key, backend);
            assert_eq!(aes.encrypt(&plain), expect, "{}", backend.label());
        }
    }

    /// FIPS-197 Appendix B example vector.
    #[test]
    fn fips197_appendix_b() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plain: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect: [u8; 16] = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        for backend in Backend::available() {
            let aes = Aes128::with_backend(&key, backend);
            assert_eq!(aes.encrypt(&plain), expect, "{}", backend.label());
        }
    }

    /// Multi-block encryption is byte-exact with the scalar reference
    /// for every batch size that crosses the backends' group widths.
    #[test]
    fn encrypt_blocks_matches_reference_at_all_widths() {
        let key = [0x5Au8; 16];
        let reference = Aes128::with_backend(&key, Backend::Reference);
        for backend in Backend::available() {
            let aes = Aes128::with_backend(&key, backend);
            for n in 0..=19 {
                let mut blocks: Vec<[u8; 16]> = (0..n)
                    .map(|i| core::array::from_fn(|j| (i * 16 + j) as u8 ^ 0xC3))
                    .collect();
                let mut expect = blocks.clone();
                for b in expect.iter_mut() {
                    *b = reference.encrypt(b);
                }
                aes.encrypt_blocks(&mut blocks);
                assert_eq!(blocks, expect, "{} n={n}", backend.label());
            }
        }
    }

    /// Encryption must be deterministic and not modify its input when
    /// using the copying API.
    #[test]
    fn encrypt_is_pure() {
        let key = [7u8; 16];
        let block = [42u8; 16];
        let aes = Aes128::new(&key);
        let c1 = aes.encrypt(&block);
        let c2 = aes.encrypt(&block);
        assert_eq!(c1, c2);
        assert_ne!(c1, block);
    }

    /// Different keys must produce different ciphertexts for the same
    /// plaintext (sanity, not a security proof).
    #[test]
    fn key_separation() {
        let block = [0u8; 16];
        let c1 = Aes128::new(&[1u8; 16]).encrypt(&block);
        let c2 = Aes128::new(&[2u8; 16]).encrypt(&block);
        assert_ne!(c1, c2);
    }
}
