//! SHA-256 (FIPS 180-4).
//!
//! Streaming implementation used by [`crate::hmac`], [`crate::hkdf`]
//! and the DTLS handshake transcript hash. The compression loop is
//! multi-block: bulk input is fed straight from the caller's slice
//! (no per-block copy), and on x86_64 with the SHA extensions the
//! whole run goes through the hardware `sha256rnds2` schedule —
//! sharing the crypto substrate's one dispatch decision (see
//! [`crate::backend::sha_ni_active`]; `DOC_CRYPTO_BACKEND=reference` or
//! `soft` forces the scalar loop). [`sha256_portable`] pins the scalar
//! path for differential tests.
//!
//! [`Sha256::finalize`] writes the whole padding — `0x80`, the zero
//! fill and the 64-bit length — into the block buffer at once and
//! compresses one block, or two when fewer than 8 bytes are left after
//! the `0x80`. A short message, such as the server's ETag input, thus
//! costs one or two compressions and no per-byte work.

/// SHA-256 output size in bytes.
pub const DIGEST_LEN: usize = 32;
/// SHA-256 block size in bytes (relevant for HMAC).
pub const BLOCK_LEN: usize = 64;

#[rustfmt::skip]
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
    /// Whether this hasher runs the SHA-NI compression (decided once at
    /// construction from the process-wide dispatch).
    accel: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher on the dispatched compression path.
    pub fn new() -> Self {
        Self::with_accel(crate::backend::sha_ni_active())
    }

    /// Create a hasher pinned to the portable scalar compression loop,
    /// regardless of hardware — the differential-test reference.
    pub fn new_portable() -> Self {
        Self::with_accel(false)
    }

    fn with_accel(accel: bool) -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
            accel,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress_blocks(&mut self.state, self.accel, &self.buf);
                self.buf_len = 0;
            }
        }
        // Bulk blocks stream straight from the caller's slice — one
        // multi-block compression call, no staging copy.
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            let (blocks, rest) = data.split_at(whole);
            compress_blocks(&mut self.state, self.accel, blocks);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish the hash and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding (FIPS 180-4 §5.1.1), written into the block buffer in
        // one go: 0x80, the zero fill, then the 64-bit big-endian bit
        // length. `buf_len` is below 64 here; when fewer than 8 bytes
        // are left after the 0x80, the length goes into one more block.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress_blocks(&mut self.state, self.accel, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, self.accel, &self.buf);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compress a whole run of 64-byte blocks into `state`, on the SHA-NI
/// path when `accel` is set. A free function so a hasher can compress
/// its own buffer in place; `accel` is always that hasher's field.
fn compress_blocks(state: &mut [u32; 8], accel: bool, blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(64));
    #[cfg(target_arch = "x86_64")]
    if accel {
        // SAFETY: every caller passes a hasher's `accel`, which is only
        // set when `sha_ni_active` reported the sha/sse4.1/ssse3
        // features present on this CPU, the target-feature contract of
        // the SHA-NI path.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = accel;
    scalar_compress_blocks(state, blocks);
}

/// The portable FIPS 180-4 §6.2 compression loop over a run of blocks.
fn scalar_compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, c) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// Hardware compression via the x86_64 SHA extensions: two
/// `sha256rnds2` per four rounds on the ABEF/CDGH register split, with
/// the message schedule advanced by `sha256msg1`/`sha256msg2`.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use core::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Compress a run of 64-byte blocks into `state`. Safe to declare,
    /// unsafe to reach: the one call site dispatches in only after
    /// `sha_ni_active` confirmed the features below at runtime.
    #[target_feature(enable = "sha,sse4.1,ssse3,sse2")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Big-endian 32-bit loads: byteswap each word lane.
        let mask = _mm_set_epi64x(0x0c0d0e0f_08090a0bu64 as i64, 0x04050607_00010203u64 as i64);

        // Pack {a..h} into the ABEF / CDGH register split the sha256
        // round instruction expects.
        // SAFETY: `state` is 8 readable u32s; unaligned loads.
        let (tmp, st1) = unsafe {
            (
                _mm_loadu_si128(state.as_ptr().cast()),
                _mm_loadu_si128(state.as_ptr().add(4).cast()),
            )
        };
        let tmp = _mm_shuffle_epi32(tmp, 0xB1); // CDAB
        let st1 = _mm_shuffle_epi32(st1, 0x1B); // EFGH
        let mut state0 = _mm_alignr_epi8(tmp, st1, 8); // ABEF
        let mut state1 = _mm_blend_epi16(st1, tmp, 0xF0); // CDGH

        for block in blocks.chunks_exact(64) {
            let save0 = state0;
            let save1 = state1;

            // SAFETY: `block` is exactly 64 readable bytes; unaligned
            // loads of its four 16-byte quarters.
            let mut m = unsafe {
                [
                    _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast()), mask),
                    _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16).cast()), mask),
                    _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(32).cast()), mask),
                    _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(48).cast()), mask),
                ]
            };

            for j in 0..16 {
                // SAFETY: `K` holds 64 u32s and `4*j <= 60`, so the
                // 16-byte unaligned load stays in bounds.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * j).cast()) };
                let msg = _mm_add_epi32(m[j % 4], k);
                state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
                let msg_hi = _mm_shuffle_epi32(msg, 0x0E);
                state0 = _mm_sha256rnds2_epu32(state0, state1, msg_hi);
                if j < 12 {
                    // Advance the message schedule: W[t] from W[t-16],
                    // W[t-15], W[t-7], W[t-2] via msg1 + alignr + msg2.
                    let w47 = _mm_alignr_epi8(m[(j + 3) % 4], m[(j + 2) % 4], 4);
                    let part = _mm_add_epi32(_mm_sha256msg1_epu32(m[j % 4], m[(j + 1) % 4]), w47);
                    m[j % 4] = _mm_sha256msg2_epu32(part, m[(j + 3) % 4]);
                }
            }

            state0 = _mm_add_epi32(state0, save0);
            state1 = _mm_add_epi32(state1, save1);
        }

        // Unpack ABEF/CDGH back to {a..h}.
        let tmp = _mm_shuffle_epi32(state0, 0x1B); // FEBA
        let st1 = _mm_shuffle_epi32(state1, 0xB1); // DCHG
        let out0 = _mm_blend_epi16(tmp, st1, 0xF0); // DCBA
        let out1 = _mm_alignr_epi8(st1, tmp, 8); // ABEF -> HGFE
                                                 // SAFETY: `state` is 8 writable u32s; unaligned stores.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), out0);
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), out1);
        }
    }
}

/// Hash `data` in one shot on the dispatched compression path.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hash `data` in one shot on the portable scalar loop — the reference
/// the hardware path is differentially pinned to.
pub fn sha256_portable(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new_portable();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-4 "abc" vector, on the dispatched and portable paths.
    #[test]
    fn nist_abc() {
        let expect = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
        assert_eq!(hex(&sha256(b"abc")), expect);
        assert_eq!(hex(&sha256_portable(b"abc")), expect);
    }

    /// Empty-message vector.
    #[test]
    fn empty() {
        let expect = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
        assert_eq!(hex(&sha256(b"")), expect);
        assert_eq!(hex(&sha256_portable(b"")), expect);
    }

    /// Two-block message vector ("abcdbcde...").
    #[test]
    fn nist_two_blocks() {
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        let expect = "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
        assert_eq!(hex(&sha256(msg)), expect);
        assert_eq!(hex(&sha256_portable(msg)), expect);
    }

    /// Padding known answers: the bytes `(37 * i + 11) mod 256` at every
    /// length where the padding changes shape (the length fits the
    /// first block or spills into a second one), digests from coreutils
    /// `sha256sum`, on both compression paths and fed in one update and
    /// byte by byte.
    #[test]
    fn padding_known_answers() {
        let expect = [
            (
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                1,
                "e7cf46a078fed4fafd0b5e3aff144802b853f8ae459a4f0c14add3314b7cc3a6",
            ),
            (
                55,
                "2900465fcb533e05a158fd2b3be0e5e3b03740d83060aa3580e0d98a96bf2384",
            ),
            (
                56,
                "31454ff48ef36af2f08fd511bdc37d9d5855ac23e992e5ff5445cb6b7674a674",
            ),
            (
                57,
                "bcc0a5d3791b985b7550e04ca660a6c63a589ba1edd2283c8e110e5b515df124",
            ),
            (
                63,
                "5f6401b96532c36de4e65beec0409b69b1d181864c8009b7a04f43e5d56350d1",
            ),
            (
                64,
                "94eb5de4943613fd048dc93393ab06877405faa39c11f53e9386083339833e7e",
            ),
            (
                65,
                "fc518669b6eb4b4dd91827ecacef86689c725bd5bab888fd3b26dbb196eec954",
            ),
            (
                119,
                "b0dc41b1a384e2f1203f0351b38fbeaafceef577ce1191d5bfc25da39f721eae",
            ),
            (
                120,
                "5df24dd802ac26132ce608dcb5f09841eef039ee0f152acf98d26d17fe4e88e6",
            ),
            (
                128,
                "0aedd4856f8eba0963627336ad5144a9a7dbe12498e6066f0165fc97d8ddee4c",
            ),
        ];
        let data: Vec<u8> = (0..128u32).map(|i| (i * 37 + 11) as u8).collect();
        for (len, digest) in expect {
            let msg = &data[..len];
            assert_eq!(hex(&sha256(msg)), digest, "len {len}");
            assert_eq!(hex(&sha256_portable(msg)), digest, "len {len} portable");
            let mut h = Sha256::new();
            for b in msg {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(hex(&h.finalize()), digest, "len {len} bytewise");
        }
    }

    /// The dispatched path (SHA-NI where available) must agree with the
    /// portable loop on every length crossing the block boundaries.
    #[test]
    fn dispatched_matches_portable() {
        let data: Vec<u8> = (0..512u32)
            .map(|i| (i.wrapping_mul(37) >> 3) as u8)
            .collect();
        for len in [0, 1, 55, 56, 63, 64, 65, 127, 128, 129, 256, 512] {
            assert_eq!(
                sha256(&data[..len]),
                sha256_portable(&data[..len]),
                "len {len}"
            );
        }
    }

    /// Streaming in odd-sized chunks must equal one-shot hashing.
    #[test]
    fn streaming_equivalence() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256(&data);
        let mut h = Sha256::new();
        for chunk in data.chunks(17) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), oneshot);
    }

    /// A message exactly one block long exercises the two-block padding
    /// path.
    #[test]
    fn exactly_64_bytes() {
        let data = [0xabu8; 64];
        let mut h = Sha256::new();
        h.update(&data);
        let d1 = h.finalize();
        let mut h2 = Sha256::new();
        h2.update(&data[..32]);
        h2.update(&data[32..]);
        assert_eq!(h2.finalize(), d1);
    }

    /// One-million-'a' vector (FIPS 180-4), on both paths.
    #[test]
    fn million_a() {
        let expect = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        for portable in [false, true] {
            let mut h = if portable {
                Sha256::new_portable()
            } else {
                Sha256::new()
            };
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(hex(&h.finalize()), expect, "portable={portable}");
        }
    }
}
