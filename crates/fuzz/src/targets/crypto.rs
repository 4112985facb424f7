//! Crypto substrate: every AES backend against the scalar reference,
//! batched sealing and opening against per-packet, both SHA-256
//! compression loops, and a full OSCORE protect/unprotect round trip.
//!
//! Unlike the parser families, the input is not a wire message — it is
//! an entropy pool the target derives keys, nonces, AAD and plaintext
//! from. Each implementation pair must then agree *byte-exactly*:
//! the bitsliced and AES-NI backends must seal identically to the
//! scalar reference ([`Backend::Reference`]); `seal_suffix_batch_with`
//! and `open_suffix_batch_with` must match per-packet
//! `seal_suffix_in_place` and `open_suffix_in_place`, on one
//! [`CcmScratch`] reused through a clean seal, a clean open, a forged
//! open and a clean open after that failure; a tampered ciphertext must
//! fail on every backend — alone or inside a batch — and leave every
//! buffer restored; and the SHA-NI and portable SHA-256 schedules must
//! hash identically.
//! Any disagreement is a divergence the engine shrinks, so every CI
//! run cross-checks the vector paths against the reference on mutated
//! inputs — not just on the fixed known-answer vectors.

use doc_crypto::backend::Backend;
use doc_crypto::ccm::{AesCcm, CcmScratch, OpenRequest, SealRequest};
use doc_crypto::sha256::{sha256, sha256_portable};
use doc_crypto::CryptoError;
use doc_oscore::context::SecurityContext;
use doc_oscore::protect::OscoreEndpoint;

use crate::target::{DifferentialTarget, Outcome};

/// Cap on the derived plaintext so mutated giants stay cheap (well
/// under CCM's `L = 2` length limit either way).
const MAX_PLAINTEXT: usize = 256;

pub struct CryptoTarget;

impl DifferentialTarget for CryptoTarget {
    fn name(&self) -> &'static str {
        "crypto"
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        // Entropy pools, not wire messages: the shortest accepted
        // input, a block-aligned pattern, a typical-DNS-sized pool and
        // a long one that exercises the batching split.
        vec![
            vec![0x00, 0x01, 0x02, 0x03],
            (0..16u8).collect(),
            (0..64u8).map(|i| i.wrapping_mul(37)).collect(),
            (0..200u8).map(|i| i ^ 0x5A).collect(),
        ]
    }

    fn check(&self, input: &[u8]) -> Result<Outcome, String> {
        if input.len() < 4 {
            return Ok(Outcome::Rejected);
        }
        let mut key = [0u8; 16];
        for (i, k) in key.iter_mut().enumerate() {
            *k = input[i % input.len()] ^ (i as u8).wrapping_mul(0x9E);
        }
        let mut nonce = [0u8; 13];
        for (i, n) in nonce.iter_mut().enumerate() {
            *n = input[input.len() - 1 - (i % input.len())] ^ (i as u8);
        }
        let aad = &input[..input.len().min(16)];
        let plaintext = &input[..input.len().min(MAX_PLAINTEXT)];

        // Every backend must seal byte-identically to the scalar
        // reference, and open what the reference sealed.
        let reference = AesCcm::with_backend(&key, 8, 2, Backend::Reference)
            .map_err(|e| format!("reference AesCcm construction failed: {e:?}"))?;
        let golden = reference
            .seal(&nonce, aad, plaintext)
            .map_err(|e| format!("reference seal failed: {e:?}"))?;
        // One scratch for every batch below, on every backend.
        let mut scratch = CcmScratch::default();
        for backend in Backend::available() {
            let ccm = AesCcm::with_backend(&key, 8, 2, backend)
                .map_err(|e| format!("{}: AesCcm construction failed: {e:?}", backend.label()))?;
            let sealed = ccm
                .seal(&nonce, aad, plaintext)
                .map_err(|e| format!("{}: seal failed: {e:?}", backend.label()))?;
            if sealed != golden {
                return Err(format!(
                    "{} seal diverges from the reference backend",
                    backend.label()
                ));
            }
            // The round trip holds.
            let opened = ccm.open(&nonce, aad, &golden).map_err(|e| {
                format!("{}: open of reference seal failed: {e:?}", backend.label())
            })?;
            if opened != plaintext {
                return Err(format!("{}: open round trip corrupted", backend.label()));
            }
            // A tampered ciphertext must fail and restore the buffer.
            let mut tampered = golden.clone();
            let flip = input[1] as usize % tampered.len();
            tampered[flip] ^= 0x80;
            let before = tampered.clone();
            if ccm
                .open_suffix_in_place(&nonce, aad, &mut tampered, 0)
                .is_ok()
            {
                return Err(format!(
                    "{}: tampered ciphertext authenticated",
                    backend.label()
                ));
            }
            if tampered != before {
                return Err(format!(
                    "{}: failed open did not restore the buffer",
                    backend.label()
                ));
            }

            // Batched sealing must match per-packet sealing: split the
            // plaintext into chunks (some possibly empty) and compare.
            let pieces = 2 + (input[2] as usize % 3);
            let chunk = plaintext.len() / pieces + 1;
            let chunks: Vec<&[u8]> = plaintext.chunks(chunk).collect();
            let mut nonces = Vec::with_capacity(chunks.len());
            for (i, _) in chunks.iter().enumerate() {
                let mut n = nonce;
                n[0] = n[0].wrapping_add(i as u8 + 1);
                nonces.push(n);
            }
            let expect: Vec<Vec<u8>> = chunks
                .iter()
                .zip(nonces.iter())
                .map(|(c, n)| {
                    let mut buf = c.to_vec();
                    ccm.seal_suffix_in_place(n, aad, &mut buf, 0)
                        .map(|()| buf)
                        .map_err(|e| format!("{}: chunk seal failed: {e:?}", backend.label()))
                })
                .collect::<Result<_, _>>()?;
            let mut bufs: Vec<Vec<u8>> = chunks.iter().map(|c| c.to_vec()).collect();
            let mut reqs: Vec<SealRequest<'_>> = bufs
                .iter_mut()
                .zip(nonces.iter())
                .map(|(buf, n)| SealRequest {
                    nonce: n,
                    aad,
                    buf,
                    start: 0,
                })
                .collect();
            ccm.seal_suffix_batch_with(&mut reqs, &mut scratch)
                .map_err(|e| {
                    format!("{}: seal_suffix_batch_with failed: {e:?}", backend.label())
                })?;
            if bufs != expect {
                return Err(format!(
                    "{}: seal_suffix_batch_with diverges from sequential sealing",
                    backend.label()
                ));
            }

            // Batched opening of the same mixed-length packets must
            // match per-packet opening.
            let one_by_one: Vec<Vec<u8>> = expect
                .iter()
                .zip(nonces.iter())
                .map(|(sealed, n)| {
                    let mut buf = sealed.clone();
                    ccm.open_suffix_in_place(n, aad, &mut buf, 0)
                        .map(|()| buf)
                        .map_err(|e| format!("{}: chunk open failed: {e:?}", backend.label()))
                })
                .collect::<Result<_, _>>()?;
            let mut open_batch = |bufs: &mut [Vec<u8>]| {
                let mut reqs: Vec<OpenRequest<'_>> = bufs
                    .iter_mut()
                    .zip(nonces.iter())
                    .map(|(buf, n)| OpenRequest {
                        nonce: n,
                        aad,
                        buf,
                        start: 0,
                    })
                    .collect();
                ccm.open_suffix_batch_with(&mut reqs, &mut scratch)
            };
            open_batch(&mut bufs).map_err(|e| {
                format!("{}: open_suffix_batch_with failed: {e:?}", backend.label())
            })?;
            if bufs != one_by_one || bufs != chunks {
                return Err(format!(
                    "{}: open_suffix_batch_with diverges from sequential opening",
                    backend.label()
                ));
            }

            // One tampered packet fails the whole batch and leaves every
            // buffer exactly as it was.
            let mut forged = expect.clone();
            let victim = input[3] as usize % forged.len();
            let at = input[0] as usize % forged[victim].len();
            forged[victim][at] ^= 1 << (input[2] % 8);
            let before = forged.clone();
            match open_batch(&mut forged) {
                Err(CryptoError::AuthFailed) => {}
                other => {
                    return Err(format!(
                        "{}: batch with a tampered packet gave {other:?}",
                        backend.label()
                    ))
                }
            }
            if forged != before {
                return Err(format!(
                    "{}: failed batch open did not restore every buffer",
                    backend.label()
                ));
            }

            // The scratch that just failed opens the clean batch again
            // exactly as the per-packet path does.
            let mut again = expect.clone();
            open_batch(&mut again).map_err(|e| {
                format!(
                    "{}: open after a failed batch rejected: {e:?}",
                    backend.label()
                )
            })?;
            if again != one_by_one {
                return Err(format!(
                    "{}: open after a failed batch diverges from sequential opening",
                    backend.label()
                ));
            }
        }

        // Both SHA-256 schedules over the raw input.
        if sha256(input) != sha256_portable(input) {
            return Err("sha256 dispatched/portable digests diverge".into());
        }

        // OSCORE protect/unprotect round trip over the derived pool:
        // client protects a FETCH carrying the plaintext, the server
        // must recover it bit-exactly through the in-place open path.
        let client_ctx = SecurityContext::derive(&key, aad, &[0x01], &[0x02]);
        let server_ctx = SecurityContext::derive(&key, aad, &[0x02], &[0x01]);
        let mut client = OscoreEndpoint::new(client_ctx, false);
        let mut server = OscoreEndpoint::new(server_ctx, false);
        let msg = doc_coap::CoapMessage::request(
            doc_coap::Code::FETCH,
            doc_coap::MsgType::Con,
            u16::from(input[0]) << 8 | u16::from(input[1]),
            vec![input[2]],
        )
        .with_payload(plaintext.to_vec());
        let (outer, binding) = client
            .protect_request(&msg)
            .map_err(|e| format!("oscore protect_request failed: {e:?}"))?;
        let (inner, unbinding) = server
            .unprotect_request(&outer)
            .map_err(|e| format!("oscore unprotect of own protect failed: {e:?}"))?;
        if inner.payload != plaintext {
            return Err("oscore round trip corrupted the payload".into());
        }
        if binding.kid != unbinding.kid || binding.piv != unbinding.piv {
            return Err("oscore request bindings disagree across the round trip".into());
        }
        Ok(Outcome::Accepted)
    }
}
