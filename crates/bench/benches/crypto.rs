//! Crypto-substrate micro-benchmarks: every AES backend (scalar
//! reference / bitsliced soft / AES-NI), batched vs. unbatched CCM
//! sealing and opening, and both SHA-256 compression loops.
//!
//! Emits `BENCH_crypto.json` (schema `doc-bench/crypto/v1`) at the
//! workspace root (override the path with `BENCH_CRYPTO_JSON`): one row
//! per (operation, backend, batch size), with `ns_per_op` normalized
//! **per packet** on the CCM rows so batch-1 and batch-8 rows compare
//! directly. `bench_gate --crypto` validates the artifact and enforces
//! the vectorization claims on full measurement windows:
//!
//! * AES-NI seal ≥ 2× the scalar reference at batch 1 (when the
//!   machine has AES-NI);
//! * batch-8 sealing and opening each ≥ 1.3× batch-1 on the
//!   multi-block backends (AES-NI and soft) — the scalar reference
//!   encrypts one block at a time either way, gains nothing from
//!   batching, and is exempt.
//!
//! The same bounds are asserted in-process on full windows so
//! `cargo bench -p doc-bench --bench crypto` fails loudly without the
//! gate; smoke runs (`BENCH_MEASURE_MS` < 100) print the observed
//! ratios instead. The batch-1 rows drive `seal_suffix_in_place` and
//! `open_in_place` (the single-packet DTLS/OSCORE paths); larger
//! batches drive `seal_suffix_batch` and `open_suffix_batch` (what the
//! proxy pool's drain amortizes). Every open row copies its sealed
//! packets in first, like a receive path refilling its buffers.

use std::time::{Duration, Instant};

use doc_bench::alloc_counter::CountingAllocator;
use doc_crypto::aes::Aes128;
use doc_crypto::backend::{sha_ni_active, sha_ni_detected, Backend};
use doc_crypto::ccm::{AesCcm, OpenRequest, SealRequest};
use doc_crypto::sha256::{sha256, sha256_portable};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

struct Row {
    name: &'static str,
    backend: &'static str,
    batch: usize,
    /// Per-operation time: per packet for CCM rows (regardless of
    /// batch size), per block for AES rows, per hash for SHA rows.
    ns_per_op: f64,
    bytes_per_op: usize,
}

fn env_ms(var: &str, default_ms: u64) -> Duration {
    Duration::from_millis(
        std::env::var(var)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_ms),
    )
}

/// Warm up, size an iteration count from the observed rate, then time.
/// `ops_per_iter` divides the per-iteration time so multi-packet
/// routines report per-packet numbers.
fn run(
    name: &'static str,
    backend: &'static str,
    batch: usize,
    bytes_per_op: usize,
    ops_per_iter: usize,
    mut routine: impl FnMut(),
) -> Row {
    let warmup = env_ms("BENCH_WARMUP_MS", 50);
    let measure = env_ms("BENCH_MEASURE_MS", 200);
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    while warm_start.elapsed() < warmup {
        routine();
        warm_iters += 1;
    }
    let per_iter = warm_start.elapsed().as_nanos().max(1) / u128::from(warm_iters.max(1));
    let iters = (measure.as_nanos() / per_iter.max(1)).clamp(1, u128::from(u64::MAX)) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        routine();
    }
    let elapsed = start.elapsed();
    Row {
        name,
        backend,
        batch,
        ns_per_op: elapsed.as_nanos() as f64 / (iters as f64 * ops_per_iter as f64),
        bytes_per_op,
    }
}

fn emit_json(rows: &[Row], measure_ms: u64, active: &str, path: &str) -> std::io::Result<()> {
    let mut json = format!(
        "{{\n  \"schema\": \"doc-bench/crypto/v1\",\n  \"machine\": {{\"aes_ni\": {}, \"sha_ni\": {}}},\n  \"active_backend\": \"{}\",\n  \"measure_ms\": {},\n  \"rows\": [\n",
        Backend::available().contains(&Backend::AesNi),
        sha_ni_detected(),
        active,
        measure_ms,
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"backend\": \"{}\", \"batch\": {}, \"ns_per_op\": {:.1}, \"bytes_per_op\": {}}}{}\n",
            r.name,
            r.backend,
            r.batch,
            r.ns_per_op,
            r.bytes_per_op,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, json)
}

/// Representative DoC payload size: a ~64-byte DNS response wire.
const PAYLOAD_LEN: usize = 64;
/// CCM batch sizes every backend is swept over.
const BATCHES: [usize; 3] = [1, 4, 8];

fn main() {
    let key = [0x42u8; 16];
    let payload: Vec<u8> = (0..PAYLOAD_LEN as u8).collect();
    let mut rows: Vec<Row> = Vec::new();

    for backend in Backend::available() {
        let label = backend.label();
        let ccm = AesCcm::with_backend(&key, 8, 2, backend).expect("static parameters are valid");

        // Raw block throughput: 8 blocks per pass, reported per block.
        let aes = Aes128::with_backend(&key, backend);
        let mut blocks = [[0u8; 16]; 8];
        rows.push(run("aes128/encrypt_block", label, 8, 16, 8, || {
            aes.encrypt_blocks(std::hint::black_box(&mut blocks));
        }));

        for batch in BATCHES {
            let mut bufs: Vec<Vec<u8>> = vec![Vec::with_capacity(PAYLOAD_LEN + 16); batch];
            let nonces: Vec<[u8; 13]> = (0..batch).map(|i| [(i * 29) as u8; 13]).collect();
            rows.push(run("ccm/seal", label, batch, PAYLOAD_LEN, batch, || {
                if batch == 1 {
                    let buf = &mut bufs[0];
                    buf.clear();
                    buf.extend_from_slice(&payload);
                    ccm.seal_suffix_in_place(&nonces[0], b"aad", buf, 0)
                        .expect("parameters are valid");
                } else {
                    let mut reqs: Vec<SealRequest<'_>> = bufs
                        .iter_mut()
                        .zip(nonces.iter())
                        .map(|(buf, nonce)| {
                            buf.clear();
                            buf.extend_from_slice(&payload);
                            SealRequest {
                                nonce,
                                aad: b"aad",
                                buf,
                                start: 0,
                            }
                        })
                        .collect();
                    ccm.seal_suffix_batch(&mut reqs)
                        .expect("parameters are valid");
                }
                std::hint::black_box(&mut bufs);
            }));
        }

        for batch in BATCHES {
            let nonces: Vec<[u8; 13]> = (0..batch).map(|i| [(i * 29) as u8; 13]).collect();
            let sealed: Vec<Vec<u8>> = nonces
                .iter()
                .map(|nonce| {
                    ccm.seal(nonce, b"aad", &payload)
                        .expect("parameters are valid")
                })
                .collect();
            let mut bufs: Vec<Vec<u8>> = vec![Vec::with_capacity(PAYLOAD_LEN + 16); batch];
            rows.push(run("ccm/open", label, batch, PAYLOAD_LEN, batch, || {
                if batch == 1 {
                    let buf = &mut bufs[0];
                    buf.clear();
                    buf.extend_from_slice(std::hint::black_box(&sealed[0]));
                    ccm.open_in_place(&nonces[0], b"aad", buf)
                        .expect("sealed bytes authenticate");
                } else {
                    let mut reqs: Vec<OpenRequest<'_>> = bufs
                        .iter_mut()
                        .zip(sealed.iter().zip(nonces.iter()))
                        .map(|(buf, (packet, nonce))| {
                            buf.clear();
                            buf.extend_from_slice(std::hint::black_box(packet));
                            OpenRequest {
                                nonce,
                                aad: b"aad",
                                buf,
                                start: 0,
                            }
                        })
                        .collect();
                    ccm.open_suffix_batch(&mut reqs)
                        .expect("sealed bytes authenticate");
                }
                std::hint::black_box(&mut bufs);
            }));
        }
    }

    // SHA-256: the portable schedule and the dispatched path (SHA-NI
    // when the machine has it — otherwise both rows measure scalar).
    let msg = vec![0xA5u8; 1024];
    rows.push(run("sha256/hash_1k", "scalar", 1, msg.len(), 1, || {
        std::hint::black_box(sha256_portable(std::hint::black_box(&msg)));
    }));
    let sha_label = if sha_ni_active() { "shani" } else { "scalar" };
    rows.push(run("sha256/hash_1k", sha_label, 1, msg.len(), 1, || {
        std::hint::black_box(sha256(std::hint::black_box(&msg)));
    }));

    println!(
        "{:<22} {:>10} {:>6} {:>12} {:>8}",
        "benchmark", "backend", "batch", "ns/op", "bytes"
    );
    for r in &rows {
        println!(
            "{:<22} {:>10} {:>6} {:>12.1} {:>8}",
            r.name, r.backend, r.batch, r.ns_per_op, r.bytes_per_op
        );
    }

    // In-process guardrails, enforced only on full measurement windows
    // (smoke runs just print the observed ratios).
    let measure_ms = env_ms("BENCH_MEASURE_MS", 200).as_millis() as u64;
    let full_measurement = measure_ms >= 100;
    let ns_of = |name: &str, backend: &str, batch: usize| {
        rows.iter()
            .find(|r| r.name == name && r.backend == backend && r.batch == batch)
            .map(|r| r.ns_per_op)
            .expect("row present")
    };
    if Backend::available().contains(&Backend::AesNi) {
        let speedup = ns_of("ccm/seal", "reference", 1) / ns_of("ccm/seal", "aesni", 1);
        if full_measurement {
            assert!(
                speedup >= 2.0,
                "aesni seal is only {speedup:.2}x the reference (claimed: >=2x)"
            );
        } else {
            println!("note: aesni/reference seal speedup {speedup:.2}x (smoke run, not asserted)");
        }
    }
    for backend in ["soft", "aesni"] {
        if !Backend::available().iter().any(|b| b.label() == backend) {
            continue;
        }
        for op in ["ccm/seal", "ccm/open"] {
            let gain = ns_of(op, backend, 1) / ns_of(op, backend, 8);
            if full_measurement {
                assert!(
                    gain >= 1.3,
                    "{backend} batch-8 {op} gains only {gain:.2}x over batch-1 (claimed: >=1.3x)"
                );
            } else {
                println!(
                    "note: {backend} batch-8/batch-1 {op} gain {gain:.2}x (smoke run, not asserted)"
                );
            }
        }
    }

    let active = Backend::active().label();
    let path = std::env::var("BENCH_CRYPTO_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_crypto.json").into());
    emit_json(&rows, measure_ms, active, &path).expect("write BENCH_crypto.json");
    println!("\nwrote {path}");
}
