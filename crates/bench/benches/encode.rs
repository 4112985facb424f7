//! Codec micro-benchmarks with heap-allocation accounting, covering
//! both directions of the zero-copy rewrite:
//!
//! * **Encode**: every `encode_into` hot path performs **zero** heap
//!   allocations with a reused output buffer, and `dns/encode_query`
//!   is ≥ 2× faster than the seed's linear suffix-table encoder.
//! * **Decode**: the borrowed `MessageView`/`CoapView` parsers perform
//!   **zero** heap allocations and are ≥ 2× faster than the owned
//!   decoders on the same wire bytes; `oscore/protect_request`
//!   (measured wire-to-wire via `protect_request_into`) performs ≤ 4
//!   allocations per request — down from 16 with the per-request CBOR
//!   AAD tree.
//!
//! The other rows time the remaining codec paths (dns+cbor, cache
//! keys, GET construction, OSCORE, 6LoWPAN fragmentation) and the
//! design ablations (ETag strategy, canonicalization, wire vs.
//! dns+cbor, Block2 slice size).
//!
//! Every row is timed by [`doc_bench::harness::time`] under the
//! counting global allocator. Results are printed as a table and
//! written to `BENCH_codecs.json` (schema `doc-bench/codecs/v2`) at the
//! workspace root, or to `BENCH_CODECS_JSON`. The allocation bounds
//! are asserted on every run, the ≥ 2× decode speedups on full
//! windows only. Runs via `cargo bench -p doc-bench --bench encode`.

use std::hint::black_box;

use doc_bench::alloc_counter::CountingAllocator;
use doc_bench::harness::{full_window, time, Timing};
use doc_coap::msg::{CoapMessage, Code, MsgType};
use doc_coap::opt::{CoapOption, OptionNumber};
use doc_coap::view::CoapView;
use doc_core::method::{build_request, DocMethod};
use doc_core::policy::{prepare_response, CachePolicy};
use doc_core::transport::{dns_query_bytes, dns_response_bytes, experiment_name};
use doc_dns::view::MessageView;
use doc_dns::{cbor_fmt, Message, Question, RecordType};
use doc_oscore::context::SecurityContext;
use doc_oscore::protect::OscoreEndpoint;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

struct Sample {
    name: &'static str,
    wire_bytes: usize,
    t: Timing,
}

fn sample(name: &'static str, wire_bytes: usize, routine: impl FnMut()) -> Sample {
    Sample {
        name,
        wire_bytes,
        t: time(routine),
    }
}

fn emit_json(samples: &[Sample], path: &str) -> std::io::Result<()> {
    let mut json = String::from("{\n  \"schema\": \"doc-bench/codecs/v2\",\n  \"benchmarks\": [\n");
    for (i, s) in samples.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}, \"allocs_per_iter\": {:.3}, \"wire_bytes\": {}}}{}\n",
            s.name,
            s.t.ns_per_iter,
            s.t.allocs_per_iter,
            s.wire_bytes,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, json)
}

fn main() {
    let name = experiment_name(0);
    let query_wire = dns_query_bytes(&name, RecordType::Aaaa);
    let response_wire = dns_response_bytes(&name, RecordType::Aaaa, 300);
    let mut query = Message::query(0, name.clone(), RecordType::Aaaa);
    query.canonicalize_id();
    let response = Message::decode(&response_wire).unwrap();
    let fetch = build_request(DocMethod::Fetch, &query_wire, MsgType::Con, 1, vec![1, 2]).unwrap();
    let coap_resp = CoapMessage::ack_response(&fetch, Code::CONTENT)
        .with_option(CoapOption::new(OptionNumber::ETAG, vec![1; 8]))
        .with_option(CoapOption::uint(OptionNumber::MAX_AGE, 300))
        .with_payload(response_wire.clone());

    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut samples = Vec::new();

    // Allocating variants (one exact-capacity output Vec per call) —
    // `dns/encode_query` is the seed-comparison headline.
    samples.push(sample("dns/encode_query", query_wire.len(), || {
        black_box(black_box(&query).encode());
    }));
    // Shared with `ablation/encode_wire_format` below.
    let encode_response = || {
        black_box(black_box(&response).encode());
    };
    samples.push(sample(
        "dns/encode_response",
        response_wire.len(),
        encode_response,
    ));
    samples.push(sample("coap/encode_fetch", fetch.encoded_len(), || {
        black_box(black_box(&fetch).encode());
    }));

    // Zero-allocation variants: reused output buffer, stack-resident
    // compression state.
    samples.push(sample("dns/encode_query_into", query_wire.len(), || {
        buf.clear();
        black_box(&query).encode_into(&mut buf);
        black_box(buf.len());
    }));
    samples.push(sample(
        "dns/encode_response_into",
        response_wire.len(),
        || {
            buf.clear();
            black_box(&response).encode_into(&mut buf);
            black_box(buf.len());
        },
    ));
    samples.push(sample(
        "coap/encode_fetch_into",
        fetch.encoded_len(),
        || {
            buf.clear();
            black_box(&fetch).encode_into(&mut buf);
            black_box(buf.len());
        },
    ));
    samples.push(sample(
        "coap/encode_response_into",
        coap_resp.encoded_len(),
        || {
            buf.clear();
            black_box(&coap_resp).encode_into(&mut buf);
            black_box(buf.len());
        },
    ));

    // Decode paths: owned decoders vs. borrowed views. The view rows
    // parse (full validation walk) and then touch the same fields a hot
    // path reads — question/record fields for DNS, the option run and
    // payload for CoAP — all without leaving the original buffer.
    let fetch_wire = fetch.encode();
    samples.push(sample("dns/decode_query", query_wire.len(), || {
        black_box(Message::decode(black_box(&query_wire)).unwrap());
    }));
    samples.push(sample("dns/decode_query_view", query_wire.len(), || {
        let v = MessageView::parse(black_box(&query_wire)).unwrap();
        let q = v.question().unwrap();
        black_box((q.qtype, q.qname.label_count()));
    }));
    samples.push(sample("dns/decode_response", response_wire.len(), || {
        black_box(Message::decode(black_box(&response_wire)).unwrap());
    }));
    samples.push(sample(
        "dns/decode_response_view",
        response_wire.len(),
        || {
            let v = MessageView::parse(black_box(&response_wire)).unwrap();
            black_box((v.min_ttl(), v.record_count()));
        },
    ));
    samples.push(sample("coap/decode_fetch", fetch_wire.len(), || {
        black_box(CoapMessage::decode(black_box(&fetch_wire)).unwrap());
    }));
    samples.push(sample("coap/decode_fetch_view", fetch_wire.len(), || {
        let v = CoapView::parse(black_box(&fetch_wire)).unwrap();
        let opts = v.options().count();
        black_box((v.code, opts, v.payload().len()));
    }));

    // Protected-path end-to-end serializers (seal-in-place). The
    // protect-request row measures the wire-direct path a client/server
    // actually drives: serialize + seal into a reused buffer.
    let secret = b"0123456789abcdef";
    let mut oscore_ep =
        OscoreEndpoint::new(SecurityContext::derive(secret, b"s", &[], &[1]), false);
    let protected_len = {
        let (outer, _) = oscore_ep.protect_request(&fetch).unwrap();
        outer.encoded_len()
    };
    samples.push(sample("oscore/protect_request", protected_len, || {
        buf.clear();
        black_box(
            oscore_ep
                .protect_request_into(black_box(&fetch), &mut buf)
                .unwrap(),
        );
    }));
    let cs = doc_dtls::record::CipherState::new(&[7u8; 16], [1, 2, 3, 4]);
    let mut seq = 0u64;
    samples.push(sample(
        "dtls/seal_record",
        query_wire.len() + doc_dtls::record::CipherState::OVERHEAD,
        || {
            seq += 1;
            black_box(
                cs.seal(
                    doc_dtls::record::ContentType::ApplicationData,
                    1,
                    seq,
                    black_box(&query_wire),
                )
                .unwrap(),
            );
        },
    ));

    // The other codec paths the figures build packets with.
    let question = Question::new(name.clone(), RecordType::Aaaa);
    let cbor_len = cbor_fmt::encode_response(&response, &question).len();
    // Shared with `ablation/encode_dns_cbor` below.
    let encode_cbor = || {
        black_box(cbor_fmt::encode_response(
            black_box(&response),
            black_box(&question),
        ));
    };
    samples.push(sample("dns/cbor_encode_response", cbor_len, encode_cbor));
    samples.push(sample("coap/cache_key_fetch", fetch_wire.len(), || {
        black_box(doc_coap::cache::cache_key(black_box(&fetch)));
    }));
    let get = |q: &[u8]| build_request(DocMethod::Get, q, MsgType::Con, 1, vec![1]).unwrap();
    let get_len = get(&query_wire).encoded_len();
    samples.push(sample("coap/build_get_request", get_len, || {
        black_box(get(black_box(&query_wire)));
    }));
    samples.push(sample(
        "coap/encode_response",
        coap_resp.encoded_len(),
        || {
            black_box(black_box(&coap_resp).encode());
        },
    ));
    samples.push(sample("oscore/derive_context", 0, || {
        black_box(SecurityContext::derive(
            black_box(secret),
            b"salt",
            &[],
            &[1],
        ));
    }));
    let mut client = OscoreEndpoint::new(SecurityContext::derive(secret, b"s", &[], &[1]), false);
    let mut server = OscoreEndpoint::new(SecurityContext::derive(secret, b"s", &[1], &[]), false);
    samples.push(sample("oscore/roundtrip", protected_len, || {
        let (outer, _) = client.protect_request(black_box(&fetch)).unwrap();
        black_box(server.unprotect_request(&outer).unwrap());
    }));
    samples.push(sample("sixlowpan/fragment_plan_250B", 250, || {
        black_box(doc_sixlowpan::fragment_plan(black_box(250)));
    }));
    let datagram = vec![0xA5u8; 250];
    samples.push(sample(
        "sixlowpan/fragment_reassemble_250B",
        datagram.len(),
        || {
            let frames = doc_sixlowpan::frag::Fragmenter::new()
                .fragment(black_box(&datagram), 102)
                .unwrap();
            let mut r = doc_sixlowpan::frag::Reassembler::new();
            let mut out = None;
            for fr in &frames {
                if let Some(d) = r.push(fr).unwrap() {
                    out = Some(d);
                }
            }
            black_box(out.unwrap());
        },
    ));

    // Design ablations. ETag strategy: DoH-like hashes the full
    // (TTL-bearing) payload; EOL TTLs rewrites TTLs first. Same cost
    // class, but EOL buys stable ETags.
    for (policy, row) in [
        (CachePolicy::DohLike, "ablation/prepare_response_doh_like"),
        (CachePolicy::EolTtls, "ablation/prepare_response_eol_ttls"),
    ] {
        samples.push(sample(row, response_wire.len(), || {
            black_box(prepare_response(policy, black_box(&response)));
        }));
    }
    // DNS-ID canonicalization: the cost of the deterministic cache key.
    samples.push(sample(
        "ablation/canonicalize_and_encode",
        response_wire.len(),
        || {
            let mut m = black_box(&response).clone();
            m.canonicalize_id();
            m.sort_answers();
            black_box(m.encode());
        },
    ));
    // Message format: wire format vs. dns+cbor.
    samples.push(sample(
        "ablation/encode_wire_format",
        response_wire.len(),
        encode_response,
    ));
    samples.push(sample("ablation/encode_dns_cbor", cbor_len, encode_cbor));
    // Block size: slicing a response body into Block2 blocks.
    for (size, row) in [
        (16, "ablation/block2_slice_16B"),
        (32, "ablation/block2_slice_32B"),
        (64, "ablation/block2_slice_64B"),
    ] {
        samples.push(sample(row, response_wire.len(), || {
            let server = doc_coap::block::Block2Server::new(response_wire.clone(), size).unwrap();
            let mut num = 0;
            let mut total = 0usize;
            loop {
                let (slice, block) = server.block(num, size).unwrap();
                total += slice.len();
                if !block.more {
                    break;
                }
                num += 1;
            }
            black_box(total);
        }));
    }

    println!(
        "{:<36} {:>12} {:>14} {:>10}",
        "benchmark", "ns/iter", "allocs/iter", "bytes"
    );
    for s in &samples {
        println!(
            "{:<36} {:>12.1} {:>14.3} {:>10}",
            s.name, s.t.ns_per_iter, s.t.allocs_per_iter, s.wire_bytes
        );
    }

    // Measured guardrails for the zero-copy claims. The allocation
    // counts are exact and machine-independent; the decode speedups are
    // same-machine ratios, asserted with the claimed 2× bound.
    for s in &samples {
        if s.name.ends_with("_into") || s.name.ends_with("_view") {
            assert_eq!(
                s.t.allocs_per_iter, 0.0,
                "{} must not allocate on the hot path",
                s.name
            );
        }
        if s.name == "oscore/protect_request" {
            assert!(
                s.t.allocs_per_iter <= 4.0,
                "oscore/protect_request allocates {} per iter (bound: 4)",
                s.t.allocs_per_iter
            );
        }
    }
    let ns_of = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.t.ns_per_iter)
            .expect("benchmark present")
    };
    // The speedup bound is timing, so it applies on full windows only;
    // the allocation bounds above always apply.
    for (owned, view) in [
        ("dns/decode_response", "dns/decode_response_view"),
        ("coap/decode_fetch", "coap/decode_fetch_view"),
    ] {
        let speedup = ns_of(owned) / ns_of(view);
        if full_window() {
            assert!(
                speedup >= 2.0,
                "{view} is only {speedup:.2}x faster than {owned} (claimed: ≥2x)"
            );
        } else if speedup < 2.0 {
            println!(
                "note: {view} measured {speedup:.2}x vs {owned} (smoke run; bound not enforced)"
            );
        }
    }

    let path = std::env::var("BENCH_CODECS_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_codecs.json").into());
    emit_json(&samples, &path).expect("write BENCH_codecs.json");
    println!("\nwrote {path}");
}
