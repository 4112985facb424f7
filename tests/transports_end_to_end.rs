//! End-to-end integration of all five transports through the full
//! simulated testbed, asserting the qualitative shape of the paper's
//! Fig. 7/10 results.

// Seeds are grouped as figure number + scenario (`0xF16_10` = Fig. +
// scenario 10), not by nibble.
#![allow(clippy::unusual_byte_groupings)]

use doc_repro::dns::RecordType;
use doc_repro::doc::experiment::{run, ExperimentConfig};
use doc_repro::doc::method::DocMethod;
use doc_repro::doc::policy::CachePolicy;
use doc_repro::doc::transport::{TransportKind, TRANSPORT_MATRIX};

fn cfg(transport: TransportKind, method: DocMethod) -> ExperimentConfig {
    ExperimentConfig {
        transport,
        method,
        num_queries: 30,
        num_names: 30,
        loss_permille: 100,
        seed: 0xE2E,
        ..Default::default()
    }
}

/// Every row of the shared transport × method matrix — the same table
/// Fig. 7 derives its sweep from, so a new transport cannot be
/// silently omitted here — resolves under 10% frame loss.
#[test]
fn all_transports_resolve() {
    for (transport, method) in TRANSPORT_MATRIX {
        let r = run(&cfg(transport, method));
        assert!(
            r.success_rate() > 0.85,
            "{}/{}: success {}",
            transport.name(),
            method.name(),
            r.success_rate()
        );
        assert!(r.server_stats.requests > 0 || transport == TransportKind::Udp);
    }
}

/// The stream transports really traverse the lossy simulated network:
/// bytes move on the client↔proxy hop, DoH's HTTP framing costs more
/// than DoQ's bare length prefix, and the per-query numbers come back
/// deterministic.
#[test]
fn stream_transports_shape() {
    let doq = run(&cfg(TransportKind::Quic, DocMethod::Fetch));
    let doh = run(&cfg(TransportKind::DohLite, DocMethod::Fetch));
    let dot = run(&cfg(TransportKind::Dot, DocMethod::Fetch));
    for (label, r) in [("DoQ", &doq), ("DoH", &doh), ("DoT", &dot)] {
        assert!(r.success_rate() > 0.85, "{label}: {}", r.success_rate());
        assert!(r.client_proxy.bytes > 0, "{label}: no traffic on the air");
        assert!(
            r.server_stats.requests >= 25,
            "{label}: {:?}",
            r.server_stats
        );
    }
    assert!(
        doh.client_proxy.bytes > doq.client_proxy.bytes,
        "DoH framing must cost more than DoQ: {} vs {}",
        doh.client_proxy.bytes,
        doq.client_proxy.bytes
    );
    let again = run(&cfg(TransportKind::Quic, DocMethod::Fetch));
    assert_eq!(doq.queries, again.queries);
}

/// Fig. 7 grouping: averaged over seeds, the unfragmented UDP A-record
/// exchange resolves more queries quickly than CoAPS (whose query and
/// response both fragment).
#[test]
fn fig7_shape_udp_vs_fragmenting_group() {
    let frac_250 = |transport: TransportKind, rtype: RecordType| {
        let mut acc = 0.0;
        let reps = 6;
        for rep in 0..reps as u64 {
            let mut c = cfg(transport, DocMethod::Fetch);
            c.record_type = rtype;
            c.seed = 0x51AB + rep;
            c.loss_permille = 120;
            acc += run(&c).fraction_within(250);
        }
        acc / reps as f64
    };
    let udp_a = frac_250(TransportKind::Udp, RecordType::A);
    let coaps_a = frac_250(TransportKind::Coaps, RecordType::A);
    assert!(
        udp_a > coaps_a,
        "UDP A {udp_a:.3} should beat CoAPS A {coaps_a:.3}"
    );
    // For AAAA, UDP's response fragments too, narrowing the gap —
    // both must still mostly succeed.
    let udp_aaaa = frac_250(TransportKind::Udp, RecordType::Aaaa);
    assert!(udp_aaaa > 0.5);
    assert!(udp_a >= udp_aaaa, "A {udp_a:.3} >= AAAA {udp_aaaa:.3}");
}

/// Fig. 10 headline: "CoAP caching leads to 50% less link utilization"
/// on the bottleneck (proxy ↔ border router) link.
#[test]
fn fig10_proxy_cache_halves_bottleneck_traffic() {
    let run_with = |proxy_cache: bool| {
        let mut frames = 0u64;
        for rep in 0..4u64 {
            let c = ExperimentConfig {
                proxy_cache,
                policy: CachePolicy::EolTtls,
                num_queries: 50,
                num_names: 8,
                answers_per_response: 4,
                ttl_range: (2, 8),
                loss_permille: 50,
                seed: 0xF16_10 + rep,
                ..Default::default()
            };
            frames += run(&c).proxy_br.frames;
        }
        frames
    };
    let opaque = run_with(false);
    let proxied = run_with(true);
    assert!(
        (proxied as f64) < 0.7 * opaque as f64,
        "proxied {proxied} vs opaque {opaque} frames on the 1-hop link"
    );
}

/// Fig. 10/11: EOL TTLs outperforms DoH-like when caches revalidate.
#[test]
fn eol_ttls_beats_doh_like() {
    let run_policy = |policy: CachePolicy| {
        let mut bytes = 0u64;
        let mut validations = 0u32;
        for rep in 0..4u64 {
            let c = ExperimentConfig {
                proxy_cache: true,
                client_coap_cache: true,
                policy,
                num_queries: 50,
                num_names: 8,
                answers_per_response: 4,
                ttl_range: (2, 8),
                loss_permille: 50,
                seed: 0xF16_11 + rep,
                ..Default::default()
            };
            let r = run(&c);
            bytes += r.proxy_br.bytes;
            validations += r.server_stats.validations;
        }
        (bytes, validations)
    };
    let (doh_bytes, doh_val) = run_policy(CachePolicy::DohLike);
    let (eol_bytes, eol_val) = run_policy(CachePolicy::EolTtls);
    assert!(
        eol_val > doh_val,
        "EOL validations {eol_val} vs DoH {doh_val}"
    );
    assert!(
        eol_bytes < doh_bytes,
        "EOL upstream bytes {eol_bytes} vs DoH {doh_bytes}"
    );
}

/// OSCORE encrypts end-to-end: the server sees FETCH after unprotect,
/// the wire shows POST — and the run still completes. (The experiment
/// driver exercises the full protect/unprotect path; this asserts the
/// bytes moved.)
#[test]
fn oscore_end_to_end_traffic_is_larger_than_plain() {
    let plain = run(&cfg(TransportKind::Coap, DocMethod::Fetch));
    let oscore = run(&cfg(TransportKind::Oscore, DocMethod::Fetch));
    assert!(oscore.client_proxy.bytes > plain.client_proxy.bytes);
    assert!(oscore.success_rate() > 0.85);
}

/// Determinism across the whole stack: same seed, same result.
#[test]
fn full_stack_determinism() {
    let a = run(&cfg(TransportKind::Coaps, DocMethod::Fetch));
    let b = run(&cfg(TransportKind::Coaps, DocMethod::Fetch));
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.client_proxy, b.client_proxy);
    assert_eq!(a.proxy_br, b.proxy_br);
}
