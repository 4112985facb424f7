//! Build-size cost model (Fig. 5 / Fig. 8).
//!
//! The paper measures RIOT firmware images on a Cortex-M3 (§5.2,
//! Appendix C): per-module `.text`+`.data` (ROM) and `.data`+`.bss`
//! (RAM), grouped into sock / CoAP / DTLS / OSCORE / DNS / Application
//! / CoAP-example-app. We encode those groups as a cost table
//! calibrated to the published numbers and derive every configuration
//! from it. The §5.2 claims are invariants of this model and are
//! asserted in the tests:
//!
//! * encrypted transports add ≈24 kB (DTLS) / ≈11 kB (OSCORE) of ROM;
//! * the DTLS part is more than double the OSCORE part;
//! * GET support adds ≈2 kB ROM (≈1 kB of it the URI-template
//!   processor) and 173 B RAM;
//! * the DoC DNS part (≈4 kB) exceeds the other DNS implementations;
//! * with a CoAP app already present, OSCORE is the cheapest encrypted
//!   transport (the abstract's ">10 kBytes saved vs DTLS");
//! * QUIC (Quant + TLS) needs nearly double the ROM of any IoT
//!   transport (Fig. 8) and stays bigger even after the ≈20 kB of
//!   optimizations proposed in the Quant paper.

use doc_core::transport::TransportKind;

/// A firmware module group (the stacked segments of Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Module {
    /// `sock` API incl. the TinyDTLS sock adapter when DTLS is used.
    Sock,
    /// gCoAP + CoAP message handling + URI parsing.
    Coap,
    /// TinyDTLS.
    Dtls,
    /// libOSCORE incl. dependencies.
    Oscore,
    /// DNS-over-X message handling (without GET support).
    Dns,
    /// Extra DNS code for the GET method (incl. URI-template
    /// processor).
    DnsGetOverhead,
    /// The DNS requester application.
    Application,
    /// The standard RIOT gCoAP example app (server+client).
    CoapExampleApp,
}

impl Module {
    /// Fig. 5 legend label.
    pub fn name(self) -> &'static str {
        match self {
            Module::Sock => "sock",
            Module::Coap => "CoAP",
            Module::Dtls => "DTLS",
            Module::Oscore => "OSCORE",
            Module::Dns => "DNS (w/o GET)",
            Module::DnsGetOverhead => "DNS (GET overhead)",
            Module::Application => "Application",
            Module::CoapExampleApp => "CoAP example app",
        }
    }

    /// (ROM bytes, RAM bytes) for this module — calibrated to §5.2.
    pub fn cost(self) -> (usize, usize) {
        match self {
            Module::Sock => (2_600, 900),
            Module::Coap => (12_500, 4_200),
            Module::Dtls => (24_000, 1_500),
            Module::Oscore => (11_000, 700),
            Module::Dns => (1_900, 550),
            Module::DnsGetOverhead => (2_000, 173),
            Module::Application => (3_200, 3_800),
            Module::CoapExampleApp => (7_800, 2_600),
        }
    }

    /// Extra ROM the DoC (CoAP-based) DNS implementation adds over the
    /// plain DNS message handling: "the comparably young DNS part for
    /// DoC … is with around 4 kBytes significantly larger than the
    /// other DNS transport implementations".
    pub const DOC_DNS_EXTRA_ROM: usize = 2_100;
}

/// One configuration's build decomposition.
#[derive(Debug, Clone)]
pub struct BuildProfile {
    /// The transport.
    pub transport: TransportKind,
    /// Whether GET support is compiled in.
    pub with_get: bool,
    /// (module, rom, ram) rows in stacking order.
    pub rows: Vec<(Module, usize, usize)>,
}

impl BuildProfile {
    /// Total ROM bytes.
    pub fn rom(&self) -> usize {
        self.rows.iter().map(|r| r.1).sum()
    }
    /// Total RAM bytes.
    pub fn ram(&self) -> usize {
        self.rows.iter().map(|r| r.2).sum()
    }
}

/// Alias matching the figure terminology.
pub type TransportBuild = BuildProfile;

/// Build the Fig. 5 profile for a transport (always includes the CoAP
/// example app, as the figure does).
pub fn build_profile(transport: TransportKind, with_get: bool) -> BuildProfile {
    let mut rows: Vec<(Module, usize, usize)> = Vec::new();
    fn push(rows: &mut Vec<(Module, usize, usize)>, m: Module) {
        let (rom, ram) = m.cost();
        rows.push((m, rom, ram));
    }
    push(&mut rows, Module::Sock);
    push(&mut rows, Module::Coap); // the example app brings gCoAP in
    match transport {
        TransportKind::Udp | TransportKind::Coap => {}
        TransportKind::Dtls | TransportKind::Coaps => push(&mut rows, Module::Dtls),
        TransportKind::Oscore => push(&mut rows, Module::Oscore),
        // The stream transports are not part of Fig. 5; their build
        // cost is approximated by the DTLS crypto substrate they share
        // (AES-CCM record protection) so the profile stays total.
        TransportKind::Quic | TransportKind::DohLite | TransportKind::Dot => {
            push(&mut rows, Module::Dtls)
        }
    }
    // DNS message handling.
    let (dns_rom, dns_ram) = Module::Dns.cost();
    let dns_rom = if transport.coap_based() {
        dns_rom + Module::DOC_DNS_EXTRA_ROM
    } else {
        dns_rom
    };
    rows.push((Module::Dns, dns_rom, dns_ram));
    if with_get && transport.coap_based() {
        push(&mut rows, Module::DnsGetOverhead);
    }
    push(&mut rows, Module::Application);
    push(&mut rows, Module::CoapExampleApp);
    BuildProfile {
        transport,
        with_get,
        rows,
    }
}

/// Fig. 8 categories for the UDP-based comparison with QUIC (the paper
/// intentionally omits the UDP layer and the sock part).
#[derive(Debug, Clone)]
pub struct Fig8Profile {
    /// Bar label.
    pub label: &'static str,
    /// "DNS Transport (w/o UDP & Crypto)" ROM bytes.
    pub transport_rom: usize,
    /// "Crypto (DTLS / TLS / OSCORE)" ROM bytes.
    pub crypto_rom: usize,
    /// "Application" ROM bytes.
    pub application_rom: usize,
}

impl Fig8Profile {
    /// Total ROM.
    pub fn total(&self) -> usize {
        self.transport_rom + self.crypto_rom + self.application_rom
    }
}

/// Quant's published sizes (Eggert, DISS 2020, the paper's ref. 19):
/// the QUIC transport
/// itself plus its TLS stack, each in the high-30-kB range, with ≈20 kB
/// of proposed (but unrealized) optimizations per that reference.
pub const QUANT_QUIC_ROM: usize = 38_000;
/// TLS part of Quant.
pub const QUANT_TLS_ROM: usize = 36_000;
/// Optimization headroom claimed in the Quant paper.
pub const QUANT_OPTIMIZATION_SAVINGS: usize = 20_000;

/// The six bars of Fig. 8.
pub fn fig8_profiles() -> Vec<Fig8Profile> {
    let app = Module::Application.cost().0;
    let dns = Module::Dns.cost().0;
    let coap = Module::Coap.cost().0 + dns + Module::DOC_DNS_EXTRA_ROM;
    vec![
        Fig8Profile {
            label: "UDP",
            transport_rom: dns,
            crypto_rom: 0,
            application_rom: app,
        },
        Fig8Profile {
            label: "DTLSv1.2",
            transport_rom: dns,
            crypto_rom: Module::Dtls.cost().0,
            application_rom: app,
        },
        Fig8Profile {
            label: "CoAP",
            transport_rom: coap,
            crypto_rom: 0,
            application_rom: app,
        },
        Fig8Profile {
            label: "CoAPSv1.2",
            transport_rom: coap,
            crypto_rom: Module::Dtls.cost().0,
            application_rom: app,
        },
        Fig8Profile {
            label: "OSCORE",
            transport_rom: coap,
            crypto_rom: Module::Oscore.cost().0,
            application_rom: app,
        },
        Fig8Profile {
            label: "QUIC",
            transport_rom: QUANT_QUIC_ROM,
            crypto_rom: QUANT_TLS_ROM,
            application_rom: app,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ROM of one module group (0 if absent).
    fn module_rom(p: &BuildProfile, m: Module) -> usize {
        p.rows.iter().filter(|r| r.0 == m).map(|r| r.1).sum()
    }

    /// §5.2: "The encrypted transports add a considerable amount of
    /// ROM—about 24 kBytes in the case of DTLS and about 11 kBytes in
    /// the case of OSCORE—and in the case of DTLS also about 1.5
    /// kBytes of RAM."
    #[test]
    fn encryption_rom_deltas() {
        let coap = build_profile(TransportKind::Coap, false);
        let coaps = build_profile(TransportKind::Coaps, false);
        let oscore = build_profile(TransportKind::Oscore, false);
        let dtls_delta = coaps.rom() - coap.rom();
        let oscore_delta = oscore.rom() - coap.rom();
        assert!((23_000..=25_000).contains(&dtls_delta), "{dtls_delta}");
        assert!((10_000..=12_000).contains(&oscore_delta), "{oscore_delta}");
        assert_eq!(coaps.ram() - coap.ram(), 1_500);
    }

    /// §5.2: "the DTLS part of the firmware expects more than double
    /// the memory space of the OSCORE part".
    #[test]
    fn dtls_more_than_double_oscore() {
        assert!(Module::Dtls.cost().0 > 2 * Module::Oscore.cost().0);
    }

    /// §5.2: "GET support adds about 2 kBytes of ROM and 173 bytes of
    /// RAM … About 1 kByte of this ROM contributes the URI template
    /// processor."
    #[test]
    fn get_overhead() {
        let without = build_profile(TransportKind::Coap, false);
        let with = build_profile(TransportKind::Coap, true);
        assert_eq!(with.rom() - without.rom(), 2_000);
        assert_eq!(with.ram() - without.ram(), 173);
        // GET does not apply to non-CoAP transports.
        let udp = build_profile(TransportKind::Udp, true);
        assert_eq!(module_rom(&udp, Module::DnsGetOverhead), 0);
    }

    /// Abstract: "With OSCORE, we can save more than 10 kBytes of code
    /// memory compared to DTLS, when a CoAP application is already
    /// present."
    #[test]
    fn oscore_saves_over_10k_vs_dtls() {
        let coaps = build_profile(TransportKind::Coaps, false);
        let oscore = build_profile(TransportKind::Oscore, false);
        assert!(coaps.rom() - oscore.rom() > 10_000);
    }

    /// §5.2: "for unencrypted transport, UDP remains the clear choice
    /// … For encrypted DNS communication, DTLS is the most efficient
    /// transport solution, with OSCORE being a close second" (without a
    /// pre-existing CoAP app, DoDTLS avoids the DoC DNS extra code).
    #[test]
    fn udp_smallest_overall() {
        let udp = build_profile(TransportKind::Udp, false);
        for t in [
            TransportKind::Dtls,
            TransportKind::Coap,
            TransportKind::Coaps,
            TransportKind::Oscore,
        ] {
            assert!(udp.rom() < build_profile(t, false).rom(), "{t:?}");
            assert!(udp.ram() <= build_profile(t, false).ram(), "{t:?}");
        }
    }

    /// §5.2: the DoC DNS part is ≈4 kB, "significantly larger than the
    /// other DNS transport implementations".
    #[test]
    fn doc_dns_part_is_4k() {
        let doc = build_profile(TransportKind::Coap, false);
        let udp = build_profile(TransportKind::Udp, false);
        assert_eq!(module_rom(&doc, Module::Dns), 4_000);
        assert!(module_rom(&doc, Module::Dns) > 2 * module_rom(&udp, Module::Dns));
    }

    /// Fig. 5 bars stay within the figure's 0–60 kB axis.
    #[test]
    fn totals_within_figure_axis() {
        for t in [
            TransportKind::Udp,
            TransportKind::Dtls,
            TransportKind::Coap,
            TransportKind::Coaps,
            TransportKind::Oscore,
        ] {
            let p = build_profile(t, true);
            assert!(p.rom() < 60_000, "{t:?} ROM {}", p.rom());
            assert!(p.ram() < 60_000, "{t:?} RAM {}", p.ram());
            assert!(p.rom() > 25_000, "{t:?} ROM {} too small", p.rom());
        }
    }

    /// §5.5/Fig. 8: "QUIC, including TLS, uses nearly double the ROM as
    /// any of the common IoT transports" and stays bigger than DNS over
    /// CoAP even after the proposed ≈20 kB optimization.
    #[test]
    fn quic_nearly_double() {
        let profiles = fig8_profiles();
        let quic = profiles
            .iter()
            .find(|p| p.label == "QUIC")
            .expect("QUIC bar");
        for p in &profiles {
            if p.label != "QUIC" {
                assert!(
                    quic.total() as f64 >= 1.7 * p.total() as f64,
                    "QUIC {} vs {} {}",
                    quic.total(),
                    p.label,
                    p.total()
                );
            }
        }
        let coap = profiles
            .iter()
            .find(|p| p.label == "CoAP")
            .expect("CoAP bar");
        assert!(quic.total() - QUANT_OPTIMIZATION_SAVINGS > coap.total());
        // CoAPS (full CoAP client+server+DTLS) still under QUIC
        // (client-only), as the paper stresses.
        let coaps = profiles
            .iter()
            .find(|p| p.label == "CoAPSv1.2")
            .expect("bar");
        assert!(quic.total() > coaps.total());
    }

    #[test]
    fn profile_row_accounting() {
        let p = build_profile(TransportKind::Oscore, true);
        let rom_sum: usize = p.rows.iter().map(|r| r.1).sum();
        assert_eq!(rom_sum, p.rom());
        assert!(module_rom(&p, Module::Oscore) == 11_000);
        assert!(module_rom(&p, Module::Dtls) == 0);
    }
}
