//! The built-in parser families under differential test.

pub mod coap;
pub mod crypto;
pub mod dns;
pub mod dtls;
pub mod json;
pub mod origin;
pub mod quic;
pub mod sixlowpan;

use crate::target::DifferentialTarget;

/// Every built-in target, in the order the gate runs them.
pub fn all() -> Vec<Box<dyn DifferentialTarget>> {
    vec![
        Box::new(dns::DnsTarget),
        Box::new(coap::CoapTarget),
        Box::new(dtls::DtlsTarget),
        Box::new(quic::QuicTarget),
        Box::new(json::JsonTarget),
        Box::new(sixlowpan::SixlowpanTarget),
        Box::new(crypto::CryptoTarget),
        Box::new(origin::OriginTarget),
    ]
}

/// Look up a target by its `--target` name.
pub fn by_name(name: &str) -> Option<Box<dyn DifferentialTarget>> {
    all().into_iter().find(|t| t.name() == name)
}

#[cfg(test)]
mod tests {
    #[test]
    fn at_least_seven_families_with_unique_names_and_seeds() {
        let targets = super::all();
        assert!(
            targets.len() >= 7,
            "the harness covers >= 7 differential families"
        );
        let mut names: Vec<_> = targets.iter().map(|t| t.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), targets.len(), "duplicate target name");
        for t in &targets {
            assert!(!t.seeds().is_empty(), "{}: no seeds", t.name());
            assert_eq!(Some(t.name()), super::by_name(t.name()).map(|t| t.name()));
        }
    }

    /// Every built-in seed must check clean — a seed that diverges
    /// would poison every campaign at replay time.
    #[test]
    fn all_seeds_check_clean_and_accepted() {
        for t in super::all() {
            for (i, seed) in t.seeds().iter().enumerate() {
                match t.check(seed) {
                    Ok(crate::target::Outcome::Accepted) => {}
                    Ok(crate::target::Outcome::Rejected) => {
                        panic!(
                            "{} seed {i} rejected:\n{}",
                            t.name(),
                            crate::hex::dump(seed)
                        )
                    }
                    Err(e) => panic!("{} seed {i} diverges: {e}", t.name()),
                }
            }
        }
    }
}
