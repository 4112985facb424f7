//! Origin: [`MockUpstream::answer_into`] (the zone's answer wire and
//! its ETag memo) vs [`prepare_response`] of the owned
//! [`MockUpstream::resolve`].
//!
//! The input is a DNS query. Two twin upstreams hold the same zone and
//! are first warmed with every seed query, so each zone entry already
//! holds an ETag memo when the mutated query arrives: a flipped flags
//! word, qclass or question count meets a warm memo and must miss it.
//! Under both policies, at the warm-up instant and after some TTLs
//! were redrawn, the wire answer's bytes, Max-Age and ETag must equal
//! the owned path's.

use std::net::{Ipv4Addr, Ipv6Addr};

use doc_core::policy::{prepare_response, CachePolicy};
use doc_core::MockUpstream;
use doc_dns::{Message, MessageView, Name, Question, RecordClass, RecordData, RecordType};

use crate::target::{DifferentialTarget, Outcome};

pub struct OriginTarget;

/// The zone both upstreams serve: out-of-order and duplicate records,
/// the root, an empty RRset, a mixed-case CNAME target (which the owned
/// path cannot decode back case-preserved) and TXT.
fn zone() -> Vec<(Name, RecordType, Vec<RecordData>)> {
    let name = |s: &str| Name::parse(s).expect("valid name");
    let aaaa = |i: u16| RecordData::Aaaa(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i));
    let target = Name::from_labels(&["Target", "Example", "ORG"]).expect("valid name");
    vec![
        (
            name("sensor.iot.example.com"),
            RecordType::Aaaa,
            vec![aaaa(3), aaaa(1), aaaa(2), aaaa(1)],
        ),
        (
            name("sensor.iot.example.com"),
            RecordType::A,
            vec![RecordData::A(Ipv4Addr::new(192, 0, 2, 1))],
        ),
        (
            Name::root(),
            RecordType::A,
            vec![RecordData::A(Ipv4Addr::new(192, 0, 2, 2))],
        ),
        (name("empty.example.com"), RecordType::Aaaa, vec![]),
        (
            name("alias.example.com"),
            RecordType::Cname,
            vec![RecordData::Cname(target)],
        ),
        (
            name("txt.example.com"),
            RecordType::Txt,
            vec![RecordData::Txt(vec![b"v=1".to_vec(), Vec::new()])],
        ),
    ]
}

fn upstream() -> MockUpstream {
    let up = MockUpstream::new(0x0516, 2, 8);
    for (name, rtype, data) in zone() {
        up.add_rrset(name, rtype, data);
    }
    up
}

impl DifferentialTarget for OriginTarget {
    fn name(&self) -> &'static str {
        "origin"
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        let mut seeds: Vec<Vec<u8>> = zone()
            .into_iter()
            .map(|(name, rtype, _)| Message::query(0, name, rtype).encode())
            .collect();
        let name = Name::parse("Sensor.IoT.example.com").expect("valid name");
        // RD off, qclass ANY, NXDOMAIN, two questions, none.
        let mut no_rd = Message::query(0, name.clone(), RecordType::Aaaa);
        no_rd.header.rd = false;
        let mut any = Message::query(0x77, name.clone(), RecordType::A);
        any.questions[0].qclass = RecordClass::Other(255);
        let nx = Message::query(
            0,
            Name::parse("nx.example.com").expect("valid"),
            RecordType::A,
        );
        let mut two = Message::query(0, name.clone(), RecordType::Aaaa);
        two.questions.push(Question::new(name, RecordType::A));
        let mut none = nx.clone();
        none.questions.clear();
        seeds.extend([no_rd, any, nx, two, none].iter().map(Message::encode));
        seeds
    }

    fn check(&self, input: &[u8]) -> Result<Outcome, String> {
        let Ok(view) = MessageView::parse(input) else {
            return Ok(Outcome::Rejected);
        };
        let query = view.to_owned();
        let seeds = self.seeds();
        for policy in [CachePolicy::DohLike, CachePolicy::EolTtls] {
            let (ours, theirs) = (upstream(), upstream());
            let mut out = Vec::new();
            for seed in &seeds {
                let seed = MessageView::parse(seed).expect("seeds are valid queries");
                ours.answer_into(&seed, policy, 0, &mut out);
                theirs.resolve(&seed.to_owned(), 0);
            }
            for now in [0, 3_500] {
                let (max_age, etag) = ours.answer_into(&view, policy, now, &mut out);
                let expect = prepare_response(policy, &theirs.resolve(&query, now));
                if out != expect.payload || max_age != expect.max_age || etag[..] != expect.etag {
                    return Err(format!(
                        "{policy:?} at {now} ms: answer_into wrote {out:02x?} (Max-Age {max_age}, \
                         ETag {etag:02x?}), the owned path {:02x?} (Max-Age {}, ETag {:02x?})",
                        expect.payload, expect.max_age, expect.etag
                    ));
                }
            }
        }
        Ok(Outcome::Accepted)
    }
}
