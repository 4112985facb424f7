//! TTL ↔ Max-Age alignment policies (paper §4.2).
//!
//! The DoC server must map DNS record TTLs onto CoAP's freshness model.
//! Two schemes are compared in the paper:
//!
//! * **DoH-like** (RFC 8484 §5.1 semantics): `Max-Age := min TTL`,
//!   record TTLs stay in the payload. Any TTL change — which happens on
//!   every upstream cache interaction — changes the payload bytes and
//!   therefore the ETag, so cache revalidation fails and full responses
//!   must be retransferred (Fig. 3, steps 3/4).
//! * **EOL TTLs** (the paper's contribution): `Max-Age := min TTL`, all
//!   TTLs rewritten to 0. The payload — and the ETag — stay identical
//!   for the same record set; clients restore TTLs by copying the
//!   (decremented en route) Max-Age back into the records. Cache
//!   revalidation then succeeds whenever only TTLs changed.

use doc_dns::Message;

/// The caching scheme in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CachePolicy {
    /// RFC 8484 behaviour (baseline).
    DohLike,
    /// The paper's EOL-TTLs improvement.
    EolTtls,
}

impl CachePolicy {
    /// Short display name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            CachePolicy::DohLike => "DoH-like",
            CachePolicy::EolTtls => "EOL TTLs",
        }
    }
}

/// A server-side prepared response: payload bytes plus cache metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedResponse {
    /// The DNS response wire bytes to put into the CoAP payload.
    pub payload: Vec<u8>,
    /// Max-Age seconds (minimum TTL across records; 0 if no records).
    pub max_age: u32,
    /// ETag over the payload (8 bytes of SHA-256) — the paper's "naïve
    /// ETag generation calculates a hash over the CoAP message payload"
    /// (§7), which is exactly what breaks under DoH-like TTL decay.
    pub etag: Vec<u8>,
}

/// Prepare a DNS response under `policy` (server side, §4.2).
///
/// `response` should carry current (decremented) TTLs. The function
/// canonicalizes the DNS ID to 0 and sorts answers (both §4.2/§7
/// measures for deterministic ETags), applies the TTL rewrite for
/// [`CachePolicy::EolTtls`], and derives Max-Age and the ETag.
pub fn prepare_response(policy: CachePolicy, response: &Message) -> PreparedResponse {
    let mut msg = response.clone();
    msg.canonicalize_id();
    msg.sort_answers();
    let max_age = msg.min_ttl().unwrap_or(0);
    if policy == CachePolicy::EolTtls {
        msg.set_all_ttls(0);
    }
    let payload = msg.encode();
    PreparedResponse {
        etag: etag_of(&payload).to_vec(),
        payload,
        max_age,
    }
}

/// The paper's naive ETag (§7): the first 8 bytes of the payload's
/// SHA-256 — what breaks under DoH-like TTL decay.
pub(crate) fn etag_of(payload: &[u8]) -> [u8; 8] {
    doc_crypto::sha256::sha256(payload)[..8]
        .try_into()
        .expect("8 bytes")
}

/// Restore TTLs on the client after receiving a response with
/// `max_age` remaining freshness (§4.2, client side).
///
/// * EOL TTLs: "it copies the CoAP Max-Age into the DNS resource
///   records to restore the correctly decremented TTL values".
/// * DoH-like: "use the altered Max-Age to reduce TTLs of included
///   resource records" — TTLs are clamped to the remaining Max-Age.
pub fn restore_ttls(policy: CachePolicy, response: &mut Message, max_age: u32) {
    match policy {
        CachePolicy::EolTtls => response.restore_ttls_from_max_age(max_age),
        CachePolicy::DohLike => {
            for rec in response.records_mut() {
                rec.ttl = rec.ttl.min(max_age);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doc_dns::{Name, Rcode, Record, RecordType};
    use std::net::Ipv6Addr;

    fn response(ttls: &[u32]) -> Message {
        let name = Name::parse("name-01234.c.example.org").unwrap();
        let q = Message::query(0x4444, name.clone(), RecordType::Aaaa);
        let answers = ttls
            .iter()
            .enumerate()
            .map(|(i, &ttl)| {
                Record::aaaa(
                    name.clone(),
                    ttl,
                    Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i as u16 + 1),
                )
            })
            .collect();
        Message::response(&q, Rcode::NoError, answers)
    }

    #[test]
    fn max_age_is_min_ttl() {
        for policy in [CachePolicy::DohLike, CachePolicy::EolTtls] {
            let p = prepare_response(policy, &response(&[300, 42, 600]));
            assert_eq!(p.max_age, 42, "{policy:?}");
        }
    }

    #[test]
    fn eol_zeroes_ttls_in_payload() {
        let p = prepare_response(CachePolicy::EolTtls, &response(&[300, 42]));
        let msg = Message::decode(&p.payload).unwrap();
        assert!(msg.answers.iter().all(|r| r.ttl == 0));
        // DoH-like keeps them.
        let p = prepare_response(CachePolicy::DohLike, &response(&[300, 42]));
        let msg = Message::decode(&p.payload).unwrap();
        assert_eq!(msg.answers.iter().map(|r| r.ttl).max(), Some(300));
    }

    /// The core EOL-TTLs property (Fig. 3 steps 3/4 vs. §4.2): a pure
    /// TTL change flips the DoH-like ETag but keeps the EOL ETag.
    #[test]
    fn etag_stability_under_ttl_change() {
        let r1 = response(&[300, 300]);
        let r2 = response(&[25, 25]); // same records, decayed TTLs
        let doh1 = prepare_response(CachePolicy::DohLike, &r1);
        let doh2 = prepare_response(CachePolicy::DohLike, &r2);
        assert_ne!(doh1.etag, doh2.etag, "DoH-like ETag must change");
        let eol1 = prepare_response(CachePolicy::EolTtls, &r1);
        let eol2 = prepare_response(CachePolicy::EolTtls, &r2);
        assert_eq!(eol1.etag, eol2.etag, "EOL ETag must be stable");
    }

    /// §7's load-balancing fix: record reordering does not change the
    /// ETag because the server sorts answers.
    #[test]
    fn etag_stable_under_record_reordering() {
        let r1 = response(&[60, 60, 60, 60]);
        let mut r2 = r1.clone();
        r2.answers.reverse();
        let p1 = prepare_response(CachePolicy::EolTtls, &r1);
        let p2 = prepare_response(CachePolicy::EolTtls, &r2);
        assert_eq!(p1.etag, p2.etag);
    }

    /// Different record sets must differ in ETag under either policy.
    #[test]
    fn etag_distinguishes_content() {
        let r1 = response(&[60]);
        let r2 = response(&[60, 60]);
        for policy in [CachePolicy::DohLike, CachePolicy::EolTtls] {
            let p1 = prepare_response(policy, &r1);
            let p2 = prepare_response(policy, &r2);
            assert_ne!(p1.etag, p2.etag, "{policy:?}");
        }
    }

    #[test]
    fn dns_id_canonicalized() {
        let p = prepare_response(CachePolicy::EolTtls, &response(&[60]));
        let msg = Message::decode(&p.payload).unwrap();
        assert_eq!(msg.header.id, 0);
    }

    #[test]
    fn restore_eol_ttls() {
        let mut msg = response(&[0, 0]);
        restore_ttls(CachePolicy::EolTtls, &mut msg, 37);
        assert!(msg.answers.iter().all(|r| r.ttl == 37));
    }

    #[test]
    fn restore_doh_like_clamps() {
        let mut msg = response(&[300, 10]);
        restore_ttls(CachePolicy::DohLike, &mut msg, 25);
        assert_eq!(msg.answers[0].ttl, 25); // clamped
        assert_eq!(msg.answers[1].ttl, 10); // already lower
    }

    #[test]
    fn empty_response_max_age_zero() {
        let name = Name::parse("nx.example.org").unwrap();
        let q = Message::query(1, name, RecordType::Aaaa);
        let r = Message::response(&q, Rcode::NxDomain, vec![]);
        let p = prepare_response(CachePolicy::EolTtls, &r);
        assert_eq!(p.max_age, 0);
    }

    #[test]
    fn policy_names() {
        assert_eq!(CachePolicy::DohLike.name(), "DoH-like");
        assert_eq!(CachePolicy::EolTtls.name(), "EOL TTLs");
    }
}
