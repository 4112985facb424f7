//! The DoC client (paper §4.1/§4.2, Fig. 2 nodes C1/C2).
//!
//! Responsibilities:
//!
//! * build canonical DNS queries (ID = 0) and map them onto
//!   FETCH/GET/POST requests,
//! * consult the optional **client DNS cache** (RIOT's
//!   `CONFIG_DNS_CACHE_SIZE = 8`, Table 6) before touching the network,
//! * consult the optional **client CoAP cache**: fresh entries answer
//!   locally, stale entries trigger ETag revalidation, `2.03 Valid`
//!   refreshes the entry without a payload transfer,
//! * restore DNS TTLs from the CoAP Max-Age per the active
//!   [`CachePolicy`].

use crate::method::{build_request, DocMethod};
use crate::policy::{restore_ttls, CachePolicy};
use crate::DocError;
use doc_coap::cache::{cache_key, CacheKey, Probe, ReplyTo, ResponseCache};
use doc_coap::msg::{CoapMessage, Code, MsgType};
use doc_coap::opt::{CoapOption, OptionNumber};
use doc_coap::view::CoapView;
use doc_dns::{Message, Question};
use std::collections::HashMap;

/// A small client-side DNS cache (name/type → response until expiry).
pub struct DnsCache {
    entries: Vec<(Question, Message, u64)>,
    capacity: usize,
    /// Cache hits served.
    pub hits: u32,
}

impl DnsCache {
    /// Create a cache bounded to `capacity` entries (paper: 8).
    pub fn new(capacity: usize) -> Self {
        DnsCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
            hits: 0,
        }
    }

    /// Look up an unexpired response; TTLs are decremented to the
    /// remaining lifetime.
    pub fn lookup(&mut self, q: &Question, now_ms: u64) -> Option<Message> {
        self.entries.retain(|(_, _, exp)| *exp > now_ms);
        let (_, msg, exp) = self.entries.iter().find(|(qq, _, _)| qq == q)?;
        let mut out = msg.clone();
        let remaining_s = ((exp - now_ms) / 1000) as u32;
        // Clamp TTLs to remaining lifetime.
        for r in out.records_mut() {
            r.ttl = r.ttl.min(remaining_s);
        }
        self.hits += 1;
        Some(out)
    }

    /// Insert a response; lifetime = minimum TTL.
    pub fn insert(&mut self, q: Question, msg: Message, now_ms: u64) {
        let ttl = msg.min_ttl().unwrap_or(0) as u64;
        if ttl == 0 {
            return; // nothing cacheable
        }
        self.entries.retain(|(qq, _, _)| qq != &q);
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((q, msg, now_ms + ttl * 1000));
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Client statistics (feed Fig. 10/11's cache-event accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Queries issued by the application.
    pub queries: u32,
    /// Served from the client DNS cache.
    pub dns_cache_hits: u32,
    /// Served fresh from the client CoAP cache.
    pub coap_cache_hits: u32,
    /// Revalidation requests sent (stale CoAP cache entry with ETag).
    pub revalidations_sent: u32,
    /// `2.03 Valid` responses that refreshed a cache entry.
    pub revalidated: u32,
    /// Full responses received.
    pub full_responses: u32,
}

impl std::ops::AddAssign for ClientStats {
    fn add_assign(&mut self, other: Self) {
        let ClientStats {
            queries,
            dns_cache_hits,
            coap_cache_hits,
            revalidations_sent,
            revalidated,
            full_responses,
        } = other;
        self.queries += queries;
        self.dns_cache_hits += dns_cache_hits;
        self.coap_cache_hits += coap_cache_hits;
        self.revalidations_sent += revalidations_sent;
        self.revalidated += revalidated;
        self.full_responses += full_responses;
    }
}

/// What `begin_query` decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Answer served locally from a cache.
    Answered(Message),
    /// Transmit this CoAP request (token registered internally).
    SendRequest(Box<CoapMessage>),
}

struct PendingExchange {
    question: Question,
    key: CacheKey,
}

/// The client a cached reply is encoded for: the client itself, which
/// only decodes it, so no exchange and no ETag.
const CACHE_READER: ReplyTo<'static> = ReplyTo {
    message_id: 0,
    token: &[],
    etag: None,
};

/// A response's wire without its token: what the CoAP cache stores from
/// and refreshes with (an entry keeps no token, and one longer than the
/// wire's 8 bytes must not stop the caching).
fn wire_without_token(resp: &CoapMessage) -> Vec<u8> {
    CoapMessage {
        token: Vec::new(),
        ..resp.clone()
    }
    .encode()
}

/// The DoC client.
pub struct DocClient {
    method: DocMethod,
    policy: CachePolicy,
    dns_cache: Option<DnsCache>,
    coap_cache: Option<ResponseCache>,
    pending: HashMap<Vec<u8>, PendingExchange>,
    /// Statistics.
    pub stats: ClientStats,
}

impl DocClient {
    /// Create a client using `method` under `policy`.
    pub fn new(method: DocMethod, policy: CachePolicy) -> Self {
        DocClient {
            method,
            policy,
            dns_cache: None,
            coap_cache: None,
            pending: HashMap::new(),
            stats: ClientStats::default(),
        }
    }

    /// Enable the client DNS cache (capacity 8 per Table 6).
    pub fn with_dns_cache(mut self) -> Self {
        self.dns_cache = Some(DnsCache::new(8));
        self
    }

    /// Enable the client CoAP response cache (capacity 8 per Table 6).
    pub fn with_coap_cache(mut self) -> Self {
        self.coap_cache = Some(ResponseCache::new(8));
        self
    }

    /// The configured method.
    pub fn method(&self) -> DocMethod {
        self.method
    }

    /// Start resolving `question`. `mid`/`token` are allocated by the
    /// caller's CoAP endpoint.
    pub fn begin_query(
        &mut self,
        question: Question,
        mid: u16,
        token: Vec<u8>,
        now_ms: u64,
    ) -> Result<QueryOutcome, DocError> {
        self.stats.queries += 1;
        // 1. Client DNS cache.
        if let Some(cache) = &mut self.dns_cache {
            if let Some(answer) = cache.lookup(&question, now_ms) {
                self.stats.dns_cache_hits += 1;
                return Ok(QueryOutcome::Answered(answer));
            }
        }
        // 2. Build the canonical request.
        let mut dns_query = Message::query(0, question.qname.clone(), question.qtype);
        dns_query.canonicalize_id();
        let mut req = build_request(
            self.method,
            &dns_query.encode(),
            MsgType::Con,
            mid,
            token.clone(),
        )?;
        let key = cache_key(&req);
        // 3. Client CoAP cache (only for cacheable methods).
        if self.method.cacheable() {
            if let Some(cache) = &mut self.coap_cache {
                let (mut reply, mut etag) = (Vec::new(), Vec::new());
                match cache.lookup_into(&key, now_ms, CACHE_READER, &mut reply, &mut etag) {
                    Probe::Hit => {
                        self.stats.coap_cache_hits += 1;
                        let answer = self.decode_reply(&reply)?;
                        if let Some(dc) = &mut self.dns_cache {
                            dc.insert(question.clone(), answer.clone(), now_ms);
                        }
                        return Ok(QueryOutcome::Answered(answer));
                    }
                    Probe::Stale => {
                        req.set_option(CoapOption::new(OptionNumber::ETAG, etag));
                        self.stats.revalidations_sent += 1;
                    }
                    Probe::Miss | Probe::StaleNoEtag => {}
                }
            }
        }
        self.pending
            .insert(token, PendingExchange { question, key });
        Ok(QueryOutcome::SendRequest(Box::new(req)))
    }

    /// Process a DoC response for `token`; returns the resolved DNS
    /// message with restored TTLs.
    pub fn handle_response(
        &mut self,
        token: &[u8],
        resp: &CoapMessage,
        now_ms: u64,
    ) -> Result<Message, DocError> {
        let pending = self
            .pending
            .remove(token)
            .ok_or(DocError::UnknownExchange)?;
        let answer = match resp.code {
            Code::CONTENT => {
                self.stats.full_responses += 1;
                if self.method.cacheable() {
                    if let Some(cache) = &mut self.coap_cache {
                        let wire = wire_without_token(resp);
                        if let Ok(view) = CoapView::parse(&wire) {
                            cache.insert_wire(&pending.key, &view, now_ms);
                        }
                    }
                }
                self.decode_response(&resp.payload, resp.max_age())?
            }
            Code::VALID => {
                // 2.03: refresh the stale entry and serve it.
                let (wire, mut reply) = (wire_without_token(resp), Vec::new());
                let refreshed = match (&mut self.coap_cache, CoapView::parse(&wire)) {
                    (Some(cache), Ok(valid)) => cache.revalidate_wire(
                        &pending.key,
                        &valid,
                        now_ms,
                        CACHE_READER,
                        &mut reply,
                    ),
                    _ => false,
                };
                if !refreshed {
                    return Err(DocError::UnknownExchange);
                }
                self.stats.revalidated += 1;
                self.decode_reply(&reply)?
            }
            _ => return Err(DocError::BadDnsMessage),
        };
        if let Some(dc) = &mut self.dns_cache {
            dc.insert(pending.question, answer.clone(), now_ms);
        }
        Ok(answer)
    }

    /// Whether a timed-out token was pending (removes it).
    pub fn fail_exchange(&mut self, token: &[u8]) -> bool {
        self.pending.remove(token).is_some()
    }

    /// The DNS answer a cached reply's wire carries.
    fn decode_reply(&self, reply: &[u8]) -> Result<Message, DocError> {
        let reply = CoapView::parse(reply).map_err(|_| DocError::BadDnsMessage)?;
        self.decode_response(reply.payload(), reply.max_age())
    }

    /// Decode a DoC response payload and restore its TTLs from Max-Age.
    fn decode_response(&self, payload: &[u8], max_age: u32) -> Result<Message, DocError> {
        let mut msg = Message::decode(payload).map_err(|_| DocError::BadDnsMessage)?;
        restore_ttls(self.policy, &mut msg, max_age);
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{DocServer, MockUpstream};
    use doc_dns::{Message, Name, RecordType};

    fn name() -> Name {
        Name::parse("name-01234.c.example.org").unwrap()
    }

    fn question() -> Question {
        Question::new(name(), RecordType::Aaaa)
    }

    fn server(policy: CachePolicy, ttl: u32) -> DocServer {
        let up = MockUpstream::new(1, ttl, ttl);
        up.add_aaaa(name(), 1);
        DocServer::new(policy, up)
    }

    /// Full client↔server exchange helper.
    fn resolve_once(client: &mut DocClient, server: &mut DocServer, mid: u16, now: u64) -> Message {
        match client
            .begin_query(question(), mid, vec![mid as u8, 1], now)
            .unwrap()
        {
            QueryOutcome::Answered(m) => m,
            QueryOutcome::SendRequest(req) => {
                let resp = server.handle_request(&req, now);
                client.handle_response(&req.token, &resp, now).unwrap()
            }
        }
    }

    #[test]
    fn basic_resolution_restores_ttls_eol() {
        let mut c = DocClient::new(DocMethod::Fetch, CachePolicy::EolTtls);
        let mut s = server(CachePolicy::EolTtls, 300);
        let answer = resolve_once(&mut c, &mut s, 1, 0);
        assert_eq!(answer.answers.len(), 1);
        // EOL zeroed the wire TTL; client restored it from Max-Age.
        assert_eq!(answer.answers[0].ttl, 300);
    }

    #[test]
    fn basic_resolution_doh_like() {
        let mut c = DocClient::new(DocMethod::Fetch, CachePolicy::DohLike);
        let mut s = server(CachePolicy::DohLike, 300);
        let answer = resolve_once(&mut c, &mut s, 1, 0);
        assert_eq!(answer.answers[0].ttl, 300);
    }

    #[test]
    fn dns_cache_hit_avoids_network() {
        let mut c = DocClient::new(DocMethod::Fetch, CachePolicy::EolTtls).with_dns_cache();
        let mut s = server(CachePolicy::EolTtls, 300);
        resolve_once(&mut c, &mut s, 1, 0);
        // Second query shortly after: served locally.
        match c.begin_query(question(), 2, vec![2, 1], 5_000).unwrap() {
            QueryOutcome::Answered(m) => {
                // TTL decremented by elapsed time.
                assert_eq!(m.answers[0].ttl, 295);
            }
            other => panic!("expected local answer, got {other:?}"),
        }
        assert_eq!(c.stats.dns_cache_hits, 1);
    }

    #[test]
    fn dns_cache_expires() {
        let mut c = DocClient::new(DocMethod::Fetch, CachePolicy::EolTtls).with_dns_cache();
        let mut s = server(CachePolicy::EolTtls, 2);
        resolve_once(&mut c, &mut s, 1, 0);
        // After 3 s the entry is gone: must go to the network.
        match c.begin_query(question(), 2, vec![2, 1], 3_000).unwrap() {
            QueryOutcome::SendRequest(_) => {}
            other => panic!("expected network query, got {other:?}"),
        }
    }

    #[test]
    fn coap_cache_hit_fresh() {
        let mut c = DocClient::new(DocMethod::Fetch, CachePolicy::EolTtls).with_coap_cache();
        let mut s = server(CachePolicy::EolTtls, 300);
        resolve_once(&mut c, &mut s, 1, 0);
        match c.begin_query(question(), 2, vec![2, 1], 10_000).unwrap() {
            QueryOutcome::Answered(m) => {
                // Max-Age 300 − 10 s elapsed = 290 restored as TTL.
                assert_eq!(m.answers[0].ttl, 290);
            }
            other => panic!("expected CoAP cache hit, got {other:?}"),
        }
        assert_eq!(c.stats.coap_cache_hits, 1);
    }

    #[test]
    fn coap_cache_revalidation_roundtrip() {
        let mut c = DocClient::new(DocMethod::Fetch, CachePolicy::EolTtls).with_coap_cache();
        let mut s = server(CachePolicy::EolTtls, 2);
        resolve_once(&mut c, &mut s, 1, 0);
        // 3 s later: entry stale; client must revalidate with ETag.
        let req = match c.begin_query(question(), 2, vec![2, 1], 3_000).unwrap() {
            QueryOutcome::SendRequest(r) => r,
            other => panic!("expected revalidation, got {other:?}"),
        };
        assert!(req.option(OptionNumber::ETAG).is_some());
        assert_eq!(c.stats.revalidations_sent, 1);
        let resp = s.handle_request(&req, 3_000);
        assert_eq!(resp.code, Code::VALID, "EOL TTLs revalidates");
        let answer = c.handle_response(&req.token, &resp, 3_000).unwrap();
        assert_eq!(answer.answers.len(), 1);
        assert_eq!(c.stats.revalidated, 1);
        // TTL restored from the fresh Max-Age (2 s).
        assert_eq!(answer.answers[0].ttl, 2);
    }

    #[test]
    fn doh_like_revalidation_fails_full_transfer() {
        // Timeline mirrors Fig. 3: our entry is cached at t=0 (TTL 5);
        // another client refreshes the upstream at t=7 s; when we
        // revalidate at t=9 s the upstream's remaining TTL (3 s) has
        // decayed, so the DoH-like payload — and its ETag — changed.
        let mut c = DocClient::new(DocMethod::Fetch, CachePolicy::DohLike).with_coap_cache();
        let mut s = server(CachePolicy::DohLike, 5);
        resolve_once(&mut c, &mut s, 1, 0);
        let other = crate::method::build_request(
            DocMethod::Fetch,
            &{
                let mut q = Message::query(0, name(), RecordType::Aaaa);
                q.canonicalize_id();
                q.encode()
            },
            doc_coap::msg::MsgType::Con,
            77,
            vec![77],
        )
        .unwrap();
        s.handle_request(&other, 7_000); // C2 refreshes the RRset
        let req = match c.begin_query(question(), 2, vec![2, 1], 9_000).unwrap() {
            QueryOutcome::SendRequest(r) => r,
            other => panic!("{other:?}"),
        };
        assert!(req.option(OptionNumber::ETAG).is_some());
        let resp = s.handle_request(&req, 9_000);
        assert_eq!(resp.code, Code::CONTENT, "DoH-like must resend in full");
        let answer = c.handle_response(&req.token, &resp, 9_000).unwrap();
        assert!(!answer.answers.is_empty());
        assert_eq!(c.stats.full_responses, 2);
    }

    #[test]
    fn post_never_caches() {
        let mut c = DocClient::new(DocMethod::Post, CachePolicy::EolTtls).with_coap_cache();
        let mut s = server(CachePolicy::EolTtls, 300);
        resolve_once(&mut c, &mut s, 1, 0);
        match c.begin_query(question(), 2, vec![2, 1], 1_000).unwrap() {
            QueryOutcome::SendRequest(req) => {
                assert!(req.option(OptionNumber::ETAG).is_none());
            }
            other => panic!("POST must always hit the network, got {other:?}"),
        }
        assert_eq!(c.stats.coap_cache_hits, 0);
    }

    #[test]
    fn get_caches_too() {
        let mut c = DocClient::new(DocMethod::Get, CachePolicy::EolTtls).with_coap_cache();
        let mut s = server(CachePolicy::EolTtls, 300);
        resolve_once(&mut c, &mut s, 1, 0);
        match c.begin_query(question(), 2, vec![2, 1], 1_000).unwrap() {
            QueryOutcome::Answered(_) => {}
            other => panic!("GET should cache, got {other:?}"),
        }
    }

    #[test]
    fn unknown_token_rejected() {
        let mut c = DocClient::new(DocMethod::Fetch, CachePolicy::EolTtls);
        let resp = CoapMessage::ack_response(
            &CoapMessage::request(Code::FETCH, MsgType::Con, 1, vec![9]),
            Code::CONTENT,
        );
        assert_eq!(
            c.handle_response(&[9], &resp, 0),
            Err(DocError::UnknownExchange)
        );
    }

    #[test]
    fn error_response_rejected() {
        let mut c = DocClient::new(DocMethod::Fetch, CachePolicy::EolTtls);
        let out = c.begin_query(question(), 1, vec![7], 0).unwrap();
        let req = match out {
            QueryOutcome::SendRequest(r) => r,
            other => panic!("{other:?}"),
        };
        let resp = CoapMessage::ack_response(&req, Code::NOT_FOUND);
        assert_eq!(
            c.handle_response(&req.token, &resp, 0),
            Err(DocError::BadDnsMessage)
        );
    }

    #[test]
    fn fail_exchange_clears_pending() {
        let mut c = DocClient::new(DocMethod::Fetch, CachePolicy::EolTtls);
        let out = c.begin_query(question(), 1, vec![7], 0).unwrap();
        assert!(matches!(out, QueryOutcome::SendRequest(_)));
        assert_eq!(c.pending.len(), 1);
        assert!(c.fail_exchange(&[7]));
        assert!(!c.fail_exchange(&[7]));
        assert_eq!(c.pending.len(), 0);
    }

    #[test]
    fn dns_cache_capacity_fifo() {
        let mut cache = DnsCache::new(2);
        for i in 0..3u16 {
            let n = Name::parse(&format!("n{i}.example.org")).unwrap();
            let q = Question::new(n.clone(), RecordType::Aaaa);
            let msg = Message::response(
                &Message::query(0, n.clone(), RecordType::Aaaa),
                doc_dns::Rcode::NoError,
                vec![doc_dns::Record::aaaa(n, 60, std::net::Ipv6Addr::LOCALHOST)],
            );
            cache.insert(q, msg, 0);
        }
        assert_eq!(cache.len(), 2);
        let q0 = Question::new(Name::parse("n0.example.org").unwrap(), RecordType::Aaaa);
        assert!(cache.lookup(&q0, 1).is_none(), "oldest evicted");
    }
}
