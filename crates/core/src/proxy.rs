//! A DoC-agnostic caching CoAP forward proxy — the node `P` of the
//! paper's Fig. 2/3.
//!
//! The proxy never parses DNS. It works purely on the CoAP caching
//! model: cache keys over method/options/payload, Max-Age freshness,
//! and ETag revalidation towards the origin. That is the point of the
//! paper's §4.2 design — and with OSCORE the proxy caches *encrypted*
//! responses it cannot read (Fig. 4b).
//!
//! Both legs of an exchange run wire in, wire out:
//! [`CoapProxy::serve_wire`] parses the client datagram as a borrowed
//! view and either encodes the reply (fresh hit) or hands back a
//! [`ForwardRequest`] that borrows the datagram;
//! [`CoapProxy::serve_upstream_wire`] parses the origin's reply as a
//! view, makes the one owned copy the cache stores, and encodes the
//! client reply. The owned-message entry points
//! ([`CoapProxy::handle_client_request`],
//! [`CoapProxy::handle_upstream_response`]) are encode → wire core →
//! decode wrappers around the same two calls.
//!
//! The proxy is **thread-safe**: every public method takes `&self`, so
//! an `Arc<CoapProxy>` can be shared across the workers of a
//! [`crate::pool`] front-end. Internally the response cache and the
//! outstanding-exchange table are lock-striped
//! ([`ShardedResponseCache`]/[`ShardedCache`]) and the statistics are
//! atomics; single-threaded callers pay only uncontended locks, and
//! with a single shard (the [`CoapProxy::new`] default) behaviour is
//! bit-identical to the historical unsharded proxy, FIFO eviction
//! included.

use doc_coap::cache::{
    cache_key_view_reusing, encode_valid_into, is_cacheable_method, CacheKey, Probe, ReplyTo,
};
use doc_coap::msg::{encode_header_into, CoapMessage, Code, MsgType};
use doc_coap::opt::OptionNumber;
use doc_coap::shard::{ShardedCache, ShardedResponseCache};
use doc_coap::view::CoapView;
use doc_coap::CoapError;
// Model-checkable atomics (passthrough to `std` outside `check_gate`
// executions — see `crates/check`).
use doc_check::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// What the proxy decided to do with a client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProxyAction {
    /// Serve this response straight back to the client.
    Respond(Box<CoapMessage>),
    /// Forward this (possibly rewritten) request upstream; correlate
    /// the upstream exchange with `exchange_id`.
    Forward {
        /// Request to send upstream (fresh MID/token set by caller's
        /// endpoint).
        request: Box<CoapMessage>,
        /// Correlation handle for [`CoapProxy::handle_upstream_response`].
        exchange_id: u64,
    },
}

/// What [`CoapProxy::serve_wire`] did with the request.
#[derive(Debug)]
pub enum WireAction<'a> {
    /// The reply wire was encoded into the caller's buffer.
    Responded,
    /// Forward this request upstream — the wire form of
    /// [`ProxyAction::Forward`].
    Forward {
        /// Request to send upstream, borrowing the client datagram.
        request: ForwardRequest<'a>,
        /// Correlation handle for [`CoapProxy::serve_upstream_wire`].
        exchange_id: u64,
    },
}

/// A request the proxy forwards upstream: the client's datagram, with
/// the cached ETag substituted on a revalidation. Nothing is copied
/// until [`ForwardRequest::encode_into`] writes the upstream wire.
#[derive(Debug, Clone, Copy)]
pub struct ForwardRequest<'a> {
    request: CoapView<'a>,
    /// The stale entry's ETag, sent instead of the client's.
    etag: Option<&'a [u8]>,
}

impl ForwardRequest<'_> {
    /// Append the upstream request wire: the client's request as it
    /// arrived, or on a revalidation the same message with every ETag
    /// replaced by the cached one.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let req = &self.request;
        match self.etag {
            None => req.encode_rekeyed_into(req.mtype, req.message_id, req.token(), out),
            Some(etag) => req.encode_replacing_into(OptionNumber::ETAG, etag, out),
        }
    }
}

/// Reusable per-caller scratch for [`CoapProxy::serve_wire`] — holds
/// the buffers the wire hot path would otherwise allocate per request.
#[derive(Debug, Default)]
pub struct ProxyScratch {
    /// Cache-key bytes, recycled between requests (see
    /// [`cache_key_view_reusing`]).
    key_buf: Vec<u8>,
    /// The ETag of a stale entry being revalidated.
    etag: Vec<u8>,
}

/// Proxy statistics (Fig. 10/11 cache events at `P`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Client requests processed.
    pub requests: u32,
    /// Served fresh from cache without upstream traffic.
    pub cache_hits: u32,
    /// Upstream revalidations attempted.
    pub revalidations: u32,
    /// `2.03 Valid` received (revalidation succeeded).
    pub revalidated: u32,
    /// Full fetches forwarded upstream.
    pub forwards: u32,
}

/// A client token held inline (the parser caps tokens at 8 bytes).
#[derive(Clone, Copy)]
struct Token {
    len: u8,
    bytes: [u8; 8],
}

impl Token {
    fn new(token: &[u8]) -> Self {
        let mut bytes = [0u8; 8];
        bytes[..token.len()].copy_from_slice(token);
        Token {
            len: token.len() as u8,
            bytes,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

/// A forwarded exchange awaiting the origin's reply: what the client
/// reply needs, and where to cache the response.
struct Outstanding {
    key: CacheKey,
    client_mid: u16,
    client_token: Token,
    method: Code,
    client_etag: Option<Box<[u8]>>,
    revalidating: bool,
}

/// Lock-free statistics counters behind the [`ProxyStats`] snapshot.
#[derive(Default)]
struct AtomicProxyStats {
    requests: AtomicU32,
    cache_hits: AtomicU32,
    revalidations: AtomicU32,
    revalidated: AtomicU32,
    forwards: AtomicU32,
}

impl AtomicProxyStats {
    fn snapshot(&self) -> ProxyStats {
        ProxyStats {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            revalidations: self.revalidations.load(Ordering::Relaxed),
            revalidated: self.revalidated.load(Ordering::Relaxed),
            forwards: self.forwards.load(Ordering::Relaxed),
        }
    }
}

/// Bump a counter by one (relaxed: counters are advisory statistics).
fn bump(c: &AtomicU32) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// The caching forward proxy.
pub struct CoapProxy {
    cache: ShardedResponseCache,
    outstanding: ShardedCache<u64, Outstanding>,
    next_exchange: AtomicU64,
    stats: AtomicProxyStats,
}

impl Default for CoapProxy {
    fn default() -> Self {
        Self::new(50)
    }
}

impl CoapProxy {
    /// Create a proxy with a cache of `capacity` entries (the paper's
    /// proxy uses `CONFIG_NANOCOAP_CACHE_ENTRIES = 50`, Table 6) on a
    /// single shard — observationally identical to the historical
    /// unsharded proxy, which the paper-reproduction experiments rely
    /// on.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 1)
    }

    /// Create a proxy whose response cache and exchange table are
    /// striped over `shards` locks — the scale-out configuration used
    /// by the [`crate::pool`] worker front-end. `capacity` is the
    /// *total* cache budget, split evenly across shards.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        CoapProxy {
            cache: ShardedResponseCache::new(capacity, shards),
            outstanding: ShardedCache::new(shards),
            next_exchange: AtomicU64::new(0),
            stats: AtomicProxyStats::default(),
        }
    }

    /// A snapshot of the proxy statistics.
    pub fn stats(&self) -> ProxyStats {
        self.stats.snapshot()
    }

    /// Cache statistics from the underlying response cache.
    pub fn cache_stats(&self) -> doc_coap::cache::CacheStats {
        self.cache.stats()
    }

    /// Handle a client request at time `now_ms`.
    ///
    /// Owned-message convenience wrapper over the wire path: the
    /// request is encoded once and handled by [`CoapProxy::serve_wire`],
    /// so both entry points exercise exactly the same logic (the
    /// serialize pass is the deliberate price for not maintaining two
    /// request handlers; latency-sensitive callers hold wire bytes
    /// already and call `serve_wire` directly). A message that cannot
    /// be represented on the wire (e.g. a token longer than 8 bytes) is
    /// answered `4.00 Bad Request` rather than processed — with the
    /// token truncated to 8 bytes so the reply itself stays encodable.
    pub fn handle_client_request(&self, req: &CoapMessage, now_ms: u64) -> ProxyAction {
        if req.token.len() > 8 {
            bump(&self.stats.requests);
            return ProxyAction::Respond(Box::new(CoapMessage::ack_reply(
                req.message_id,
                req.token[..8].to_vec(),
                Code::BAD_REQUEST,
            )));
        }
        let wire = req.encode();
        match self.handle_client_request_wire(&wire, now_ms) {
            Ok(action) => action,
            Err(_) => {
                bump(&self.stats.requests);
                ProxyAction::Respond(Box::new(CoapMessage::ack_reply(
                    req.message_id,
                    req.token.clone(),
                    Code::BAD_REQUEST,
                )))
            }
        }
    }

    /// Handle a client request straight from its datagram bytes, with
    /// the outcome as owned messages: a decode of what
    /// [`CoapProxy::serve_wire`] writes or forwards.
    pub fn handle_client_request_wire(
        &self,
        wire: &[u8],
        now_ms: u64,
    ) -> Result<ProxyAction, CoapError> {
        let mut out = Vec::new();
        Ok(
            match self.serve_wire(wire, now_ms, &mut ProxyScratch::default(), &mut out)? {
                WireAction::Responded => ProxyAction::Respond(Box::new(CoapMessage::decode(&out)?)),
                WireAction::Forward {
                    request,
                    exchange_id,
                } => {
                    request.encode_into(&mut out);
                    ProxyAction::Forward {
                        request: Box::new(CoapMessage::decode(&out)?),
                        exchange_id,
                    }
                }
            },
        )
    }

    /// The proxy's client leg, wire in and wire out. The request is
    /// parsed as a borrowed [`CoapView`] and its cache key derived into
    /// `scratch`'s recycled buffer. A fresh hit encodes the reply
    /// directly into `out` (cleared at entry) and allocates nothing. A
    /// miss, a stale entry or a non-cacheable method opens an exchange
    /// — its table entry holds an exact-size copy of the key and the
    /// client's identifiers inline — and returns the request to
    /// forward, borrowing `wire` (and, on a revalidation, the stale
    /// ETag in `scratch`).
    pub fn serve_wire<'a>(
        &self,
        wire: &'a [u8],
        now_ms: u64,
        scratch: &'a mut ProxyScratch,
        out: &mut Vec<u8>,
    ) -> Result<WireAction<'a>, CoapError> {
        let req = CoapView::parse(wire)?;
        bump(&self.stats.requests);
        let ProxyScratch { key_buf, etag } = scratch;
        let key = cache_key_view_reusing(&req, std::mem::take(key_buf));
        let client_etag = req.option(OptionNumber::ETAG).map(|o| o.value);
        let revalidating = if is_cacheable_method(req.code) {
            let to = ReplyTo {
                message_id: req.message_id,
                token: req.token(),
                etag: client_etag,
            };
            match self.cache.lookup_into(&key, now_ms, to, out, etag) {
                Probe::Hit => {
                    bump(&self.stats.cache_hits);
                    *key_buf = key.into_bytes();
                    return Ok(WireAction::Responded);
                }
                Probe::Stale => {
                    bump(&self.stats.revalidations);
                    true
                }
                Probe::Miss | Probe::StaleNoEtag => {
                    bump(&self.stats.forwards);
                    false
                }
            }
        } else {
            // POST etc.: pure pass-through.
            bump(&self.stats.forwards);
            false
        };
        let exchange_id = self.next_exchange.fetch_add(1, Ordering::Relaxed);
        self.outstanding.insert(
            exchange_id,
            Outstanding {
                key: key.clone(),
                client_mid: req.message_id,
                client_token: Token::new(req.token()),
                method: req.code,
                client_etag: client_etag.map(Box::from),
                revalidating,
            },
        );
        *key_buf = key.into_bytes();
        let etag: &'a Vec<u8> = etag;
        Ok(WireAction::Forward {
            request: ForwardRequest {
                request: req,
                etag: revalidating.then_some(etag.as_slice()),
            },
            exchange_id,
        })
    }

    /// Handle the upstream's response for `exchange_id`; returns the
    /// response to relay to the client (None if the exchange is
    /// unknown). Owned-message wrapper over
    /// [`CoapProxy::serve_upstream_wire`].
    pub fn handle_upstream_response(
        &self,
        exchange_id: u64,
        resp: &CoapMessage,
        now_ms: u64,
    ) -> Option<CoapMessage> {
        // The relay is re-keyed to the client's token, so the upstream
        // token never reaches the client: one the wire cannot carry is
        // dropped instead of failing the encode.
        let wire = if resp.token.len() <= 8 {
            resp.encode()
        } else {
            CoapMessage {
                token: Vec::new(),
                ..resp.clone()
            }
            .encode()
        };
        let mut out = Vec::new();
        match self.serve_upstream_wire(exchange_id, &wire, now_ms, &mut out) {
            Ok(true) => CoapMessage::decode(&out).ok(),
            Ok(false) | Err(_) => None,
        }
    }

    /// The proxy's origin leg, wire in and wire out: parse the origin's
    /// reply `wire` for `exchange_id` as a borrowed view, close the
    /// exchange and encode the client reply into `out` (cleared at
    /// entry). Returns `Ok(false)` for an unknown exchange and an error
    /// (leaving the exchange open) for a datagram that is not CoAP.
    ///
    /// * `2.03 Valid` to a revalidation refreshes the cache entry and
    ///   serves it like a hit (`5.02 Bad Gateway` if it was evicted
    ///   meanwhile).
    /// * Any other success is relayed; a `2.05 Content` to a cacheable
    ///   method is also cached — the one owned copy of the reply.
    /// * Errors pass through unchanged, re-keyed to the client.
    ///
    /// A success whose ETag the client already holds becomes a
    /// payload-free `2.03 Valid`.
    pub fn serve_upstream_wire(
        &self,
        exchange_id: u64,
        wire: &[u8],
        now_ms: u64,
        out: &mut Vec<u8>,
    ) -> Result<bool, CoapError> {
        let resp = CoapView::parse(wire)?;
        let Some(ex) = self.outstanding.remove(&exchange_id) else {
            return Ok(false);
        };
        out.clear();
        let to = ReplyTo {
            message_id: ex.client_mid,
            token: ex.client_token.as_slice(),
            etag: ex.client_etag.as_deref(),
        };
        match resp.code {
            Code::VALID if ex.revalidating => {
                bump(&self.stats.revalidated);
                if !self.cache.revalidate_wire(&ex.key, &resp, now_ms, to, out) {
                    // Entry evicted meanwhile: degrade to an error the
                    // client will retry.
                    encode_header_into(
                        MsgType::Ack,
                        Code::BAD_GATEWAY,
                        to.message_id,
                        to.token,
                        out,
                    );
                }
            }
            code if code.is_success() => {
                if is_cacheable_method(ex.method) && code == Code::CONTENT {
                    // The stored copy leaves out the origin's token: a
                    // cached reply is always re-addressed to the client
                    // it serves.
                    let stored = CoapMessage {
                        mtype: resp.mtype,
                        code,
                        message_id: resp.message_id,
                        token: Vec::new(),
                        options: resp.options().map(|o| o.to_owned()).collect(),
                        payload: resp.payload().to_vec(),
                    };
                    self.cache.insert(ex.key, stored, now_ms);
                }
                let etag = resp.option(OptionNumber::ETAG).map(|o| o.value);
                match etag.filter(|e| to.holds(e)) {
                    Some(etag) => encode_valid_into(to, etag, resp.max_age(), out),
                    None => resp.encode_rekeyed_into(MsgType::Ack, to.message_id, to.token, out),
                }
            }
            // Error responses pass through unchanged (re-keyed to the
            // client's exchange).
            _ => resp.encode_rekeyed_into(resp.mtype, to.message_id, to.token, out),
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::{build_request, DocMethod};
    use crate::policy::CachePolicy;
    use crate::server::{DocServer, MockUpstream, ServerScratch};
    use doc_coap::opt::CoapOption;
    use doc_dns::{Message, Name, RecordType};

    fn name() -> Name {
        Name::parse("name-01234.c.example.org").unwrap()
    }

    fn query_bytes() -> Vec<u8> {
        let mut q = Message::query(0, name(), RecordType::Aaaa);
        q.canonicalize_id();
        q.encode()
    }

    fn fetch_req(mid: u16) -> CoapMessage {
        build_request(
            DocMethod::Fetch,
            &query_bytes(),
            MsgType::Con,
            mid,
            vec![mid as u8, 0xCC],
        )
        .unwrap()
    }

    fn doc_server(policy: CachePolicy, ttl: u32) -> DocServer {
        let up = MockUpstream::new(5, ttl, ttl);
        up.add_aaaa(name(), 1);
        DocServer::new(policy, up)
    }

    /// Drive request → proxy → server → proxy → response.
    fn via_proxy(
        proxy: &CoapProxy,
        server: &DocServer,
        req: &CoapMessage,
        now: u64,
    ) -> CoapMessage {
        match proxy.handle_client_request(req, now) {
            ProxyAction::Respond(resp) => *resp,
            ProxyAction::Forward {
                request,
                exchange_id,
            } => {
                let upstream_resp = server.handle_request(&request, now);
                proxy
                    .handle_upstream_response(exchange_id, &upstream_resp, now)
                    .expect("known exchange")
            }
        }
    }

    #[test]
    fn miss_then_hit() {
        let proxy = CoapProxy::new(8);
        let server = doc_server(CachePolicy::EolTtls, 300);
        let r1 = via_proxy(&proxy, &server, &fetch_req(1), 0);
        assert_eq!(r1.code, Code::CONTENT);
        assert_eq!(proxy.stats().forwards, 1);
        // Second client request: cache hit, no upstream traffic.
        let r2 = via_proxy(&proxy, &server, &fetch_req(2), 10_000);
        assert_eq!(r2.code, Code::CONTENT);
        assert_eq!(proxy.stats().cache_hits, 1);
        assert_eq!(server.stats().requests, 1, "server not contacted again");
        // Max-Age was decremented by the proxy.
        assert_eq!(r2.max_age(), 290);
        // Token/MID belong to the second client exchange.
        assert_eq!(r2.token, fetch_req(2).token);
    }

    /// The wire entry point (borrowed-view hot path) behaves exactly
    /// like the owned one: miss → forward, hit → cached reply with the
    /// second client's exchange identifiers.
    #[test]
    fn miss_then_hit_on_wire_path() {
        let proxy = CoapProxy::new(8);
        let server = doc_server(CachePolicy::EolTtls, 300);
        let wire1 = fetch_req(1).encode();
        let action = proxy.handle_client_request_wire(&wire1, 0).unwrap();
        let r1 = match action {
            ProxyAction::Forward {
                request,
                exchange_id,
            } => {
                let upstream = server.handle_request(&request, 0);
                proxy
                    .handle_upstream_response(exchange_id, &upstream, 0)
                    .unwrap()
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(r1.code, Code::CONTENT);
        // Second request hits the cache without any owned decode.
        let wire2 = fetch_req(2).encode();
        let r2 = match proxy.handle_client_request_wire(&wire2, 10_000).unwrap() {
            ProxyAction::Respond(resp) => *resp,
            other => panic!("{other:?}"),
        };
        assert_eq!(r2.code, Code::CONTENT);
        assert_eq!(proxy.stats().cache_hits, 1);
        assert_eq!(r2.token, fetch_req(2).token);
        assert_eq!(r2.message_id, fetch_req(2).message_id);
        assert_eq!(r2.max_age(), 290);
        // Malformed datagrams are rejected, not panicked on.
        assert!(proxy.handle_client_request_wire(&[0xFF, 0x01], 0).is_err());
    }

    /// The wire chain (`serve_wire` → `ForwardRequest::encode_into` →
    /// `DocServer::serve_wire` → `serve_upstream_wire`, on reused
    /// buffers) is observationally identical to the owned entry points:
    /// byte-identical forwards and replies, same statistics. The
    /// sequence covers miss, hit, client-ETag 2.03 from the cache, POST
    /// pass-through, stale → revalidate → 2.03 from the origin (served
    /// in full, then to a client holding the ETag), and an origin error
    /// passed through.
    #[test]
    fn serve_wire_matches_wire_entry_point() {
        let mk = || (CoapProxy::new(8), doc_server(CachePolicy::EolTtls, 5));
        let (p_new, s_new) = mk();
        let (p_ref, s_ref) = mk();
        let mut scratch = ProxyScratch::default();
        let mut server_scratch = ServerScratch::default();
        let (mut out, mut fwd, mut up) = (Vec::new(), Vec::new(), Vec::new());
        let with_etag = |mut req: CoapMessage, etag: &[u8]| {
            req.set_option(CoapOption::new(OptionNumber::ETAG, etag.to_vec()));
            req
        };
        let etag = via_proxy(&mk().0, &mk().1, &fetch_req(1), 0)
            .option(OptionNumber::ETAG)
            .unwrap()
            .value
            .clone();
        let post = build_request(
            DocMethod::Post,
            &query_bytes(),
            MsgType::Con,
            4,
            vec![4, 0xCC],
        )
        .unwrap();
        let bad_dns =
            build_request(DocMethod::Fetch, &[1, 2, 3], MsgType::Non, 8, vec![8]).unwrap();
        // (request, time, whether it is another client's query straight
        // to the origin — Fig. 3 step 3's refresh).
        let steps = [
            (fetch_req(1), 0u64, false),
            (fetch_req(2), 1_000, false),
            (with_etag(fetch_req(3), &etag), 2_000, false),
            (post, 2_100, false),
            (fetch_req(9), 7_000, true),
            (fetch_req(5), 9_000, false),
            (with_etag(fetch_req(6), &etag), 20_000, false),
            (bad_dns, 21_000, false),
        ];
        for (req, now, origin_only) in &steps {
            let wire = req.encode();
            if *origin_only {
                s_new
                    .serve_wire(9, &wire, *now, &mut server_scratch, &mut up)
                    .unwrap();
                s_ref.handle_request_from(9, req, *now);
                continue;
            }
            let expect_fwd = match p_ref.handle_client_request(req, *now) {
                ProxyAction::Respond(resp) => {
                    match p_new
                        .serve_wire(&wire, *now, &mut scratch, &mut out)
                        .unwrap()
                    {
                        WireAction::Responded => {}
                        other => panic!("now {now}: {other:?}"),
                    }
                    assert_eq!(out, resp.encode(), "now {now}");
                    continue;
                }
                ProxyAction::Forward {
                    request,
                    exchange_id,
                } => {
                    let upstream = s_ref.handle_request(&request, *now);
                    let reply = p_ref
                        .handle_upstream_response(exchange_id, &upstream, *now)
                        .unwrap();
                    (request.encode(), reply.encode())
                }
            };
            let (request, exchange_id) = match p_new
                .serve_wire(&wire, *now, &mut scratch, &mut out)
                .unwrap()
            {
                WireAction::Forward {
                    request,
                    exchange_id,
                } => (request, exchange_id),
                other => panic!("now {now}: {other:?}"),
            };
            fwd.clear();
            request.encode_into(&mut fwd);
            assert_eq!(fwd, expect_fwd.0, "forward at {now}");
            s_new
                .serve_wire(0, &fwd, *now, &mut server_scratch, &mut up)
                .unwrap();
            out.push(0xAA); // stale bytes must be cleared
            assert_eq!(
                p_new.serve_upstream_wire(exchange_id, &up, *now, &mut out),
                Ok(true)
            );
            assert_eq!(out, expect_fwd.1, "reply at {now}");
        }
        let decoded = |w: &[u8]| CoapMessage::decode(w).unwrap();
        assert_eq!(
            decoded(&out).code,
            Code::BAD_REQUEST,
            "origin error relayed"
        );
        assert_eq!(
            decoded(&out).mtype,
            MsgType::Ack,
            "relay keeps the origin's type"
        );
        assert_eq!(p_new.stats(), p_ref.stats());
        assert_eq!(p_new.stats().revalidations, 2);
        assert_eq!(p_new.stats().revalidated, 2);
        assert_eq!(p_new.cache_stats(), p_ref.cache_stats());
        assert_eq!(s_new.stats(), s_ref.stats());
        // Malformed datagrams error out, not panic; a reply for an
        // unknown exchange is ignored.
        assert!(p_new
            .serve_wire(&[0xFF, 0x01], 0, &mut scratch, &mut out)
            .is_err());
        assert!(p_new.serve_upstream_wire(1, &[0xFF], 0, &mut out).is_err());
        assert_eq!(p_new.serve_upstream_wire(99, &up, 0, &mut out), Ok(false));
    }

    #[test]
    fn stale_entry_revalidates_eol() {
        let proxy = CoapProxy::new(8);
        let server = doc_server(CachePolicy::EolTtls, 5);
        via_proxy(&proxy, &server, &fetch_req(1), 0);
        // Another client refreshes the RRset at the origin at t=7 s.
        server.handle_request(&fetch_req(9), 7_000);
        // At t=9 s the proxy entry is stale; EOL TTLs lets the upstream
        // confirm with 2.03 and the proxy serves the cached body.
        let r = via_proxy(&proxy, &server, &fetch_req(2), 9_000);
        assert_eq!(r.code, Code::CONTENT);
        assert!(!r.payload.is_empty());
        assert_eq!(proxy.stats().revalidations, 1);
        assert_eq!(proxy.stats().revalidated, 1);
        assert_eq!(server.stats().validations, 1);
        // Fresh (decayed) Max-Age propagated: 3 s remaining.
        assert_eq!(r.max_age(), 3);
    }

    #[test]
    fn stale_entry_full_fetch_doh_like() {
        let proxy = CoapProxy::new(8);
        let server = doc_server(CachePolicy::DohLike, 5);
        via_proxy(&proxy, &server, &fetch_req(1), 0);
        // Upstream TTL decays via another client's refresh (Fig. 3
        // step 3): the DoH-like payload changes.
        server.handle_request(&fetch_req(9), 7_000);
        let r = via_proxy(&proxy, &server, &fetch_req(2), 9_000);
        assert_eq!(r.code, Code::CONTENT);
        assert_eq!(proxy.stats().revalidations, 1);
        assert_eq!(proxy.stats().revalidated, 0, "DoH-like ETag broke");
        assert_eq!(server.stats().validations, 0);
        assert_eq!(server.stats().full_responses, 3);
    }

    /// Fig. 3 step 5: a client that already holds the representation
    /// (same ETag) gets a tiny 2.03 from the proxy cache.
    #[test]
    fn client_etag_match_gets_203_from_proxy() {
        let proxy = CoapProxy::new(8);
        let server = doc_server(CachePolicy::EolTtls, 300);
        let r1 = via_proxy(&proxy, &server, &fetch_req(1), 0);
        let etag = r1.option(OptionNumber::ETAG).unwrap().value.clone();
        let mut req2 = fetch_req(2);
        req2.set_option(CoapOption::new(OptionNumber::ETAG, etag));
        let r2 = via_proxy(&proxy, &server, &req2, 5_000);
        assert_eq!(r2.code, Code::VALID);
        assert!(r2.payload.is_empty());
        assert_eq!(r2.max_age(), 295);
    }

    #[test]
    fn post_bypasses_cache() {
        let proxy = CoapProxy::new(8);
        let server = doc_server(CachePolicy::EolTtls, 300);
        let mk = |mid: u16| {
            build_request(
                DocMethod::Post,
                &query_bytes(),
                MsgType::Con,
                mid,
                vec![mid as u8],
            )
            .unwrap()
        };
        via_proxy(&proxy, &server, &mk(1), 0);
        via_proxy(&proxy, &server, &mk(2), 1000);
        assert_eq!(proxy.stats().cache_hits, 0);
        assert_eq!(server.stats().requests, 2, "every POST reaches the origin");
    }

    #[test]
    fn error_responses_pass_through() {
        let proxy = CoapProxy::new(8);
        let req = fetch_req(1);
        let action = proxy.handle_client_request(&req, 0);
        let (fwd, id) = match action {
            ProxyAction::Forward {
                request,
                exchange_id,
            } => (request, exchange_id),
            other => panic!("{other:?}"),
        };
        let err = CoapMessage::ack_response(&fwd, Code::NOT_FOUND);
        let relay = proxy.handle_upstream_response(id, &err, 0).unwrap();
        assert_eq!(relay.code, Code::NOT_FOUND);
        assert_eq!(relay.token, req.token);
    }

    #[test]
    fn unknown_exchange_ignored() {
        let proxy = CoapProxy::new(8);
        let resp = CoapMessage::ack_response(&fetch_req(1), Code::CONTENT);
        assert!(proxy.handle_upstream_response(99, &resp, 0).is_none());
    }

    #[test]
    fn different_queries_different_entries() {
        let proxy = CoapProxy::new(8);
        let server = doc_server(CachePolicy::EolTtls, 300);
        server
            .upstream
            .add_aaaa(Name::parse("other.example.org").unwrap(), 1);
        via_proxy(&proxy, &server, &fetch_req(1), 0);
        // A query for a different name must miss.
        let mut q2 = Message::query(
            0,
            Name::parse("other.example.org").unwrap(),
            RecordType::Aaaa,
        );
        q2.canonicalize_id();
        let req2 = build_request(DocMethod::Fetch, &q2.encode(), MsgType::Con, 2, vec![2]).unwrap();
        via_proxy(&proxy, &server, &req2, 100);
        assert_eq!(proxy.stats().forwards, 2);
        assert_eq!(proxy.stats().cache_hits, 0);
    }
}
