//! The DoC server and its mock recursive-resolver upstream.
//!
//! The server terminates DoC requests (FETCH/GET/POST), resolves them
//! against an upstream, applies a [`CachePolicy`] to align TTLs with
//! CoAP freshness, and supports ETag revalidation with `2.03 Valid`
//! responses and Block2 slicing of large responses.
//!
//! The request path runs wire in, wire out ([`DocServer::serve_wire`]):
//! request and query are borrowed views, the upstream writes the
//! prepared answer straight from its zone into a reusable buffer
//! ([`MockUpstream::answer_into`]), and the reply is assembled field by
//! field — the owned-message entry points decode what it writes.
//!
//! The upstream mirrors the paper's setup: "The recursive resolver is
//! mocked up to generate the desired responses" — a programmable zone
//! whose records refresh their TTLs on expiry (uniformly drawn from a
//! configured range, e.g. the 2–8 s of §6.1), which is precisely the
//! behaviour that makes DoH-like ETags churn.
//!
//! Both the server and the mock upstream are **thread-safe**: every
//! public method takes `&self`, so an `Arc<DocServer>` can back the
//! workers of a [`crate::pool`] front-end. The upstream's resource
//! table (zone + per-RRset TTL state) is lock-striped behind a
//! [`ShardedCache`], its xorshift state is an atomic (the draw
//! sequence is unchanged for single-threaded drivers, so seeded
//! experiments stay bit-identical), the block-wise transfer tables are
//! sharded by `(peer, token)`, and the statistics are atomics exposed
//! through snapshot accessors.

use crate::method::extract_query_view;
use crate::policy::CachePolicy;
use crate::{DocError, CONTENT_FORMAT_DNS_MESSAGE};
use doc_coap::block::{Block2Server, BlockAssembler, BlockOpt};
use doc_coap::cache::{encode_valid_into, ReplyTo};
use doc_coap::msg::{
    encode_header_into, encode_payload_into, encode_raw_option_into, encode_uint_option_into,
    CoapMessage, Code, MsgType,
};
use doc_coap::opt::OptionNumber;
use doc_coap::shard::ShardedCache;
use doc_coap::view::CoapView;
use doc_coap::CoapError;
use doc_dns::name::{encode_labels_compressed, MAX_LABELS, MAX_NAME_LEN};
use doc_dns::view::MessageView;
use doc_dns::{
    CompressionMap, Header, Message, Name, Rcode, Record, RecordClass, RecordData, RecordType,
};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// One RRset of the mock zone: the records plus the TTL state machine
/// (absolute expiry of the current TTL draw; 0 = not yet drawn).
struct Rrset {
    /// Records in registration order — the order `resolve` answers in.
    data: Vec<RecordData>,
    /// `data` indices in answer order (by RDATA wire bytes, ties in
    /// registration order: what `Message::sort_answers` does to one
    /// RRset); empty when that is registration order.
    order: Box<[u16]>,
    expires_at_ms: u64,
}

impl Rrset {
    fn new(data: Vec<RecordData>, expires_at_ms: u64) -> Self {
        Rrset {
            order: Self::answer_order(&data),
            data,
            expires_at_ms,
        }
    }

    /// The `order` of `data`: empty when registration order is already
    /// answer order.
    fn answer_order(data: &[RecordData]) -> Box<[u16]> {
        if data.len() < 2 {
            return Box::default();
        }
        let index = |i: usize| u16::try_from(i).expect("an RRset fits one DNS message");
        let mut keyed: Vec<(Vec<u8>, u16)> = data
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let mut wire = Vec::with_capacity(d.encoded_len());
                d.encode(&mut wire);
                (wire, index(i))
            })
            .collect();
        keyed.sort();
        let identity = keyed
            .iter()
            .enumerate()
            .all(|(i, &(_, j))| usize::from(j) == i);
        if identity {
            Box::default()
        } else {
            keyed.into_iter().map(|(_, j)| j).collect()
        }
    }

    /// The records in answer order.
    fn sorted(&self) -> impl Iterator<Item = &RecordData> {
        (0..self.data.len()).map(move |i| match self.order.get(i) {
            Some(&j) => &self.data[usize::from(j)],
            None => &self.data[i],
        })
    }
}

/// A zone key built on the stack: the name's lowercased uncompressed
/// wire form followed by the big-endian record type. The zone stores
/// these bytes boxed, so a lookup needs no owned key.
struct ZoneKey {
    bytes: [u8; MAX_NAME_LEN + 2],
    len: usize,
}

impl ZoneKey {
    /// Build from a validated name's labels (wire form at most
    /// [`MAX_NAME_LEN`] bytes — every `Name` and `NameRef` is).
    fn new<'l>(labels: impl Iterator<Item = &'l [u8]>, rtype: RecordType) -> Self {
        let mut key = ZoneKey {
            bytes: [0; MAX_NAME_LEN + 2],
            len: 0,
        };
        for label in labels {
            let end = key.len + 1 + label.len();
            key.bytes[key.len] = label.len() as u8;
            key.bytes[key.len + 1..end].copy_from_slice(label);
            key.bytes[key.len + 1..end].make_ascii_lowercase();
            key.len = end;
        }
        key.bytes[key.len] = 0;
        key.bytes[key.len + 1..key.len + 3].copy_from_slice(&rtype.to_u16().to_be_bytes());
        key.len += 3;
        key
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// Append the (lowercase) name, compressed against `table`.
    fn encode_name(&self, msg: &mut Vec<u8>, table: &mut CompressionMap) {
        let mut labels: [&[u8]; MAX_LABELS] = [&[]; MAX_LABELS];
        let (mut n, mut pos) = (0, 0);
        while let Some(&len) = self.bytes.get(pos).filter(|&&l| l != 0) {
            labels[n] = &self.bytes[pos + 1..pos + 1 + usize::from(len)];
            n += 1;
            pos += 1 + usize::from(len);
        }
        encode_labels_compressed(&labels[..n], msg, table);
    }
}

/// One xorshift64 step (shared by the upstream's atomic RNG).
fn xorshift64(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

/// A programmable mock recursive resolver.
pub struct MockUpstream {
    /// The resource table: zone data + TTL state keyed by [`ZoneKey`]
    /// bytes, lock-striped so concurrent workers resolving different
    /// names never contend.
    zone: ShardedCache<Box<[u8]>, Rrset>,
    ttl_min: u32,
    ttl_max: u32,
    rng: AtomicU64,
    ns_queries: AtomicU32,
    cache_hits: AtomicU32,
}

impl MockUpstream {
    /// Create an upstream whose record TTLs refresh uniformly within
    /// `[ttl_min, ttl_max]` seconds.
    pub fn new(seed: u64, ttl_min: u32, ttl_max: u32) -> Self {
        Self::with_shards(seed, ttl_min, ttl_max, 8)
    }

    /// Like [`MockUpstream::new`], with the resource table striped over
    /// `shards` locks (rounded up to a power of two) — the scale-out
    /// knob for multi-worker front-ends.
    pub fn with_shards(seed: u64, ttl_min: u32, ttl_max: u32, shards: usize) -> Self {
        assert!(ttl_min <= ttl_max && ttl_min > 0);
        MockUpstream {
            zone: ShardedCache::new(shards),
            ttl_min,
            ttl_max,
            rng: AtomicU64::new(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1),
            ns_queries: AtomicU32::new(0),
            cache_hits: AtomicU32::new(0),
        }
    }

    /// Number of resolutions that had to "contact the name server"
    /// (TTL expired) — the NS-query events of Fig. 3.
    pub fn ns_queries(&self) -> u32 {
        self.ns_queries.load(Ordering::Relaxed)
    }

    /// Number of resolutions served from the mock's own cache.
    pub fn cache_hits(&self) -> u32 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Draw the next xorshift64* value. Same sequence as the historical
    /// single-threaded RNG; under concurrency each draw is still unique
    /// and uniform, just non-deterministically interleaved.
    fn rand(&self) -> u64 {
        let prev = self
            .rng
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |x| {
                Some(xorshift64(x))
            })
            .expect("fetch_update closure never fails");
        xorshift64(prev).wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Register an RRset. Re-registering an existing `(name, rtype)`
    /// replaces the record data but keeps the in-flight TTL window,
    /// matching the historical behaviour where record data and TTL
    /// state lived in separate maps.
    pub fn add_rrset(&self, name: Name, rtype: RecordType, data: Vec<RecordData>) {
        let key = ZoneKey::new(name.labels().iter().map(Vec::as_slice), rtype);
        let key = key.as_bytes();
        self.zone
            .with_shard_mut(key, |shard| match shard.get_mut(key) {
                Some(rrset) => *rrset = Rrset::new(data, rrset.expires_at_ms),
                None => {
                    shard.insert(key.into(), Rrset::new(data, 0));
                }
            });
    }

    /// Convenience: register `n` AAAA records `2001:db8::i` for a name.
    pub fn add_aaaa(&self, name: Name, n: u16) {
        let data = (1..=n)
            .map(|i| RecordData::Aaaa(std::net::Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i)))
            .collect();
        self.add_rrset(name, RecordType::Aaaa, data);
    }

    /// Convenience: register `n` A records `192.0.2.i` for a name.
    pub fn add_a(&self, name: Name, n: u8) {
        let data = (1..=n)
            .map(|i| RecordData::A(std::net::Ipv4Addr::new(192, 0, 2, i)))
            .collect();
        self.add_rrset(name, RecordType::A, data);
    }

    /// The TTL state machine every resolution runs: under the RRset's
    /// shard lock (so two workers cannot both decide to refresh it),
    /// serve the remaining TTL of the current draw or draw a new one,
    /// then hand the RRset and its remaining TTL in seconds to `f`.
    /// `None` if the zone has no RRset under `key`.
    fn with_rrset<R>(
        &self,
        key: &[u8],
        now_ms: u64,
        f: impl FnOnce(&Rrset, u32) -> R,
    ) -> Option<R> {
        self.zone.with_shard_mut(key, |shard| {
            let rrset = shard.get_mut(key)?;
            let remaining_ms = if rrset.expires_at_ms > now_ms {
                bump(&self.cache_hits);
                rrset.expires_at_ms - now_ms
            } else {
                bump(&self.ns_queries);
                let span = (self.ttl_max - self.ttl_min) as u64;
                let ttl_s = self.ttl_min as u64
                    + if span == 0 {
                        0
                    } else {
                        self.rand() % (span + 1)
                    };
                rrset.expires_at_ms = now_ms + ttl_s * 1000;
                ttl_s * 1000
            };
            Some(f(rrset, remaining_ms.div_ceil(1000) as u32))
        })
    }

    /// Resolve a DNS query at virtual time `now_ms`. Returns a response
    /// with *remaining* TTLs (the decrementing behaviour of a real
    /// recursive cache).
    pub fn resolve(&self, query: &Message, now_ms: u64) -> Message {
        let Some(q) = query.questions.first() else {
            return Message::response(query, Rcode::FormErr, vec![]);
        };
        let key = ZoneKey::new(q.qname.labels().iter().map(Vec::as_slice), q.qtype);
        let resolved = self.with_rrset(key.as_bytes(), now_ms, |rrset, ttl| {
            (rrset.data.clone(), ttl)
        });
        let Some((data, ttl)) = resolved else {
            return Message::response(query, Rcode::NxDomain, vec![]);
        };
        let answers: Vec<Record> = data
            .into_iter()
            .map(|d| Record {
                name: q.qname.clone(),
                rtype: q.qtype,
                rclass: RecordClass::In,
                ttl,
                data: d,
            })
            .collect();
        Message::response(query, Rcode::NoError, answers)
    }

    /// Resolve `query` at `now_ms` and write the DoC response prepared
    /// under `policy` into `out` (cleared first), returning its Max-Age.
    /// The bytes and the Max-Age are those of
    /// `prepare_response(policy, &self.resolve(&query.to_owned(), now_ms))`
    /// and the TTL state and draw sequence advance exactly as there;
    /// but the RRset is found by a key built on the stack and its sorted
    /// answers are written straight from the zone, so no `Name`,
    /// `Message` or record copy is built.
    pub fn answer_into(
        &self,
        query: &MessageView<'_>,
        policy: CachePolicy,
        now_ms: u64,
        out: &mut Vec<u8>,
    ) -> u32 {
        out.clear();
        // Header last (its rcode and answer count depend on the
        // lookup); compression offsets count from the message start.
        out.extend_from_slice(&[0; 12]);
        let mut table = CompressionMap::new();
        let mut first: Option<ZoneKey> = None;
        for q in query.questions() {
            let key = ZoneKey::new(q.qname.labels(), q.qtype);
            key.encode_name(out, &mut table);
            out.extend_from_slice(&q.qtype.to_u16().to_be_bytes());
            out.extend_from_slice(&q.qclass.to_u16().to_be_bytes());
            first.get_or_insert(key);
        }
        let (rcode, answers, max_age) = match &first {
            None => (Rcode::FormErr, 0, 0),
            Some(key) => {
                let answered = self.with_rrset(key.as_bytes(), now_ms, |rrset, ttl| {
                    let wire_ttl = match policy {
                        CachePolicy::EolTtls => 0,
                        CachePolicy::DohLike => ttl,
                    };
                    let rtype = &key.as_bytes()[key.len - 2..];
                    for data in rrset.sorted() {
                        key.encode_name(out, &mut table);
                        out.extend_from_slice(rtype);
                        out.extend_from_slice(&RecordClass::In.to_u16().to_be_bytes());
                        out.extend_from_slice(&wire_ttl.to_be_bytes());
                        let rdlen_at = out.len();
                        out.extend_from_slice(&[0, 0]);
                        data.encode(out);
                        let rdlen = (out.len() - rdlen_at - 2) as u16;
                        out[rdlen_at..rdlen_at + 2].copy_from_slice(&rdlen.to_be_bytes());
                    }
                    let n = rrset.data.len();
                    (n, if n > 0 { ttl } else { 0 })
                });
                match answered {
                    Some((n, max_age)) => (Rcode::NoError, n, max_age),
                    None => (Rcode::NxDomain, 0, 0),
                }
            }
        };
        let header = Header {
            id: 0,
            ..Header::response_to(&query.header(), rcode)
        };
        let counts = [query.question_count() as u16, answers as u16, 0, 0];
        out[..12].copy_from_slice(&header.to_bytes(counts));
        max_age
    }
}

/// Server-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// DoC requests handled.
    pub requests: u32,
    /// Requests answered with `2.03 Valid` (successful revalidations —
    /// Fig. 3 step 5 / the EOL-TTLs win in step 4).
    pub validations: u32,
    /// Full `2.05 Content` responses.
    pub full_responses: u32,
    /// Malformed requests rejected.
    pub errors: u32,
}

/// Lock-free counters behind the [`ServerStats`] snapshot.
#[derive(Default)]
struct AtomicServerStats {
    requests: AtomicU32,
    validations: AtomicU32,
    full_responses: AtomicU32,
    errors: AtomicU32,
}

impl AtomicServerStats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            validations: self.validations.load(Ordering::Relaxed),
            full_responses: self.full_responses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// Bump a counter by one (relaxed: counters are advisory statistics).
fn bump(c: &AtomicU32) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// The DoC server.
pub struct DocServer {
    policy: CachePolicy,
    /// The mock upstream resolver.
    pub upstream: MockUpstream,
    /// Block2 slicing threshold (None = never slice proactively).
    block_size: Option<usize>,
    /// Recent prepared responses for Block2 continuation, keyed by
    /// (peer, request token) — clients reuse one token per block-wise
    /// transaction.
    block_state: ShardedCache<(u64, Vec<u8>), Vec<u8>>,
    /// In-progress Block1 query reassembly, keyed by (peer, token).
    block1_assembly: ShardedCache<(u64, Vec<u8>), BlockAssembler>,
    stats: AtomicServerStats,
}

impl DocServer {
    /// Create a server with the given policy and upstream.
    pub fn new(policy: CachePolicy, upstream: MockUpstream) -> Self {
        Self::with_shards(policy, upstream, 8)
    }

    /// Like [`DocServer::new`], with the block-wise transfer tables
    /// striped over `shards` locks (rounded up to a power of two). The
    /// upstream's own resource-table striping is configured on
    /// [`MockUpstream::with_shards`].
    pub fn with_shards(policy: CachePolicy, upstream: MockUpstream, shards: usize) -> Self {
        DocServer {
            policy,
            upstream,
            block_size: None,
            block_state: ShardedCache::new(shards),
            block1_assembly: ShardedCache::new(shards),
            stats: AtomicServerStats::default(),
        }
    }

    /// A snapshot of the server statistics.
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }

    /// Account a DNS response served outside the CoAP path (the
    /// experiment harness answers UDP/DTLS transports straight from the
    /// upstream; those still count as served requests).
    pub fn count_raw_dns_response(&self) {
        bump(&self.stats.requests);
        bump(&self.stats.full_responses);
    }

    /// Enable proactive Block2 slicing of responses larger than
    /// `size` bytes.
    pub fn with_block_size(mut self, size: usize) -> Self {
        self.block_size = Some(size);
        self
    }

    /// The active cache policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Handle one DoC request, producing the CoAP response
    /// (single-peer convenience wrapper of
    /// [`DocServer::handle_request_from`]).
    pub fn handle_request(&self, req: &CoapMessage, now_ms: u64) -> CoapMessage {
        self.handle_request_from(0, req, now_ms)
    }

    /// Handle one DoC request from peer `peer` (block-wise transfer
    /// state is scoped per peer).
    ///
    /// Owned-message convenience wrapper over the wire path: the
    /// request is encoded once and handled by [`DocServer::serve_wire`],
    /// so both entry points exercise exactly the same logic (the
    /// serialize pass is the deliberate price for not maintaining two
    /// request handlers; latency-sensitive callers hold wire bytes
    /// already and call `serve_wire` directly). A message that
    /// cannot be represented on the wire (e.g. a token longer than 8
    /// bytes) is answered `4.00 Bad Request` rather than processed —
    /// with the token truncated to 8 bytes so the reply itself stays
    /// encodable.
    pub fn handle_request_from(&self, peer: u64, req: &CoapMessage, now_ms: u64) -> CoapMessage {
        if req.token.len() > 8 {
            bump(&self.stats.requests);
            bump(&self.stats.errors);
            return CoapMessage::ack_reply(
                req.message_id,
                req.token[..8].to_vec(),
                Code::BAD_REQUEST,
            );
        }
        let wire = req.encode();
        match self.handle_request_wire(peer, &wire, now_ms) {
            Ok(resp) => resp,
            Err(_) => {
                bump(&self.stats.requests);
                bump(&self.stats.errors);
                CoapMessage::ack_reply(req.message_id, req.token.clone(), Code::BAD_REQUEST)
            }
        }
    }

    /// Handle one DoC request straight from its datagram bytes, as an
    /// owned reply: a decode of what [`DocServer::serve_wire`] writes.
    pub fn handle_request_wire(
        &self,
        peer: u64,
        wire: &[u8],
        now_ms: u64,
    ) -> Result<CoapMessage, CoapError> {
        let mut out = Vec::new();
        self.serve_wire(peer, wire, now_ms, &mut ServerScratch::default(), &mut out)?;
        CoapMessage::decode(&out)
    }

    /// The server's request path, wire in and wire out: the reply to
    /// the request datagram `wire` from `peer` is written into `out`
    /// (cleared first). The request is parsed as a borrowed
    /// [`CoapView`] and the query inside it as a borrowed
    /// [`MessageView`]; the upstream writes the prepared DNS answer
    /// into `scratch` ([`MockUpstream::answer_into`]), the ETag is the
    /// first 8 bytes of its SHA-256, and the CoAP reply is assembled
    /// field by field. With a warm `scratch` and `out`, a FETCH, GET or
    /// POST that needs no block-wise transfer allocates nothing. A
    /// datagram that is not CoAP at all is an error (no reply); a
    /// malformed DoC request is answered with a 4.xx.
    pub fn serve_wire(
        &self,
        peer: u64,
        wire: &[u8],
        now_ms: u64,
        scratch: &mut ServerScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), CoapError> {
        let req = CoapView::parse(wire)?;
        bump(&self.stats.requests);
        out.clear();
        if let Err(e) = self.respond(peer, &req, now_ms, scratch, out) {
            bump(&self.stats.errors);
            let code = match e {
                DocError::BadEncoding | DocError::BadDnsMessage => Code::BAD_REQUEST,
                DocError::BadRequest => Code::METHOD_NOT_ALLOWED,
                _ => Code::INTERNAL_SERVER_ERROR,
            };
            out.clear();
            encode_header_into(MsgType::Ack, code, req.message_id, req.token(), out);
        }
        Ok(())
    }

    fn respond(
        &self,
        peer: u64,
        req: &CoapView<'_>,
        now_ms: u64,
        scratch: &mut ServerScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), DocError> {
        // Block1 reassembly: a block-wise transferred query (paper
        // Fig. 12a) is accumulated per token; non-final blocks are
        // answered 2.31 Continue. The whole push-or-finish sequence
        // runs under the key's shard lock, so concurrent blocks of one
        // transaction cannot interleave mid-assembly.
        enum Block1Outcome {
            Done(Vec<u8>),
            Continue,
            Bad,
        }
        let mut reassembled: Option<Vec<u8>> = None;
        if let Some(Ok(block1)) = BlockOpt::from_view(req, OptionNumber::BLOCK1) {
            let key = (peer, req.token().to_vec());
            let outcome = self.block1_assembly.with_shard_mut(&key, |shard| {
                let assembler = shard.entry(key.clone()).or_default();
                match assembler.push(block1, req.payload()) {
                    Ok(Some(full)) => {
                        shard.remove(&key);
                        Block1Outcome::Done(full)
                    }
                    Ok(None) => Block1Outcome::Continue,
                    Err(_) => {
                        shard.remove(&key);
                        Block1Outcome::Bad
                    }
                }
            });
            match outcome {
                Block1Outcome::Done(full) => reassembled = Some(full),
                Block1Outcome::Continue => {
                    ack_into(Code::CONTINUE, req, out);
                    encode_uint_option_into(0, OptionNumber::BLOCK1.0, block1.value(), out);
                    return Ok(());
                }
                Block1Outcome::Bad => return Err(DocError::BadRequest),
            }
        }

        // Block2 continuation: serve the next block of a response we
        // already prepared.
        if let Some(Ok(block2)) = BlockOpt::from_view(req, OptionNumber::BLOCK2) {
            if block2.num > 0 {
                let key = (peer, req.token().to_vec());
                let served = self.block_state.with_shard_mut(&key, |shard| {
                    let payload = shard.get(&key)?;
                    let (slice, opt) = match Block2Server::slice(payload, block2.num, block2.size())
                    {
                        Ok(block) => block,
                        Err(_) => return Some(Err(DocError::BadRequest)),
                    };
                    ack_into(Code::CONTENT, req, out);
                    encode_uint_option_into(0, OptionNumber::BLOCK2.0, opt.value(), out);
                    encode_payload_into(slice, out);
                    Some(Ok(()))
                });
                if let Some(served) = served {
                    served?;
                    bump(&self.stats.full_responses);
                    return Ok(());
                }
            }
        }

        // FETCH/POST queries stay borrowed from the datagram (or the
        // reassembled body); GET's base64url variable is decoded into
        // the scratch buffer. Any other method is rejected by
        // `extract_query_view` regardless of Block1 reassembly.
        let ServerScratch { payload, query } = scratch;
        let query = match &reassembled {
            Some(full) if matches!(req.code, Code::FETCH | Code::POST) => {
                if full.is_empty() {
                    return Err(DocError::BadRequest);
                }
                full
            }
            _ => extract_query_view(req, query)?,
        };
        let qview = MessageView::parse(query).map_err(|_| DocError::BadDnsMessage)?;
        let max_age = self
            .upstream
            .answer_into(&qview, self.policy, now_ms, payload);
        // The paper's naive ETag (§7): 8 bytes of SHA-256 over the
        // payload — what breaks under DoH-like TTL decay.
        let mut etag = [0u8; 8];
        etag.copy_from_slice(&doc_crypto::sha256::sha256(payload)[..8]);

        // ETag revalidation: if the client presented the current ETag,
        // confirm with 2.03 Valid carrying only ETag + Max-Age.
        if req
            .option(OptionNumber::ETAG)
            .is_some_and(|o| o.value == etag)
        {
            bump(&self.stats.validations);
            let to = ReplyTo {
                message_id: req.message_id,
                token: req.token(),
                etag: None,
            };
            encode_valid_into(to, &etag, max_age, out);
            return Ok(());
        }

        bump(&self.stats.full_responses);
        // Proactive Block2 slicing.
        let requested_size = BlockOpt::from_view(req, OptionNumber::BLOCK2)
            .and_then(|r| r.ok())
            .map(|b| b.size());
        let block = match requested_size.or(self.block_size) {
            Some(size) if payload.len() > size => {
                self.block_state
                    .insert((peer, req.token().to_vec()), payload.clone());
                Some(Block2Server::slice(payload, 0, size).map_err(|_| DocError::BadRequest)?)
            }
            _ => None,
        };
        ack_into(Code::CONTENT, req, out);
        let mut prev = encode_raw_option_into(0, OptionNumber::ETAG.0, &etag, out);
        prev = encode_uint_option_into(
            prev,
            OptionNumber::CONTENT_FORMAT.0,
            CONTENT_FORMAT_DNS_MESSAGE as u32,
            out,
        );
        prev = encode_uint_option_into(prev, OptionNumber::MAX_AGE.0, max_age, out);
        match block {
            Some((slice, opt)) => {
                encode_uint_option_into(prev, OptionNumber::BLOCK2.0, opt.value(), out);
                encode_payload_into(slice, out);
            }
            None => encode_payload_into(payload, out),
        }
        Ok(())
    }
}

/// Start a piggybacked (ACK) reply to `req` with `code`: header and
/// token; options and payload follow.
fn ack_into(code: Code, req: &CoapView<'_>, out: &mut Vec<u8>) {
    encode_header_into(MsgType::Ack, code, req.message_id, req.token(), out);
}

/// Reusable per-caller buffers for [`DocServer::serve_wire`].
#[derive(Debug, Default)]
pub struct ServerScratch {
    /// The prepared DNS response, written before the CoAP reply so its
    /// ETag can be hashed first.
    payload: Vec<u8>,
    /// A GET request's base64url-decoded query.
    query: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::{build_request, DocMethod};
    use doc_coap::opt::CoapOption;

    fn name() -> Name {
        Name::parse("name-01234.c.example.org").unwrap()
    }

    fn server(policy: CachePolicy) -> DocServer {
        let up = MockUpstream::new(1, 300, 300);
        up.add_aaaa(name(), 1);
        DocServer::new(policy, up)
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
            vec![mid as u8],
        )
        .unwrap()
    }

    #[test]
    fn resolves_fetch_request() {
        let s = server(CachePolicy::EolTtls);
        let resp = s.handle_request(&fetch_req(1), 0);
        assert_eq!(resp.code, Code::CONTENT);
        assert_eq!(resp.max_age(), 300);
        assert!(resp.option(OptionNumber::ETAG).is_some());
        let msg = Message::decode(&resp.payload).unwrap();
        assert_eq!(msg.answers.len(), 1);
        assert_eq!(msg.answers[0].ttl, 0, "EOL TTLs zeroed");
        assert_eq!(msg.header.rcode, Rcode::NoError);
    }

    /// The wire entry point (borrowed-view hot path) matches the owned
    /// one byte for byte, including error replies.
    #[test]
    fn wire_path_matches_owned_path() {
        let s1 = server(CachePolicy::EolTtls);
        let s2 = server(CachePolicy::EolTtls);
        let req = fetch_req(1);
        let owned = s1.handle_request(&req, 0);
        let via_wire = s2.handle_request_wire(0, &req.encode(), 0).unwrap();
        assert_eq!(owned, via_wire);
        // Malformed DNS payload → 4.00 via both paths.
        let bad = build_request(DocMethod::Fetch, &[1, 2, 3], MsgType::Con, 2, vec![2]).unwrap();
        assert_eq!(
            s1.handle_request(&bad, 0),
            s2.handle_request_wire(0, &bad.encode(), 0).unwrap()
        );
        // Malformed CoAP datagram is rejected, not panicked on.
        assert!(s2.handle_request_wire(0, &[0xFF], 0).is_err());
    }

    #[test]
    fn doh_like_keeps_ttls() {
        let s = server(CachePolicy::DohLike);
        let resp = s.handle_request(&fetch_req(1), 0);
        let msg = Message::decode(&resp.payload).unwrap();
        assert_eq!(msg.answers[0].ttl, 300);
    }

    #[test]
    fn get_and_post_also_work() {
        for method in [DocMethod::Get, DocMethod::Post] {
            let s = server(CachePolicy::EolTtls);
            let req = build_request(method, &query_bytes(), MsgType::Con, 5, vec![5]).unwrap();
            let resp = s.handle_request(&req, 0);
            assert_eq!(resp.code, Code::CONTENT, "{method:?}");
        }
    }

    #[test]
    fn nxdomain_for_unknown_name() {
        let up = MockUpstream::new(1, 60, 60);
        up.add_aaaa(name(), 1);
        let s = DocServer::new(CachePolicy::EolTtls, up);
        let mut q = Message::query(
            0,
            Name::parse("other.example.org").unwrap(),
            RecordType::Aaaa,
        );
        q.canonicalize_id();
        let req = build_request(DocMethod::Fetch, &q.encode(), MsgType::Con, 1, vec![1]).unwrap();
        let resp = s.handle_request(&req, 0);
        assert_eq!(resp.code, Code::CONTENT);
        let msg = Message::decode(&resp.payload).unwrap();
        assert_eq!(msg.header.rcode, Rcode::NxDomain);
        assert!(msg.answers.is_empty());
    }

    #[test]
    fn etag_revalidation_valid() {
        let s = server(CachePolicy::EolTtls);
        let resp1 = s.handle_request(&fetch_req(1), 0);
        let etag = resp1.option(OptionNumber::ETAG).unwrap().value.clone();
        // Client revalidates with the ETag (records unchanged).
        let mut req2 = fetch_req(2);
        req2.set_option(CoapOption::new(OptionNumber::ETAG, etag.clone()));
        let resp2 = s.handle_request(&req2, 1000);
        assert_eq!(resp2.code, Code::VALID);
        assert!(resp2.payload.is_empty());
        assert_eq!(resp2.option(OptionNumber::ETAG).unwrap().value, etag);
        assert_eq!(s.stats().validations, 1);
    }

    /// Fig. 3 steps 3/4: when a revalidation hits the upstream while
    /// the RRset's TTL has *decayed* (another client refreshed it
    /// earlier), DoH-like revalidation fails (TTL change ⇒ new ETag ⇒
    /// full transfer) while EOL TTLs still validates.
    #[test]
    fn revalidation_across_ttl_refresh() {
        let mk = |policy| {
            let up = MockUpstream::new(7, 5, 5);
            up.add_aaaa(name(), 1);
            DocServer::new(policy, up)
        };
        for (policy, expect_valid) in [(CachePolicy::DohLike, false), (CachePolicy::EolTtls, true)]
        {
            let s = mk(policy);
            // t=0: our client caches the response (TTL 5, ETag e1).
            let resp1 = s.handle_request(&fetch_req(1), 0);
            let etag = resp1.option(OptionNumber::ETAG).unwrap().value.clone();
            // t=7 s: another client's query refreshes the RRset.
            s.handle_request(&fetch_req(9), 7_000);
            // t=9 s: we revalidate; remaining TTL is now 3 s ≠ 5 s.
            let mut req2 = fetch_req(2);
            req2.set_option(CoapOption::new(OptionNumber::ETAG, etag));
            let resp2 = s.handle_request(&req2, 9_000);
            if expect_valid {
                assert_eq!(resp2.code, Code::VALID, "{policy:?}");
                assert_eq!(resp2.max_age(), 3);
            } else {
                assert_eq!(resp2.code, Code::CONTENT, "{policy:?}");
                assert!(!resp2.payload.is_empty());
            }
        }
    }

    #[test]
    fn upstream_ttl_decrements_between_queries() {
        let s = server(CachePolicy::DohLike);
        let r1 = s.handle_request(&fetch_req(1), 0);
        assert_eq!(r1.max_age(), 300);
        let r2 = s.handle_request(&fetch_req(2), 100_000);
        assert_eq!(r2.max_age(), 200);
        assert_eq!(s.upstream.ns_queries(), 1);
        assert_eq!(s.upstream.cache_hits(), 1);
    }

    #[test]
    fn malformed_dns_rejected() {
        let s = server(CachePolicy::EolTtls);
        let req = build_request(DocMethod::Fetch, &[1, 2, 3], MsgType::Con, 1, vec![1]).unwrap();
        let resp = s.handle_request(&req, 0);
        assert_eq!(resp.code, Code::BAD_REQUEST);
        assert_eq!(s.stats().errors, 1);
    }

    #[test]
    fn wrong_method_rejected() {
        let s = server(CachePolicy::EolTtls);
        let req =
            CoapMessage::request(Code::PUT, MsgType::Con, 1, vec![1]).with_payload(query_bytes());
        let resp = s.handle_request(&req, 0);
        assert_eq!(resp.code, Code::METHOD_NOT_ALLOWED);
    }

    /// Regression: a Block1-reassembled request must still pass method
    /// validation — a PUT carrying a final Block1 is not a DoC query.
    #[test]
    fn wrong_method_with_block1_rejected() {
        let s = server(CachePolicy::EolTtls);
        let mut req =
            CoapMessage::request(Code::PUT, MsgType::Con, 1, vec![1]).with_payload(query_bytes());
        req.set_option(
            doc_coap::block::BlockOpt::new(0, false, 64)
                .unwrap()
                .to_option(OptionNumber::BLOCK1),
        );
        let resp = s.handle_request(&req, 0);
        assert_eq!(resp.code, Code::METHOD_NOT_ALLOWED);
    }

    #[test]
    fn block2_slicing() {
        let up = MockUpstream::new(1, 300, 300);
        up.add_aaaa(name(), 4); // 4 AAAA records: >100-byte response
        let s = DocServer::new(CachePolicy::EolTtls, up).with_block_size(32);
        let resp0 = s.handle_request(&fetch_req(1), 0);
        assert_eq!(resp0.code, Code::CONTENT);
        let b0 = BlockOpt::from_message(&resp0, OptionNumber::BLOCK2)
            .unwrap()
            .unwrap();
        assert_eq!(b0.num, 0);
        assert!(b0.more);
        assert_eq!(resp0.payload.len(), 32);

        // Fetch remaining blocks and reassemble.
        let mut assembler = doc_coap::block::BlockAssembler::new();
        let mut full = assembler.push(b0, &resp0.payload).unwrap();
        let mut num = 1;
        while full.is_none() {
            // Follow-up blocks reuse the token of the transaction.
            let mut req = fetch_req(1);
            req.message_id = 10 + num as u16;
            req.set_option(
                BlockOpt::new(num, false, 32)
                    .unwrap()
                    .to_option(OptionNumber::BLOCK2),
            );
            let resp = s.handle_request(&req, 0);
            assert_eq!(resp.code, Code::CONTENT);
            let b = BlockOpt::from_message(&resp, OptionNumber::BLOCK2)
                .unwrap()
                .unwrap();
            full = assembler.push(b, &resp.payload).unwrap();
            num += 1;
        }
        let msg = Message::decode(&full.unwrap()).unwrap();
        assert_eq!(msg.answers.len(), 4);
    }

    #[test]
    fn multiple_names_tracked_independently() {
        let n2 = Name::parse("second.example.org").unwrap();
        let up = MockUpstream::new(3, 300, 300);
        up.add_aaaa(name(), 1);
        up.add_a(n2.clone(), 2);
        let s = DocServer::new(CachePolicy::EolTtls, up);
        let mut q2 = Message::query(0, n2, RecordType::A);
        q2.canonicalize_id();
        let req2 = build_request(DocMethod::Fetch, &q2.encode(), MsgType::Con, 9, vec![9]).unwrap();
        let resp = s.handle_request(&req2, 0);
        let msg = Message::decode(&resp.payload).unwrap();
        assert_eq!(msg.answers.len(), 2);
        assert!(matches!(msg.answers[0].data, RecordData::A(_)));
    }
}
