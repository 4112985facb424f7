//! The DoC server and its mock recursive-resolver upstream.
//!
//! The server terminates DoC requests (FETCH/GET/POST), resolves them
//! against an upstream, applies a [`CachePolicy`] to align TTLs with
//! CoAP freshness, and supports ETag revalidation with `2.03 Valid`
//! responses and Block2 slicing of large responses.
//!
//! The request path runs wire in, wire out ([`DocServer::serve_wire`]):
//! request and query are borrowed views, the upstream writes the
//! prepared answer and its ETag straight from its zone into a reusable
//! buffer ([`MockUpstream::answer_into`]), and the reply is assembled
//! field by field — the owned-message entry points decode what it
//! writes.
//!
//! A zone entry is one RRset as answer wire: its records in
//! `Message::sort_answers`' order, each owned by the question's name and
//! so written as the pointer `C0 0C` (`0` for the root), with TTL 0. An
//! answer has `Message::encode`'s layout: header, the lowercased
//! question spelled out at offset 12 (later questions, which no DoC
//! client sends, compressed), then a copy of the block, its TTLs
//! stamped only when the policy keeps a non-zero one.
//!
//! The ETag is the paper's naive one (§7), 8 bytes of SHA-256 over the
//! answer. The entry fixes a single-question answer up to the flags
//! word, qclass and wire TTL, so it memoises its last answer's ETag
//! under those three (under EOL TTLs an RRset hashes once); other
//! three miss and re-fill it, and re-registration drops it.
//! Multi-question, NXDOMAIN and FormErr answers are always hashed.
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
use crate::policy::{etag_of, CachePolicy};
use crate::{DocError, CONTENT_FORMAT_DNS_MESSAGE};
use doc_coap::block::{Block2Server, BlockAssembler, BlockOpt, MAX_BODY};
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
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// One RRset of the mock zone: its answer wire, the TTL state machine
/// and the ETag memo (the module doc gives both).
struct Rrset {
    /// The `count` records in answer order, each owner `C0 0C` (`0`
    /// for the root), TYPE, CLASS IN, TTL 0, RDLENGTH and RDATA.
    records: Box<[u8]>,
    count: u16,
    /// Absolute expiry of the current TTL draw; 0 = not yet drawn.
    expires_at_ms: u64,
    /// Flags word, qclass and wire TTL of the answer `etag` was hashed
    /// from; 0 = none yet (a response's flags word has QR set).
    etag_key: u64,
    etag: [u8; 8],
}

impl Rrset {
    fn new(key: &ZoneKey, data: &[RecordData], expires_at_ms: u64) -> Self {
        let mut fixed = [0xC0, 0x0C, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        fixed[2..4].copy_from_slice(&key.as_bytes()[key.len - 2..]);
        fixed[4..6].copy_from_slice(&RecordClass::In.to_u16().to_be_bytes());
        let fixed = if key.name() == [0] {
            fixed[1] = 0;
            &fixed[1..]
        } else {
            &fixed[..]
        };
        let len = data.iter().map(|d| fixed.len() + d.encoded_len()).sum();
        let mut block = Vec::with_capacity(len);
        for d in data {
            block.extend_from_slice(fixed);
            let rdata_at = block.len();
            d.encode(&mut block);
            let rdlen = u16::try_from(block.len() - rdata_at).expect("RDATA fits RDLENGTH");
            block[rdata_at - 2..rdata_at].copy_from_slice(&rdlen.to_be_bytes());
        }
        if data.len() > 1 {
            // Answer order: by RDATA bytes, ties in registration order.
            let mut rdata: Vec<_> = records(&block).map(|(_, r)| r).collect();
            if !rdata.is_sorted_by_key(|r| &block[r.clone()]) {
                rdata.sort_by_key(|r| &block[r.clone()]);
                let record = |r: &Range<usize>| &block[r.start - fixed.len()..r.end];
                block = rdata.iter().flat_map(record).copied().collect();
            }
        }
        Rrset {
            records: block.into_boxed_slice(),
            count: u16::try_from(data.len()).expect("an RRset fits one DNS message"),
            expires_at_ms,
            etag_key: 0,
            etag: [0; 8],
        }
    }

    /// The ETag of `answer`, this entry's single-question answer under
    /// `key`: the memo if hashed under `key`, else hashed and memoised.
    fn etag(&mut self, key: u64, answer: &[u8]) -> [u8; 8] {
        if self.etag_key == key {
            debug_assert_eq!(self.etag, etag_of(answer), "stale ETag memo");
        } else {
            #[cfg(test)]
            tests::ETAG_MEMO_MISSES.with(|n| n.set(n.get() + 1));
            (self.etag_key, self.etag) = (key, etag_of(answer));
        }
        self.etag
    }
}

/// Walk an answer block: each record's TTL offset and RDATA range.
fn records(block: &[u8]) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    let owner = if block.first() == Some(&0) { 1 } else { 2 };
    let mut pos = 0;
    std::iter::from_fn(move || {
        let ttl_at = pos + owner + 4;
        let rdlen = block.get(ttl_at + 4..ttl_at + 6)?;
        let rdata_at = ttl_at + 6;
        pos = rdata_at + usize::from(u16::from_be_bytes([rdlen[0], rdlen[1]]));
        Some((ttl_at, rdata_at..pos))
    })
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

    /// The name's uncompressed wire form, root byte included.
    fn name(&self) -> &[u8] {
        &self.bytes[..self.len - 2]
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

/// One xorshift64 step (shared by the upstream's atomic RNG and the
/// experiment's raw retransmitter).
pub(crate) fn xorshift64(mut x: u64) -> u64 {
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
    /// replaces the record data (and drops its ETag memo) but keeps the
    /// in-flight TTL window, matching the historical behaviour where
    /// record data and TTL state lived in separate maps.
    pub fn add_rrset(&self, name: Name, rtype: RecordType, data: Vec<RecordData>) {
        let zone_key = ZoneKey::new(name.labels().iter().map(Vec::as_slice), rtype);
        let key = zone_key.as_bytes();
        self.zone
            .with_shard_mut(key, |shard| match shard.get_mut(key) {
                Some(rrset) => *rrset = Rrset::new(&zone_key, &data, rrset.expires_at_ms),
                None => {
                    shard.insert(key.into(), Rrset::new(&zone_key, &data, 0));
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
        f: impl FnOnce(&mut Rrset, u32) -> R,
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
    /// recursive cache) and the records in answer order, decoded from
    /// the zone's answer wire (as `Raw` where the registered data does
    /// not round-trip under the RRset's type).
    pub fn resolve(&self, query: &Message, now_ms: u64) -> Message {
        let Some(q) = query.questions.first() else {
            return Message::response(query, Rcode::FormErr, vec![]);
        };
        let key = ZoneKey::new(q.qname.labels().iter().map(Vec::as_slice), q.qtype);
        let answers = self.with_rrset(key.as_bytes(), now_ms, |rrset, ttl| {
            let block = &rrset.records[..];
            let mut again = Vec::new();
            let mut decode = |r: Range<usize>| {
                let d = RecordData::decode(q.qtype, block, r.start, r.len()).ok()?;
                again.clear();
                d.encode(&mut again);
                (again == block[r]).then_some(d)
            };
            let record = |(_, r): (usize, Range<usize>)| Record {
                name: q.qname.clone(),
                rtype: q.qtype,
                rclass: RecordClass::In,
                ttl,
                data: decode(r.clone()).unwrap_or_else(|| RecordData::Raw(block[r].to_vec())),
            };
            records(block).map(record).collect()
        });
        match answers {
            Some(answers) => Message::response(query, Rcode::NoError, answers),
            None => Message::response(query, Rcode::NxDomain, vec![]),
        }
    }

    /// Resolve `query` at `now_ms` and write the DoC response prepared
    /// under `policy` into `out` (cleared first), returning its Max-Age
    /// and ETag: those of
    /// `prepare_response(policy, &self.resolve(&query.to_owned(), now_ms))`,
    /// with the TTL state and draw sequence advancing exactly as there.
    /// But the RRset is found by a key built on the stack and its block
    /// is copied straight from the zone, so no `Name`, `Message` or
    /// record copy is built, and the ETag comes from the entry's memo
    /// when that holds it. The module doc gives the layout and the memo.
    pub fn answer_into(
        &self,
        query: &MessageView<'_>,
        policy: CachePolicy,
        now_ms: u64,
        out: &mut Vec<u8>,
    ) -> (u32, [u8; 8]) {
        out.clear();
        // Header last (its rcode and answer count depend on the
        // lookup); compression offsets count from the message start.
        out.extend_from_slice(&[0; 12]);
        let qdcount = query.question_count() as u16;
        // Only a query with more than one question (no DoC client sends
        // one) needs a compression map; a single name is spelled out.
        let mut table = (qdcount > 1).then(CompressionMap::new);
        let mut first: Option<ZoneKey> = None;
        for q in query.questions() {
            let key = ZoneKey::new(q.qname.labels(), q.qtype);
            match &mut table {
                Some(table) => key.encode_name(out, table),
                None => out.extend_from_slice(key.name()),
            }
            out.extend_from_slice(&q.qtype.to_u16().to_be_bytes());
            out.extend_from_slice(&q.qclass.to_u16().to_be_bytes());
            first.get_or_insert(key);
        }
        let id0 = Header {
            id: 0,
            ..query.header()
        };
        let header = |rcode, n| Header::response_to(&id0, rcode).to_bytes([qdcount, n, 0, 0]);
        if let Some(key) = &first {
            let answered = self.with_rrset(key.as_bytes(), now_ms, |rrset, ttl| {
                let wire_ttl = match policy {
                    CachePolicy::EolTtls => 0,
                    CachePolicy::DohLike => ttl,
                };
                let at = out.len();
                out.extend_from_slice(&rrset.records);
                if wire_ttl != 0 {
                    for (ttl_at, _) in records(&rrset.records) {
                        out[at + ttl_at..at + ttl_at + 4].copy_from_slice(&wire_ttl.to_be_bytes());
                    }
                }
                out[..12].copy_from_slice(&header(Rcode::NoError, rrset.count));
                let max_age = if rrset.count > 0 { ttl } else { 0 };
                if qdcount > 1 {
                    return (max_age, etag_of(out));
                }
                // Flags word, qclass (the question's last field) and TTL.
                let word = |i: usize| u64::from(u16::from_be_bytes([out[i], out[i + 1]]));
                let memo = word(2) << 48 | word(at - 2) << 32 | u64::from(wire_ttl);
                (max_age, rrset.etag(memo, out))
            });
            if let Some(answer) = answered {
                return answer;
            }
        }
        let rcode = match first {
            Some(_) => Rcode::NxDomain,
            None => Rcode::FormErr,
        };
        out[..12].copy_from_slice(&header(rcode, 0));
        (0, etag_of(out))
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

/// Open Block1 transactions one shard of the reassembly table holds.
/// A new transaction that finds its shard full first drops those idle
/// for [`EXCHANGE_LIFETIME_MS`]; if none is, it is answered 5.03.
const MAX_BLOCK1_PER_SHARD: usize = 64;

/// EXCHANGE_LIFETIME (RFC 7252 §4.8.2): how long a transaction's state
/// outlives its last block.
const EXCHANGE_LIFETIME_MS: u64 = 247_000;

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
    /// In-progress Block1 query reassembly, keyed by (peer, token),
    /// with the time of each transaction's last block; at most
    /// [`MAX_BLOCK1_PER_SHARD`] open transactions per shard.
    block1_assembly: ShardedCache<(u64, Vec<u8>), (BlockAssembler, u64)>,
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
    /// into `scratch` and returns its ETag, memoised in the zone entry
    /// ([`MockUpstream::answer_into`]); and the CoAP reply is assembled
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
        // answered 2.31 Continue, a block out of sequence (or an empty
        // reassembled body) 4.08 Request Entity Incomplete (RFC 7959
        // §2.9.2), a body that would grow past `MAX_BODY` 4.13 with
        // that bound in Size1 (RFC 7959 §2.9.3), and a new transaction
        // that finds its shard full of live ones 5.03.
        // The whole push-or-finish sequence runs under the key's shard
        // lock, so concurrent blocks of one transaction cannot
        // interleave mid-assembly.
        enum Block1Outcome {
            Done(Vec<u8>),
            Continue,
            TooLarge,
            Incomplete,
            Full,
        }
        let incomplete = |out: &mut Vec<u8>| {
            bump(&self.stats.errors);
            ack_into(Code::REQUEST_ENTITY_INCOMPLETE, req, out);
        };
        let mut reassembled: Option<Vec<u8>> = None;
        if let Some(Ok(block1)) = BlockOpt::from_view(req, OptionNumber::BLOCK1) {
            let key = (peer, req.token().to_vec());
            let outcome = self.block1_assembly.with_shard_mut(&key, |shard| {
                if shard.len() >= MAX_BLOCK1_PER_SHARD && !shard.contains_key(&key) {
                    shard.retain(|_, &mut (_, last_ms)| {
                        now_ms.saturating_sub(last_ms) < EXCHANGE_LIFETIME_MS
                    });
                    if shard.len() >= MAX_BLOCK1_PER_SHARD {
                        return Block1Outcome::Full;
                    }
                }
                let (assembler, last_ms) = shard.entry(key.clone()).or_default();
                *last_ms = now_ms;
                match assembler.push(block1, req.payload()) {
                    Ok(Some(full)) => {
                        shard.remove(&key);
                        Block1Outcome::Done(full)
                    }
                    Ok(None) => Block1Outcome::Continue,
                    Err(e) => {
                        shard.remove(&key);
                        match e {
                            CoapError::TooLarge => Block1Outcome::TooLarge,
                            _ => Block1Outcome::Incomplete,
                        }
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
                Block1Outcome::TooLarge => {
                    bump(&self.stats.errors);
                    ack_into(Code::REQUEST_ENTITY_TOO_LARGE, req, out);
                    encode_uint_option_into(0, OptionNumber::SIZE1.0, MAX_BODY as u32, out);
                    return Ok(());
                }
                Block1Outcome::Incomplete => {
                    incomplete(out);
                    return Ok(());
                }
                Block1Outcome::Full => {
                    bump(&self.stats.errors);
                    ack_into(Code::SERVICE_UNAVAILABLE, req, out);
                    return Ok(());
                }
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
                    incomplete(out);
                    return Ok(());
                }
                full
            }
            _ => extract_query_view(req, query)?,
        };
        let qview = MessageView::parse(query).map_err(|_| DocError::BadDnsMessage)?;
        let (max_age, etag) = self
            .upstream
            .answer_into(&qview, self.policy, now_ms, payload);

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
    /// ETag is known first.
    payload: Vec<u8>,
    /// A GET request's base64url-decoded query.
    query: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::{build_request, DocMethod};
    use doc_coap::opt::CoapOption;
    use doc_crypto::sha256::sha256;
    use std::cell::Cell;

    thread_local! {
        /// ETag memo misses on this thread (each test has its own).
        pub(super) static ETAG_MEMO_MISSES: Cell<u32> = const { Cell::new(0) };
    }

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

    /// Every input of a single-question answer's bytes keys the ETag
    /// memo: each query below differs from the one the memo holds in
    /// one input only (RD, qclass, the policy's wire TTL and its decay,
    /// the entry's re-registration) and must miss it; a repeat hits.
    /// Every ETag is the payload's hash, and a two-question answer,
    /// hashed apart, leaves the memo alone.
    #[test]
    fn etag_memo_follows_every_input() {
        let up = MockUpstream::new(1, 300, 300);
        up.add_aaaa(name(), 2);
        let ask = |query: &Message, policy, now| {
            let wire = query.encode();
            let mut out = Vec::new();
            let before = ETAG_MEMO_MISSES.with(Cell::get);
            let view = MessageView::parse(&wire).unwrap();
            let (_, etag) = up.answer_into(&view, policy, now, &mut out);
            assert_eq!(etag[..], sha256(&out)[..8], "{query:?} {policy:?} at {now}");
            (etag, ETAG_MEMO_MISSES.with(Cell::get) - before)
        };
        let base = Message::query(0, name(), RecordType::Aaaa);
        let mut no_rd = base.clone();
        no_rd.header.rd = false;
        let mut any = base.clone();
        any.questions[0].qclass = RecordClass::Other(255);
        let (eol, misses) = ask(&base, CachePolicy::EolTtls, 0);
        assert_eq!(misses, 1);
        assert_eq!(ask(&base, CachePolicy::EolTtls, 5_000), (eol, 0), "repeat");
        let (rd_off, misses) = ask(&no_rd, CachePolicy::EolTtls, 0);
        assert!(rd_off != eol && misses == 1, "RD off");
        assert_eq!(ask(&base, CachePolicy::EolTtls, 0), (eol, 1), "RD on");
        let (class_any, misses) = ask(&any, CachePolicy::EolTtls, 0);
        assert!(class_any != eol && misses == 1, "qclass ANY");

        let (t, misses) = ask(&any, CachePolicy::DohLike, 10_000);
        assert!(t != class_any && misses == 1, "DoH-like TTL 290");
        let (t1, misses) = ask(&any, CachePolicy::DohLike, 11_000);
        assert!(t1 != t && misses == 1, "DoH-like TTL 289");
        assert_eq!(ask(&any, CachePolicy::DohLike, 11_000), (t1, 0), "repeat");

        up.add_aaaa(name(), 3);
        let (more, misses) = ask(&any, CachePolicy::DohLike, 11_000);
        assert!(more != t1 && misses == 1, "re-registered");
        let mut two = any.clone();
        two.questions.push(base.questions[0].clone());
        let (both, misses) = ask(&two, CachePolicy::DohLike, 11_000);
        assert!(both != more && misses == 0, "two questions");
        assert_eq!(
            ask(&any, CachePolicy::DohLike, 11_000),
            (more, 0),
            "memo kept"
        );
    }

    /// The Block1 table holds at most `MAX_BLOCK1_PER_SHARD` open
    /// transactions per shard: a new one finding its shard full is
    /// answered 5.03 and counted, an open one still continues, and once
    /// the oldest are idle for EXCHANGE_LIFETIME they make room.
    #[test]
    fn block1_table_is_bounded_per_shard() {
        let s = server(CachePolicy::EolTtls);
        let block = |token: u16, num: u32, now: u64| {
            let mut req = CoapMessage::request(
                Code::FETCH,
                MsgType::Con,
                token,
                token.to_be_bytes().to_vec(),
            )
            .with_payload(vec![0; 32]);
            req.set_option(
                BlockOpt::new(num, true, 32)
                    .unwrap()
                    .to_option(OptionNumber::BLOCK1),
            );
            s.handle_request(&req, now).code
        };
        let mut refused = 0;
        for token in 0..1_000u16 {
            match block(token, 0, u64::from(token)) {
                Code::CONTINUE => {}
                Code::SERVICE_UNAVAILABLE => refused += 1,
                other => panic!("token {token}: {other:?}"),
            }
        }
        for token in 0..1_000u16 {
            let key = (0, token.to_be_bytes().to_vec());
            let open = s.block1_assembly.with_shard_mut(&key, |shard| shard.len());
            assert!(open <= MAX_BLOCK1_PER_SHARD, "token {token}: {open}");
        }
        assert_eq!(s.block1_assembly.len() + refused, 1_000);
        assert_eq!(s.stats().errors, refused as u32);
        assert_eq!(s.block1_assembly.len(), 8 * MAX_BLOCK1_PER_SHARD);

        assert_eq!(block(1_000, 0, 1_000), Code::SERVICE_UNAVAILABLE);
        assert_eq!(
            block(0, 1, 1_000),
            Code::CONTINUE,
            "an open transaction continues"
        );
        assert_eq!(block(1_000, 0, 999 + EXCHANGE_LIFETIME_MS), Code::CONTINUE);
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

    /// A Block1 body past `MAX_BODY` is refused with 4.13 carrying the
    /// bound in Size1, and the transaction's reassembly state is gone.
    #[test]
    fn block1_body_past_the_bound_gets_4_13() {
        let s = server(CachePolicy::EolTtls);
        let block = |num: u32| {
            let mut req = CoapMessage::request(Code::FETCH, MsgType::Con, num as u16, vec![7])
                .with_payload(vec![0; 1024]);
            req.set_option(
                BlockOpt::new(num, true, 1024)
                    .unwrap()
                    .to_option(OptionNumber::BLOCK1),
            );
            s.handle_request(&req, 0)
        };
        for num in 0..63 {
            assert_eq!(block(num).code, Code::CONTINUE, "block {num}");
        }
        assert_eq!(s.block1_assembly.len(), 1);
        let refused = block(63);
        assert_eq!(refused.code, Code::REQUEST_ENTITY_TOO_LARGE);
        assert_eq!(
            refused.option(OptionNumber::SIZE1).map(|o| o.as_uint()),
            Some(65_535)
        );
        assert!(s.block1_assembly.is_empty(), "transaction state kept");
        assert_eq!(s.stats().errors, 1);
    }

    /// A Block1 transaction that cannot complete — a block out of
    /// sequence (NUM 3 opening it), or a body that reassembles empty —
    /// is answered 4.08 Request Entity Incomplete, and its state is
    /// gone.
    #[test]
    fn incomplete_block1_bodies_get_4_08() {
        for (num, payload) in [(3, vec![0; 32]), (0, Vec::new())] {
            let s = server(CachePolicy::EolTtls);
            let mut req =
                CoapMessage::request(Code::FETCH, MsgType::Con, 1, vec![7]).with_payload(payload);
            req.set_option(
                BlockOpt::new(num, num > 0, 32)
                    .unwrap()
                    .to_option(OptionNumber::BLOCK1),
            );
            let resp = s.handle_request(&req, 0);
            assert_eq!(resp.code.0, 0x88, "block {num}");
            assert_eq!(resp.code, Code::REQUEST_ENTITY_INCOMPLETE);
            assert!(s.block1_assembly.is_empty(), "transaction state kept");
            assert_eq!(s.stats().errors, 1);
        }
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
