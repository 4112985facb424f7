//! CoAP response caching (RFC 7252 §5.6) with ETag validation.
//!
//! This is the mechanism the whole §4.2/§6 evaluation of the paper
//! turns on:
//!
//! * The **cache key** is the request method plus all options that are
//!   not NoCacheKey — and, for FETCH (RFC 8132 §2.1), the request
//!   payload. GET keys on the URI options (which for DoC carry the
//!   base64url `dns=` variable). POST responses are not cacheable,
//!   which is why POST "does not allow for caching" (Table 5).
//! * **Freshness**: a cached response is fresh while its age is below
//!   the `Max-Age` option value (default 60 s). Serving a cached
//!   response rewrites `Max-Age` to the remaining freshness — the
//!   behaviour DoC clients rely on to restore DNS TTLs.
//! * **Validation**: a stale entry with an ETag can be revalidated; a
//!   `2.03 Valid` response refreshes the entry (new Max-Age) without
//!   re-transferring the payload.

use crate::msg::{
    encode_header_into, encode_payload_into, encode_raw_option_into, encode_uint_option_into,
    CoapMessage, Code, MsgType,
};
use crate::opt::{CoapOption, OptionNumber};
use crate::shard::{BuildPassThrough, Fnv1a};
use crate::view::CoapView;
use std::collections::{HashMap, VecDeque};

/// A computed cache key: opaque bytes plus their FNV-1a hash, computed
/// once at derivation time. The hash does double duty — it selects the
/// shard in [`crate::shard::ShardedResponseCache`] and, through a
/// pass-through hasher, indexes the per-shard map — so key bytes are
/// never hashed a second time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    hash: u64,
    data: Vec<u8>,
}

impl CacheKey {
    fn from_bytes(data: Vec<u8>) -> Self {
        CacheKey {
            hash: Fnv1a::hash_bytes(&data),
            data,
        }
    }

    /// The FNV-1a hash computed when the key was derived.
    pub fn precomputed_hash(&self) -> u64 {
        self.hash
    }

    /// Recover the key's byte buffer for reuse. Pairs with
    /// [`cache_key_view_reusing`]: a caller that derives keys in a loop
    /// hands the same buffer back and forth and allocates nothing in
    /// steady state.
    pub fn into_bytes(self) -> Vec<u8> {
        self.data
    }
}

impl std::hash::Hash for CacheKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Emit only the precomputed value; paired with a pass-through
        // hasher this makes map operations hash-free.
        state.write_u64(self.hash);
    }
}

/// Does this method allow response caching?
///
/// Table 5 of the paper: GET ✓, POST ✘, FETCH ✓.
pub fn is_cacheable_method(code: Code) -> bool {
    matches!(code, Code::GET | Code::FETCH)
}

/// Compute the cache key of a request (RFC 7252 §5.6 / RFC 8132 §2.1).
pub fn cache_key(msg: &CoapMessage) -> CacheKey {
    let mut data = Vec::with_capacity(32 + msg.payload.len());
    data.push(msg.code.0);
    let mut opts: Vec<&CoapOption> = msg
        .options
        .iter()
        .filter(|o| is_cache_key_option(o.number))
        .collect();
    // Stable sort by option *number only*: repeatable options (Uri-Path,
    // Uri-Query) keep their relative order, because that order is
    // semantic — `/a/b` and `/b/a` are different resources. Sorting by
    // (number, value) collapsed such permutations into one key, a
    // cross-resource cache-poisoning bug.
    opts.sort_by_key(|o| o.number.0);
    for o in opts {
        data.extend_from_slice(&o.number.0.to_be_bytes());
        data.extend_from_slice(&(o.value.len() as u16).to_be_bytes());
        data.extend_from_slice(&o.value);
    }
    if msg.code == Code::FETCH {
        data.extend_from_slice(&msg.payload);
    }
    CacheKey::from_bytes(data)
}

/// Whether an option participates in the cache key (shared between the
/// owned and view key derivations so they can never diverge).
fn is_cache_key_option(number: OptionNumber) -> bool {
    // NoCacheKey options and the ETag used for revalidation are not
    // part of the key; Block options describe transfer, not content
    // identity.
    !number.is_no_cache_key()
        && number != OptionNumber::ETAG
        && number != OptionNumber::BLOCK1
        && number != OptionNumber::BLOCK2
        && number != OptionNumber::MAX_AGE
}

/// Compute the cache key of a borrowed request view — byte-identical to
/// [`cache_key`] of the equivalent owned message.
///
/// No sort is needed: wire options are already in ascending number
/// order (deltas are unsigned), and repeatable options keep their wire
/// order, which is exactly the stable-by-number order the owned path
/// produces. The only allocation is the key's own buffer.
pub fn cache_key_view(msg: &CoapView<'_>) -> CacheKey {
    // lint:allow(no-alloc-in-into): the key's own buffer is this function's output, sized exactly once
    cache_key_view_reusing(msg, Vec::with_capacity(32 + msg.payload().len()))
}

/// Like [`cache_key_view`], but the key's bytes are written into a
/// caller-supplied buffer (cleared at entry, capacity preserved).
/// Combined with [`CacheKey::into_bytes`] this makes per-request key
/// derivation allocation-free once the buffer is warm — the pool
/// workers' hot path.
pub fn cache_key_view_reusing(msg: &CoapView<'_>, mut data: Vec<u8>) -> CacheKey {
    data.clear();
    data.push(msg.code.0);
    for o in msg.options().filter(|o| is_cache_key_option(o.number)) {
        data.extend_from_slice(&o.number.0.to_be_bytes());
        data.extend_from_slice(&(o.value.len() as u16).to_be_bytes());
        data.extend_from_slice(o.value);
    }
    if msg.code == Code::FETCH {
        data.extend_from_slice(msg.payload());
    }
    CacheKey::from_bytes(data)
}

/// One cached response.
#[derive(Debug, Clone)]
struct Entry {
    response: CoapMessage,
    stored_at_ms: u64,
    max_age_ms: u64,
}

impl Entry {
    fn age_ms(&self, now: u64) -> u64 {
        now.saturating_sub(self.stored_at_ms)
    }
    fn is_fresh(&self, now: u64) -> bool {
        self.age_ms(now) < self.max_age_ms
    }
    fn remaining_s(&self, now: u64) -> u32 {
        ((self.max_age_ms.saturating_sub(self.age_ms(now))) / 1000) as u32
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// No entry.
    Miss,
    /// Fresh entry: a response ready to serve, with `Max-Age` already
    /// rewritten to the remaining freshness.
    Fresh(CoapMessage),
    /// Stale entry carrying this ETag — eligible for revalidation.
    Stale {
        /// The ETag to send in the revalidation request.
        etag: Vec<u8>,
        /// The stale response body (served again on `2.03 Valid`).
        response: CoapMessage,
    },
    /// Stale entry without an ETag — must be re-fetched in full.
    StaleNoEtag,
}

/// What [`ResponseCache::lookup_into`] found. It counts in the
/// statistics exactly like the matching [`Lookup`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Fresh entry: the client reply was encoded into `out`.
    Hit,
    /// No entry.
    Miss,
    /// Stale entry; its ETag was copied out for revalidation.
    Stale,
    /// Stale entry without an ETag — must be re-fetched in full.
    StaleNoEtag,
}

/// The client exchange a reply is addressed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyTo<'a> {
    /// The client's message ID.
    pub message_id: u16,
    /// The client's token (at most 8 bytes).
    pub token: &'a [u8],
    /// The ETag the client presented, if any.
    pub etag: Option<&'a [u8]>,
}

impl ReplyTo<'_> {
    /// Whether the client already holds the representation tagged
    /// `etag`, so a payload-free `2.03 Valid` answers it.
    pub fn holds(&self, etag: &[u8]) -> bool {
        self.etag == Some(etag)
    }
}

/// Encode a `2.03 Valid` ACK carrying only the ETag and `max_age`: the
/// reply to a client whose ETag matches the representation.
pub fn encode_valid_into(to: ReplyTo<'_>, etag: &[u8], max_age: u32, out: &mut Vec<u8>) {
    encode_header_into(MsgType::Ack, Code::VALID, to.message_id, to.token, out);
    let prev = encode_raw_option_into(0, OptionNumber::ETAG.0, etag, out);
    encode_uint_option_into(prev, OptionNumber::MAX_AGE.0, max_age, out);
}

/// Cache statistics (the counters behind Fig. 11's cache-hit events).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fresh hits served without network traffic.
    pub hits: u32,
    /// Lookups that found nothing.
    pub misses: u32,
    /// Lookups that found a stale entry (revalidation possible).
    pub stale: u32,
    /// Successful `2.03 Valid` revalidations.
    pub revalidations: u32,
    /// Entries evicted due to capacity.
    pub evictions: u32,
}

/// An LRU-ish response cache (FIFO eviction, matching the small
/// fixed-size caches of `CONFIG_NANOCOAP_CACHE_ENTRIES` in Table 6).
pub struct ResponseCache {
    entries: HashMap<CacheKey, Entry, BuildPassThrough>,
    order: VecDeque<CacheKey>,
    capacity: usize,
    stats: CacheStats,
}

impl ResponseCache {
    /// Create a cache bounded to `capacity` entries (the paper's
    /// clients use 8, the proxy 50 — Table 6).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            entries: HashMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a request's cache key.
    pub fn lookup(&mut self, key: &CacheKey, now: u64) -> Lookup {
        match self.entries.get(key) {
            None => {
                self.stats.misses += 1;
                Lookup::Miss
            }
            Some(e) if e.is_fresh(now) => {
                self.stats.hits += 1;
                let mut resp = e.response.clone();
                resp.set_option(CoapOption::uint(OptionNumber::MAX_AGE, e.remaining_s(now)));
                Lookup::Fresh(resp)
            }
            Some(e) => {
                self.stats.stale += 1;
                match e.response.option(OptionNumber::ETAG) {
                    Some(etag) => Lookup::Stale {
                        etag: etag.value.clone(),
                        response: e.response.clone(),
                    },
                    None => Lookup::StaleNoEtag,
                }
            }
        }
    }

    /// Zero-alloc lookup for the proxy's wire path: a fresh entry's
    /// client reply is encoded straight into `out` (cleared at entry);
    /// a stale entry's ETag is copied into `stale_etag` (cleared at
    /// entry). The reply is byte-identical to [`ResponseCache::lookup`]'s
    /// `Fresh` response re-keyed to `to` with `mtype` forced to Ack — or
    /// a payload-free `2.03 Valid` when `to` already holds the entry's
    /// ETag. Counts exactly like `lookup`.
    pub fn lookup_into(
        &mut self,
        key: &CacheKey,
        now: u64,
        to: ReplyTo<'_>,
        out: &mut Vec<u8>,
        stale_etag: &mut Vec<u8>,
    ) -> Probe {
        let Some(e) = self.entries.get(key) else {
            self.stats.misses += 1;
            return Probe::Miss;
        };
        if e.is_fresh(now) {
            self.stats.hits += 1;
            out.clear();
            encode_entry_reply_into(&e.response, e.remaining_s(now), to, out);
            return Probe::Hit;
        }
        self.stats.stale += 1;
        match e.response.option(OptionNumber::ETAG) {
            Some(etag) => {
                stale_etag.clear();
                stale_etag.extend_from_slice(&etag.value);
                Probe::Stale
            }
            None => Probe::StaleNoEtag,
        }
    }

    /// Store a (success) response under `key`. Non-success responses
    /// and responses to non-cacheable methods should not be inserted by
    /// the caller.
    pub fn insert(&mut self, key: CacheKey, response: CoapMessage, now: u64) {
        let max_age_ms = response.max_age() as u64 * 1000;
        if !self.entries.contains_key(&key) {
            if self.entries.len() >= self.capacity {
                // FIFO eviction.
                if let Some(victim) = self.order.pop_front() {
                    self.entries.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
            self.order.push_back(key.clone());
        }
        self.entries.insert(
            key,
            Entry {
                response,
                stored_at_ms: now,
                max_age_ms,
            },
        );
    }

    /// Refresh a stale entry after a `2.03 Valid`: the entry's timer is
    /// reset and the options carried by the 2.03 response replace their
    /// counterparts on the cached response (RFC 7252 §5.9.1.3 — in
    /// particular Max-Age *and* ETag, so a server that rotated the ETag
    /// while confirming the payload leaves us revalidating with the new
    /// tag, not a dead one). Returns the refreshed cached response
    /// (full payload) or `None` if the entry vanished.
    pub fn revalidate(
        &mut self,
        key: &CacheKey,
        valid: &CoapMessage,
        now: u64,
    ) -> Option<CoapMessage> {
        debug_assert_eq!(valid.code, Code::VALID);
        let options = valid.options.iter().map(|o| (o.number, o.value.as_slice()));
        let e = self.refresh(key, options, valid.max_age(), now)?;
        Some(e.response.clone())
    }

    /// [`ResponseCache::revalidate`] for a borrowed `2.03 Valid`, with
    /// the client reply encoded into `out` (cleared at entry) instead of
    /// returned — the refreshed response addressed to `to`, exactly as
    /// [`ResponseCache::lookup_into`] serves a fresh hit. Returns
    /// `false` (and leaves `out` empty) if the entry vanished.
    pub fn revalidate_wire(
        &mut self,
        key: &CacheKey,
        valid: &CoapView<'_>,
        now: u64,
        to: ReplyTo<'_>,
        out: &mut Vec<u8>,
    ) -> bool {
        debug_assert_eq!(valid.code, Code::VALID);
        out.clear();
        let options = valid.options().map(|o| (o.number, o.value));
        let Some(e) = self.refresh(key, options, valid.max_age(), now) else {
            return false;
        };
        encode_entry_reply_into(&e.response, e.remaining_s(now), to, out);
        true
    }

    /// The refresh shared by both revalidation entry points: drop every
    /// cached instance of an option number the 2.03 carries, adopt the
    /// 2.03's instances (so repeatable options keep all their values and
    /// their order), and store a single Max-Age of `max_age` — a 2.03
    /// without an explicit Max-Age means the default 60 s (RFC 7252
    /// §5.10.5), and the served copy says so.
    fn refresh<'v>(
        &mut self,
        key: &CacheKey,
        options: impl Iterator<Item = (OptionNumber, &'v [u8])> + Clone,
        max_age: u32,
        now: u64,
    ) -> Option<&Entry> {
        let e = self.entries.get_mut(key)?;
        e.stored_at_ms = now;
        e.max_age_ms = max_age as u64 * 1000;
        for (number, _) in options.clone() {
            e.response.remove_option(number);
        }
        for (number, value) in options.filter(|(n, _)| *n != OptionNumber::MAX_AGE) {
            e.response
                .options
                .push(CoapOption::new(number, value.to_vec()));
        }
        e.response
            .set_option(CoapOption::uint(OptionNumber::MAX_AGE, max_age));
        self.stats.revalidations += 1;
        Some(e)
    }

    /// Remove an entry (e.g. after the origin replaced the payload).
    pub fn invalidate(&mut self, key: &CacheKey) {
        self.entries.remove(key);
        self.order.retain(|k| k != key);
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

/// Encode the client-facing reply for a cached response with
/// `remaining_s` of freshness left, addressed to `to`: a payload-free
/// `2.03 Valid` when the client holds the entry's ETag, else the cached
/// message with the client's MID and token, `mtype` forced to Ack, and
/// every `Max-Age` instance replaced by one carrying `remaining_s`.
/// Byte-identical to cloning the entry, calling `set_option(Max-Age)`
/// and re-encoding, without owning anything: the substituted Max-Age is
/// emitted at its stable-sorted position (after every option numbered
/// below it, before any above), which is exactly where the owned path's
/// remove-then-append plus stable sort lands it.
fn encode_entry_reply_into(
    resp: &CoapMessage,
    remaining_s: u32,
    to: ReplyTo<'_>,
    out: &mut Vec<u8>,
) {
    let entry_etag = resp.option(OptionNumber::ETAG).map(|o| o.value.as_slice());
    if let Some(etag) = entry_etag.filter(|e| to.holds(e)) {
        encode_valid_into(to, etag, remaining_s, out);
        return;
    }
    encode_header_into(MsgType::Ack, resp.code, to.message_id, to.token, out);
    // Stream the options in stable (number, original index) order via
    // repeated minimum scans — option lists are a handful of entries,
    // so this beats building a sorted copy and allocates nothing.
    let mut prev = 0u16;
    let mut max_age_emitted = false;
    let mut last: Option<(u16, usize)> = None;
    loop {
        let mut next: Option<(u16, usize)> = None;
        for (i, o) in resp.options.iter().enumerate() {
            if o.number == OptionNumber::MAX_AGE {
                continue;
            }
            let cand = (o.number.0, i);
            if Some(cand) > last && (next.is_none() || Some(cand) < next) {
                next = Some(cand);
            }
        }
        let Some((num, idx)) = next else {
            break;
        };
        if !max_age_emitted && num > OptionNumber::MAX_AGE.0 {
            prev = encode_uint_option_into(prev, OptionNumber::MAX_AGE.0, remaining_s, out);
            max_age_emitted = true;
        }
        prev = encode_raw_option_into(prev, num, &resp.options[idx].value, out);
        last = Some((num, idx));
    }
    if !max_age_emitted {
        encode_uint_option_into(prev, OptionNumber::MAX_AGE.0, remaining_s, out);
    }
    encode_payload_into(&resp.payload, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgType;

    fn fetch_req(payload: &[u8]) -> CoapMessage {
        CoapMessage::request(Code::FETCH, MsgType::Con, 1, vec![1])
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
            .with_payload(payload.to_vec())
    }

    fn get_req(query: &str) -> CoapMessage {
        CoapMessage::request(Code::GET, MsgType::Con, 1, vec![1])
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
            .with_option(CoapOption::new(
                OptionNumber::URI_QUERY,
                format!("dns={query}").into_bytes(),
            ))
    }

    fn response(max_age: u32, etag: Option<&[u8]>, payload: &[u8]) -> CoapMessage {
        let mut r = CoapMessage {
            mtype: MsgType::Ack,
            code: Code::CONTENT,
            message_id: 1,
            token: vec![1],
            options: vec![CoapOption::uint(OptionNumber::MAX_AGE, max_age)],
            payload: payload.to_vec(),
        };
        if let Some(e) = etag {
            r.set_option(CoapOption::new(OptionNumber::ETAG, e.to_vec()));
        }
        r
    }

    /// A `2.03 Valid` revalidation response (ETag + Max-Age, no body).
    fn valid_response(max_age: u32, etag: Option<&[u8]>) -> CoapMessage {
        let mut r = response(max_age, etag, b"");
        r.code = Code::VALID;
        r
    }

    #[test]
    fn method_cacheability_table5() {
        assert!(is_cacheable_method(Code::GET));
        assert!(is_cacheable_method(Code::FETCH));
        assert!(!is_cacheable_method(Code::POST));
        assert!(!is_cacheable_method(Code::PUT));
    }

    #[test]
    fn fetch_key_includes_payload() {
        let k1 = cache_key(&fetch_req(b"query-a"));
        let k2 = cache_key(&fetch_req(b"query-b"));
        let k3 = cache_key(&fetch_req(b"query-a"));
        assert_ne!(k1, k2);
        assert_eq!(k1, k3);
    }

    #[test]
    fn post_key_ignores_payload() {
        // POST bodies are not part of the cache key — the formal reason
        // POST cannot use response caches (paper §4.1).
        let mut p1 = fetch_req(b"query-a");
        p1.code = Code::POST;
        let mut p2 = fetch_req(b"query-b");
        p2.code = Code::POST;
        assert_eq!(cache_key(&p1), cache_key(&p2));
    }

    #[test]
    fn get_key_includes_uri_query() {
        let k1 = cache_key(&get_req("AAAA"));
        let k2 = cache_key(&get_req("BBBB"));
        assert_ne!(k1, k2);
        assert_eq!(k1, cache_key(&get_req("AAAA")));
    }

    /// The view-based key derivation must be byte-identical to the
    /// owned one — same key, same cache entry.
    #[test]
    fn view_key_matches_owned_key() {
        let mut with_extras = fetch_req(b"query-a");
        with_extras.set_option(CoapOption::new(OptionNumber::ETAG, vec![9, 9]));
        with_extras.set_option(CoapOption::uint(OptionNumber::MAX_AGE, 5));
        with_extras.set_option(CoapOption::uint(OptionNumber::SIZE1, 99));
        let mut get = get_req("AAAA");
        get.options.push(CoapOption::new(
            OptionNumber::URI_QUERY,
            b"extra=1".to_vec(),
        ));
        for msg in [fetch_req(b"q"), with_extras, get] {
            let wire = msg.encode();
            let view = crate::view::CoapView::parse(&wire).unwrap();
            assert_eq!(cache_key_view(&view), cache_key(&msg), "{msg:?}");
        }
    }

    #[test]
    fn method_distinguishes_keys() {
        let f = fetch_req(b"x");
        let mut g = fetch_req(b"x");
        g.code = Code::GET;
        assert_ne!(cache_key(&f), cache_key(&g));
    }

    #[test]
    fn etag_block_maxage_not_in_key() {
        let base = fetch_req(b"q");
        let mut with_extras = base.clone();
        with_extras.set_option(CoapOption::new(OptionNumber::ETAG, vec![9, 9]));
        with_extras.set_option(CoapOption::uint(OptionNumber::MAX_AGE, 5));
        with_extras.set_option(CoapOption::new(OptionNumber::BLOCK2, vec![0x06]));
        with_extras.set_option(CoapOption::uint(OptionNumber::SIZE1, 99));
        assert_eq!(cache_key(&base), cache_key(&with_extras));
    }

    #[test]
    fn fresh_hit_rewrites_max_age() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        cache.insert(key.clone(), response(10, None, b"data"), 0);
        match cache.lookup(&key, 4_000) {
            Lookup::Fresh(resp) => {
                assert_eq!(resp.max_age(), 6);
                assert_eq!(resp.payload, b"data");
            }
            other => panic!("expected fresh, got {other:?}"),
        }
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn expiry_goes_stale() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        cache.insert(key.clone(), response(5, Some(&[0xE1]), b"data"), 0);
        match cache.lookup(&key, 5_000) {
            Lookup::Stale { etag, .. } => assert_eq!(etag, vec![0xE1]),
            other => panic!("expected stale, got {other:?}"),
        }
        assert_eq!(cache.stats().stale, 1);
    }

    #[test]
    fn stale_without_etag() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        cache.insert(key.clone(), response(5, None, b"data"), 0);
        assert_eq!(cache.lookup(&key, 6_000), Lookup::StaleNoEtag);
    }

    #[test]
    fn revalidation_resets_timer() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        cache.insert(key.clone(), response(5, Some(&[0xE1]), b"data"), 0);
        assert!(matches!(cache.lookup(&key, 6_000), Lookup::Stale { .. }));
        // 2.03 Valid arrives with new Max-Age 7.
        let refreshed = cache
            .revalidate(&key, &valid_response(7, Some(&[0xE1])), 6_000)
            .unwrap();
        assert_eq!(refreshed.payload, b"data");
        assert_eq!(refreshed.max_age(), 7);
        match cache.lookup(&key, 9_000) {
            Lookup::Fresh(r) => assert_eq!(r.max_age(), 4),
            other => panic!("expected fresh after revalidation, got {other:?}"),
        }
        assert_eq!(cache.stats().revalidations, 1);
    }

    /// Regression for the cache-key collision: two permutations of the
    /// same Uri-Path segments are different resources and must key
    /// differently (`/a/b` vs `/b/a`).
    #[test]
    fn uri_path_permutations_key_distinctly() {
        let path = |segs: &[&str]| {
            let mut m = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![1]);
            for s in segs {
                m.options.push(CoapOption::new(
                    OptionNumber::URI_PATH,
                    s.as_bytes().to_vec(),
                ));
            }
            m
        };
        assert_ne!(cache_key(&path(&["a", "b"])), cache_key(&path(&["b", "a"])));
        assert_eq!(cache_key(&path(&["a", "b"])), cache_key(&path(&["a", "b"])));
        // Insertion order of *different* option numbers still does not
        // matter (the sort by number is what RFC 7252 §5.6 wants).
        let mut q1 = path(&["dns"]);
        q1.options.push(CoapOption::new(
            OptionNumber::URI_QUERY,
            b"dns=AAAA".to_vec(),
        ));
        let mut q2 = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![1]);
        q2.options.push(CoapOption::new(
            OptionNumber::URI_QUERY,
            b"dns=AAAA".to_vec(),
        ));
        q2.options
            .push(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()));
        assert_eq!(cache_key(&q1), cache_key(&q2));
        // Repeated Uri-Query permutations are likewise distinct keys.
        let query = |a: &str, b: &str| {
            let mut m = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![1]);
            for q in [a, b] {
                m.options.push(CoapOption::new(
                    OptionNumber::URI_QUERY,
                    q.as_bytes().to_vec(),
                ));
            }
            m
        };
        assert_ne!(
            cache_key(&query("x=1", "y=2")),
            cache_key(&query("y=2", "x=1"))
        );
    }

    /// Regression for dead-ETag revalidation: a server may answer
    /// `2.03 Valid` *and* rotate the ETag; the refreshed entry must
    /// carry the new tag so the next revalidation can succeed.
    #[test]
    fn revalidation_adopts_rotated_etag() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        cache.insert(key.clone(), response(5, Some(&[0xE1]), b"data"), 0);
        // Stale at t=6 s; server confirms payload but rotates to 0xE2.
        let etag1 = match cache.lookup(&key, 6_000) {
            Lookup::Stale { etag, .. } => etag,
            other => panic!("expected stale, got {other:?}"),
        };
        assert_eq!(etag1, vec![0xE1]);
        let refreshed = cache
            .revalidate(&key, &valid_response(5, Some(&[0xE2])), 6_000)
            .unwrap();
        assert_eq!(refreshed.payload, b"data", "payload survives refresh");
        assert_eq!(
            refreshed.option(OptionNumber::ETAG).unwrap().value,
            vec![0xE2]
        );
        // Next staleness exposes the *new* tag for revalidation.
        match cache.lookup(&key, 12_000) {
            Lookup::Stale { etag, .. } => assert_eq!(etag, vec![0xE2]),
            other => panic!("expected stale with rotated etag, got {other:?}"),
        }
    }

    #[test]
    fn revalidation_without_max_age_defaults_to_60s() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        cache.insert(key.clone(), response(5, Some(&[0xE1]), b"data"), 0);
        let mut valid = valid_response(0, Some(&[0xE1]));
        valid.remove_option(OptionNumber::MAX_AGE);
        let refreshed = cache.revalidate(&key, &valid, 6_000).unwrap();
        assert_eq!(refreshed.max_age(), 60);
        assert!(matches!(cache.lookup(&key, 60_000), Lookup::Fresh(_)));
    }

    #[test]
    fn zero_max_age_is_immediately_stale() {
        // EOL-TTLs responses whose records expired carry Max-Age 0.
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        cache.insert(key.clone(), response(0, Some(&[1]), b"x"), 0);
        assert!(matches!(cache.lookup(&key, 0), Lookup::Stale { .. }));
    }

    #[test]
    fn capacity_eviction_fifo() {
        let mut cache = ResponseCache::new(2);
        let k1 = cache_key(&fetch_req(b"1"));
        let k2 = cache_key(&fetch_req(b"2"));
        let k3 = cache_key(&fetch_req(b"3"));
        cache.insert(k1.clone(), response(60, None, b"1"), 0);
        cache.insert(k2.clone(), response(60, None, b"2"), 0);
        cache.insert(k3.clone(), response(60, None, b"3"), 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(&k1, 1), Lookup::Miss);
        assert!(matches!(cache.lookup(&k2, 1), Lookup::Fresh(_)));
        assert!(matches!(cache.lookup(&k3, 1), Lookup::Fresh(_)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut cache = ResponseCache::new(2);
        let k = cache_key(&fetch_req(b"1"));
        cache.insert(k.clone(), response(60, None, b"old"), 0);
        cache.insert(k.clone(), response(60, None, b"new"), 10);
        assert_eq!(cache.len(), 1);
        match cache.lookup(&k, 20) {
            Lookup::Fresh(r) => assert_eq!(r.payload, b"new"),
            other => panic!("{other:?}"),
        }
    }

    /// The wire-direct hit path must produce byte-identical replies to
    /// the owned path (lookup → clone → re-key → encode) in every
    /// shape: plain hit, decayed Max-Age, options above/below Max-Age,
    /// ETag-match 2.03, empty payload, zero remaining seconds.
    #[test]
    fn lookup_into_hit_matches_owned_path_bytes() {
        let mut shaped = response(300, Some(&[0xE7, 0x01]), b"payload-bytes");
        // Options straddling Max-Age (14): Uri-Path (11) below... and
        // Proxy-Uri (35) / Size1 (60) above, plus a repeatable option.
        shaped
            .options
            .push(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()));
        shaped
            .options
            .push(CoapOption::new(OptionNumber::URI_PATH, b"sub".to_vec()));
        shaped.set_option(CoapOption::uint(OptionNumber::SIZE1, 99));
        let cases = [
            response(300, None, b"data"),
            response(300, Some(&[0xE1]), b"data"),
            response(10, Some(&[0xE1]), b""),
            shaped,
        ];
        for (i, resp) in cases.into_iter().enumerate() {
            for (now, client_etag) in [
                (0u64, None),
                (4_000, None),
                (9_999, Some(vec![0xE1])),
                (0, Some(vec![0x99])), // non-matching ETag: full reply
            ] {
                let mut cache = ResponseCache::new(8);
                let key = cache_key(&fetch_req(b"q"));
                cache.insert(key.clone(), resp.clone(), 0);
                let mut wire = vec![0xAA; 7]; // stale garbage must be cleared
                let to = ReplyTo {
                    message_id: 0x1234,
                    token: &[9, 8, 7],
                    etag: client_etag.as_deref(),
                };
                let probe = cache.lookup_into(&key, now, to, &mut wire, &mut Vec::new());
                assert_eq!(probe, Probe::Hit, "case {i} now {now}");
                // Owned reference: lookup's Fresh arm + the proxy's
                // reply construction.
                let cached = match cache.lookup(&key, now) {
                    Lookup::Fresh(c) => c,
                    other => panic!("case {i}: {other:?}"),
                };
                let entry_etag = cached.option(OptionNumber::ETAG).map(|o| o.value.clone());
                let expect = if client_etag.is_some() && client_etag == entry_etag {
                    let mut v = CoapMessage::ack_reply(0x1234, vec![9, 8, 7], Code::VALID);
                    if let Some(e) = entry_etag {
                        v.set_option(CoapOption::new(OptionNumber::ETAG, e));
                    }
                    v.set_option(CoapOption::uint(OptionNumber::MAX_AGE, cached.max_age()));
                    v
                } else {
                    let mut full = cached.clone();
                    full.message_id = 0x1234;
                    full.token = vec![9, 8, 7];
                    full.mtype = MsgType::Ack;
                    full
                };
                assert_eq!(wire, expect.encode(), "case {i} now {now}");
                assert_eq!(cache.stats().hits, 2, "hit path and lookup each count");
            }
        }
    }

    /// Miss and stale outcomes count exactly like `lookup`, write no
    /// reply, and hand out the stale entry's ETag for revalidation.
    #[test]
    fn lookup_into_classifies_and_counts_like_lookup() {
        let mut probed = ResponseCache::new(8);
        let mut looked_up = ResponseCache::new(8);
        let tagged = cache_key(&fetch_req(b"tagged"));
        let untagged = cache_key(&fetch_req(b"untagged"));
        for cache in [&mut probed, &mut looked_up] {
            cache.insert(tagged.clone(), response(5, Some(&[0xE1, 0xE2]), b"data"), 0);
            cache.insert(untagged.clone(), response(5, None, b"data"), 0);
        }
        let to = ReplyTo {
            message_id: 1,
            token: &[1],
            etag: None,
        };
        let (mut out, mut etag) = (Vec::new(), vec![0xAA; 3]);
        let absent = cache_key(&fetch_req(b"absent"));
        assert_eq!(
            probed.lookup_into(&absent, 0, to, &mut out, &mut etag),
            Probe::Miss
        );
        assert_eq!(looked_up.lookup(&absent, 0), Lookup::Miss);
        assert_eq!(
            probed.lookup_into(&tagged, 6_000, to, &mut out, &mut etag),
            Probe::Stale
        );
        assert_eq!(
            etag,
            vec![0xE1, 0xE2],
            "stale ETag copied, old bytes cleared"
        );
        assert!(matches!(
            looked_up.lookup(&tagged, 6_000),
            Lookup::Stale { .. }
        ));
        assert_eq!(
            probed.lookup_into(&untagged, 6_000, to, &mut out, &mut etag),
            Probe::StaleNoEtag
        );
        assert_eq!(looked_up.lookup(&untagged, 6_000), Lookup::StaleNoEtag);
        assert!(out.is_empty(), "no reply for a non-hit");
        assert_eq!(probed.stats(), looked_up.stats());
    }

    /// The wire revalidation refreshes the entry exactly like the owned
    /// one and serves the refreshed response as a hit would: full reply
    /// with the 2.03's Max-Age and rotated ETag, or a 2.03 to a client
    /// that already holds the new ETag; a vanished entry writes nothing.
    #[test]
    fn revalidate_wire_matches_owned_revalidate() {
        let key = cache_key(&fetch_req(b"q"));
        let mut valid = valid_response(7, Some(&[0xE2]));
        valid
            .options
            .push(CoapOption::new(OptionNumber::SIZE1, vec![9]));
        let valid_wire = valid.encode();
        let valid_view = CoapView::parse(&valid_wire).unwrap();
        for client_etag in [None, Some(&[0xE2][..]), Some(&[0xE1][..])] {
            let mut owned = ResponseCache::new(8);
            let mut wire = ResponseCache::new(8);
            for cache in [&mut owned, &mut wire] {
                cache.insert(key.clone(), response(5, Some(&[0xE1]), b"data"), 0);
            }
            let to = ReplyTo {
                message_id: 0x4242,
                token: &[4, 2],
                etag: client_etag,
            };
            let mut out = vec![0xAA];
            assert!(wire.revalidate_wire(&key, &valid_view, 6_000, to, &mut out));
            let refreshed = owned.revalidate(&key, &valid, 6_000).unwrap();
            let mut expect = Vec::new();
            encode_entry_reply_into(&refreshed, refreshed.max_age(), to, &mut expect);
            assert_eq!(out, expect, "{client_etag:?}");
            assert_eq!(
                wire.lookup(&key, 8_000),
                owned.lookup(&key, 8_000),
                "same refreshed entry"
            );
            assert_eq!(wire.stats(), owned.stats());
        }
        let mut empty = ResponseCache::new(8);
        let to = ReplyTo {
            message_id: 1,
            token: &[],
            etag: None,
        };
        let mut out = vec![0xAA];
        assert!(!empty.revalidate_wire(&key, &valid_view, 0, to, &mut out));
        assert!(out.is_empty());
    }

    /// Filling a shard past its capacity twice over evicts strictly in
    /// insertion order, and a re-insert does not move a key's place.
    #[test]
    fn fifo_eviction_order_survives_two_full_turnovers() {
        let mut cache = ResponseCache::new(3);
        let key = |i: u8| cache_key(&fetch_req(&[i]));
        cache.insert(key(0), response(60, None, b"0"), 0);
        cache.insert(key(1), response(60, None, b"1"), 0);
        cache.insert(key(0), response(60, None, b"0'"), 0);
        for i in 2..9u8 {
            cache.insert(key(i), response(60, None, &[i]), 0);
            // After inserting i, exactly the three newest keys survive.
            for j in 0..=i {
                let alive = j + 3 > i;
                assert_eq!(
                    matches!(cache.lookup(&key(j), 1), Lookup::Fresh(_)),
                    alive,
                    "after {i}: key {j}"
                );
            }
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 6);
    }

    /// Key derivation into a recycled buffer matches the allocating
    /// derivations, and the buffer round-trips through the key.
    #[test]
    fn reused_key_buffer_matches_and_round_trips() {
        let mut buf = Vec::new();
        for msg in [fetch_req(b"query-a"), get_req("AAAA")] {
            let wire = msg.encode();
            let view = crate::view::CoapView::parse(&wire).unwrap();
            let key = cache_key_view_reusing(&view, std::mem::take(&mut buf));
            assert_eq!(key, cache_key(&msg));
            assert_eq!(key, cache_key_view(&view));
            buf = key.into_bytes();
            assert!(!buf.is_empty());
        }
    }

    #[test]
    fn invalidate_and_clear() {
        let mut cache = ResponseCache::new(4);
        let k = cache_key(&fetch_req(b"1"));
        cache.insert(k.clone(), response(60, None, b"x"), 0);
        cache.invalidate(&k);
        assert!(cache.is_empty());
        cache.insert(k.clone(), response(60, None, b"x"), 0);
        cache.clear();
        assert_eq!(cache.lookup(&k, 0), Lookup::Miss);
    }
}
