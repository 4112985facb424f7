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
//!
//! # Entry layout
//!
//! The cache is a ring of at most `capacity` slots in insertion order,
//! like the fixed array of `CONFIG_NANOCOAP_CACHE_ENTRIES` entries the
//! paper's proxy runs on (Table 6): once every slot is taken, a new
//! key takes the oldest entry's slot (FIFO eviction) and reuses its
//! buffer, so a warm cache stores a reply without allocating. An
//! open-addressed index of slot numbers, at least twice the entries
//! and probed linearly, finds a key's slot; a removal shifts the rest
//! of its probe chain back, so the index never holds tombstones.
//!
//! A slot keeps the key's bytes and then the origin reply as the wire
//! its hits copy, in one `Vec<u8>`, with every Max-Age instance left
//! out:
//!
//! ```text
//! [key] [code] [options numbered below 14] [options above 14] [0xFF payload]
//!       ^ wire  ^ 1                        ^ split
//! ```
//!
//! Max-Age (14) is the one option a served copy rewrites (RFC 7252
//! §5.6.1), and its value changes length as it decays, so it is
//! spliced in rather than patched. A hit writes the header (Ack, the
//! stored code, the client's MID and token), copies `wire[1..split]`,
//! encodes Max-Age as the seconds left — its delta counted from the
//! last option before `split`, which the entry records — and copies
//! `wire[split..]`. The first option there is stored delta-encoded from
//! 14, since a served reply always carries Max-Age. The first ETag's
//! value range is recorded too, so a client that already holds it gets
//! a payload-free `2.03 Valid` without a walk of the options. The reply
//! is byte-identical to encoding the response with every Max-Age
//! replaced by one carrying the remaining seconds.

use crate::msg::{
    encode_header_into, encode_payload_into, encode_raw_option_into, encode_uint_option_into,
    CoapMessage, Code, MsgType,
};
use crate::opt::{CoapOption, OptionNumber};
use crate::shard::Fnv1a;
use crate::view::{CoapView, OptionView};

/// A computed cache key: opaque bytes plus their FNV-1a hash, computed
/// once at derivation time. The hash does double duty — it selects the
/// shard in [`crate::shard::ShardedResponseCache`] and places the key
/// in the shard's index — so key bytes are never hashed a second time.
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
        // Emit only the precomputed value: a map keyed by `CacheKey`
        // never re-walks the key's bytes.
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
// lint:allow(pub-needs-caller): oracle that ties the serving path's cache_key_view_reusing to the owned cache_key in tests
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

/// The client a reply is encoded for when a refresh re-reads an entry's
/// options: no exchange, no ETag.
const NO_CLIENT: ReplyTo<'static> = ReplyTo {
    message_id: 0,
    token: &[],
    etag: None,
};

/// One slot of the ring: a key, its response's wire without Max-Age
/// (see the module doc) and the wire's freshness timer. Offsets into
/// the wire are `u32`, which a reply (datagram-sized) never outgrows.
#[derive(Debug, Default)]
struct Entry {
    /// The key's precomputed hash.
    hash: u64,
    /// The key's bytes, then the wire: the code, the options other than
    /// Max-Age, and the payload.
    buf: Vec<u8>,
    /// Where the wire starts in `buf`.
    key_len: u32,
    /// Where Max-Age belongs in the wire: the end of the options
    /// numbered below it.
    split: u32,
    /// The number of the last option before `split` (0 if none), which
    /// Max-Age's delta counts from.
    before_split: u16,
    /// The byte range of the first ETag's value in the wire.
    etag: Option<(u32, u32)>,
    stored_at_ms: u64,
    max_age_ms: u64,
}

impl Entry {
    /// Make this slot `key`'s.
    fn set_key(&mut self, key: &CacheKey) {
        self.buf.clear();
        self.buf.extend_from_slice(&key.data);
        self.hash = key.hash;
        self.key_len = key.data.len() as u32;
    }

    /// Store the wire of a response's code, its options in ascending
    /// number order (every Max-Age is skipped) and its payload after the
    /// key, fresh for `max_age` seconds from `now`. The wire is staged
    /// in `build`, so the buffer grows at most once, to its size, and
    /// only past the longest entry the slot has held.
    fn set_wire<'v>(
        &mut self,
        code: Code,
        options: impl IntoIterator<Item = OptionView<'v>>,
        payload: &[u8],
        (max_age, now): (u32, u64),
        build: &mut Vec<u8>,
    ) {
        const MAX_AGE: u16 = OptionNumber::MAX_AGE.0;
        build.clear();
        build.push(code.0);
        let (mut prev, mut before_split) = (0u16, 0u16);
        let (mut split, mut etag) = (None, None);
        for o in options {
            if o.number.0 == MAX_AGE {
                continue;
            }
            if split.is_none() && o.number.0 > MAX_AGE {
                split = Some(build.len() as u32);
                before_split = prev;
                prev = MAX_AGE;
            }
            prev = encode_raw_option_into(prev, o.number.0, o.value, build);
            if o.number == OptionNumber::ETAG && etag.is_none() {
                etag = Some(((build.len() - o.value.len()) as u32, build.len() as u32));
            }
        }
        self.split = match split {
            Some(at) => at,
            None => {
                before_split = prev;
                build.len() as u32
            }
        };
        encode_payload_into(payload, build);
        self.buf.truncate(self.key_len as usize);
        self.buf.reserve_exact(build.len());
        self.buf.extend_from_slice(build);
        self.before_split = before_split;
        self.etag = etag;
        self.stored_at_ms = now;
        self.max_age_ms = u64::from(max_age) * 1000;
    }

    fn wire(&self) -> &[u8] {
        self.buf.get(self.key_len as usize..).unwrap_or_default()
    }

    fn age_ms(&self, now: u64) -> u64 {
        now.saturating_sub(self.stored_at_ms)
    }
    fn is_fresh(&self, now: u64) -> bool {
        self.age_ms(now) < self.max_age_ms
    }
    fn remaining_s(&self, now: u64) -> u32 {
        ((self.max_age_ms.saturating_sub(self.age_ms(now))) / 1000) as u32
    }

    /// The stored response's code.
    fn code(&self) -> Code {
        Code(self.wire().first().copied().unwrap_or_default())
    }

    /// The first ETag's value.
    fn etag(&self) -> Option<&[u8]> {
        let (start, end) = self.etag?;
        self.wire().get(start as usize..end as usize)
    }

    /// Whether a second ETag follows the first. Options ascend, so the
    /// option after it repeats the number exactly when its delta nibble
    /// is 0.
    fn etag_repeats(&self) -> bool {
        self.etag.is_some_and(|(_, end)| {
            end < self.split && self.wire().get(end as usize).is_some_and(|b| b >> 4 == 0)
        })
    }

    /// Encode the client reply with `max_age` seconds of freshness left:
    /// a payload-free `2.03 Valid` when `to` holds the ETag, else the
    /// stored response spliced around a Max-Age of `max_age`.
    fn encode_reply_into(&self, max_age: u32, to: ReplyTo<'_>, out: &mut Vec<u8>) {
        if let Some(etag) = self.etag().filter(|e| to.holds(e)) {
            encode_valid_into(to, etag, max_age, out);
            return;
        }
        encode_header_into(MsgType::Ack, self.code(), to.message_id, to.token, out);
        let (head, tail) = (1..self.split as usize, self.split as usize..);
        out.extend_from_slice(self.wire().get(head).unwrap_or_default());
        encode_uint_option_into(self.before_split, OptionNumber::MAX_AGE.0, max_age, out);
        out.extend_from_slice(self.wire().get(tail).unwrap_or_default());
    }

    /// Whether a refresh by `valid` leaves the stored options as they
    /// are: it carries nothing but Max-Age and, at most, one ETag equal
    /// to the entry's only ETag.
    fn refresh_keeps_options(&self, valid: &CoapView<'_>) -> bool {
        let mut etags = valid.options_of(OptionNumber::ETAG);
        let only_validators = valid
            .options()
            .all(|o| o.number == OptionNumber::MAX_AGE || o.number == OptionNumber::ETAG);
        only_validators
            && match (etags.next(), etags.next()) {
                (None, _) => true,
                (Some(tag), None) => self.etag() == Some(tag.value) && !self.etag_repeats(),
                (Some(_), Some(_)) => false,
            }
    }
}

/// What [`ResponseCache::lookup_into`] found; each outcome counts in
/// its own [`CacheStats`] field.
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
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups that found a stale entry (revalidation possible).
    pub stale: u64,
    /// Successful `2.03 Valid` revalidations.
    pub revalidations: u64,
    /// Entries evicted due to capacity.
    pub evictions: u64,
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, other: Self) {
        let CacheStats {
            hits,
            misses,
            stale,
            revalidations,
            evictions,
        } = other;
        self.hits += hits;
        self.misses += misses;
        self.stale += stale;
        self.revalidations += revalidations;
        self.evictions += evictions;
    }
}

/// A FIFO response cache: the ring of slots and its index described in
/// the module doc, bounded like `CONFIG_NANOCOAP_CACHE_ENTRIES` in
/// Table 6.
pub struct ResponseCache {
    /// The entries, oldest first from `next` once the ring is full.
    slots: Vec<Entry>,
    /// The oldest entry's slot once `slots` holds `capacity` entries:
    /// where the next new key goes.
    next: usize,
    /// Slot + 1 at each key's probe position, 0 where empty: a power of
    /// two of at least twice `slots.len()`, so a probe always ends.
    index: Vec<u32>,
    capacity: usize,
    stats: CacheStats,
    /// Where a new wire is staged before it is copied into its slot.
    build: Vec<u8>,
}

impl ResponseCache {
    /// Create a cache bounded to `capacity` entries (the paper's
    /// clients use 8, the proxy 50 — Table 6).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            slots: Vec::new(),
            next: 0,
            index: Vec::new(),
            capacity: capacity.clamp(1, u32::MAX as usize),
            stats: CacheStats::default(),
            build: Vec::new(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The index position a key of `hash` probes first: the top bits of
    /// the hash mixed as in `shard::shard_index`. That function takes
    /// the shard from the mixed value's bits 32 and up, and FNV-1a's
    /// raw bits 32..40 do not depend on a key's last byte, so neither
    /// would spread one shard's keys.
    fn home(&self, hash: u64) -> usize {
        let bits = self.index.len().trailing_zeros();
        let mixed = hash.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        mixed.checked_shr(64 - bits).unwrap_or(0) as usize
    }

    /// The first index position from `hash`'s home on whose value
    /// `stop` accepts, or `None` for an empty index.
    fn probe(&self, hash: u64, stop: impl Fn(u32) -> bool) -> Option<usize> {
        let mask = self.index.len().checked_sub(1)?;
        let mut pos = self.home(hash);
        loop {
            if stop(*self.index.get(pos)?) {
                return Some(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// The slot holding `key`: hashes are compared first, then bytes.
    fn find(&self, key: &CacheKey) -> Option<usize> {
        let holds_key = |tag: u32| {
            let e = self.slots.get((tag as usize).wrapping_sub(1));
            tag == 0
                || e.is_some_and(|e| {
                    e.hash == key.hash && e.buf.get(..e.key_len as usize) == Some(&key.data)
                })
        };
        let pos = self.probe(key.hash, holds_key)?;
        (*self.index.get(pos)? as usize).checked_sub(1)
    }

    /// Index `slot` at the first empty position of its probe.
    fn index_insert(&mut self, slot: usize) {
        let hash = self.slots.get(slot).map_or(0, |e| e.hash);
        let pos = self.probe(hash, |tag| tag == 0);
        if let Some(tag) = pos.and_then(|pos| self.index.get_mut(pos)) {
            *tag = slot as u32 + 1;
        }
    }

    /// Unindex `slot`, shifting every later position of the probe chain
    /// back into the hole unless that would move it before its home.
    fn index_remove(&mut self, slot: usize) {
        let Some(hash) = self.slots.get(slot).map(|e| e.hash) else {
            return;
        };
        let tag = slot as u32 + 1;
        let Some(mut hole) = self.probe(hash, |t| t == 0 || t == tag) else {
            return;
        };
        let mask = self.index.len() - 1;
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let moved = self.index.get(pos).copied().unwrap_or(0);
            let Some(e) = self.slots.get((moved as usize).wrapping_sub(1)) else {
                break;
            };
            // `moved` may fill the hole unless its home lies in
            // (hole, pos], cyclically.
            let home = self.home(e.hash);
            if pos.wrapping_sub(home) & mask >= pos.wrapping_sub(hole) & mask {
                if let Some(t) = self.index.get_mut(hole) {
                    *t = moved;
                }
                hole = pos;
            }
        }
        if let Some(t) = self.index.get_mut(hole) {
            *t = 0;
        }
    }

    /// Give `key` a slot — a new one while the ring has room, else the
    /// oldest entry's, evicted — and index it.
    fn claim(&mut self, key: &CacheKey) -> usize {
        let slot = if self.slots.len() < self.capacity {
            self.slots.push(Entry::default());
            self.slots.len() - 1
        } else {
            let oldest = self.next;
            self.next = (oldest + 1) % self.capacity;
            self.index_remove(oldest);
            self.stats.evictions += 1;
            oldest
        };
        if let Some(e) = self.slots.get_mut(slot) {
            e.set_key(key);
        }
        if self.index.len() < 2 * self.slots.len() {
            let len = (2 * self.slots.len()).next_power_of_two().max(8);
            self.index.clear();
            self.index.resize(len, 0);
            (0..self.slots.len()).for_each(|s| self.index_insert(s));
        } else {
            self.index_insert(slot);
        }
        slot
    }

    /// Zero-alloc lookup for the proxy's wire path: a fresh entry's
    /// client reply is spliced straight into `out` (cleared at entry);
    /// a stale entry's ETag is copied into `stale_etag` (cleared at
    /// entry). The reply is the stored response addressed to `to` with
    /// Max-Age the seconds left — or a payload-free `2.03 Valid` when
    /// `to` already holds the entry's ETag.
    pub fn lookup_into(
        &mut self,
        key: &CacheKey,
        now: u64,
        to: ReplyTo<'_>,
        out: &mut Vec<u8>,
        stale_etag: &mut Vec<u8>,
    ) -> Probe {
        let Some(e) = self.find(key).and_then(|slot| self.slots.get(slot)) else {
            self.stats.misses += 1;
            return Probe::Miss;
        };
        if e.is_fresh(now) {
            self.stats.hits += 1;
            out.clear();
            e.encode_reply_into(e.remaining_s(now), to, out);
            return Probe::Hit;
        }
        self.stats.stale += 1;
        match e.etag() {
            Some(etag) => {
                stale_etag.clear();
                stale_etag.extend_from_slice(etag);
                Probe::Stale
            }
            None => Probe::StaleNoEtag,
        }
    }

    /// Store a (success) response, borrowed from its wire, under `key`.
    /// Non-success responses and responses to non-cacheable methods
    /// should not be inserted by the caller. The wire is built straight
    /// from the view into the key's slot, which allocates only when the
    /// slot's buffer is shorter than the key and the wire.
    pub fn insert_wire(&mut self, key: &CacheKey, response: &CoapView<'_>, now: u64) {
        let slot = match self.find(key) {
            Some(slot) => slot,
            None => self.claim(key),
        };
        if let Some(e) = self.slots.get_mut(slot) {
            let (code, options) = (response.code, response.options());
            let fresh = (response.max_age(), now);
            e.set_wire(code, options, response.payload(), fresh, &mut self.build);
        }
    }

    /// Refresh a stale entry after a `2.03 Valid`: the entry's timer is
    /// reset and the options carried by the 2.03 response replace their
    /// counterparts on the cached response (RFC 7252 §5.9.1.3 — in
    /// particular Max-Age *and* ETag, so a server that rotated the ETag
    /// while confirming the payload leaves us revalidating with the new
    /// tag, not a dead one). The client reply is encoded into `out`
    /// (cleared at entry): the refreshed response addressed to `to`,
    /// exactly as [`ResponseCache::lookup_into`] serves a fresh hit.
    /// Returns `false` (and leaves `out` empty) if the entry vanished.
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
        let Some(e) = self.refresh(key, valid, now) else {
            return false;
        };
        e.encode_reply_into(e.remaining_s(now), to, out);
        true
    }

    /// The refresh behind [`ResponseCache::revalidate_wire`]: reset the
    /// timer to the 2.03's Max-Age — a 2.03 without one means the
    /// default 60 s (RFC 7252 §5.10.5) — and, unless the 2.03 carries
    /// nothing but Max-Age and the entry's own ETag, rebuild the entry
    /// once: every stored instance of an option number the 2.03 carries
    /// is dropped and the 2.03's instances adopted, so repeatable
    /// options keep all their values and their order.
    fn refresh(&mut self, key: &CacheKey, valid: &CoapView<'_>, now: u64) -> Option<&Entry> {
        let e = self.find(key).and_then(|slot| self.slots.get_mut(slot))?;
        let max_age = valid.max_age();
        if !e.refresh_keeps_options(valid) {
            let mut old_wire = Vec::new();
            e.encode_reply_into(0, NO_CLIENT, &mut old_wire);
            if let Ok(old) = CoapView::parse(&old_wire) {
                let carried = |n: OptionNumber| valid.options().any(|v| v.number == n);
                let mut options: Vec<OptionView<'_>> = old
                    .options()
                    .filter(|o| !carried(o.number))
                    .chain(valid.options())
                    .collect();
                options.sort_by_key(|o| o.number.0);
                e.set_wire(
                    old.code,
                    options,
                    old.payload(),
                    (max_age, now),
                    &mut self.build,
                );
            }
        }
        e.stored_at_ms = now;
        e.max_age_ms = u64::from(max_age) * 1000;
        self.stats.revalidations += 1;
        Some(e)
    }
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

    /// The client reply for an owned cached response with `remaining_s`
    /// of freshness left, built the owned way: a `2.03 Valid` with the
    /// ETag when `to` holds it, else the response re-keyed to `to` as an
    /// Ack with every Max-Age replaced by one carrying `remaining_s`.
    fn encode_entry_reply_into(
        resp: &CoapMessage,
        remaining_s: u32,
        to: ReplyTo<'_>,
        out: &mut Vec<u8>,
    ) {
        let etag = resp.option(OptionNumber::ETAG).map(|o| o.value.clone());
        let reply = match etag.filter(|e| to.holds(e)) {
            Some(etag) => {
                let mut v = CoapMessage::ack_reply(to.message_id, to.token.to_vec(), Code::VALID);
                v.set_option(CoapOption::new(OptionNumber::ETAG, etag));
                v.set_option(CoapOption::uint(OptionNumber::MAX_AGE, remaining_s));
                v
            }
            None => {
                let mut full = resp.clone();
                full.set_option(CoapOption::uint(OptionNumber::MAX_AGE, remaining_s));
                full.mtype = MsgType::Ack;
                full.message_id = to.message_id;
                full.token = to.token.to_vec();
                full
            }
        };
        reply.encode_into(out);
    }

    /// A `2.03 Valid` revalidation response (ETag + Max-Age, no body).
    fn valid_response(max_age: u32, etag: Option<&[u8]>) -> CoapMessage {
        let mut r = response(max_age, etag, b"");
        r.code = Code::VALID;
        r
    }

    /// What a lookup found, with a hit's reply decoded.
    #[derive(Debug, PartialEq)]
    enum Found {
        Miss,
        Fresh(CoapMessage),
        Stale(Vec<u8>),
        StaleNoEtag,
    }

    /// Look `key` up through [`ResponseCache::lookup_into`] for a client
    /// with no exchange and no ETag.
    fn lookup(cache: &mut ResponseCache, key: &CacheKey, now: u64) -> Found {
        let (mut out, mut etag) = (Vec::new(), Vec::new());
        match cache.lookup_into(key, now, NO_CLIENT, &mut out, &mut etag) {
            Probe::Hit => Found::Fresh(CoapMessage::decode(&out).unwrap()),
            Probe::Miss => Found::Miss,
            Probe::Stale => Found::Stale(etag),
            Probe::StaleNoEtag => Found::StaleNoEtag,
        }
    }

    /// Store an owned response through [`ResponseCache::insert_wire`].
    fn insert(cache: &mut ResponseCache, key: &CacheKey, resp: CoapMessage, now: u64) {
        let wire = resp.encode();
        cache.insert_wire(key, &CoapView::parse(&wire).unwrap(), now);
    }

    /// Refresh through [`ResponseCache::revalidate_wire`], with the
    /// reply to a client with no exchange and no ETag decoded.
    fn revalidate(
        cache: &mut ResponseCache,
        key: &CacheKey,
        valid: &CoapMessage,
        now: u64,
    ) -> Option<CoapMessage> {
        let (wire, mut out) = (valid.encode(), Vec::new());
        let view = CoapView::parse(&wire).unwrap();
        cache
            .revalidate_wire(key, &view, now, NO_CLIENT, &mut out)
            .then(|| CoapMessage::decode(&out).unwrap())
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
        insert(&mut cache, &key, response(10, None, b"data"), 0);
        match lookup(&mut cache, &key, 4_000) {
            Found::Fresh(resp) => {
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
        insert(&mut cache, &key, response(5, Some(&[0xE1]), b"data"), 0);
        match lookup(&mut cache, &key, 5_000) {
            Found::Stale(etag) => assert_eq!(etag, vec![0xE1]),
            other => panic!("expected stale, got {other:?}"),
        }
        assert_eq!(cache.stats().stale, 1);
    }

    #[test]
    fn stale_without_etag() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        insert(&mut cache, &key, response(5, None, b"data"), 0);
        assert_eq!(lookup(&mut cache, &key, 6_000), Found::StaleNoEtag);
    }

    #[test]
    fn revalidation_resets_timer() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        insert(&mut cache, &key, response(5, Some(&[0xE1]), b"data"), 0);
        assert!(matches!(lookup(&mut cache, &key, 6_000), Found::Stale(_)));
        // 2.03 Valid arrives with new Max-Age 7.
        let refreshed =
            revalidate(&mut cache, &key, &valid_response(7, Some(&[0xE1])), 6_000).unwrap();
        assert_eq!(refreshed.payload, b"data");
        assert_eq!(refreshed.max_age(), 7);
        match lookup(&mut cache, &key, 9_000) {
            Found::Fresh(r) => assert_eq!(r.max_age(), 4),
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
        insert(&mut cache, &key, response(5, Some(&[0xE1]), b"data"), 0);
        // Stale at t=6 s; server confirms payload but rotates to 0xE2.
        let etag1 = match lookup(&mut cache, &key, 6_000) {
            Found::Stale(etag) => etag,
            other => panic!("expected stale, got {other:?}"),
        };
        assert_eq!(etag1, vec![0xE1]);
        let refreshed =
            revalidate(&mut cache, &key, &valid_response(5, Some(&[0xE2])), 6_000).unwrap();
        assert_eq!(refreshed.payload, b"data", "payload survives refresh");
        assert_eq!(
            refreshed.option(OptionNumber::ETAG).unwrap().value,
            vec![0xE2]
        );
        // Next staleness exposes the *new* tag for revalidation.
        match lookup(&mut cache, &key, 12_000) {
            Found::Stale(etag) => assert_eq!(etag, vec![0xE2]),
            other => panic!("expected stale with rotated etag, got {other:?}"),
        }
    }

    #[test]
    fn revalidation_without_max_age_defaults_to_60s() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        insert(&mut cache, &key, response(5, Some(&[0xE1]), b"data"), 0);
        let mut valid = valid_response(0, Some(&[0xE1]));
        valid.remove_option(OptionNumber::MAX_AGE);
        let refreshed = revalidate(&mut cache, &key, &valid, 6_000).unwrap();
        assert_eq!(refreshed.max_age(), 60);
        assert!(matches!(lookup(&mut cache, &key, 60_000), Found::Fresh(_)));
    }

    #[test]
    fn zero_max_age_is_immediately_stale() {
        // EOL-TTLs responses whose records expired carry Max-Age 0.
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        insert(&mut cache, &key, response(0, Some(&[1]), b"x"), 0);
        assert!(matches!(lookup(&mut cache, &key, 0), Found::Stale(_)));
    }

    #[test]
    fn capacity_eviction_fifo() {
        let mut cache = ResponseCache::new(2);
        let k1 = cache_key(&fetch_req(b"1"));
        let k2 = cache_key(&fetch_req(b"2"));
        let k3 = cache_key(&fetch_req(b"3"));
        insert(&mut cache, &k1, response(60, None, b"1"), 0);
        insert(&mut cache, &k2, response(60, None, b"2"), 0);
        insert(&mut cache, &k3, response(60, None, b"3"), 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(lookup(&mut cache, &k1, 1), Found::Miss);
        assert!(matches!(lookup(&mut cache, &k2, 1), Found::Fresh(_)));
        assert!(matches!(lookup(&mut cache, &k3, 1), Found::Fresh(_)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut cache = ResponseCache::new(2);
        let k = cache_key(&fetch_req(b"1"));
        insert(&mut cache, &k, response(60, None, b"old"), 0);
        insert(&mut cache, &k, response(60, None, b"new"), 10);
        assert_eq!(cache.len(), 1);
        match lookup(&mut cache, &k, 20) {
            Found::Fresh(r) => assert_eq!(r.payload, b"new"),
            other => panic!("{other:?}"),
        }
    }

    /// The wire-direct hit path must produce byte-identical replies to
    /// the owned path (clone the stored message → rewrite Max-Age →
    /// re-key → encode) in every shape: plain hit, decayed Max-Age,
    /// options above/below Max-Age, ETag-match 2.03, empty payload, zero
    /// remaining seconds.
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
                insert(&mut cache, &key, resp.clone(), 0);
                let mut wire = vec![0xAA; 7]; // stale garbage must be cleared
                let to = ReplyTo {
                    message_id: 0x1234,
                    token: &[9, 8, 7],
                    etag: client_etag.as_deref(),
                };
                let probe = cache.lookup_into(&key, now, to, &mut wire, &mut Vec::new());
                assert_eq!(probe, Probe::Hit, "case {i} now {now}");
                let remaining_s = ((u64::from(resp.max_age()) * 1000 - now) / 1000) as u32;
                let mut expect = Vec::new();
                encode_entry_reply_into(&resp, remaining_s, to, &mut expect);
                assert_eq!(wire, expect, "case {i} now {now}");
                assert_eq!(cache.stats().hits, 1);
            }
        }
    }

    /// Miss and stale outcomes each count in their own statistic, write
    /// no reply, and hand out the stale entry's ETag for revalidation.
    #[test]
    fn lookup_into_classifies_and_counts() {
        let mut cache = ResponseCache::new(8);
        let tagged = cache_key(&fetch_req(b"tagged"));
        let untagged = cache_key(&fetch_req(b"untagged"));
        insert(
            &mut cache,
            &tagged,
            response(5, Some(&[0xE1, 0xE2]), b"data"),
            0,
        );
        insert(&mut cache, &untagged, response(5, None, b"data"), 0);
        let to = ReplyTo {
            message_id: 1,
            token: &[1],
            etag: None,
        };
        let (mut out, mut etag) = (Vec::new(), vec![0xAA; 3]);
        let absent = cache_key(&fetch_req(b"absent"));
        assert_eq!(
            cache.lookup_into(&absent, 0, to, &mut out, &mut etag),
            Probe::Miss
        );
        assert_eq!(
            cache.lookup_into(&tagged, 6_000, to, &mut out, &mut etag),
            Probe::Stale
        );
        assert_eq!(
            etag,
            vec![0xE1, 0xE2],
            "stale ETag copied, old bytes cleared"
        );
        assert_eq!(
            cache.lookup_into(&untagged, 6_000, to, &mut out, &mut etag),
            Probe::StaleNoEtag
        );
        assert!(out.is_empty(), "no reply for a non-hit");
        let expect = CacheStats {
            misses: 1,
            stale: 2,
            ..CacheStats::default()
        };
        assert_eq!(cache.stats(), expect);
    }

    /// The wire revalidation refreshes the entry exactly like the owned
    /// refresh (the 2.03's options replace the stored ones) and serves
    /// the refreshed response as a hit would: full reply with the 2.03's
    /// Max-Age and rotated ETag, or a 2.03 to a client that already
    /// holds the new ETag; a vanished entry writes nothing.
    #[test]
    fn revalidate_wire_matches_owned_revalidate() {
        let key = cache_key(&fetch_req(b"q"));
        let mut valid = valid_response(7, Some(&[0xE2]));
        valid
            .options
            .push(CoapOption::new(OptionNumber::SIZE1, vec![9]));
        let valid_wire = valid.encode();
        let valid_view = CoapView::parse(&valid_wire).unwrap();
        // The owned refresh: the stored response with every option the
        // 2.03 carries replaced by the 2.03's.
        let mut refreshed = response(7, Some(&[0xE2]), b"data");
        refreshed.set_option(CoapOption::new(OptionNumber::SIZE1, vec![9]));
        for client_etag in [None, Some(&[0xE2][..]), Some(&[0xE1][..])] {
            let mut cache = ResponseCache::new(8);
            insert(&mut cache, &key, response(5, Some(&[0xE1]), b"data"), 0);
            let to = ReplyTo {
                message_id: 0x4242,
                token: &[4, 2],
                etag: client_etag,
            };
            let mut out = vec![0xAA];
            assert!(cache.revalidate_wire(&key, &valid_view, 6_000, to, &mut out));
            let mut expect = Vec::new();
            encode_entry_reply_into(&refreshed, 7, to, &mut expect);
            assert_eq!(out, expect, "{client_etag:?}");
            let mut later = Vec::new();
            encode_entry_reply_into(&refreshed, 5, NO_CLIENT, &mut later);
            assert_eq!(
                lookup(&mut cache, &key, 8_000),
                Found::Fresh(CoapMessage::decode(&later).unwrap()),
                "same refreshed entry"
            );
            assert_eq!(cache.stats().revalidations, 1);
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
        insert(&mut cache, &key(0), response(60, None, b"0"), 0);
        insert(&mut cache, &key(1), response(60, None, b"1"), 0);
        insert(&mut cache, &key(0), response(60, None, b"0'"), 0);
        for i in 2..9u8 {
            insert(&mut cache, &key(i), response(60, None, &[i]), 0);
            // After inserting i, exactly the three newest keys survive.
            for j in 0..=i {
                let alive = j + 3 > i;
                assert_eq!(
                    matches!(lookup(&mut cache, &key(j), 1), Found::Fresh(_)),
                    alive,
                    "after {i}: key {j}"
                );
            }
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 6);
    }

    /// Keys of one hash and different bytes each get a slot of their
    /// own, and evicting one leaves the other reachable: lookups compare
    /// bytes after hashes, and a removal shifts the rest of its probe
    /// chain back over the hole.
    #[test]
    fn equal_hashes_stay_apart_through_eviction() {
        let key = |hash: u64, byte: u8| CacheKey {
            hash,
            data: vec![byte],
        };
        let payload = |cache: &mut ResponseCache, k: &CacheKey| match lookup(cache, k, 1) {
            Found::Fresh(r) => Some(r.payload),
            _ => None,
        };
        let (a, b) = (key(7, 0xA), key(7, 0xB));
        let mut cache = ResponseCache::new(2);
        insert(&mut cache, &a, response(60, None, b"a"), 0);
        insert(&mut cache, &b, response(60, None, b"b"), 0);
        assert_eq!(payload(&mut cache, &a), Some(b"a".to_vec()));
        assert_eq!(payload(&mut cache, &b), Some(b"b".to_vec()));
        // A key probing from elsewhere evicts `a`, the first of the
        // chain; `b`, behind it, must still be found.
        let other = (0..).find(|&h| cache.home(h) != cache.home(7)).unwrap();
        let c = key(other, 0xC);
        insert(&mut cache, &c, response(60, None, b"c"), 0);
        assert_eq!(lookup(&mut cache, &a, 1), Found::Miss);
        assert_eq!(payload(&mut cache, &b), Some(b"b".to_vec()));
        assert_eq!(payload(&mut cache, &c), Some(b"c".to_vec()));
        // `a` again evicts `b`: `a` and `c` stay reachable.
        insert(&mut cache, &a, response(60, None, b"a'"), 0);
        assert_eq!(lookup(&mut cache, &b, 1), Found::Miss);
        assert_eq!(payload(&mut cache, &a), Some(b"a'".to_vec()));
        assert_eq!(payload(&mut cache, &c), Some(b"c".to_vec()));
        assert_eq!((cache.len(), cache.stats().evictions), (2, 2));
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
}
