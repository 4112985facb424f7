//! Sharded, lock-striped containers for the scale-out request path.
//!
//! The paper's evaluation is strictly single-node, but the proxy and
//! server hot paths are embarrassingly parallel *between* cache keys:
//! two requests for different names never touch the same cache entry.
//! This module exploits that with classic lock striping:
//!
//! * [`ShardedCache<K, V>`] — a generic hash map split over a fixed
//!   power-of-two number of shards, each behind its own [`Mutex`].
//!   Workers touching different shards never contend.
//! * [`ShardedResponseCache`] — the CoAP response cache sharded the
//!   same way, with each shard being a full unsharded
//!   [`ResponseCache`]. Shard selection reuses the FNV-1a hash that
//!   [`cache_key`]/[`cache_key_view`] already computed while building
//!   the key, and the per-shard index probes from that same hash —
//!   key bytes are hashed exactly once per request, at key-derivation
//!   time.
//!
//! With a single shard, `ShardedResponseCache` is observationally
//! identical to `ResponseCache` (same FIFO eviction order, same stats,
//! same replies) — the equivalence the property tests in
//! `tests/sharded_cache.rs` pin down. With `n` shards the key space is
//! partitioned, so per-key behaviour is still identical as long as no
//! shard overflows its slice of the capacity (`capacity / n` entries,
//! rounded up); only the eviction *victim order* under capacity
//! pressure differs from the global FIFO.
//!
//! [`cache_key`]: crate::cache::cache_key
//! [`cache_key_view`]: crate::cache::cache_key_view

use crate::cache::{CacheKey, CacheStats, Probe, ReplyTo, ResponseCache};
use crate::view::CoapView;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::PoisonError;
// `doc_check::sync::Mutex` is a passthrough to `std::sync::Mutex`
// outside model executions; under `check_gate` it lets the model
// checker explore this module's lock interleavings (see
// `crates/check`).
use doc_check::sync::{Mutex, MutexGuard};

/// Lock one shard. A panic while a shard is held leaves its map or
/// cache in a state later calls handle (the worst case is a cache slot
/// whose key was written but not its wire, which answers with an empty
/// reply until the key is stored again or evicted), so poisoning is
/// ignored: one panicking caller must not turn every later access to
/// the shard into a panic.
fn lock<T>(shard: &Mutex<T>) -> MutexGuard<'_, T> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// FNV-1a, the stable 64-bit hash used for shard selection and for the
/// sharded maps. Deterministic across runs and processes (unlike
/// `RandomState`), so shard placement is reproducible in tests and
/// experiments.
#[derive(Clone, Copy)]
pub struct Fnv1a(u64);

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Hash a byte slice in one call (the form the cache-key builders
    /// use).
    pub fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.write(bytes);
        h.finish()
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// Round a requested shard count up to a power of two (at least 1) so
/// shard selection is a mask, not a modulo.
fn shard_count(requested: usize) -> usize {
    requested.max(1).next_power_of_two()
}

/// Pick the shard index from a finalizer-mixed copy of the hash.
///
/// Two constraints: (a) each shard's index probes from the top bits of
/// this same mixed value, so the shard bits must lie below them, or
/// every key in shard `s` would share them, collapsing each index onto
/// 1/shards of its positions; (b) FNV-1a's last step is
/// `(h ^ byte) * prime` with prime `2^40 + 2^8 + 0xb3`, so the final
/// input byte only perturbs bits 0..18 and 40..48 — raw bits 32..40
/// are dead to it, and keys differing only in their last byte would
/// all pile into one shard. A multiplicative finalizer (odd Weyl
/// constant) avalanches every input bit into the mixed value's high
/// half; taking the shard from its bits 32 and up, below the index's
/// bits while shards times index positions stay under 2^32, satisfies
/// both.
fn shard_index(hash: u64, mask: u64) -> usize {
    let mixed = hash.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((mixed >> 32) & mask) as usize
}

/// A lock-striped hash map: a fixed power-of-two number of shards,
/// each a `HashMap` behind its own mutex. Shard selection hashes the
/// key with the map's own (deterministic) hasher, so an operation
/// takes exactly one lock and workers on different shards proceed in
/// parallel.
pub struct ShardedCache<K, V, S = BuildHasherDefault<Fnv1a>> {
    shards: Box<[Mutex<HashMap<K, V, S>>]>,
    mask: u64,
    build: S,
}

impl<K: Hash + Eq, V, S: BuildHasher + Default + Clone> ShardedCache<K, V, S> {
    /// Create a cache striped over `shards` locks (rounded up to a
    /// power of two).
    pub fn new(shards: usize) -> Self {
        let n = shard_count(shards);
        let shards: Vec<_> = (0..n)
            .map(|_| Mutex::new(HashMap::with_hasher(S::default())))
            .collect();
        ShardedCache {
            shards: shards.into_boxed_slice(),
            mask: (n - 1) as u64,
            build: S::default(),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &Mutex<HashMap<K, V, S>>
    where
        K: Borrow<Q>,
    {
        let h = self.build.hash_one(key);
        &self.shards[shard_index(h, self.mask)]
    }

    /// Insert, returning the previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        lock(self.shard(&key)).insert(key, value)
    }

    /// Remove, returning the value.
    pub fn remove(&self, key: &K) -> Option<V> {
        lock(self.shard(key)).remove(key)
    }

    /// Clone the value for `key` out of its shard.
    pub fn get_cloned(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        lock(self.shard(key)).get(key).cloned()
    }

    /// Run `f` with the locked shard map that owns `key` — the escape
    /// hatch for read-modify-write sequences (entry API, conditional
    /// removal) that must be atomic under one lock. `key` may be any
    /// borrowed form of `K` (e.g. `&[u8]` for `Box<[u8]>` keys), so a
    /// caller can find an entry's shard without building an owned key.
    pub fn with_shard_mut<Q: Hash + ?Sized, R>(
        &self,
        key: &Q,
        f: impl FnOnce(&mut HashMap<K, V, S>) -> R,
    ) -> R
    where
        K: Borrow<Q>,
    {
        f(&mut lock(self.shard(key)))
    }

    /// Total entries across shards (takes every lock in order).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| lock(s).is_empty())
    }

    /// Drop every entry.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            lock(s).clear();
        }
    }
}

impl<K: Hash + Eq, V, S: BuildHasher + Default + Clone> Default for ShardedCache<K, V, S> {
    fn default() -> Self {
        Self::new(8)
    }
}

/// The CoAP response cache, lock-striped over [`ResponseCache`]
/// shards.
///
/// Shard selection is `key.precomputed_hash() & mask` — the FNV-1a
/// value derived while the key bytes were assembled, so the request
/// path never hashes key bytes a second time. Total capacity is split
/// evenly (`capacity / shards`, rounded up, at least 1 per shard) and
/// each shard runs the unsharded FIFO eviction locally.
pub struct ShardedResponseCache {
    shards: Box<[Mutex<ResponseCache>]>,
    mask: u64,
}

impl ShardedResponseCache {
    /// Create a cache of ~`capacity` total entries striped over
    /// `shards` locks (rounded up to a power of two).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let n = shard_count(shards);
        let per_shard = capacity.div_ceil(n).max(1);
        let shards: Vec<_> = (0..n)
            .map(|_| Mutex::new(ResponseCache::new(per_shard)))
            .collect();
        ShardedResponseCache {
            shards: shards.into_boxed_slice(),
            mask: (n - 1) as u64,
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<ResponseCache> {
        &self.shards[shard_index(key.precomputed_hash(), self.mask)]
    }

    /// Zero-alloc lookup with the client reply of a fresh hit encoded
    /// into `out` under the shard lock (see
    /// [`ResponseCache::lookup_into`]).
    pub fn lookup_into(
        &self,
        key: &CacheKey,
        now: u64,
        to: ReplyTo<'_>,
        out: &mut Vec<u8>,
        stale_etag: &mut Vec<u8>,
    ) -> Probe {
        lock(self.shard(key)).lookup_into(key, now, to, out, stale_etag)
    }

    /// Store a success response borrowed from its wire (see
    /// [`ResponseCache::insert_wire`]).
    pub fn insert_wire(&self, key: &CacheKey, response: &CoapView<'_>, now: u64) {
        lock(self.shard(key)).insert_wire(key, response, now)
    }

    /// Refresh a stale entry from a borrowed `2.03 Valid` and encode the
    /// client reply into `out` (see [`ResponseCache::revalidate_wire`]).
    pub fn revalidate_wire(
        &self,
        key: &CacheKey,
        valid: &CoapView<'_>,
        now: u64,
        to: ReplyTo<'_>,
        out: &mut Vec<u8>,
    ) -> bool {
        lock(self.shard(key)).revalidate_wire(key, valid, now, to, out)
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated statistics across shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in self.shards.iter() {
            total += lock(s).stats();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::cache_key;
    use crate::msg::{CoapMessage, Code, MsgType};
    use crate::opt::{CoapOption, OptionNumber};
    use std::sync::Arc;

    fn fetch_req(payload: &[u8]) -> CoapMessage {
        CoapMessage::request(Code::FETCH, MsgType::Con, 1, vec![1])
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
            .with_payload(payload.to_vec())
    }

    fn response(max_age: u32, payload: &[u8]) -> CoapMessage {
        CoapMessage {
            mtype: MsgType::Ack,
            code: Code::CONTENT,
            message_id: 1,
            token: vec![1],
            options: vec![CoapOption::uint(OptionNumber::MAX_AGE, max_age)],
            payload: payload.to_vec(),
        }
    }

    /// The reply to a client with no exchange and no ETag.
    const TO: ReplyTo<'static> = ReplyTo {
        message_id: 0,
        token: &[],
        etag: None,
    };

    /// Store `response(60, payload)` through
    /// [`ShardedResponseCache::insert_wire`] at time 0.
    fn insert(cache: &ShardedResponseCache, key: CacheKey, payload: &[u8]) {
        let wire = response(60, payload).encode();
        cache.insert_wire(&key, &CoapView::parse(&wire).unwrap(), 0);
    }

    /// The payload of a hit's reply `out`, or the outcome that was not
    /// a hit.
    fn found(probe: Probe, out: &[u8]) -> Result<Vec<u8>, Probe> {
        match probe {
            Probe::Hit => Ok(CoapView::parse(out).unwrap().payload().to_vec()),
            other => Err(other),
        }
    }

    /// What a lookup of `key` found (see [`found`]).
    fn fresh_payload(
        cache: &ShardedResponseCache,
        key: &CacheKey,
        now: u64,
    ) -> Result<Vec<u8>, Probe> {
        let mut out = Vec::new();
        found(
            cache.lookup_into(key, now, TO, &mut out, &mut Vec::new()),
            &out,
        )
    }

    #[test]
    fn fnv_is_deterministic_and_spreads() {
        assert_eq!(Fnv1a::hash_bytes(b"abc"), Fnv1a::hash_bytes(b"abc"));
        assert_ne!(Fnv1a::hash_bytes(b"abc"), Fnv1a::hash_bytes(b"abd"));
        // Reference vector: FNV-1a 64 of empty input is the offset
        // basis.
        assert_eq!(Fnv1a::hash_bytes(b""), FNV_OFFSET);
    }

    #[test]
    fn shard_counts_round_to_powers_of_two() {
        assert_eq!(ShardedCache::<u64, u64>::new(0).shard_count(), 1);
        assert_eq!(ShardedCache::<u64, u64>::new(1).shard_count(), 1);
        assert_eq!(ShardedCache::<u64, u64>::new(3).shard_count(), 4);
        assert_eq!(ShardedCache::<u64, u64>::new(8).shard_count(), 8);
        assert_eq!(ShardedResponseCache::new(50, 6).shard_count(), 8);
    }

    /// A closure that panics under a shard's lock poisons it; the shard
    /// stays usable for later calls instead of panicking on each.
    #[test]
    fn panicking_closure_leaves_the_shard_usable() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(1);
        c.insert(1, 10);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.with_shard_mut(&1, |m| {
                m.insert(2, 20);
                panic!("caller bug under the shard lock");
            })
        }));
        assert!(caught.is_err());
        assert_eq!(c.insert(3, 30), None);
        assert_eq!(c.get_cloned(&1), Some(10));
        assert_eq!(c.get_cloned(&2), Some(20));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn sharded_cache_basic_map_ops() {
        let c: ShardedCache<String, u32> = ShardedCache::new(4);
        assert!(c.is_empty());
        assert_eq!(c.insert("a".into(), 1), None);
        assert_eq!(c.insert("a".into(), 2), Some(1));
        assert_eq!(c.get_cloned(&"a".into()), Some(2));
        c.with_shard_mut(&"b".to_string(), |m| {
            *m.entry("b".into()).or_insert(0) += 7;
        });
        assert_eq!(c.get_cloned(&"b".into()), Some(7));
        assert_eq!(c.len(), 2);
        assert_eq!(c.remove(&"a".into()), Some(2));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn sharded_response_cache_hits_and_stats() {
        let cache = ShardedResponseCache::new(64, 8);
        for i in 0..32u8 {
            insert(&cache, cache_key(&fetch_req(&[i])), &[i]);
        }
        assert_eq!(cache.len(), 32);
        for i in 0..32u8 {
            let key = cache_key(&fetch_req(&[i]));
            assert_eq!(fresh_payload(&cache, &key, 1_000), Ok(vec![i]), "key {i}");
        }
        assert_eq!(
            fresh_payload(&cache, &cache_key(&fetch_req(b"nope")), 0),
            Err(Probe::Miss)
        );
        let st = cache.stats();
        assert_eq!(st.hits, 32);
        assert_eq!(st.misses, 1);
    }

    #[test]
    fn capacity_splits_across_shards() {
        // 8 shards × ceil(16/8)=2 entries: total stays bounded.
        let cache = ShardedResponseCache::new(16, 8);
        for i in 0..64u8 {
            insert(&cache, cache_key(&fetch_req(&[i])), &[i]);
        }
        assert!(cache.len() <= 16, "len {} over capacity", cache.len());
        assert!(cache.stats().evictions >= 48);
    }

    #[test]
    fn single_shard_keeps_global_fifo_eviction() {
        // shards=1 must evict in exactly the unsharded FIFO order.
        let sharded = ShardedResponseCache::new(2, 1);
        let mut flat = ResponseCache::new(2);
        for i in 0..5u8 {
            let key = cache_key(&fetch_req(&[i]));
            insert(&sharded, key.clone(), &[i]);
            let wire = response(60, &[i]).encode();
            flat.insert_wire(&key, &CoapView::parse(&wire).unwrap(), 0);
        }
        for i in 0..5u8 {
            let key = cache_key(&fetch_req(&[i]));
            let mut out = Vec::new();
            let flat_probe = flat.lookup_into(&key, 1, TO, &mut out, &mut Vec::new());
            assert_eq!(
                fresh_payload(&sharded, &key, 1),
                found(flat_probe, &out),
                "key {i}"
            );
        }
        assert_eq!(sharded.stats(), flat.stats());
    }

    #[test]
    fn concurrent_access_keeps_entries_intact() {
        let cache = Arc::new(ShardedResponseCache::new(256, 8));
        let threads: Vec<_> = (0..4u8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for round in 0..200u8 {
                        let i = round.wrapping_mul(31).wrapping_add(t) % 64;
                        let key = cache_key(&fetch_req(&[i]));
                        insert(&cache, key.clone(), &[i]);
                        if let Ok(payload) = fresh_payload(&cache, &key, 1) {
                            assert_eq!(payload, vec![i], "cross-key response bleed");
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}
