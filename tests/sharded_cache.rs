//! Sharded-vs-unsharded response-cache equivalence, plus a
//! seeded-thread isolation check.
//!
//! The tentpole claim of the sharded cache is that lock striping is a
//! pure *mechanical* change: for any interleaved sequence of
//! insert/lookup/revalidate operations (no eviction pressure — see
//! below), [`ShardedResponseCache`] is observationally identical to
//! the unsharded [`ResponseCache`], for any shard count. Under
//! capacity pressure a multi-shard cache may pick different FIFO
//! *victims* (each shard evicts locally); with a single shard even the
//! victim order is identical, which a dedicated property pins down.

use doc_repro::coap::cache::{cache_key, CacheKey, Probe, ReplyTo, ResponseCache};
use doc_repro::coap::msg::{CoapMessage, Code, MsgType};
use doc_repro::coap::opt::{CoapOption, OptionNumber};
use doc_repro::coap::shard::ShardedResponseCache;
use doc_repro::coap::view::CoapView;
use proptest::prelude::*;
use std::sync::Arc;

/// A FETCH request whose payload identifies the key.
fn fetch_req(key_id: u8) -> CoapMessage {
    CoapMessage::request(Code::FETCH, MsgType::Con, 1, vec![1])
        .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
        .with_payload(vec![key_id, 0xD0, 0x0C])
}

fn key(key_id: u8) -> CacheKey {
    cache_key(&fetch_req(key_id))
}

/// A cacheable response whose payload identifies (key, version).
fn response(key_id: u8, version: u8, max_age: u32, etag: bool) -> CoapMessage {
    let mut r = CoapMessage {
        mtype: MsgType::Ack,
        code: Code::CONTENT,
        message_id: 1,
        token: vec![1],
        options: vec![CoapOption::uint(OptionNumber::MAX_AGE, max_age)],
        payload: vec![key_id, version],
    };
    if etag {
        r.set_option(CoapOption::new(OptionNumber::ETAG, vec![key_id, version]));
    }
    r
}

/// A `2.03 Valid` refresh message.
fn valid(key_id: u8, version: u8, max_age: u32) -> CoapMessage {
    let mut r = CoapMessage::ack_reply(1, vec![1], Code::VALID);
    r.set_option(CoapOption::uint(OptionNumber::MAX_AGE, max_age));
    r.set_option(CoapOption::new(OptionNumber::ETAG, vec![key_id, version]));
    r
}

/// One scripted cache operation.
#[derive(Debug, Clone)]
enum Op {
    Insert {
        key_id: u8,
        version: u8,
        max_age_s: u32,
        etag: bool,
    },
    Probe {
        key_id: u8,
    },
    Revalidate {
        key_id: u8,
        version: u8,
        max_age_s: u32,
    },
    Advance {
        dt_ms: u32,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8, any::<u8>(), 0u32..20, any::<bool>()).prop_map(
            |(key_id, version, max_age_s, etag)| Op::Insert {
                key_id,
                version,
                max_age_s,
                etag
            }
        ),
        (0u8..8).prop_map(|key_id| Op::Probe { key_id }),
        (0u8..8, any::<u8>(), 1u32..20).prop_map(|(key_id, version, max_age_s)| {
            Op::Revalidate {
                key_id,
                version,
                max_age_s,
            }
        }),
        (0u32..30_000).prop_map(|dt_ms| Op::Advance { dt_ms }),
    ]
}

/// The client every reply is addressed to: no exchange, no ETag.
const TO: ReplyTo<'static> = ReplyTo {
    message_id: 0,
    token: &[],
    etag: None,
};

/// What a lookup found: a hit's decoded reply, or a stale entry's ETag.
#[derive(Debug, PartialEq)]
enum Found {
    Miss,
    Fresh(CoapMessage),
    Stale(Vec<u8>),
    StaleNoEtag,
}

impl Found {
    fn new(probe: Probe, reply: &[u8], etag: Vec<u8>) -> Self {
        match probe {
            Probe::Hit => Found::Fresh(CoapMessage::decode(reply).unwrap()),
            Probe::Miss => Found::Miss,
            Probe::Stale => Found::Stale(etag),
            Probe::StaleNoEtag => Found::StaleNoEtag,
        }
    }
}

/// Either cache behind one interface, so the same op script drives
/// both implementations through their wire entry points.
enum CacheUnderTest<'a> {
    Flat(&'a mut ResponseCache),
    Sharded(&'a ShardedResponseCache),
}

impl CacheUnderTest<'_> {
    fn lookup(&mut self, k: &CacheKey, now: u64) -> Found {
        let (mut out, mut etag) = (Vec::new(), Vec::new());
        let probe = match self {
            CacheUnderTest::Flat(c) => c.lookup_into(k, now, TO, &mut out, &mut etag),
            CacheUnderTest::Sharded(c) => c.lookup_into(k, now, TO, &mut out, &mut etag),
        };
        Found::new(probe, &out, etag)
    }
    fn insert(&mut self, k: CacheKey, r: CoapMessage, now: u64) {
        let wire = r.encode();
        let view = CoapView::parse(&wire).unwrap();
        match self {
            CacheUnderTest::Flat(c) => c.insert_wire(&k, &view, now),
            CacheUnderTest::Sharded(c) => c.insert_wire(&k, &view, now),
        }
    }
    fn revalidate(&mut self, k: &CacheKey, v: &CoapMessage, now: u64) -> Option<CoapMessage> {
        let (wire, mut out) = (v.encode(), Vec::new());
        let view = CoapView::parse(&wire).unwrap();
        let refreshed = match self {
            CacheUnderTest::Flat(c) => c.revalidate_wire(k, &view, now, TO, &mut out),
            CacheUnderTest::Sharded(c) => c.revalidate_wire(k, &view, now, TO, &mut out),
        };
        refreshed.then(|| CoapMessage::decode(&out).unwrap())
    }
}

/// Apply the op script, returning the observable trace (every lookup
/// and revalidation result, Debug-formatted).
fn apply_ops(ops: &[Op], mut cache: CacheUnderTest<'_>) -> Vec<String> {
    let mut now: u64 = 0;
    let mut trace = Vec::new();
    for op in ops {
        match op {
            Op::Advance { dt_ms } => now += u64::from(*dt_ms),
            Op::Insert {
                key_id,
                version,
                max_age_s,
                etag,
            } => cache.insert(
                key(*key_id),
                response(*key_id, *version, *max_age_s, *etag),
                now,
            ),
            Op::Probe { key_id } => {
                trace.push(format!(
                    "lookup {key_id} -> {:?}",
                    cache.lookup(&key(*key_id), now)
                ));
            }
            Op::Revalidate {
                key_id,
                version,
                max_age_s,
            } => {
                trace.push(format!(
                    "reval {key_id} -> {:?}",
                    cache.revalidate(&key(*key_id), &valid(*key_id, *version, *max_age_s), now)
                ));
            }
        }
    }
    trace
}

proptest! {
    /// For arbitrary interleaved insert/lookup/revalidate sequences
    /// over ≤ 8 keys with ample capacity (so eviction never fires —
    /// the one behaviour where multi-shard FIFO legitimately differs),
    /// every shard count produces exactly the unsharded trace and
    /// aggregate statistics.
    #[test]
    fn sharded_cache_is_observationally_identical(
        ops in proptest::collection::vec(arb_op(), 1..60),
        shards in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
    ) {
        let mut flat = ResponseCache::new(64);
        let flat_trace = apply_ops(&ops, CacheUnderTest::Flat(&mut flat));
        let sharded = ShardedResponseCache::new(64 * shards, shards);
        let sharded_trace = apply_ops(&ops, CacheUnderTest::Sharded(&sharded));
        prop_assert_eq!(&flat_trace, &sharded_trace, "shards = {}", shards);
        prop_assert_eq!(flat.stats(), sharded.stats());
        prop_assert_eq!(flat.len(), sharded.len());
    }

    /// With a single shard the equivalence extends to eviction: the
    /// FIFO victim order is identical even under capacity pressure.
    #[test]
    fn single_shard_matches_even_under_eviction(
        inserts in proptest::collection::vec((0u8..16, any::<u8>()), 1..40),
        capacity in 1usize..6,
    ) {
        let mut flat = ResponseCache::new(capacity);
        let sharded = ShardedResponseCache::new(capacity, 1);
        let (mut flat_cache, mut sharded_cache) =
            (CacheUnderTest::Flat(&mut flat), CacheUnderTest::Sharded(&sharded));
        for (key_id, version) in &inserts {
            let r = response(*key_id, *version, 60, true);
            flat_cache.insert(key(*key_id), r.clone(), 0);
            sharded_cache.insert(key(*key_id), r, 0);
        }
        for key_id in 0u8..16 {
            prop_assert_eq!(
                flat_cache.lookup(&key(key_id), 1),
                sharded_cache.lookup(&key(key_id), 1),
                "key {}", key_id
            );
        }
        prop_assert_eq!(flat.stats(), sharded.stats());
    }
}

/// Multi-shard capacity stays bounded under eviction pressure even if
/// victim order differs from the global FIFO.
#[test]
fn multi_shard_eviction_stays_bounded() {
    let sharded = ShardedResponseCache::new(16, 4);
    for i in 0..200u8 {
        CacheUnderTest::Sharded(&sharded).insert(key(i), response(i, 0, 60, false), 0);
    }
    assert!(sharded.len() <= 16, "len {}", sharded.len());
    assert!(sharded.stats().evictions >= 184);
}

/// Seeded-thread isolation: concurrent workers hammering the sharded
/// cache never observe a response that crossed shard/key boundaries —
/// every fresh hit and revalidation returns the payload written for
/// exactly that key, and ETag-carrying stale entries expose that key's
/// tag.
#[test]
fn concurrent_workers_never_cross_shard_boundaries() {
    const KEYS: u8 = 32;
    const THREADS: u64 = 4;
    const OPS: u64 = 4_000;
    let cache = Arc::new(ShardedResponseCache::new(256, 8));
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let mut cache = CacheUnderTest::Sharded(&cache);
                // Deterministic per-thread xorshift op stream.
                let mut rng: u64 = 0x9E3779B97F4A7C15u64.wrapping_mul(t + 1) | 1;
                let mut step = move || {
                    rng ^= rng >> 12;
                    rng ^= rng << 25;
                    rng ^= rng >> 27;
                    rng.wrapping_mul(0x2545F4914F6CDD1D)
                };
                for _ in 0..OPS {
                    let r = step();
                    let key_id = (r % u64::from(KEYS)) as u8;
                    let now = (r >> 8) % 10_000;
                    match (r >> 32) % 3 {
                        0 => cache.insert(
                            key(key_id),
                            response(key_id, (r >> 16) as u8, 5, true),
                            now,
                        ),
                        1 => match cache.lookup(&key(key_id), now) {
                            Found::Fresh(resp) => {
                                assert_eq!(
                                    resp.payload[0], key_id,
                                    "fresh response served across key/shard boundary"
                                );
                            }
                            Found::Stale(etag) => assert_eq!(etag[0], key_id, "foreign ETag"),
                            Found::Miss | Found::StaleNoEtag => {}
                        },
                        _ => {
                            if let Some(refreshed) =
                                cache.revalidate(&key(key_id), &valid(key_id, 1, 5), now)
                            {
                                assert_eq!(refreshed.payload[0], key_id);
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // Aggregate accounting survived the interleaving.
    let st = cache.stats();
    let lookups = st.hits + st.misses + st.stale;
    assert!(lookups > 0 && st.revalidations > 0);
    assert!(cache.len() <= 256);
}
