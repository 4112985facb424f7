//! Model-checked concurrency tests over the *real* workspace
//! primitives — the tier-1 slice of what `check_gate` explores more
//! exhaustively in CI. Each body is deterministic and self-contained;
//! `doc_check::explore` runs it once per bounded interleaving.

use doc_repro::check::sync::Arc;
use doc_repro::check::{explore, thread, Config, FailureKind};
use doc_repro::coap::shard::ShardedCache;
use doc_repro::coap::view::CoapView;
use doc_repro::doc::proxy::{CoapProxy, ProxyScratch, WireAction};

/// Debug builds explore noticeably slower than the release-mode gate,
/// so tier-1 uses a tighter (but still exhaustive for these bodies)
/// budget.
fn cfg() -> Config {
    Config {
        max_schedules: 20_000,
        preemption_bound: 2,
        ..Config::default()
    }
}

#[test]
fn sharded_cache_read_modify_write_loses_no_update() {
    let report = explore(&cfg(), || {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    cache.with_shard_mut(&1, |m| {
                        *m.entry(1).or_insert(0) += 1;
                    });
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(cache.get_cloned(&1), Some(2), "lost increment");
    })
    .expect("with_shard_mut is atomic per shard");
    assert!(report.completed);
}

/// The converse of the test above — a get/insert sequence that takes
/// the shard lock *twice* is not atomic, and the checker must say so.
/// This guards the checker's sensitivity on the real `ShardedCache`,
/// not just on the toy ring in `crates/check/tests/injected_race.rs`.
#[test]
fn sharded_cache_unlocked_rmw_is_caught() {
    let failure = explore(&cfg(), || {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    // BUG under test: lock dropped between read and write.
                    let current = cache.get_cloned(&1).unwrap_or(0);
                    cache.insert(1, current + 1);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(cache.get_cloned(&1), Some(2), "lost increment");
    })
    .expect_err("two-lock read-modify-write must lose an update somewhere");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("lost increment"),
        "{}",
        failure.message
    );
    assert!(
        failure.preemptions <= 2,
        "a small bound suffices: {}",
        failure.preemptions
    );
}

#[test]
fn proxy_stats_snapshots_stay_coherent_under_concurrent_hits() {
    let report = explore(&cfg(), || {
        let proxy = Arc::new(CoapProxy::with_shards(8, 2));
        let wire = fetch_wire("a.example.org");
        let (mut scratch, mut out, mut forwarded) =
            (ProxyScratch::default(), Vec::new(), Vec::new());
        let exchange_id = match proxy.serve_wire(&wire, 0, &mut scratch, &mut out) {
            Ok(WireAction::Forward {
                request,
                exchange_id,
            }) => {
                request.encode_into(&mut forwarded);
                exchange_id
            }
            other => panic!("first touch must forward, got {other:?}"),
        };
        let resp = doc_repro::coap::msg::CoapMessage {
            mtype: doc_repro::coap::msg::MsgType::Ack,
            code: doc_repro::coap::msg::Code::CONTENT,
            message_id: 1,
            token: vec![1],
            options: vec![doc_repro::coap::opt::CoapOption::uint(
                doc_repro::coap::opt::OptionNumber::MAX_AGE,
                60,
            )],
            payload: CoapView::parse(&forwarded)
                .expect("valid")
                .payload()
                .to_vec(),
        };
        assert_eq!(
            proxy.serve_upstream_wire(exchange_id, &resp.encode(), 0, &mut scratch, &mut out),
            Ok(true),
            "primed"
        );
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let proxy = Arc::clone(&proxy);
                let wire = wire.clone();
                thread::spawn(move || {
                    let (mut scratch, mut out) = (ProxyScratch::default(), Vec::new());
                    let action = proxy
                        .serve_wire(&wire, 1, &mut scratch, &mut out)
                        .expect("valid");
                    assert!(matches!(action, WireAction::Responded), "must hit");
                    let snap = proxy.stats();
                    assert!(snap.cache_hits <= snap.requests, "incoherent: {snap:?}");
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let snap = proxy.stats();
        assert_eq!((snap.requests, snap.cache_hits), (3, 2), "{snap:?}");
    })
    .expect("atomic stats have no failing interleaving");
    assert!(report.completed);
}

fn fetch_wire(name: &str) -> Vec<u8> {
    use doc_repro::dns::{Message, Name, RecordType};
    let mut q = Message::query(0, Name::parse(name).expect("valid"), RecordType::Aaaa);
    q.canonicalize_id();
    doc_repro::doc::method::build_request(
        doc_repro::doc::method::DocMethod::Fetch,
        &q.encode(),
        doc_repro::coap::msg::MsgType::Con,
        9,
        vec![9],
    )
    .expect("valid request")
    .encode()
}
