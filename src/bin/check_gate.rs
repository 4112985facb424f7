//! `check_gate` — the model-checking CI gate: exhaustively explores
//! bounded thread interleavings of the workspace's *real* concurrency
//! primitives (`ShardedCache`/`ShardedResponseCache` and the proxy's
//! atomic stats) via `doc-check`
//! and fails with a replayable minimal schedule on any panic, deadlock,
//! or live-lock.
//!
//! With no arguments every model runs under the default bounds,
//! exiting 0 on a clean exploration and 2 with a full failure report
//! (cause, minimal schedule, replay command) otherwise. `./ci.sh
//! check` invokes exactly this.
//!
//! ```text
//! check_gate [--model NAME] [--schedule 0-1-0] [--list]
//!            [--max-schedules N] [--preemption-bound N]
//! ```
//!
//! `--schedule` replays one exact interleaving of one `--model` — the
//! line a failure report prints is copy-pasteable back into this
//! binary.

use std::process::ExitCode;

use doc_check::sync::Arc;
use doc_check::{explore, replay, thread, Config, Schedule};
use doc_coap::cache::{cache_key, Probe, ReplyTo};
use doc_coap::msg::{CoapMessage, Code, MsgType};
use doc_coap::opt::{CoapOption, OptionNumber};
use doc_coap::shard::{ShardedCache, ShardedResponseCache};
use doc_coap::view::CoapView;
use doc_core::method::{build_request, DocMethod};
use doc_core::proxy::{CoapProxy, ProxyScratch, WireAction};
use doc_dns::{Message, Name, RecordType};

/// One named model: a deterministic, self-contained body over the real
/// primitives, run once per explored schedule.
struct Model {
    name: &'static str,
    about: &'static str,
    body: fn(),
}

/// The registry `--list` prints and the default run explores.
const MODELS: &[Model] = &[
    Model {
        name: "shard-cache",
        about: "ShardedCache: with_shard_mut read-modify-write loses no update",
        body: shard_cache,
    },
    Model {
        name: "response-cache",
        about: "ShardedResponseCache: concurrent inserts/lookups never bleed across keys",
        body: response_cache,
    },
    Model {
        name: "response-evict",
        about: "ShardedResponseCache: two keys racing for one slot read their own reply or Miss",
        body: response_cache_eviction,
    },
    Model {
        name: "stats-snapshot",
        about: "CoapProxy: atomic stats snapshots stay coherent under concurrent requests",
        body: stats_snapshot,
    },
];

/// Two threads doing locked read-modify-write on the same shard entry:
/// both increments must land.
fn shard_cache() {
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
}

fn fetch_request(payload: &[u8]) -> CoapMessage {
    CoapMessage::request(Code::FETCH, MsgType::Con, 1, vec![1])
        .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
        .with_payload(payload.to_vec())
}

/// A `2.05 Content` ACK with `max_age` seconds of freshness.
fn content_response(message_id: u16, token: &[u8], max_age: u32, payload: &[u8]) -> CoapMessage {
    CoapMessage {
        mtype: MsgType::Ack,
        code: Code::CONTENT,
        message_id,
        token: token.to_vec(),
        options: vec![CoapOption::uint(OptionNumber::MAX_AGE, max_age)],
        payload: payload.to_vec(),
    }
}

/// Two threads insert and look up *different* keys concurrently; each
/// must read back its own reply, byte for byte (no cross-key bleed
/// through the shard locks).
fn response_cache() {
    let cache = race_two_keys(ShardedResponseCache::new(8, 2), false);
    assert_eq!(cache.len(), 2);
}

/// The same race in one shard of capacity 1, so each insert may evict
/// the other thread's entry from the slot both keys share: a lookup
/// finds its own reply or `Miss`, never the other key's bytes.
fn response_cache_eviction() {
    let cache = race_two_keys(ShardedResponseCache::new(1, 1), true);
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.stats().evictions, 1, "the second insert evicts");
}

/// Run the two threads of a response-cache model on `cache`, each
/// inserting its own key and looking it up, where `may_miss` allows
/// the lookup to find its entry evicted.
fn race_two_keys(cache: ShardedResponseCache, may_miss: bool) -> Arc<ShardedResponseCache> {
    let cache = Arc::new(cache);
    let handles: Vec<_> = (0..2u8)
        .map(|i| {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let key = cache_key(&fetch_request(&[i]));
                let origin = content_response(1, &[1], 60, &[i]).encode();
                let origin = CoapView::parse(&origin).expect("valid response");
                cache.insert_wire(&key, &origin, 0);
                let to = ReplyTo {
                    message_id: u16::from(i),
                    token: &[i],
                    etag: None,
                };
                let mut out = Vec::new();
                let probe = cache.lookup_into(&key, 1, to, &mut out, &mut Vec::new());
                if probe == Probe::Miss && may_miss {
                    return;
                }
                assert_eq!(probe, Probe::Hit, "inserted entry must be fresh");
                // 1 ms after the insert, 59 whole seconds are left.
                let expect = content_response(u16::from(i), &[i], 59, &[i]);
                assert_eq!(out, expect.encode(), "cross-key bleed");
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    cache
}

fn doc_fetch_wire(name: &str, mid: u16) -> Vec<u8> {
    let mut q = Message::query(0, Name::parse(name).expect("valid name"), RecordType::Aaaa);
    q.canonicalize_id();
    build_request(
        DocMethod::Fetch,
        &q.encode(),
        MsgType::Con,
        mid,
        vec![mid as u8],
    )
    .expect("valid request")
    .encode()
}

/// The proxy's atomic stats under concurrent cache hits, served the
/// way the pool serves them (`serve_wire`/`serve_upstream_wire`, one
/// `ProxyScratch` per thread): every snapshot (taken mid-race by each
/// worker) must be coherent (hits ≤ requests) and the final counters
/// must account for every request exactly once.
fn stats_snapshot() {
    let proxy = Arc::new(CoapProxy::with_shards(8, 2));
    let wire = doc_fetch_wire("a.example.org", 9);
    // Prime the cache single-threaded so both model threads hit.
    let (mut scratch, mut out, mut forwarded) = (ProxyScratch::default(), Vec::new(), Vec::new());
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
    let query = CoapView::parse(&forwarded).expect("valid request");
    let origin = content_response(1, &[1], 60, query.payload()).encode();
    assert_eq!(
        proxy.serve_upstream_wire(exchange_id, &origin, 0, &mut scratch, &mut out),
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
                assert!(
                    matches!(action, WireAction::Responded),
                    "primed entry must hit"
                );
                let snap = proxy.stats();
                assert!(
                    snap.cache_hits <= snap.requests,
                    "snapshot incoherent: {snap:?}"
                );
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    let snap = proxy.stats();
    assert_eq!(snap.requests, 3, "every request counted once");
    assert_eq!(snap.cache_hits, 2, "every hit counted once");
}

struct Args {
    model: Option<String>,
    schedule: Option<Schedule>,
    list: bool,
    max_schedules: Option<usize>,
    preemption_bound: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        model: None,
        schedule: None,
        list: false,
        max_schedules: None,
        preemption_bound: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--model" => args.model = Some(value("--model")?),
            "--schedule" => args.schedule = Some(value("--schedule")?.parse()?),
            "--list" => args.list = true,
            "--max-schedules" => {
                args.max_schedules = Some(
                    value("--max-schedules")?
                        .parse()
                        .map_err(|e| format!("--max-schedules: {e}"))?,
                )
            }
            "--preemption-bound" => {
                args.preemption_bound = Some(
                    value("--preemption-bound")?
                        .parse()
                        .map_err(|e| format!("--preemption-bound: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.schedule.is_some() && args.model.is_none() {
        return Err("--schedule needs --model".to_string());
    }
    Ok(args)
}

fn config_for(model: &Model, args: &Args) -> Config {
    Config {
        max_schedules: args.max_schedules.unwrap_or(200_000),
        preemption_bound: args.preemption_bound.unwrap_or(2),
        replay_hint: Some(format!(
            "cargo run --release -p doc-repro --bin check_gate -- --model {}",
            model.name
        )),
        ..Config::default()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("check_gate: {e}");
            eprintln!(
                "usage: check_gate [--model NAME] [--schedule 0-1-0] [--list] \
                 [--max-schedules N] [--preemption-bound N]"
            );
            return ExitCode::from(2);
        }
    };

    if args.list {
        for m in MODELS {
            println!("{:16} {}", m.name, m.about);
        }
        return ExitCode::SUCCESS;
    }

    let selected: Vec<&Model> = match &args.model {
        Some(name) => match MODELS.iter().find(|m| m.name == *name) {
            Some(m) => vec![m],
            None => {
                eprintln!("check_gate: unknown model {name:?} (try --list)");
                return ExitCode::from(2);
            }
        },
        None => MODELS.iter().collect(),
    };

    if let Some(schedule) = &args.schedule {
        let model = selected[0];
        return match replay(&config_for(model, &args), schedule, model.body) {
            Ok(_) => {
                println!("{}: schedule {} runs clean", model.name, schedule);
                ExitCode::SUCCESS
            }
            Err(failure) => {
                eprintln!("{}: {failure}", model.name);
                ExitCode::from(2)
            }
        };
    }

    let mut total = 0usize;
    for model in &selected {
        let started = std::time::Instant::now();
        match explore(&config_for(model, &args), model.body) {
            Ok(report) => {
                total += report.schedules;
                println!(
                    "{:16} {:6} schedules explored{} [{:?}]",
                    model.name,
                    report.schedules,
                    if report.completed {
                        ""
                    } else {
                        " (truncated by --max-schedules)"
                    },
                    started.elapsed(),
                );
            }
            Err(failure) => {
                eprintln!("{}: {failure}", model.name);
                return ExitCode::from(2);
            }
        }
    }
    println!(
        "check_gate: clean — {total} schedules across {} models",
        selected.len()
    );
    ExitCode::SUCCESS
}
