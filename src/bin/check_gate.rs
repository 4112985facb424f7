//! `check_gate` — the model-checking CI gate: exhaustively explores
//! bounded thread interleavings of the workspace's *real* concurrency
//! primitives (the pool's `SpmcRing` injector, `ShardedCache`/
//! `ShardedResponseCache`, the proxy's atomic stats) via `doc-check`
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
use doc_coap::cache::{cache_key, Lookup};
use doc_coap::msg::{CoapMessage, Code, MsgType};
use doc_coap::opt::{CoapOption, OptionNumber};
use doc_coap::shard::{ShardedCache, ShardedResponseCache};
use doc_core::method::{build_request, DocMethod};
use doc_core::pool::SpmcRing;
use doc_core::proxy::{CoapProxy, ProxyAction};
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
        name: "ring-spmc",
        about: "SpmcRing: 1 producer / 2 batch-draining consumers, exactly-once delivery",
        body: ring_spmc,
    },
    Model {
        name: "ring-close",
        about: "SpmcRing: concurrent close() drains queued items, then pops yield None",
        body: ring_close,
    },
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
        name: "stats-snapshot",
        about: "CoapProxy: atomic stats snapshots stay coherent under concurrent requests",
        body: stats_snapshot,
    },
];

/// Exactly-once delivery through the real ring: every pushed item
/// reaches exactly one consumer, under every interleaving of the
/// producer, two batch-draining consumers, and close().
fn ring_spmc() {
    let ring: Arc<SpmcRing<u32>> = Arc::new(SpmcRing::new(2));
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                let mut got = Vec::new();
                let mut batch = Vec::new();
                while ring.pop_batch(&mut batch, 2) > 0 {
                    got.append(&mut batch);
                }
                got
            })
        })
        .collect();
    ring.push(1).expect("ring open");
    ring.push(2).expect("ring open");
    ring.close();
    let mut all: Vec<u32> = consumers.into_iter().flat_map(|h| h.join()).collect();
    all.sort_unstable();
    assert_eq!(all, vec![1, 2], "exactly-once delivery");
}

/// Close/drain semantics: items pushed before a concurrent close are
/// still delivered; pops after the drain observe the closed ring.
fn ring_close() {
    let ring: Arc<SpmcRing<u32>> = Arc::new(SpmcRing::new(2));
    ring.push(7).expect("ring open");
    let closer = {
        let ring = Arc::clone(&ring);
        thread::spawn(move || ring.close())
    };
    let popper = {
        let ring = Arc::clone(&ring);
        thread::spawn(move || (ring.pop(), ring.pop()))
    };
    closer.join();
    let (first, second) = popper.join();
    assert_eq!(first, Some(7), "queued item must survive a racing close");
    assert_eq!(second, None, "closed and drained");
}

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

fn content_response(payload: &[u8]) -> CoapMessage {
    CoapMessage {
        mtype: MsgType::Ack,
        code: Code::CONTENT,
        message_id: 1,
        token: vec![1],
        options: vec![CoapOption::uint(OptionNumber::MAX_AGE, 60)],
        payload: payload.to_vec(),
    }
}

/// Two threads insert and look up *different* keys concurrently; each
/// must read back its own payload (no cross-key bleed through the
/// shard locks).
fn response_cache() {
    let cache = Arc::new(ShardedResponseCache::new(8, 2));
    let handles: Vec<_> = (0..2u8)
        .map(|i| {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let key = cache_key(&fetch_request(&[i]));
                cache.insert(key.clone(), content_response(&[i]), 0);
                match cache.lookup(&key, 1) {
                    Lookup::Fresh(r) => assert_eq!(r.payload, vec![i], "cross-key bleed"),
                    other => panic!("inserted entry must be fresh, got {other:?}"),
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    assert_eq!(cache.len(), 2);
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

/// The proxy's atomic stats under concurrent cache hits: every
/// snapshot (taken mid-race by each worker) must be coherent
/// (hits ≤ requests) and the final counters must account for every
/// request exactly once.
fn stats_snapshot() {
    let proxy = Arc::new(CoapProxy::with_shards(8, 2));
    let wire = doc_fetch_wire("a.example.org", 9);
    // Prime the cache single-threaded so both model threads hit.
    match proxy.handle_client_request_wire(&wire, 0) {
        Ok(ProxyAction::Forward {
            request,
            exchange_id,
        }) => {
            let resp = content_response(&request.payload.clone());
            proxy
                .handle_upstream_response(exchange_id, &resp, 0)
                .expect("primed");
        }
        other => panic!("first touch must forward, got {other:?}"),
    }
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let proxy = Arc::clone(&proxy);
            let wire = wire.clone();
            thread::spawn(move || {
                let action = proxy.handle_client_request_wire(&wire, 1).expect("valid");
                assert!(
                    matches!(action, ProxyAction::Respond(_)),
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
