//! Schedule exploration: run a model body under every bounded
//! interleaving and report the first failure with a replayable
//! schedule.
//!
//! The search is stateless model checking in the CHESS style: execute
//! the body once under a *decision prefix* (forced choices for the
//! first N scheduling decisions, run-to-completion afterwards), then
//! branch — for every decision past the prefix, every runnable thread
//! that was not chosen becomes a new prefix to try. Prefixes are
//! bucketed by how many **preemptions** they contain (a preemption is
//! choosing away from a thread that could have kept running) and
//! buckets are drained in nondecreasing order, so the first failure
//! found carries the minimal number of preemptions — the closest thing
//! to a human-readable root cause a schedule can offer. Branching only
//! at positions past the generating prefix makes every executed
//! schedule distinct: no interleaving is explored twice.

use crate::sched::{self, Decision, Schedule};

/// How an execution failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A model thread panicked (assertion failure in the body).
    Panic,
    /// No thread was runnable but some were still live.
    Deadlock,
    /// The execution exceeded [`Config::max_steps`] (live-lock).
    StepBudget,
    /// A replayed schedule named a thread that was not runnable — the
    /// model body is not deterministic.
    ScheduleDiverged,
}

impl core::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            FailureKind::Panic => "panic",
            FailureKind::Deadlock => "deadlock",
            FailureKind::StepBudget => "step budget exceeded",
            FailureKind::ScheduleDiverged => "schedule diverged",
        })
    }
}

/// Exploration limits.
#[derive(Debug, Clone)]
pub struct Config {
    /// Cap on executed schedules; hitting it yields an incomplete
    /// [`Report`], never a false "verified".
    pub max_schedules: usize,
    /// Per-execution scheduling-decision budget (live-lock tripwire).
    pub max_steps: u64,
    /// Maximum preemptions per schedule (CHESS bound). Most real
    /// ordering bugs need 1–2.
    pub preemption_bound: usize,
    /// Command prefix printed in the failure report's replay line,
    /// e.g. `cargo run --bin check_gate -- --model shard-cache`.
    pub replay_hint: Option<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_schedules: 20_000,
            max_steps: 5_000,
            preemption_bound: 2,
            replay_hint: None,
        }
    }
}

/// A completed exploration (no failure found).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Schedules executed.
    pub schedules: usize,
    /// `false` if [`Config::max_schedules`] cut the search short.
    pub completed: bool,
}

/// A failing interleaving, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// How the execution failed.
    pub kind: FailureKind,
    /// The panic message / deadlock description.
    pub message: String,
    /// The full decision sequence of the failing execution.
    pub schedule: Schedule,
    /// Preemptions in the failing schedule (minimal over all failing
    /// schedules when produced by [`explore`]).
    pub preemptions: usize,
    /// Schedules executed up to and including the failing one.
    pub schedules_explored: usize,
    /// Copied from [`Config::replay_hint`].
    pub replay_hint: Option<String>,
}

impl core::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "doc-check: failing interleaving found ({})", self.kind)?;
        writeln!(f, "  cause: {}", self.message)?;
        writeln!(
            f,
            "  minimal failing schedule ({} preemptions): {}",
            self.preemptions, self.schedule
        )?;
        writeln!(f, "  schedules explored: {}", self.schedules_explored)?;
        let hint = self.replay_hint.as_deref().unwrap_or("re-run with");
        write!(f, "  replay: {hint} --schedule {}", self.schedule)
    }
}

impl std::error::Error for CheckFailure {}

/// Preemption count of a decision sequence: decisions that switched
/// away from a thread that was still runnable.
fn preemptions_of(decisions: &[Decision]) -> usize {
    decisions
        .iter()
        .filter(|d| d.runnable.contains(&d.prev) && d.chosen != d.prev)
        .count()
}

/// Explore every schedule of `body` within `cfg`'s bounds. `body` must
/// be deterministic and self-contained (fresh state per call); it runs
/// once per schedule.
pub fn explore<F: Fn() + Sync>(cfg: &Config, body: F) -> Result<Report, CheckFailure> {
    explore_dyn(cfg, &body)
}

fn explore_dyn(cfg: &Config, body: &(dyn Fn() + Sync)) -> Result<Report, CheckFailure> {
    // buckets[p] holds decision prefixes containing exactly p
    // preemptions. Branches from a level-p execution land in p or p+1,
    // never lower, so draining in nondecreasing order terminates and
    // finds a minimal-preemption failure first.
    let mut buckets: Vec<Vec<Vec<usize>>> = vec![Vec::new(); cfg.preemption_bound + 1];
    buckets[0].push(Vec::new());
    let mut explored = 0usize;
    let mut level = 0usize;
    while level < buckets.len() {
        let Some(preset) = buckets[level].pop() else {
            level += 1;
            continue;
        };
        if explored >= cfg.max_schedules {
            return Ok(Report {
                schedules: explored,
                completed: false,
            });
        }
        let res = sched::run_one(cfg.max_steps, &preset, body);
        explored += 1;
        if let Some(fail) = res.failure {
            return Err(CheckFailure {
                kind: fail.kind,
                message: fail.message,
                schedule: fail.schedule,
                preemptions: preemptions_of(&res.decisions),
                schedules_explored: explored,
                replay_hint: cfg.replay_hint.clone(),
            });
        }
        branch(&res.decisions, preset.len(), &mut buckets);
    }
    Ok(Report {
        schedules: explored,
        completed: true,
    })
}

/// Enqueue the unexplored alternatives of one completed execution:
/// for every decision at position `from` or later, every runnable
/// thread that was not chosen, provided the resulting prefix stays
/// within the preemption bound (`buckets.len() - 1`).
fn branch(decisions: &[Decision], from: usize, buckets: &mut [Vec<Vec<usize>>]) {
    let bound = buckets.len() - 1;
    let mut preemptions = 0usize;
    for (i, d) in decisions.iter().enumerate() {
        if i >= from {
            for &t in &d.runnable {
                if t == d.chosen {
                    continue;
                }
                let adds = usize::from(d.runnable.contains(&d.prev) && t != d.prev);
                let total = preemptions + adds;
                if total <= bound {
                    let mut preset: Vec<usize> = decisions[..i].iter().map(|x| x.chosen).collect();
                    preset.push(t);
                    buckets[total].push(preset);
                }
            }
        }
        if d.runnable.contains(&d.prev) && d.chosen != d.prev {
            preemptions += 1;
        }
    }
}

/// Re-execute `body` under one exact schedule (typically taken from a
/// [`CheckFailure`] report). Returns the same failure the original
/// exploration hit, or a clean single-schedule [`Report`].
pub fn replay<F: Fn() + Sync>(
    cfg: &Config,
    schedule: &Schedule,
    body: F,
) -> Result<Report, CheckFailure> {
    let res = sched::run_one(cfg.max_steps, &schedule.0, &body);
    match res.failure {
        Some(fail) => Err(CheckFailure {
            kind: fail.kind,
            message: fail.message,
            schedule: fail.schedule,
            preemptions: preemptions_of(&res.decisions),
            schedules_explored: 1,
            replay_hint: cfg.replay_hint.clone(),
        }),
        None => Ok(Report {
            schedules: 1,
            completed: true,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicU64, Ordering};
    use crate::sync::{Arc, Mutex};
    use crate::thread;

    #[test]
    fn mutex_protected_counter_is_verified() {
        let report = explore(&Config::default(), || {
            let counter = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    thread::spawn(move || {
                        *counter.lock().unwrap() += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(*counter.lock().unwrap(), 2);
        })
        .expect("a correct counter has no failing schedule");
        assert!(report.completed);
        assert!(report.schedules > 1, "must explore real alternatives");
    }

    /// The classic lost update: load-then-store instead of fetch_add.
    /// Needs one preemption between the load and the store, so the
    /// bound-0 search verifies it (vacuously) and bound-1 finds it.
    fn lost_update_body() {
        let v = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let v = Arc::clone(&v);
                thread::spawn(move || {
                    let cur = v.load(Ordering::SeqCst);
                    v.store(cur + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(v.load(Ordering::SeqCst), 2, "lost update");
    }

    #[test]
    fn lost_update_needs_a_preemption() {
        let bound0 = Config {
            preemption_bound: 0,
            ..Config::default()
        };
        assert!(
            explore(&bound0, lost_update_body).is_ok(),
            "run-to-completion schedules cannot interleave the load/store"
        );

        let failure = explore(&Config::default(), lost_update_body)
            .expect_err("one preemption exposes the lost update");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(
            failure.message.contains("lost update"),
            "{}",
            failure.message
        );
        assert_eq!(failure.preemptions, 1, "minimal preemption count");
    }

    #[test]
    fn failure_replays_identically() {
        let first = explore(&Config::default(), lost_update_body).expect_err("found");
        let second = explore(&Config::default(), lost_update_body).expect_err("found again");
        assert_eq!(
            first.schedule, second.schedule,
            "exploration is deterministic"
        );
        assert_eq!(first.schedules_explored, second.schedules_explored);

        let replayed = replay(&Config::default(), &first.schedule, lost_update_body)
            .expect_err("the recorded schedule reproduces the failure");
        assert_eq!(replayed.kind, first.kind);
        assert_eq!(replayed.message, first.message);
        assert_eq!(replayed.schedule, first.schedule);
    }

    #[test]
    fn abba_deadlock_is_detected() {
        let failure = explore(&Config::default(), || {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = thread::spawn(move || {
                let _ga = a2.lock().unwrap();
                let _gb = b2.lock().unwrap();
            });
            {
                let _gb = b.lock().unwrap();
                let _ga = a.lock().unwrap();
            }
            t.join();
        })
        .expect_err("ABBA ordering must deadlock under some schedule");
        assert_eq!(failure.kind, FailureKind::Deadlock);
        assert!(failure.message.contains("deadlock"), "{}", failure.message);
    }

    #[test]
    fn report_contains_replay_line() {
        let cfg = Config {
            replay_hint: Some("check_gate --model demo".to_string()),
            ..Config::default()
        };
        let failure = explore(&cfg, lost_update_body).expect_err("found");
        let text = failure.to_string();
        assert!(
            text.contains("check_gate --model demo --schedule"),
            "replay line missing:\n{text}"
        );
        assert!(text.contains("minimal failing schedule"), "{text}");
    }
}
