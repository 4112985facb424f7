//! `doc-check` — a deterministic thread-interleaving model checker in
//! the spirit of [loom].
//!
//! The workspace's concurrency layer (`doc_coap::shard::ShardedCache`
//! and `ShardedResponseCache`, the proxy's atomic statistics) is
//! correct only if it is correct under *every* interleaving, but
//! ordinary tests only see whatever schedules the OS happens to
//! produce. This crate makes interleavings a controlled input:
//!
//! * [`sync`] exports drop-in [`sync::Mutex`] and [`sync::atomic`]
//!   types with the `std::sync` API. Outside a model execution they
//!   are zero-cost passthroughs to `std` (a single thread-local
//!   lookup per operation), so production code uses them
//!   unconditionally — the real primitives are what gets checked, not
//!   copies.
//! * [`thread::spawn`]/[`thread::yield_now`] create *model* threads
//!   inside an execution. Only one model thread runs at a time; every
//!   synchronization operation is a yield point where the scheduler
//!   decides who runs next.
//! * [`explore`] drives a depth-first search over bounded schedules
//!   (run-to-completion baseline, then alternatives under a
//!   preemption bound, CHESS-style), re-running the model body once
//!   per schedule. Iterative deepening over the preemption bound means
//!   the first failure found carries the *minimal* number of
//!   preemptions. A failure ([`CheckFailure`]) carries the exact
//!   schedule and a one-line replay command; [`replay`] re-executes
//!   it deterministically.
//!
//! The memory model explored is sequential consistency: atomics take a
//! scheduling decision before each operation but the operation itself
//! is `SeqCst` regardless of the requested ordering. Weak-memory
//! reorderings (store buffers, as modeled by full loom) are out of
//! scope — this checker targets lock-discipline and logical-ordering
//! races, which is where the workspace's bugs can live (every shared
//! structure is mutex- or SeqCst-atomic-based).
//!
//! Everything is deterministic: thread ids are assigned in spawn
//! order, the scheduler is a pure function of the decision prefix, and
//! model bodies are required to be deterministic (no I/O, no ambient
//! randomness, fresh state per call). The same schedule therefore
//! replays the same execution, bit for bit — the property the
//! `injected_race` test pins end to end.
//!
//! [loom]: https://github.com/tokio-rs/loom

pub mod explore;
pub mod sched;
pub mod sync;
pub mod thread;

pub use explore::{explore, replay, CheckFailure, Config, FailureKind, Report};
pub use sched::Schedule;
