//! Model threads: `spawn`/`join`/`yield_now` inside an execution.
//!
//! Unlike the [`crate::sync`] shims these are *not* unconditional
//! drop-ins for production code — [`spawn`] panics outside a model
//! execution (production code keeps using `std::thread`). Model bodies
//! use them to create the threads whose interleavings the checker
//! explores. [`yield_now`] does passthrough to `std::thread::yield_now`
//! so it is safe anywhere.

use crate::sched::{self, BlockReason, Execution};
use std::sync::{Arc, Mutex as StdMutex};

/// Handle to a model thread; [`JoinHandle::join`] blocks the calling
/// model thread until the target finishes and returns its value.
pub struct JoinHandle<T> {
    exec: Arc<Execution>,
    tid: usize,
    slot: Arc<StdMutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    pub(crate) fn new(exec: Arc<Execution>, tid: usize, slot: Arc<StdMutex<Option<T>>>) -> Self {
        JoinHandle { exec, tid, slot }
    }

    /// Wait for the thread to finish and return its value.
    pub fn join(self) -> T {
        let (cur, me) = sched::current().expect("doc_check join outside a model execution");
        while !self.exec.is_finished(self.tid) {
            cur.block(me, BlockReason::Join(self.tid));
        }
        self.slot
            .lock()
            .unwrap()
            .take()
            .expect("model thread produced no value (it panicked)")
    }
}

/// Spawn a model thread. Must be called from inside a model execution
/// (i.e. from an [`crate::explore`]/[`crate::replay`] body or a thread
/// it spawned); panics otherwise.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    sched::spawn_model(f)
}

/// A pure scheduling point under the model; `std::thread::yield_now`
/// otherwise.
pub fn yield_now() {
    match sched::current() {
        Some((exec, me)) => exec.yield_point(me),
        None => std::thread::yield_now(),
    }
}
