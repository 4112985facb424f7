//! Drop-in `std::sync` replacements that double as model-checker
//! probes.
//!
//! Outside a model execution ([`crate::sched::current`] is `None`)
//! every type here is a thin passthrough to its `std` counterpart —
//! one thread-local lookup per operation, no behavioural change — so
//! production code uses these types unconditionally and the checker
//! exercises the *real* primitives, not parallel copies.
//!
//! Inside a model execution every operation becomes a scheduling
//! point: acquiring a mutex, releasing it, and every atomic access
//! hand the scheduler a decision.
//! Atomics are forced to `SeqCst` under the model (sequential
//! consistency is the memory model explored; see the crate docs).

use crate::sched::{self, BlockReason, Execution};
use std::sync::{
    Arc as StdArc, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard, PoisonError,
    TryLockError,
};

pub use std::sync::Arc;

/// A mutual-exclusion lock with the `std::sync::Mutex` API.
pub struct Mutex<T> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: StdMutex::new(value),
        }
    }

    /// Acquire the lock, blocking the calling (model or OS) thread.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match sched::current() {
            None => match self.inner.lock() {
                Ok(g) => Ok(self.guard(g, None)),
                Err(p) => Err(PoisonError::new(self.guard(p.into_inner(), None))),
            },
            Some((exec, me)) => self.lock_model(exec, me),
        }
    }

    /// Model-path acquisition: one scheduling decision, then try-lock;
    /// contention parks the thread until the holder's guard drops.
    /// Being rescheduled after a wake is itself a decision, so the
    /// retry loop adds no extra yield.
    fn lock_model(&self, exec: StdArc<Execution>, me: usize) -> LockResult<MutexGuard<'_, T>> {
        let id = sched::sync_id(self);
        exec.yield_point(me);
        loop {
            match self.inner.try_lock() {
                Ok(g) => return Ok(self.guard(g, Some((exec, me)))),
                Err(TryLockError::WouldBlock) => exec.block(me, BlockReason::Mutex(id)),
                Err(TryLockError::Poisoned(p)) => {
                    return Err(PoisonError::new(
                        self.guard(p.into_inner(), Some((exec, me))),
                    ))
                }
            }
        }
    }

    fn guard<'a>(
        &'a self,
        std: StdMutexGuard<'a, T>,
        model: Option<(StdArc<Execution>, usize)>,
    ) -> MutexGuard<'a, T> {
        MutexGuard {
            std: Some(std),
            mutex: self,
            model,
        }
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// RAII guard for [`Mutex`]; releasing it under the model wakes
/// contending threads and yields.
pub struct MutexGuard<'a, T> {
    std: Option<StdMutexGuard<'a, T>>,
    mutex: &'a Mutex<T>,
    model: Option<(StdArc<Execution>, usize)>,
}

impl<T> core::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_deref().expect("guard holds the lock")
    }
}

impl<T> core::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std.as_deref_mut().expect("guard holds the lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.std.take());
        if let Some((exec, me)) = self.model.take() {
            exec.wake(BlockReason::Mutex(sched::sync_id(self.mutex)));
            // Unlocking is a scheduling point — but not while this
            // thread is unwinding (yielding would block inside a
            // destructor mid-panic) or the execution is tearing down.
            if !std::thread::panicking() && !exec.is_aborted() {
                exec.yield_point(me);
            }
        }
    }
}

/// Atomic integers/bool with the `std::sync::atomic` API. Under the
/// model every operation takes a scheduling decision first and then
/// executes `SeqCst` regardless of the requested ordering.
pub mod atomic {
    use crate::sched;
    pub use std::sync::atomic::Ordering;

    macro_rules! model_atomic_int {
        ($(#[$meta:meta])* $name:ident, $std:ident, $ty:ty) => {
            $(#[$meta])*
            pub struct $name {
                inner: std::sync::atomic::$std,
            }

            impl $name {
                /// Create a new atomic.
                pub const fn new(value: $ty) -> Self {
                    $name {
                        inner: std::sync::atomic::$std::new(value),
                    }
                }

                /// Load the value.
                pub fn load(&self, order: Ordering) -> $ty {
                    match sched::current() {
                        None => self.inner.load(order),
                        Some((exec, me)) => {
                            exec.yield_point(me);
                            self.inner.load(Ordering::SeqCst)
                        }
                    }
                }

                /// Store a value.
                pub fn store(&self, value: $ty, order: Ordering) {
                    match sched::current() {
                        None => self.inner.store(value, order),
                        Some((exec, me)) => {
                            exec.yield_point(me);
                            self.inner.store(value, Ordering::SeqCst)
                        }
                    }
                }

                /// Add, returning the previous value.
                pub fn fetch_add(&self, value: $ty, order: Ordering) -> $ty {
                    match sched::current() {
                        None => self.inner.fetch_add(value, order),
                        Some((exec, me)) => {
                            exec.yield_point(me);
                            self.inner.fetch_add(value, Ordering::SeqCst)
                        }
                    }
                }

                /// Subtract, returning the previous value.
                pub fn fetch_sub(&self, value: $ty, order: Ordering) -> $ty {
                    match sched::current() {
                        None => self.inner.fetch_sub(value, order),
                        Some((exec, me)) => {
                            exec.yield_point(me);
                            self.inner.fetch_sub(value, Ordering::SeqCst)
                        }
                    }
                }

                /// Swap, returning the previous value.
                pub fn swap(&self, value: $ty, order: Ordering) -> $ty {
                    match sched::current() {
                        None => self.inner.swap(value, order),
                        Some((exec, me)) => {
                            exec.yield_point(me);
                            self.inner.swap(value, Ordering::SeqCst)
                        }
                    }
                }

                /// Compare-and-exchange.
                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    match sched::current() {
                        None => self.inner.compare_exchange(current, new, success, failure),
                        Some((exec, me)) => {
                            exec.yield_point(me);
                            self.inner.compare_exchange(
                                current,
                                new,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            )
                        }
                    }
                }

                /// Consume the atomic, returning the value (no
                /// scheduling point: requires exclusive ownership).
                pub fn into_inner(self) -> $ty {
                    self.inner.into_inner()
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(0)
                }
            }

            impl core::fmt::Debug for $name {
                fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                    self.inner.fmt(f)
                }
            }
        };
    }

    model_atomic_int!(
        /// `std::sync::atomic::AtomicU32` with model scheduling points.
        AtomicU32,
        AtomicU32,
        u32
    );
    model_atomic_int!(
        /// `std::sync::atomic::AtomicU64` with model scheduling points.
        AtomicU64,
        AtomicU64,
        u64
    );
    model_atomic_int!(
        /// `std::sync::atomic::AtomicUsize` with model scheduling points.
        AtomicUsize,
        AtomicUsize,
        usize
    );

    /// `std::sync::atomic::AtomicBool` with model scheduling points.
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Create a new atomic flag.
        pub const fn new(value: bool) -> Self {
            AtomicBool {
                inner: std::sync::atomic::AtomicBool::new(value),
            }
        }

        /// Load the flag.
        pub fn load(&self, order: Ordering) -> bool {
            match sched::current() {
                None => self.inner.load(order),
                Some((exec, me)) => {
                    exec.yield_point(me);
                    self.inner.load(Ordering::SeqCst)
                }
            }
        }

        /// Store the flag.
        pub fn store(&self, value: bool, order: Ordering) {
            match sched::current() {
                None => self.inner.store(value, order),
                Some((exec, me)) => {
                    exec.yield_point(me);
                    self.inner.store(value, Ordering::SeqCst)
                }
            }
        }

        /// Swap, returning the previous value.
        pub fn swap(&self, value: bool, order: Ordering) -> bool {
            match sched::current() {
                None => self.inner.swap(value, order),
                Some((exec, me)) => {
                    exec.yield_point(me);
                    self.inner.swap(value, Ordering::SeqCst)
                }
            }
        }
    }

    impl Default for AtomicBool {
        fn default() -> Self {
            Self::new(false)
        }
    }

    impl core::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            self.inner.fmt(f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::atomic::{AtomicU64, Ordering};
    use super::*;

    #[test]
    fn passthrough_mutex_behaves_like_std() {
        let m = Mutex::new(7u32);
        {
            let mut g = m.lock().unwrap();
            *g += 1;
        }
        assert_eq!(*m.lock().unwrap(), 8);
    }

    #[test]
    fn passthrough_atomics_preserve_values() {
        let a = AtomicU64::new(5);
        assert_eq!(a.fetch_add(3, Ordering::Relaxed), 5);
        assert_eq!(a.load(Ordering::Acquire), 8);
        a.store(1, Ordering::Release);
        assert_eq!(a.swap(2, Ordering::AcqRel), 1);
        assert_eq!(
            a.compare_exchange(2, 9, Ordering::SeqCst, Ordering::Relaxed),
            Ok(2)
        );
        assert_eq!(a.into_inner(), 9);
    }
}
