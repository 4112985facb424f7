//! The cooperative scheduler: one model execution = one schedule.
//!
//! Model threads are real OS threads, but at most one is ever
//! *running*: every synchronization operation funnels through
//! [`Execution::yield_point`] or a blocking variant, where the running
//! thread hands the baton to whichever runnable thread the decision
//! prefix (or the default run-to-completion policy) selects. The
//! decisions taken — together with the runnable set each was chosen
//! from — are recorded, which is what lets [`crate::explore`] enumerate
//! alternative schedules and lets a failure be replayed exactly.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

/// A recorded schedule: the thread id chosen at every decision point.
///
/// Rendered as a dash-separated list (`0-1-1-0-2`) so it survives
/// copy-paste through shells unquoted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule(pub Vec<usize>);

impl core::fmt::Display for Schedule {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "-")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

impl core::str::FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if s.trim().is_empty() {
            return Ok(Schedule(Vec::new()));
        }
        s.split(['-', ','])
            .map(|part| {
                part.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad schedule element {part:?}"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Schedule)
    }
}

/// Why a model thread is not currently runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockReason {
    /// Waiting to acquire the mutex with this identity.
    Mutex(usize),
    /// Waiting for the thread with this id to finish.
    Join(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked(BlockReason),
    Finished,
}

/// One scheduling decision: who ran, who was chosen, out of whom.
#[derive(Debug, Clone)]
pub(crate) struct Decision {
    /// The thread that was running when the decision was taken.
    pub prev: usize,
    /// The thread chosen to run next.
    pub chosen: usize,
    /// The runnable set the choice was made from (ascending ids).
    pub runnable: Vec<usize>,
}

/// A failure observed during one execution.
#[derive(Debug, Clone)]
pub(crate) struct Failure {
    pub kind: crate::explore::FailureKind,
    pub message: String,
    pub schedule: Schedule,
}

struct ExecState {
    status: Vec<Status>,
    current: usize,
    decisions: Vec<Decision>,
    preset: Vec<usize>,
    steps: u64,
    live: usize,
    aborted: bool,
    done: bool,
    failure: Option<Failure>,
}

impl ExecState {
    fn runnable(&self) -> Vec<usize> {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Status::Runnable))
            .map(|(i, _)| i)
            .collect()
    }

    fn schedule_so_far(&self) -> Schedule {
        Schedule(self.decisions.iter().map(|d| d.chosen).collect())
    }

    fn fail(&mut self, kind: crate::explore::FailureKind, message: String) {
        if self.failure.is_none() {
            self.failure = Some(Failure {
                kind,
                message,
                schedule: self.schedule_so_far(),
            });
        }
        self.aborted = true;
        self.done = true;
    }
}

/// One model execution: shared between the driver and every model
/// thread it spawns.
pub(crate) struct Execution {
    state: StdMutex<ExecState>,
    cv: StdCondvar,
    max_steps: u64,
    children: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Unwind payload used to tear model threads down after an abort.
/// Filtered out of panic-hook output and of failure reporting.
pub(crate) struct AbortToken;

fn abort_unwind() -> ! {
    std::panic::panic_any(AbortToken)
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Execution>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The execution the calling OS thread belongs to, if any. `None`
/// outside model executions — the passthrough case for the `sync`
/// shims.
pub(crate) fn current() -> Option<(Arc<Execution>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Install (once) a panic hook that silences model-thread panics: the
/// abort token is pure teardown, and assertion failures inside a model
/// body are reported through [`crate::CheckFailure`] instead of a raw
/// backtrace per explored schedule.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_model = CURRENT.with(|c| c.borrow().is_some());
            if in_model || info.payload().downcast_ref::<AbortToken>().is_some() {
                return;
            }
            previous(info);
        }));
    });
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Execution {
    fn new(max_steps: u64, preset: Vec<usize>) -> Self {
        Execution {
            state: StdMutex::new(ExecState {
                status: vec![Status::Runnable],
                current: 0,
                decisions: Vec::new(),
                preset,
                steps: 0,
                live: 1,
                aborted: false,
                done: false,
                failure: None,
            }),
            cv: StdCondvar::new(),
            max_steps,
            children: StdMutex::new(Vec::new()),
        }
    }

    /// Register a new model thread (spawn order = thread id).
    pub(crate) fn register_thread(&self) -> usize {
        let mut st = self.state.lock().unwrap();
        st.status.push(Status::Runnable);
        st.live += 1;
        st.status.len() - 1
    }

    pub(crate) fn push_child(&self, handle: std::thread::JoinHandle<()>) {
        self.children.lock().unwrap().push(handle);
    }

    /// The heart: `me` (the running thread) takes on `new_status` and a
    /// scheduling decision picks the next thread. Blocks until `me` is
    /// scheduled again (unless it is finishing). Unwinds with
    /// [`AbortToken`] if the execution aborted.
    fn switch(&self, me: usize, new_status: Status) {
        let finishing = matches!(new_status, Status::Finished);
        let mut st = self.state.lock().unwrap();
        if st.aborted {
            if finishing {
                st.status[me] = Status::Finished;
                st.live -= 1;
                self.cv.notify_all();
                return;
            }
            drop(st);
            abort_unwind();
        }
        st.status[me] = new_status;
        if finishing {
            st.live -= 1;
            // Wake joiners.
            for s in st.status.iter_mut() {
                if *s == Status::Blocked(BlockReason::Join(me)) {
                    *s = Status::Runnable;
                }
            }
        }
        st.steps += 1;
        if st.steps > self.max_steps {
            st.fail(
                crate::explore::FailureKind::StepBudget,
                format!("step budget of {} exceeded (live-lock?)", self.max_steps),
            );
            self.cv.notify_all();
            if finishing {
                return;
            }
            drop(st);
            abort_unwind();
        }
        let runnable = st.runnable();
        if runnable.is_empty() {
            if st.live == 0 {
                st.done = true;
                self.cv.notify_all();
                return;
            }
            let blocked: Vec<String> = st
                .status
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s {
                    Status::Blocked(r) => Some(format!("thread {i} blocked on {r:?}")),
                    _ => None,
                })
                .collect();
            st.fail(
                crate::explore::FailureKind::Deadlock,
                format!("deadlock: no runnable thread ({})", blocked.join(", ")),
            );
            self.cv.notify_all();
            if finishing {
                return;
            }
            drop(st);
            abort_unwind();
        }
        let idx = st.decisions.len();
        let chosen = if idx < st.preset.len() {
            let want = st.preset[idx];
            if runnable.contains(&want) {
                want
            } else {
                st.fail(
                    crate::explore::FailureKind::ScheduleDiverged,
                    format!(
                        "schedule diverged at step {idx}: thread {want} not runnable \
                         (runnable: {runnable:?}) — the model body is not deterministic"
                    ),
                );
                self.cv.notify_all();
                if finishing {
                    return;
                }
                drop(st);
                abort_unwind();
            }
        } else if runnable.contains(&me) {
            // Run-to-completion default: keep the current thread going.
            me
        } else {
            runnable[0]
        };
        st.decisions.push(Decision {
            prev: me,
            chosen,
            runnable,
        });
        st.current = chosen;
        self.cv.notify_all();
        if finishing {
            return;
        }
        while st.current != me {
            if st.aborted {
                drop(st);
                abort_unwind();
            }
            st = self.cv.wait(st).unwrap();
        }
        if st.aborted {
            drop(st);
            abort_unwind();
        }
    }

    /// A pure scheduling point: `me` stays runnable.
    pub(crate) fn yield_point(&self, me: usize) {
        self.switch(me, Status::Runnable);
    }

    /// Block `me` until woken (by the matching wake call), then return
    /// once scheduled again.
    pub(crate) fn block(&self, me: usize, reason: BlockReason) {
        self.switch(me, Status::Blocked(reason));
    }

    /// Make every thread blocked for `reason` runnable again. The
    /// caller is the running thread; this is not itself a yield point.
    pub(crate) fn wake(&self, reason: BlockReason) {
        let mut st = self.state.lock().unwrap();
        if st.aborted {
            return;
        }
        for s in st.status.iter_mut() {
            if *s == Status::Blocked(reason) {
                *s = Status::Runnable;
            }
        }
    }

    /// Whether the execution has aborted (teardown in progress).
    pub(crate) fn is_aborted(&self) -> bool {
        self.state.lock().unwrap().aborted
    }

    /// Whether `tid` has finished.
    pub(crate) fn is_finished(&self, tid: usize) -> bool {
        matches!(self.state.lock().unwrap().status[tid], Status::Finished)
    }

    /// Wait until this thread is scheduled for the first time. Returns
    /// `false` (skip the body) if the execution aborted first.
    fn wait_first_schedule(&self, me: usize) -> bool {
        let mut st = self.state.lock().unwrap();
        while st.current != me && !st.aborted {
            st = self.cv.wait(st).unwrap();
        }
        !st.aborted
    }

    fn finish_quiet(&self, me: usize) {
        let mut st = self.state.lock().unwrap();
        st.status[me] = Status::Finished;
        st.live -= 1;
        for s in st.status.iter_mut() {
            if *s == Status::Blocked(BlockReason::Join(me)) {
                *s = Status::Runnable;
            }
        }
        if st.live == 0 {
            st.done = true;
        }
        self.cv.notify_all();
    }

    fn fail_from_panic(&self, me: usize, payload: Box<dyn std::any::Any + Send>) {
        let mut st = self.state.lock().unwrap();
        let message = payload_message(payload.as_ref());
        st.fail(crate::explore::FailureKind::Panic, message);
        st.status[me] = Status::Finished;
        st.live -= 1;
        self.cv.notify_all();
    }

    fn wait_done(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.done && st.live > 0 {
            st = self.cv.wait(st).unwrap();
        }
        // Mark done so stragglers' wake-ups are no-ops, then release
        // any thread still parked in a wait loop.
        st.done = true;
        if st.live > 0 {
            st.aborted = true;
        }
        self.cv.notify_all();
    }
}

/// What one execution produced.
pub(crate) struct ExecResult {
    pub decisions: Vec<Decision>,
    pub failure: Option<Failure>,
}

fn thread_main<F: FnOnce()>(exec: Arc<Execution>, me: usize, f: F) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), me)));
    if exec.wait_first_schedule(me) {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(()) => {
                // Finishing never unwinds (the abort path returns), so
                // the switch below is safe outside catch_unwind.
                exec.switch(me, Status::Finished);
            }
            Err(payload) if payload.is::<AbortToken>() => exec.finish_quiet(me),
            Err(payload) => exec.fail_from_panic(me, payload),
        }
    } else {
        exec.finish_quiet(me);
    }
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// Spawn a model thread from inside an execution. Exposed via
/// [`crate::thread::spawn`].
pub(crate) fn spawn_model<F, T>(f: F) -> crate::thread::JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (exec, me) = current().expect("doc_check::thread::spawn outside explore/replay");
    let slot = Arc::new(StdMutex::new(None));
    let slot2 = Arc::clone(&slot);
    let tid = exec.register_thread();
    let exec2 = Arc::clone(&exec);
    let os = std::thread::Builder::new()
        .name(format!("doc-check-{tid}"))
        .spawn(move || {
            let exec3 = Arc::clone(&exec2);
            thread_main(exec2, tid, move || {
                let value = f();
                *slot2.lock().unwrap() = Some(value);
                drop(exec3);
            });
        })
        .expect("spawn model thread");
    exec.push_child(os);
    // Spawning is itself a scheduling point: the child may run first.
    exec.yield_point(me);
    crate::thread::JoinHandle::new(exec, tid, slot)
}

/// Run one execution of `body` under the decision prefix `preset`.
pub(crate) fn run_one(max_steps: u64, preset: &[usize], body: &(dyn Fn() + Sync)) -> ExecResult {
    install_quiet_hook();
    let exec = Arc::new(Execution::new(max_steps, preset.to_vec()));
    std::thread::scope(|scope| {
        let exec0 = Arc::clone(&exec);
        scope.spawn(move || thread_main(exec0, 0, body));
        exec.wait_done();
        let children = std::mem::take(&mut *exec.children.lock().unwrap());
        for child in children {
            let _ = child.join();
        }
    });
    let st = exec.state.lock().unwrap();
    ExecResult {
        decisions: st.decisions.clone(),
        failure: st.failure.clone(),
    }
}

/// Stable identity for a mutex: its address. Model executions
/// create primitives fresh inside the body, so addresses are stable
/// *within* one execution, which is the only scope the scheduler needs
/// them in; a map keyed by them never outlives the execution.
pub(crate) fn sync_id<T: ?Sized>(v: &T) -> usize {
    v as *const T as *const u8 as usize
}

/// Per-execution scratch map (used by tests and diagnostics).
#[allow(dead_code)]
pub(crate) type IdMap = HashMap<usize, usize>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_roundtrips_through_display() {
        let s = Schedule(vec![0, 1, 1, 0, 2]);
        assert_eq!(s.to_string(), "0-1-1-0-2");
        assert_eq!(s.to_string().parse::<Schedule>().unwrap(), s);
        assert_eq!(
            "0,1,2".parse::<Schedule>().unwrap(),
            Schedule(vec![0, 1, 2])
        );
        assert_eq!("".parse::<Schedule>().unwrap(), Schedule(Vec::new()));
        assert!("0-x".parse::<Schedule>().is_err());
    }

    #[test]
    fn single_thread_body_runs_to_completion() {
        let result = run_one(1_000, &[], &|| {
            crate::thread::yield_now();
            crate::thread::yield_now();
        });
        assert!(result.failure.is_none());
        // Two yields = two decisions, both keeping thread 0 running;
        // the final return needs no decision (nothing left to run).
        assert_eq!(result.decisions.len(), 2);
        assert!(result.decisions.iter().all(|d| d.chosen == 0));
    }

    #[test]
    fn panic_in_body_is_captured_with_schedule() {
        let result = run_one(1_000, &[], &|| {
            crate::thread::yield_now();
            panic!("model assertion failed");
        });
        let failure = result.failure.expect("panic must be captured");
        assert_eq!(failure.message, "model assertion failed");
        assert_eq!(failure.kind, crate::explore::FailureKind::Panic);
        assert_eq!(failure.schedule, Schedule(vec![0]));
    }

    #[test]
    fn spawned_thread_runs_and_joins() {
        let result = run_one(10_000, &[], &|| {
            let h = crate::thread::spawn(|| 41 + 1);
            assert_eq!(h.join(), 42);
        });
        assert!(result.failure.is_none(), "{:?}", result.failure);
    }

    #[test]
    fn step_budget_catches_livelock() {
        let result = run_one(50, &[], &|| loop {
            crate::thread::yield_now();
        });
        let failure = result.failure.expect("budget must trip");
        assert_eq!(failure.kind, crate::explore::FailureKind::StepBudget);
    }
}
