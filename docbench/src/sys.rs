//! The two Linux facilities the benchmark needs beyond `std`: CPU
//! clocks with nanosecond resolution, and CPU affinity.
//!
//! `getrusage` advances in scheduler ticks (4 ms on a 250 Hz kernel),
//! far coarser than one measured segment needs, so CPU time is read
//! from the POSIX per-process and per-thread CPU clocks instead. The
//! process clock also counts threads that have already exited and been
//! joined, which is what a segment that spawns and joins a worker pool
//! needs.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("docbench reads the Linux CPU clocks through the 64-bit `timespec` layout");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// `cpu_set_t`: 1024 CPU bits.
const CPU_SET_WORDS: usize = 16;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, exclusively borrowed `timespec` with the
    // C layout `clock_gettime` writes, and both clock ids are valid on
    // every Linux since 2.6.12, so the call only writes inside `ts`.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, live or joined.
pub fn process_cpu_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// The CPUs the calling thread may run on, lowest first.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, exclusively borrowed buffer of exactly
    // the `cpusetsize` bytes passed, which is all the kernel writes;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread, and every thread it spawns later, to
/// `cpu`. Returns whether the kernel accepted it.
pub fn pin_to(cpu: usize) -> bool {
    if cpu >= CPU_SET_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the `cpusetsize`
    // bytes passed, which the kernel only reads; pid 0 names the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pin the calling thread (and so the program's threads it spawns)
/// to the first CPU it may use; returns a second one for a client
/// thread, if there is one.
pub fn pin_program() -> Option<usize> {
    let cpus = allowed_cpus();
    let first = *cpus.first()?;
    pin_to(first);
    cpus.get(1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn cpu_clocks_resolve_below_a_scheduler_tick() {
        for read in [thread_cpu_ns, process_cpu_ns] {
            let before = read();
            spin(Duration::from_micros(200));
            let delta = read() - before;
            assert!(delta > 0, "clock did not advance over a 200 us spin");
            assert!(delta < 4_000_000, "200 us spin read as {delta} ns");
        }
    }
}
