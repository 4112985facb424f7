//! Host-speed calibration.
//!
//! The host's other tenants change how fast the same instructions run
//! by tens of percent from one minute to the next (NOTES.md). A fixed
//! kernel, owned by the benchmark and never changed by a program
//! change, is timed on the program's CPU right after every segment;
//! dividing the segment's CPU figures by it cancels the host's speed,
//! and multiplying by `REFERENCE_NS` states them in microseconds of
//! the reference host.

use crate::sys;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// CPU time of one `Calibrator::run` on an unloaded core of the
/// reference host (Intel Xeon, 2 vCPUs, 16 GiB).
pub const REFERENCE_NS: f64 = 6.0e6;

/// Kernel iterations per run (about 6 ms on the reference host).
const ROUNDS: u32 = 100_000;
/// Random-access table: 256 KiB, beyond L1, like the proxy's cache.
const TABLE: usize = 32_768;
/// Entries of the hash map probed every round, like a shard lookup.
const KEYS: u64 = 4_096;

type FixedMap = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// The kernel's working set, allocated once per run. Its mix follows
/// the serving path: a random table access, a hash-map probe, a small
/// allocation filled and hashed, and a data-dependent store.
pub struct Calibrator {
    table: Vec<u64>,
    map: FixedMap,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            table: vec![0; TABLE],
            map: (0..KEYS).map(|i| (i, i.wrapping_mul(3))).collect(),
        }
    }

    /// Run the kernel once from its initial state; returns the CPU
    /// time the calling thread spent in it.
    ///
    /// An untimed pass first brings the table, the map and the
    /// allocator's free lists for the kernel's buffers back into cache,
    /// so the timed pass depends on the host's speed and not on what
    /// the segment before it left behind.
    pub fn run(&mut self) -> u64 {
        self.reset();
        std::hint::black_box(self.kernel());
        self.reset();
        let start = sys::thread_cpu_ns();
        std::hint::black_box(self.kernel());
        sys::thread_cpu_ns() - start
    }

    fn reset(&mut self) {
        for (i, v) in self.table.iter_mut().enumerate() {
            *v = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn kernel(&mut self) -> u64 {
        let mask = self.table.len() - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(16);
        for round in 0..ROUNDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            let v = self.table[i];
            acc = acc.wrapping_add(v.rotate_left((x & 31) as u32));
            if let Some(m) = self.map.get(&(x & (KEYS - 1))) {
                acc ^= m;
            }
            let mut buf = Vec::with_capacity(64);
            buf.extend_from_slice(&v.to_le_bytes());
            buf.extend_from_slice(&acc.to_le_bytes());
            acc ^= buf.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
            });
            bufs.push(buf);
            if round % 16 == 15 {
                bufs.clear();
            }
            if v & 1 == 0 {
                self.table[i] = v ^ acc;
            }
        }
        acc
    }
}
