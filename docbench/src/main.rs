//! `docbench`: the DoC proxy benchmark.
//!
//! ```text
//! docbench --workload <hot|churn|sealed|udp> --seed <n> --seconds <s> --trace <0|1>
//! docbench --workload <hot|churn> --seed <n> --counts <segments>
//! ```
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! with every end-to-end metric; with `--trace 1`, every per-layer
//! metric (and the spans go to `out/<workload>.spans.tsv`). `--counts`
//! prints the exact counts of a fixed number of segments instead, for
//! the determinism test. NOTES.md explains the workloads and the
//! per-run statistics.

mod calib;
mod heap;
mod measure;
mod stats;
mod sys;
mod trace;
mod udp;
mod workload;

use std::process::ExitCode;
use workload::Workload;

#[global_allocator]
static HEAP: heap::CountingHeap = heap::CountingHeap;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    counts: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut counts) =
        (None, None, None, false, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = number()? != 0,
            "--counts" => counts = Some(number()? as usize),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
        counts,
    })
}

/// FNV-1a, for the input digest of `--counts`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Exact counts over `segments` segments after warm-up, as one JSON line.
fn counts(w: Workload, seed: u64, segments: usize) -> Result<String, String> {
    let mut b = measure::Bench::new(w, seed)?;
    measure::warm_up(&mut b)?;
    let (proxy0, cache0) = (b.prog.pool.proxy.stats(), b.prog.pool.proxy.cache_stats());
    let mut inputs = 0xCBF2_9CE4_8422_2325u64;
    let (mut allocs, mut wire, mut answered, mut wrong) = (0, 0, 0, 0);
    for _ in 0..segments {
        let clock0 = b.clock_ms;
        let s = b.step(None)?;
        for (k, &entry) in b.idx.iter().enumerate() {
            let at = clock0 + k as u64 * w.clock_step_ms();
            inputs = fnv(inputs, &at.to_le_bytes());
            inputs = fnv(inputs, &b.prog.wires[entry as usize]);
        }
        allocs += s.allocs;
        wire += s.wire_bytes;
        answered += s.answered;
        wrong += s.wrong;
    }
    let (proxy1, cache1) = (b.prog.pool.proxy.stats(), b.prog.pool.proxy.cache_stats());
    Ok(format!(
        "{{\"inputs\": \"{inputs:016x}\", \"answered\": {answered}, \"wrong\": {wrong}, \
         \"allocs\": {allocs}, \"hits\": {}, \"forwards\": {}, \"revalidations\": {}, \
         \"evictions\": {}, \"wire_bytes\": {wire}}}",
        proxy1.cache_hits - proxy0.cache_hits,
        proxy1.forwards - proxy0.forwards,
        proxy1.revalidations - proxy0.revalidations,
        cache1.evictions - cache0.evictions,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("docbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.counts {
        Some(segments) => counts(args.workload, args.seed, segments),
        None if args.trace => {
            trace::run(args.workload, args.seed, args.seconds).map(|r| r.to_json())
        }
        None => measure::run(args.workload, args.seed, args.seconds).map(|r| r.to_json()),
    };
    match out {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("docbench: {e}");
            ExitCode::FAILURE
        }
    }
}
