//! The same seed gives the same inputs and the same exact counts; a
//! different seed gives different inputs. Each run is its own process,
//! so the allocation counts are not mixed with the test harness's.

use std::process::Command;
use std::sync::Mutex;

/// One run at a time: every run pins its program to the same CPU, and
/// two at once change the pool's drain sizes and so how often its reply
/// slab grows, which the allocation counts show.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn counts(workload: &str, seed: u64) -> String {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_docbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--counts",
            "3",
        ])
        .output()
        .expect("docbench runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = String::from_utf8(out.stdout).expect("utf-8 output");
    line.lines().last().expect("one line of counts").to_string()
}

/// The value of `key` in the flat JSON line `counts` prints.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
    line[at..].split([',', '}']).next().expect("a value").trim()
}

const EXACT: [&str; 8] = [
    "inputs",
    "answered",
    "wrong",
    "hits",
    "forwards",
    "revalidations",
    "evictions",
    "wire_bytes",
];

/// Each measured segment is one `ProxyPool::run`, whose worker grows
/// its reply slab afresh; which reply lands in which slab buffer first
/// depends on the first drains' sizes, so a run's allocation count may
/// differ by a handful: up to 13 of ~1,800 on `hot` and up to 10 of
/// ~1.9 M on `churn` seen (one standalone `churn` run in 24 differs).
fn assert_allocs_close(a: &str, b: &str, share: f64) {
    let (x, y): (f64, f64) = (
        field(a, "allocs").parse().unwrap(),
        field(b, "allocs").parse().unwrap(),
    );
    assert!((x - y).abs() <= share * x.max(y), "allocations {x} vs {y}");
}

#[test]
fn churn_counts_repeat_and_follow_the_seed() {
    let (a, b, other) = (counts("churn", 7), counts("churn", 7), counts("churn", 8));
    for key in EXACT {
        assert_eq!(field(&a, key), field(&b, key), "{key}");
    }
    assert_allocs_close(&a, &b, 1e-5);
    assert_eq!(field(&a, "wrong"), "0");
    assert!(field(&a, "forwards").parse::<u64>().unwrap() > 0);
    assert!(field(&a, "revalidations").parse::<u64>().unwrap() > 0);
    assert_ne!(field(&a, "inputs"), field(&other, "inputs"));
}

#[test]
fn hot_counts_repeat_and_follow_the_seed() {
    let (a, b, other) = (counts("hot", 7), counts("hot", 7), counts("hot", 8));
    for key in EXACT {
        assert_eq!(field(&a, key), field(&b, key), "{key}");
    }
    assert_allocs_close(&a, &b, 0.01);
    assert_eq!(field(&a, "wrong"), "0");
    assert_eq!(field(&a, "forwards"), "0", "every hot request hits");
    assert_ne!(field(&a, "inputs"), field(&other, "inputs"));
}
