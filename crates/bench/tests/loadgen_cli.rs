//! The `doc-bench` load generator rejects inputs it cannot run with a
//! usage error (exit 2) instead of panicking mid-run.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_doc-bench"))
        .args(args)
        .output()
        .expect("spawn doc-bench")
        .status
        .code()
}

#[test]
fn zero_workers_is_a_usage_error() {
    assert_eq!(exit_code(&["--workers", "0", "--requests", "10"]), Some(2));
    assert_eq!(
        exit_code(&["--workers", "1,0", "--requests", "10"]),
        Some(2)
    );
}

#[test]
fn zero_names_is_a_usage_error() {
    assert_eq!(
        exit_code(&["--workers", "1", "--names", "0", "--requests", "10"]),
        Some(2)
    );
}

#[test]
fn zero_requests_is_a_usage_error() {
    assert_eq!(exit_code(&["--workers", "1", "--requests", "0"]), Some(2));
}

#[test]
fn removed_transport_flag_is_a_usage_error() {
    assert_eq!(exit_code(&["--transport", "coap"]), Some(2));
}
