//! Scripted CLI contract tests for `reproduce`: every malformed
//! invocation must exit with code 2 and print the usage line; it must
//! never start the matrix.

use std::process::Command;

fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

fn assert_usage_exit(args: &[&str]) {
    let out = reproduce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, got {:?}; stderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("usage: reproduce"),
        "{args:?} must print the usage line; stderr: {stderr}"
    );
    assert!(
        stderr.contains("--trace"),
        "usage line must document --trace; stderr: {stderr}"
    );
    assert!(
        stderr.contains("--cluster"),
        "usage line must document --cluster; stderr: {stderr}"
    );
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    assert_usage_exit(&["--bogus"]);
    assert_usage_exit(&["--quick", "--nope"]);
    assert_usage_exit(&["extra-positional"]);
}

#[test]
fn flags_missing_values_exit_2_with_usage() {
    assert_usage_exit(&["--out"]);
    assert_usage_exit(&["--trace"]);
    assert_usage_exit(&["--dtype"]);
    // A following flag is not a value.
    assert_usage_exit(&["--out", "--quick"]);
    assert_usage_exit(&["--trace", "--quick"]);
}

#[test]
fn unparsable_dtype_exits_2_with_usage() {
    assert_usage_exit(&["--dtype", "f16"]);
}

#[test]
fn removed_sweep_flags_exit_2_with_usage() {
    // The matrix reruns in seconds, so it has no checkpoints to resume
    // and no retry budget: both flags are unknown arguments.
    assert_usage_exit(&["--resume"]);
    assert_usage_exit(&["--retries", "2"]);
}

#[test]
fn removed_fault_flags_exit_2_with_usage() {
    // The energy counters are read as the backend delivers them, with no
    // injected faults and so no fault seed: both flags are unknown
    // arguments.
    assert_usage_exit(&["--faults"]);
    assert_usage_exit(&["--seed", "3"]);
    assert_usage_exit(&["--quick", "--faults", "--seed", "3"]);
}

#[test]
fn cluster_combined_with_other_modes_exits_2_with_usage() {
    // `--cluster` is a stand-alone mode: mixing it with the trace mode
    // is a usage error, caught before any matrix starts.
    assert_usage_exit(&["--cluster", "--trace", "/tmp/never-written.json"]);
}

#[cfg(not(feature = "trace"))]
#[test]
fn trace_flag_without_trace_build_exits_1_with_hint() {
    // A well-formed `--trace` in a build without the recorder is NOT a
    // usage error: it exits 1 with a rebuild hint instead.
    let out = reproduce(&["--trace", "/tmp/never-written.json", "--quick"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("--features"),
        "must hint at the trace feature; stderr: {stderr}"
    );
}
