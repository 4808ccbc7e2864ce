//! Scripted CLI contract tests for `reproduce`: every malformed
//! invocation must exit with code 2 and print the usage line; it must
//! never start the matrix. A well-formed `--quick --trace` run writes
//! its three exports.

use serde::{Deserialize, Value};
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

#[test]
fn quick_trace_writes_chrome_json_phases_and_folded_stacks() {
    let dir =
        std::env::temp_dir().join(format!("powerscale-reproduce-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create trace dir");
    let path = dir.join("out.json");
    let out = reproduce(&[
        "--quick",
        "--trace",
        path.to_str().expect("utf-8 temp path"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let read = |suffix: &str| {
        let p = format!("{}{suffix}", path.display());
        std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p}: {e}"))
    };

    // The Chrome trace parses, every event carries its phase, process and
    // thread, and it holds both spans (`X`) and energy counters (`C`).
    let chrome: Value = serde_json::from_str(&read("")).expect("Chrome trace JSON");
    let events = chrome.get_field("traceEvents").unwrap().as_array().unwrap();
    let phase = |ev: &Value| ev.get_field("ph").unwrap().as_str().unwrap().to_owned();
    for ev in events {
        for field in ["ph", "pid", "tid"] {
            assert_ne!(
                ev.get_field(field).unwrap(),
                &Value::Null,
                "no `{field}`: {ev:?}"
            );
        }
        if matches!(phase(ev).as_str(), "X" | "i" | "C") {
            for field in ["ts", "name"] {
                assert_ne!(
                    ev.get_field(field).unwrap(),
                    &Value::Null,
                    "no `{field}`: {ev:?}"
                );
            }
        }
    }
    for ph in ["X", "C"] {
        assert!(events.iter().any(|ev| phase(ev) == ph), "no `{ph}` events");
    }

    let phases: Value = serde_json::from_str(&read(".phases.json")).expect("phase summary JSON");
    let coverage = f64::from_value(phases.get_field("coverage").unwrap()).unwrap();
    let dropped = u64::from_value(phases.get_field("dropped").unwrap()).unwrap();
    assert!(coverage >= 0.95, "span coverage {coverage} < 0.95");
    assert_eq!(dropped, 0, "records dropped on ring overflow");

    assert!(!read(".folded").trim().is_empty(), "empty folded stacks");
    let _ = std::fs::remove_dir_all(&dir);
}
