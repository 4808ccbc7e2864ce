//! `serve --mix burst` floods the queue at every executor count: it
//! submits the whole workload before draining, so a small queue sheds,
//! and every request still gets exactly one response.

use serde::Deserialize;
use std::process::Command;

/// The artifact fields this test reads; the rest are ignored.
#[derive(Deserialize)]
struct Counts {
    shed: u64,
    lost: u64,
}

#[test]
fn burst_sheds_with_two_executors() {
    let out_path = std::env::temp_dir().join(format!(
        "powerscale-serve-cli-burst-{}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--mix",
            "burst",
            "--executors",
            "2",
            "--threads",
            "2",
            "--queue",
            "4",
            "--requests",
            "32",
            "--out",
        ])
        .arg(&out_path)
        .output()
        .expect("spawn serve");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).expect("bench artifact written");
    let _ = std::fs::remove_file(&out_path);
    let counts: Counts = serde_json::from_str(&text).expect("artifact parses");
    assert!(counts.shed > 0, "a burst into a 4-slot queue must shed");
    assert_eq!(counts.lost, 0, "shed requests still get their response");
}
