//! A real death: `serve --requests 120 --chaos --journal D` is killed
//! with SIGKILL (`Child::kill`) at three seeded points, then restarted
//! with `--resume --gate`. The restart must lose and duplicate nothing,
//! and every id's journaled (status, checksum, attempts) must equal an
//! uninterrupted run's. A kill that lands mid-append leaves a torn last
//! line, which the restart cuts.

use powerscale_serve::chaos::fnv1a;
use powerscale_serve::{Journal, ServeManifest, ServerConfig, Status};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

const REQUESTS: u64 = 120;
const KILL_SEED: u64 = 0x5167_4b11;

/// The report fields this test reads; the rest are ignored.
#[derive(Deserialize)]
struct Counts {
    lost: u64,
    duplicated: u64,
    recovered: u64,
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "powerscale-serve-cli-crash-{tag}-{}",
        std::process::id()
    ))
}

fn serve(journal: &Path, out: &Path, resume: bool) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve"));
    cmd.args(["--requests", &REQUESTS.to_string(), "--chaos", "--journal"])
        .arg(journal)
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if resume {
        cmd.args(["--resume", "--gate"]);
    }
    cmd
}

/// Every journaled id's (status, checksum, attempts), read the way a
/// restart reads them. The `serve` binary runs the library's default
/// seed, capacity and threads unless told otherwise.
fn outcomes(dir: &Path) -> BTreeMap<u64, (Status, Option<u64>, u32)> {
    let cfg = ServerConfig::default();
    let manifest = ServeManifest {
        seed: cfg.seed,
        capacity: cfg.capacity,
        threads: cfg.threads,
    };
    let (_, records) = Journal::resume(dir, &manifest).expect("the journal resumes");
    records
        .into_iter()
        .map(|r| {
            let resp = r.response.expect("every journaled request was served");
            (r.spec.id, (resp.status, resp.checksum, resp.attempts))
        })
        .collect()
}

#[test]
fn sigkill_then_resume_is_exactly_once_and_bit_identical() {
    let clean = tmp("clean");
    let _ = std::fs::remove_dir_all(&clean);
    let t0 = Instant::now();
    let status = serve(&clean, &tmp("clean.json"), false)
        .status()
        .expect("spawn serve");
    let full_run = t0.elapsed();
    assert!(status.success(), "the uninterrupted run failed");
    let want = outcomes(&clean);
    assert_eq!(want.len() as u64, REQUESTS);

    let mut interrupted = 0;
    for k in 0..3u64 {
        // A seeded point in [10%, 90%) of the uninterrupted run's wall
        // time, process start included.
        let frac = 0.1 + 0.8 * (fnv1a(&[KILL_SEED, k]) % 1000) as f64 / 1000.0;
        let dir = tmp(&format!("kill{k}"));
        let out = tmp(&format!("kill{k}.json"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut child = serve(&dir, &out, false).spawn().expect("spawn serve");
        std::thread::sleep(full_run.mul_f64(frac));
        child.kill().expect("SIGKILL serve");
        child.wait().expect("reap serve");

        let status = serve(&dir, &out, true).status().expect("spawn serve");
        assert!(
            status.success(),
            "resume after a kill at {frac:.2} of the run failed its gate"
        );
        let text = std::fs::read_to_string(&out).expect("report written");
        let counts: Counts = serde_json::from_str(&text).expect("report parses");
        assert_eq!((counts.lost, counts.duplicated), (0, 0), "kill {k}");
        eprintln!(
            "kill {k} at {frac:.2} of the run: {} of {REQUESTS} recovered",
            counts.recovered
        );
        interrupted += u64::from(counts.recovered < REQUESTS);
        assert_eq!(outcomes(&dir), want, "kill {k} at {frac:.2} of the run");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&out);
    }
    assert!(interrupted > 0, "no kill landed before its run finished");
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_file(tmp("clean.json"));
}
