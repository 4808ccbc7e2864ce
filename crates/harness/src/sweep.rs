//! Panic-isolated, checkpointed execution of the run matrix.
//!
//! The paper's 48-run matrix takes long enough that a single panicking
//! cell (or a killed process) used to throw away every completed cell.
//! This module wraps each `(algorithm, n, threads)` cell in
//! `catch_unwind` with a bounded retry budget, records failures as data
//! ([`CellRecord::error`]) instead of aborting the sweep, and — given an
//! output directory — checkpoints each finished cell to disk so an
//! interrupted `reproduce --out DIR` can be rerun with `--resume` and
//! skip everything already done.
//!
//! ## Checkpoint layout
//!
//! ```text
//! DIR/sweep.json               — manifest: sizes, threads, fault seed
//! DIR/cells/<alg>_<n>_<t>.json — one CellRecord per completed cell
//! ```
//!
//! On `--resume`, the manifest must match the requested sweep exactly
//! (same sizes, threads and fault seed); a mismatch discards the stale
//! checkpoints rather than silently mixing two different experiments.
//! Cell fault seeds are derived per-spec (`Harness::cell_fault_seed`),
//! so a resumed sweep reproduces the identical fault schedule — and
//! therefore identical results — as an uninterrupted run.

use crate::experiment::{Harness, RunResult, RunSpec, ALL_ALGORITHMS};
use powerscale_gemm::DtypeTier;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// A checkpoint file on disk that could not be used: truncated, corrupted,
/// or unreadable. Surfaced as data rather than a panic so a `--resume`
/// against a damaged directory fails with a pointed message (naming the
/// bad file) instead of silently re-running cells or crashing.
///
/// A *missing* file is never an error — that is the normal state of an
/// interrupted sweep. Only a file that exists but cannot be decoded is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// `DIR/sweep.json` exists but is not a valid manifest.
    Manifest {
        /// Path of the offending manifest file.
        path: PathBuf,
        /// What went wrong decoding it.
        detail: String,
    },
    /// A `DIR/cells/*.json` record exists but is not a valid cell record.
    Cell {
        /// Path of the offending cell file.
        path: PathBuf,
        /// What went wrong decoding it.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Manifest { path, detail } => {
                write!(
                    f,
                    "corrupt sweep manifest {}: {detail} \
                     (delete it or rerun without --resume)",
                    path.display()
                )
            }
            CheckpointError::Cell { path, detail } => {
                write!(
                    f,
                    "corrupt cell checkpoint {}: {detail} \
                     (delete it or rerun without --resume)",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Outcome of one matrix cell: a result, or a captured failure.
///
/// (A struct of `Option`s rather than an enum so the record serialises
/// with plain named fields.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// The cell's specification.
    pub spec: RunSpec,
    /// Run attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// The measurement, when any attempt succeeded.
    pub result: Option<RunResult>,
    /// The final panic message, when every attempt failed.
    pub error: Option<String>,
}

impl CellRecord {
    /// `true` when the cell produced a result.
    pub fn is_ok(&self) -> bool {
        self.result.is_some()
    }
}

/// Knobs for [`run_sweep`].
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Extra attempts per cell after a panic (0 = one attempt only).
    pub retries: u32,
    /// Checkpoint directory; `None` disables checkpointing.
    pub out_dir: Option<PathBuf>,
    /// Skip cells already checkpointed in `out_dir`.
    pub resume: bool,
    /// Fault-injection at the *sweep* layer: cells whose first `k`
    /// attempts panic. Exercises the isolation/retry path exactly as the
    /// rapl fault reader exercises the measurement path.
    pub panic_cells: Vec<(RunSpec, u32)>,
    /// Dtype tier stamped on every cell spec (`reproduce --dtype`).
    /// Defaults to f64, the paper's baseline.
    pub dtype: DtypeTier,
}

/// Guard record proving a checkpoint directory belongs to *this* sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SweepManifest {
    sizes: Vec<usize>,
    threads: Vec<usize>,
    fault_seed: Option<u64>,
    // Absent in pre-dtype manifests; deserialises as `F64`, so old f64
    // checkpoints stay resumable.
    dtype: DtypeTier,
}

/// The full sweep outcome: every cell, completed or failed.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixOutcome {
    /// One record per cell, in matrix order.
    pub cells: Vec<CellRecord>,
    /// Cells restored from checkpoints rather than re-run.
    pub resumed: usize,
}

impl MatrixOutcome {
    /// The successful results, in matrix order.
    pub fn results(&self) -> Vec<RunResult> {
        self.cells.iter().filter_map(|c| c.result.clone()).collect()
    }

    /// `(spec, error)` for every failed cell.
    pub fn errors(&self) -> Vec<(RunSpec, &str)> {
        self.cells
            .iter()
            .filter_map(|c| c.error.as_deref().map(|e| (c.spec, e)))
            .collect()
    }

    /// Results whose measurement was degraded by plane faults.
    pub fn degraded(&self) -> Vec<&RunResult> {
        self.cells
            .iter()
            .filter_map(|c| c.result.as_ref())
            .filter(|r| r.quality.is_degraded())
            .collect()
    }
}

fn cell_file(dir: &Path, spec: &RunSpec) -> PathBuf {
    // f64 cells keep the pre-dtype filename so old checkpoints resume.
    let dtype_tag = match spec.dtype {
        DtypeTier::F64 => String::new(),
        other => format!("_{other}"),
    };
    dir.join("cells").join(format!(
        "{}_{}_{}{dtype_tag}.json",
        spec.algorithm.paper_name().to_lowercase(),
        spec.n,
        spec.threads
    ))
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn load_checkpoint(dir: &Path, spec: &RunSpec) -> Result<Option<CellRecord>, CheckpointError> {
    let path = cell_file(dir, spec);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        // Not yet checkpointed: the normal interrupted-sweep state.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(CheckpointError::Cell {
                path,
                detail: e.to_string(),
            })
        }
    };
    let rec: CellRecord = serde_json::from_str(&text).map_err(|e| CheckpointError::Cell {
        path,
        detail: e.to_string(),
    })?;
    // A well-formed checkpoint for a *different* cell (hand-moved file) is
    // ignored rather than trusted; the cell reruns.
    Ok((rec.spec == *spec && rec.is_ok()).then_some(rec))
}

fn store_checkpoint(dir: &Path, rec: &CellRecord) {
    let path = cell_file(dir, &rec.spec);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Ok(json) = serde_json::to_string_pretty(rec) {
        let _ = std::fs::write(path, json);
    }
}

/// Prepares the checkpoint directory: validates the manifest on resume
/// (wiping stale cells on mismatch), writes the current manifest.
/// Returns `true` when existing checkpoints may be reused.
///
/// A manifest that exists but cannot be decoded is a [`CheckpointError`]:
/// silently treating a truncated manifest as "no manifest" would wipe the
/// cells of a sweep the user explicitly asked to resume.
fn prepare_dir(
    dir: &Path,
    manifest: &SweepManifest,
    resume: bool,
) -> Result<bool, CheckpointError> {
    let manifest_path = dir.join("sweep.json");
    let reusable = if resume {
        match std::fs::read_to_string(&manifest_path) {
            Ok(text) => {
                let prev: SweepManifest =
                    serde_json::from_str(&text).map_err(|e| CheckpointError::Manifest {
                        path: manifest_path.clone(),
                        detail: e.to_string(),
                    })?;
                prev == *manifest
            }
            // No manifest yet: a fresh directory, nothing to resume.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => {
                return Err(CheckpointError::Manifest {
                    path: manifest_path.clone(),
                    detail: e.to_string(),
                })
            }
        }
    } else {
        false
    };
    if !reusable {
        let _ = std::fs::remove_dir_all(dir.join("cells"));
    }
    let _ = std::fs::create_dir_all(dir);
    if let Ok(json) = serde_json::to_string_pretty(manifest) {
        let _ = std::fs::write(manifest_path, json);
    }
    Ok(reusable)
}

/// Runs one cell under panic isolation with a retry budget.
fn run_cell(h: &Harness, spec: RunSpec, opts: &SweepOptions) -> CellRecord {
    let _span = powerscale_trace::span_args(
        powerscale_trace::Category::Harness,
        "cell",
        spec.n as u32,
        spec.threads as u32,
    );
    let panic_budget = opts
        .panic_cells
        .iter()
        .find(|(s, _)| *s == spec)
        .map_or(0, |&(_, k)| k);
    let mut attempts = 0;
    let mut last_error = String::new();
    while attempts <= opts.retries {
        attempts += 1;
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            if attempts <= panic_budget {
                panic!("injected cell panic ({spec:?}, attempt {attempts})");
            }
            h.run(spec)
        }));
        match outcome {
            Ok(result) => {
                return CellRecord {
                    spec,
                    attempts,
                    result: Some(result),
                    error: None,
                }
            }
            Err(payload) => last_error = panic_message(payload),
        }
    }
    CellRecord {
        spec,
        attempts,
        result: None,
        error: Some(last_error),
    }
}

/// Runs the full `sizes × threads × algorithms` matrix with per-cell
/// panic isolation, retry budget, and (optionally) checkpoint/resume.
///
/// Fails only on a damaged checkpoint directory ([`CheckpointError`]:
/// a manifest or cell file that exists but cannot be decoded); without
/// `out_dir` the call is infallible. Cell *panics* are never errors —
/// they are recorded in the returned [`MatrixOutcome`].
pub fn run_sweep(
    h: &Harness,
    sizes: &[usize],
    threads: &[usize],
    opts: &SweepOptions,
) -> Result<MatrixOutcome, CheckpointError> {
    let manifest = SweepManifest {
        sizes: sizes.to_vec(),
        threads: threads.to_vec(),
        fault_seed: h.faults.as_ref().map(|f| f.seed),
        dtype: opts.dtype,
    };
    let reuse = match opts.out_dir.as_deref() {
        Some(dir) => prepare_dir(dir, &manifest, opts.resume)?,
        None => false,
    };

    let mut cells = Vec::with_capacity(sizes.len() * threads.len() * ALL_ALGORITHMS.len());
    let mut resumed = 0;
    for &algorithm in &ALL_ALGORITHMS {
        for &n in sizes {
            for &t in threads {
                let spec = RunSpec::new(algorithm, n, t).with_dtype(opts.dtype);
                if reuse {
                    let restored = match opts.out_dir.as_deref() {
                        Some(d) => load_checkpoint(d, &spec)?,
                        None => None,
                    };
                    if let Some(rec) = restored {
                        resumed += 1;
                        cells.push(rec);
                        continue;
                    }
                }
                let rec = run_cell(h, spec, opts);
                if let Some(dir) = opts.out_dir.as_deref() {
                    if rec.is_ok() {
                        store_checkpoint(dir, &rec);
                    }
                }
                cells.push(rec);
            }
        }
    }
    Ok(MatrixOutcome { cells, resumed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Algorithm;
    use powerscale_rapl::FaultConfig;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "powerscale-sweep-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn spec(algorithm: Algorithm, n: usize, threads: usize) -> RunSpec {
        RunSpec::new(algorithm, n, threads)
    }

    #[test]
    fn clean_sweep_matches_direct_runs() {
        let h = Harness::default();
        let out = run_sweep(&h, &[128, 256], &[1, 2], &SweepOptions::default()).unwrap();
        assert_eq!(out.cells.len(), 12);
        assert!(out.cells.iter().all(|c| c.is_ok() && c.attempts == 1));
        // Isolation must not perturb the measurements themselves.
        for cell in &out.cells {
            assert_eq!(cell.result.as_ref().unwrap(), &h.run(cell.spec));
        }
        assert!(out.errors().is_empty());
        assert_eq!(out.resumed, 0);
    }

    #[test]
    fn panicking_cell_is_isolated_not_fatal() {
        let h = Harness::default();
        let bad = spec(Algorithm::Strassen, 128, 2);
        let opts = SweepOptions {
            panic_cells: vec![(bad, u32::MAX)], // panics on every attempt
            retries: 1,
            ..SweepOptions::default()
        };
        let out = run_sweep(&h, &[128], &[1, 2], &opts).unwrap();
        assert_eq!(out.cells.len(), 6);
        let errors = out.errors();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, bad);
        assert!(errors[0].1.contains("injected cell panic"));
        // The failed cell consumed its whole budget; others ran once.
        let failed = out.cells.iter().find(|c| c.spec == bad).unwrap();
        assert_eq!(failed.attempts, 2);
        assert_eq!(out.results().len(), 5);
    }

    #[test]
    fn retry_budget_recovers_transient_cell_panic() {
        let h = Harness::default();
        let flaky = spec(Algorithm::Blocked, 128, 1);
        let opts = SweepOptions {
            panic_cells: vec![(flaky, 2)], // first two attempts panic
            retries: 2,
            ..SweepOptions::default()
        };
        let out = run_sweep(&h, &[128], &[1], &opts).unwrap();
        let rec = out.cells.iter().find(|c| c.spec == flaky).unwrap();
        assert!(rec.is_ok());
        assert_eq!(rec.attempts, 3);
        assert!(out.errors().is_empty());
    }

    #[test]
    fn checkpoint_resume_skips_completed_cells() {
        let h = Harness::default();
        let dir = tmpdir("resume");
        let opts = |resume| SweepOptions {
            out_dir: Some(dir.clone()),
            resume,
            ..SweepOptions::default()
        };
        let first = run_sweep(&h, &[128], &[1, 2], &opts(false)).unwrap();
        assert_eq!(first.resumed, 0);
        let second = run_sweep(&h, &[128], &[1, 2], &opts(true)).unwrap();
        assert_eq!(second.resumed, 6);
        assert_eq!(first.cells, second.cells);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_interrupted_sweep_completes_missing_cells() {
        let h = Harness::default();
        let dir = tmpdir("interrupt");
        // A sweep where one cell failed (no checkpoint written for it).
        let bad = spec(Algorithm::Caps, 128, 1);
        let first = run_sweep(
            &h,
            &[128],
            &[1],
            &SweepOptions {
                out_dir: Some(dir.clone()),
                panic_cells: vec![(bad, u32::MAX)],
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(first.errors().len(), 1);
        // Resume without the injected panic: only the failed cell reruns.
        let second = run_sweep(
            &h,
            &[128],
            &[1],
            &SweepOptions {
                out_dir: Some(dir.clone()),
                resume: true,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(second.resumed, 2);
        assert!(second.errors().is_empty());
        assert_eq!(second.results().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_mismatched_manifest() {
        let h = Harness::default();
        let dir = tmpdir("mismatch");
        let _ = run_sweep(
            &h,
            &[128],
            &[1],
            &SweepOptions {
                out_dir: Some(dir.clone()),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        // Different thread set: stale checkpoints must not be reused.
        let out = run_sweep(
            &h,
            &[128],
            &[1, 2],
            &SweepOptions {
                out_dir: Some(dir.clone()),
                resume: true,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.resumed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_faulty_sweep_is_identical_to_uninterrupted() {
        // The acceptance property: per-cell fault seeds make resume
        // transparent — same seed, same results, interrupted or not.
        let h = Harness::default().with_faults(FaultConfig::chaos(4242));
        let dir = tmpdir("faulty-resume");
        let uninterrupted = run_sweep(&h, &[128], &[1, 2], &SweepOptions::default()).unwrap();
        let _ = run_sweep(
            &h,
            &[128],
            &[1, 2],
            &SweepOptions {
                out_dir: Some(dir.clone()),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let resumed = run_sweep(
            &h,
            &[128],
            &[1, 2],
            &SweepOptions {
                out_dir: Some(dir.clone()),
                resume: true,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(resumed.resumed, 6);
        assert_eq!(uninterrupted.results(), resumed.results());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error_not_a_panic() {
        let h = Harness::default();
        let dir = tmpdir("bad-manifest");
        let _ = run_sweep(
            &h,
            &[128],
            &[1],
            &SweepOptions {
                out_dir: Some(dir.clone()),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        // Truncate the manifest mid-token, as a crash during write would.
        let manifest_path = dir.join("sweep.json");
        let text = std::fs::read_to_string(&manifest_path).unwrap();
        std::fs::write(&manifest_path, &text[..text.len() / 2]).unwrap();
        let err = run_sweep(
            &h,
            &[128],
            &[1],
            &SweepOptions {
                out_dir: Some(dir.clone()),
                resume: true,
                ..SweepOptions::default()
            },
        )
        .unwrap_err();
        match &err {
            CheckpointError::Manifest { path, .. } => assert_eq!(path, &manifest_path),
            other => panic!("expected Manifest error, got {other:?}"),
        }
        assert!(err.to_string().contains("corrupt sweep manifest"));
        // The damaged directory was left alone: cells are still there for
        // the user to salvage or delete.
        assert!(dir.join("cells").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cell_checkpoint_is_a_typed_error_not_a_panic() {
        let h = Harness::default();
        let dir = tmpdir("bad-cell");
        let _ = run_sweep(
            &h,
            &[128],
            &[1],
            &SweepOptions {
                out_dir: Some(dir.clone()),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        // Corrupt one completed cell record (truncated JSON).
        let victim = cell_file(&dir, &spec(Algorithm::Blocked, 128, 1));
        let text = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &text[..text.len() / 3]).unwrap();
        let err = run_sweep(
            &h,
            &[128],
            &[1],
            &SweepOptions {
                out_dir: Some(dir.clone()),
                resume: true,
                ..SweepOptions::default()
            },
        )
        .unwrap_err();
        match &err {
            CheckpointError::Cell { path, .. } => assert_eq!(path, &victim),
            other => panic!("expected Cell error, got {other:?}"),
        }
        assert!(err.to_string().contains("corrupt cell checkpoint"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoints_are_not_errors() {
        // A fresh directory with --resume simply runs everything: absence
        // is the normal interrupted state, not corruption.
        let h = Harness::default();
        let dir = tmpdir("fresh-resume");
        let out = run_sweep(
            &h,
            &[128],
            &[1],
            &SweepOptions {
                out_dir: Some(dir.clone()),
                resume: true,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.resumed, 0);
        assert_eq!(out.results().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_record_round_trips_through_json() {
        let h = Harness::default();
        let rec = run_cell(
            &h,
            spec(Algorithm::Blocked, 128, 2),
            &SweepOptions::default(),
        );
        let json = serde_json::to_string_pretty(&rec).unwrap();
        let back: CellRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(rec, back);
    }
}
