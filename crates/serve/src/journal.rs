//! Crash-safe write-ahead journal of in-flight requests.
//!
//! Layout:
//!
//! ```text
//! DIR/serve.json          — manifest binding the journal to one serving
//!                           configuration (seed, capacity, threads)
//! DIR/requests/<id>.json  — one record per admitted request
//! ```
//!
//! Lifecycle of a record: written with `response: null` at admission
//! (the write-ahead entry), atomically replaced with the filled-in
//! response at completion. Every write goes through a temp file +
//! `rename`, so a crash at any instant leaves each record either absent,
//! fully pending, or fully done — never torn. Recovery is therefore
//! exactly-once by construction: done records keep their response (never
//! re-executed), pending records are re-enqueued with the *journaled*
//! execution plan, so the replay multiplies the same operands at the
//! same tier and reproduces the same checksum bit-for-bit.
//!
//! A *missing* file is never an error — that is the normal state of a
//! fresh or partially-recovered journal. A file that exists but cannot
//! be decoded is, and so is a journal directory that cannot be created;
//! both surface as a typed [`JournalError`], not a panic or a silently
//! un-journaled run.

use crate::queue::ExecPlan;
use crate::request::{DegradeStep, JobSpec, Response};
use powerscale_gemm::DtypeTier;
use powerscale_harness::Algorithm;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// A journal that cannot be created, or exists but cannot be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// `DIR/serve.json` cannot be written, is undecodable or belongs to a
    /// different serving configuration.
    Manifest {
        /// Path of the offending manifest.
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// A `requests/<id>.json` record exists but is undecodable.
    Record {
        /// Path of the offending record.
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Manifest { path, detail } => write!(
                f,
                "unusable serve journal manifest {}: {detail} \
                 (use another journal directory, or delete this one and \
                 start without --resume)",
                path.display()
            ),
            JournalError::Record { path, detail } => write!(
                f,
                "corrupt serve journal record {}: {detail} \
                 (delete the journal directory or start without --resume)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// Guard record binding a journal directory to one serving run's
/// configuration. Resuming under a different configuration would change
/// replay semantics (capacity changes admission, threads change the
/// power model), so a mismatch is an error rather than a silent wipe:
/// a journal holds responses that must not be lost.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeManifest {
    /// Workload / chaos seed.
    pub seed: u64,
    /// Admission queue capacity.
    pub capacity: usize,
    /// Executor pool width.
    pub threads: usize,
}

/// One journaled request: the write-ahead entry plus, once served, its
/// response. The plan fields are flattened copies of [`ExecPlan`] (the
/// serde shim derives only named-field structs and unit enums, so the
/// plan is stored field-by-field).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// The request as submitted.
    pub spec: JobSpec,
    /// Algorithm admission control froze for it.
    pub plan_algorithm: Algorithm,
    /// Tier admission control froze for it.
    pub plan_dtype: DtypeTier,
    /// Degradation rung applied at admission, if any.
    pub degraded: Option<DegradeStep>,
    /// `None` while in flight; the terminal response once served.
    pub response: Option<Response>,
}

impl JournalRecord {
    /// The write-ahead entry for a freshly admitted request.
    pub fn pending(spec: JobSpec, plan: ExecPlan) -> Self {
        JournalRecord {
            spec,
            plan_algorithm: plan.algorithm,
            plan_dtype: plan.dtype,
            degraded: plan.degraded,
            response: None,
        }
    }

    /// The journaled execution plan, reassembled.
    pub fn plan(&self) -> ExecPlan {
        ExecPlan {
            algorithm: self.plan_algorithm,
            dtype: self.plan_dtype,
            degraded: self.degraded,
        }
    }
}

/// Handle on a journal directory.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
}

/// Writes `json` to `path` atomically: temp file in the same directory,
/// then `rename` (atomic on POSIX within one filesystem). A crash leaves
/// either the old content or the new, never a torn file; stray `.tmp`
/// debris is ignored (and cleaned) by recovery.
fn write_atomic(path: &Path, json: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, json)?;
    std::fs::rename(&tmp, path)
}

impl Journal {
    fn manifest_path(dir: &Path) -> PathBuf {
        dir.join("serve.json")
    }

    fn requests_dir(dir: &Path) -> PathBuf {
        dir.join("requests")
    }

    fn record_path(&self, id: u64) -> PathBuf {
        Self::requests_dir(&self.dir).join(format!("{id}.json"))
    }

    /// Opens `dir` as a fresh journal: clears any previous run's records
    /// and writes the manifest. A directory that cannot be cleared or
    /// created, or a manifest that cannot be written, is an error: a
    /// server that ran un-journaled would leave a later resume nothing to
    /// recover.
    pub fn create(dir: &Path, manifest: &ServeManifest) -> Result<Journal, JournalError> {
        let mpath = Self::manifest_path(dir);
        let reqs = Self::requests_dir(dir);
        let fail = |what: &str, e: &dyn std::fmt::Display| JournalError::Manifest {
            path: mpath.clone(),
            detail: format!("cannot {what}: {e}"),
        };
        if reqs.exists() {
            std::fs::remove_dir_all(&reqs).map_err(|e| fail("clear the previous records", &e))?;
        }
        std::fs::create_dir_all(&reqs).map_err(|e| fail("create the journal directory", &e))?;
        let json = serde_json::to_string_pretty(manifest).map_err(|e| fail("encode", &e))?;
        write_atomic(&mpath, &json).map_err(|e| fail("write", &e))?;
        Ok(Journal {
            dir: dir.to_path_buf(),
        })
    }

    /// Opens `dir` for resumption: validates the manifest against this
    /// run's configuration and returns every journaled record. A missing
    /// directory or manifest is a *fresh start*, not an error — the
    /// journal is (re)initialised and no records are returned.
    pub fn resume(
        dir: &Path,
        manifest: &ServeManifest,
    ) -> Result<(Journal, Vec<JournalRecord>), JournalError> {
        let mpath = Self::manifest_path(dir);
        let text = match std::fs::read_to_string(&mpath) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Self::create(dir, manifest)?, Vec::new()));
            }
            Err(e) => {
                return Err(JournalError::Manifest {
                    path: mpath,
                    detail: e.to_string(),
                })
            }
        };
        let found: ServeManifest =
            serde_json::from_str(&text).map_err(|e| JournalError::Manifest {
                path: mpath.clone(),
                detail: e.to_string(),
            })?;
        if &found != manifest {
            return Err(JournalError::Manifest {
                path: mpath,
                detail: format!(
                    "journal belongs to a different serving run \
                     (found seed {}, capacity {}, threads {})",
                    found.seed, found.capacity, found.threads
                ),
            });
        }
        let journal = Journal {
            dir: dir.to_path_buf(),
        };
        let mut records = Vec::new();
        let reqs = Self::requests_dir(dir);
        let entries = match std::fs::read_dir(&reqs) {
            Ok(e) => e,
            Err(_) => {
                let _ = std::fs::create_dir_all(&reqs);
                return Ok((journal, records));
            }
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("tmp") {
                // Crash debris from an interrupted atomic write; the
                // rename never happened, so the real record (if any) is
                // intact.
                let _ = std::fs::remove_file(&path);
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).map_err(|e| JournalError::Record {
                path: path.clone(),
                detail: e.to_string(),
            })?;
            let rec: JournalRecord =
                serde_json::from_str(&text).map_err(|e| JournalError::Record {
                    path: path.clone(),
                    detail: e.to_string(),
                })?;
            records.push(rec);
        }
        // Deterministic replay order regardless of directory iteration.
        records.sort_by_key(|r| r.spec.id);
        Ok((journal, records))
    }

    /// Write-ahead entry: journals an admitted request before any work
    /// happens on it. Records are compact JSON — the admission write runs
    /// under the queue lock, so fewer bytes and no indentation pass per
    /// request; [`Journal::resume`] reads pretty-printed records from
    /// older journals just the same.
    pub fn record_admitted(&self, rec: &JournalRecord) {
        if let Ok(json) = serde_json::to_string(rec) {
            let _ = write_atomic(&self.record_path(rec.spec.id), &json);
        }
    }

    /// Atomically replaces a pending record with its terminal response.
    pub fn record_done(&self, rec: &JournalRecord) {
        debug_assert!(rec.response.is_some(), "done records carry a response");
        self.record_admitted(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RejectReason, Status};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "powerscale-serve-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn manifest() -> ServeManifest {
        ServeManifest {
            seed: 42,
            capacity: 8,
            threads: 2,
        }
    }

    fn pending(id: u64) -> JournalRecord {
        JournalRecord::pending(
            JobSpec::new(id, 64, Algorithm::Strassen),
            ExecPlan {
                algorithm: Algorithm::Blocked,
                dtype: DtypeTier::F64,
                degraded: Some(DegradeStep::Algorithm),
            },
        )
    }

    #[test]
    fn pending_then_done_round_trip() {
        let dir = tmpdir("roundtrip");
        let j = Journal::create(&dir, &manifest()).unwrap();
        let mut rec = pending(5);
        j.record_admitted(&rec);
        let (_, recs) = Journal::resume(&dir, &manifest()).unwrap();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].response.is_none());
        assert_eq!(recs[0].plan().degraded, Some(DegradeStep::Algorithm));

        rec.response = Some(Response::rejected(5, RejectReason::QueueFull));
        j.record_done(&rec);
        let (_, recs) = Journal::resume(&dir, &manifest()).unwrap();
        assert_eq!(recs[0].response.as_ref().unwrap().status, Status::Rejected);
    }

    #[test]
    fn resume_reads_compact_and_pretty_records_side_by_side() {
        // Journals written before records went compact hold
        // pretty-printed files; a directory with both forms must resume.
        let dir = tmpdir("both-forms");
        let j = Journal::create(&dir, &manifest()).unwrap();
        let mut done = pending(1);
        done.response = Some(Response::rejected(1, RejectReason::QueueFull));
        j.record_done(&done);
        let compact = std::fs::read_to_string(j.record_path(1)).unwrap();
        assert!(!compact.contains('\n'), "records are written compact");
        let old = pending(2);
        let pretty = serde_json::to_string_pretty(&old).unwrap();
        assert!(pretty.contains('\n'));
        std::fs::write(j.record_path(2), pretty).unwrap();
        let (_, recs) = Journal::resume(&dir, &manifest()).unwrap();
        assert_eq!(recs, vec![done, old]);
    }

    #[test]
    fn missing_journal_is_a_fresh_start_not_an_error() {
        let dir = tmpdir("fresh");
        let (_, recs) = Journal::resume(&dir, &manifest()).unwrap();
        assert!(recs.is_empty());
    }

    #[test]
    fn corrupt_record_is_a_typed_error_not_a_panic() {
        let dir = tmpdir("corrupt-record");
        let j = Journal::create(&dir, &manifest()).unwrap();
        j.record_admitted(&pending(9));
        let victim = Journal::requests_dir(&dir).join("9.json");
        let text = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &text[..text.len() / 2]).unwrap();
        match Journal::resume(&dir, &manifest()) {
            Err(JournalError::Record { path, .. }) => assert_eq!(path, victim),
            other => panic!("expected Record error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error_not_a_panic() {
        let dir = tmpdir("corrupt-manifest");
        Journal::create(&dir, &manifest()).unwrap();
        let mpath = dir.join("serve.json");
        let text = std::fs::read_to_string(&mpath).unwrap();
        std::fs::write(&mpath, &text[..text.len() / 2]).unwrap();
        assert!(matches!(
            Journal::resume(&dir, &manifest()),
            Err(JournalError::Manifest { .. })
        ));
    }

    #[test]
    fn mismatched_manifest_refuses_to_resume() {
        let dir = tmpdir("mismatch");
        Journal::create(&dir, &manifest()).unwrap();
        let other = ServeManifest {
            seed: 43,
            ..manifest()
        };
        assert!(matches!(
            Journal::resume(&dir, &other),
            Err(JournalError::Manifest { .. })
        ));
    }

    #[test]
    fn tmp_debris_is_cleaned_on_resume() {
        let dir = tmpdir("debris");
        let j = Journal::create(&dir, &manifest()).unwrap();
        j.record_admitted(&pending(1));
        let debris = Journal::requests_dir(&dir).join("2.tmp");
        std::fs::write(&debris, "half-written garbage").unwrap();
        let (_, recs) = Journal::resume(&dir, &manifest()).unwrap();
        assert_eq!(recs.len(), 1, "debris must not surface as a record");
        assert!(!debris.exists(), "debris must be swept");
    }
}
