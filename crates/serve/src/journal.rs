//! Crash-safe write-ahead journal of in-flight requests: one append-only
//! file, `DIR/journal.log`. Line 1 is the [`ServeManifest`]; every later
//! line is one [`JournalRecord`] framed as `<16 hex digits of FNV-1a-64
//! over the JSON bytes> <compact JSON>\n`.
//!
//! Admission appends a request's record with `response: null` (the
//! write-ahead entry), completion appends it again with the response, and
//! [`Journal::resume`] folds the lines by id, the last line winning. So
//! done records keep their response (never re-executed) and pending ones
//! re-enqueue with the *journaled* plan, which replays the same operands
//! at the same tier and reproduces the checksum bit for bit.
//!
//! Each line goes out in one `write_all` under a lock on a file opened
//! for appending. Nothing is synced: the journal survives the death of
//! the process, not the loss of power. A process that dies mid-append can
//! tear only the last line, so a last line without its newline or whose
//! checksum fails is cut off before anything more is appended; a bad line
//! anywhere else is [`JournalError::Record`]. A failed append closes the
//! journal, so its partial line stays the last one.

use crate::chaos::fnv1a_bytes;
use crate::queue::ExecPlan;
use crate::request::{DegradeStep, JobSpec, Response};
use powerscale_gemm::DtypeTier;
use powerscale_harness::Algorithm;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A journal that cannot be created, trusted or appended to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The journal cannot be created, its manifest line does not match
    /// this run, or the directory holds the old per-request-file layout.
    Manifest {
        /// Path of the offending file.
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// A record line before the last fails its checksum or does not decode.
    Record {
        /// Path of the journal.
        path: PathBuf,
        /// The line's number; the manifest is line 1.
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// A line could not be appended; its request was not acknowledged.
    Append {
        /// Path of the journal.
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
            JournalError::Record { path, line, detail } => write!(
                f,
                "corrupt serve journal {} at line {line}: {detail} \
                 (delete the journal directory or start without --resume)",
                path.display()
            ),
            JournalError::Append { path, detail } => write!(
                f,
                "cannot append to serve journal {}: {detail} (serving stopped)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// Guard record binding a journal to one serving run's configuration.
/// Resuming under a different configuration would change replay
/// semantics (capacity changes admission, threads change the power
/// model), so a mismatch is an error rather than a silent wipe: a journal
/// holds responses that must not be lost.
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

const LOG: &str = "journal.log";
/// A journal directory's files before the log; resume refuses them.
const OLD_LAYOUT: [&str; 2] = ["serve.json", "requests"];

/// Handle on a journal file, open for appending.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// The first failed append's error once there is one.
    file: Mutex<Result<File, JournalError>>,
}

/// The JSON of a record line (newline stripped) whose checksum holds.
fn verified(line: &[u8]) -> Option<&str> {
    let (sum, json) = (line.get(..16)?, line.get(17..)?);
    let sum = u64::from_str_radix(std::str::from_utf8(sum).ok()?, 16).ok()?;
    (line[16] == b' ' && sum == fnv1a_bytes(json.iter().copied()))
        .then(|| std::str::from_utf8(json).ok())?
}

impl Journal {
    /// Opens the log at `path` for appending, cut to its first `len` bytes.
    fn open(path: PathBuf, len: u64) -> std::io::Result<Journal> {
        let file = File::options().append(true).create(true).open(&path)?;
        file.set_len(len)?;
        let file = Mutex::new(Ok(file));
        Ok(Journal { path, file })
    }

    /// Opens `dir` as a fresh journal holding only the manifest line. A
    /// journal that cannot be created is an error: a server that ran
    /// un-journaled would leave a later resume nothing to recover.
    pub fn create(dir: &Path, manifest: &ServeManifest) -> Result<Journal, JournalError> {
        let path = dir.join(LOG);
        let fail = |e: &dyn std::fmt::Display| JournalError::Manifest {
            path: path.clone(),
            detail: format!("cannot create: {e}"),
        };
        std::fs::create_dir_all(dir).map_err(|e| fail(&e))?;
        let journal = Self::open(path.clone(), 0).map_err(|e| fail(&e))?;
        let json = serde_json::to_string(manifest).map_err(|e| fail(&e))?;
        journal.append(format!("{json}\n"))?;
        Ok(journal)
    }

    /// Opens `dir` for resumption: checks the manifest line against this
    /// run's configuration, cuts a torn last line and returns each id's
    /// last record, sorted by id. A missing log is a *fresh start*, unless
    /// the directory holds the old layout: that is refused, untouched.
    pub fn resume(
        dir: &Path,
        manifest: &ServeManifest,
    ) -> Result<(Journal, Vec<JournalRecord>), JournalError> {
        let path = dir.join(LOG);
        let refuse = |path: PathBuf, detail: String| JournalError::Manifest { path, detail };
        let bytes = match std::fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            read => read.map_err(|e| refuse(path.clone(), e.to_string()))?,
        };
        // Bytes after the last newline are a torn append.
        let Some(end) = bytes.iter().rposition(|&b| b == b'\n') else {
            // No log, or not even its manifest line: nothing was journaled.
            if let Some(old) = OLD_LAYOUT
                .map(|f| dir.join(f))
                .into_iter()
                .find(|p| p.exists())
            {
                return Err(refuse(old, "the old per-request-file layout".into()));
            }
            return Ok((Self::create(dir, manifest)?, Vec::new()));
        };
        let mut kept = end + 1;
        let mut lines = bytes[..end].split(|&b| b == b'\n');
        let head = lines.next().unwrap_or_default();
        let found: Option<ServeManifest> = std::str::from_utf8(head)
            .ok()
            .and_then(|t| serde_json::from_str(t).ok());
        if found.as_ref() != Some(manifest) {
            let head = String::from_utf8_lossy(head);
            let detail = format!("line 1 is {head}, not this run's {manifest:?}");
            return Err(refuse(path, detail));
        }
        let mut records = BTreeMap::new();
        let mut lines = lines.enumerate().peekable();
        while let Some((i, line)) = lines.next() {
            let bad = |detail: String| JournalError::Record {
                path: path.clone(),
                line: i + 2,
                detail,
            };
            let Some(json) = verified(line) else {
                if lines.peek().is_none() {
                    kept -= line.len() + 1;
                    break;
                }
                return Err(bad("checksum mismatch".into()));
            };
            let rec: JournalRecord = serde_json::from_str(json).map_err(|e| bad(e.to_string()))?;
            records.insert(rec.spec.id, rec);
        }
        let journal = Self::open(path.clone(), kept as u64)
            .map_err(|e| refuse(path, format!("cannot reopen for appending: {e}")))?;
        Ok((journal, records.into_values().collect()))
    }

    /// Appends one line in one `write_all`. The first failure closes the
    /// journal: every later append returns it too.
    fn append(&self, line: String) -> Result<(), JournalError> {
        let mut slot = self.file.lock().unwrap();
        let file = slot.as_mut().map_err(|e| e.clone())?;
        if let Err(e) = file.write_all(line.as_bytes()) {
            let (path, detail) = (self.path.clone(), e.to_string());
            *slot = Err(JournalError::Append { path, detail });
        }
        slot.as_ref().map(|_| ()).map_err(JournalError::clone)
    }

    /// The first failed append's error, if an append failed.
    pub(crate) fn error(&self) -> Option<JournalError> {
        self.file.lock().unwrap().as_ref().err().cloned()
    }

    /// Write-ahead entry: journals an admitted request before any work
    /// happens on it.
    pub fn record_admitted(&self, rec: &JournalRecord) -> Result<(), JournalError> {
        let json = serde_json::to_string(rec).expect("records encode");
        self.append(format!("{:016x} {json}\n", fnv1a_bytes(json.bytes())))
    }

    /// Journals a request's terminal response, which supersedes its
    /// pending line on resume.
    pub fn record_done(&self, rec: &JournalRecord) -> Result<(), JournalError> {
        debug_assert!(rec.response.is_some(), "done records carry a response");
        self.record_admitted(rec)
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// A journal whose every append fails with ENOSPC. The tests run as
    /// root, so permission bits cannot make a write fail; `/dev/full` can.
    pub(crate) fn full_journal() -> Journal {
        let file = File::options().append(true).open("/dev/full").unwrap();
        let (path, file) = (PathBuf::from("/dev/full"), Mutex::new(Ok(file)));
        Journal { path, file }
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

    fn done(id: u64) -> JournalRecord {
        let mut rec = pending(id);
        rec.response = Some(Response::rejected(id, RejectReason::QueueFull));
        rec
    }

    #[test]
    fn pending_then_done_round_trip() {
        let dir = tmpdir("roundtrip");
        let j = Journal::create(&dir, &manifest()).unwrap();
        j.record_admitted(&pending(5)).unwrap();
        let (_, recs) = Journal::resume(&dir, &manifest()).unwrap();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].response.is_none());
        assert_eq!(recs[0].plan().degraded, Some(DegradeStep::Algorithm));

        j.record_done(&done(5)).unwrap();
        let (_, recs) = Journal::resume(&dir, &manifest()).unwrap();
        assert_eq!(recs[0].response.as_ref().unwrap().status, Status::Rejected);
    }

    #[test]
    fn last_line_wins_and_records_come_back_sorted_by_id() {
        let dir = tmpdir("fold");
        let j = Journal::create(&dir, &manifest()).unwrap();
        for id in [3, 1, 2] {
            j.record_admitted(&pending(id)).unwrap();
        }
        j.record_done(&done(1)).unwrap();
        j.record_done(&done(3)).unwrap();
        let (_, recs) = Journal::resume(&dir, &manifest()).unwrap();
        assert_eq!(recs, vec![done(1), pending(2), done(3)]);
    }

    #[test]
    fn missing_journal_is_a_fresh_start_not_an_error() {
        let dir = tmpdir("fresh");
        let (_, recs) = Journal::resume(&dir, &manifest()).unwrap();
        assert!(recs.is_empty());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["journal.log"]);
    }

    #[test]
    fn torn_last_line_is_cut_at_every_offset() {
        let dir = tmpdir("torn");
        let j = Journal::create(&dir, &manifest()).unwrap();
        j.record_admitted(&pending(1)).unwrap();
        j.record_done(&done(1)).unwrap();
        let start = std::fs::metadata(&j.path).unwrap().len() as usize;
        j.record_admitted(&pending(2)).unwrap();
        let whole = std::fs::read(&j.path).unwrap();
        // Every cut short of the last line's newline, then the whole line
        // with one byte of its JSON flipped.
        let mut flipped = whole.clone();
        flipped[whole.len() - 3] ^= 0x20;
        let torn = (start..whole.len())
            .map(|cut| whole[..cut].to_vec())
            .chain([flipped]);
        for bytes in torn {
            std::fs::write(&j.path, &bytes).unwrap();
            let (resumed, recs) = Journal::resume(&dir, &manifest()).unwrap();
            assert_eq!(recs, vec![done(1)], "{} torn bytes", bytes.len() - start);
            assert_eq!(std::fs::read(&j.path).unwrap(), whole[..start]);
            resumed.record_admitted(&pending(3)).unwrap();
            let (_, recs) = Journal::resume(&dir, &manifest()).unwrap();
            assert_eq!(recs, vec![done(1), pending(3)]);
        }
    }

    #[test]
    fn corrupt_record_is_a_typed_error_not_a_panic() {
        // A flipped byte in a line before the last is damage, not a torn
        // append: a typed error naming the line, and nothing is cut.
        let dir = tmpdir("flipped");
        let j = Journal::create(&dir, &manifest()).unwrap();
        for id in 1..=3 {
            j.record_admitted(&pending(id)).unwrap();
        }
        let mut bytes = std::fs::read(&j.path).unwrap();
        // Line 3 is the second record; flip a byte inside its JSON.
        let line3 = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .nth(1)
            .unwrap()
            .0
            + 1;
        bytes[line3 + 30] ^= 0x01;
        std::fs::write(&j.path, &bytes).unwrap();
        match Journal::resume(&dir, &manifest()) {
            Err(JournalError::Record { path, line, .. }) => {
                assert_eq!((path, line), (j.path.clone(), 3));
            }
            other => panic!("expected a Record error, got {other:?}"),
        }
        assert_eq!(std::fs::read(&j.path).unwrap(), bytes, "nothing is cut");
    }

    #[test]
    fn record_with_a_deleted_degrade_step_is_a_typed_error() {
        // A journal written while the ladder still had its precision rung
        // may carry `"Precision"` or `"Full"`: a checksummed line that no
        // longer decodes is a typed error naming the line, not a torn
        // append, even as the last line.
        let dir = tmpdir("deleted-variant");
        let j = Journal::create(&dir, &manifest()).unwrap();
        j.record_admitted(&pending(1)).unwrap();
        for deleted in ["Precision", "Full"] {
            let json = serde_json::to_string(&pending(2))
                .unwrap()
                .replace("\"Algorithm\"", &format!("\"{deleted}\""));
            let mut bytes = std::fs::read(&j.path).unwrap();
            let line = format!("{:016x} {json}\n", fnv1a_bytes(json.bytes()));
            bytes.extend_from_slice(line.as_bytes());
            std::fs::write(&j.path, &bytes).unwrap();
            match Journal::resume(&dir, &manifest()) {
                Err(JournalError::Record { line, .. }) => assert_eq!(line, 3, "{deleted}"),
                other => panic!("{deleted}: expected a Record error, got {other:?}"),
            }
            assert_eq!(std::fs::read(&j.path).unwrap(), bytes, "nothing is cut");
            std::fs::write(&j.path, &bytes[..bytes.len() - line.len()]).unwrap();
        }
    }

    #[test]
    fn old_layout_is_refused_and_left_untouched() {
        let dir = tmpdir("old-layout");
        let (old_manifest, old_records) = (dir.join(OLD_LAYOUT[0]), dir.join(OLD_LAYOUT[1]));
        std::fs::create_dir_all(&old_records).unwrap();
        let manifest_json = serde_json::to_string_pretty(&manifest()).unwrap();
        let record_json = serde_json::to_string(&done(1)).unwrap();
        std::fs::write(&old_manifest, &manifest_json).unwrap();
        std::fs::write(old_records.join("1.json"), &record_json).unwrap();
        assert!(matches!(
            Journal::resume(&dir, &manifest()),
            Err(JournalError::Manifest { .. })
        ));
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names, ["requests", "serve.json"]);
        assert_eq!(
            std::fs::read_to_string(&old_manifest).unwrap(),
            manifest_json
        );
        assert_eq!(
            std::fs::read_to_string(old_records.join("1.json")).unwrap(),
            record_json
        );
        assert_eq!(std::fs::read_dir(&old_records).unwrap().count(), 1);
    }

    #[test]
    fn failed_append_is_typed_and_closes_the_journal() {
        let j = full_journal();
        let first = j.record_admitted(&pending(1)).unwrap_err();
        match &first {
            JournalError::Append { path, detail } => {
                assert_eq!(path, &j.path);
                assert!(detail.contains("No space left"), "{detail}");
            }
            other => panic!("expected an Append error, got {other:?}"),
        }
        assert_eq!(j.record_done(&done(1)), Err(first.clone()), "closed");
        assert_eq!(j.error(), Some(first));
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error_not_a_panic() {
        let dir = tmpdir("corrupt-manifest");
        let j = Journal::create(&dir, &manifest()).unwrap();
        let text = std::fs::read_to_string(&j.path).unwrap();
        std::fs::write(&j.path, format!("{}\n", &text[..text.len() / 2])).unwrap();
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
}
