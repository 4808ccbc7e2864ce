//! The bounded, shape-bucketed admission queue.
//!
//! Backpressure lives here: the queue holds at most `capacity` admitted
//! requests, and [`BoundedQueue::pressure`] (fill fraction) is what the
//! server's admission controller reads to decide degradation. Jobs are
//! bucketed by `n` so [`BoundedQueue::pop_batch`] hands the executor a
//! run of same-shape multiplies — one blocking plan, warm packing
//! buffers — while picking *which* bucket to serve by earliest deadline
//! (FIFO admission order as the tiebreak, so deadline-free traffic can't
//! be starved indefinitely by other deadline-free buckets).

use crate::request::{DegradeStep, JobSpec};
use powerscale_gemm::DtypeTier;
use powerscale_harness::Algorithm;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::time::Instant;

/// The execution plan admission control resolved for a request: the
/// algorithm/tier it will actually be served at (after any degradation),
/// frozen at admission so a journal replay re-executes bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPlan {
    /// Algorithm the server will run (may differ from the hint).
    pub algorithm: Algorithm,
    /// Tier the server will run at (may differ from the request).
    pub dtype: DtypeTier,
    /// The ladder rung applied, if any.
    pub degraded: Option<DegradeStep>,
}

/// One admitted request waiting for an executor.
#[derive(Debug, Clone)]
pub struct Admitted {
    /// The request as submitted.
    pub spec: JobSpec,
    /// The plan admission control froze for it.
    pub plan: ExecPlan,
    /// When it was admitted — deadlines count from here.
    pub admitted_at: Instant,
    /// Admission sequence number (FIFO tiebreak).
    pub seq: u64,
}

impl Admitted {
    /// Absolute deadline, if the spec carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.spec
            .deadline_ms
            .map(|ms| self.admitted_at + std::time::Duration::from_millis(ms))
    }

    /// Sort key for urgency: deadline first, admission order second.
    /// `Option<Instant>` orders `None` (no deadline) first, so
    /// [`BoundedQueue::pop_batch`] leads its key with `is_none()` to make
    /// it least urgent.
    fn urgency(&self) -> (Option<Instant>, u64) {
        (self.deadline(), self.seq)
    }
}

/// Bounded FIFO-per-shape queue. It does no locking of its own: the
/// server keeps it under one mutex shared by the admitting thread and the
/// executors (see the server's concurrency discipline).
#[derive(Debug)]
pub struct BoundedQueue {
    capacity: usize,
    buckets: BTreeMap<usize, VecDeque<Admitted>>,
    len: usize,
    next_seq: u64,
}

impl BoundedQueue {
    /// A queue admitting at most `capacity` requests. Zero is legal and
    /// means "shed everything" — a valid (if drastic) backpressure
    /// configuration.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            capacity,
            buckets: BTreeMap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Queued request count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fill fraction in `[0, 1]`; a zero-capacity queue is always at
    /// full pressure.
    pub fn pressure(&self) -> f64 {
        if self.capacity == 0 {
            1.0
        } else {
            self.len as f64 / self.capacity as f64
        }
    }

    /// True when another request can be admitted. The server checks this
    /// *before* writing the journal's write-ahead record so a pending
    /// record is only ever created for a request that will actually be
    /// queued (a shed request must never be replayable).
    pub fn has_room(&self) -> bool {
        self.len < self.capacity
    }

    /// Admits a job, or returns it when the queue is at capacity.
    pub fn try_push(&mut self, spec: JobSpec, plan: ExecPlan) -> Result<(), JobSpec> {
        if self.len >= self.capacity {
            return Err(spec);
        }
        let job = Admitted {
            spec,
            plan,
            admitted_at: Instant::now(),
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.buckets.entry(spec.n).or_default().push_back(job);
        self.len += 1;
        Ok(())
    }

    /// Re-enqueues an already-admitted job (journal replay): keeps its
    /// original plan, takes a fresh admission instant and sequence slot.
    pub fn push_replay(&mut self, spec: JobSpec, plan: ExecPlan) {
        let job = Admitted {
            spec,
            plan,
            admitted_at: Instant::now(),
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.buckets.entry(spec.n).or_default().push_back(job);
        self.len += 1;
    }

    /// Pops up to `max` same-shape jobs from the most urgent bucket
    /// (earliest head deadline, admission order as tiebreak). Returns an
    /// empty vec when the queue is empty or `max` is zero.
    pub fn pop_batch(&mut self, max: usize) -> Vec<Admitted> {
        if max == 0 || self.len == 0 {
            return Vec::new();
        }
        let pick = self
            .buckets
            .iter()
            .filter_map(|(&n, q)| q.front().map(|j| (j.urgency(), n)))
            // `is_none()` leads the key so "no deadline" sorts after
            // every real deadline.
            .min_by_key(|&((d, seq), n)| (d.is_none(), d, seq, n))
            .map(|(_, n)| n);
        let Some(n) = pick else { return Vec::new() };
        let bucket = self.buckets.get_mut(&n).expect("picked bucket exists");
        let take = max.min(bucket.len());
        let batch: Vec<Admitted> = bucket.drain(..take).collect();
        if bucket.is_empty() {
            self.buckets.remove(&n);
        }
        self.len -= batch.len();
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> ExecPlan {
        ExecPlan {
            algorithm: Algorithm::Blocked,
            dtype: DtypeTier::F64,
            degraded: None,
        }
    }

    fn spec(id: u64, n: usize) -> JobSpec {
        JobSpec::new(id, n, Algorithm::Blocked)
    }

    #[test]
    fn capacity_bound_is_enforced() {
        let mut q = BoundedQueue::new(2);
        assert!(q.try_push(spec(1, 64), plan()).is_ok());
        assert!(q.try_push(spec(2, 64), plan()).is_ok());
        let back = q.try_push(spec(3, 64), plan()).unwrap_err();
        assert_eq!(back.id, 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn zero_capacity_queue_sheds_everything_and_reads_full_pressure() {
        let mut q = BoundedQueue::new(0);
        assert_eq!(q.pressure(), 1.0);
        assert!(q.try_push(spec(1, 64), plan()).is_err());
        assert!(q.is_empty());
    }

    #[test]
    fn pressure_tracks_fill_fraction() {
        let mut q = BoundedQueue::new(4);
        assert_eq!(q.pressure(), 0.0);
        q.try_push(spec(1, 64), plan()).unwrap();
        q.try_push(spec(2, 96), plan()).unwrap();
        assert!((q.pressure() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn batches_are_shape_homogeneous_and_fifo() {
        let mut q = BoundedQueue::new(8);
        for (id, n) in [(1, 64), (2, 96), (3, 64), (4, 96), (5, 64)] {
            q.try_push(spec(id, n), plan()).unwrap();
        }
        let batch = q.pop_batch(8);
        let ns: Vec<usize> = batch.iter().map(|j| j.spec.n).collect();
        assert!(ns.iter().all(|&n| n == ns[0]), "mixed shapes: {ns:?}");
        let ids: Vec<u64> = batch.iter().map(|j| j.spec.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "batch must preserve admission order");
        // Draining everything touches both buckets exactly once more.
        assert_eq!(q.pop_batch(8).len(), 5 - batch.len());
        assert!(q.is_empty());
    }

    #[test]
    fn earliest_deadline_bucket_is_served_first() {
        let mut q = BoundedQueue::new(8);
        q.try_push(spec(1, 256), plan()).unwrap(); // no deadline
        q.try_push(spec(2, 64).with_deadline_ms(10_000), plan())
            .unwrap();
        q.try_push(spec(3, 96).with_deadline_ms(50), plan())
            .unwrap();
        assert_eq!(q.pop_batch(1)[0].spec.id, 3, "tightest deadline first");
        assert_eq!(q.pop_batch(1)[0].spec.id, 2);
        assert_eq!(q.pop_batch(1)[0].spec.id, 1, "deadline-free last");
    }

    #[test]
    fn pop_respects_max() {
        let mut q = BoundedQueue::new(8);
        for id in 0..5 {
            q.try_push(spec(id, 64), plan()).unwrap();
        }
        assert_eq!(q.pop_batch(2).len(), 2);
        assert_eq!(q.len(), 3);
    }
}
