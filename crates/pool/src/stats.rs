//! Per-worker execution statistics.
//!
//! These counters are the pool's contribution to the paper's communication
//! accounting: a *steal* (taking a task from another worker's deque) is the
//! scheduling event that drags the task's operand footprint across cores,
//! while a *local pop* keeps it cache-resident. The CAPS experiment uses the
//! steal/local ratio as its measured communication proxy.

use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for one worker thread.
///
/// All counters are monotonically increasing over the pool's lifetime and may
/// be read at any time with [`WorkerStats::snapshot`].
#[derive(Debug, Default)]
pub(crate) struct WorkerStats {
    /// Tasks executed after being popped from this worker's own deque.
    pub(crate) local: CachePadded<AtomicU64>,
    /// Tasks executed after being stolen from another worker's deque.
    pub(crate) stolen: CachePadded<AtomicU64>,
    /// Steals whose victim was in the thief's scheduling group (see
    /// [`crate::ThreadPool::try_install_groups`]); on an ungrouped pool
    /// every steal counts here.
    pub(crate) steals_in_group: CachePadded<AtomicU64>,
    /// Steals that crossed a group boundary.
    pub(crate) steals_cross_group: CachePadded<AtomicU64>,
    /// Tasks executed after being taken from the global injector.
    pub(crate) injected: CachePadded<AtomicU64>,
    /// Times this worker went to sleep waiting for work.
    pub(crate) parks: CachePadded<AtomicU64>,
}

/// An immutable snapshot of one worker's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct WorkerSnapshot {
    /// Tasks popped from the worker's own deque.
    pub local: u64,
    /// Tasks stolen from sibling workers.
    pub stolen: u64,
    /// Steals from a victim in the thief's own scheduling group.
    /// `steals_in_group + steals_cross_group == stolen` always holds.
    pub steals_in_group: u64,
    /// Steals that crossed a group boundary.
    pub steals_cross_group: u64,
    /// Tasks taken from the global injector.
    pub injected: u64,
    /// Times the worker parked.
    pub parks: u64,
}

impl WorkerSnapshot {
    /// Total tasks this worker executed.
    pub fn executed(&self) -> u64 {
        self.local + self.stolen + self.injected
    }
}

impl WorkerStats {
    pub(crate) fn count_local(&self) {
        self.local.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_stolen(&self, in_group: bool) {
        self.stolen.fetch_add(1, Ordering::Relaxed);
        if in_group {
            self.steals_in_group.fetch_add(1, Ordering::Relaxed);
        } else {
            self.steals_cross_group.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn count_injected(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads the current counter values.
    pub fn snapshot(&self) -> WorkerSnapshot {
        WorkerSnapshot {
            local: self.local.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
            steals_in_group: self.steals_in_group.load(Ordering::Relaxed),
            steals_cross_group: self.steals_cross_group.load(Ordering::Relaxed),
            injected: self.injected.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
        }
    }
}

/// Aggregated statistics for a whole pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// One snapshot per worker, in worker-index order.
    pub(crate) workers: Vec<WorkerSnapshot>,
}

impl PoolStats {
    /// Total tasks executed across workers.
    pub fn total_executed(&self) -> u64 {
        self.workers.iter().map(WorkerSnapshot::executed).sum()
    }

    /// Total steals across workers.
    pub fn total_stolen(&self) -> u64 {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Total steals whose victim shared the thief's scheduling group.
    pub fn steals_in_group(&self) -> u64 {
        self.workers.iter().map(|w| w.steals_in_group).sum()
    }

    /// Total steals that crossed a group boundary — the scheduling
    /// analogue of the paper's inter-group communication.
    pub fn steals_cross_group(&self) -> u64 {
        self.workers.iter().map(|w| w.steals_cross_group).sum()
    }

    /// Fraction of executed tasks that migrated (steal or injector) rather
    /// than running where they were spawned. Returns 0 for an idle pool.
    ///
    /// This is the **communication fraction** consumed by the machine model:
    /// migrated tasks pay the inter-core transfer cost for their operand
    /// footprint.
    pub fn migration_fraction(&self) -> f64 {
        let total = self.total_executed();
        if total == 0 {
            return 0.0;
        }
        let migrated: u64 = self.workers.iter().map(|w| w.stolen + w.injected).sum();
        migrated as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counts() {
        let s = WorkerStats::default();
        s.count_local();
        s.count_local();
        s.count_stolen(true);
        s.count_stolen(false);
        s.count_injected();
        s.count_park();
        let snap = s.snapshot();
        assert_eq!(snap.local, 2);
        assert_eq!(snap.stolen, 2);
        assert_eq!(snap.steals_in_group, 1);
        assert_eq!(snap.steals_cross_group, 1);
        assert_eq!(snap.injected, 1);
        assert_eq!(snap.parks, 1);
        assert_eq!(snap.executed(), 5);
    }

    #[test]
    fn steal_kinds_partition_stolen() {
        let s = WorkerStats::default();
        for i in 0..17 {
            s.count_stolen(i % 3 == 0);
        }
        let snap = s.snapshot();
        assert_eq!(snap.steals_in_group + snap.steals_cross_group, snap.stolen);
    }

    #[test]
    fn pool_stats_aggregation() {
        let stats = PoolStats {
            workers: vec![
                WorkerSnapshot {
                    local: 6,
                    stolen: 2,
                    steals_in_group: 2,
                    steals_cross_group: 0,
                    injected: 2,
                    parks: 0,
                },
                WorkerSnapshot {
                    local: 4,
                    stolen: 4,
                    steals_in_group: 1,
                    steals_cross_group: 3,
                    injected: 2,
                    parks: 1,
                },
            ],
        };
        assert_eq!(stats.total_executed(), 20);
        assert_eq!(stats.total_stolen(), 6);
        assert_eq!(stats.steals_in_group(), 3);
        assert_eq!(stats.steals_cross_group(), 3);
        assert!((stats.migration_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn migration_fraction_idle_pool() {
        let stats = PoolStats {
            workers: vec![WorkerSnapshot::default()],
        };
        assert_eq!(stats.migration_fraction(), 0.0);
    }
}
