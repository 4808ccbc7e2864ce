//! The event taxonomy.

use core::fmt;
use serde::{Deserialize, Serialize};

/// Software events recorded by the powerscale kernels.
///
/// The set is deliberately close to the PAPI presets the paper's test driver
/// would have used (`PAPI_FP_OPS`, `PAPI_LST_INS`, …) plus the
/// tasking/communication events that the energy model needs and that real
/// hardware cannot attribute to an algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(usize)]
pub enum Event {
    /// Multiply-accumulate floating-point operations (2 flops each counted
    /// individually): the GEMM inner kernels.
    FpOps,
    /// Floating-point additions/subtractions outside the multiply kernels:
    /// the Strassen quadrant add/sub passes.
    FpAdds,
    /// Bytes read from operand memory (useful traffic, not cache refills).
    BytesRead,
    /// Bytes written to result memory.
    BytesWritten,
    /// Bytes packed/copied into contiguous buffers by the GEMM packing
    /// stage or the Strassen intermediate buffers.
    PackBytes,
    /// Bytes whose ownership crossed workers (steal-migrated task
    /// footprints): the paper's "communication".
    CommBytes,
    /// Tasks spawned into the pool.
    TasksSpawned,
    /// Tasks that executed on a different worker than the one that spawned
    /// them.
    TasksMigrated,
    /// Dense base-case kernel invocations (Strassen cutover calls).
    KernelCalls,
    /// Recursion levels entered (Strassen/CAPS tree depth events).
    RecursionLevels,
    /// Tasks stolen by a worker from a victim in its *own* scheduling
    /// group — traffic that stays inside a BFS level's disjoint processor
    /// group and therefore does not count against the Eq. 8 bound.
    StealsInGroup,
    /// Tasks stolen across group boundaries — the scheduling analogue of
    /// the paper's inter-group "communication".
    StealsCrossGroup,
    /// Pool jobs dropped or skipped because their scope's cancellation
    /// token fired (deadline or explicit cancel). A *policy* outcome of
    /// the serving layer, deliberately distinct from panic recovery.
    JobCancelled,
}

/// Number of distinct [`Event`] variants (array-index bound).
pub(crate) const EVENT_COUNT: usize = 13;

/// Every event, in `repr` order. Kept in sync with the enum by the
/// `all_events_listed` test.
pub const ALL_EVENTS: [Event; EVENT_COUNT] = [
    Event::FpOps,
    Event::FpAdds,
    Event::BytesRead,
    Event::BytesWritten,
    Event::PackBytes,
    Event::CommBytes,
    Event::TasksSpawned,
    Event::TasksMigrated,
    Event::KernelCalls,
    Event::RecursionLevels,
    Event::StealsInGroup,
    Event::StealsCrossGroup,
    Event::JobCancelled,
];

impl Event {
    /// Stable array index of the event.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// PAPI-flavoured mnemonic used in reports.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            Event::FpOps => "PS_FP_OPS",
            Event::FpAdds => "PS_FP_ADDS",
            Event::BytesRead => "PS_BYTES_RD",
            Event::BytesWritten => "PS_BYTES_WR",
            Event::PackBytes => "PS_PACK_BYTES",
            Event::CommBytes => "PS_COMM_BYTES",
            Event::TasksSpawned => "PS_TASKS",
            Event::TasksMigrated => "PS_TASKS_MIG",
            Event::KernelCalls => "PS_KERNELS",
            Event::RecursionLevels => "PS_REC_LEVELS",
            Event::StealsInGroup => "PS_STEALS_GRP",
            Event::StealsCrossGroup => "PS_STEALS_XGRP",
            Event::JobCancelled => "PS_JOBS_CANCELLED",
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_events_listed() {
        // Indices are dense, unique and within EVENT_COUNT.
        let mut seen = [false; EVENT_COUNT];
        for e in ALL_EVENTS {
            assert!(!seen[e.index()], "duplicate index {}", e.index());
            seen[e.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mnemonics_unique() {
        for (i, a) in ALL_EVENTS.iter().enumerate() {
            for b in &ALL_EVENTS[i + 1..] {
                assert_ne!(a.mnemonic(), b.mnemonic());
            }
        }
    }

    #[test]
    fn display_is_mnemonic() {
        assert_eq!(Event::FpOps.to_string(), "PS_FP_OPS");
    }

    #[test]
    fn serde_round_trip() {
        for e in ALL_EVENTS {
            let s = serde_json::to_string(&e).unwrap();
            let back: Event = serde_json::from_str(&s).unwrap();
            assert_eq!(e, back);
        }
    }
}
