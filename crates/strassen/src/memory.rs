//! Memory-footprint accounting for the recursive algorithms.
//!
//! The paper's execution configuration (§VI-A) is bounded by exactly this:
//! "both Strassen-derived approaches require additional intermediate
//! result buffers that prevent us from running problems larger than
//! 4096x4096" on the testbed's 4 GB DIMM. These functions compute those
//! footprints, letting the harness *derive* the paper's size ceiling
//! instead of just asserting it.
//!
//! The model is the BOTS textbook footprint, the one §VI-A's 4096 ceiling
//! is derived from:
//!
//! * every internal recursion node holds seven `h × h` product buffers
//!   (`Q1..Q7` / `P1..P7`);
//! * classic products each hold up to two `h × h` operand temporaries;
//!   Winograd holds eight shared `S/T` buffers per node plus three `U`
//!   combine temporaries;
//! * buffers are allocated when a task *executes* (untied-task
//!   semantics), so a parallel run keeps at most one root-to-leaf path of
//!   buffers live per worker; a sequential run keeps exactly one.
//!
//! It is an **upper bound** on what the walker behind [`crate::multiply`]
//! actually leases from its per-thread recycling arenas
//! ([`powerscale_gemm::arena`]): one half-size scratch per sequential
//! Classic node, three per spawned Classic node, and at most two resolved
//! operand temporaries per non-leaf child (a leaf child's operand sums are
//! fused into its packing and never materialised). Winograd leases three
//! per sequential node and seven per spawned one, plus one merge temporary
//! per accumulating non-leaf child. The figures below keep the textbook
//! model; they have not been reconciled with a measured peak.

use crate::config::{StrassenConfig, Variant};
use crate::cost::is_leaf;

/// Bytes of the three user-visible operands (A, B, C) at dimension `n`.
pub(crate) fn operand_bytes(n: usize) -> u64 {
    3 * 8 * (n as u64) * (n as u64)
}

/// Temporary bytes allocated by one recursion node at size `n` (its own
/// buffers, excluding children): the seven products plus operand temps.
fn node_temp_bytes(n: usize, variant: Variant) -> u64 {
    let h = (n / 2) as u64;
    let hh = 8 * h * h;
    match variant {
        // 7 product buffers + 10 operand temporaries across the products.
        Variant::Classic => 7 * hh + 10 * hh,
        // 7 products + 8 shared S/T + 3 U combine temporaries.
        Variant::Winograd => 7 * hh + 8 * hh + 3 * hh,
    }
}

/// Peak temporary bytes for a **sequential** (DFS-style) execution: one
/// node's buffers per level along a single recursion path.
pub(crate) fn sequential_peak_bytes(n: usize, cfg: &StrassenConfig) -> u64 {
    if is_leaf(n, cfg.cutoff) {
        return 0;
    }
    node_temp_bytes(n, cfg.variant) + sequential_peak_bytes(n / 2, cfg)
}

/// Peak temporary bytes for a **parallel** execution on `workers`
/// threads. Untied tasks allocate their buffers when they *execute*, so at
/// any instant at most `workers` root-to-leaf paths are live; each path
/// carries one [`sequential_peak_bytes`] worth of node buffers. (Paths
/// share ancestors, so this slightly over-counts — a safe upper bound,
/// and the "additional buffer memory" BFS costs over DFS.)
pub(crate) fn parallel_peak_bytes(n: usize, cfg: &StrassenConfig, workers: usize) -> u64 {
    workers.max(1) as u64 * sequential_peak_bytes(n, cfg)
}

/// Total resident bytes (operands + temporaries) for a parallel run on
/// `workers` threads.
pub fn total_required_bytes(n: usize, cfg: &StrassenConfig, workers: usize) -> u64 {
    operand_bytes(n) + parallel_peak_bytes(n, cfg, workers)
}

/// The largest power-of-two problem dimension whose parallel footprint
/// fits in `memory_bytes` — the paper's size ceiling, derived.
pub fn max_dimension_within(memory_bytes: u64, cfg: &StrassenConfig, workers: usize) -> usize {
    let mut n = cfg.cutoff.next_power_of_two().max(2);
    let mut best = 0;
    while total_required_bytes(n, cfg, workers) <= memory_bytes {
        best = n;
        match n.checked_mul(2) {
            Some(next) => n = next,
            None => break,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StrassenConfig {
        StrassenConfig::paper()
    }

    #[test]
    fn operand_accounting() {
        assert_eq!(operand_bytes(1024), 3 * 8 * 1024 * 1024);
    }

    #[test]
    fn leaf_needs_no_temporaries() {
        assert_eq!(sequential_peak_bytes(64, &cfg()), 0);
        assert_eq!(parallel_peak_bytes(64, &cfg(), 4), 0);
    }

    #[test]
    fn parallel_needs_more_than_sequential() {
        let c = cfg();
        for n in [256usize, 1024, 4096] {
            assert!(
                parallel_peak_bytes(n, &c, 4) > sequential_peak_bytes(n, &c),
                "n={n}"
            );
            assert_eq!(parallel_peak_bytes(n, &c, 1), sequential_peak_bytes(n, &c));
        }
    }

    #[test]
    fn sequential_peak_geometric() {
        // One classic node at n: 17 buffers of (n/2)²; the path sums a
        // geometric series (ratio 1/4).
        let c = StrassenConfig {
            cutoff: 64,
            ..Default::default()
        };
        let one_level = node_temp_bytes(128, Variant::Classic);
        assert_eq!(sequential_peak_bytes(128, &c), one_level);
        let two_level = node_temp_bytes(256, Variant::Classic) + one_level;
        assert_eq!(sequential_peak_bytes(256, &c), two_level);
    }

    #[test]
    fn winograd_node_is_leaner_than_classic_products() {
        // 18 vs 17 buffers per node — Winograd's shared S/T actually costs
        // one more buffer than classic's per-product temps in our
        // implementation; both are ~4x the operand quadrant.
        let cl = node_temp_bytes(256, Variant::Classic);
        let wi = node_temp_bytes(256, Variant::Winograd);
        assert!((cl as f64 / wi as f64 - 17.0 / 18.0).abs() < 1e-12);
    }

    #[test]
    fn paper_size_ceiling_reproduced() {
        // The paper's testbed: 4 GB DIMM, of which the OS and the driver
        // leave roughly 3.5 GB usable. The parallel Strassen footprint
        // must admit 4096 and reject 8192 — §VI-A's observed ceiling.
        let c = cfg();
        let usable = 3_500_000_000u64;
        let at_4096 = total_required_bytes(4096, &c, 4);
        let at_8192 = total_required_bytes(8192, &c, 4);
        assert!(
            at_4096 <= usable,
            "4096 needs {} GB — paper ran it",
            at_4096 as f64 / 1e9
        );
        assert!(
            at_8192 > usable,
            "8192 needs only {} GB — paper could have run it",
            at_8192 as f64 / 1e9
        );
        assert_eq!(max_dimension_within(usable, &c, 4), 4096);
    }

    #[test]
    fn blocked_gemm_would_have_fit_larger() {
        // The paper: "larger tests are possible using the OpenBLAS
        // approach" — blocked GEMM needs only the operands plus packing
        // buffers (megabytes).
        let blocked_8192 = operand_bytes(8192) + 16 * 1024 * 1024;
        assert!(blocked_8192 < 3_500_000_000);
    }

    #[test]
    fn ceiling_scales_with_memory() {
        let c = cfg();
        let small = max_dimension_within(500_000_000, &c, 4);
        let big = max_dimension_within(64_000_000_000, &c, 4);
        assert!(small < 4096);
        assert!(big >= 16384);
    }
}
