//! Analytic work recurrences for the Strassen recursion.
//!
//! These closed recurrences are used three ways: by [`crate::plan`] to cost
//! aggregated (inline-executed) subtrees, by tests to cross-check the
//! counters recorded during real execution, and by the harness to report
//! the operation-count advantage the paper attributes to Strassen.
//!
//! Counts follow the *implementation*, which since the fused-leaf rewrite
//! hits the textbook minimum for Strassen's Equation 7: one pass per
//! operand sum and per combine step of [`crate::arith`]'s table, 10 + 8 =
//! 18 quadrant passes per level. Operand sums are packed directly into the
//! leaf GEMM's buffers and products accumulate into the quadrants they
//! feed, so no accumulate-form splitting inflates the counts
//! ([`StrassenConfig::adds_per_level`] reads the same count).
//!
//! The dense cutover itself has two values. [`PAPER_CUTOFF`] is the
//! paper's 64, which every simulated artifact and paper claim keeps;
//! [`executed_cutoff`] is the rule the executed recursion runs by default.

use crate::arith::node_passes;
use crate::config::StrassenConfig;
use powerscale_gemm::{BlockingParams, KernelInfo};

/// The paper's dense cutover (§IV-B): the optimum for the unpacked BOTS
/// leaf on its Haswell testbed.
pub const PAPER_CUTOFF: usize = 64;

/// The dense cutover the executed recursion uses under `kernel`:
/// `cutoff_for_panel_rows` of the row-panel height `mc` the autotuner
/// derives for that kernel.
///
/// One Strassen step at size `n` saves `n³/4` flops at the leaf rate `y`
/// and costs 8 combine passes (24 bytes per element) plus 10 fused operand
/// sums (8 more bytes per element) at the add rate `z`, so it pays only
/// when `n > 272·y/z` (DESIGN §8). The packed leaf reaches the blocked
/// path's rate once it covers a full `mc` band, which is what puts `y`
/// there, so the recursion stops at the first power of two at or above
/// `mc`.
///
/// The rule reads only what the autotuner already fixes per process (the
/// kernel's tile and the probed caches) and never a timing or the
/// environment, so two processes on one host always pick the same leaf
/// and produce the same bits.
pub fn executed_cutoff(kernel: &KernelInfo) -> usize {
    cutoff_for_panel_rows(BlockingParams::autotuned_for(kernel).mc)
}

/// `max(64, next_power_of_two(mc))`: the cutover for a row-panel height.
pub(crate) fn cutoff_for_panel_rows(mc: usize) -> usize {
    mc.next_power_of_two().max(PAPER_CUTOFF)
}

/// `true` when the recursion bottoms out at dimension `n`: at or below the
/// cutover size, or at an odd size that cannot split into quadrants. The
/// one leaf predicate of every Strassen-family executor and plan.
#[inline]
pub fn is_leaf(n: usize, cutoff: usize) -> bool {
    n <= cutoff || !n.is_multiple_of(2)
}

/// Dimension at which the recursion starting from `n` hits the leaf solver.
pub(crate) fn leaf_dim(mut n: usize, cutoff: usize) -> usize {
    while !is_leaf(n, cutoff) {
        n /= 2;
    }
    n
}

/// Number of recursion levels from `n` down to the leaf.
pub fn levels(mut n: usize, cutoff: usize) -> u32 {
    let mut l = 0;
    while !is_leaf(n, cutoff) {
        n /= 2;
        l += 1;
    }
    l
}

/// Number of leaf multiplications: `7^levels`.
pub(crate) fn mult_leaves(n: usize, cutoff: usize) -> u64 {
    7u64.pow(levels(n, cutoff))
}

/// Total multiply flops (leaf GEMM work): `7^L · 2·d³` with `d` the leaf
/// dimension.
pub(crate) fn mult_flops(n: usize, cutoff: usize) -> u64 {
    let d = leaf_dim(n, cutoff) as u64;
    mult_leaves(n, cutoff) * 2 * d * d * d
}

/// Total quadrant-add flops of the whole recursion.
pub(crate) fn add_flops(n: usize, cfg: &StrassenConfig) -> u64 {
    if is_leaf(n, cfg.cutoff) {
        return 0;
    }
    let h = (n / 2) as u64;
    node_passes() * h * h + 7 * add_flops(n / 2, cfg)
}

/// Total flops (multiplies + adds).
pub fn total_flops(n: usize, cfg: &StrassenConfig) -> u64 {
    mult_flops(n, cfg.cutoff) + add_flops(n, cfg)
}

/// Total DRAM traffic of the recursion in bytes, discounted by LLC
/// residency. Each add pass streams three `h × h` operands (two reads +
/// one write) and each leaf multiply touches `4·d²` elements (A, B, C
/// read + C write); passes whose working set fits the shared cache mostly
/// hit it (their operands were just produced there). This is the traffic
/// figure the task-graph plan uses.
pub fn dram_bytes_effective(
    n: usize,
    cfg: &StrassenConfig,
    tm: &powerscale_machine::TrafficModel,
) -> u64 {
    if is_leaf(n, cfg.cutoff) {
        let d = n as u64;
        return tm.effective_bytes(4 * 8 * d * d, 32 * d * d);
    }
    let h = (n / 2) as u64;
    let per_pass = tm.effective_bytes(3 * 8 * h * h, 24 * h * h);
    node_passes() * per_pass + 7 * dram_bytes_effective(n / 2, cfg, tm)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic-multiply flop count `2n³` for comparison.
    fn dense_flops(n: usize) -> u64 {
        2 * (n as u64).pow(3)
    }

    /// Flop-count ratio Strassen/dense: below 1 once `n` is a few doublings
    /// above the cutoff (the source of Strassen's asymptotic advantage).
    fn flop_ratio(n: usize, cfg: &StrassenConfig) -> f64 {
        total_flops(n, cfg) as f64 / dense_flops(n) as f64
    }

    fn cfg(cutoff: usize) -> StrassenConfig {
        StrassenConfig {
            cutoff,
            ..Default::default()
        }
    }

    #[test]
    fn level_and_leaf_arithmetic() {
        assert_eq!(levels(512, 64), 3);
        assert_eq!(leaf_dim(512, 64), 64);
        assert_eq!(mult_leaves(512, 64), 343);
        assert_eq!(levels(64, 64), 0);
        assert_eq!(mult_leaves(64, 64), 1);
        // Odd dimensions stop recursion.
        assert_eq!(levels(100, 16), 2); // 100 → 50 → 25 (odd leaf)
        assert_eq!(leaf_dim(100, 16), 25);
    }

    #[test]
    fn mult_flops_one_level() {
        // 128 with cutoff 64: 7 leaves of 64³.
        assert_eq!(mult_flops(128, 64), 7 * 2 * 64 * 64 * 64);
    }

    #[test]
    fn add_flops_one_level_classic() {
        let c = cfg(64);
        // One level at 128: 18 passes of 64².
        assert_eq!(add_flops(128, &c), 18 * 64 * 64);
    }

    #[test]
    fn add_flops_recurrence() {
        let c = cfg(16);
        let expect = 18 * 32u64.pow(2) + 7 * 18 * 16u64.pow(2);
        assert_eq!(add_flops(64, &c), expect);
    }

    #[test]
    fn strassen_saves_flops_at_scale() {
        let c = cfg(64);
        // At n = cutoff·2: 7/8 of the mult flops plus add overhead.
        assert!(flop_ratio(128, &c) < 1.0);
        // The advantage grows with n.
        assert!(flop_ratio(4096, &c) < flop_ratio(512, &c));
        assert!(flop_ratio(4096, &c) < 0.7);
    }

    #[test]
    fn deeper_recursion_saves_flops() {
        // One more level at n = 1024 trades 1/8 of the 64³ leaves' flops
        // for 18 passes of 32² per node: fewer flops in total.
        assert!(total_flops(1024, &cfg(32)) < total_flops(1024, &cfg(64)));
    }

    #[test]
    fn executed_cutoff_on_known_hierarchies() {
        use powerscale_gemm::autotune::hierarchy;
        // The 48K/2M/260M host: mc = 480 / 210 / 128 for the 6×32 AVX-512,
        // 6×8 AVX2 and 4×4 scalar tiles.
        let host = hierarchy(&[48 << 10, 2 << 20, 260 << 20]);
        for ((mr, nr), want) in [((6, 32), 512), ((6, 8), 256), ((4, 4), 128)] {
            let p = BlockingParams::host_tuned_for_caches_and_tile(&host, mr, nr);
            assert_eq!(cutoff_for_panel_rows(p.mc), want, "tile {mr}x{nr}");
        }
        // A tiny hierarchy never goes below the paper.
        let tiny = hierarchy(&[1 << 10, 2 << 10, 4 << 10]);
        for (mr, nr) in [(6, 32), (6, 8), (4, 4), (6, 64)] {
            let p = BlockingParams::host_tuned_for_caches_and_tile(&tiny, mr, nr);
            assert_eq!(cutoff_for_panel_rows(p.mc), PAPER_CUTOFF, "tile {mr}x{nr}");
        }
        // Every dispatchable kernel gets a power of two at or above 64.
        for kernel in powerscale_gemm::available_kernels() {
            let c = executed_cutoff(kernel);
            assert!(
                c >= PAPER_CUTOFF && c.is_power_of_two(),
                "{}: {c}",
                kernel.name
            );
        }
    }
}
