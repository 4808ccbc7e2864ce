//! Task-graph emission for the simulated machine.
//!
//! [`blocked_gemm_graph`] mirrors the *structure* of [`crate::dgemm`] —
//! same loop nest, same panel shapes, same parallelisable row bands — but
//! instead of computing it emits a [`TaskGraph`] whose costs follow the
//! Goto traffic model:
//!
//! * a **pack-B** task per `(jc, pc)` panel reads the panel from DRAM once;
//! * each **row-band macro task** reads its A block (packed on the fly) and
//!   its C band (read + written once per `pc` phase), all at DRAM, while
//!   the packed B panel stays LLC-resident.
//!
//! The simulator then reproduces the blocked kernel's signature behaviour:
//! compute-bound at low thread counts, bandwidth-pressured as the row bands
//! fan out — which is exactly the power/performance profile the paper
//! measures for OpenBLAS.

use crate::blocking::BlockingParams;
use powerscale_machine::{KernelClass, TaskCost, TaskGraph, TaskId, TrafficModel};

/// Flops of a dense `m × n × k` multiply-accumulate.
pub(crate) fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

/// Emits the blocked-DGEMM task graph for `C = A·B` with square operands of
/// dimension `n`, blocked by `params`.
pub fn blocked_gemm_graph(n: usize, params: &BlockingParams) -> TaskGraph {
    blocked_gemm_graph_rect(n, n, n, params, &TrafficModel::default())
}

/// Like [`blocked_gemm_graph`] with an explicit LLC traffic model.
pub fn blocked_gemm_graph_with(n: usize, params: &BlockingParams, tm: &TrafficModel) -> TaskGraph {
    blocked_gemm_graph_rect(n, n, n, params, tm)
}

/// Emits the blocked-DGEMM task graph for general `m × k × n` shapes.
pub(crate) fn blocked_gemm_graph_rect(
    m: usize,
    k: usize,
    n: usize,
    params: &BlockingParams,
    tm: &TrafficModel,
) -> TaskGraph {
    let mut g = TaskGraph::new();
    if m == 0 || k == 0 || n == 0 {
        return g;
    }
    let BlockingParams { mc, kc, nc, .. } = *params;
    // Tasks of the previous phase: the next pack-B must wait for them (the
    // shared packed-B buffer is reused, and C accumulation is ordered).
    let mut prev_phase: Vec<TaskId> = Vec::new();
    let mut jc = 0;
    while jc < n {
        let ncb = nc.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kcb = kc.min(k - pc);
            // The B panel streams from DRAM once; its packed copy lives
            // in the LLC for the whole phase.
            let pack_b = g.add(
                TaskCost::new(KernelClass::Pack, 0, 8 * (kcb * ncb) as u64, 0),
                &prev_phase,
            );
            prev_phase.clear();
            let mut ic = 0;
            while ic < m {
                let mcb = mc.min(m - ic);
                // A block streams once (packing read); the C band is
                // re-read and re-written each pc phase but often stays
                // LLC-resident between phases — the traffic model decides.
                let a_bytes = 8 * (mcb * kcb) as u64;
                let c_raw = 2 * 8 * (mcb * ncb) as u64;
                let c_bytes = tm.effective_bytes(8 * (mcb * ncb) as u64, c_raw);
                let cost = TaskCost::new(
                    KernelClass::PackedGemm,
                    gemm_flops(mcb, kcb, ncb),
                    a_bytes + c_bytes,
                    0,
                );
                prev_phase.push(g.add(cost, &[pack_b]));
                ic += mcb;
            }
            pc += kcb;
        }
        jc += ncb;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerscale_machine::{presets, simulate};

    #[test]
    fn graph_flops_match_analytic() {
        let p = BlockingParams::default();
        for n in [64, 512, 1000] {
            let g = blocked_gemm_graph(n, &p);
            assert_eq!(g.total_flops(), gemm_flops(n, n, n), "n={n}");
        }
    }

    #[test]
    fn empty_shapes_empty_graph() {
        let p = BlockingParams::default();
        assert!(blocked_gemm_graph_rect(0, 5, 5, &p, &TrafficModel::default()).is_empty());
    }

    /// Blocking derived for the same Haswell hierarchy *and register
    /// tile* (8×6 AVX2) the simulated machine models, as `Harness::new`
    /// does — the host's caches or dispatched tile would mispair the task
    /// shapes with the simulated machine (a 6×32 host tile cuts n = 1024
    /// into three tall bands and a sliver, which no four cores share).
    fn haswell_params() -> BlockingParams {
        BlockingParams::for_caches_and_tile(&powerscale_cachesim::presets::e3_1225_caches(), 8, 6)
    }

    #[test]
    fn simulated_time_tracks_peak_rate() {
        let m = presets::e3_1225();
        let p = haswell_params();
        let n = 512;
        let g = blocked_gemm_graph(n, &p);
        let s1 = simulate(&g, &m, 1);
        // One-thread time should be within 25% of flops / achieved-rate.
        let ideal = gemm_flops(n, n, n) as f64
            / m.compute
                .achieved_flops(powerscale_machine::KernelClass::PackedGemm);
        assert!(
            (s1.makespan / ideal) < 1.25 && (s1.makespan / ideal) > 1.0,
            "makespan {} vs ideal {ideal}",
            s1.makespan
        );
    }

    #[test]
    fn speedup_grows_with_cores() {
        let m = presets::e3_1225();
        let p = haswell_params();
        let g = blocked_gemm_graph(1024, &p);
        let t1 = simulate(&g, &m, 1).makespan;
        let t2 = simulate(&g, &m, 2).makespan;
        let t4 = simulate(&g, &m, 4).makespan;
        assert!(t1 / t2 > 1.6, "2-core speedup {}", t1 / t2);
        assert!(t1 / t4 > 2.7, "4-core speedup {}", t1 / t4);
        assert!(t2 > t4);
    }

    #[test]
    fn power_rises_with_threads() {
        // The Figure-4 mechanism: package watts climb steeply with the
        // thread count for the blocked kernel.
        let m = presets::e3_1225();
        let p = haswell_params();
        let g = blocked_gemm_graph(1024, &p);
        let mut last = 0.0;
        for cores in 1..=4 {
            let s = simulate(&g, &m, cores);
            let w = s.energy.pkg_avg_watts(s.makespan);
            assert!(w > last, "power must rise with threads: {w} at {cores}");
            last = w;
        }
        assert!(last > 35.0, "4-thread packed power {last} too low");
    }
}
