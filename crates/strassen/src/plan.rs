//! Task-graph emission for the simulated machine.
//!
//! The emitted graph mirrors the real executor's task structure: at every
//! spawned level, seven *prepare* tasks (the product's operand additions,
//! which also carry the **communication cost** of migrating the quadrant
//! operands to whichever core runs the product), the seven sub-product
//! subtrees, and four per-quadrant *combine* tasks. Below the task-spawn
//! depth the whole subtree is emitted as the schedule runs it inline.
//!
//! Like the executor, the emitter walks one recursion under a
//! [`Schedule`], which prices the leaves, the inline subtrees and the
//! migration volumes. Under `Untied` (classic Strassen, [`strassen_graph_with`])
//! scheduling is placement-oblivious: every spawned product pays a full
//! migration and an inline subtree is one sequential task.

use crate::config::{StrassenConfig, Variant};
use crate::cost;
use crate::schedule::{Schedule, Untied};
use powerscale_machine::{KernelClass, TaskCost, TaskGraph, TaskId, TrafficModel};

/// Operand-formation counts per product for the classic variant (the
/// executor fuses these into the leaf packing, but the work is still one
/// pass per operand sum).
pub const CLASSIC_PRE: [u64; 7] = [2, 1, 1, 1, 1, 2, 2];
/// In-place combine passes per C quadrant for the classic variant:
/// four products land via `Accum::Set` (no pass), the remaining eight
/// accumulations split as C11 += P1,P4,−P5; C12 += P5; C21 += P4;
/// C22 += P1,−C21,+C12.
pub const CLASSIC_COMBINE: [u64; 4] = [3, 1, 1, 3];
/// Products feeding each C quadrant for the classic variant (indices into
/// the seven products): C11 = Q1+Q4−Q5+Q7; C12 = Q3+Q5; C21 = Q2+Q4;
/// C22 = Q1−Q2+Q3+Q6.
pub const CLASSIC_QUADRANT_INPUTS: [&[usize]; 4] = [&[0, 3, 4, 6], &[2, 4], &[1, 3], &[0, 1, 2, 5]];
/// Winograd: 8 shared S/T operand passes charged to the first prepare
/// task, then the per-product extras are zero (products read the shared
/// S/T values, half of them fused straight into the leaf packing).
const WINOGRAD_PRE: [u64; 7] = [8, 0, 0, 0, 0, 0, 0];
/// Winograd in-place combine passes per quadrant (7 total: the U1 chain
/// pass is charged to C21, whose U2 consumes it).
const WINOGRAD_COMBINE: [u64; 4] = [1, 2, 3, 1];

/// Emits the Strassen task graph for an `n × n` multiply under `cfg`, with
/// an explicit LLC traffic model (usually `machine.traffic_model()`).
///
/// Returns the graph; its sink tasks are the final combine passes.
pub fn strassen_graph_with(n: usize, cfg: &StrassenConfig, tm: &TrafficModel) -> TaskGraph {
    graph(n, cfg, &Untied, tm)
}

/// The task graph of an `n × n` multiply under `cfg`, scheduled by
/// `sched`, with an explicit LLC traffic model.
pub fn graph<S: Schedule>(
    n: usize,
    cfg: &StrassenConfig,
    sched: &S,
    tm: &TrafficModel,
) -> TaskGraph {
    let mut g = TaskGraph::new();
    if n == 0 {
        return g;
    }
    emit(&mut g, n, 0, cfg, sched, tm, &[]);
    g
}

/// Emits the subtree for one `n × n` product; returns the tasks whose
/// completion makes the product's result available.
fn emit<S: Schedule>(
    g: &mut TaskGraph,
    n: usize,
    depth: u32,
    cfg: &StrassenConfig,
    sched: &S,
    tm: &TrafficModel,
    deps: &[TaskId],
) -> Vec<TaskId> {
    let inline = depth >= cfg.task_depth;
    if cost::is_leaf(n, cfg.cutoff) {
        let d = n as u64;
        let leaf = TaskCost::new(
            KernelClass::LeafGemm,
            2 * d * d * d,
            tm.effective_bytes(4 * 8 * d * d, 32 * d * d),
            0,
        );
        return sched.plan_leaf(g, leaf, inline, deps);
    }
    if inline {
        let flops = cost::total_flops(n, cfg);
        let dram = cost::dram_bytes_effective(n, cfg, tm);
        return sched.plan_inline(g, n, flops, dram, deps);
    }

    let h = (n / 2) as u64;
    let hh = h * h;
    let (pre_counts, combine_counts): (&[u64; 7], &[u64; 4]) = match cfg.variant {
        Variant::Classic => (&CLASSIC_PRE, &CLASSIC_COMBINE),
        Variant::Winograd => (&WINOGRAD_PRE, &WINOGRAD_COMBINE),
    };

    let per_pass = tm.effective_bytes(3 * 8 * hh, 24 * hh);
    let mut product_sinks: Vec<Vec<TaskId>> = Vec::with_capacity(7);
    for &pre in pre_counts.iter() {
        // Prepare task: the product's operand adds plus the migration of
        // its two half-size operands, as the schedule prices it.
        let prepare = g.add(
            TaskCost::new(
                KernelClass::Elementwise,
                pre * hh,
                pre * per_pass,
                sched.prepare_comm(depth, hh),
            ),
            deps,
        );
        let sinks = emit(g, n / 2, depth + 1, cfg, sched, tm, &[prepare]);
        product_sinks.push(sinks);
    }

    // Which products feed which C quadrant (indices into product_sinks).
    let quadrant_inputs: [&[usize]; 4] = match cfg.variant {
        Variant::Classic => CLASSIC_QUADRANT_INPUTS,
        // C11 = P1+P2; C12 = U3+P3; C21 = U2-P4; C22 = U3+P7 where the U
        // chain consumes P1, P5, P6, P7.
        Variant::Winograd => [&[0, 1], &[0, 2, 4, 5], &[0, 3, 5, 6], &[0, 4, 5, 6]],
    };

    let mut combines = Vec::with_capacity(4);
    for (q, &passes) in combine_counts.iter().enumerate() {
        let mut cdeps: Vec<TaskId> = Vec::new();
        for &pi in quadrant_inputs[q] {
            cdeps.extend_from_slice(&product_sinks[pi]);
        }
        cdeps.sort_unstable();
        cdeps.dedup();
        let combine = g.add(
            TaskCost::new(
                KernelClass::Elementwise,
                passes * hh,
                passes * per_pass,
                sched.combine_comm(depth, quadrant_inputs[q].len(), hh),
            ),
            &cdeps,
        );
        combines.push(combine);
    }
    combines
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerscale_machine::{presets, simulate};

    /// Emits the Strassen task graph for an `n × n` multiply under `cfg`.
    ///
    /// Returns the graph; its sink tasks are the final combine passes.
    fn strassen_graph(n: usize, cfg: &StrassenConfig) -> TaskGraph {
        strassen_graph_with(n, cfg, &TrafficModel::default())
    }

    fn cfg(cutoff: usize, task_depth: u32) -> StrassenConfig {
        StrassenConfig {
            cutoff,
            task_depth,
            ..Default::default()
        }
    }

    #[test]
    fn leaf_only_graph() {
        let g = strassen_graph(64, &cfg(64, 3));
        assert_eq!(g.len(), 1);
        assert_eq!(g.total_flops(), 2 * 64 * 64 * 64);
    }

    #[test]
    fn one_spawned_level_task_count() {
        // 128 with cutoff 64, depth >= 1: 7 prepares + 7 leaves + 4
        // combines.
        let g = strassen_graph(128, &cfg(64, 3));
        assert_eq!(g.len(), 18);
    }

    #[test]
    fn flops_match_cost_model() {
        for (n, cutoff, td) in [(128, 64, 3), (256, 64, 2), (512, 64, 3), (256, 32, 1)] {
            let c = cfg(cutoff, td);
            let g = strassen_graph(n, &c);
            assert_eq!(
                g.total_flops(),
                cost::total_flops(n, &c),
                "n={n} cutoff={cutoff} td={td}"
            );
        }
    }

    #[test]
    fn winograd_flops_match_too() {
        let c = cfg(64, 2).winograd();
        let g = strassen_graph(512, &c);
        assert_eq!(g.total_flops(), cost::total_flops(512, &c));
    }

    #[test]
    fn aggregation_below_task_depth() {
        // task_depth 0: whole thing is a single inline task.
        let g = strassen_graph(512, &cfg(64, 0));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn strassen_scales_but_less_than_blocked() {
        let m = presets::e3_1225();
        let c = cfg(64, 3);
        let g = strassen_graph(1024, &c);
        let t1 = simulate(&g, &m, 1).makespan;
        let t4 = simulate(&g, &m, 4).makespan;
        let speedup = t1 / t4;
        assert!(speedup > 2.0, "4-core Strassen speedup {speedup}");
        assert!(speedup < 4.0);
    }

    #[test]
    fn strassen_power_flatter_than_blocked() {
        // The Figure 4 vs Figure 5 mechanism: Strassen's package power
        // rises much less steeply with the thread count.
        let m = presets::e3_1225();
        let sg = strassen_graph(1024, &cfg(64, 3));
        // Blocked on the simulated machine's own caches and 8×6 tile (as
        // `Harness::new` derives it), not the host's autotuned blocking:
        // the band count is what sets the blocked power slope.
        let bg = powerscale_gemm::plan::blocked_gemm_graph(
            1024,
            &powerscale_gemm::BlockingParams::for_caches_and_tile(&m.caches, 8, 6),
        );
        let power = |g: &TaskGraph, p: usize| {
            let s = simulate(g, &m, p);
            s.energy.pkg_avg_watts(s.makespan)
        };
        let strassen_slope = power(&sg, 4) - power(&sg, 1);
        let blocked_slope = power(&bg, 4) - power(&bg, 1);
        assert!(
            strassen_slope < blocked_slope * 0.6,
            "strassen slope {strassen_slope} vs blocked {blocked_slope}"
        );
    }

    #[test]
    fn comm_bytes_nonzero_at_spawned_levels() {
        let g = strassen_graph(512, &cfg(64, 2));
        assert!(g.total_comm_bytes() > 0);
        // Deeper spawning communicates more (more migrated products).
        let g3 = strassen_graph(512, &cfg(64, 3));
        assert!(g3.total_comm_bytes() > g.total_comm_bytes());
    }
}
