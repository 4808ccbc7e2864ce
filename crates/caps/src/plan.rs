//! Task-graph emission for the simulated machine.
//!
//! The CAPS graph differs from the classic Strassen graph
//! ([`powerscale_strassen::plan`]) in exactly the ways the paper claims
//! matter:
//!
//! * **BFS steps** (depth < cutoff depth) spawn the seven sub-problems like
//!   Strassen does, but placement is deterministic — sub-results stay
//!   group-local, so combine steps pull only about half the operand volume
//!   a steal-scheduled Strassen combine does.
//! * **DFS steps** (deeper levels) are loop work-sharing: every worker
//!   operates on its own row bands of the *same* data, in place. No task
//!   migrates, so those levels contribute **zero** communication — whereas
//!   the Strassen plan's inline subtrees each pay a full operand migration.
//!
//! DFS subtrees are emitted as `dfs_ways` fluid band tasks carrying equal
//! shares of the subtree's work, which is the fluid-model image of OpenMP
//! work-sharing.

use crate::config::CapsConfig;
use powerscale_machine::{KernelClass, TaskCost, TaskGraph, TaskId, TrafficModel};
use powerscale_strassen::cost;
use powerscale_strassen::plan::{CLASSIC_COMBINE, CLASSIC_PRE, CLASSIC_QUADRANT_INPUTS};

/// Emits the CAPS task graph for an `n × n` multiply under `cfg`.
pub fn caps_graph(n: usize, cfg: &CapsConfig) -> TaskGraph {
    caps_graph_with(n, cfg, &TrafficModel::default())
}

/// Like [`caps_graph`] with an explicit LLC traffic model.
pub fn caps_graph_with(n: usize, cfg: &CapsConfig, tm: &TrafficModel) -> TaskGraph {
    let mut g = TaskGraph::new();
    if n == 0 {
        return g;
    }
    emit(&mut g, n, 0, cfg, tm, &[]);
    g
}

fn strassen_cfg(cfg: &CapsConfig) -> powerscale_strassen::StrassenConfig {
    cfg.as_strassen()
}

/// Emits one `n × n` product's subtree; returns its sink tasks.
fn emit(
    g: &mut TaskGraph,
    n: usize,
    depth: u32,
    cfg: &CapsConfig,
    tm: &TrafficModel,
    deps: &[TaskId],
) -> Vec<TaskId> {
    let scfg = strassen_cfg(cfg);
    if cost::is_leaf(n, cfg.cutoff) {
        let d = n as u64;
        let raw = 32 * d * d;
        let eff = tm.effective_bytes(4 * 8 * d * d, raw);
        if depth < cfg.cutoff_depth {
            // Leaf inside a BFS task: the task owns it outright.
            return vec![g.add(
                TaskCost::new(KernelClass::LeafGemm, 2 * d * d * d, eff, 0),
                deps,
            )];
        }
        // DFS leaf: work-shared across all workers, no migration.
        return emit_bands(g, 2 * d * d * d, eff, cfg.dfs_ways, deps);
    }

    if depth >= cfg.cutoff_depth {
        // DFS subtree: fully work-shared fluid execution of everything
        // below — equal shares, zero communication.
        let flops = cost::total_flops(n, &scfg);
        let dram = cost::dram_bytes_effective(n, &scfg, tm);
        return emit_bands(g, flops, dram, cfg.dfs_ways, deps);
    }

    // BFS step. Deterministic placement means operand migration only
    // happens while sub-problems still outnumber the workers: at depth d
    // there are 7^d concurrent sub-problems, so once 7^d >= P the split is
    // core-local and (almost) nothing crosses. This factor is the
    // "communication avoiding" in CAPS; the steal-scheduled Strassen plan
    // pays full migration at every spawned level.
    let placement = (cfg.dfs_ways as f64 / 7f64.powi(depth as i32)).min(1.0);
    let h = (n / 2) as u64;
    let hh = h * h;
    let per_pass = tm.effective_bytes(3 * 8 * hh, 24 * hh);
    let mut product_sinks: Vec<Vec<TaskId>> = Vec::with_capacity(7);
    for &pre in CLASSIC_PRE.iter() {
        // Operands are partitioned to the sub-problem's workers once.
        let comm = (2.0 * 8.0 * hh as f64 * placement) as u64;
        let prepare = g.add(
            TaskCost::new(KernelClass::Elementwise, pre * hh, pre * per_pass, comm),
            deps,
        );
        product_sinks.push(emit(g, n / 2, depth + 1, cfg, tm, &[prepare]));
    }
    let mut combines = Vec::with_capacity(4);
    for (q, &passes) in CLASSIC_COMBINE.iter().enumerate() {
        let inputs = CLASSIC_QUADRANT_INPUTS[q];
        let mut cdeps: Vec<TaskId> = Vec::new();
        for &pi in inputs {
            cdeps.extend_from_slice(&product_sinks[pi]);
        }
        cdeps.sort_unstable();
        cdeps.dedup();
        // Combines pull group-local results: scaled by the same placement
        // factor, halved again because the consuming quadrant lives in one
        // of the producing groups.
        let comm = (inputs.len() as f64 * 8.0 * hh as f64 * placement / 2.0) as u64;
        combines.push(g.add(
            TaskCost::new(
                KernelClass::Elementwise,
                passes * hh,
                passes * per_pass,
                comm,
            ),
            &cdeps,
        ));
    }
    combines
}

/// Emits `ways` equal fluid shares of `(flops, dram)` work (the image of a
/// work-shared loop nest), returning all band tasks.
fn emit_bands(
    g: &mut TaskGraph,
    flops: u64,
    dram: u64,
    ways: usize,
    deps: &[TaskId],
) -> Vec<TaskId> {
    let ways = ways.max(1) as u64;
    let mut ids = Vec::with_capacity(ways as usize);
    for w in 0..ways {
        // Distribute the remainder over the first bands so totals are
        // preserved exactly.
        let f = flops / ways + u64::from(w < flops % ways);
        let b = dram / ways + u64::from(w < dram % ways);
        ids.push(g.add(TaskCost::new(KernelClass::LeafGemm, f, b, 0), deps));
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerscale_machine::{presets, simulate};
    use powerscale_strassen::{strassen_graph_with, StrassenConfig};

    #[test]
    fn flops_conserved() {
        let cfg = CapsConfig::default();
        let scfg = cfg.as_strassen();
        for n in [64, 128, 512, 1024] {
            let g = caps_graph(n, &cfg);
            assert_eq!(g.total_flops(), cost::total_flops(n, &scfg), "n={n}");
        }
    }

    #[test]
    fn dfs_levels_have_no_comm() {
        // cutoff_depth 0: everything DFS → zero communication.
        let cfg = CapsConfig {
            cutoff_depth: 0,
            ..Default::default()
        };
        let g = caps_graph(1024, &cfg);
        assert_eq!(g.total_comm_bytes(), 0);
    }

    #[test]
    fn caps_communicates_less_than_strassen() {
        let m = presets::e3_1225();
        let tm = m.traffic_model();
        let cfg = CapsConfig::default();
        let sg = strassen_graph_with(1024, &StrassenConfig::default(), &tm);
        let cg = caps_graph_with(1024, &cfg, &tm);
        assert!(
            cg.total_comm_bytes() < sg.total_comm_bytes(),
            "caps {} vs strassen {}",
            cg.total_comm_bytes(),
            sg.total_comm_bytes()
        );
    }

    #[test]
    fn caps_faster_than_strassen_on_four_cores() {
        // The Table II relationship: a modest but consistent edge.
        let m = presets::e3_1225();
        let tm = m.traffic_model();
        let strassen_cfg = StrassenConfig::default();
        for n in [1024usize, 2048] {
            let sg = strassen_graph_with(n, &strassen_cfg, &tm);
            let cg = caps_graph_with(n, &CapsConfig::default(), &tm);
            let ts = simulate(&sg, &m, 4).makespan;
            let tc = simulate(&cg, &m, 4).makespan;
            assert!(
                tc < ts * 1.02,
                "n={n}: caps {tc} not competitive with strassen {ts}"
            );
        }
    }

    #[test]
    fn band_tasks_preserve_totals() {
        let mut g = TaskGraph::new();
        let ids = emit_bands(&mut g, 103, 57, 4, &[]);
        assert_eq!(ids.len(), 4);
        assert_eq!(g.total_flops(), 103);
        assert_eq!(g.total_dram_bytes(), 57);
    }

    #[test]
    fn dfs_band_count_matches_ways() {
        let cfg = CapsConfig {
            cutoff: 64,
            cutoff_depth: 0,
            dfs_ways: 3,
            ..Default::default()
        };
        let g = caps_graph(512, &cfg);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn empty_graph_for_zero() {
        assert!(caps_graph(0, &CapsConfig::default()).is_empty());
    }
}
