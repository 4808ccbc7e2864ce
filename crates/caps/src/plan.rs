//! Task-graph emission for the simulated machine.
//!
//! The CAPS graph is the classic Strassen graph
//! ([`powerscale_strassen::plan::graph`]) emitted under the BFS/DFS
//! schedule, which prices it differently in exactly the ways the paper
//! claims matter:
//!
//! * **BFS steps** (depth < cutoff depth) spawn the seven sub-problems like
//!   Strassen does, but placement is deterministic — operands migrate only
//!   while sub-problems outnumber the workers, and combine steps pull about
//!   half the operand volume a steal-scheduled Strassen combine does.
//! * **DFS steps** (deeper levels) are loop work-sharing: one fluid band
//!   task per core carrying an equal share of the subtree's work. No
//!   task migrates, so those levels contribute **zero** communication —
//!   whereas the Strassen plan's inline subtrees each pay a full operand
//!   migration.

use crate::config::CapsConfig;
use crate::schedule::BfsDfsPricing;
use powerscale_machine::{TaskGraph, TrafficModel};

/// Emits the CAPS task graph for an `n × n` multiply under `cfg` on a
/// machine with `cores` cores (the width of every DFS step), with an
/// explicit LLC traffic model.
pub fn caps_graph_with(n: usize, cfg: &CapsConfig, cores: usize, tm: &TrafficModel) -> TaskGraph {
    let pricing = BfsDfsPricing { cores };
    powerscale_strassen::plan::graph(n, &cfg.as_strassen(), &pricing, tm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerscale_machine::{presets, simulate};
    use powerscale_strassen::{cost, strassen_graph_with, StrassenConfig};

    /// Emits the CAPS task graph for an `n × n` multiply under `cfg` on
    /// the paper's four cores.
    fn caps_graph(n: usize, cfg: &CapsConfig) -> TaskGraph {
        caps_graph_with(n, cfg, 4, &TrafficModel::default())
    }

    #[test]
    fn flops_conserved() {
        let cfg = CapsConfig::paper();
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
            ..CapsConfig::paper()
        };
        let g = caps_graph(1024, &cfg);
        assert_eq!(g.total_comm_bytes(), 0);
    }

    #[test]
    fn caps_communicates_less_than_strassen() {
        let m = presets::e3_1225();
        let tm = m.traffic_model();
        let cfg = CapsConfig::paper();
        let sg = strassen_graph_with(1024, &StrassenConfig::paper(), &tm);
        let cg = caps_graph_with(1024, &cfg, m.cores, &tm);
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
        let strassen_cfg = StrassenConfig::paper();
        for n in [1024usize, 2048] {
            let sg = strassen_graph_with(n, &strassen_cfg, &tm);
            let cg = caps_graph_with(n, &CapsConfig::paper(), m.cores, &tm);
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
        // An all-DFS multiply is one work-shared subtree: its bands carry
        // exactly the recursion's flops and effective DRAM bytes.
        let cfg = CapsConfig {
            cutoff_depth: 0,
            ..CapsConfig::paper()
        };
        let (scfg, tm) = (cfg.as_strassen(), TrafficModel::default());
        for cores in [2, 4] {
            let g = caps_graph_with(1000, &cfg, cores, &tm);
            assert_eq!(g.len(), cores);
            assert_eq!(g.total_flops(), cost::total_flops(1000, &scfg));
            assert_eq!(
                g.total_dram_bytes(),
                cost::dram_bytes_effective(1000, &scfg, &tm)
            );
        }
    }

    #[test]
    fn dfs_band_count_matches_ways() {
        let cfg = CapsConfig {
            cutoff: 64,
            cutoff_depth: 0,
            ..Default::default()
        };
        let g = caps_graph_with(512, &cfg, 3, &TrafficModel::default());
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn empty_graph_for_zero() {
        assert!(caps_graph(0, &CapsConfig::default()).is_empty());
    }
}
