//! Eq. 8 verification and strong scaling from **measured** transport
//! traffic.
//!
//! [`crate::study`] prices *declared* plan volumes through the fluid
//! simulator; this module runs the real distributed executor
//! ([`crate::dist`]) and reads every byte off the transport's own
//! counters. The two questions it answers:
//!
//! * **Eq. 8**: is the largest per-rank communication volume the executor
//!   actually moves within a small constant (the study gates at ≤ 4×, with
//!   a derived ≤ 5× allowance for multi-level cells — see
//!   [`Eq8Cell::gate`]) of the paper's Equation 8 bound
//!   `max(n^ω₀/(P·M^(ω₀/2−1)), n²/P^(2/ω₀))` at every swept `(n, P, M)` —
//!   while SUMMA's measured volume exceeds the bound's bandwidth term?
//! * **Strong scaling** (arXiv 1202.3177): with per-node memory fixed,
//!   does efficiency `e(P) = T(1)/(P·T(P))` stay flat up to the predicted
//!   limit `P̂ = (n²/M)^(ω₀/2)` and degrade beyond it?
//!
//! `M` in the bound is the swept per-node budget when one is set (the
//! memory the schedule was planned for), else the transport-metered
//! high-water mark the free run achieved. "Per-node traffic" is the
//! largest per-rank *received* volume: every transported word counted
//! exactly once, at the node it burdens.
//!
//! **Gate constants.** Under the fractal frame-cyclic layout
//! ([`crate::dist::Layout`]) DFS steps move zero bytes, so every measured
//! word comes from BFS redistribution and frame-leaf exchanges. One BFS
//! distribution level has a sharp information floor: a rank hosting a
//! single-rank child must receive the `(m/2)²` operands `T_i`, `S_i` it
//! does not own and its slice of the six products it did not compute —
//! `(18/7)·(m/2)²` words, which is `≈ 2.6×` the bandwidth term
//! `n²/P^(2/ω₀)` at `P = 7`. Cells whose schedule has a *single*
//! distribution level therefore gate at **4×**: free sweeps at `P ≤ 7`
//! (measured `2.2–2.9×`), budget-forced DFS at `P = 2 < P̂` (`2.8×`), and
//! fully-forced descents at `P = 7` whose only traffic is rotated
//! frame-leaf exchanges (`3.6×`). Cells that stack **two or more**
//! distribution levels inside the bound's single `P^(2/ω₀)` factor carry
//! a floor of `(7/4)·(18/7) ≈ 4.5` (knee cells, `P = P̂`, one forced DFS
//! over a single-rank-child BFS) or `≈ 4.2–4.8` (two-level BFS descents,
//! `P = 49`, where the second level's full-operand transfer does not
//! shrink with `P`); those gate at **5×**, derived, not tuned. The old
//! uniform 8× gate predates the fractal layout, whose forced-DFS
//! re-shuffle traffic it had to absorb.

use crate::dist::{dist_caps_multiply, summa_multiply, DistCapsConfig, DistError};
use crate::presets::e3_1225_net;
use powerscale_caps::comm::{caps_comm_words, OMEGA0};
use powerscale_machine::net::Phase;
use powerscale_matrix::{Matrix, MatrixGen};

/// Deterministic operands for every measured run: the study is a fixed
/// experiment, not a property sweep, so one seed is part of its identity.
const STUDY_SEED: u64 = 0xE8;

fn operands(n: usize) -> (Matrix, Matrix) {
    let mut gen = MatrixGen::new(STUDY_SEED);
    (gen.paper_operand(n), gen.paper_operand(n))
}

/// One measured cell of the Eq. 8 verification sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Eq8Cell {
    /// Problem dimension.
    pub n: usize,
    /// Node count `P`.
    pub nodes: usize,
    /// The per-node memory budget the run was swept at (`None` = free).
    pub mem_limit_words: Option<u64>,
    /// Largest per-rank algorithm-phase *received* volume the transport
    /// metered, in words (scatter/gather setup excluded).
    pub measured_words: u64,
    /// Largest per-node memory high-water mark, in words.
    pub peak_words: u64,
    /// Equation 8 at `(n, P, M)` with `M` = the swept budget when set,
    /// else the measured high-water mark; in words.
    pub bound_words: f64,
    /// SUMMA's largest per-rank measured volume on the same `(n, P)`
    /// (`None` when `P` is not a square dividing `n`).
    pub summa_words: Option<u64>,
    /// The bound's bandwidth term `n²/P^(2/ω₀)` alone, in words.
    pub bandwidth_term_words: f64,
}

impl Eq8Cell {
    /// Measured-over-bound ratio — the number [`Self::gate`] inspects.
    pub fn ratio(&self) -> f64 {
        self.measured_words as f64 / self.bound_words
    }

    /// The `M` (in words) that actually fed `bound_words`: the swept
    /// budget when one was set, else the measured high-water mark.
    pub(crate) fn bound_m_words(&self) -> u64 {
        self.mem_limit_words.unwrap_or(self.peak_words).max(1)
    }

    /// Per-cell acceptance gate for [`Self::ratio`].
    ///
    /// **4×** for schedules with a single distribution level (free sweeps
    /// at `P ≤ 7`; forced-DFS cells at `P < 7`). **5×** for cells that
    /// stack two or more distribution levels inside the bound's single
    /// `P^(2/ω₀)` factor — `P > 7` (two BFS levels) or budget-forced DFS
    /// at `P ≥ 7` (knee cells) — whose information floor is
    /// `(7/4)·(18/7) ≈ 4.5`, above 4. The module docs derive both
    /// constants.
    pub fn gate(&self) -> f64 {
        if self.nodes > 7 || (self.nodes >= 7 && self.mem_limit_words.is_some()) {
            5.0
        } else {
            4.0
        }
    }
}

/// Runs one `(n, P, mem_limit)` cell: distributed CAPS always, SUMMA when
/// the node count admits a square grid that divides `n`.
pub(crate) fn eq8_cell(
    n: usize,
    nodes: usize,
    mem_limit_words: Option<u64>,
) -> Result<Eq8Cell, DistError> {
    let (a, b) = operands(n);
    let cfg = DistCapsConfig {
        mem_limit_bytes: mem_limit_words.map(|w| w * 8),
        ..DistCapsConfig::paper()
    };
    let net = e3_1225_net(nodes);
    let out = dist_caps_multiply(&a, &b, &cfg, &net)?;
    let measured_words = out.report.max_recv_bytes(Phase::Algo) / 8;
    let peak_words = (out.report.max_peak_bytes() / 8).max(1);
    let bound_m = mem_limit_words.unwrap_or(peak_words).max(1);
    let summa_words = match summa_multiply(&a, &b, &net) {
        Ok(s) => Some(s.report.max_recv_bytes(Phase::Algo) / 8),
        Err(DistError::NotSquareGrid { .. }) | Err(DistError::Indivisible { .. }) => None,
        Err(e) => return Err(e),
    };
    Ok(Eq8Cell {
        n,
        nodes,
        mem_limit_words,
        measured_words,
        peak_words,
        bound_words: caps_comm_words(n as f64, nodes as f64, bound_m as f64),
        summa_words,
        bandwidth_term_words: (n * n) as f64 / (nodes as f64).powf(2.0 / OMEGA0),
    })
}

/// The Eq. 8 verification sweep: measured traffic vs the bound across a
/// grid of `(n, P, M)` cells.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Eq8Study {
    /// Every swept cell.
    pub cells: Vec<Eq8Cell>,
}

/// Runs `eq8_cell` over a sweep grid.
pub fn run_eq8_study(grid: &[(usize, usize, Option<u64>)]) -> Result<Eq8Study, DistError> {
    let cells = grid
        .iter()
        .map(|&(n, p, m)| eq8_cell(n, p, m))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Eq8Study { cells })
}

/// The default sweep grid. Memory-rich cells across node counts (the
/// bandwidth-term regime), memory-starved cells at `P = 2 < P̂` forcing a
/// top-level distributed-DFS step (the memory-term regime: `M = n²/4`
/// gives `P̂ = (n²/M)^(ω₀/2) = 7`), knee cells at `P = P̂ = 7` with the
/// same budget, *deep* forced-DFS cells at `P ∈ {7, 49}` with `M = 96²`
/// words — below the single-rank leaf working set
/// `(3 + 1/3)·cutoff² ≈ 13.7k` words, so every step down to the frame
/// leaf is a communication-free DFS — and two-level BFS descents at
/// `P = 49`, free and budget-forced. The deep large-`P` cells were
/// excluded under the pre-fractal block-column layout (its per-DFS-level
/// re-shuffle blew past even the old 8× gate); the fractal layout admits
/// them under the gates of [`Eq8Cell::gate`].
pub fn default_eq8_grid() -> Vec<(usize, usize, Option<u64>)> {
    let deep = Some(96u64 * 96); // forces DFS the whole way to the frame leaf
    let mut grid = Vec::new();
    for &n in &[256usize, 512] {
        for &p in &[2usize, 4, 7] {
            grid.push((n, p, None));
        }
        grid.push((n, 2, Some((n as u64 / 2).pow(2))));
        grid.push((n, 7, Some((n as u64 / 2).pow(2))));
        grid.push((n, 7, deep));
        grid.push((n, 49, None));
    }
    grid.push((512, 49, deep));
    grid
}

impl Eq8Study {
    /// Worst measured-over-bound ratio across the sweep.
    pub fn max_ratio(&self) -> f64 {
        self.cells.iter().map(Eq8Cell::ratio).fold(0.0, f64::max)
    }

    /// Markdown rendering for `EXPERIMENTS.md`.
    pub fn to_markdown(&self) -> String {
        let mut s = String::from(
            "**Eq. 8, measured** — largest per-rank received volume off the \
             transport counters (algorithm phase) vs \
             `max(n^ω₀/(P·M^(ω₀/2−1)), n²/P^(2/ω₀))`:\n\n\
             | n | P | mem limit (words) | M (words) | measured (words) | Eq. 8 bound | ratio | SUMMA measured | bandwidth term |\n\
             |---|---|---|---|---|---|---|---|---|\n",
        );
        for c in &self.cells {
            let lim = c
                .mem_limit_words
                .map_or_else(|| "—".into(), |w| w.to_string());
            let summa = c.summa_words.map_or_else(|| "—".into(), |w| w.to_string());
            s.push_str(&format!(
                "| {} | {} | {} | {} | {} | {:.0} | {:.2}× | {} | {:.0} |\n",
                c.n,
                c.nodes,
                lim,
                c.bound_m_words(),
                c.measured_words,
                c.bound_words,
                c.ratio(),
                summa,
                c.bandwidth_term_words,
            ));
        }
        s.push_str(&format!(
            "\nWorst measured/bound ratio: {:.2}× (gate: ≤ 4×, single-level \
             cells; ≤ 5×, multi-level cells — derived per cell). Every SUMMA \
             cell exceeds the bound's bandwidth term — the classic 2D volume \
             CAPS beats.\n",
            self.max_ratio()
        ));
        s
    }

    /// `(P, ratio)` series for the verification figure, one series per `n`
    /// at a fixed memory setting.
    pub fn ratio_series(&self) -> Vec<(String, Vec<(f64, f64)>)> {
        let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
        for c in &self.cells {
            let label = match c.mem_limit_words {
                None => format!("n={} (free)", c.n),
                Some(m) => format!("n={} (M={m})", c.n),
            };
            match series.iter_mut().find(|(l, _)| *l == label) {
                Some((_, pts)) => pts.push((c.nodes as f64, c.ratio())),
                None => series.push((label, vec![(c.nodes as f64, c.ratio())])),
            }
        }
        series
    }
}

// ---------------------------------------------------------------------------
// strong scaling (arXiv 1202.3177)
// ---------------------------------------------------------------------------

/// The perfect strong-scaling limit of arXiv 1202.3177 for Strassen-based
/// algorithms: `P̂ = (n²/M)^(ω₀/2)`. Below `P̂` the memory term of Eq. 8
/// dominates and per-rank communication falls as `1/P` — runtime scales
/// perfectly; beyond it the bandwidth term decays only as `P^(2/ω₀)` and
/// efficiency must degrade.
pub fn perfect_scaling_limit(n: usize, mem_words: u64) -> f64 {
    ((n * n) as f64 / mem_words as f64).powf(OMEGA0 / 2.0)
}

/// One node count of the strong-scaling sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ScalingPoint {
    /// Node count `P`.
    pub nodes: usize,
    /// Modeled makespan: per-rank compute (measured flops at the node's
    /// achieved GEMM rate) plus wire time, maximised over ranks.
    pub t_seconds: f64,
    /// `e(P) = T(1) / (P · T(P))`.
    pub efficiency: f64,
    /// Largest per-rank algorithm-phase volume, in words.
    pub measured_words: u64,
}

/// The strong-scaling study at fixed `(n, M)`.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StrongScalingStudy {
    /// Problem dimension.
    pub n: usize,
    /// Fixed per-node memory budget, in words.
    pub mem_limit_words: u64,
    /// The 1202.3177 limit `P̂` for this `(n, M)`.
    pub p_hat: f64,
    /// The swept points, in node-count order.
    pub points: Vec<ScalingPoint>,
}

/// Sweeps node counts at a fixed per-node memory budget and evaluates
/// `e(P)` against the modeled single-node runtime.
pub fn run_strong_scaling(
    n: usize,
    mem_limit_words: u64,
    node_counts: &[usize],
    flops_per_s: f64,
) -> Result<StrongScalingStudy, DistError> {
    // e(P) is normalised by T(1). Inferring T(1) as P·T(P) of whatever
    // point happens to come first silently pins that point's efficiency
    // to 1.0; demand a true single-node reference instead.
    match node_counts.first() {
        Some(1) => {}
        first => {
            return Err(DistError::ScalingSweepNotFromOne {
                first: first.copied().unwrap_or(0),
            })
        }
    }
    let (a, b) = operands(n);
    let cfg = DistCapsConfig {
        mem_limit_bytes: Some(mem_limit_words * 8),
        ..DistCapsConfig::paper()
    };
    let mut points = Vec::new();
    let mut t1 = None;
    for &p in node_counts {
        let out = dist_caps_multiply(&a, &b, &cfg, &e3_1225_net(p))?;
        let t = out.makespan_s(flops_per_s);
        let t1 = *t1.get_or_insert(t); // the measured single-node T(1)
        points.push(ScalingPoint {
            nodes: p,
            t_seconds: t,
            efficiency: t1 / (p as f64 * t),
            measured_words: out.report.max_recv_bytes(Phase::Algo) / 8,
        });
    }
    Ok(StrongScalingStudy {
        n,
        mem_limit_words,
        p_hat: perfect_scaling_limit(n, mem_limit_words),
        points,
    })
}

impl StrongScalingStudy {
    /// Markdown rendering for `EXPERIMENTS.md`.
    pub fn to_markdown(&self) -> String {
        let mut s = format!(
            "**Strong scaling, measured** — n = {}, M = {} words/node, \
             predicted perfect range P̂ = (n²/M)^(ω₀/2) ≈ {:.0}:\n\n\
             | P | T(P) (s) | e(P) | per-rank words |\n|---|---|---|---|\n",
            self.n, self.mem_limit_words, self.p_hat
        );
        for p in &self.points {
            s.push_str(&format!(
                "| {} | {:.4} | {:.2} | {} |\n",
                p.nodes, p.t_seconds, p.efficiency, p.measured_words
            ));
        }
        s.push_str(
            "\nReading: efficiency holds while P ≤ P̂ (memory-term regime, \
             per-rank traffic ∝ 1/P) and falls beyond it, the arXiv 1202.3177 \
             perfect strong-scaling range.\n",
        );
        s
    }

    /// `(P, e(P))` series for the scaling figure.
    pub fn efficiency_series(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.nodes as f64, p.efficiency))
            .collect()
    }
}

/// The compute rate the strong-scaling makespans are modeled at: one
/// core's achieved leaf-GEMM rate on the standard node preset. One core,
/// because the distributed executor runs its node-local leaves
/// sequentially (`pool = None` keeps the code path bit-identical to the
/// single-node reference).
pub fn preset_node_flops_per_s() -> f64 {
    powerscale_machine::presets::e3_1225()
        .compute
        .achieved_flops(powerscale_machine::KernelClass::LeafGemm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq8_cell_memory_rich_is_bandwidth_bound_and_under_gate() {
        let c = eq8_cell(256, 7, None).unwrap();
        assert_eq!(c.gate(), 4.0);
        assert!(c.ratio() <= c.gate(), "ratio {}", c.ratio());
        assert!(c.measured_words > 0);
        // Memory-rich: the bound is its bandwidth term.
        assert!((c.bound_words - c.bandwidth_term_words).abs() < 1e-9);
    }

    #[test]
    fn memory_starved_cell_moves_more_and_stays_bounded() {
        // P = 2 < P̂ = 7 at M = n²/4: the memory term dominates the
        // bound, forced DFS moves more data, and the ratio stays gated.
        let free = eq8_cell(256, 2, None).unwrap();
        let starved = eq8_cell(256, 2, Some(128 * 128)).unwrap();
        assert!(starved.measured_words > free.measured_words);
        assert!(starved.bound_words > free.bound_words);
        assert_eq!(starved.gate(), 4.0);
        assert!(
            starved.ratio() <= starved.gate(),
            "ratio {}",
            starved.ratio()
        );
    }

    #[test]
    fn gate_tiers_follow_distribution_levels() {
        let single = |n, p, m| Eq8Cell {
            n,
            nodes: p,
            mem_limit_words: m,
            measured_words: 1,
            peak_words: 1,
            bound_words: 1.0,
            summa_words: None,
            bandwidth_term_words: 1.0,
        };
        // Single distribution level: 4×.
        assert_eq!(single(256, 7, None).gate(), 4.0);
        assert_eq!(single(256, 2, Some(16384)).gate(), 4.0);
        // Two or more levels stacked inside one P^(2/ω₀) factor: 5×.
        assert_eq!(single(256, 49, None).gate(), 5.0);
        assert_eq!(single(256, 7, Some(16384)).gate(), 5.0);
        assert_eq!(single(512, 49, Some(9216)).gate(), 5.0);
    }

    #[test]
    fn default_grid_passes_the_eq8_gate() {
        // The headline assertion: measured per-node traffic within each
        // cell's derived gate of Eq. 8 at every swept (n, P, M), SUMMA
        // above the bandwidth term wherever it runs. (The full grid
        // re-runs in release under the cluster-verify job; n = 256 cells
        // keep the debug tier fast.)
        let grid: Vec<_> = default_eq8_grid()
            .into_iter()
            .filter(|&(n, _, _)| n <= 256)
            .collect();
        let study = run_eq8_study(&grid).unwrap();
        for c in &study.cells {
            assert!(
                c.ratio() <= c.gate(),
                "n={} P={} M={:?}: ratio {:.2} over gate {}",
                c.n,
                c.nodes,
                c.mem_limit_words,
                c.ratio(),
                c.gate()
            );
            if let Some(s) = c.summa_words {
                assert!(s as f64 > c.bandwidth_term_words);
            }
        }
    }

    #[test]
    fn summa_exceeds_bandwidth_term() {
        let c = eq8_cell(256, 4, None).unwrap();
        let summa = c.summa_words.expect("P=4 is a square grid");
        assert!(
            summa as f64 > c.bandwidth_term_words,
            "SUMMA {summa} vs bandwidth term {}",
            c.bandwidth_term_words
        );
    }

    #[test]
    fn p_hat_formula() {
        // n²/M = 4 → P̂ = 4^(ω₀/2) = 2^ω₀ = 7.
        let n = 512;
        let m = (n * n / 4) as u64;
        assert!((perfect_scaling_limit(n, m) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn markdown_renders() {
        let s = run_eq8_study(&[(128, 2, None), (128, 4, None)]).unwrap();
        let md = s.to_markdown();
        assert!(md.contains("| 128 | 2 |"));
        assert!(md.contains("Worst measured/bound ratio"));
        assert!(!s.ratio_series().is_empty());
    }

    #[test]
    fn markdown_m_column_prints_the_m_that_fed_the_bound() {
        // Budgeted cell: the bound was computed with M = the swept limit,
        // and the "M (words)" column must print exactly that — not the
        // measured peak, which differs.
        let limit = 1024u64;
        let s = run_eq8_study(&[(128, 2, Some(limit))]).unwrap();
        let c = &s.cells[0];
        assert_eq!(c.bound_m_words(), limit);
        assert_ne!(
            c.peak_words, limit,
            "peak coincides with the limit; the regression check is vacuous"
        );
        let md = s.to_markdown();
        // | n | P | mem limit | M | ...
        assert!(
            md.contains("| 128 | 2 | 1024 | 1024 |"),
            "M column must show the swept limit:\n{md}"
        );
        // Free cell: M falls back to the measured peak.
        let free = run_eq8_study(&[(128, 2, None)]).unwrap();
        let fc = &free.cells[0];
        assert_eq!(fc.bound_m_words(), fc.peak_words);
    }

    #[test]
    fn strong_scaling_sweep_must_start_at_one_node() {
        let err = run_strong_scaling(128, 64 * 64, &[2, 4], 1e9).unwrap_err();
        assert_eq!(err, DistError::ScalingSweepNotFromOne { first: 2 });
        let err = run_strong_scaling(128, 64 * 64, &[], 1e9).unwrap_err();
        assert_eq!(err, DistError::ScalingSweepNotFromOne { first: 0 });
    }
}
