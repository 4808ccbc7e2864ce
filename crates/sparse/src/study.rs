//! The energy-performance scaling study over storage formats — the
//! paper's §VIII agenda, executed with the same methodology as its dense
//! evaluation: simulate, measure package power, apply Equations 1–6.

use crate::cost::{spmv_graph, SpmvStats};
use crate::{Format, ALL_FORMATS};
use powerscale_machine::{simulate, MachineConfig};

/// One measured cell: a format at a thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormatRun {
    /// Storage format.
    pub format: Format,
    /// Threads simulated.
    pub threads: usize,
    /// Runtime (s).
    pub t_seconds: f64,
    /// Average package power (W).
    pub pkg_watts: f64,
}

impl FormatRun {
    /// Equation 1.
    pub fn ep(&self) -> f64 {
        self.pkg_watts / self.t_seconds
    }
}

/// The full study result for one matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatStudy {
    /// Structural statistics of the operand.
    pub stats: SpmvStats,
    /// Every `(format, threads)` cell.
    pub runs: Vec<FormatRun>,
}

/// Runs the study: every format × thread count, `repeats` chained SpMVs
/// (an iterative-solver inner loop) on `machine`.
pub fn run_study(
    stats: &SpmvStats,
    machine: &MachineConfig,
    threads: &[usize],
    repeats: usize,
) -> FormatStudy {
    let tm = machine.traffic_model();
    let mut runs = Vec::new();
    for &format in &ALL_FORMATS {
        for &t in threads {
            let g = spmv_graph(format, stats, t, repeats, &tm);
            let s = simulate(&g, machine, t);
            runs.push(FormatRun {
                format,
                threads: t,
                t_seconds: s.makespan,
                pkg_watts: s.energy.pkg_avg_watts(s.makespan),
            });
        }
    }
    FormatStudy {
        stats: *stats,
        runs,
    }
}

impl FormatStudy {
    /// The run for a `(format, threads)` cell.
    pub fn get(&self, format: Format, threads: usize) -> Option<&FormatRun> {
        self.runs
            .iter()
            .find(|r| r.format == format && r.threads == threads)
    }

    /// Equation 5/6 curve for one format.
    pub fn ep_curve(&self, format: Format, threads: &[usize]) -> powerscale_core::EpCurve {
        let measures: Vec<(usize, powerscale_core::PhaseMeasure)> = threads
            .iter()
            .filter_map(|&t| {
                self.get(format, t).map(|r| {
                    (
                        t,
                        powerscale_core::PhaseMeasure::new(r.pkg_watts, r.t_seconds),
                    )
                })
            })
            .collect();
        powerscale_core::EpCurve::from_measures(&measures, 0.10)
    }

    /// Markdown table of the study.
    pub fn to_markdown(&self, threads: &[usize]) -> String {
        let mut s = format!(
            "**SpMV energy-performance study** ({} rows, {} nnz, ELL width {})\n\n| format |",
            self.stats.rows, self.stats.nnz, self.stats.ell_width
        );
        for &t in threads {
            s.push_str(&format!(" t={t} ms / W |"));
        }
        s.push_str(" EP verdict |\n|---|");
        for _ in threads {
            s.push_str("---|");
        }
        s.push_str("---|\n");
        for &f in &ALL_FORMATS {
            s.push_str(&format!("| {} |", f.name()));
            for &t in threads {
                match self.get(f, t) {
                    Some(r) => {
                        s.push_str(&format!(" {:.3} / {:.1} |", r.t_seconds * 1e3, r.pkg_watts))
                    }
                    None => s.push_str(" - |"),
                }
            }
            s.push_str(&format!(" {:?} |\n", self.ep_curve(f, threads).overall()));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseGen;
    use powerscale_machine::presets::e3_1225;

    fn study() -> FormatStudy {
        let mut gen = SparseGen::new(11);
        let coo = gen.uniform(2000, 2000, 0.01); // ~40k nnz
        run_study(&SpmvStats::of(&coo), &e3_1225(), &[1, 2, 3, 4], 50)
    }

    #[test]
    fn covers_all_cells() {
        let s = study();
        assert_eq!(s.runs.len(), 16);
        for f in ALL_FORMATS {
            for t in [1usize, 4] {
                assert!(s.get(f, t).is_some(), "{f:?}@{t}");
            }
        }
    }

    #[test]
    fn parallel_formats_scale_serial_ones_do_not() {
        let s = study();
        let speedup = |f: Format| s.get(f, 1).unwrap().t_seconds / s.get(f, 4).unwrap().t_seconds;
        // CSR/ELL are bandwidth-bound: modest but real scaling.
        assert!(speedup(Format::Csr) > 1.0);
        // COO/CSC emit a serial graph: no scaling at all.
        assert!((speedup(Format::Coo) - 1.0).abs() < 1e-9);
        assert!((speedup(Format::Csc) - 1.0).abs() < 1e-9);
        assert!(speedup(Format::Csr) > speedup(Format::Coo));
    }

    #[test]
    fn csr_fastest_single_thread() {
        let s = study();
        let t = |f: Format| s.get(f, 1).unwrap().t_seconds;
        assert!(t(Format::Csr) <= t(Format::Coo));
        assert!(t(Format::Csr) <= t(Format::Csc));
    }

    #[test]
    fn serial_formats_waste_power_with_threads() {
        // Idle cores still draw power: COO at 4 "threads" has the same
        // runtime but higher energy cost than at 1 — the EP argument
        // against non-partitionable storage.
        let s = study();
        let c1 = s.get(Format::Coo, 1).unwrap();
        let c4 = s.get(Format::Coo, 4).unwrap();
        assert!(c4.pkg_watts >= c1.pkg_watts - 0.1);
        assert!((c4.t_seconds - c1.t_seconds).abs() < 1e-9);
    }

    #[test]
    fn markdown_renders() {
        let s = study();
        let md = s.to_markdown(&[1, 2, 3, 4]);
        assert!(md.contains("| CSR |"));
        assert!(md.contains("EP verdict"));
    }
}
