//! Figures 1, 3, 4–6 and 7 as data series (CSV) and ASCII charts.

use crate::ascii::{self, Series};
use crate::experiment::{find, Algorithm, RunResult};
use powerscale_core::{EpCurve, PhaseMeasure};
use serde::{Deserialize, Serialize};

/// A figure: labelled series over a common x axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Figure title (paper numbering included).
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// `(label, points)` series.
    pub series: Vec<(String, Vec<(f64, f64)>)>,
}

impl Figure {
    /// CSV rendering: `series,x,y` rows.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("series,x,y\n");
        for (label, pts) in &self.series {
            for (x, y) in pts {
                s.push_str(&format!("{label},{x},{y}\n"));
            }
        }
        s
    }

    /// ASCII chart rendering.
    pub fn to_ascii(&self, width: usize, height: usize) -> String {
        const MARKERS: [char; 8] = ['*', 'o', '+', 'x', '#', '@', '%', '&'];
        let series: Vec<Series> = self
            .series
            .iter()
            .enumerate()
            .map(|(i, (label, pts))| {
                Series::new(label.clone(), MARKERS[i % MARKERS.len()], pts.clone())
            })
            .collect();
        let mut out = ascii::render(
            &format!("{} — {} vs {}", self.title, self.y_label, self.x_label),
            &series,
            width,
            height,
        );
        out.push('\n');
        out
    }
}

/// **Figure 1** (conceptual): an ideal and a superlinear EP scaling curve
/// around the linear threshold.
pub fn fig1_concept(max_p: usize) -> Figure {
    let ps: Vec<f64> = (1..=max_p).map(|p| p as f64).collect();
    Figure {
        title: "Figure 1 — Ideal and superlinear energy performance scaling".into(),
        x_label: "degree of parallelism".into(),
        y_label: "EP scaling S".into(),
        series: vec![
            (
                "linear threshold".into(),
                ps.iter().map(|&p| (p, p)).collect(),
            ),
            (
                "ideal (sub-linear power)".into(),
                ps.iter().map(|&p| (p, p.powf(0.75))).collect(),
            ),
            (
                "superlinear (power outpaces speedup)".into(),
                ps.iter().map(|&p| (p, p.powf(1.35))).collect(),
            ),
        ],
    }
}

/// **Figure 3**: Strassen and CAPS slowdown (vs blocked) across thread
/// counts, one series per `(algorithm, size)`.
pub fn fig3_slowdown(results: &[RunResult], sizes: &[usize], threads: &[usize]) -> Figure {
    let mut series = Vec::new();
    for &alg in &[Algorithm::Strassen, Algorithm::Caps] {
        for &n in sizes {
            let pts: Vec<(f64, f64)> = threads
                .iter()
                .filter_map(|&t| {
                    let r = find(results, alg, n, t)?;
                    let b = find(results, Algorithm::Blocked, n, t)?;
                    Some((t as f64, r.t_seconds / b.t_seconds))
                })
                .collect();
            series.push((format!("{} {n}", alg.paper_name()), pts));
        }
    }
    Figure {
        title: "Figure 3 — Strassen slowdown scaling".into(),
        x_label: "threads".into(),
        y_label: "slowdown vs OpenBLAS".into(),
        series,
    }
}

/// **Figures 4–6**: package power vs thread count for one algorithm, one
/// series per problem size (Fig 4 = OpenBLAS, 5 = Strassen, 6 = CAPS).
pub fn power_figure(
    results: &[RunResult],
    algorithm: Algorithm,
    sizes: &[usize],
    threads: &[usize],
) -> Figure {
    let fig_no = match algorithm {
        Algorithm::Blocked => 4,
        Algorithm::Strassen => 5,
        Algorithm::Caps => 6,
    };
    let series = sizes
        .iter()
        .map(|&n| {
            let pts: Vec<(f64, f64)> = threads
                .iter()
                .filter_map(|&t| find(results, algorithm, n, t).map(|r| (t as f64, r.pkg_watts)))
                .collect();
            (format!("{n}x{n}"), pts)
        })
        .collect();
    Figure {
        title: format!("Figure {fig_no} — {} power scaling", algorithm.paper_name()),
        x_label: "threads".into(),
        y_label: "package power (W)".into(),
        series,
    }
}

/// **Figure 7**: EP scaling `S = EP_p / EP_1` (Equations 5/6) across
/// degrees of parallelism, one series per `(algorithm, size)`, plus the
/// linear threshold.
pub fn fig7_ep_scaling(results: &[RunResult], sizes: &[usize], threads: &[usize]) -> Figure {
    let mut series = vec![(
        "linear threshold".to_string(),
        threads
            .iter()
            .map(|&t| (t as f64, t as f64))
            .collect::<Vec<_>>(),
    )];
    for &alg in &crate::experiment::ALL_ALGORITHMS {
        for &n in sizes {
            let curve = ep_curve(results, alg, n, threads);
            let pts = curve
                .points
                .iter()
                .map(|pt| (pt.p as f64, pt.s))
                .collect::<Vec<_>>();
            series.push((format!("{} {n}", alg.paper_name()), pts));
        }
    }
    Figure {
        title: "Figure 7 — Energy performance scaling".into(),
        x_label: "degree of parallelism".into(),
        y_label: "EP scaling S".into(),
        series,
    }
}

/// The measured Eq. 8 verification figure: transport-metered per-rank
/// traffic over the bound, per node count, one series per swept
/// `(n, memory setting)`. The gate lines sit at 4× (single-level cells)
/// and 5× (multi-level cells).
pub fn fig_cluster_eq8(study: &powerscale_cluster::measured::Eq8Study) -> Figure {
    Figure {
        title: "Eq. 8 verification: measured per-rank traffic / bound".into(),
        x_label: "nodes P".into(),
        y_label: "measured / Eq. 8 bound".into(),
        series: study.ratio_series(),
    }
}

/// The measured strong-scaling figure over the arXiv 1202.3177 perfect
/// range: `e(P) = T(1)/(P·T(P))` against node count at fixed per-node
/// memory.
pub fn fig_cluster_scaling(s: &powerscale_cluster::measured::StrongScalingStudy) -> Figure {
    Figure {
        title: format!(
            "Strong scaling e(P): n = {}, M = {} words, P^ ~ {:.0}",
            s.n, s.mem_limit_words, s.p_hat
        ),
        x_label: "nodes P".into(),
        y_label: "efficiency e(P)".into(),
        series: vec![(format!("n={}", s.n), s.efficiency_series())],
    }
}

/// The Equation 5/6 curve for one `(algorithm, size)`.
pub fn ep_curve(
    results: &[RunResult],
    algorithm: Algorithm,
    n: usize,
    threads: &[usize],
) -> EpCurve {
    let measures: Vec<(usize, PhaseMeasure)> = threads
        .iter()
        .filter_map(|&t| {
            find(results, algorithm, n, t).map(|r| (t, PhaseMeasure::new(r.pkg_watts, r.t_seconds)))
        })
        .collect();
    // ±10% band around the linear threshold: the paper reads curves as
    // "ideal or nearly ideal", so borderline points are Linear, not
    // misclassified by measurement noise.
    EpCurve::from_measures(&measures, 0.10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Harness;
    use crate::DtypeTier;
    use powerscale_core::ScalingClass;

    fn rs() -> Vec<RunResult> {
        Harness::default().run_matrix(&[256, 512], &[1, 2, 3, 4], DtypeTier::F64)
    }

    #[test]
    fn fig1_has_three_series() {
        let f = fig1_concept(4);
        assert_eq!(f.series.len(), 3);
        // Superlinear sits above the threshold at p = 4.
        let sup = &f.series[2].1;
        assert!(sup.last().unwrap().1 > 4.0);
    }

    #[test]
    fn fig3_slowdowns_above_one() {
        let r = rs();
        let f = fig3_slowdown(&r, &[256, 512], &[1, 2, 3, 4]);
        assert_eq!(f.series.len(), 4);
        for (label, pts) in &f.series {
            for &(_, y) in pts {
                assert!(y > 1.0, "{label}: slowdown {y}");
            }
        }
    }

    #[test]
    fn power_figures_monotone_in_threads() {
        let r = rs();
        for alg in crate::experiment::ALL_ALGORITHMS {
            let f = power_figure(&r, alg, &[512], &[1, 2, 3, 4]);
            let pts = &f.series[0].1;
            for w in pts.windows(2) {
                assert!(
                    w[1].1 >= w[0].1 - 0.5,
                    "{}: power dropped {:?}",
                    alg.paper_name(),
                    pts
                );
            }
        }
    }

    #[test]
    fn fig7_blocked_above_fast_algorithms() {
        // The paper's core finding, as curve geometry: blocked climbs far
        // above the linear threshold while CAPS hugs it.
        let r = rs();
        let threads = [1usize, 2, 3, 4];
        let blocked = ep_curve(&r, Algorithm::Blocked, 512, &threads);
        let caps = ep_curve(&r, Algorithm::Caps, 512, &threads);
        assert!(blocked.mean_excess() > 2.0 * caps.mean_excess().max(0.05));
        assert!(caps.mean_excess() < 0.5, "caps {}", caps.mean_excess());
        assert_eq!(blocked.overall(), ScalingClass::Superlinear);
    }

    #[test]
    fn csv_rendering() {
        let r = rs();
        let f = power_figure(&r, Algorithm::Caps, &[256], &[1, 2]);
        let csv = f.to_csv();
        assert!(csv.starts_with("series,x,y\n"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn ascii_rendering_contains_legend() {
        let r = rs();
        let f = fig3_slowdown(&r, &[256], &[1, 2, 3, 4]);
        let art = f.to_ascii(40, 12);
        assert!(art.contains("Figure 3"));
        assert!(art.contains("Strassen 256"));
    }
}
