//! Tables II, III and IV, with the paper's reference values.

use crate::experiment::{find, Algorithm, RunResult, ALL_ALGORITHMS};
use serde::{Deserialize, Serialize};

/// The paper's problem sizes (§VI-A).
pub const PAPER_SIZES: [usize; 4] = [512, 1024, 2048, 4096];
/// The paper's thread counts (§VI-A).
pub const PAPER_THREADS: [usize; 4] = [1, 2, 3, 4];

/// Reference values transcribed from the paper.
pub mod paper {
    /// Table II: average Strassen slowdown per problem size
    /// (512/1024/2048/4096), final column = average.
    pub const TABLE2_STRASSEN: [f64; 5] = [2.872, 3.477, 2.874, 2.637, 2.965];
    /// Table II: average CAPS slowdown per problem size.
    pub const TABLE2_CAPS: [f64; 5] = [2.840, 2.942, 2.809, 2.561, 2.788];
    /// §VI-B: average CAPS-over-Strassen performance improvement.
    pub(crate) const CAPS_PERF_IMPROVEMENT_PCT: f64 = 5.97;
    /// Table III: average watts per thread count (1..4), final = average.
    pub const TABLE3_OPENBLAS: [f64; 5] = [20.2, 30.9, 40.98, 49.13, 35.3];
    /// Table III: Strassen watts.
    pub const TABLE3_STRASSEN: [f64; 5] = [21.1, 26.25, 30.4, 31.9, 27.41];
    /// Table III: CAPS watts.
    pub const TABLE3_CAPS: [f64; 5] = [17.7, 25.75, 30.175, 33.175, 26.7];
    /// §VI-C: average CAPS-over-Strassen power improvement.
    pub(crate) const CAPS_POWER_IMPROVEMENT_PCT: f64 = 2.59;
    /// Table IV: average EP per size (512/1024/2048/4096), final = average.
    pub const TABLE4_OPENBLAS: [f64; 5] = [6356.33, 1052.34, 136.38, 19.53, 1891.15];
    /// Table IV: Strassen EP.
    pub(crate) const TABLE4_STRASSEN: [f64; 5] = [1912.76, 239.27, 24.60, 4.70, 545.33];
    /// Table IV: CAPS EP.
    pub(crate) const TABLE4_CAPS: [f64; 5] = [1961.28, 244.57, 25.32, 4.86, 559.00];
    /// §V-C power extremes for OpenBLAS.
    pub const OPENBLAS_MIN_W: f64 = 17.7;
    /// §VI-C highest observed OpenBLAS power.
    pub const OPENBLAS_MAX_W: f64 = 56.4;
}

/// A rendered table row: label + per-column values + trailing average.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableRow {
    /// Row label.
    pub label: String,
    /// Per-column values.
    pub values: Vec<f64>,
    /// Mean of `values`.
    pub average: f64,
}

impl TableRow {
    fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        let average = if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        };
        TableRow {
            label: label.into(),
            values,
            average,
        }
    }
}

/// A table: header columns + rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column labels (excluding the row-label and Average columns).
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<TableRow>,
}

impl Table {
    /// Renders as a Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut s = format!("**{}**\n\n", self.title);
        s.push_str("| |");
        for c in &self.columns {
            s.push_str(&format!(" {c} |"));
        }
        s.push_str(" Average |\n|---|");
        for _ in &self.columns {
            s.push_str("---|");
        }
        s.push_str("---|\n");
        for r in &self.rows {
            s.push_str(&format!("| {} |", r.label));
            for v in &r.values {
                s.push_str(&format!(" {v:.3} |"));
            }
            s.push_str(&format!(" {:.3} |\n", r.average));
        }
        s
    }
}

/// Mean of `f` over all thread counts for `(algorithm, n)`.
fn mean_over_threads(
    results: &[RunResult],
    algorithm: Algorithm,
    n: usize,
    threads: &[usize],
    f: impl Fn(&RunResult) -> f64,
) -> f64 {
    let vals: Vec<f64> = threads
        .iter()
        .filter_map(|&t| find(results, algorithm, n, t).map(&f))
        .collect();
    assert!(!vals.is_empty(), "no results for {algorithm} n={n}");
    vals.iter().sum::<f64>() / vals.len() as f64
}

/// **Table II**: average Strassen/CAPS slowdown (vs the blocked baseline)
/// per problem size, averaged over thread counts.
pub fn slowdown_table(results: &[RunResult], sizes: &[usize], threads: &[usize]) -> Table {
    let mut rows = Vec::new();
    for &alg in &[Algorithm::Strassen, Algorithm::Caps] {
        let values: Vec<f64> = sizes
            .iter()
            .map(|&n| {
                mean_over_threads(results, alg, n, threads, |r| {
                    let b = find(results, Algorithm::Blocked, n, r.spec.threads)
                        .expect("matching blocked run");
                    r.t_seconds / b.t_seconds
                })
            })
            .collect();
        rows.push(TableRow::new(alg.paper_name(), values));
    }
    Table {
        title: "Table II — Average Strassen slowdown at problem size = N".into(),
        columns: sizes.iter().map(|n| n.to_string()).collect(),
        rows,
    }
}

/// **Table III**: average package watts per thread count, averaged over
/// problem sizes.
pub fn power_table(results: &[RunResult], sizes: &[usize], threads: &[usize]) -> Table {
    let mut rows = Vec::new();
    for &alg in &ALL_ALGORITHMS {
        let values: Vec<f64> = threads
            .iter()
            .map(|&t| {
                let vals: Vec<f64> = sizes
                    .iter()
                    .filter_map(|&n| find(results, alg, n, t).map(|r| r.pkg_watts))
                    .collect();
                vals.iter().sum::<f64>() / vals.len() as f64
            })
            .collect();
        rows.push(TableRow::new(alg.paper_name(), values));
    }
    Table {
        title: "Table III — Average power (W) at thread count".into(),
        columns: threads.iter().map(|t| t.to_string()).collect(),
        rows,
    }
}

/// **Table IV**: average energy performance (Equation 1, package watts per
/// second of runtime) per problem size, averaged over thread counts.
pub fn ep_table(results: &[RunResult], sizes: &[usize], threads: &[usize]) -> Table {
    let mut rows = Vec::new();
    for &alg in &ALL_ALGORITHMS {
        let values: Vec<f64> = sizes
            .iter()
            .map(|&n| mean_over_threads(results, alg, n, threads, RunResult::ep))
            .collect();
        rows.push(TableRow::new(alg.paper_name(), values));
    }
    Table {
        title: "Table IV — Average energy performance at problem size = N".into(),
        columns: sizes.iter().map(|n| n.to_string()).collect(),
        rows,
    }
}

/// Average CAPS improvement over Strassen in percent, by metric `f`
/// (positive = CAPS better, i.e. lower).
pub(crate) fn caps_improvement_pct(
    results: &[RunResult],
    sizes: &[usize],
    threads: &[usize],
    f: impl Fn(&RunResult) -> f64,
) -> f64 {
    let mut strassen_sum = 0.0;
    let mut caps_sum = 0.0;
    let mut count = 0usize;
    for &n in sizes {
        for &t in threads {
            if let (Some(s), Some(c)) = (
                find(results, Algorithm::Strassen, n, t),
                find(results, Algorithm::Caps, n, t),
            ) {
                strassen_sum += f(s);
                caps_sum += f(c);
                count += 1;
            }
        }
    }
    assert!(count > 0, "no paired results");
    (1.0 - caps_sum / strassen_sum) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Harness, RunSpec};

    fn small_matrix() -> Vec<RunResult> {
        Harness::default().run_matrix(&[256, 512], &[1, 2, 4])
    }

    #[test]
    fn slowdown_table_shape_and_direction() {
        let rs = small_matrix();
        let t = slowdown_table(&rs, &[256, 512], &[1, 2, 4]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].values.len(), 2);
        // Both fast algorithms are slower than blocked at these sizes.
        for r in &t.rows {
            assert!(r.average > 1.0, "{} avg {}", r.label, r.average);
        }
    }

    #[test]
    fn power_table_openblas_steepest() {
        let rs = small_matrix();
        let t = power_table(&rs, &[256, 512], &[1, 2, 4]);
        let slope = |row: &TableRow| row.values.last().unwrap() - row.values.first().unwrap();
        let blocked = t.rows.iter().find(|r| r.label == "OpenBLAS").unwrap();
        let strassen = t.rows.iter().find(|r| r.label == "Strassen").unwrap();
        assert!(slope(blocked) > slope(strassen));
    }

    #[test]
    fn ep_table_decreases_with_size() {
        // EP = watts / seconds: larger problems run longer at similar
        // watts, so EP falls steeply with n — the structure of Table IV.
        let rs = small_matrix();
        let t = ep_table(&rs, &[256, 512], &[1, 2, 4]);
        for r in &t.rows {
            assert!(r.values[0] > r.values[1], "{}: {:?}", r.label, r.values);
        }
    }

    #[test]
    fn markdown_rendering() {
        let rs = small_matrix();
        let md = slowdown_table(&rs, &[256, 512], &[1, 2, 4]).to_markdown();
        assert!(md.contains("| Strassen |"));
        assert!(md.contains("| CAPS |"));
        assert!(md.contains("Average"));
    }

    #[test]
    fn caps_improvement_positive_on_time() {
        let h = Harness::default();
        let rs = h.run_matrix(&[1024], &[1, 2, 4]);
        let pct = caps_improvement_pct(&rs, &[1024], &[1, 2, 4], |r| r.t_seconds);
        assert!(pct > -2.0, "caps should not be much slower: {pct}%");
    }

    #[test]
    #[should_panic(expected = "no results")]
    fn missing_cells_detected() {
        let h = Harness::default();
        let rs = vec![h.run(RunSpec::new(Algorithm::Blocked, 128, 1))];
        let _ = ep_table(&rs, &[128], &[1]);
    }
}
