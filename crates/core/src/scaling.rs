//! Equations 5/6 and Figure 1: EP scaling and its classification.

use crate::ep::{ep_ratio, PhaseMeasure};

/// **Equation 5/6**: `S = EP_p / EP_1`.
pub fn ep_scaling(ep_p: f64, ep_1: f64) -> f64 {
    assert!(ep_1 > 0.0, "baseline EP must be positive");
    ep_p / ep_1
}

/// Where an EP scaling point sits relative to the linear threshold
/// (Figure 1).
///
/// At `p` parallel units, perfect performance scaling at constant power
/// gives `S = p` — the *linear threshold*. Below it, power grows no faster
/// than performance ("can be considered ideal in terms of power
/// performance"); above it, "the system power must scale at a higher rate
/// than the respective performance scaling".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingClass {
    /// `S` below the linear threshold: power grows slower than
    /// performance.
    Ideal,
    /// `S` within tolerance of the threshold.
    Linear,
    /// `S` above the threshold: power outpaces performance.
    Superlinear,
}

/// Classifies one scaling point `S` at parallelism `p`, with relative
/// tolerance `tol` around the linear threshold.
pub fn classify_point(p: usize, s: f64, tol: f64) -> ScalingClass {
    let threshold = p as f64;
    if s > threshold * (1.0 + tol) {
        ScalingClass::Superlinear
    } else if s < threshold * (1.0 - tol) {
        ScalingClass::Ideal
    } else {
        ScalingClass::Linear
    }
}

/// One point of an EP scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpPoint {
    /// Degree of parallelism.
    pub p: usize,
    /// The scaling ratio `S = EP_p / EP_1`.
    pub s: f64,
    /// Classification against the linear threshold.
    pub class: ScalingClass,
}

/// An EP scaling curve over degrees of parallelism (the data behind
/// Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct EpCurve {
    /// Points in increasing `p`, including the trivial `p = 1`.
    pub points: Vec<EpPoint>,
}

impl EpCurve {
    /// Builds the curve from `(p, measure)` pairs; the `p = 1` entry is
    /// the Equation 5 baseline.
    ///
    /// # Panics
    /// Panics when no `p == 1` baseline is present.
    pub fn from_measures(measures: &[(usize, PhaseMeasure)], tol: f64) -> Self {
        let base = measures
            .iter()
            .find(|&&(p, _)| p == 1)
            .map(|(_, m)| ep_ratio(m))
            .expect("EP curve requires a p = 1 baseline");
        let mut points: Vec<EpPoint> = measures
            .iter()
            .map(|&(p, ref m)| {
                let s = ep_scaling(ep_ratio(m), base);
                EpPoint {
                    p,
                    s,
                    class: classify_point(p, s, tol),
                }
            })
            .collect();
        points.sort_by_key(|pt| pt.p);
        EpCurve { points }
    }

    /// The curve's overall verdict, judged on the whole curve rather than
    /// any single point (a 1%-over outlier must not flip an otherwise
    /// ideal curve): the ratio `Σ S(p) / Σ p` over points with `p > 1` is
    /// compared to `1 ± tol` with a 5% band.
    pub fn overall(&self) -> ScalingClass {
        let pts: Vec<&EpPoint> = self.points.iter().filter(|pt| pt.p > 1).collect();
        if pts.is_empty() {
            return ScalingClass::Linear;
        }
        let s_sum: f64 = pts.iter().map(|pt| pt.s).sum();
        let p_sum: f64 = pts.iter().map(|pt| pt.p as f64).sum();
        let ratio = s_sum / p_sum;
        if ratio > 1.05 {
            ScalingClass::Superlinear
        } else if ratio < 0.95 {
            ScalingClass::Ideal
        } else {
            ScalingClass::Linear
        }
    }

    /// Mean distance of the curve from the linear threshold, signed
    /// (negative = below/ideal). Used to say one algorithm is "closer to
    /// the linear scale" than another, as the paper does for CAPS vs
    /// Strassen.
    pub fn mean_excess(&self) -> f64 {
        let pts: Vec<&EpPoint> = self.points.iter().filter(|pt| pt.p > 1).collect();
        if pts.is_empty() {
            return 0.0;
        }
        pts.iter().map(|pt| pt.s - pt.p as f64).sum::<f64>() / pts.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(w: f64, t: f64) -> PhaseMeasure {
        PhaseMeasure::new(w, t)
    }

    #[test]
    fn eq5_ratio() {
        assert!((ep_scaling(12.0, 3.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_baseline_rejected() {
        let _ = ep_scaling(1.0, 0.0);
    }

    #[test]
    fn classification_regions() {
        assert_eq!(classify_point(4, 3.0, 0.05), ScalingClass::Ideal);
        assert_eq!(classify_point(4, 4.1, 0.05), ScalingClass::Linear);
        assert_eq!(classify_point(4, 5.0, 0.05), ScalingClass::Superlinear);
        // Tolerance widens the linear band.
        assert_eq!(classify_point(4, 5.0, 0.3), ScalingClass::Linear);
    }

    #[test]
    fn ideal_curve_constant_power_linear_speedup() {
        // Constant 20 W, perfect speedup: S = p exactly → Linear band.
        let measures: Vec<(usize, PhaseMeasure)> =
            (1..=4).map(|p| (p, m(20.0, 8.0 / p as f64))).collect();
        let curve = EpCurve::from_measures(&measures, 0.05);
        assert_eq!(curve.overall(), ScalingClass::Linear);
        assert!((curve.points[3].s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sublinear_power_growth_is_ideal() {
        // Power grows 20→26 W while speedup is imperfect (memory-bound):
        // S = power-ratio × speedup stays clearly below p at every point.
        let measures = vec![
            (1, m(20.0, 8.0)),
            (2, m(22.0, 4.8)),
            (3, m(24.0, 3.6)),
            (4, m(26.0, 3.0)),
        ];
        let curve = EpCurve::from_measures(&measures, 0.05);
        assert_eq!(curve.overall(), ScalingClass::Ideal);
        assert!(curve.mean_excess() < 0.0);
    }

    #[test]
    fn superlinear_power_growth_detected() {
        // Power more than doubles per doubling of speedup.
        let measures = vec![(1, m(20.0, 8.0)), (2, m(45.0, 4.0)), (4, m(110.0, 2.0))];
        let curve = EpCurve::from_measures(&measures, 0.05);
        assert_eq!(curve.overall(), ScalingClass::Superlinear);
        assert!(curve.mean_excess() > 0.0);
    }

    #[test]
    #[should_panic(expected = "baseline")]
    fn missing_baseline_rejected() {
        let _ = EpCurve::from_measures(&[(2, m(10.0, 1.0))], 0.05);
    }

    #[test]
    fn points_sorted_by_p() {
        let measures = vec![(4, m(30.0, 2.0)), (1, m(20.0, 8.0)), (2, m(25.0, 4.0))];
        let curve = EpCurve::from_measures(&measures, 0.05);
        let ps: Vec<usize> = curve.points.iter().map(|pt| pt.p).collect();
        assert_eq!(ps, vec![1, 2, 4]);
    }

    #[test]
    fn p1_point_is_unity() {
        let measures = vec![(1, m(20.0, 8.0)), (2, m(20.0, 4.0))];
        let curve = EpCurve::from_measures(&measures, 0.05);
        assert!((curve.points[0].s - 1.0).abs() < 1e-12);
    }
}
