//! Equations 1–4: energy-performance ratios. Equations 2 and 4 live in the
//! unit tests as reference forms: the harness applies Equation 1 to whole
//! runs.

/// One measured execution phase: average energy draw `EAvg` over runtime
/// `T`. The paper leaves units open; the harness uses watts and seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseMeasure {
    /// Average energy utilisation of the phase (`EAvg`).
    pub energy_avg: f64,
    /// Phase runtime (`T`).
    pub t: f64,
}

impl PhaseMeasure {
    /// Builds a measure; runtime must be positive.
    ///
    /// # Panics
    /// Panics on non-positive `t` or negative `energy_avg`.
    pub fn new(energy_avg: f64, t: f64) -> Self {
        assert!(t > 0.0, "phase runtime must be positive, got {t}");
        assert!(
            energy_avg >= 0.0,
            "energy cannot be negative, got {energy_avg}"
        );
        PhaseMeasure { energy_avg, t }
    }
}

/// **Equation 1**: `EP_p = EAvg_p / T_p`.
///
/// Note the direction: a *larger* EP means more energy is being spent per
/// unit of achieved runtime reduction — the paper reads EP growth against
/// the linear threshold to judge scaling quality.
pub fn ep_ratio(m: &PhaseMeasure) -> f64 {
    m.energy_avg / m.t
}

/// **Equation 3**: a set of per-plane measurements whose sum is the
/// encapsulated energy `EAvg_n = Σ_{l=0}^{F} PPL_l`.
///
/// All architectures expose at least one plane ("generally associated with
/// the incoming system power source").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlaneSet {
    /// Per-plane readings (`PPL_l`).
    pub planes: Vec<f64>,
}

impl PlaneSet {
    /// A plane set from its readings.
    pub fn new(planes: &[f64]) -> Self {
        PlaneSet {
            planes: planes.to_vec(),
        }
    }

    /// Equation 3's sum.
    pub fn total(&self) -> f64 {
        self.planes.iter().sum()
    }

    /// Number of reporting planes (`F`).
    pub fn f(&self) -> usize {
        self.planes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PhaseMeasure {
        /// Non-panicking constructor for measured (possibly degenerate)
        /// data: `None` on a zero/negative/non-finite runtime or a negative
        /// or non-finite energy reading — the cases where Eq. 1 would
        /// otherwise mint a NaN/inf EP.
        fn try_new(energy_avg: f64, t: f64) -> Option<Self> {
            (t.is_finite() && t > 0.0 && energy_avg.is_finite() && energy_avg >= 0.0)
                .then_some(PhaseMeasure { energy_avg, t })
        }
    }

    /// A mixed sequential/parallel execution (Equation 2's operands): the
    /// sequential portion plus one measure per parallel unit.
    #[derive(Debug, Clone, PartialEq)]
    struct MixedMeasure {
        /// The sequential portion (`EAvg_s`, `T_s`).
        pub sequential: PhaseMeasure,
        /// Per-parallel-unit measures (`EAvg_p`, `T_p` for each unit).
        pub parallel_units: Vec<PhaseMeasure>,
    }

    /// **Equation 2**:
    /// `EP_t = (EAvg_s + max(EAvg_p)) / (T_s + max(T_p))`.
    ///
    /// The `max` over parallel units captures the slowest/most power-hungry
    /// unit dominating the phase.
    ///
    /// # Panics
    /// Panics if there are no parallel units (the equation's max is undefined).
    fn ep_total(m: &MixedMeasure) -> f64 {
        assert!(
            !m.parallel_units.is_empty(),
            "Equation 2 requires at least one parallel unit"
        );
        let max_e = m
            .parallel_units
            .iter()
            .map(|u| u.energy_avg)
            .fold(f64::NEG_INFINITY, f64::max);
        let max_t = m
            .parallel_units
            .iter()
            .map(|u| u.t)
            .fold(f64::NEG_INFINITY, f64::max);
        (m.sequential.energy_avg + max_e) / (m.sequential.t + max_t)
    }

    /// **Equation 4**: Equation 2 with per-plane sums substituted:
    /// `EP_t = (Σ PPL_s + max_p(Σ PPL_p)) / (T_s + max(T_p))`.
    ///
    /// `parallel` pairs each unit's plane set with its runtime.
    ///
    /// # Panics
    /// Panics if `parallel` is empty.
    fn ep_total_planes(sequential: (&PlaneSet, f64), parallel: &[(PlaneSet, f64)]) -> f64 {
        assert!(
            !parallel.is_empty(),
            "Equation 4 requires at least one parallel unit"
        );
        let max_e = parallel
            .iter()
            .map(|(ps, _)| ps.total())
            .fold(f64::NEG_INFINITY, f64::max);
        let max_t = parallel
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::NEG_INFINITY, f64::max);
        (sequential.0.total() + max_e) / (sequential.1 + max_t)
    }

    #[test]
    fn eq1_simple_ratio() {
        let m = PhaseMeasure::new(35.0, 7.0);
        assert!((ep_ratio(&m) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_runtime_rejected() {
        let _ = PhaseMeasure::new(10.0, 0.0);
    }

    #[test]
    fn try_new_refuses_degenerate_windows() {
        // Zero/negative/non-finite runtimes and non-finite or negative
        // energies all yield None instead of a NaN/inf-producing measure.
        for (e, t) in [
            (10.0, 0.0),
            (10.0, -1.0),
            (10.0, f64::NAN),
            (10.0, f64::INFINITY),
            (f64::NAN, 1.0),
            (f64::INFINITY, 1.0),
            (-1.0, 1.0),
        ] {
            assert!(
                PhaseMeasure::try_new(e, t).is_none(),
                "try_new({e}, {t}) must refuse"
            );
        }
        let m = PhaseMeasure::try_new(35.0, 7.0).expect("valid measure");
        assert!((ep_ratio(&m) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn eq2_uses_max_of_parallel_units() {
        let m = MixedMeasure {
            sequential: PhaseMeasure::new(5.0, 1.0),
            parallel_units: vec![
                PhaseMeasure::new(20.0, 2.0),
                PhaseMeasure::new(30.0, 1.5), // max energy
                PhaseMeasure::new(10.0, 4.0), // max time
            ],
        };
        // (5 + 30) / (1 + 4) = 7.
        assert!((ep_total(&m) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn eq2_reduces_to_eq1_for_one_unit_no_seq() {
        let unit = PhaseMeasure::new(24.0, 3.0);
        let m = MixedMeasure {
            sequential: PhaseMeasure::new(0.0, 1e-12),
            parallel_units: vec![unit],
        };
        assert!((ep_total(&m) - ep_ratio(&unit)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "parallel unit")]
    fn eq2_empty_units_rejected() {
        let m = MixedMeasure {
            sequential: PhaseMeasure::new(1.0, 1.0),
            parallel_units: vec![],
        };
        let _ = ep_total(&m);
    }

    #[test]
    fn eq3_plane_sum() {
        let ps = PlaneSet::new(&[14.0, 18.5, 3.5]);
        assert_eq!(ps.total(), 36.0);
        assert_eq!(ps.f(), 3);
        assert_eq!(PlaneSet::default().total(), 0.0);
    }

    #[test]
    fn eq4_matches_eq2_on_aggregates() {
        // With planes pre-summed, Eq. 4 must equal Eq. 2.
        let seq_planes = PlaneSet::new(&[3.0, 2.0]);
        let par = vec![
            (PlaneSet::new(&[15.0, 5.0]), 2.0),
            (PlaneSet::new(&[20.0, 10.0]), 1.5),
        ];
        let eq4 = ep_total_planes((&seq_planes, 1.0), &par);
        let eq2 = ep_total(&MixedMeasure {
            sequential: PhaseMeasure::new(5.0, 1.0),
            parallel_units: vec![PhaseMeasure::new(20.0, 2.0), PhaseMeasure::new(30.0, 1.5)],
        });
        assert!((eq4 - eq2).abs() < 1e-12);
    }
}
