//! Run specification and the simulated-measurement runner.

use powerscale_caps::CapsConfig;
use powerscale_core::{MeasureQuality, PlaneSet};
use powerscale_gemm::{BlockingParams, DtypeTier};
use powerscale_machine::{simulate, MachineConfig, TaskGraph};
use powerscale_rapl::{
    model::ModelReader, Domain, EnergyMeter, EnergyReader, EnergyReport, FaultConfig,
    FaultInjectingReader, ResilientConfig, ResilientReader,
};
use powerscale_strassen::StrassenConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three algorithms of the paper's study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Tuned blocked DGEMM — the paper's "OpenBLAS".
    Blocked,
    /// Classic parallel Strassen (BOTS-style untied tasks).
    Strassen,
    /// Communication Avoiding Parallel Strassen.
    Caps,
}

/// All algorithms in the paper's presentation order.
pub const ALL_ALGORITHMS: [Algorithm; 3] =
    [Algorithm::Blocked, Algorithm::Strassen, Algorithm::Caps];

impl Algorithm {
    /// The label the paper uses.
    pub fn paper_name(self) -> &'static str {
        match self {
            Algorithm::Blocked => "OpenBLAS",
            Algorithm::Strassen => "Strassen",
            Algorithm::Caps => "CAPS",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// One cell of the execution matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RunSpec {
    /// Which algorithm.
    pub algorithm: Algorithm,
    /// Square problem dimension.
    pub n: usize,
    /// Thread (core) count.
    pub threads: usize,
    /// Numeric tier the kernels compute in. The simulated machine models
    /// f64 arithmetic regardless, so this axis changes *real* executions
    /// (`Harness::run_real` pins the process dtype tier from it) and is
    /// carried through sweeps/checkpoints as scenario metadata. Old
    /// checkpoints without the field deserialise as [`DtypeTier::F64`].
    pub dtype: DtypeTier,
}

impl RunSpec {
    /// A spec at the paper's baseline dtype tier (f64).
    pub fn new(algorithm: Algorithm, n: usize, threads: usize) -> Self {
        RunSpec {
            algorithm,
            n,
            threads,
            dtype: DtypeTier::F64,
        }
    }

    /// The same cell at another dtype tier.
    pub fn with_dtype(self, dtype: DtypeTier) -> Self {
        RunSpec { dtype, ..self }
    }
}

/// Measured outcome of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// The run's specification.
    pub spec: RunSpec,
    /// Runtime in seconds (simulated wall clock).
    pub t_seconds: f64,
    /// Average package power (W), via the RAPL meter.
    pub pkg_watts: f64,
    /// Average core-plane power (W).
    pub pp0_watts: f64,
    /// Average DRAM-plane power (W).
    pub dram_watts: f64,
    /// Total flops the algorithm performed.
    pub flops: u64,
    /// Total DRAM traffic (bytes).
    pub dram_bytes: u64,
    /// Total inter-core communication (bytes).
    pub comm_bytes: u64,
    /// Mean core utilisation in `[0, 1]`.
    pub utilisation: f64,
    /// Fidelity of the energy measurement behind the power numbers.
    pub quality: MeasureQuality,
    /// Power planes that lost samples, finished unhealthy, or disappeared.
    pub degraded_planes: Vec<Domain>,
    /// Meter samples that produced no reading, summed over planes.
    pub samples_failed: u64,
    /// Counter wraparounds corrected while integrating, summed over planes.
    pub wraps_corrected: u64,
}

impl RunResult {
    /// Equation 1 on the package plane (the paper's primary reading).
    pub fn ep(&self) -> f64 {
        self.pkg_watts / self.t_seconds
    }

    /// The run's power planes as an Equation 3 set
    /// (package already contains PP0; the DRAM plane is separate).
    /// Degraded planes are counted as missing so Eq. 3/4 aggregates built
    /// from this set inherit the degradation.
    pub fn planes(&self) -> PlaneSet {
        let missing = self
            .degraded_planes
            .iter()
            .filter(|&&d| d == Domain::Package || d == Domain::Dram)
            .count();
        PlaneSet::with_missing(&[self.pkg_watts, self.dram_watts], missing)
    }

    /// Achieved Gflop/s.
    pub fn gflops(&self) -> f64 {
        self.flops as f64 / self.t_seconds / 1e9
    }
}

/// The experiment driver: a machine plus the per-algorithm configurations.
#[derive(Debug, Clone)]
pub struct Harness {
    /// The simulated platform.
    pub machine: MachineConfig,
    /// Blocked-DGEMM blocking factors.
    pub blocking: BlockingParams,
    /// Strassen knobs.
    pub strassen: StrassenConfig,
    /// CAPS knobs.
    pub caps: CapsConfig,
    /// RAPL meter samples per run (the paper's driver polls PAPI
    /// periodically; 64 samples comfortably out-paces counter wrap).
    pub meter_samples: usize,
    /// Optional fault-injection plan for the measurement path. When set,
    /// every cell reads its counters through a seeded
    /// [`FaultInjectingReader`] wrapped in a [`ResilientReader`]; the
    /// per-cell fault seed is derived from this plan's seed and the cell's
    /// spec, so a resumed sweep sees the same schedule as an uninterrupted
    /// one.
    pub faults: Option<FaultConfig>,
    /// Tuning for the recovery decorator (used only when `faults` is set).
    pub resilience: ResilientConfig,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new(powerscale_machine::presets::e3_1225())
    }
}

impl Harness {
    /// A harness on `machine` with the paper's algorithm configurations
    /// ([`StrassenConfig::paper`], [`CapsConfig::paper`] with one DFS way
    /// per machine core): cutoff 64 for the simulator, the paper figures
    /// and [`Harness::multiply`] alike.
    ///
    /// The simulated blocking is derived from the *machine's* caches for
    /// the 8×6 AVX2 register tile — the kernel shape of the simulated
    /// Haswell, and a property of that machine, not of whatever kernel
    /// the host happens to dispatch. (Deriving it from the host's
    /// selected kernel would change every simulated figure the day the
    /// host gains a wider SIMD tier.)
    pub fn new(machine: MachineConfig) -> Self {
        Harness {
            blocking: BlockingParams::for_caches_and_tile(&machine.caches, 8, 6),
            strassen: StrassenConfig::paper(),
            caps: CapsConfig {
                dfs_ways: machine.cores,
                ..CapsConfig::paper()
            },
            machine,
            meter_samples: 64,
            faults: None,
            resilience: ResilientConfig::default(),
        }
    }

    /// Enables fault injection on the measurement path.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Builds the task graph for one spec.
    pub fn graph(&self, algorithm: Algorithm, n: usize) -> TaskGraph {
        let tm = self.machine.traffic_model();
        match algorithm {
            Algorithm::Blocked => {
                powerscale_gemm::plan::blocked_gemm_graph_with(n, &self.blocking, &tm)
            }
            Algorithm::Strassen => powerscale_strassen::strassen_graph_with(n, &self.strassen, &tm),
            Algorithm::Caps => powerscale_caps::caps_graph_with(n, &self.caps, &tm),
        }
    }

    /// The fault seed for one cell, derived from the plan seed and the
    /// spec (FNV-style mixing). Cells are independent: skipping completed
    /// cells on resume cannot shift the schedules of the remaining ones.
    ///
    /// Deliberately mixes only `[algorithm, n, threads]` — NOT `dtype` —
    /// so resumed sweeps recorded before the dtype axis existed keep their
    /// fault schedules, and dtype comparisons at one cell see identical
    /// measurement faults.
    pub(crate) fn cell_fault_seed(base: u64, spec: &RunSpec) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = base ^ 0xCBF2_9CE4_8422_2325;
        for v in [spec.algorithm as u64, spec.n as u64, spec.threads as u64] {
            h ^= v.wrapping_add(0x9E37_79B9_7F4A_7C15);
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    /// Runs one cell of the matrix: simulate, then measure the simulated
    /// schedule through the RAPL counter/meter stack (quantisation and
    /// wrap semantics included). With [`Harness::faults`] set, the
    /// counters are read through the fault-injection + recovery decorators
    /// and the result carries degradation metadata.
    pub fn run(&self, spec: RunSpec) -> RunResult {
        let graph = self.graph(spec.algorithm, spec.n);
        let schedule = simulate(&graph, &self.machine, spec.threads);
        let mk = schedule.makespan.max(1e-12);
        let samples = self.meter_samples.max(1);
        let dt = mk / samples as f64;

        let model = ModelReader::from_schedule(&schedule);
        let expected: Vec<Domain> = model.domains();
        let report = match &self.faults {
            None => {
                let mut reader = model;
                let mut meter = EnergyMeter::start(&mut reader);
                for _ in 0..samples {
                    reader.advance(dt);
                    meter.sample(&mut reader);
                }
                meter.finish(&mut reader, mk)
            }
            Some(plan) => {
                let cfg = FaultConfig {
                    seed: Self::cell_fault_seed(plan.seed, &spec),
                    ..plan.clone()
                };
                let mut reader = ResilientReader::with_config(
                    FaultInjectingReader::new(model, cfg),
                    self.resilience,
                );
                let mut meter = EnergyMeter::start(&mut reader);
                for _ in 0..samples {
                    reader.inner_mut().inner_mut().advance(dt);
                    meter.sample(&mut reader);
                }
                meter.finish(&mut reader, mk)
            }
        };

        let mut degraded_planes: Vec<Domain> = report.degraded_domains();
        // A plane whose opening read failed never makes it into the
        // report at all — that is the strongest form of degradation.
        for d in expected {
            if report.joules_for(d).is_none() && !degraded_planes.contains(&d) {
                degraded_planes.push(d);
            }
        }
        let quality = if degraded_planes.is_empty() {
            MeasureQuality::Full
        } else {
            MeasureQuality::Degraded
        };

        RunResult {
            spec,
            t_seconds: mk,
            pkg_watts: report.avg_watts(Domain::Package).unwrap_or(0.0),
            pp0_watts: report.avg_watts(Domain::PP0).unwrap_or(0.0),
            dram_watts: report.avg_watts(Domain::Dram).unwrap_or(0.0),
            flops: graph.total_flops(),
            dram_bytes: graph.total_dram_bytes(),
            comm_bytes: graph.total_comm_bytes(),
            utilisation: schedule.utilisation(),
            quality,
            degraded_planes,
            samples_failed: sum_quality(&report, |q| q.failed),
            wraps_corrected: sum_quality(&report, |q| q.wraps_corrected),
        }
    }

    /// Runs a full matrix of sizes × threads × all algorithms.
    ///
    /// Cells run under panic isolation ([`crate::sweep::run_sweep`]): a
    /// cell that panics is dropped from the result set instead of taking
    /// the whole matrix down. Use `run_sweep` directly for retry
    /// budgets, failure records and checkpoint/resume.
    pub fn run_matrix(&self, sizes: &[usize], threads: &[usize]) -> Vec<RunResult> {
        crate::sweep::run_sweep(self, sizes, threads, &crate::sweep::SweepOptions::default())
            .expect("infallible without a checkpoint directory")
            .results()
    }

    /// The paper's 48-run execution matrix (§VI-A).
    pub fn paper_matrix(&self) -> Vec<RunResult> {
        self.run_matrix(&crate::tables::PAPER_SIZES, &crate::tables::PAPER_THREADS)
    }
}

fn sum_quality(report: &EnergyReport, f: impl Fn(&powerscale_rapl::SampleQuality) -> u64) -> u64 {
    report.quality.iter().map(|(_, q)| f(q)).sum()
}

/// Simulates a prepared graph on the harness's machine (exposed for the
/// timeline artifacts and external tooling).
pub fn simulate_for(
    h: &Harness,
    graph: &TaskGraph,
    threads: usize,
) -> powerscale_machine::Schedule {
    simulate(graph, &h.machine, threads)
}

/// Finds the result for a given cell in a result set.
pub fn find(
    results: &[RunResult],
    algorithm: Algorithm,
    n: usize,
    threads: usize,
) -> Option<&RunResult> {
    results
        .iter()
        .find(|r| r.spec.algorithm == algorithm && r.spec.n == n && r.spec.threads == threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerscale_core::QualifiedEp;

    impl RunResult {
        /// Equation 1 tagged with measurement fidelity: a `Degraded` EP was
        /// computed from planes that lost samples or died mid-run — or is
        /// not a finite number at all (degenerate measurement window).
        fn ep_qualified(&self) -> QualifiedEp {
            let value = self.ep();
            QualifiedEp {
                value,
                quality: if value.is_finite() {
                    self.quality
                } else {
                    MeasureQuality::Degraded
                },
            }
        }
    }

    fn harness() -> Harness {
        Harness::default()
    }

    #[test]
    fn harness_runs_the_paper_configuration() {
        // The simulator, the paper figures, `multiply` and `serve` keep the
        // paper's cutoff 64 whatever the executed `default()` cutoff is.
        let h = harness();
        assert_eq!(h.strassen, StrassenConfig::paper());
        assert_eq!(
            h.caps,
            CapsConfig {
                dfs_ways: h.machine.cores,
                ..CapsConfig::paper()
            }
        );
    }

    #[test]
    fn single_run_sane() {
        let h = harness();
        let r = h.run(RunSpec::new(Algorithm::Blocked, 256, 2));
        assert!(r.t_seconds > 0.0);
        assert!(r.pkg_watts > 10.0 && r.pkg_watts < 100.0, "{}", r.pkg_watts);
        assert!(r.pp0_watts < r.pkg_watts);
        assert_eq!(r.flops, 2 * 256u64.pow(3));
        assert!(r.ep() > 0.0);
        assert!(r.gflops() > 1.0);
    }

    #[test]
    fn non_finite_ep_is_flagged_degraded() {
        let h = harness();
        let mut r = h.run(RunSpec::new(Algorithm::Blocked, 128, 1));
        assert_eq!(r.ep_qualified().quality, MeasureQuality::Full);
        // A degenerate watts reading (e.g. an upstream NaN that slipped
        // past the meter) must surface as Degraded, never as a clean EP.
        r.pkg_watts = f64::NAN;
        assert_eq!(r.ep_qualified().quality, MeasureQuality::Degraded);
        r.pkg_watts = f64::INFINITY;
        assert_eq!(r.ep_qualified().quality, MeasureQuality::Degraded);
    }

    #[test]
    fn meter_matches_schedule_energy() {
        // The RAPL path must agree with the simulator's own integration.
        let h = harness();
        let graph = h.graph(Algorithm::Strassen, 256);
        let s = simulate(&graph, &h.machine, 4);
        let direct = s.energy.pkg_avg_watts(s.makespan);
        let r = h.run(RunSpec::new(Algorithm::Strassen, 256, 4));
        assert!(
            (r.pkg_watts - direct).abs() < 0.05 * direct,
            "meter {} vs direct {}",
            r.pkg_watts,
            direct
        );
    }

    #[test]
    fn matrix_covers_all_cells() {
        let h = harness();
        let rs = h.run_matrix(&[128, 256], &[1, 2]);
        assert_eq!(rs.len(), 12);
        assert!(find(&rs, Algorithm::Caps, 256, 2).is_some());
        assert!(find(&rs, Algorithm::Caps, 512, 2).is_none());
    }

    #[test]
    fn blocked_fastest_at_paper_sizes() {
        let h = harness();
        for threads in [1usize, 4] {
            let b = h.run(RunSpec::new(Algorithm::Blocked, 512, threads));
            let s = h.run(RunSpec::new(Algorithm::Strassen, 512, threads));
            let c = h.run(RunSpec::new(Algorithm::Caps, 512, threads));
            assert!(b.t_seconds < s.t_seconds);
            assert!(b.t_seconds < c.t_seconds);
        }
    }

    #[test]
    fn determinism() {
        let h = harness();
        let spec = RunSpec::new(Algorithm::Caps, 512, 3);
        assert_eq!(h.run(spec), h.run(spec));
    }
}
