//! Run specification and the simulated-measurement runner.

use powerscale_caps::CapsConfig;
use powerscale_core::PlaneSet;
use powerscale_gemm::{BlockingParams, DtypeTier};
use powerscale_machine::{simulate, MachineConfig, TaskGraph};
use powerscale_rapl::{model::ModelReader, Domain, EnergyMeter};
use powerscale_strassen::StrassenConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::Write;

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
    /// (`Harness::run_real` dispatches kernels of this tier) and is
    /// carried through the matrix and `results.json` as scenario
    /// metadata.
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
}

impl RunResult {
    /// Equation 1 on the package plane (the paper's primary reading).
    pub fn ep(&self) -> f64 {
        self.pkg_watts / self.t_seconds
    }

    /// The run's power planes as an Equation 3 set
    /// (package already contains PP0; the DRAM plane is separate).
    pub fn planes(&self) -> PlaneSet {
        PlaneSet::new(&[self.pkg_watts, self.dram_watts])
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
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new(powerscale_machine::presets::e3_1225())
    }
}

impl Harness {
    /// A harness on `machine` with the paper's algorithm configurations
    /// ([`StrassenConfig::paper`], [`CapsConfig::paper`]): cutoff 64 for
    /// the simulator, the paper figures and [`Harness::multiply`] alike.
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
            caps: CapsConfig::paper(),
            machine,
            meter_samples: 64,
        }
    }

    /// Builds the task graph for one spec. CAPS shares its DFS steps
    /// across all of the machine's cores.
    pub fn graph(&self, algorithm: Algorithm, n: usize) -> TaskGraph {
        let tm = self.machine.traffic_model();
        match algorithm {
            Algorithm::Blocked => {
                powerscale_gemm::plan::blocked_gemm_graph_with(n, &self.blocking, &tm)
            }
            Algorithm::Strassen => powerscale_strassen::strassen_graph_with(n, &self.strassen, &tm),
            Algorithm::Caps => {
                powerscale_caps::caps_graph_with(n, &self.caps, self.machine.cores, &tm)
            }
        }
    }

    /// Runs one cell of the matrix: simulate, then measure the simulated
    /// schedule through the RAPL counter/meter stack (quantisation and
    /// wrap semantics included).
    pub fn run(&self, spec: RunSpec) -> RunResult {
        let graph = self.graph(spec.algorithm, spec.n);
        let schedule = simulate(&graph, &self.machine, spec.threads);
        let mk = schedule.makespan.max(1e-12);
        let samples = self.meter_samples.max(1);
        let dt = mk / samples as f64;

        let mut reader = ModelReader::from_schedule(&schedule);
        let mut meter = EnergyMeter::start(&mut reader);
        for _ in 0..samples {
            reader.advance(dt);
            meter.sample(&mut reader);
        }
        let report = meter.finish(&mut reader, mk);

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
        }
    }

    /// Runs a full matrix of all algorithms × sizes × threads, every cell
    /// stamped with `dtype`, in that order.
    ///
    /// A cell that panics is a bug, not a measurement: the panic
    /// propagates and stderr names the cell.
    pub fn run_matrix(
        &self,
        sizes: &[usize],
        threads: &[usize],
        dtype: DtypeTier,
    ) -> Vec<RunResult> {
        let mut results = Vec::with_capacity(ALL_ALGORITHMS.len() * sizes.len() * threads.len());
        for &algorithm in &ALL_ALGORITHMS {
            for &n in sizes {
                for &t in threads {
                    let spec = RunSpec::new(algorithm, n, t).with_dtype(dtype);
                    let _span = powerscale_trace::span_args(
                        powerscale_trace::Category::Harness,
                        "cell",
                        n as u32,
                        t as u32,
                    );
                    let _cell = NameOnPanic(spec);
                    results.push(self.run(spec));
                }
            }
        }
        results
    }

    /// The paper's 48-run execution matrix (§VI-A), in f64.
    pub fn paper_matrix(&self) -> Vec<RunResult> {
        self.run_matrix(
            &crate::tables::PAPER_SIZES,
            &crate::tables::PAPER_THREADS,
            DtypeTier::F64,
        )
    }
}

/// Names a matrix cell on stderr if its run unwinds.
struct NameOnPanic(RunSpec);

impl Drop for NameOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let s = self.0;
            // A write error is ignored: a panic here would abort.
            let _ = writeln!(
                std::io::stderr(),
                "cell panicked: {} n={} t={} dtype={}",
                s.algorithm,
                s.n,
                s.threads,
                s.dtype
            );
        }
    }
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

    fn harness() -> Harness {
        Harness::default()
    }

    #[test]
    fn harness_runs_the_paper_configuration() {
        // The simulator, the paper figures, `multiply` and `serve` keep the
        // paper's cutoff 64 whatever the executed `default()` cutoff is.
        let h = harness();
        assert_eq!(h.strassen, StrassenConfig::paper());
        assert_eq!(h.caps, CapsConfig::paper());
    }

    #[test]
    fn caps_plan_shares_dfs_steps_across_the_machine_cores() {
        // An all-DFS plan is one work-shared subtree: one band per core.
        let e3 = powerscale_machine::presets::e3_1225();
        let two_core = MachineConfig {
            cores: 2,
            ..e3.clone()
        };
        for machine in [two_core, e3] {
            let cores = machine.cores;
            let mut h = Harness::new(machine);
            h.caps.cutoff_depth = 0;
            assert_eq!(h.graph(Algorithm::Caps, 1024).len(), cores);
        }
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
        let rs = h.run_matrix(&[128, 256], &[1, 2], DtypeTier::F64);
        assert_eq!(rs.len(), 12);
        assert!(find(&rs, Algorithm::Caps, 256, 2).is_some());
        assert!(find(&rs, Algorithm::Caps, 512, 2).is_none());
    }

    #[test]
    fn matrix_cells_match_direct_runs() {
        // Every cell, in algorithm × size × threads order, is a direct run.
        let h = harness();
        let rs = h.run_matrix(&[128, 256], &[1, 2], DtypeTier::F32);
        let mut cells = rs.iter();
        for algorithm in ALL_ALGORITHMS {
            for n in [128, 256] {
                for t in [1, 2] {
                    let spec = RunSpec::new(algorithm, n, t).with_dtype(DtypeTier::F32);
                    assert_eq!(cells.next(), Some(&h.run(spec)));
                }
            }
        }
        assert_eq!(cells.next(), None);
    }

    #[test]
    fn run_result_round_trips_through_json() {
        // `reproduce --out` writes `results.json` from these values.
        let rs = harness().run_matrix(&[128], &[2], DtypeTier::Mixed);
        let json = serde_json::to_string_pretty(&rs).unwrap();
        let back: Vec<RunResult> = serde_json::from_str(&json).unwrap();
        assert_eq!(rs, back);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn panicking_cell_stops_the_matrix() {
        // A cell that panics is a bug: the matrix stops and returns no
        // partial result set.
        harness().run_matrix(&[128], &[1, 0], DtypeTier::F64);
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
