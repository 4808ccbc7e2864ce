//! Real-execution bridge: run the actual algorithms on the host with full
//! instrumentation, then estimate power by feeding the *measured* event
//! profile through the machine model.
//!
//! This is the path a port to instrumented hardware takes: wall-clock time
//! is real, work counters are real, and only the watts come from the model
//! (or from real RAPL via [`powerscale_rapl::sysfs::SysfsReader`], when the
//! host exposes it). The `real_execution` example drives it; tests use it
//! to cross-check that the simulated plans and the real executions agree
//! on *work* even though they measure *time* differently.

use crate::experiment::{Algorithm, Harness, RunSpec};
use powerscale_caps::CapsConfig;
use powerscale_counters::{EventSet, Profile};
use powerscale_gemm::{Dispatch, DtypeTier, GemmContext};
use powerscale_machine::{simulate, KernelClass, TaskCost, TaskGraph};
use powerscale_matrix::{Matrix, MatrixGen};
use powerscale_pool::ThreadPool;
use powerscale_strassen::StrassenConfig;

/// Deterministic operands for a spec, seeded from `n` alone.
///
/// The seed must NOT mix in `spec.threads`: EP scaling ratios
/// `S = EP_p / EP_1` compare runs at different thread counts, which is
/// only meaningful when they multiply the same matrices. (An earlier
/// `(n << 8) | threads` seed also aliased `threads ≥ 256` into `n`.)
pub fn operands_for(spec: &RunSpec) -> (Matrix, Matrix) {
    let mut gen = MatrixGen::new(spec.n as u64);
    let a = gen.paper_operand(spec.n);
    let b = gen.paper_operand(spec.n);
    (a, b)
}

/// Outcome of one instrumented real run.
#[derive(Debug, Clone)]
pub struct RealRunResult {
    /// The run's specification.
    pub spec: RunSpec,
    /// Host wall-clock seconds (not comparable across hosts — use the
    /// simulated path for the paper's tables).
    pub wall_seconds: f64,
    /// The measured event profile.
    pub profile: Profile,
    /// Package watts the machine model predicts for this profile executed
    /// on the simulated testbed at the spec's thread count.
    pub model_pkg_watts: f64,
    /// The product, for verification against an oracle.
    pub result: Matrix,
}

impl Harness {
    /// Runs the algorithm *for real* on `pool`, instrumented, and returns
    /// wall time + profile + model-estimated power.
    ///
    /// Operands are seeded from the spec, so identical specs multiply
    /// identical matrices.
    pub fn run_real(&self, spec: RunSpec, pool: &ThreadPool) -> RealRunResult {
        let run_name = match spec.algorithm {
            Algorithm::Blocked => "run:blocked",
            Algorithm::Strassen => "run:strassen",
            Algorithm::Caps => "run:caps",
        };
        let _span = powerscale_trace::span_args(
            powerscale_trace::Category::Harness,
            run_name,
            spec.n as u32,
            spec.threads as u32,
        );
        let (a, b) = operands_for(&spec);
        let mut set = EventSet::with_all_events();
        set.start().expect("fresh event set");
        let t0 = std::time::Instant::now();
        let result = self.multiply(spec.algorithm, spec.dtype, &a, &b, Some(pool), Some(&set));
        let wall_seconds = t0.elapsed().as_secs_f64();
        let profile = set.stop().expect("running event set");

        // Model-estimated power: one fluid task per worker carrying an
        // equal share of the measured profile.
        let model_pkg_watts = self.profile_power(spec, &profile);

        RealRunResult {
            spec,
            wall_seconds,
            profile,
            model_pkg_watts,
            result,
        }
    }

    /// `A · B` (square operands) by `algorithm` at tier `dtype`, on `pool`
    /// (`None` = inline on the calling thread). The tier reaches the
    /// kernels as an explicit [`Dispatch`] carried by this call alone, so
    /// concurrent multiplies at different tiers do not interact.
    pub fn multiply(
        &self,
        algorithm: Algorithm,
        dtype: DtypeTier,
        a: &Matrix,
        b: &Matrix,
        pool: Option<&ThreadPool>,
        events: Option<&EventSet>,
    ) -> Matrix {
        match algorithm {
            Algorithm::Blocked => {
                let mut c = Matrix::zeros(a.rows(), b.cols());
                // Blocking is derived for the dispatched kernel's tile
                // shape — `self.blocking` tracks the simulated machine's
                // f64 tile and would misalign under other tiers.
                let ctx = GemmContext::new(Dispatch::default().with_dtype(dtype), pool, events);
                powerscale_gemm::dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &ctx)
                    .expect("square operands are valid");
                c
            }
            Algorithm::Strassen => {
                let cfg = StrassenConfig {
                    dispatch: self.strassen.dispatch.with_dtype(dtype),
                    ..self.strassen
                };
                powerscale_strassen::multiply(&a.view(), &b.view(), &cfg, pool, events)
                    .expect("square operands are valid")
            }
            Algorithm::Caps => {
                let cfg = CapsConfig {
                    dispatch: self.caps.dispatch.with_dtype(dtype),
                    ..self.caps
                };
                powerscale_caps::multiply(&a.view(), &b.view(), &cfg, pool, events)
                    .expect("square operands are valid")
            }
        }
    }

    /// Estimates package watts for a measured profile: splits the profile
    /// into `threads` fluid shares of the appropriate kernel class and
    /// simulates them on the machine preset.
    pub fn profile_power(&self, spec: RunSpec, profile: &Profile) -> f64 {
        let class = match spec.algorithm {
            Algorithm::Blocked => KernelClass::PackedGemm,
            _ => KernelClass::LeafGemm,
        };
        let total = TaskCost::from_profile(class, profile);
        let mut g = TaskGraph::new();
        let ways = spec.threads.max(1) as u64;
        for w in 0..ways {
            let f = total.flops / ways + u64::from(w < total.flops % ways);
            let d = total.dram_bytes / ways + u64::from(w < total.dram_bytes % ways);
            let c = total.comm_bytes / ways + u64::from(w < total.comm_bytes % ways);
            g.add(TaskCost::new(class, f, d, c), &[]);
        }
        let s = simulate(&g, &self.machine, spec.threads);
        s.energy.pkg_avg_watts(s.makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_run_produces_verified_result() {
        let h = Harness::default();
        let pool = ThreadPool::new(2);
        let spec = RunSpec::new(Algorithm::Strassen, 96, 2);
        let r = h.run_real(spec, &pool);
        assert!(r.wall_seconds > 0.0);
        assert!(r.profile.total_flops() > 0);
        assert!(r.model_pkg_watts > 10.0, "{}", r.model_pkg_watts);
        // Verify the product against the oracle built from the same seed.
        let (a, b) = operands_for(&spec);
        let oracle = powerscale_gemm::naive::naive_mm(&a.view(), &b.view()).unwrap();
        let err = powerscale_matrix::norms::rel_frobenius_error(&r.result.view(), &oracle.view());
        assert!(err < 1e-10, "err {err}");
    }

    #[test]
    fn operands_bitwise_identical_across_thread_counts() {
        // Regression: the seed once mixed in `spec.threads`, so EP scaling
        // ratios compared products of different matrices. Two specs that
        // differ only in thread count must generate bitwise-identical
        // operands — including thread counts ≥ 256, which the old
        // `(n << 8) | threads` encoding aliased into `n`.
        let base = RunSpec::new(Algorithm::Caps, 64, 1);
        let (a1, b1) = operands_for(&base);
        for threads in [2usize, 7, 64, 256, 1024] {
            let spec = RunSpec { threads, ..base };
            let (a2, b2) = operands_for(&spec);
            let bits =
                |m: &Matrix| -> Vec<u64> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
            assert_eq!(bits(&a1), bits(&a2), "A differs at threads={threads}");
            assert_eq!(bits(&b1), bits(&b2), "B differs at threads={threads}");
        }
        // Different n still means different operands (same length prefix).
        let (a_small, _) = operands_for(&RunSpec { n: 32, ..base });
        let k = a_small.as_slice().len();
        assert_ne!(
            &a1.as_slice()[..k],
            a_small.as_slice(),
            "operands must still vary with n"
        );
    }

    #[test]
    fn dtype_axis_drives_real_runs() {
        // The scenario axis must actually change which kernels execute:
        // lower tiers stay correct at their (looser) precision.
        let h = Harness::default();
        let pool = ThreadPool::new(2);
        for (dtype, tol) in [
            (DtypeTier::F64, 1e-12),
            (DtypeTier::Mixed, 1e-5),
            (DtypeTier::F32, 1e-2),
        ] {
            for algorithm in [Algorithm::Blocked, Algorithm::Strassen] {
                let spec = RunSpec::new(algorithm, 96, 2).with_dtype(dtype);
                let r = h.run_real(spec, &pool);
                let (a, b) = operands_for(&spec);
                let oracle = powerscale_gemm::naive::naive_mm(&a.view(), &b.view()).unwrap();
                let err =
                    powerscale_matrix::norms::rel_frobenius_error(&r.result.view(), &oracle.view());
                assert!(err < tol, "{algorithm:?} {dtype}: err {err} vs tol {tol}");
                if dtype == DtypeTier::F64 {
                    assert!(err < 1e-12, "f64 must stay at full precision: {err}");
                }
            }
        }
    }

    #[test]
    fn concurrent_real_runs_at_different_dtypes_match_serial_bitwise() {
        // Each run carries its own dispatch, so two runs at different
        // tiers on two threads compute exactly what they compute alone.
        let h = Harness::default();
        let spec = |algorithm, dtype| RunSpec::new(algorithm, 96, 2).with_dtype(dtype);
        let pairs = [
            (
                spec(Algorithm::Strassen, DtypeTier::F64),
                spec(Algorithm::Strassen, DtypeTier::F32),
            ),
            (
                spec(Algorithm::Blocked, DtypeTier::Mixed),
                spec(Algorithm::Caps, DtypeTier::F64),
            ),
        ];
        for (left, right) in pairs {
            let serial = [left, right].map(|s| h.run_real(s, &ThreadPool::new(2)).result);
            for _ in 0..4 {
                let start = std::sync::Barrier::new(2);
                let run = |s: RunSpec| {
                    let pool = ThreadPool::new(2);
                    start.wait();
                    h.run_real(s, &pool).result
                };
                let (l, r) = std::thread::scope(|scope| {
                    let l = scope.spawn(|| run(left));
                    let r = scope.spawn(|| run(right));
                    (l.join().unwrap(), r.join().unwrap())
                });
                assert_eq!(l, serial[0], "{left:?} drifted beside {right:?}");
                assert_eq!(r, serial[1], "{right:?} drifted beside {left:?}");
            }
        }
    }

    #[test]
    fn real_flops_match_plan_flops() {
        // The real execution and the simulated plan must agree on the work
        // (flops), even though they measure time differently.
        let h = Harness::default();
        let pool = ThreadPool::new(2);
        for algorithm in [Algorithm::Blocked, Algorithm::Strassen, Algorithm::Caps] {
            let spec = RunSpec::new(algorithm, 128, 2);
            let real = h.run_real(spec, &pool);
            let plan = h.graph(algorithm, 128);
            let real_flops = real.profile.total_flops();
            let plan_flops = plan.total_flops();
            // Blocked DGEMM at beta = 0 has no beta pass (its first panel
            // stores), so it counts the plan's 2n³; allow a 1% band.
            let ratio = real_flops as f64 / plan_flops as f64;
            assert!(
                (0.99..1.01).contains(&ratio),
                "{algorithm:?}: real {real_flops} vs plan {plan_flops}"
            );
        }
    }

    #[test]
    fn blocked_power_estimate_exceeds_strassen_estimate() {
        // The model must reproduce the paper's ordering from *measured*
        // profiles too, not just from plans.
        let h = Harness::default();
        let pool = ThreadPool::new(4);
        let blocked = h.run_real(RunSpec::new(Algorithm::Blocked, 128, 4), &pool);
        let strassen = h.run_real(RunSpec::new(Algorithm::Strassen, 128, 4), &pool);
        assert!(
            blocked.model_pkg_watts > strassen.model_pkg_watts,
            "blocked {} W vs strassen {} W",
            blocked.model_pkg_watts,
            strassen.model_pkg_watts
        );
    }
}
