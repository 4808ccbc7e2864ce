//! The differential engine: every production multiply configuration run
//! against the compensated oracle on the same seeded operands.
//!
//! One sweep covers the full configuration matrix —
//!
//! | axis        | values                                        |
//! |-------------|-----------------------------------------------|
//! | algorithm   | blocked GEMM, Strassen (classic), CAPS        |
//! | kernel      | scalar tier / SIMD tier                       |
//! | distribution| single SMP / simulated 2- and 7-node clusters (CAPS) |
//!
//! — 10 candidate runs per matrix size, each scored by
//! [`max_rel_error`](crate::oracle::max_rel_error) against a single
//! oracle product computed once. The kernel tier is a field of the
//! explicit [`Dispatch`] each run carries in its config — nothing is
//! process-global — so the cells of a sweep run on parallel threads, one
//! pool per runner thread.
//!
//! A second sweep, `run_kernel_matrix`, covers the *kernel* matrix:
//! every dispatchable ISA×dtype instance ([`available_kernels`]) pinned
//! via [`Dispatch::with_kernel`] and driven through the blocked driver
//! (at the host's blocking and in each of
//! [`BlockingParams::regimes_for`]'s regimes) and the Strassen
//! recursion's fused leaf, scored against the same oracle with
//! precision-appropriate bounds ([`dtype_tol`]).
//!
//! Recursion depth is held constant across sizes by setting the
//! Strassen/CAPS cutoff to `n / 8` (three levels), which keeps the
//! rounding-error envelope uniform and lets one tolerance (`1e-12` by
//! default, the bound the paper's reproduction demands) serve every size
//! in `{256, 512, 1024}`.

use crate::oracle::{max_rel_error, reference_mm};
use powerscale_caps::CapsConfig;
use powerscale_cluster::DistCapsConfig;
use powerscale_gemm::{
    available_kernels, dgemm, scalar_kernel, simd_kernel, BlockingParams, Dispatch, DtypeTier,
    GemmContext,
};
use powerscale_matrix::{Matrix, MatrixGen};
use powerscale_pool::ThreadPool;
use powerscale_strassen::StrassenConfig;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The multiply one sweep cell drives.
#[derive(Debug, Clone, Copy)]
enum Algo {
    /// Blocked DGEMM at the given blocking, or the dispatch's autotuned
    /// one.
    Blocked(Option<BlockingParams>),
    Strassen,
    Caps,
    DistCaps {
        nodes: usize,
    },
}

/// One sweep cell: a multiply under one explicit dispatch.
struct Cell {
    label: String,
    algo: Algo,
    dispatch: Dispatch,
}

/// Operands, recursion cutoff and pool width shared by a sweep's cells.
struct Sweep {
    a: Matrix,
    b: Matrix,
    reference: Matrix,
    cutoff: usize,
    threads: usize,
}

impl Sweep {
    fn new(cfg: &DiffConfig, cutoff: usize) -> Self {
        let mut gen = MatrixGen::new(cfg.seed);
        let a = gen.paper_operand(cfg.n);
        let b = gen.paper_operand(cfg.n);
        let reference = reference_mm(&a.view(), &b.view());
        Sweep {
            a,
            b,
            reference,
            cutoff,
            threads: cfg.threads,
        }
    }

    /// Runs one cell on `pool` and scores it against the oracle.
    fn rel_err(&self, cell: &Cell, pool: &ThreadPool) -> f64 {
        let (a, b, dispatch) = (&self.a, &self.b, cell.dispatch);
        let c = match cell.algo {
            Algo::Blocked(params) => {
                let mut c = Matrix::zeros(a.rows(), b.cols());
                let mut ctx = GemmContext::new(dispatch, Some(pool), None);
                if let Some(params) = params {
                    ctx.params = params;
                }
                dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &ctx)
                    .expect("blocked dgemm dimensions");
                c
            }
            Algo::Strassen => {
                let cfg = StrassenConfig {
                    cutoff: self.cutoff,
                    dispatch,
                    ..StrassenConfig::default()
                };
                powerscale_strassen::multiply(&a.view(), &b.view(), &cfg, Some(pool), None)
                    .expect("strassen dimensions")
            }
            Algo::Caps => {
                let cfg = CapsConfig {
                    cutoff: self.cutoff,
                    dispatch,
                    ..CapsConfig::default()
                };
                powerscale_caps::multiply(&a.view(), &b.view(), &cfg, Some(pool), None)
                    .expect("caps dimensions")
            }
            // Distributed CAPS over simulated message passing: the
            // transport is in the loop and node-local leaves run the
            // cell's dispatch (the distributed executor keeps its
            // arithmetic tree identical to a single-node run at the
            // paper's cutoff, so the oracle bound is unchanged).
            Algo::DistCaps { nodes } => {
                let cfg = DistCapsConfig {
                    caps: CapsConfig {
                        dispatch,
                        ..CapsConfig::paper()
                    },
                    ..DistCapsConfig::paper()
                };
                powerscale_cluster::dist_caps_multiply(
                    a,
                    b,
                    &cfg,
                    &powerscale_cluster::presets::e3_1225_net(nodes),
                )
                .expect("dist caps dimensions")
                .c
            }
        };
        max_rel_error(&c.view(), &self.reference.view())
    }

    /// Scores every cell, in order. Cells are independent (each carries
    /// its own dispatch), so runner threads — one per host CPU, at least
    /// two, each with its own pool so group-affine CAPS installs its
    /// layout undisturbed — pull them from a shared counter.
    fn run(&self, cells: &[Cell]) -> Vec<f64> {
        let runners = std::thread::available_parallelism()
            .map_or(2, |p| p.get().max(2))
            .min(cells.len());
        let next = AtomicUsize::new(0);
        let mut scored: Vec<(usize, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..runners)
                .map(|_| {
                    scope.spawn(|| {
                        let pool = ThreadPool::new(self.threads);
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(cell) = cells.get(i) else { break out };
                            out.push((i, self.rel_err(cell, &pool)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep runner panicked"))
                .collect()
        });
        scored.sort_unstable_by_key(|&(i, _)| i);
        scored.into_iter().map(|(_, err)| err).collect()
    }
}

/// Parameters of one differential sweep.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Matrix dimension (operands are `n × n`).
    pub n: usize,
    /// Seed of the operand generator.
    pub seed: u64,
    /// Pool width for the parallel runs (≥ 7 installs CAPS's seven
    /// worker groups).
    pub threads: usize,
    /// Acceptance bound on the max-norm relative error of every case.
    pub tol: f64,
}

impl DiffConfig {
    /// The standard sweep at dimension `n`: seeded by the size (so each
    /// size sees distinct operands), 8 workers, the paper bound `1e-12`.
    pub fn for_size(n: usize) -> Self {
        DiffConfig {
            n,
            seed: 0x0D1F_F000 + n as u64,
            threads: 8,
            tol: 1e-12,
        }
    }
}

/// Score of one candidate configuration against the oracle.
#[derive(Debug, Clone)]
pub(crate) struct DiffCase {
    /// Human-readable configuration label, e.g. `strassen/simd`.
    pub label: String,
    /// Max-norm relative error against the compensated reference.
    pub rel_err: f64,
}

/// Runs the full configuration matrix at `cfg` and returns every case's
/// score. Panics only on dimension errors (a harness bug), never on
/// tolerance — use [`assert_differential`] for the asserting form.
pub(crate) fn run_differential(cfg: &DiffConfig) -> Vec<DiffCase> {
    let mut cells = Vec::new();
    // The scalar f64 kernel and the host's best SIMD one (scalar again on
    // a host without SIMD, so the matrix degrades instead of aborting).
    let tiers = [
        ("scalar", scalar_kernel()),
        ("simd", simd_kernel().unwrap_or(scalar_kernel())),
    ];
    for (tl, kernel) in tiers {
        for (name, algo) in [
            ("blocked", Algo::Blocked(None)),
            ("strassen", Algo::Strassen),
            ("caps", Algo::Caps),
        ] {
            cells.push(Cell {
                label: format!("{name}/{tl}"),
                algo,
                dispatch: Dispatch::default().with_kernel(kernel),
            });
        }
    }
    for nodes in [2usize, 7] {
        for (tl, kernel) in tiers {
            cells.push(Cell {
                label: format!("dist-caps/P{nodes}/{tl}"),
                algo: Algo::DistCaps { nodes },
                dispatch: Dispatch::default().with_kernel(kernel),
            });
        }
    }
    let errs = Sweep::new(cfg, (cfg.n / 8).max(8)).run(&cells);
    cells
        .into_iter()
        .zip(errs)
        .map(|(cell, rel_err)| DiffCase {
            label: cell.label,
            rel_err,
        })
        .collect()
}

/// Runs the sweep and asserts every case meets `cfg.tol`, reporting all
/// failures (not just the first) with their observed errors.
pub fn assert_differential(cfg: &DiffConfig) {
    let cases = run_differential(cfg);
    assert_eq!(cases.len(), 10, "configuration matrix shrank unexpectedly");
    let failures: Vec<String> = cases
        .iter()
        .filter(|c| c.rel_err > cfg.tol || c.rel_err.is_nan())
        .map(|c| format!("  {}: rel err {:.3e} > {:.1e}", c.label, c.rel_err, cfg.tol))
        .collect();
    assert!(
        failures.is_empty(),
        "differential oracle failures at n = {}:\n{}",
        cfg.n,
        failures.join("\n")
    );
}

/// The acceptance bound for one dtype tier, given the f64 bound.
///
/// * **f64** — the configured bound (`1e-12` by default: the paper's
///   reproduction tolerance).
/// * **mixed** — `5e-6`: products are computed and accumulated in f64,
///   so the only extra rounding is the single f64→f32 pack of each
///   operand element (relative error ≤ 2⁻²⁴ each); Strassen's
///   add/subtract cancellation amplifies it by a bounded factor.
/// * **f32** — `2e-3`: both the pack rounding *and* every product and
///   partial sum round to 24 bits, so the error grows with the
///   accumulation depth `k` and the recursion's cancellation.
pub fn dtype_tol(dtype: DtypeTier, f64_tol: f64) -> f64 {
    match dtype {
        DtypeTier::F64 => f64_tol,
        DtypeTier::Mixed => 5e-6,
        DtypeTier::F32 => 2e-3,
    }
}

/// Score of one (kernel instance × algorithm) cell against the oracle.
#[derive(Debug, Clone)]
pub(crate) struct KernelCase {
    /// Configuration label, e.g. `strassen/avx2-f32`.
    pub label: String,
    /// The kernel's dtype tier (decides the acceptance bound).
    pub dtype: DtypeTier,
    /// Max-norm relative error against the compensated reference.
    pub rel_err: f64,
}

/// Runs every dispatchable kernel instance (ISA tier × dtype tier) through
/// the blocked driver and through the Strassen recursion — the
/// kernel-level companion to [`run_differential`]'s algorithm matrix.
/// [`CELLS_PER_KERNEL`] cells per kernel: `blocked` at the host's
/// blocking, `blocked@{regime}` in each of
/// [`BlockingParams::regimes_for`]'s regimes, and `strassen`.
pub(crate) fn run_kernel_matrix(cfg: &DiffConfig) -> Vec<KernelCase> {
    let mut cells = Vec::new();
    for kernel in available_kernels() {
        let regimes = BlockingParams::regimes_for(kernel)
            .map(|(regime, p)| (format!("blocked@{regime}"), Algo::Blocked(Some(p))));
        let algos = [("blocked".to_string(), Algo::Blocked(None))]
            .into_iter()
            .chain(regimes)
            .chain([("strassen".to_string(), Algo::Strassen)]);
        for (name, algo) in algos {
            cells.push(Cell {
                label: format!("{name}/{}", kernel.name),
                algo,
                dispatch: Dispatch::default().with_kernel(kernel),
            });
        }
    }
    let errs = Sweep::new(cfg, (cfg.n / 4).max(8)).run(&cells);
    cells
        .into_iter()
        .zip(errs)
        .map(|(cell, rel_err)| KernelCase {
            dtype: cell.dispatch.kernel().dtype,
            label: cell.label,
            rel_err,
        })
        .collect()
}

/// Cells [`run_kernel_matrix`] runs per kernel.
const CELLS_PER_KERNEL: usize = 4;

/// Runs the kernel matrix and asserts every cell meets its
/// dtype-appropriate bound ([`dtype_tol`] of `cfg.tol`), reporting all
/// failures with their observed errors.
pub fn assert_kernel_matrix(cfg: &DiffConfig) {
    let cases = run_kernel_matrix(cfg);
    assert_eq!(
        cases.len(),
        CELLS_PER_KERNEL * available_kernels().len(),
        "kernel matrix shrank unexpectedly"
    );
    for dtype in DtypeTier::ALL {
        assert!(
            cases.iter().any(|c| c.dtype == dtype),
            "no cell exercises the {dtype} tier"
        );
    }
    let failures: Vec<String> = cases
        .iter()
        .filter(|c| c.rel_err > dtype_tol(c.dtype, cfg.tol) || c.rel_err.is_nan())
        .map(|c| {
            format!(
                "  {}: rel err {:.3e} > {:.1e}",
                c.label,
                c.rel_err,
                dtype_tol(c.dtype, cfg.tol)
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "kernel-matrix oracle failures at n = {}:\n{}",
        cfg.n,
        failures.join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_matrix_covers_every_tier_and_leaf_mode() {
        let cfg = DiffConfig::for_size(96);
        let cases = run_kernel_matrix(&cfg);
        assert_eq!(cases.len(), CELLS_PER_KERNEL * available_kernels().len());
        for kernel in available_kernels() {
            for expected in [
                format!("blocked/{}", kernel.name),
                format!("blocked@tiny-caches/{}", kernel.name),
                format!("blocked@kc136/{}", kernel.name),
                format!("strassen/{}", kernel.name),
            ] {
                assert!(
                    cases.iter().any(|c| c.label == expected),
                    "missing cell {expected}"
                );
            }
        }
    }

    #[test]
    fn kernel_matrix_meets_dtype_bounds() {
        assert_kernel_matrix(&DiffConfig::for_size(128));
    }

    #[test]
    fn lower_tiers_actually_compute_in_lower_precision() {
        // A sanity check on the matrix itself: the f32 tier must be
        // *measurably* less accurate than f64 (else the pin is not
        // reaching the kernels), and mixed must sit strictly between.
        let cases = run_kernel_matrix(&DiffConfig::for_size(128));
        let worst = |dtype: DtypeTier| -> f64 {
            cases
                .iter()
                .filter(|c| c.dtype == dtype)
                .map(|c| c.rel_err)
                .fold(0.0, f64::max)
        };
        let (w64, wmx, w32) = (
            worst(DtypeTier::F64),
            worst(DtypeTier::Mixed),
            worst(DtypeTier::F32),
        );
        assert!(w64 < 1e-12, "f64 worst {w64}");
        assert!(wmx > w64 && wmx < 1e-5, "mixed worst {wmx}");
        assert!(w32 > wmx, "f32 worst {w32} not above mixed {wmx}");
    }

    #[test]
    fn sweep_covers_the_whole_matrix_at_a_small_size() {
        let cfg = DiffConfig {
            tol: 1e-13,
            ..DiffConfig::for_size(64)
        };
        let cases = run_differential(&cfg);
        assert_eq!(cases.len(), 10);
        let labels: Vec<&str> = cases.iter().map(|c| c.label.as_str()).collect();
        for expected in [
            "blocked/scalar",
            "blocked/simd",
            "strassen/scalar",
            "strassen/simd",
            "caps/scalar",
            "caps/simd",
            "dist-caps/P7/simd",
        ] {
            assert!(labels.contains(&expected), "missing case {expected}");
        }
        for c in &cases {
            assert!(
                c.rel_err <= cfg.tol,
                "{} off by {:.3e} at n = 64",
                c.label,
                c.rel_err
            );
        }
    }
}
