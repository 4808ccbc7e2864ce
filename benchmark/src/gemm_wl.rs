//! The two multiply workloads: `gemm_large` (n = 2048 on a 2-thread pool)
//! and `gemm_1t` (n = 512 and 1024, no pool). Both interleave blocked
//! DGEMM, classic Strassen and CAPS on the same operands, check every
//! product, and report each algorithm's rate from per-size median times.

use crate::host;
use crate::layers;
use crate::run::{self, timed, Ctx, Mode, Report, GFLOPS_METRICS};
use crate::stats::{self, Sample};
use crate::trace::Recorder;
use powerscale::caps::{self, CapsConfig};
use powerscale::gemm::{self, GemmContext};
use powerscale::matrix::{Matrix, MatrixGen};
use powerscale::pool::ThreadPool;
use powerscale::strassen::{self, StrassenConfig};

/// The three algorithms, in the order a round runs them.
pub const ALGOS: [&str; 3] = ["blocked", "strassen", "caps"];

/// Freivalds tolerance: `‖C·x − A·(B·x)‖ / ‖C·x‖`.
const FREIVALDS_TOL: f64 = 1e-10;

/// One problem size with its operands and the Freivalds reference.
pub struct Case {
    /// Dimension.
    pub n: usize,
    /// Left operand.
    pub a: Matrix,
    /// Right operand.
    pub b: Matrix,
    x: Vec<f64>,
    abx: Vec<f64>,
    /// The latest product of each algorithm. Blocked DGEMM writes into its
    /// slot in place (allocated once, as a caller of `dgemm` would); the
    /// recursions return a fresh matrix that replaces theirs.
    pub products: [Matrix; 3],
}

fn matvec(m: &Matrix, x: &[f64]) -> Vec<f64> {
    (0..m.rows())
        .map(|i| m.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

impl Case {
    /// Operands for size `n` drawn from `gen`, plus the probe vector.
    pub fn new(gen: &mut MatrixGen, n: usize) -> Self {
        let a = gen.paper_operand(n);
        let b = gen.paper_operand(n);
        let x: Vec<f64> = gen.uniform(1, n, -1.0, 1.0).as_slice().to_vec();
        let abx = matvec(&a, &matvec(&b, &x));
        Case {
            n,
            a,
            b,
            x,
            abx,
            products: [
                Matrix::zeros(n, n),
                Matrix::zeros(0, 0),
                Matrix::zeros(0, 0),
            ],
        }
    }

    /// Freivalds probe of the latest product of `algo`.
    pub fn freivalds(&self, algo: usize) -> bool {
        self.freivalds_of(&self.products[algo])
    }

    /// Freivalds probe of a claimed product.
    pub fn freivalds_of(&self, c: &Matrix) -> bool {
        let cx = matvec(c, &self.x);
        let num: f64 = cx
            .iter()
            .zip(&self.abx)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let den: f64 = cx.iter().map(|p| p * p).sum::<f64>().sqrt();
        den > 0.0 && num / den <= FREIVALDS_TOL
    }

    /// Classical flop count `2n³`.
    pub fn flops(&self) -> f64 {
        2.0 * (self.n as f64).powi(3)
    }
}

/// Runs `algo` on `case`, leaving the product in `case.products[algo]`;
/// returns the call's wall seconds.
pub fn run_algo(
    rec: &Recorder,
    op: u64,
    algo: usize,
    case: &mut Case,
    pool: Option<&ThreadPool>,
) -> f64 {
    let (a, b) = (case.a.view(), case.b.view());
    match algo {
        0 => {
            let ctx = match pool {
                Some(p) => GemmContext::parallel(p),
                None => GemmContext::sequential(),
            };
            let mut c = case.products[0].view_mut();
            timed(rec, "gemm.dgemm", op, || {
                gemm::dgemm(1.0, &a, &b, 0.0, &mut c, &ctx).expect("square operands")
            })
            .1
        }
        1 => {
            let (c, secs) = timed(rec, "strassen.multiply", op, || {
                strassen::multiply(&a, &b, &StrassenConfig::default(), pool, None)
                    .expect("square operands")
            });
            case.products[1] = c;
            secs
        }
        _ => {
            let (c, secs) = timed(rec, "caps.multiply", op, || {
                caps::multiply(&a, &b, &CapsConfig::default(), pool, None).expect("square operands")
            });
            case.products[2] = c;
            secs
        }
    }
}

/// Per-algorithm wall seconds of one size, over all rounds.
#[derive(Default)]
struct Times {
    secs: [Vec<f64>; 3],
}

/// One pass of the three algorithms over `case`: every product is probed,
/// CAPS is compared bitwise with Strassen. Returns the summed op seconds.
fn pass(
    rec: &Recorder,
    op: u64,
    case: &mut Case,
    pool: Option<&ThreadPool>,
    times: &mut Times,
    report: &mut Report,
) -> f64 {
    let mut total = 0.0;
    for algo in 0..3 {
        let secs = run_algo(rec, op, algo, case, pool);
        times.secs[algo].push(secs);
        total += secs;
        report.op(rec.span("check.freivalds", op, || case.freivalds(algo)));
    }
    report.op(rec.span("check.bitwise", op, || {
        case.products[1].as_slice() == case.products[2].as_slice()
    }));
    total
}

/// `gemm_large` or `gemm_1t`, depending on `pooled`.
pub fn run(ctx: &Ctx, pooled: bool) -> Report {
    let mut report = Report::default();
    // Set-up: pool, operands, Freivalds references, blocking autotune (first
    // GemmContext), one untimed warm-up op per algorithm and size.
    let pool = pooled.then(|| ThreadPool::new(host::load_threads()));
    let pool = pool.as_ref();
    let mut gen = MatrixGen::new(ctx.seed);
    // (size, passes per round): gemm_1t runs three n=512 passes for each
    // n=1024 pass, so both sizes get a usable sample count in one window.
    let plan: &[(usize, usize)] = if pooled {
        &[(2048, 1)]
    } else {
        &[(512, 3), (1024, 1)]
    };
    let mut cases: Vec<Case> = plan.iter().map(|&(n, _)| Case::new(&mut gen, n)).collect();
    let off = Recorder::new(false);
    let mut warm = Report::default();
    for case in &mut cases {
        pass(&off, 0, case, pool, &mut Times::default(), &mut warm);
    }
    report.setup_s = ctx.since_start();
    if ctx.mode == Mode::SetupOnly {
        return report;
    }
    report.attempted += warm.attempted;
    report.failed += warm.failed;

    let pool_before = pool.map(ThreadPool::stats);
    let mut times: Vec<Times> = plan.iter().map(|_| Times::default()).collect();
    let mut ops_per_s = Vec::new();
    let (plain, traced, rec) = run::rounds(ctx, 4, |i, rec| {
        rec.span("round", i, || {
            let (mut secs, mut ops) = (0.0, 0usize);
            for (k, &(_, passes)) in plan.iter().enumerate() {
                for _ in 0..passes {
                    secs += pass(rec, i, &mut cases[k], pool, &mut times[k], &mut report);
                    ops += 3;
                }
            }
            ops_per_s.push(ops as f64 / secs);
        })
    });
    let pool_after = pool.map(ThreadPool::stats);

    // Blocked DGEMM against the naive triple loop, once, at n = 512.
    let small = Case::new(&mut MatrixGen::new(ctx.seed ^ 0x512), 512);
    let blocked = gemm::multiply(&small.a.view(), &small.b.view()).expect("square operands");
    let naive = gemm::naive::naive_mm(&small.a.view(), &small.b.view()).expect("square operands");
    let err = powerscale::matrix::norms::rel_frobenius_error(&blocked.view(), &naive.view());
    report.check(
        "blocked_vs_naive_n512",
        err <= 1e-12,
        format!("rel error {err:e}"),
    );

    for (k, &(n, _)) in plan.iter().enumerate() {
        for (a, name) in ALGOS.iter().enumerate() {
            report.counts.push((
                format!("samples_{name}_n{n}"),
                times[k].secs[a].len() as u64,
            ));
        }
    }
    report
        .counts
        .push(("rounds".into(), (plain.len() + traced.len()) as u64));

    if ctx.mode == Mode::Measure {
        for (a, name) in GFLOPS_METRICS.into_iter().enumerate() {
            report.e2e.push((name, rate(&cases, &times, a)));
        }
        report
            .e2e
            .push(("throughput_rps", Sample::median_of(&ops_per_s)));
        report.e2e.push((
            "latency_p50_ms",
            run::slowest_kind_ms(times.iter().flat_map(|t| &t.secs)),
        ));
        return report;
    }

    // Traced pass: overhead, then the layers this workload's calls imply,
    // each replayed in isolation.
    run::trace_overhead(&mut report, &plain, &traced);
    report.spans = rec.spans();
    // med[k][a]: median seconds of algorithm a at size k in the rounds above.
    let med: Vec<[f64; 3]> = times
        .iter()
        .map(|t| [0, 1, 2].map(|a| stats::median(&t.secs[a])))
        .collect();
    layers::host(&mut report);
    let kernel = layers::kernel(&mut report);
    let leaf_s = layers::leaf(&mut report, kernel);
    let pack_gbps = layers::pack(&mut report, &cases.last().expect("a size").a);
    let dgemm_sizes: &[usize] = if pooled {
        &[256, 512, 1024, 2048]
    } else {
        &[256, 512, 1024]
    };
    layers::dgemm_1t(&mut report, dgemm_sizes, kernel, pack_gbps, ctx.seed);
    let add_gbps = layers::matrix(&mut report, ctx.seed);
    let last = cases.len() - 1;
    let shape = layers::recursion_shape(&mut report, &cases[last]);
    let crossover = plan
        .iter()
        .zip(&med)
        .find(|(_, m)| m[1] < m[0])
        .map_or(0.0, |(&(n, _), _)| n as f64);
    report.layer("host.observed_crossover_n", crossover);
    if pooled {
        // Single-thread times of the same products: parallel efficiency
        // T1 / (threads * T2), and what the isolated leaves and add passes
        // leave unexplained of each recursion.
        let t1 = [0, 1, 2].map(|a| run_algo(&off, 0, a, &mut cases[0], None));
        let threads = host::load_threads() as f64;
        report.layer("pool.par_eff_blocked_n2048", t1[0] / (threads * med[0][0]));
        report.layer("pool.par_eff_strassen_n2048", t1[1] / (threads * med[0][1]));
        report.layer("pool.par_eff_caps_n2048", t1[2] / (threads * med[0][2]));
        report.layer("caps.over_strassen_2t_n2048", med[0][2] / med[0][1]);
        report.layer(
            "strassen.residual_s_n2048",
            shape.residual(t1[1], leaf_s, add_gbps),
        );
        report.layer(
            "caps.residual_s_n2048",
            shape.residual(t1[2], leaf_s, add_gbps),
        );
        layers::pool(&mut report);
        if let (Some(b), Some(a)) = (pool_before, pool_after) {
            report.layer(
                "pool.tasks_executed",
                (a.total_executed() - b.total_executed()) as f64,
            );
            report.layer(
                "pool.steals_in_group",
                (a.steals_in_group() - b.steals_in_group()) as f64,
            );
            report.layer(
                "pool.steals_cross_group",
                (a.steals_cross_group() - b.steals_cross_group()) as f64,
            );
        }
    } else {
        report.layer("caps.over_strassen_1t_n512", med[0][2] / med[0][1]);
        report.layer("caps.over_strassen_1t_n1024", med[1][2] / med[1][1]);
        report.layer(
            "strassen.residual_s_n1024",
            shape.residual(med[1][1], leaf_s, add_gbps),
        );
        report.layer(
            "caps.residual_s_n1024",
            shape.residual(med[1][2], leaf_s, add_gbps),
        );
    }
    layers::stream_ratios(&mut report, kernel, pack_gbps.0, add_gbps);
    report
}

/// `Σ 2n³ / Σ median seconds` over the sizes, with the quartiles of the
/// per-round rate at the largest size as the spread.
fn rate(cases: &[Case], times: &[Times], algo: usize) -> Sample {
    let flops: f64 = cases.iter().map(Case::flops).sum();
    let secs: f64 = times.iter().map(|t| stats::median(&t.secs[algo])).sum();
    let last = cases.len() - 1;
    let per_round: Vec<f64> = times[last].secs[algo]
        .iter()
        .map(|s| cases[last].flops() / s / 1e9)
        .collect();
    Sample {
        value: flops / secs / 1e9,
        ..Sample::median_of(&per_round)
    }
}
