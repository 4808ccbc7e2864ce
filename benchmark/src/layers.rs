//! Isolated replays of single layers, timed from outside through their
//! public functions. Each probe writes its rows of the per-layer ledger;
//! the traced pass of a workload runs the probes of the layers that
//! workload's calls imply. Bandwidths are computed from array sizes
//! (bytes read + bytes written), not measured at the memory controller.

use crate::gemm_wl::Case;
use crate::host;
use crate::run::Report;
use crate::stats::median;
use powerscale::counters::{Event, EventSet};
use powerscale::gemm::leaf::{leaf_gemm, leaf_gemm_fused, Accum, Operand};
use powerscale::gemm::pack::{pack_a, pack_a_sum, pack_b, packed_a_len, packed_b_len, PackScalar};
use powerscale::gemm::{self, BlockingParams, DtypeTier, GemmContext, KernelFn, KernelInfo};
use powerscale::harness::{operands_for, Algorithm, Harness, RunSpec};
use powerscale::matrix::{ops, Matrix, MatrixGen, MatrixView, MatrixViewMut};
use powerscale::pool::ThreadPool;
use powerscale::strassen::{self, StrassenConfig};
use std::hint::black_box;
use std::time::Instant;

/// Median wall seconds of `reps` calls of `f`, after one warm-up call.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

/// Median seconds *per call* when one call is too short to time: `reps`
/// batches of `batch` calls.
fn median_secs_batched(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    median_secs(reps, || (0..batch).for_each(|_| f())) / batch as f64
}

/// `host.nproc`, `host.llc_bytes`.
pub fn host(report: &mut Report) {
    report.layer("host.nproc", host::nproc() as f64);
    report.layer("host.llc_bytes", host::llc_bytes() as f64);
}

/// `host.stream_gbps` and every ratio read against it: the packing and add
/// bandwidths as shares of the copy bandwidth, and the paper's Eq. 9
/// crossover `n = 480·y/z` from the microkernel rate `y` and the copy
/// bandwidth `z`. Run last: the probe touches gigabytes and would disturb
/// whatever is timed after it.
pub fn stream_ratios(report: &mut Report, kernel_gflops: f64, pack_a_gbps: f64, add_gbps: f64) {
    let s = host::stream_probe(3);
    report.layer("host.stream_gbps", s.gbps);
    report
        .counts
        .push(("stream_array_bytes".into(), s.array_bytes as u64));
    report
        .counts
        .push(("stream_llc_bytes".into(), s.llc_bytes as u64));
    report.layer("host.eq9_crossover_n", 480.0 * kernel_gflops / s.gbps);
    report.layer("gemm.pack.frac_of_stream", pack_a_gbps / s.gbps);
    report.layer("matrix.add_frac_of_stream", add_gbps / s.gbps);
}

fn packed_panels<T: PackScalar>(kernel: &KernelInfo, kc: usize) -> (Vec<f64>, Vec<f64>) {
    let mut gen = MatrixGen::new(7);
    let a = gen.uniform(96, kc, -1.0, 1.0);
    let b = gen.uniform(kc, 96, -1.0, 1.0);
    let mut pa = vec![0.0f64; kernel.slots_for(packed_a_len(96, kc, kernel.mr))];
    let mut pb = vec![0.0f64; kernel.slots_for(packed_b_len(kc, 96, kernel.nr))];
    pack_a(&a.view(), T::cast_mut(&mut pa), kernel.mr);
    pack_b(&b.view(), T::cast_mut(&mut pb), kernel.nr);
    (pa, pb)
}

/// Sustained GF/s of one dispatched microkernel on packed, cache-resident
/// 96×96 panels of depth 256 — the register-tile sweep without packing.
fn kernel_gflops(kernel: &KernelInfo) -> f64 {
    const KC: usize = 256;
    let (pa, pb) = match kernel.func {
        KernelFn::F64(_) => packed_panels::<f64>(kernel, KC),
        KernelFn::F32(_) => packed_panels::<f32>(kernel, KC),
    };
    let mut c = Matrix::zeros(96, 96);
    let (sa, sb) = (96usize.div_ceil(kernel.mr), 96usize.div_ceil(kernel.nr));
    let secs = median_secs_batched(50, 16, || {
        kernel.sweep_tiles(KC, &pa, &pb, sa, sb, 1.0, &mut c.view_mut());
        black_box(&mut c);
    });
    2.0 * 96.0 * 96.0 * KC as f64 / secs / 1e9
}

/// `gemm.kernel.*`. Returns the f64 rate, the ceiling the layers above
/// are read against.
pub fn kernel(report: &mut Report) -> f64 {
    let f64_kernel = gemm::select_kernel_for(DtypeTier::F64);
    let y = kernel_gflops(f64_kernel);
    report.layer("gemm.kernel.f64_gflops", y);
    report.layer(
        "gemm.kernel.f32_gflops",
        kernel_gflops(gemm::select_kernel_for(DtypeTier::F32)),
    );
    report.layer(
        "gemm.kernel.mixed_gflops",
        kernel_gflops(gemm::select_kernel_for(DtypeTier::Mixed)),
    );
    report.layer("gemm.kernel.mr", f64_kernel.mr as f64);
    report.layer("gemm.kernel.nr", f64_kernel.nr as f64);
    y
}

/// `gemm.pack.*`: one sweep over every `mc×kc` (A) or `kc×nc` (B) panel
/// of `operand`, as the Goto loops cut them. Returns `(a_gbps, b_gbps)`.
pub fn pack(report: &mut Report, operand: &Matrix) -> (f64, f64) {
    let kernel = gemm::select_kernel();
    let p = BlockingParams::default();
    let n = operand.rows();
    let (mc, kc, nc) = (p.mc.min(n), p.kc.min(n), p.nc.min(n));
    let mut abuf = vec![0.0f64; packed_a_len(mc, kc, kernel.mr)];
    let mut bbuf = vec![0.0f64; packed_b_len(kc, nc, kernel.nr)];
    let view = operand.view();
    // Panels of the full blocks only: the edge blocks are a few percent of
    // the matrix and would need their own buffers.
    let sweep = |rows: usize, cols: usize, f: &mut dyn FnMut(usize, usize)| {
        for r in (0..=n - rows).step_by(rows) {
            for c in (0..=n - cols).step_by(cols) {
                f(r, c);
            }
        }
    };
    let panels = |rows: usize, cols: usize| ((n / rows) * (n / cols)) as f64;
    let a_secs = median_secs(5, || {
        sweep(mc, kc, &mut |r, c| {
            let v = view.sub_view((r, c), (mc, kc)).expect("in range");
            black_box(pack_a(&v, &mut abuf, kernel.mr));
        })
    });
    let b_secs = median_secs(5, || {
        sweep(kc, nc, &mut |r, c| {
            let v = view.sub_view((r, c), (kc, nc)).expect("in range");
            black_box(pack_b(&v, &mut bbuf, kernel.nr));
        })
    });
    // The fused two-source pack: panel (r, c) combined with its neighbour
    // one block down (wrapping), so both sources stream from the operand.
    let sum_secs = median_secs(5, || {
        sweep(mc, kc, &mut |r, c| {
            let x = view.sub_view((r, c), (mc, kc)).expect("in range");
            let r2 = if r + 2 * mc <= n { r + mc } else { 0 };
            let y = view.sub_view((r2, c), (mc, kc)).expect("in range");
            black_box(pack_a_sum(&x, 1.0, &y, 1.0, &mut abuf, kernel.mr));
        })
    });
    let a_bytes = panels(mc, kc) * (mc * kc * 16) as f64;
    let b_bytes = panels(kc, nc) * (kc * nc * 16) as f64;
    let sum_bytes = panels(mc, kc) * (mc * kc * 24) as f64;
    let (a_gbps, b_gbps) = (a_bytes / a_secs / 1e9, b_bytes / b_secs / 1e9);
    report.layer("gemm.pack.a_gbps", a_gbps);
    report.layer("gemm.pack.b_gbps", b_gbps);
    report.layer("gemm.pack.sum_gbps", sum_bytes / sum_secs / 1e9);
    (a_gbps, b_gbps)
}

/// `gemm.leaf.*` at the recursion cutoff (n = 64), on strided quadrant
/// views as the recursion hands them over. Returns the plain fused leaf's
/// seconds per call.
pub fn leaf(report: &mut Report, kernel_gflops: f64) -> f64 {
    const N: usize = 64;
    let mut gen = MatrixGen::new(64);
    let a = gen.paper_operand(2 * N);
    let b = gen.paper_operand(2 * N);
    let mut c = Matrix::zeros(2 * N, 2 * N);
    fn quadrant(m: &Matrix, i: usize) -> MatrixView<'_> {
        m.sub_view((i * N, i * N), (N, N)).expect("quadrant")
    }
    let (a11, a22, b11, b22) = (
        quadrant(&a, 0),
        quadrant(&a, 1),
        quadrant(&b, 0),
        quadrant(&b, 1),
    );
    let flops = 2.0 * (N as f64).powi(3);
    let mut dst = |f: &mut dyn FnMut(&mut MatrixViewMut<'_>)| {
        let mut cv = c.sub_view_mut((0, 0), (N, N)).expect("quadrant");
        f(&mut cv);
    };
    let fused = median_secs_batched(20, 200, || {
        dst(&mut |cv| {
            leaf_gemm_fused(Operand::View(a11), Operand::View(b11), cv, Accum::Set, None)
                .expect("shapes")
        })
    });
    let fused_sum = median_secs_batched(20, 200, || {
        dst(&mut |cv| {
            leaf_gemm_fused(
                Operand::Add(a11, a22),
                Operand::Sub(b11, b22),
                cv,
                Accum::Add,
                None,
            )
            .expect("shapes")
        })
    });
    let unpacked = median_secs_batched(20, 200, || {
        dst(&mut |cv| leaf_gemm(&a11, &b11, cv, None).expect("shapes"))
    });
    report.layer("gemm.leaf.fused_gflops_n64", flops / fused / 1e9);
    report.layer("gemm.leaf.fused_sum_gflops_n64", flops / fused_sum / 1e9);
    report.layer("gemm.leaf.unpacked_gflops_n64", flops / unpacked / 1e9);
    if kernel_gflops > 0.0 {
        report.layer(
            "gemm.leaf.frac_of_kernel",
            flops / fused / 1e9 / kernel_gflops,
        );
    }
    fused
}

/// `gemm.dgemm.*`: sequential blocked DGEMM at each size; the ratio to
/// the microkernel and the implied packing share at the largest.
pub fn dgemm_1t(
    report: &mut Report,
    sizes: &[usize],
    kernel_gflops: f64,
    pack_gbps: (f64, f64),
    seed: u64,
) {
    let ctx = GemmContext::sequential();
    let mut last = (0usize, 0.0f64);
    for &n in sizes {
        let mut gen = MatrixGen::new(seed ^ n as u64);
        let (a, b) = (gen.paper_operand(n), gen.paper_operand(n));
        let mut c = Matrix::zeros(n, n);
        let reps = (2048 / n).pow(2).clamp(2, 20);
        let secs = median_secs(reps, || {
            gemm::dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &ctx).expect("square")
        });
        let gflops = 2.0 * (n as f64).powi(3) / secs / 1e9;
        let name = match n {
            256 => "gemm.dgemm.gflops_1t_n256",
            512 => "gemm.dgemm.gflops_1t_n512",
            1024 => "gemm.dgemm.gflops_1t_n1024",
            2048 => "gemm.dgemm.gflops_1t_n2048",
            _ => continue,
        };
        report.layer(name, gflops);
        last = (n, secs);
    }
    let (n, secs) = last;
    if n == 0 {
        return;
    }
    report.layer(
        "gemm.dgemm.frac_of_kernel_1t",
        2.0 * (n as f64).powi(3) / secs / 1e9 / kernel_gflops,
    );
    // Goto loop order: B is packed once per (jc, pc) panel, A once per jc
    // block of nc columns; each packed element is read and written once.
    let p = ctx.params;
    let elems = (n * n) as f64;
    let a_bytes = elems * n.div_ceil(p.nc) as f64 * 16.0;
    let b_bytes = elems * 16.0;
    let (a_gbps, b_gbps) = pack_gbps;
    if a_gbps > 0.0 && b_gbps > 0.0 {
        let pack_s = a_bytes / (a_gbps * 1e9) + b_bytes / (b_gbps * 1e9);
        report.layer("gemm.dgemm.pack_share", pack_s / secs);
    }
}

/// `matrix.*`: the quadrant add pass the recursions are made of, and
/// operand generation. Returns the add bandwidth.
pub fn matrix(report: &mut Report, seed: u64) -> f64 {
    let gen_ms = |n: usize, reps: usize| {
        let mut gen = MatrixGen::new(seed);
        1e3 * median_secs(reps, || {
            black_box(gen.paper_operand(n));
        })
    };
    report.layer("matrix.gen_ms_n64", gen_ms(64, 200));
    report.layer("matrix.gen_ms_n256", gen_ms(256, 30));
    report.layer("matrix.gen_ms_n2048", gen_ms(2048, 2));

    const H: usize = 1024;
    let mut gen = MatrixGen::new(seed);
    let (a, b) = (gen.paper_operand(2 * H), gen.paper_operand(2 * H));
    let mut c = Matrix::zeros(2 * H, 2 * H);
    let (x, y) = (
        a.sub_view((0, 0), (H, H)).expect("quadrant"),
        b.sub_view((H, H), (H, H)).expect("quadrant"),
    );
    let secs = median_secs(10, || {
        let mut dst = c.sub_view_mut((0, H), (H, H)).expect("quadrant");
        ops::add_into(&x, &y, &mut dst).expect("shapes");
    });
    let gbps = (3 * 8 * H * H) as f64 / secs / 1e9;
    report.layer("matrix.add_gbps", gbps);
    gbps
}

/// `pool.spawn_ns_per_task`, `pool.join_ns` on a fresh pool of the
/// workload's width.
pub fn pool(report: &mut Report) {
    const TASKS: usize = 200_000;
    let pool = ThreadPool::new(host::load_threads());
    let spawn = median_secs(3, || {
        pool.scope(|s| {
            for _ in 0..TASKS {
                s.spawn(|_| {
                    black_box(0u64);
                });
            }
        })
    });
    report.layer("pool.spawn_ns_per_task", spawn / TASKS as f64 * 1e9);
    let join = median_secs_batched(10, 2000, || {
        black_box(pool.join(|| black_box(1u64), || black_box(2u64)));
    });
    report.layer("pool.join_ns", join * 1e9);
}

/// Exact counts of one Strassen recursion over a case's operands.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    leaf_calls: u64,
    add_bytes: u64,
}

/// `strassen.leaf_calls`, `strassen.add_passes`: the recursion's own event
/// counts from one instrumented sequential multiply (CAPS performs the
/// same arithmetic, so the shape serves both).
pub fn recursion_shape(report: &mut Report, case: &Case) -> Shape {
    let cfg = StrassenConfig::default();
    let mut set = EventSet::with_all_events();
    set.start().expect("fresh event set");
    strassen::multiply(&case.a.view(), &case.b.view(), &cfg, None, Some(&set)).expect("square");
    let profile = set.stop().expect("running event set");
    let levels = profile.get(Event::RecursionLevels);
    let shape = Shape {
        leaf_calls: profile.get(Event::KernelCalls),
        // Every counted add element reads two doubles and writes one.
        add_bytes: 24 * profile.get(Event::FpAdds),
    };
    report.layer_exact("strassen.leaf_calls", shape.leaf_calls as f64);
    // One RecursionLevels event per internal node, 18 quadrant passes each.
    report.layer_exact(
        "strassen.add_passes",
        (u64::from(cfg.adds_per_level()) * levels) as f64,
    );
    shape
}

impl Shape {
    /// End-to-end seconds not explained by `leaf_calls` isolated leaves
    /// plus the add passes at the isolated add bandwidth.
    pub fn residual(&self, e2e_s: f64, leaf_s: f64, add_gbps: f64) -> f64 {
        e2e_s - self.leaf_calls as f64 * leaf_s - self.add_bytes as f64 / (add_gbps * 1e9)
    }
}

/// `harness.operands_ms_*`, `serve.request.checksum_ms_*`: the two
/// non-multiply phases of a served request, at the mix's end sizes.
pub fn request_phases(report: &mut Report) {
    for (n, ops_name, sum_name) in [
        (
            64usize,
            "harness.operands_ms_n64",
            "serve.request.checksum_ms_n64",
        ),
        (
            256,
            "harness.operands_ms_n256",
            "serve.request.checksum_ms_n256",
        ),
    ] {
        let spec = RunSpec::new(Algorithm::Blocked, n, 1);
        let reps = if n == 64 { 200 } else { 30 };
        report.layer(
            ops_name,
            1e3 * median_secs(reps, || {
                black_box(operands_for(&spec));
            }),
        );
        let (a, _) = operands_for(&spec);
        report.layer(
            sum_name,
            1e3 * median_secs(reps, || {
                black_box(powerscale_serve::checksum_f64(a.as_slice()));
            }),
        );
    }
}

/// `machine.sim_paper_matrix_s`: the fluid simulator's 48-run matrix.
pub fn simulator(report: &mut Report) {
    let h = Harness::default();
    report.layer(
        "machine.sim_paper_matrix_s",
        median_secs(3, || {
            black_box(h.paper_matrix());
        }),
    );
}
