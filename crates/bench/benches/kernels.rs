//! Real-execution kernel benchmarks: the raw performance layer under the
//! paper's study. Measures the naive oracle, the unpacked leaf solver,
//! the blocked/packed DGEMM (sequential and pooled), the Strassen/CAPS
//! recursions, and every microkernel tier (ISA × dtype) the host can
//! dispatch, plus the autotuned-vs-static blocking delta.
//!
//! Environment:
//! - `POWERSCALE_KERNELS_OUT`       output filename under `artifacts/`
//!   (default `BENCH_kernels.json`; CI writes a side file so the
//!   committed artifact stays the baseline).
//! - `POWERSCALE_KERNELS_GATE`      baseline filename under `artifacts/`
//!   (normally the committed `BENCH_kernels.json`); when set, exits
//!   non-zero if any tier's scalar-relative throughput regressed > 20%
//!   vs the baseline. Ratios make the gate meaningful across machines of
//!   different absolute speed.
//! - `POWERSCALE_KERNELS_GATE_ABS`  set to `1` to additionally gate each
//!   tier's absolute GFLOP/s (same 20% bound) — only sensible when the
//!   baseline was produced on the same machine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use powerscale::gemm::pack::{pack_a, pack_b, packed_a_len, packed_b_len, PackScalar};
use powerscale::gemm::{BlockingParams, GemmContext, KernelFn, KernelInfo};
use powerscale::prelude::*;
use std::time::Duration;

fn operands(n: usize) -> (powerscale::matrix::Matrix, powerscale::matrix::Matrix) {
    let mut gen = MatrixGen::new(42);
    (gen.paper_operand(n), gen.paper_operand(n))
}

fn bench_multiply_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiply_kernels");
    group.sample_size(10);
    for n in [64usize, 128, 256] {
        let (a, b) = operands(n);
        let flops = 2 * (n as u64).pow(3);
        group.throughput(Throughput::Elements(flops));

        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| powerscale::gemm::naive::naive_mm(&a.view(), &b.view()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("leaf", n), &n, |bch, _| {
            bch.iter(|| {
                let mut c = powerscale::matrix::Matrix::zeros(n, n);
                powerscale::gemm::leaf::leaf_gemm(&a.view(), &b.view(), &mut c.view_mut(), None)
                    .unwrap();
                c
            })
        });
        group.bench_with_input(BenchmarkId::new("blocked_seq", n), &n, |bch, _| {
            bch.iter(|| powerscale::gemm::multiply(&a.view(), &b.view()).unwrap())
        });
    }
    group.finish();
}

fn bench_parallel_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_paths");
    group.sample_size(10);
    let n = 256;
    let (a, b) = operands(n);
    let pool = ThreadPool::new(4);

    group.bench_function("blocked_pooled", |bch| {
        bch.iter(|| {
            let mut c = powerscale::matrix::Matrix::zeros(n, n);
            powerscale::gemm::dgemm(
                1.0,
                &a.view(),
                &b.view(),
                0.0,
                &mut c.view_mut(),
                &GemmContext::parallel(&pool),
            )
            .unwrap();
            c
        })
    });
    group.bench_function("strassen_pooled", |bch| {
        bch.iter(|| {
            powerscale::strassen::multiply(
                &a.view(),
                &b.view(),
                &StrassenConfig::paper(),
                Some(&pool),
                None,
            )
            .unwrap()
        })
    });
    group.bench_function("caps_pooled", |bch| {
        bch.iter(|| {
            powerscale::caps::multiply(
                &a.view(),
                &b.view(),
                &CapsConfig::paper(),
                Some(&pool),
                None,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_packing(c: &mut Criterion) {
    let mut group = c.benchmark_group("packing");
    let kernel = powerscale::gemm::select_kernel();
    let (a, _) = operands(256);
    let sub = a.sub_view((0, 0), (64, 256)).unwrap();
    let mut buf = vec![0.0f64; packed_a_len(64, 256, kernel.mr)];
    group.bench_function("pack_a_64x256", |bch| {
        bch.iter(|| pack_a(&sub, &mut buf, kernel.mr))
    });
    let bsub = a.sub_view((0, 0), (256, 64)).unwrap();
    let mut bbuf = vec![0.0f64; packed_b_len(256, 64, kernel.nr)];
    group.bench_function("pack_b_256x64", |bch| {
        bch.iter(|| pack_b(&bsub, &mut bbuf, kernel.nr))
    });
    group.finish();
}

/// Packs the benchmark operands for `kernel` (in its element type) into
/// `f64`-slot buffers, mirroring the arena layout the Goto driver uses.
fn pack_slots<T: PackScalar>(kernel: &KernelInfo, kc: usize) -> (Vec<f64>, Vec<f64>) {
    let mut gen = MatrixGen::new(7);
    let a = gen.uniform(96, kc, -1.0, 1.0);
    let b = gen.uniform(kc, 96, -1.0, 1.0);
    let mut pa = vec![0.0f64; kernel.slots_for(packed_a_len(96, kc, kernel.mr))];
    let mut pb = vec![0.0f64; kernel.slots_for(packed_b_len(kc, 96, kernel.nr))];
    pack_a(&a.view(), T::cast_mut(&mut pa), kernel.mr);
    pack_b(&b.view(), T::cast_mut(&mut pb), kernel.nr);
    (pa, pb)
}

/// Packs the benchmark operands for `kernel`'s tile shape and dtype.
fn packed_operands(kernel: &KernelInfo, kc: usize) -> (Vec<f64>, Vec<f64>) {
    match kernel.func {
        KernelFn::F64(_) => pack_slots::<f64>(kernel, kc),
        KernelFn::F32(_) => pack_slots::<f32>(kernel, kc),
    }
}

/// One full register-tile sweep of a `96 × 96` C with depth `kc`: the
/// packed-panel inner loop of the Goto driver, isolated from packing.
fn tile_sweep(
    kernel: &KernelInfo,
    kc: usize,
    pa: &[f64],
    pb: &[f64],
    c: &mut powerscale::matrix::Matrix,
) {
    let (m, n) = (c.rows(), c.cols());
    let (a_strips, b_strips) = (m.div_ceil(kernel.mr), n.div_ceil(kernel.nr));
    kernel.sweep_tiles(kc, pa, pb, a_strips, b_strips, 1.0, &mut c.view_mut());
}

/// Best-of-N sustained GFLOP/s of `kernel` on the tile sweep.
fn measure_gflops(kernel: &KernelInfo, kc: usize) -> f64 {
    let (pa, pb) = packed_operands(kernel, kc);
    let mut c = powerscale::matrix::Matrix::zeros(96, 96);
    let flops = 2.0 * 96.0 * 96.0 * kc as f64;
    // Warm-up.
    for _ in 0..3 {
        tile_sweep(kernel, kc, &pa, &pb, &mut c);
    }
    let mut best = f64::INFINITY;
    for _ in 0..30 {
        let t0 = std::time::Instant::now();
        tile_sweep(kernel, kc, &pa, &pb, &mut c);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    flops / best / 1e9
}

/// Best-of-N sustained GFLOP/s of a full `n × n` sequential dgemm under
/// explicit blocking parameters — the autotuned-vs-static comparison.
fn measure_dgemm_gflops(kernel: &'static KernelInfo, params: BlockingParams, n: usize) -> f64 {
    let (a, b) = operands(n);
    let mut c = powerscale::matrix::Matrix::zeros(n, n);
    let ctx = GemmContext {
        params,
        kernel,
        ..GemmContext::default()
    };
    let flops = 2.0 * (n as f64).powi(3);
    let run = |c: &mut powerscale::matrix::Matrix| {
        powerscale::gemm::dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &ctx).unwrap()
    };
    run(&mut c); // warm-up (and arena warm)
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
        run(&mut c);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    flops / best / 1e9
}

/// The tentpole comparison: every microkernel tier the host can dispatch
/// (ISA × dtype, scalar tiers included) on identical packed panels, plus
/// the runtime dispatcher and the autotuned-vs-static blocking delta.
/// Snapshots the GFLOP/s figures to `artifacts/BENCH_kernels.json`.
fn bench_microkernel_tiers(c: &mut Criterion) {
    const KC: usize = 256;
    const BLOCKING_N: usize = 384;
    let tiers = powerscale::gemm::available_kernels();
    let dispatch = powerscale::gemm::select_kernel();

    let mut group = c.benchmark_group("microkernel_tiers");
    for kernel in &tiers {
        let (pa, pb) = packed_operands(kernel, KC);
        let mut acc = powerscale::matrix::Matrix::zeros(96, 96);
        group.bench_function(kernel.name, |bch| {
            bch.iter(|| tile_sweep(kernel, KC, &pa, &pb, &mut acc))
        });
    }
    group.finish();

    // JSON snapshot (hand-formatted: the bench crate carries no JSON dep).
    let measured: Vec<(&KernelInfo, f64)> =
        tiers.iter().map(|k| (*k, measure_gflops(k, KC))).collect();
    let scalar_gf = measured
        .iter()
        .find(|(k, _)| k.name == "scalar")
        .map(|&(_, gf)| gf)
        .expect("scalar tier always measured");
    let dispatch_gf = measure_gflops(dispatch, KC);
    let entries: Vec<String> = measured
        .iter()
        .map(|(k, gf)| {
            format!(
                "    {{\"name\": \"{}\", \"isa\": \"{}\", \"dtype\": \"{}\", \"mr\": {}, \
                 \"nr\": {}, \"gflops\": {:.3}}}",
                k.name, k.isa, k.dtype, k.mr, k.nr, gf
            )
        })
        .collect();

    // Blocking delta: the dispatched kernel under host-autotuned vs the
    // static Haswell-derived parameters, on a full sequential dgemm.
    let autotuned = BlockingParams::autotuned_for(dispatch);
    let static_p = BlockingParams::for_kernel(dispatch);
    let auto_gf = measure_dgemm_gflops(dispatch, autotuned, BLOCKING_N);
    let static_gf = measure_dgemm_gflops(dispatch, static_p, BLOCKING_N);
    let blocking = format!(
        "  \"blocking\": {{\"n\": {BLOCKING_N}, \"kernel\": \"{}\", \
         \"autotuned\": {{\"mc\": {}, \"kc\": {}, \"nc\": {}, \"gflops\": {auto_gf:.3}}}, \
         \"static_haswell\": {{\"mc\": {}, \"kc\": {}, \"nc\": {}, \"gflops\": {static_gf:.3}}}, \
         \"autotuned_over_static\": {:.3}}}",
        dispatch.name,
        autotuned.mc,
        autotuned.kc,
        autotuned.nc,
        static_p.mc,
        static_p.kc,
        static_p.nc,
        auto_gf / static_gf
    );

    let json = format!(
        "{{\n  \"bench\": \"microkernel_tiers\",\n  \"m\": 96,\n  \"n\": 96,\n  \"kc\": {KC},\n  \
         \"tiers\": [\n{}\n  ],\n  \"dispatch\": {{\"selected\": \"{}\", \"gflops\": {dispatch_gf:.3}}},\n\
         {blocking},\n  \"dispatch_over_scalar\": {:.3}\n}}\n",
        entries.join(",\n"),
        dispatch.name,
        dispatch_gf / scalar_gf
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../artifacts");
    std::fs::create_dir_all(dir).expect("artifacts dir");
    let out_name = std::env::var("POWERSCALE_KERNELS_OUT")
        .unwrap_or_else(|_| "BENCH_kernels.json".to_string());
    let path = format!("{dir}/{out_name}");
    std::fs::write(&path, &json).expect("write BENCH_kernels.json");
    println!(
        "microkernel tiers: scalar {scalar_gf:.2} GFLOP/s, dispatch({}) {dispatch_gf:.2} GFLOP/s \
         ({:.2}x); blocking autotuned/static {:.3} -> {path}",
        dispatch.name,
        dispatch_gf / scalar_gf,
        auto_gf / static_gf
    );

    gate_against_baseline(&measured, scalar_gf, dir);
}

/// Optional CI regression gate: compares each tier's scalar-relative
/// throughput (and absolute GFLOP/s under `POWERSCALE_KERNELS_GATE_ABS`)
/// against the committed baseline. Fails (exit 1) on > 20% regression of
/// any tier present in both runs.
fn gate_against_baseline(measured: &[(&KernelInfo, f64)], scalar_gf: f64, dir: &str) {
    let Ok(baseline_name) = std::env::var("POWERSCALE_KERNELS_GATE") else {
        return;
    };
    if baseline_name.is_empty() {
        return;
    }
    let baseline = std::fs::read_to_string(format!("{dir}/{baseline_name}"))
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_name}: {e}"));
    let base_scalar =
        baseline_gflops(&baseline, "scalar").expect("baseline must contain the scalar tier");
    let absolute = std::env::var("POWERSCALE_KERNELS_GATE_ABS").is_ok_and(|v| v == "1");
    let mut failed = false;
    let mut gated = 0;
    for &(kernel, gf) in measured {
        let Some(base_gf) = baseline_gflops(&baseline, kernel.name) else {
            continue; // tier absent from the baseline (e.g. older schema)
        };
        gated += 1;
        let ratio = gf / scalar_gf;
        let base_ratio = base_gf / base_scalar;
        if ratio < 0.8 * base_ratio {
            eprintln!(
                "REGRESSION: tier {} scalar-relative throughput {ratio:.3} vs baseline \
                 {base_ratio:.3} (> 20% down)",
                kernel.name
            );
            failed = true;
        }
        if absolute && gf < 0.8 * base_gf {
            eprintln!(
                "REGRESSION: tier {} absolute {gf:.2} GFLOP/s vs baseline {base_gf:.2} \
                 (> 20% down)",
                kernel.name
            );
            failed = true;
        }
    }
    assert!(
        gated > 0,
        "kernel gate matched no tiers against {baseline_name}"
    );
    if failed {
        std::process::exit(1);
    }
    println!("kernel tier gate passed ({gated} tiers within 20% of {baseline_name})");
}

/// Pulls `"gflops"` out of the baseline row whose `"name"` matches —
/// enough JSON "parsing" for the schema this bench itself writes.
fn baseline_gflops(doc: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    let row_start = doc.find(&needle)?;
    let row_end = row_start + doc[row_start..].find('}')?;
    let row = &doc[row_start..row_end];
    let at = row.find("\"gflops\": ")? + "\"gflops\": ".len();
    row[at..].split([',', '}']).next()?.trim().parse().ok()
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900))
        .sample_size(10);
    targets = bench_microkernel_tiers, bench_multiply_kernels, bench_parallel_paths, bench_packing
}
criterion_main!(benches);
