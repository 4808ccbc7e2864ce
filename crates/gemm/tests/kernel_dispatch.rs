//! Property tests pinning every microkernel dispatch tier to the same
//! arithmetic.
//!
//! Two layers of agreement:
//!
//! * on arbitrary real inputs the SIMD tiers may differ from the scalar
//!   kernel only by FMA rounding — a relative Frobenius error below 1e-12
//!   across ragged tile shapes;
//! * on inputs whose entries are small powers of two, every product and
//!   partial sum is exactly representable, so fused and unfused
//!   multiply-add round identically and the results must be **bitwise**
//!   equal.
//!
//! Each case forces a specific dispatch path via
//! [`GemmContext::with_kernel`], so the scalar fallback and the SIMD tier
//! are both exercised regardless of what the host would auto-select.

use powerscale_gemm::leaf::{leaf_gemm_fused_with, Accum, Operand};
use powerscale_gemm::pack::{pack_a, pack_b, packed_a_len, packed_b_len, PackScalar};
use powerscale_gemm::{
    available_kernels, dgemm, naive::naive_mm, scalar_kernel_for, Dispatch, DtypeTier, GemmContext,
    KernelFn, KernelInfo,
};
use powerscale_matrix::norms::rel_frobenius_error;
use powerscale_matrix::{Matrix, MatrixGen};
use powerscale_pool::ThreadPool;
use proptest::prelude::*;
use std::time::Instant;

/// `A · B` under an explicitly chosen kernel.
fn multiply_with(ctx: &GemmContext, a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), ctx).unwrap();
    c
}

/// A matrix whose entries are `±2^e` for small `e`: products and partial
/// sums stay exactly representable, making FMA bitwise-transparent.
fn pow2_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    Matrix::from_fn(rows, cols, |_, _| {
        // xorshift64*: deterministic, dependency-free.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let e = (state % 5) as i32 - 2; // 2^-2 ..= 2^2
        let sign = if (state >> 8) & 1 == 0 { 1.0 } else { -1.0 };
        sign * 2f64.powi(e)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_tier_matches_naive_on_ragged_shapes(
        m in 1usize..80, k in 1usize..80, n in 1usize..80, seed in any::<u64>()
    ) {
        let mut gen = MatrixGen::new(seed);
        let a = gen.uniform(m, k, -2.0, 2.0);
        let b = gen.uniform(k, n, -2.0, 2.0);
        let want = naive_mm(&a.view(), &b.view()).unwrap();

        let scalar = multiply_with(&GemmContext::with_kernel(powerscale_gemm::scalar_kernel()), &a, &b);
        prop_assert!(rel_frobenius_error(&scalar.view(), &want.view()) < 1e-12);

        if let Some(simd) = powerscale_gemm::simd_kernel() {
            let vectored = multiply_with(&GemmContext::with_kernel(simd), &a, &b);
            prop_assert!(
                rel_frobenius_error(&vectored.view(), &want.view()) < 1e-12,
                "kernel `{}` off naive at ({m},{k},{n})", simd.name
            );
            prop_assert!(
                rel_frobenius_error(&vectored.view(), &scalar.view()) < 1e-12,
                "kernel `{}` off scalar at ({m},{k},{n})", simd.name
            );
        }

        // The default dispatch must be one of the tiers above, bitwise.
        let auto = multiply_with(&GemmContext::default(), &a, &b);
        let pinned = multiply_with(&GemmContext::with_kernel(powerscale_gemm::select_kernel()), &a, &b);
        prop_assert_eq!(auto, pinned);
    }

    #[test]
    fn tiers_agree_bitwise_on_power_of_two_inputs(
        m in 1usize..64, k in 1usize..64, n in 1usize..64, seed in any::<u64>()
    ) {
        let a = pow2_matrix(m, k, seed);
        let b = pow2_matrix(k, n, seed ^ 0xdead_beef);
        let scalar = multiply_with(&GemmContext::with_kernel(powerscale_gemm::scalar_kernel()), &a, &b);
        if let Some(simd) = powerscale_gemm::simd_kernel() {
            let vectored = multiply_with(&GemmContext::with_kernel(simd), &a, &b);
            // Exactly representable arithmetic: FMA == mul+add bit for bit.
            prop_assert_eq!(&scalar, &vectored);
        }
        // And both match the naive oracle exactly, shapewise raggedness
        // (masked edge tiles, padded strips) included.
        let want = naive_mm(&a.view(), &b.view()).unwrap();
        prop_assert_eq!(&scalar, &want);
    }

    #[test]
    fn every_dtype_tier_matches_naive_within_its_precision(
        m in 1usize..64, k in 1usize..64, n in 1usize..64, seed in any::<u64>()
    ) {
        // The f32 and mixed tiers give up precision; each must
        // stay within its documented envelope of the f64 oracle, and the
        // SIMD instantiation of a dtype must track its scalar one.
        let mut gen = MatrixGen::new(seed);
        let a = gen.uniform(m, k, -2.0, 2.0);
        let b = gen.uniform(k, n, -2.0, 2.0);
        let want = naive_mm(&a.view(), &b.view()).unwrap();
        for (dtype, tol) in [
            (DtypeTier::F64, 1e-12),
            (DtypeTier::Mixed, 5e-6),
            (DtypeTier::F32, 2e-3),
        ] {
            let scalar_k = powerscale_gemm::scalar_kernel_for(dtype);
            let scalar = multiply_with(&GemmContext::with_kernel(scalar_k), &a, &b);
            prop_assert!(
                rel_frobenius_error(&scalar.view(), &want.view()) < tol,
                "kernel `{}` off naive at ({m},{k},{n})", scalar_k.name
            );
            if let Some(simd) = powerscale_gemm::simd_kernel_for(dtype) {
                let vectored = multiply_with(&GemmContext::with_kernel(simd), &a, &b);
                prop_assert!(
                    rel_frobenius_error(&vectored.view(), &want.view()) < tol,
                    "kernel `{}` off naive at ({m},{k},{n})", simd.name
                );
                prop_assert!(
                    rel_frobenius_error(&vectored.view(), &scalar.view()) < tol,
                    "kernel `{}` off `{}` at ({m},{k},{n})", simd.name, scalar_k.name
                );
            }
        }
    }

    #[test]
    fn dtype_tiers_agree_bitwise_on_power_of_two_inputs(
        m in 1usize..48, k in 1usize..48, n in 1usize..48, seed in any::<u64>()
    ) {
        // ±2^e entries (|e| ≤ 2) are exact in f32 too, every product and
        // partial sum stays exactly representable in 24 bits at these
        // depths, and f64→f32 packing rounds nothing — so *every* dtype
        // tier must reproduce the f64 oracle bitwise, and each SIMD
        // instantiation must match its scalar one bit for bit.
        let a = pow2_matrix(m, k, seed);
        let b = pow2_matrix(k, n, seed ^ 0xdead_beef);
        let want = naive_mm(&a.view(), &b.view()).unwrap();
        for dtype in DtypeTier::ALL {
            let scalar_k = powerscale_gemm::scalar_kernel_for(dtype);
            let scalar = multiply_with(&GemmContext::with_kernel(scalar_k), &a, &b);
            prop_assert_eq!(
                &scalar, &want,
                "kernel `{}` not exact on pow2 inputs", scalar_k.name
            );
            if let Some(simd) = powerscale_gemm::simd_kernel_for(dtype) {
                let vectored = multiply_with(&GemmContext::with_kernel(simd), &a, &b);
                prop_assert_eq!(
                    &scalar, &vectored,
                    "kernel `{}` diverges from `{}` on pow2 inputs", simd.name, scalar_k.name
                );
            }
        }
    }

    #[test]
    fn fused_leaf_tiers_match_naive_on_combined_operands(
        m in 1usize..64, k in 1usize..64, n in 1usize..64, seed in any::<u64>()
    ) {
        // (A1 + A2) · (B1 − B2) with the combines fused into the packing
        // pass, on every dispatch tier.
        let mut gen = MatrixGen::new(seed);
        let a1 = gen.uniform(m, k, -2.0, 2.0);
        let a2 = gen.uniform(m, k, -2.0, 2.0);
        let b1 = gen.uniform(k, n, -2.0, 2.0);
        let b2 = gen.uniform(k, n, -2.0, 2.0);
        let sa = Matrix::from_fn(m, k, |i, j| a1.get(i, j) + a2.get(i, j));
        let sb = Matrix::from_fn(k, n, |i, j| b1.get(i, j) - b2.get(i, j));
        let want = naive_mm(&sa.view(), &sb.view()).unwrap();

        let scalar = fused_with(powerscale_gemm::scalar_kernel(), &a1, &a2, &b1, &b2);
        prop_assert!(rel_frobenius_error(&scalar.view(), &want.view()) < 1e-12);

        if let Some(simd) = powerscale_gemm::simd_kernel() {
            let vectored = fused_with(simd, &a1, &a2, &b1, &b2);
            prop_assert!(
                rel_frobenius_error(&vectored.view(), &want.view()) < 1e-12,
                "fused kernel `{}` off naive at ({m},{k},{n})", simd.name
            );
            prop_assert!(
                rel_frobenius_error(&vectored.view(), &scalar.view()) < 1e-12,
                "fused kernel `{}` off scalar at ({m},{k},{n})", simd.name
            );
        }
    }

    #[test]
    fn fused_leaf_tiers_agree_bitwise_on_power_of_two_inputs(
        m in 1usize..48, k in 1usize..48, n in 1usize..48, seed in any::<u64>()
    ) {
        let a1 = pow2_matrix(m, k, seed);
        let a2 = pow2_matrix(m, k, seed ^ 0x5bf0_3635);
        let b1 = pow2_matrix(k, n, seed ^ 0xdead_beef);
        let b2 = pow2_matrix(k, n, seed ^ 0x0bad_f00d);
        let scalar = fused_with(powerscale_gemm::scalar_kernel(), &a1, &a2, &b1, &b2);
        if let Some(simd) = powerscale_gemm::simd_kernel() {
            let vectored = fused_with(simd, &a1, &a2, &b1, &b2);
            // Sums of powers of two of bounded spread stay exactly
            // representable, so FMA == mul+add bit for bit on the fused
            // operands too.
            prop_assert_eq!(&scalar, &vectored);
        }
        let sa = Matrix::from_fn(m, k, |i, j| a1.get(i, j) + a2.get(i, j));
        let sb = Matrix::from_fn(k, n, |i, j| b1.get(i, j) - b2.get(i, j));
        let want = naive_mm(&sa.view(), &sb.view()).unwrap();
        prop_assert_eq!(&scalar, &want);
    }
}

/// `(A1 + A2) · (B1 − B2)` through the fused leaf under a pinned kernel.
fn fused_with(
    kernel: &'static KernelInfo,
    a1: &Matrix,
    a2: &Matrix,
    b1: &Matrix,
    b2: &Matrix,
) -> Matrix {
    let mut c = Matrix::zeros(a1.rows(), b1.cols());
    leaf_gemm_fused_with(
        Dispatch::default().with_kernel(kernel),
        Operand::Add(a1.view(), a2.view()),
        Operand::Sub(b1.view(), b2.view()),
        &mut c.view_mut(),
        Accum::Set,
        None,
        None,
    )
    .unwrap();
    c
}

/// `x` with every element rounded once through f32.
fn round_through_f32(x: &Matrix) -> Matrix {
    Matrix::from_fn(x.rows(), x.cols(), |i, j| f64::from(x.get(i, j) as f32))
}

/// The f64 kernel of `mixed`'s ISA.
fn f64_twin(mixed: &KernelInfo) -> &'static KernelInfo {
    available_kernels()
        .into_iter()
        .find(|k| k.isa == mixed.isa && k.dtype == DtypeTier::F64)
        .expect("every ISA has an f64 kernel")
}

#[test]
fn mixed_is_f64_arithmetic_on_f32_rounded_operands() {
    // The mixed tier is a packing rule: the same ISA's f64 kernel on
    // operands rounded once through f32 must reproduce it bit for bit —
    // across k-panels, ragged edges, both merges, fused sums (combined in
    // f64, then rounded) and pooled B packing. n = 600 is two k-panels
    // at the host-tuned depth and several row bands; it runs in release
    // builds (CI's release gemm jobs), as a debug build takes a minute
    // over it.
    let sizes: &[usize] = if cfg!(debug_assertions) {
        &[37, 257]
    } else {
        &[37, 257, 600]
    };
    let pool = ThreadPool::new(2);
    for mixed in available_kernels()
        .into_iter()
        .filter(|k| k.dtype == DtypeTier::Mixed)
    {
        let f64_kernel = f64_twin(mixed);
        for &n in sizes {
            let mut gen = MatrixGen::new(n as u64);
            let [a, b, c0] = [(); 3].map(|_| gen.uniform(n, n, -2.0, 2.0));
            let (ar, br) = (round_through_f32(&a), round_through_f32(&b));
            for beta in [0.0, 1.0] {
                let run = |kernel, a: &Matrix, b: &Matrix| {
                    let mut c = c0.clone();
                    let ctx = GemmContext::with_kernel(kernel);
                    dgemm(-0.75, &a.view(), &b.view(), beta, &mut c.view_mut(), &ctx).unwrap();
                    c
                };
                assert_eq!(
                    run(mixed, &a, &b),
                    run(f64_kernel, &ar, &br),
                    "`{}` vs `{}` at n = {n}, β = {beta}",
                    mixed.name,
                    f64_kernel.name
                );
            }
        }
        let n = 257;
        let mut gen = MatrixGen::new(7);
        let [x1, x2, y1, y2] = [(); 4].map(|_| gen.uniform(n, n, -2.0, 2.0));
        let diff = |x: &Matrix, y: &Matrix| {
            round_through_f32(&Matrix::from_fn(n, n, |i, j| x.get(i, j) - y.get(i, j)))
        };
        let (xr, yr) = (diff(&x1, &x2), diff(&y1, &y2));
        for p in [None, Some(&pool)] {
            let leaf = |kernel, a: Operand<'_>, b: Operand<'_>| {
                let mut c = Matrix::zeros(n, n);
                let dispatch = Dispatch::default().with_kernel(kernel);
                leaf_gemm_fused_with(dispatch, a, b, &mut c.view_mut(), Accum::Set, p, None)
                    .unwrap();
                c
            };
            let (x, y) = (x1.view(), y1.view());
            let got = leaf(
                mixed,
                Operand::Sub(x, x2.view()),
                Operand::Sub(y, y2.view()),
            );
            let want = leaf(
                f64_kernel,
                Operand::View(xr.view()),
                Operand::View(yr.view()),
            );
            assert_eq!(
                got,
                want,
                "fused `{}` vs `{}` (pool: {})",
                mixed.name,
                f64_kernel.name,
                p.is_some()
            );
        }
    }
}

/// Depth and edge of the packed panel pair the tier timing rule sweeps.
const SWEEP_KC: usize = 256;
const SWEEP_EDGE: usize = 96;

/// The same `SWEEP_EDGE × SWEEP_KC` A and `SWEEP_KC × SWEEP_EDGE` B,
/// packed for `kernel`'s tile and element type into `f64`-slot buffers.
fn packed_panels(kernel: &KernelInfo) -> (Vec<f64>, Vec<f64>) {
    fn pack<T: PackScalar>(kernel: &KernelInfo) -> (Vec<f64>, Vec<f64>) {
        let mut gen = MatrixGen::new(7);
        let a = gen.uniform(SWEEP_EDGE, SWEEP_KC, -1.0, 1.0);
        let b = gen.uniform(SWEEP_KC, SWEEP_EDGE, -1.0, 1.0);
        let mut pa = vec![0.0; kernel.slots_for(packed_a_len(SWEEP_EDGE, SWEEP_KC, kernel.mr))];
        let mut pb = vec![0.0; kernel.slots_for(packed_b_len(SWEEP_KC, SWEEP_EDGE, kernel.nr))];
        pack_a(&a.view(), T::cast_mut(&mut pa), kernel.mr);
        pack_b(&b.view(), T::cast_mut(&mut pb), kernel.nr);
        (pa, pb)
    }
    match kernel.func {
        KernelFn::F64(_) => pack::<f64>(kernel),
        KernelFn::F32(_) => pack::<f32>(kernel),
    }
}

/// Wall seconds of one sweep of every register tile of the panel pair.
fn sweep_secs(kernel: &KernelInfo, (pa, pb): &(Vec<f64>, Vec<f64>), c: &mut Matrix) -> f64 {
    let t0 = Instant::now();
    kernel.sweep_tiles(
        SWEEP_KC,
        pa,
        pb,
        SWEEP_EDGE.div_ceil(kernel.mr),
        SWEEP_EDGE.div_ceil(kernel.nr),
        1.0,
        &mut c.view_mut(),
    );
    t0.elapsed().as_secs_f64()
}

/// A tier slower than scalar code on its own packed panels has a broken
/// tile body or dispatch. Each tier is held to the scalar tier of its
/// dtype. A mixed tier sweeps its ISA's f64 kernel (mixed rounds at pack
/// time, which this sweep leaves out), so it is timed against the scalar
/// f64 body under the `scalar-mixed` label.
/// The dispatched tier's rate is the benchmark's `gemm.kernel.*_gflops`.
#[test]
#[ignore = "release-tier timing rule"]
fn every_tier_sweeps_at_least_as_fast_as_its_scalar_tier() {
    const ROUNDS: usize = 30;
    let mut c = Matrix::zeros(SWEEP_EDGE, SWEEP_EDGE);
    for kernel in available_kernels() {
        let scalar = scalar_kernel_for(kernel.dtype);
        if kernel == scalar {
            continue;
        }
        let (panels, scalar_panels) = (packed_panels(kernel), packed_panels(scalar));
        // Interleaved best-of: a change in the host's speed state moves
        // both sides alike.
        let (mut best, mut best_scalar) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..ROUNDS {
            best = best.min(sweep_secs(kernel, &panels, &mut c));
            best_scalar = best_scalar.min(sweep_secs(scalar, &scalar_panels, &mut c));
        }
        let gflops = |secs: f64| (2 * SWEEP_EDGE * SWEEP_EDGE * SWEEP_KC) as f64 / secs / 1e9;
        println!(
            "{}: {:.1} GF/s, {}: {:.1} GF/s",
            kernel.name,
            gflops(best),
            scalar.name,
            gflops(best_scalar)
        );
        assert!(
            best <= best_scalar,
            "`{}` sweeps in {best:.3e} s, slower than `{}` ({best_scalar:.3e} s)",
            kernel.name,
            scalar.name
        );
    }
}
