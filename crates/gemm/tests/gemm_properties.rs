//! Property-based tests for the blocked DGEMM against the naive oracle,
//! under the default dispatch and with the scalar tier pinned.

use powerscale_gemm::leaf::{leaf_gemm_fused_with, Accum, Operand};
use powerscale_gemm::{
    dgemm, naive::naive_mm, scalar_kernel, BlockingParams, Dispatch, GemmContext,
};
use powerscale_matrix::norms::rel_frobenius_error;
use powerscale_matrix::{Matrix, MatrixGen};
use proptest::prelude::*;

/// The default dispatch and the scalar tier pinned.
fn dispatches() -> [Dispatch; 2] {
    [
        Dispatch::default(),
        Dispatch::default().with_kernel(scalar_kernel()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_equals_naive_on_random_shapes(
        m in 1usize..90, k in 1usize..90, n in 1usize..90, seed in any::<u64>()
    ) {
        let mut gen = MatrixGen::new(seed);
        let a = gen.uniform(m, k, -2.0, 2.0);
        let b = gen.uniform(k, n, -2.0, 2.0);
        let got = powerscale_gemm::multiply(&a.view(), &b.view()).unwrap();
        let want = naive_mm(&a.view(), &b.view()).unwrap();
        prop_assert!(rel_frobenius_error(&got.view(), &want.view()) < 1e-12);
    }

    #[test]
    fn alpha_beta_linearity(
        n in 2usize..48, alpha in -3.0f64..3.0, beta in -3.0f64..3.0, seed in any::<u64>()
    ) {
        // dgemm(alpha, a, b, beta, c) == alpha*(a·b) + beta*c elementwise.
        let mut gen = MatrixGen::new(seed);
        let a = gen.paper_operand(n);
        let b = gen.paper_operand(n);
        let c0 = gen.paper_operand(n);
        let ab = naive_mm(&a.view(), &b.view()).unwrap();
        let want = Matrix::from_fn(n, n, |i, j| alpha * ab.get(i, j) + beta * c0.get(i, j));
        // Tolerance scales with the operand magnitudes.
        let scale = powerscale_matrix::norms::frobenius(&want.view()).max(1.0);
        for d in dispatches() {
            let mut c = c0.clone();
            let ctx = GemmContext::new(d, None, None);
            dgemm(alpha, &a.view(), &b.view(), beta, &mut c.view_mut(), &ctx).unwrap();
            let diff = powerscale_matrix::norms::max_abs_diff(&c.view(), &want.view());
            prop_assert!(diff < 1e-11 * scale, "{}: diff {diff} at scale {scale}", d.kernel().name);
        }
    }

    #[test]
    fn custom_blocking_params_do_not_change_results(
        n in 1usize..70,
        mc_mult in 1usize..4,
        kc in 8usize..64,
        nc_mult in 1usize..4,
        seed in any::<u64>()
    ) {
        let mut gen = MatrixGen::new(seed);
        let a = gen.paper_operand(n);
        let b = gen.paper_operand(n);
        let want = naive_mm(&a.view(), &b.view()).unwrap();
        for d in dispatches() {
            let kernel = d.kernel();
            let params = BlockingParams {
                mc: kernel.mr * mc_mult * 4,  // multiple of the kernel's MR
                kc,
                nc: kernel.nr * nc_mult * 8,  // multiple of the kernel's NR
                mr: kernel.mr,
                nr: kernel.nr,
            };
            params.validate().unwrap();
            let mut c = Matrix::zeros(n, n);
            let ctx = GemmContext { params, ..GemmContext::new(d, None, None) };
            dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &ctx).unwrap();
            prop_assert!(rel_frobenius_error(&c.view(), &want.view()) < 1e-12, "{}", kernel.name);
        }
    }

    #[test]
    fn storing_the_first_panel_is_adding_onto_zeros(
        m in 1usize..40,
        k in 1usize..90,
        n in 1usize..70,
        zero_rows in 0usize..4,
        seed in any::<u64>()
    ) {
        // dgemm at β = 0 and the leaf's Accum::Set store their first
        // k-panel instead of adding it onto a zero-filled C. Accumulators
        // start at +0.0 and round-to-nearest sums never yield −0.0, so at
        // α = +1 a store is bitwise a zero-fill-then-add. At α = −1 the one
        // difference is a C element that sums to zero (here: the rows of
        // A's zero rows): stored as −0.0, where +0.0 + (−0.0) gave +0.0.
        // The 16-deep panels make most products store, add, then add a
        // ragged last panel.
        let mut gen = MatrixGen::new(seed);
        let mut a = gen.uniform(m, k, -1.0, 1.0);
        for i in 0..zero_rows.min(m) {
            for j in 0..k {
                a.set(i, j, 0.0);
            }
        }
        let b = gen.uniform(k, n, -1.0, 1.0);
        for disp in dispatches() {
            let name = disp.kernel().name;
            let (mr, nr) = (disp.kernel().mr, disp.kernel().nr);
            let params = BlockingParams { mc: 2 * mr, kc: 16, nc: 2 * nr, mr, nr };
            let ctx = GemmContext { params, ..GemmContext::new(disp, None, None) };
            for alpha in [1.0, -1.0] {
                let mut stored = Matrix::filled(m, n, f64::NAN);
                dgemm(alpha, &a.view(), &b.view(), 0.0, &mut stored.view_mut(), &ctx).unwrap();
                let mut added = Matrix::zeros(m, n);
                dgemm(alpha, &a.view(), &b.view(), 1.0, &mut added.view_mut(), &ctx).unwrap();
                for i in 0..m {
                    for j in 0..n {
                        let (s, d) = (stored.get(i, j).to_bits(), added.get(i, j).to_bits());
                        if alpha < 0.0 && i < zero_rows {
                            prop_assert_eq!(s, (-0.0f64).to_bits(), "{} α = −1 zero row {}", name, i);
                            prop_assert_eq!(d, 0.0f64.to_bits(), "{} β = 1 onto +0.0, row {}", name, i);
                        } else {
                            prop_assert_eq!(s, d, "{} α = {} at ({}, {})", name, alpha, i, j);
                        }
                    }
                }
            }
            // The leaf's Set (α = +1) is bitwise its Add onto +0.0.
            let leaf = |c: &mut Matrix, accum: Accum| {
                let (a, b) = (Operand::View(a.view()), Operand::View(b.view()));
                leaf_gemm_fused_with(disp, a, b, &mut c.view_mut(), accum, None, None).unwrap();
            };
            let (mut set, mut add) = (Matrix::filled(m, n, f64::NAN), Matrix::zeros(m, n));
            leaf(&mut set, Accum::Set);
            leaf(&mut add, Accum::Add);
            let bits = |c: &Matrix| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&set), bits(&add), "{}", name);
        }
    }

    #[test]
    fn gemm_on_views_leaves_surroundings_untouched(
        inner in 1usize..24, pad in 1usize..8, seed in any::<u64>()
    ) {
        // Run dgemm into an interior sub-view of a larger sentinel-filled
        // matrix; the frame must be untouched.
        let outer = inner + 2 * pad;
        let mut gen = MatrixGen::new(seed);
        let a = gen.paper_operand(inner);
        let b = gen.paper_operand(inner);
        let want = naive_mm(&a.view(), &b.view()).unwrap();
        for d in dispatches() {
            let name = d.kernel().name;
            let mut big = Matrix::filled(outer, outer, -777.0);
            {
                let mut dst = big.sub_view_mut((pad, pad), (inner, inner)).unwrap();
                let ctx = GemmContext::new(d, None, None);
                dgemm(1.0, &a.view(), &b.view(), 0.0, &mut dst, &ctx).unwrap();
            }
            for i in 0..outer {
                for j in 0..outer {
                    let in_window =
                        i >= pad && i < pad + inner && j >= pad && j < pad + inner;
                    if !in_window {
                        prop_assert_eq!(big.get(i, j), -777.0, "{} frame touched at ({}, {})", name, i, j);
                    }
                }
            }
            let got = big.sub_view((pad, pad), (inner, inner)).unwrap().to_matrix();
            prop_assert!(rel_frobenius_error(&got.view(), &want.view()) < 1e-12, "{}", name);
        }
    }
}
