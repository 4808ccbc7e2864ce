//! Property-based tests for the matrix substrate.

use powerscale_matrix::{ops, pad, Matrix, MatrixGen};
use proptest::prelude::*;

/// Strategy: a small random matrix together with its shape.
fn small_matrix() -> impl Strategy<Value = Matrix> {
    ((1usize..12, 1usize..12), any::<u64>())
        .prop_map(|((r, c), seed)| MatrixGen::new(seed).uniform(r, c, -10.0, 10.0))
}

fn matrix_pair_same_shape() -> impl Strategy<Value = (Matrix, Matrix)> {
    ((1usize..12, 1usize..12), any::<u64>(), any::<u64>()).prop_map(|((r, c), s1, s2)| {
        (
            MatrixGen::new(s1).uniform(r, c, -10.0, 10.0),
            MatrixGen::new(s2).uniform(r, c, -10.0, 10.0),
        )
    })
}

proptest! {
    #[test]
    fn add_commutes((a, b) in matrix_pair_same_shape()) {
        let ab = ops::add(&a.view(), &b.view()).unwrap();
        let ba = ops::add(&b.view(), &a.view()).unwrap();
        prop_assert!(ab.approx_eq(&ba, 0.0));
    }

    #[test]
    fn sub_is_add_of_negation((a, b) in matrix_pair_same_shape()) {
        let d = ops::sub(&a.view(), &b.view()).unwrap();
        let mut nb = b.clone();
        ops::scale_assign(&mut nb.view_mut(), -1.0);
        let s = ops::add(&a.view(), &nb.view()).unwrap();
        prop_assert!(d.approx_eq(&s, 1e-12));
    }

    #[test]
    fn transpose_is_involution(a in small_matrix()) {
        prop_assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn transpose_preserves_frobenius(a in small_matrix()) {
        let n1 = powerscale_matrix::norms::frobenius(&a.view());
        let t = a.transposed();
        let n2 = powerscale_matrix::norms::frobenius(&t.view());
        prop_assert!((n1 - n2).abs() <= 1e-9 * n1.max(1.0));
    }

    #[test]
    fn quadrant_split_join_round_trip(seed in any::<u64>(), half in 1usize..8) {
        let n = half * 2;
        let m = MatrixGen::new(seed).uniform(n, n, -5.0, 5.0);
        let q = m.view().quadrants().unwrap();
        let mut rebuilt = Matrix::zeros(n, n);
        {
            let qm = rebuilt.view_mut().quadrants().unwrap();
            let (mut b11, mut b12, mut b21, mut b22) = (qm.a11, qm.a12, qm.a21, qm.a22);
            b11.copy_from(&q.a11).unwrap();
            b12.copy_from(&q.a12).unwrap();
            b21.copy_from(&q.a21).unwrap();
            b22.copy_from(&q.a22).unwrap();
        }
        prop_assert_eq!(rebuilt, m);
    }

    #[test]
    fn pad_crop_round_trip(a in small_matrix(), extra in 0usize..10) {
        let target = a.rows().max(a.cols()) + extra;
        let padded = pad::pad_to(&a.view(), target);
        prop_assert_eq!(padded.shape(), (target, target));
        let back = pad::crop(&padded.view(), a.rows(), a.cols());
        prop_assert_eq!(back, a);
    }

    #[test]
    fn pad_region_is_zero(a in small_matrix(), extra in 1usize..6) {
        let target = a.rows().max(a.cols()) + extra;
        let padded = pad::pad_to(&a.view(), target);
        for i in 0..target {
            for j in 0..target {
                if i >= a.rows() || j >= a.cols() {
                    prop_assert_eq!(padded.get(i, j), 0.0);
                }
            }
        }
    }

    #[test]
    fn next_recursive_size_minimal_and_valid(n in 1usize..5000, base in 1usize..128) {
        let s = pad::next_recursive_size(n, base);
        prop_assert!(s >= n.max(1).min(s)); // s >= n when n > base handled below
        if n > base {
            prop_assert!(s >= n);
            // s divides down by 2 to something <= base.
            let mut m = s;
            while m > base {
                prop_assert_eq!(m % 2, 0);
                m /= 2;
            }
            // Minimality: half the even part would drop below n.
            prop_assert!(s / 2 < n || s == n);
        } else {
            prop_assert_eq!(s, n.max(1));
        }
    }

    #[test]
    fn axpy_linearity((a, b) in matrix_pair_same_shape(), alpha in -4.0f64..4.0) {
        // a + alpha*b computed two ways.
        let mut via_axpy = a.clone();
        ops::axpy_assign(&mut via_axpy.view_mut(), alpha, &b.view()).unwrap();
        let mut scaled = b.clone();
        ops::scale_assign(&mut scaled.view_mut(), alpha);
        let via_add = ops::add(&a.view(), &scaled.view()).unwrap();
        prop_assert!(via_axpy.approx_eq(&via_add, 1e-9));
    }
}
