//! Matrix norms and error metrics.
//!
//! Used by the test suites to compare algorithm outputs against the naive
//! reference multiply, and by the numerical-stability study (the paper notes
//! Strassen's stability is "well understood" per Higham; we quantify it).

use crate::MatrixView;

/// Frobenius norm: `sqrt(Σ a_ij²)`.
pub fn frobenius(a: &MatrixView<'_>) -> f64 {
    let mut acc = 0.0f64;
    for i in 0..a.rows() {
        for &x in a.row(i) {
            acc += x * x;
        }
    }
    acc.sqrt()
}

/// Largest elementwise absolute difference between two equally-shaped views.
///
/// # Panics
/// Panics if shapes differ (this is a test/verification utility).
pub fn max_abs_diff(a: &MatrixView<'_>, b: &MatrixView<'_>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "max_abs_diff: shape mismatch");
    let mut m = 0.0f64;
    for i in 0..a.rows() {
        for (x, y) in a.row(i).iter().zip(b.row(i)) {
            m = m.max((x - y).abs());
        }
    }
    m
}

/// Relative Frobenius error `‖a − b‖_F / max(‖b‖_F, ε)`.
///
/// This is the metric used by the integration tests to accept Strassen/CAPS
/// results against the reference: fast algorithms lose a few digits relative
/// to the blocked multiply (Higham, *Accuracy and Stability of Numerical
/// Algorithms*), so equality must be judged in a normwise relative sense.
pub fn rel_frobenius_error(a: &MatrixView<'_>, b: &MatrixView<'_>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "rel_frobenius_error: shape mismatch");
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for i in 0..a.rows() {
        for (x, y) in a.row(i).iter().zip(b.row(i)) {
            num += (x - y) * (x - y);
            den += y * y;
        }
    }
    num.sqrt() / den.sqrt().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// Max-absolute-value (infinity on elements) norm: `max |a_ij|`.
    fn max_abs(a: &MatrixView<'_>) -> f64 {
        let mut m = 0.0f64;
        for i in 0..a.rows() {
            for &x in a.row(i) {
                m = m.max(x.abs());
            }
        }
        m
    }

    /// Row-sum (infinity) operator norm: `max_i Σ_j |a_ij|`.
    fn inf_norm(a: &MatrixView<'_>) -> f64 {
        let mut m = 0.0f64;
        for i in 0..a.rows() {
            let s: f64 = a.row(i).iter().map(|x| x.abs()).sum();
            m = m.max(s);
        }
        m
    }

    /// One (column-sum) operator norm: `max_j Σ_i |a_ij|`.
    fn one_norm(a: &MatrixView<'_>) -> f64 {
        let mut sums = vec![0.0f64; a.cols()];
        for i in 0..a.rows() {
            for (j, &x) in a.row(i).iter().enumerate() {
                sums[j] += x.abs();
            }
        }
        sums.into_iter().fold(0.0, f64::max)
    }

    #[test]
    fn frobenius_of_identity() {
        let i4 = Matrix::identity(4);
        assert!((frobenius(&i4.view()) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn max_abs_finds_extreme() {
        let m = Matrix::from_fn(3, 3, |i, j| if (i, j) == (2, 1) { -7.5 } else { 1.0 });
        assert_eq!(max_abs(&m.view()), 7.5);
    }

    #[test]
    fn inf_and_one_norms() {
        let m = Matrix::from_rows(2, 2, &[1.0, -2.0, 3.0, 4.0]);
        assert_eq!(inf_norm(&m.view()), 7.0); // row 1: |3|+|4|
        assert_eq!(one_norm(&m.view()), 6.0); // col 1: |-2|+|4|
    }

    #[test]
    fn diff_metrics_zero_on_equal() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * j) as f64);
        assert_eq!(max_abs_diff(&m.view(), &m.view()), 0.0);
        assert_eq!(rel_frobenius_error(&m.view(), &m.view()), 0.0);
    }

    #[test]
    fn rel_error_scales() {
        let a = Matrix::filled(2, 2, 1.0 + 1e-8);
        let b = Matrix::filled(2, 2, 1.0);
        let e = rel_frobenius_error(&a.view(), &b.view());
        assert!((e - 1e-8).abs() < 1e-12, "e = {e}");
    }

    #[test]
    fn norms_respect_views() {
        let big = Matrix::from_fn(4, 4, |i, j| if i >= 2 && j >= 2 { 2.0 } else { 100.0 });
        let sub = big.sub_view((2, 2), (2, 2)).unwrap();
        assert_eq!(max_abs(&sub), 2.0);
        assert_eq!(frobenius(&sub), 4.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn diff_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        let _ = max_abs_diff(&a.view(), &b.view());
    }
}
