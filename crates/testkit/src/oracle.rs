//! High-precision reference multiply: a compensated (double-double)
//! schoolbook GEMM used as the ground truth of the differential engine.
//!
//! Every inner product is accumulated in an error-free-transformation
//! pair: `two_prod` splits each `aᵢₖ·bₖⱼ` into a rounded product and its
//! exact rounding error (via FMA), and `two_sum` folds the products into
//! a `hi + lo` running sum whose `lo` carries the bits an `f64`
//! accumulator would have discarded. The result is correct to well under
//! one ulp of the true dot product for the dimensions the suite runs
//! (n ≤ 1024 with operands in `[-1, 1]`), so disagreement between a
//! candidate and this oracle measures the *candidate's* error, not the
//! oracle's.

use powerscale_matrix::{Matrix, MatrixView};

/// Error-free sum: returns `(s, e)` with `s = fl(a + b)` and
/// `a + b = s + e` exactly (Knuth's TwoSum, no magnitude precondition).
#[inline]
pub(crate) fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Error-free product: returns `(p, e)` with `p = fl(a · b)` and
/// `a · b = p + e` exactly (FMA-based TwoProd).
#[inline]
pub(crate) fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = a.mul_add(b, -p);
    (p, e)
}

/// A compensated accumulator: `hi` is the running rounded sum, `lo` the
/// accumulated rounding error of every fold so far.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DdAcc {
    hi: f64,
    lo: f64,
}

impl DdAcc {
    /// Folds the exact product `a · b` into the accumulator.
    #[inline]
    pub fn mul_add(&mut self, a: f64, b: f64) {
        let (p, pe) = two_prod(a, b);
        let (s, se) = two_sum(self.hi, p);
        self.hi = s;
        self.lo += pe + se;
    }

    /// The accumulated value, rounded once at the end.
    #[inline]
    pub fn value(&self) -> f64 {
        self.hi + self.lo
    }
}

/// `A · B` by compensated schoolbook multiplication — the differential
/// oracle. O(n³) with ~4× the flops of a naive multiply; intended for
/// test dimensions only.
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn reference_mm(a: &MatrixView<'_>, b: &MatrixView<'_>) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "oracle: inner dimensions must agree ({}x{} · {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = DdAcc::default();
        for k in 0..a.cols() {
            acc.mul_add(a.get(i, k), b.get(k, j));
        }
        acc.value()
    })
}

/// Max-norm relative error of `candidate` against `reference`:
/// `max_ij |c_ij − r_ij| / max_ij |r_ij|`.
///
/// Normalising by the reference's max magnitude (rather than element-wise)
/// keeps near-zero entries from manufacturing spurious blow-ups while
/// still catching any single wrong element. Returns `0.0` for two empty
/// matrices and `f64::INFINITY` when the shapes disagree or a
/// non-finite entry appears.
pub fn max_rel_error(candidate: &MatrixView<'_>, reference: &MatrixView<'_>) -> f64 {
    if candidate.shape() != reference.shape() {
        return f64::INFINITY;
    }
    let mut max_diff = 0.0f64;
    let mut max_ref = 0.0f64;
    for i in 0..reference.rows() {
        for j in 0..reference.cols() {
            let r = reference.get(i, j);
            let c = candidate.get(i, j);
            if !r.is_finite() || !c.is_finite() {
                return f64::INFINITY;
            }
            max_diff = max_diff.max((c - r).abs());
            max_ref = max_ref.max(r.abs());
        }
    }
    if max_diff == 0.0 {
        0.0
    } else if max_ref == 0.0 {
        f64::INFINITY
    } else {
        max_diff / max_ref
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerscale_matrix::MatrixGen;

    #[test]
    fn two_sum_is_error_free() {
        let (s, e) = two_sum(1.0, 1e-30);
        assert_eq!(s, 1.0);
        assert_eq!(e, 1e-30);
    }

    #[test]
    fn two_prod_recovers_the_rounding_error() {
        let a = 1.0 + f64::EPSILON;
        let b = 1.0 - f64::EPSILON;
        let (p, e) = two_prod(a, b);
        // a·b = 1 − eps² exactly; p rounds to 1.0 and e carries −eps².
        assert_eq!(p + e, 1.0 - f64::EPSILON * f64::EPSILON);
    }

    #[test]
    fn compensated_sum_beats_plain_f64() {
        // Summing 1 followed by many tiny terms: a plain f64 accumulator
        // drops them all; the compensated one keeps them.
        let tiny = f64::EPSILON / 4.0;
        let mut acc = DdAcc::default();
        acc.mul_add(1.0, 1.0);
        let mut plain = 1.0f64;
        for _ in 0..1000 {
            acc.mul_add(tiny, 1.0);
            plain += tiny;
        }
        assert_eq!(plain, 1.0, "plain accumulation should have lost the tail");
        let expected = 1.0 + 1000.0 * tiny;
        assert!((acc.value() - expected).abs() < f64::EPSILON);
    }

    #[test]
    fn oracle_matches_identity_multiplication() {
        let mut gen = MatrixGen::new(3);
        let a = gen.paper_operand(17);
        let id = Matrix::identity(17);
        let c = reference_mm(&a.view(), &id.view());
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn max_rel_error_flags_a_single_bad_element() {
        let mut gen = MatrixGen::new(4);
        let r = gen.paper_operand(8);
        let mut c = r.clone();
        assert_eq!(max_rel_error(&c.view(), &r.view()), 0.0);
        c.set(3, 5, c.get(3, 5) + 1e-6);
        assert!(max_rel_error(&c.view(), &r.view()) > 1e-8);
    }

    #[test]
    fn max_rel_error_rejects_shape_mismatch_and_nan() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert_eq!(max_rel_error(&a.view(), &b.view()), f64::INFINITY);
        let mut n = Matrix::filled(2, 2, 1.0);
        n.set(0, 0, f64::NAN);
        let r = Matrix::filled(2, 2, 1.0);
        assert_eq!(max_rel_error(&n.view(), &r.view()), f64::INFINITY);
    }
}
