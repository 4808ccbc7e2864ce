//! Metamorphic identities for a multiply implementation.
//!
//! A metamorphic test needs no oracle: it runs the implementation under
//! test on *related* inputs and checks that the outputs satisfy the
//! algebraic relation connecting them. The identities here are the
//! classic GEMM set:
//!
//! * **transpose** — `(A·B)ᵀ = Bᵀ·Aᵀ`,
//! * **scaling** — `(2A)·B = 2·(A·B)`, *bitwise* (doubling is exact in
//!   binary floating point, and every intermediate of the scaled run is
//!   the doubled intermediate of the base run),
//! * **row permutation** — `(P·A)·B = P·(A·B)` for a permutation `P`,
//! * **distributivity** — `A·(B + C) = A·B + A·C`.
//!
//! Only the scaling identity holds exactly; the others are satisfied up
//! to a summation-order-dependent rounding difference, so the report
//! carries their observed max-norm relative errors for the caller to
//! bound.

use crate::oracle::max_rel_error;
use powerscale_matrix::{ops, Matrix, MatrixGen, MatrixView};

/// A multiply implementation under metamorphic test.
pub(crate) type MulFn<'a> = dyn Fn(&MatrixView<'_>, &MatrixView<'_>) -> Matrix + 'a;

/// Observed deviations of one implementation from the identity set.
#[derive(Debug, Clone, Copy)]
pub struct MetamorphicReport {
    /// Max-norm relative error of `(A·B)ᵀ` against `Bᵀ·Aᵀ`.
    pub transpose_err: f64,
    /// Whether `(2A)·B` equalled `2·(A·B)` bit-for-bit.
    pub scaling_exact: bool,
    /// Max-norm relative error of `(P·A)·B` against `P·(A·B)`.
    pub permutation_err: f64,
    /// Max-norm relative error of `A·(B+C)` against `A·B + A·C`.
    pub distributive_err: f64,
}

impl MetamorphicReport {
    /// The largest approximate-identity error in the report.
    pub fn worst_err(&self) -> f64 {
        self.transpose_err
            .max(self.permutation_err)
            .max(self.distributive_err)
    }
}

/// Reverses the rows of `a` — the fixed permutation `P` of the
/// row-permutation identity (its own inverse, and dimension-agnostic).
fn reverse_rows(a: &MatrixView<'_>) -> Matrix {
    Matrix::from_fn(a.rows(), a.cols(), |i, j| a.get(a.rows() - 1 - i, j))
}

/// Runs the full identity set against `mul` on seeded `n × n` operands.
///
/// Deviations are *reported*, not asserted: the caller decides the bound
/// (and whether `scaling_exact` is required — it should be for every
/// implementation in this workspace).
pub fn check_identities(mul: &MulFn<'_>, n: usize, seed: u64) -> MetamorphicReport {
    let mut gen = MatrixGen::new(seed);
    let a = gen.paper_operand(n);
    let b = gen.paper_operand(n);
    let c = gen.paper_operand(n);

    let ab = mul(&a.view(), &b.view());

    // (A·B)ᵀ = Bᵀ·Aᵀ
    let bt_at = mul(&b.transposed().view(), &a.transposed().view());
    let transpose_err = max_rel_error(&ab.transposed().view(), &bt_at.view());

    // (2A)·B = 2·(A·B), exactly.
    let mut a2 = a.clone();
    ops::scale_assign(&mut a2.view_mut(), 2.0);
    let a2b = mul(&a2.view(), &b.view());
    let mut ab2 = ab.clone();
    ops::scale_assign(&mut ab2.view_mut(), 2.0);
    let scaling_exact = a2b.as_slice() == ab2.as_slice();

    // (P·A)·B = P·(A·B)
    let pa_b = mul(&reverse_rows(&a.view()).view(), &b.view());
    let p_ab = reverse_rows(&ab.view());
    let permutation_err = max_rel_error(&pa_b.view(), &p_ab.view());

    // A·(B+C) = A·B + A·C
    let bc = ops::add(&b.view(), &c.view()).expect("B + C shapes agree");
    let a_bc = mul(&a.view(), &bc.view());
    let ac = mul(&a.view(), &c.view());
    let ab_ac = ops::add(&ab.view(), &ac.view()).expect("AB + AC shapes agree");
    let distributive_err = max_rel_error(&a_bc.view(), &ab_ac.view());

    MetamorphicReport {
        transpose_err,
        scaling_exact,
        permutation_err,
        distributive_err,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::reference_mm;

    #[test]
    fn oracle_satisfies_every_identity() {
        let report = check_identities(&|a, b| reference_mm(a, b), 24, 7);
        assert!(report.scaling_exact);
        // The compensated oracle is correct to ~1 ulp, so the approximate
        // identities hold to near machine precision.
        assert!(
            report.worst_err() < 1e-14,
            "oracle identity error too large: {report:?}"
        );
    }

    #[test]
    fn a_broken_multiply_is_caught() {
        // A multiply with a constant additive bias — a stand-in for an
        // accumulator initialisation bug. The bias is invisible to a
        // spot-check against small hand inputs but breaks linearity, so
        // both the exact scaling identity and distributivity flag it.
        let broken = |a: &MatrixView<'_>, b: &MatrixView<'_>| {
            Matrix::from_fn(a.rows(), b.cols(), |i, j| {
                let dot: f64 = (0..a.cols()).map(|k| a.get(i, k) * b.get(k, j)).sum();
                dot + 1e-3
            })
        };
        let report = check_identities(&broken, 16, 11);
        assert!(
            !report.scaling_exact,
            "biased multiply slipped past the scaling identity"
        );
        assert!(
            report.distributive_err > 1e-5,
            "biased multiply slipped past distributivity: {report:?}"
        );
    }

    #[test]
    fn reverse_rows_is_an_involution() {
        let mut gen = MatrixGen::new(2);
        let a = gen.paper_operand(9);
        let twice = reverse_rows(&reverse_rows(&a.view()).view());
        assert_eq!(twice.as_slice(), a.as_slice());
    }
}
