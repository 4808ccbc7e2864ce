//! The naive triple-loop reference multiply: the correctness oracle every
//! other kernel in the workspace is tested against.

use powerscale_counters::{Event, EventSet, Profile};
use powerscale_matrix::{DimError, DimResult, Matrix, MatrixView, MatrixViewMut};

/// `C += A · B` with the classic i-k-j loop order (row-slice friendly).
///
/// Deliberately unoptimised beyond loop order; this is the oracle, not a
/// contender.
pub(crate) fn naive_gemm(
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    c: &mut MatrixViewMut<'_>,
    events: Option<&EventSet>,
) -> DimResult<()> {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    if k != kb {
        return Err(DimError::Inner {
            lhs_cols: k,
            rhs_rows: kb,
        });
    }
    if c.shape() != (m, n) {
        return Err(DimError::Mismatch {
            op: "naive_gemm",
            lhs: (m, n),
            rhs: c.shape(),
        });
    }
    for i in 0..m {
        for kk in 0..k {
            let aik = a.get(i, kk);
            let brow = b.row(kk);
            let crow = c.row_mut(i);
            for j in 0..n {
                crow[j] += aik * brow[j];
            }
        }
    }
    if let Some(set) = events {
        let mut p = Profile::new();
        p.add_count(Event::FpOps, 2 * (m as u64) * (n as u64) * (k as u64));
        p.add_count(Event::BytesRead, 8 * (m * k + k * n) as u64);
        p.add_count(Event::BytesWritten, 8 * (m * n) as u64);
        p.add_count(Event::KernelCalls, 1);
        set.record_profile(&p);
    }
    Ok(())
}

/// Returns `A · B` as a fresh matrix.
pub fn naive_mm(a: &MatrixView<'_>, b: &MatrixView<'_>) -> DimResult<Matrix> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    naive_gemm(a, b, &mut c.view_mut(), None)?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerscale_matrix::{Matrix, MatrixGen, SpecialMatrix};

    #[test]
    fn two_by_two_known_product() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_rows(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = naive_mm(&a.view(), &b.view()).unwrap();
        assert_eq!(c, Matrix::from_rows(2, 2, &[19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn identity_is_neutral() {
        let a = MatrixGen::new(1).paper_operand(16);
        let i = SpecialMatrix::Identity.build(16);
        let left = naive_mm(&i.view(), &a.view()).unwrap();
        let right = naive_mm(&a.view(), &i.view()).unwrap();
        assert!(left.approx_eq(&a, 1e-14));
        assert!(right.approx_eq(&a, 1e-14));
    }

    #[test]
    fn rectangular_shapes() {
        let a = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let b = Matrix::from_fn(3, 4, |i, j| (i + j) as f64);
        let c = naive_mm(&a.view(), &b.view()).unwrap();
        assert_eq!(c.shape(), (2, 4));
        // c[1][2] = Σ_k a[1][k] b[k][2] = 3*2 + 4*3 + 5*4 = 38.
        assert_eq!(c.get(1, 2), 38.0);
    }

    #[test]
    fn accumulates_into_c() {
        let a = Matrix::identity(3);
        let b = Matrix::filled(3, 3, 2.0);
        let mut c = Matrix::filled(3, 3, 1.0);
        naive_gemm(&a.view(), &b.view(), &mut c.view_mut(), None).unwrap();
        assert!(c.approx_eq(&Matrix::filled(3, 3, 3.0), 0.0));
    }

    #[test]
    fn dimension_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut c = Matrix::zeros(2, 2);
        assert!(naive_gemm(&a.view(), &b.view(), &mut c.view_mut(), None).is_err());
        let b2 = Matrix::zeros(3, 5);
        assert!(naive_gemm(&a.view(), &b2.view(), &mut c.view_mut(), None).is_err());
    }

    #[test]
    fn events_recorded() {
        use powerscale_counters::{Event, EventSet};
        let a = Matrix::zeros(4, 4);
        let b = Matrix::zeros(4, 4);
        let mut c = Matrix::zeros(4, 4);
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        naive_gemm(&a.view(), &b.view(), &mut c.view_mut(), Some(&set)).unwrap();
        let p = set.stop().unwrap();
        assert_eq!(p.get(Event::FpOps), 2 * 4 * 4 * 4);
        assert_eq!(p.get(Event::KernelCalls), 1);
    }
}
