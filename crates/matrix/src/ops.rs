//! Elementwise matrix operations on views.
//!
//! These are the O(n²) building blocks the Strassen and CAPS recursions are
//! made of (quadrant adds/subtracts and accumulations). They operate on views
//! so recursion levels never copy operands, and each function also has an
//! `*_into` form writing to a caller-provided destination so intermediate
//! buffers can be pooled.

use crate::{DimError, DimResult, Matrix, MatrixView, MatrixViewMut};
use powerscale_pool::{Scope, ThreadPool};

fn check2(op: &'static str, a: (usize, usize), b: (usize, usize)) -> DimResult<()> {
    if a != b {
        return Err(DimError::Mismatch { op, lhs: a, rhs: b });
    }
    Ok(())
}

/// `dst = a + b` elementwise.
pub fn add_into(
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    dst: &mut MatrixViewMut<'_>,
) -> DimResult<()> {
    check2("add", a.shape(), b.shape())?;
    check2("add", a.shape(), dst.shape())?;
    for i in 0..a.rows() {
        let (ra, rb, rd) = (a.row(i), b.row(i), dst.row_mut(i));
        for j in 0..ra.len() {
            rd[j] = ra[j] + rb[j];
        }
    }
    Ok(())
}

/// `dst = a - b` elementwise.
pub(crate) fn sub_into(
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    dst: &mut MatrixViewMut<'_>,
) -> DimResult<()> {
    check2("sub", a.shape(), b.shape())?;
    check2("sub", a.shape(), dst.shape())?;
    for i in 0..a.rows() {
        let (ra, rb, rd) = (a.row(i), b.row(i), dst.row_mut(i));
        for j in 0..ra.len() {
            rd[j] = ra[j] - rb[j];
        }
    }
    Ok(())
}

/// `dst += src` elementwise.
pub fn add_assign(dst: &mut MatrixViewMut<'_>, src: &MatrixView<'_>) -> DimResult<()> {
    check2("add_assign", dst.shape(), src.shape())?;
    for i in 0..src.rows() {
        let (rs, rd) = (src.row(i), dst.row_mut(i));
        for j in 0..rs.len() {
            rd[j] += rs[j];
        }
    }
    Ok(())
}

/// `dst -= src` elementwise.
pub(crate) fn sub_assign(dst: &mut MatrixViewMut<'_>, src: &MatrixView<'_>) -> DimResult<()> {
    check2("sub_assign", dst.shape(), src.shape())?;
    for i in 0..src.rows() {
        let (rs, rd) = (src.row(i), dst.row_mut(i));
        for j in 0..rs.len() {
            rd[j] -= rs[j];
        }
    }
    Ok(())
}

/// `dst *= alpha` elementwise.
pub fn scale_assign(dst: &mut MatrixViewMut<'_>, alpha: f64) {
    for i in 0..dst.rows() {
        for x in dst.row_mut(i) {
            *x *= alpha;
        }
    }
}

/// `dst += alpha * src` (AXPY over a matrix).
pub fn axpy_assign(dst: &mut MatrixViewMut<'_>, alpha: f64, src: &MatrixView<'_>) -> DimResult<()> {
    check2("axpy", dst.shape(), src.shape())?;
    for i in 0..src.rows() {
        let (rs, rd) = (src.row(i), dst.row_mut(i));
        for j in 0..rs.len() {
            rd[j] += alpha * rs[j];
        }
    }
    Ok(())
}

/// Returns `a + b` as a new matrix.
pub fn add(a: &MatrixView<'_>, b: &MatrixView<'_>) -> DimResult<Matrix> {
    let mut out = Matrix::zeros(a.rows(), a.cols());
    add_into(a, b, &mut out.view_mut())?;
    Ok(out)
}

/// Returns `a - b` as a new matrix.
pub fn sub(a: &MatrixView<'_>, b: &MatrixView<'_>) -> DimResult<Matrix> {
    let mut out = Matrix::zeros(a.rows(), a.cols());
    sub_into(a, b, &mut out.view_mut())?;
    Ok(out)
}

/// Minimum rows per band before the parallel elementwise ops split work:
/// below this the spawn overhead outweighs the O(rows·cols) body.
const PAR_MIN_ROWS: usize = 128;

/// `true` when a parallel elementwise op should fan out at all.
fn should_split(pool: Option<&ThreadPool>, rows: usize) -> bool {
    pool.is_some_and(|p| p.num_threads() > 1) && rows >= 2 * PAR_MIN_ROWS
}

/// Recursive row-band split for one-source accumulate ops: bitwise
/// identical to the sequential form because every element is written by
/// exactly one band and row order within a band is unchanged.
fn par_bands1<'env, F>(
    s: &Scope<'_, 'env>,
    mut dst: MatrixViewMut<'env>,
    src: MatrixView<'env>,
    f: &'env F,
) where
    F: Fn(&mut MatrixViewMut<'_>, &MatrixView<'_>) + Sync,
{
    if dst.rows() >= 2 * PAR_MIN_ROWS {
        let mid = dst.rows() / 2;
        let (top, bottom) = dst.split_rows_at(mid).expect("mid < rows");
        let (src_top, src_bottom) = src.split_rows_at(mid).expect("mid < rows");
        s.spawn(move |s2| par_bands1(s2, bottom, src_bottom, f));
        return par_bands1(s, top, src_top, f);
    }
    f(&mut dst, &src);
}

/// Recursive row-band split for two-source writing ops.
fn par_bands2<'env, F>(
    s: &Scope<'_, 'env>,
    a: MatrixView<'env>,
    b: MatrixView<'env>,
    mut dst: MatrixViewMut<'env>,
    f: &'env F,
) where
    F: Fn(&MatrixView<'_>, &MatrixView<'_>, &mut MatrixViewMut<'_>) + Sync,
{
    if dst.rows() >= 2 * PAR_MIN_ROWS {
        let mid = dst.rows() / 2;
        let (top, bottom) = dst.split_rows_at(mid).expect("mid < rows");
        let (a_top, a_bottom) = a.split_rows_at(mid).expect("mid < rows");
        let (b_top, b_bottom) = b.split_rows_at(mid).expect("mid < rows");
        s.spawn(move |s2| par_bands2(s2, a_bottom, b_bottom, bottom, f));
        return par_bands2(s, a_top, b_top, top, f);
    }
    f(&a, &b, &mut dst);
}

/// `dst = a + b`, or `a − b` when `sub`, row-band parallel over `pool`
/// (sequential fallback when the pool is absent, single-threaded, or the
/// block is small). Bitwise identical to [`add_into`] / `sub_into`.
pub fn par_sum_into(
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    dst: &mut MatrixViewMut<'_>,
    sub: bool,
    pool: Option<&ThreadPool>,
) -> DimResult<()> {
    let op = if sub { sub_into } else { add_into };
    let name = if sub { "sub" } else { "add" };
    check2(name, a.shape(), b.shape())?;
    check2(name, a.shape(), dst.shape())?;
    let f = |a: &MatrixView<'_>, b: &MatrixView<'_>, d: &mut MatrixViewMut<'_>| {
        op(a, b, d).expect("shapes pre-checked");
    };
    match pool.filter(|_| should_split(pool, dst.rows())) {
        Some(p) => p.scope(|s| par_bands2(s, *a, *b, dst.reborrow(), &f)),
        None => f(a, b, dst),
    }
    Ok(())
}

/// `dst += src`, or `dst −= src` when `sub`, row-band parallel; see
/// [`par_sum_into`].
pub fn par_sum_assign(
    dst: &mut MatrixViewMut<'_>,
    src: &MatrixView<'_>,
    sub: bool,
    pool: Option<&ThreadPool>,
) -> DimResult<()> {
    let op = if sub { sub_assign } else { add_assign };
    check2(
        if sub { "sub_assign" } else { "add_assign" },
        dst.shape(),
        src.shape(),
    )?;
    let f = |d: &mut MatrixViewMut<'_>, s: &MatrixView<'_>| {
        op(d, s).expect("shapes pre-checked");
    };
    match pool.filter(|_| should_split(pool, dst.rows())) {
        Some(p) => p.scope(|s| par_bands1(s, dst.reborrow(), *src, &f)),
        None => f(dst, src),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// `dst = src - dst` elementwise (reversed subtraction in place).
    fn rsub_assign(dst: &mut MatrixViewMut<'_>, src: &MatrixView<'_>) -> DimResult<()> {
        check2("rsub_assign", dst.shape(), src.shape())?;
        for i in 0..src.rows() {
            let (rs, rd) = (src.row(i), dst.row_mut(i));
            for j in 0..rs.len() {
                rd[j] = rs[j] - rd[j];
            }
        }
        Ok(())
    }

    /// Transposes `src` into `dst` (`dst[j][i] = src[i][j]`).
    fn transpose_into(src: &MatrixView<'_>, dst: &mut MatrixViewMut<'_>) -> DimResult<()> {
        if (src.cols(), src.rows()) != dst.shape() {
            return Err(DimError::Mismatch {
                op: "transpose",
                lhs: (src.cols(), src.rows()),
                rhs: dst.shape(),
            });
        }
        for i in 0..src.rows() {
            let r = src.row(i);
            for (j, &v) in r.iter().enumerate() {
                dst.set(j, i, v);
            }
        }
        Ok(())
    }

    /// Number of f64 additions performed by an elementwise op over `shape`.
    ///
    /// Used by the cost models: every `add_into`/`sub_into`/`add_assign` on an
    /// `r × c` block performs exactly `r * c` flops and moves `3 * r * c`
    /// (two reads + one write) or `2 * r * c` (accumulate forms) elements.
    #[inline]
    fn elementwise_flops(shape: (usize, usize)) -> u64 {
        shape.0 as u64 * shape.1 as u64
    }

    fn m(rows: usize, cols: usize, f: impl FnMut(usize, usize) -> f64) -> Matrix {
        Matrix::from_fn(rows, cols, f)
    }

    #[test]
    fn add_and_sub_round_trip() {
        let a = m(3, 4, |i, j| (i + j) as f64);
        let b = m(3, 4, |i, j| (i * j) as f64);
        let s = add(&a.view(), &b.view()).unwrap();
        let d = sub(&s.view(), &b.view()).unwrap();
        assert_eq!(d, a);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut acc = Matrix::zeros(2, 2);
        let one = Matrix::filled(2, 2, 1.0);
        for _ in 0..5 {
            add_assign(&mut acc.view_mut(), &one.view()).unwrap();
        }
        assert!(acc.approx_eq(&Matrix::filled(2, 2, 5.0), 0.0));
    }

    #[test]
    fn sub_assign_inverts_add_assign() {
        let mut acc = m(2, 3, |i, j| (i * 3 + j) as f64);
        let orig = acc.clone();
        let delta = m(2, 3, |i, j| (i + 2 * j) as f64);
        add_assign(&mut acc.view_mut(), &delta.view()).unwrap();
        sub_assign(&mut acc.view_mut(), &delta.view()).unwrap();
        assert!(acc.approx_eq(&orig, 1e-12));
    }

    #[test]
    fn scale_and_axpy() {
        let mut a = Matrix::filled(2, 2, 2.0);
        scale_assign(&mut a.view_mut(), 1.5);
        assert!(a.approx_eq(&Matrix::filled(2, 2, 3.0), 0.0));

        let src = Matrix::filled(2, 2, 4.0);
        axpy_assign(&mut a.view_mut(), 0.25, &src.view()).unwrap();
        assert!(a.approx_eq(&Matrix::filled(2, 2, 4.0), 0.0));
    }

    #[test]
    fn transpose_into_rectangular() {
        let a = m(2, 3, |i, j| (10 * i + j) as f64);
        let mut t = Matrix::zeros(3, 2);
        transpose_into(&a.view(), &mut t.view_mut()).unwrap();
        assert_eq!(t, a.transposed());
    }

    #[test]
    fn shape_mismatches_reported() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        let mut c = Matrix::zeros(2, 2);
        assert!(add_into(&a.view(), &b.view(), &mut c.view_mut()).is_err());
        assert!(add_assign(&mut c.view_mut(), &b.view()).is_err());
        let mut t = Matrix::zeros(2, 2);
        assert!(transpose_into(&b.view(), &mut t.view_mut()).is_err());
    }

    #[test]
    fn ops_on_sub_views_respect_stride() {
        // Operating on interior blocks must not touch surrounding elements.
        let mut big = Matrix::filled(6, 6, -1.0);
        let a = Matrix::filled(2, 2, 3.0);
        let b = Matrix::filled(2, 2, 4.0);
        {
            let mut dst = big.sub_view_mut((2, 2), (2, 2)).unwrap();
            add_into(&a.view(), &b.view(), &mut dst).unwrap();
        }
        assert_eq!(big.get(2, 2), 7.0);
        assert_eq!(big.get(3, 3), 7.0);
        assert_eq!(big.get(1, 2), -1.0);
        assert_eq!(big.get(2, 4), -1.0);
        assert_eq!(big.get(4, 2), -1.0);
    }

    #[test]
    fn elementwise_flops_counts() {
        assert_eq!(elementwise_flops((8, 8)), 64);
        assert_eq!(elementwise_flops((0, 5)), 0);
    }

    #[test]
    fn rsub_assign_reverses_subtraction() {
        let mut dst = m(3, 3, |i, j| (i * 3 + j) as f64);
        let src = Matrix::filled(3, 3, 10.0);
        rsub_assign(&mut dst.view_mut(), &src.view()).unwrap();
        assert_eq!(dst, m(3, 3, |i, j| 10.0 - (i * 3 + j) as f64));
        let bad = Matrix::zeros(2, 3);
        assert!(rsub_assign(&mut dst.view_mut(), &bad.view()).is_err());
    }

    #[test]
    fn parallel_ops_match_sequential_bitwise() {
        // Big enough to cross the PAR_MIN_ROWS split threshold.
        let rows = 3 * PAR_MIN_ROWS;
        let cols = 64;
        let a = m(rows, cols, |i, j| ((i * 31 + j * 7) % 97) as f64 * 0.25);
        let b = m(rows, cols, |i, j| ((i * 13 + j * 11) % 89) as f64 * 0.5);
        let pool = ThreadPool::new(4);

        let mut seq = Matrix::zeros(rows, cols);
        add_into(&a.view(), &b.view(), &mut seq.view_mut()).unwrap();
        let mut par = Matrix::zeros(rows, cols);
        par_sum_into(
            &a.view(),
            &b.view(),
            &mut par.view_mut(),
            false,
            Some(&pool),
        )
        .unwrap();
        assert_eq!(seq, par);

        sub_into(&a.view(), &b.view(), &mut seq.view_mut()).unwrap();
        par_sum_into(&a.view(), &b.view(), &mut par.view_mut(), true, Some(&pool)).unwrap();
        assert_eq!(seq, par);

        for variant in 0..2 {
            let mut seq = a.clone();
            let mut par = a.clone();
            match variant {
                0 => {
                    add_assign(&mut seq.view_mut(), &b.view()).unwrap();
                    par_sum_assign(&mut par.view_mut(), &b.view(), false, Some(&pool)).unwrap();
                }
                _ => {
                    sub_assign(&mut seq.view_mut(), &b.view()).unwrap();
                    par_sum_assign(&mut par.view_mut(), &b.view(), true, Some(&pool)).unwrap();
                }
            }
            assert_eq!(seq, par, "variant {variant} diverged");
        }
    }

    #[test]
    fn parallel_ops_fall_back_without_pool() {
        let a = m(8, 8, |i, j| (i + j) as f64);
        let b = m(8, 8, |i, j| (i * j) as f64);
        let mut out = Matrix::zeros(8, 8);
        par_sum_into(&a.view(), &b.view(), &mut out.view_mut(), false, None).unwrap();
        let want = add(&a.view(), &b.view()).unwrap();
        assert_eq!(out, want);
        // Shape errors still reported on the parallel path.
        let bad = Matrix::zeros(4, 4);
        assert!(par_sum_assign(&mut out.view_mut(), &bad.view(), false, None).is_err());
    }

    #[test]
    fn parallel_ops_on_quadrant_views_respect_stride() {
        let rows = 2 * PAR_MIN_ROWS;
        let pool = ThreadPool::new(2);
        let mut big = Matrix::filled(2 * rows, 2 * rows, -1.0);
        let src = Matrix::filled(rows, rows, 2.0);
        {
            let mut q = big.sub_view_mut((rows, rows), (rows, rows)).unwrap();
            par_sum_assign(&mut q, &src.view(), true, Some(&pool)).unwrap();
        }
        // Inside: -1 - 2 = -3. Outside: untouched.
        assert_eq!(big.get(rows, rows), -3.0);
        assert_eq!(big.get(2 * rows - 1, 2 * rows - 1), -3.0);
        assert_eq!(big.get(rows - 1, rows), -1.0);
        assert_eq!(big.get(rows, rows - 1), -1.0);
    }
}
