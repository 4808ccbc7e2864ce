//! The dense leaf solvers used below the Strassen cutover.
//!
//! Two leaves live here:
//!
//! * [`leaf_gemm`] — the historical BOTS-style unpacked solver ("manually
//!   unrolled" dense base case, §IV-B of the paper), kept as the simple
//!   in-place reference path.
//! * [`leaf_gemm_fused`] — the packed, register-tiled leaf the
//!   Strassen/CAPS executors now call. It accepts *fused operands*
//!   ([`Operand::Add`] / [`Operand::Sub`]): the quadrant sums Strassen
//!   feeds its seven products are combined **inside the packing pass**
//!   (see [`crate::pack::pack_a_sum`]) instead of being materialised into
//!   scratch matrices first, and the result can be merged into `C` with
//!   [`Accum::Add`] / [`Accum::Sub`] so combine steps need no product
//!   temporaries either. Packing buffers come from the thread-local
//!   [`crate::arena`], so steady-state leaves allocate nothing. The leaf
//!   packs the full depth `k` at once, so at the executed cutoffs its
//!   panels are megabytes, not cache-level sized (see [`leaf_gemm_fused`]).
//!
//! A [`Dispatch`] with `unfused_leaf` set (the default one when
//! `POWERSCALE_UNFUSED_LEAF=1`) makes the fused leaf materialise operand
//! sums into arena scratch before packing — same packed kernel, unfused
//! operand traffic — which is the A/B lever the end-to-end benchmark uses
//! to isolate the fusion win. The two modes are bitwise identical in output (`1·x + 1·y` is exactly
//! `x + y` and `1·x + (−1)·y` is exactly `x − y` in IEEE-754).

use crate::arena;
use crate::kernel::{sweep_strips, Dispatch, KernelFn, KernelInfo};
use crate::pack::{
    pack_a, pack_a_sum, pack_b, pack_b_sum, packed_a_len, packed_b_len, slots_for, PackScalar,
};
use powerscale_counters::{Event, EventSet, Profile};
use powerscale_matrix::{ops, DimError, DimResult, MatrixView, MatrixViewMut};

/// `C += A · B` on views, unpacked, i-k-j order with the inner j-loop
/// blocked to the default dispatch's register-tile width
/// ([`crate::kernel::select_kernel`]) — the updates are independent per
/// column, so the grouping changes nothing numerically while letting the
/// compiler vectorise the fixed-size chunks.
pub fn leaf_gemm(
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
            op: "leaf_gemm",
            lhs: (m, n),
            rhs: c.shape(),
        });
    }
    let jw = crate::kernel::select_kernel().nr;
    let n_main = n - n % jw;
    for i in 0..m {
        let arow = a.row(i);
        for (kk, &aik) in arow.iter().enumerate().take(k) {
            let brow = b.row(kk);
            let crow = c.row_mut(i);
            let (c_main, c_tail) = crow[..n].split_at_mut(n_main);
            for (cchunk, bchunk) in c_main
                .chunks_exact_mut(jw)
                .zip(brow[..n_main].chunks_exact(jw))
            {
                for (cj, &bj) in cchunk.iter_mut().zip(bchunk) {
                    *cj += aik * bj;
                }
            }
            for (cj, &bj) in c_tail.iter_mut().zip(&brow[n_main..n]) {
                *cj += aik * bj;
            }
        }
    }
    if let Some(set) = events {
        let mut p = Profile::new();
        p.add_count(Event::FpOps, 2 * (m * n * k) as u64);
        p.add_count(Event::BytesRead, 8 * (m * k + k * n) as u64);
        p.add_count(Event::BytesWritten, 8 * (m * n) as u64);
        p.add_count(Event::KernelCalls, 1);
        set.record_profile(&p);
    }
    Ok(())
}

/// A leaf-product operand: either a plain block or an elementwise
/// two-source combine that [`leaf_gemm_fused`] folds into its packing pass
/// without materialising the sum.
#[derive(Clone, Copy, Debug)]
pub enum Operand<'a> {
    /// A single source block.
    View(MatrixView<'a>),
    /// The elementwise sum `x + y`, combined during packing.
    Add(MatrixView<'a>, MatrixView<'a>),
    /// The elementwise difference `x − y`, combined during packing.
    Sub(MatrixView<'a>, MatrixView<'a>),
}

impl<'a> Operand<'a> {
    /// The operand's shape, validating that fused sources agree.
    pub fn shape(&self) -> DimResult<(usize, usize)> {
        match self {
            Operand::View(v) => Ok(v.shape()),
            Operand::Add(x, y) | Operand::Sub(x, y) => {
                if x.shape() != y.shape() {
                    return Err(DimError::Mismatch {
                        op: "fused operand",
                        lhs: x.shape(),
                        rhs: y.shape(),
                    });
                }
                Ok(x.shape())
            }
        }
    }

    /// `true` for the two-source combines.
    pub fn is_fused(&self) -> bool {
        !matches!(self, Operand::View(_))
    }

    /// The row band `[r0, r0 + rows)` of the operand — the unit CAPS
    /// work-shared leaves split on. Band boundaries do not change any
    /// element's k-accumulation order, so banded results are bitwise
    /// identical to an unsplit leaf.
    pub fn sub_rows(&self, r0: usize, rows: usize) -> DimResult<Operand<'a>> {
        let band = |v: &MatrixView<'a>| v.sub_view((r0, 0), (rows, v.cols()));
        Ok(match self {
            Operand::View(v) => Operand::View(band(v)?),
            Operand::Add(x, y) => Operand::Add(band(x)?, band(y)?),
            Operand::Sub(x, y) => Operand::Sub(band(x)?, band(y)?),
        })
    }
}

/// How [`leaf_gemm_fused`] merges the product into its destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Accum {
    /// `C = A·B` (destination fully overwritten; prior contents ignored).
    Set,
    /// `C += A·B`.
    Add,
    /// `C −= A·B`.
    Sub,
}

/// Packs operand `a` (plain or fused) into `buf` with the A-panel layout.
fn pack_operand_a<T: PackScalar>(a: &Operand<'_>, buf: &mut [T], mr: usize) -> usize {
    match a {
        Operand::View(v) => pack_a(v, buf, mr),
        Operand::Add(x, y) => pack_a_sum(x, 1.0, y, 1.0, buf, mr),
        Operand::Sub(x, y) => pack_a_sum(x, 1.0, y, -1.0, buf, mr),
    }
}

/// Packs operand `b` (plain or fused) into `buf` with the B-panel layout.
fn pack_operand_b<T: PackScalar>(b: &Operand<'_>, buf: &mut [T], nr: usize) -> usize {
    match b {
        Operand::View(v) => pack_b(v, buf, nr),
        Operand::Add(x, y) => pack_b_sum(x, 1.0, y, 1.0, buf, nr),
        Operand::Sub(x, y) => pack_b_sum(x, 1.0, y, -1.0, buf, nr),
    }
}

/// Materialises a fused operand into arena scratch (the unfused A/B mode)
/// and packs the scratch with the plain packer. Produces bitwise-identical
/// packed panels to the fused path (the combine happens in f64 either way,
/// with one rounding to `T` per packed element).
fn pack_operand_unfused<T: PackScalar>(
    op: &Operand<'_>,
    buf: &mut [T],
    tile: usize,
    is_a: bool,
) -> usize {
    if let Operand::View(v) = op {
        return if is_a {
            pack_a(v, buf, tile)
        } else {
            pack_b(v, buf, tile)
        };
    }
    let (r, c) = op.shape().expect("shape validated by caller");
    let mut scratch = arena::matrix_uninit(r, c);
    match op {
        Operand::View(_) => unreachable!(),
        Operand::Add(x, y) => {
            ops::add_into(x, y, &mut scratch.view_mut()).expect("shape validated by caller")
        }
        Operand::Sub(x, y) => {
            ops::sub_into(x, y, &mut scratch.view_mut()).expect("shape validated by caller")
        }
    }
    let v = scratch.view();
    if is_a {
        pack_a(&v, buf, tile)
    } else {
        pack_b(&v, buf, tile)
    }
}

/// The packed, register-tiled leaf with fused operand combines.
///
/// Computes `A·B` where each operand is an [`Operand`] (plain block or
/// two-source combine) and merges it into `c` per `accum`: `Set` writes,
/// `Add`/`Sub` accumulate in place — so a Strassen node's products land
/// directly in `C` quadrants. Operands and `C` may be arbitrary strided
/// views; packing runs over the full depth `k` in one pass. The panels need
/// not fit a low cache level: at leaf sizes 512–1024 that is 2–8 MB per
/// operand, and the leaf still outruns [`crate::dgemm`] on the same strided
/// views (55–56 against 45–52 GF/s on one AVX-512 core, DESIGN §8). It
/// merges each C tile once; `dgemm` merges it `k / kc` times (≈ 7.5 at
/// n = 1024), which is the blocked path's next limiter.
///
/// Event accounting (when `events` is armed): `FpOps = 2mnk`, one
/// [`Event::FpAdds`] pass per fused operand (`m·k` / `k·n` elements) and
/// one (`m·n`) for an accumulating merge — exactly the passes the unfused
/// formulation would have spent on `ops::add_into` / `ops::add_assign`, so
/// the per-node Strassen add count is invariant under fusion.
pub fn leaf_gemm_fused(
    a: Operand<'_>,
    b: Operand<'_>,
    c: &mut MatrixViewMut<'_>,
    accum: Accum,
    events: Option<&EventSet>,
) -> DimResult<()> {
    leaf_gemm_fused_with(Dispatch::default(), a, b, c, accum, events)
}

/// [`leaf_gemm_fused`] under an explicit [`Dispatch`] (kernel and leaf
/// mode) — what the Strassen/CAPS executors call with their config's
/// dispatch, so concurrent multiplies can run different tiers.
pub fn leaf_gemm_fused_with(
    dispatch: Dispatch,
    a: Operand<'_>,
    b: Operand<'_>,
    c: &mut MatrixViewMut<'_>,
    accum: Accum,
    events: Option<&EventSet>,
) -> DimResult<()> {
    let (m, k) = a.shape()?;
    let (kb, n) = b.shape()?;
    if k != kb {
        return Err(DimError::Inner {
            lhs_cols: k,
            rhs_rows: kb,
        });
    }
    if c.shape() != (m, n) {
        return Err(DimError::Mismatch {
            op: "leaf_gemm_fused",
            lhs: (m, n),
            rhs: c.shape(),
        });
    }
    if accum == Accum::Set {
        c.fill(0.0);
    }
    if m == 0 || n == 0 || k == 0 {
        return Ok(());
    }
    let kernel = dispatch.kernel();
    let unfused = dispatch.unfused_leaf;
    let _span = powerscale_trace::span_args(
        powerscale_trace::Category::Gemm,
        "leaf_gemm",
        m as u32,
        n as u32,
    );

    // One dtype dispatch, then the packing and tile sweep run generic
    // over the packed element type.
    match kernel.func {
        KernelFn::F64(_) => fused_leaf_body::<f64>(kernel, unfused, &a, &b, c, accum),
        KernelFn::F32(_) => fused_leaf_body::<f32>(kernel, unfused, &a, &b, c, accum),
    }

    if let Some(set) = events {
        let elem_bytes = kernel.dtype.packed_elem_bytes() as u64;
        let mut p = Profile::new();
        p.add_count(Event::FpOps, 2 * (m * n * k) as u64);
        let a_srcs = if a.is_fused() { 2 } else { 1 };
        let b_srcs = if b.is_fused() { 2 } else { 1 };
        p.add_count(
            Event::BytesRead,
            8 * (a_srcs * m * k + b_srcs * k * n) as u64,
        );
        p.add_count(Event::BytesWritten, 8 * (m * n) as u64);
        p.add_count(Event::PackBytes, elem_bytes * (m * k + k * n) as u64);
        let mut adds = 0usize;
        if a.is_fused() {
            adds += m * k;
        }
        if b.is_fused() {
            adds += k * n;
        }
        if accum != Accum::Set {
            adds += m * n;
        }
        if adds > 0 {
            p.add_count(Event::FpAdds, adds as u64);
        }
        p.add_count(Event::KernelCalls, 1);
        set.record_profile(&p);
    }
    Ok(())
}

/// The packed sweep of one leaf product at element type `T` — shapes are
/// validated (non-empty) by the caller.
fn fused_leaf_body<T: PackScalar>(
    kernel: &'static KernelInfo,
    unfused: bool,
    a: &Operand<'_>,
    b: &Operand<'_>,
    c: &mut MatrixViewMut<'_>,
    accum: Accum,
) {
    let (m, k) = a.shape().expect("shape validated by caller");
    let n = b.shape().expect("shape validated by caller").1;
    let mut pa = arena::pack_buf(slots_for::<T>(packed_a_len(m, k, kernel.mr)));
    let mut pb = arena::pack_buf(slots_for::<T>(packed_b_len(k, n, kernel.nr)));
    let pa_elems: &mut [T] = T::cast_mut(&mut pa[..]);
    let pb_elems: &mut [T] = T::cast_mut(&mut pb[..]);
    let (a_strips, b_strips) = if unfused {
        (
            pack_operand_unfused(a, pa_elems, kernel.mr, true),
            pack_operand_unfused(b, pb_elems, kernel.nr, false),
        )
    } else {
        (
            pack_operand_a(a, pa_elems, kernel.mr),
            pack_operand_b(b, pb_elems, kernel.nr),
        )
    };
    let alpha = if accum == Accum::Sub { -1.0 } else { 1.0 };
    sweep_strips(kernel, k, pa_elems, pb_elems, a_strips, b_strips, alpha, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_mm;
    use powerscale_matrix::norms::rel_frobenius_error;
    use powerscale_matrix::{Matrix, MatrixGen};

    #[test]
    fn matches_naive_on_assorted_sizes() {
        for (m, k, n) in [(1, 1, 1), (4, 4, 4), (7, 3, 5), (64, 64, 64), (33, 65, 9)] {
            let mut gen = MatrixGen::new((m * 100 + n) as u64);
            let a = gen.uniform(m, k, -1.0, 1.0);
            let b = gen.uniform(k, n, -1.0, 1.0);
            let mut c = Matrix::zeros(m, n);
            leaf_gemm(&a.view(), &b.view(), &mut c.view_mut(), None).unwrap();
            let r = naive_mm(&a.view(), &b.view()).unwrap();
            assert!(
                rel_frobenius_error(&c.view(), &r.view()) < 1e-13,
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn accumulates() {
        let a = Matrix::identity(8);
        let b = Matrix::filled(8, 8, 1.0);
        let mut c = Matrix::filled(8, 8, 5.0);
        leaf_gemm(&a.view(), &b.view(), &mut c.view_mut(), None).unwrap();
        assert!(c.approx_eq(&Matrix::filled(8, 8, 6.0), 0.0));
    }

    #[test]
    fn works_on_strided_quadrant_views() {
        // The actual Strassen call pattern: operate on quadrants in place.
        let mut gen = MatrixGen::new(3);
        let big_a = gen.paper_operand(16);
        let big_b = gen.paper_operand(16);
        let mut big_c = Matrix::zeros(16, 16);
        let qa = big_a.view().quadrants().unwrap();
        let qb = big_b.view().quadrants().unwrap();
        {
            let qc = big_c.view_mut().quadrants().unwrap();
            let mut c11 = qc.a11;
            leaf_gemm(&qa.a11, &qb.a11, &mut c11, None).unwrap();
        }
        let expect = naive_mm(&qa.a11, &qb.a11).unwrap();
        let got = big_c.sub_view((0, 0), (8, 8)).unwrap().to_matrix();
        assert!(rel_frobenius_error(&got.view(), &expect.view()) < 1e-13);
        // Other quadrants untouched.
        assert_eq!(big_c.get(0, 8), 0.0);
        assert_eq!(big_c.get(8, 0), 0.0);
    }

    #[test]
    fn shape_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let mut c = Matrix::zeros(2, 3);
        assert!(leaf_gemm(&a.view(), &b.view(), &mut c.view_mut(), None).is_err());
    }

    #[test]
    fn event_accounting() {
        use powerscale_counters::EventSet;
        let a = Matrix::zeros(8, 8);
        let b = Matrix::zeros(8, 8);
        let mut c = Matrix::zeros(8, 8);
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        leaf_gemm(&a.view(), &b.view(), &mut c.view_mut(), Some(&set)).unwrap();
        let p = set.stop().unwrap();
        assert_eq!(p.get(Event::FpOps), 2 * 8 * 8 * 8);
        assert_eq!(p.get(Event::KernelCalls), 1);
    }

    /// `(x + βy)` materialised the way the old executors did it.
    fn combine(x: &Matrix, y: &Matrix, beta: f64) -> Matrix {
        Matrix::from_fn(x.rows(), x.cols(), |i, j| {
            if beta > 0.0 {
                x.get(i, j) + y.get(i, j)
            } else {
                x.get(i, j) - y.get(i, j)
            }
        })
    }

    #[test]
    fn fused_matches_naive_on_combined_operands() {
        for (m, k, n) in [
            (4, 4, 4),
            (16, 16, 16),
            (7, 13, 5),
            (33, 65, 9),
            (64, 64, 64),
        ] {
            let mut gen = MatrixGen::new((m * 1000 + k * 10 + n) as u64);
            let a1 = gen.uniform(m, k, -1.0, 1.0);
            let a2 = gen.uniform(m, k, -1.0, 1.0);
            let b1 = gen.uniform(k, n, -1.0, 1.0);
            let b2 = gen.uniform(k, n, -1.0, 1.0);
            let mut c = Matrix::filled(m, n, f64::NAN);
            leaf_gemm_fused(
                Operand::Add(a1.view(), a2.view()),
                Operand::Sub(b1.view(), b2.view()),
                &mut c.view_mut(),
                Accum::Set,
                None,
            )
            .unwrap();
            let want = naive_mm(
                &combine(&a1, &a2, 1.0).view(),
                &combine(&b1, &b2, -1.0).view(),
            )
            .unwrap();
            assert!(
                rel_frobenius_error(&c.view(), &want.view()) < 1e-12,
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn fused_is_bitwise_identical_to_materialised_operands() {
        // With the same kernel, fused packing and materialise-then-pack
        // must agree bit for bit on any inputs (the packed panels are
        // identical), not just exactly-representable ones.
        let mut gen = MatrixGen::new(99);
        let a1 = gen.uniform(24, 24, -1.0, 1.0);
        let a2 = gen.uniform(24, 24, -1.0, 1.0);
        let b1 = gen.uniform(24, 24, -1.0, 1.0);
        let b2 = gen.uniform(24, 24, -1.0, 1.0);
        let (sa, sb) = (combine(&a1, &a2, -1.0), combine(&b1, &b2, 1.0));
        let mut fused = Matrix::zeros(24, 24);
        let mut plain = Matrix::zeros(24, 24);
        leaf_gemm_fused(
            Operand::Sub(a1.view(), a2.view()),
            Operand::Add(b1.view(), b2.view()),
            &mut fused.view_mut(),
            Accum::Set,
            None,
        )
        .unwrap();
        leaf_gemm_fused(
            Operand::View(sa.view()),
            Operand::View(sb.view()),
            &mut plain.view_mut(),
            Accum::Set,
            None,
        )
        .unwrap();
        assert_eq!(fused, plain);
    }

    #[test]
    fn accum_modes_set_add_sub() {
        let mut gen = MatrixGen::new(5);
        let a = gen.uniform(12, 12, -1.0, 1.0);
        let b = gen.uniform(12, 12, -1.0, 1.0);
        let p = naive_mm(&a.view(), &b.view()).unwrap();
        // Set ignores stale destination contents entirely.
        let mut c = Matrix::filled(12, 12, f64::NAN);
        leaf_gemm_fused(
            Operand::View(a.view()),
            Operand::View(b.view()),
            &mut c.view_mut(),
            Accum::Set,
            None,
        )
        .unwrap();
        assert!(rel_frobenius_error(&c.view(), &p.view()) < 1e-13);
        // Add merges on top; Sub takes it back off exactly.
        let before = c.clone();
        leaf_gemm_fused(
            Operand::View(a.view()),
            Operand::View(b.view()),
            &mut c.view_mut(),
            Accum::Add,
            None,
        )
        .unwrap();
        let doubled = Matrix::from_fn(12, 12, |i, j| 2.0 * before.get(i, j));
        assert!(rel_frobenius_error(&c.view(), &doubled.view()) < 1e-13);
        leaf_gemm_fused(
            Operand::View(a.view()),
            Operand::View(b.view()),
            &mut c.view_mut(),
            Accum::Sub,
            None,
        )
        .unwrap();
        // Subtracting the product again lands back on the single product
        // (up to the one extra rounding of the round trip).
        assert!(rel_frobenius_error(&c.view(), &before.view()) < 1e-12);
    }

    #[test]
    fn fused_works_on_strided_quadrant_views() {
        let mut gen = MatrixGen::new(11);
        let big_a = gen.paper_operand(16);
        let big_b = gen.paper_operand(16);
        let mut big_c = Matrix::zeros(16, 16);
        let qa = big_a.view().quadrants().unwrap();
        let qb = big_b.view().quadrants().unwrap();
        {
            let qc = big_c.view_mut().quadrants().unwrap();
            let mut c21 = qc.a21;
            // M2 = (A21 + A22)·B11 straight into the C21 quadrant.
            leaf_gemm_fused(
                Operand::Add(qa.a21, qa.a22),
                Operand::View(qb.a11),
                &mut c21,
                Accum::Set,
                None,
            )
            .unwrap();
        }
        let s = combine(&qa.a21.to_matrix(), &qa.a22.to_matrix(), 1.0);
        let want = naive_mm(&s.view(), &qb.a11).unwrap();
        let got = big_c.sub_view((8, 0), (8, 8)).unwrap().to_matrix();
        assert!(rel_frobenius_error(&got.view(), &want.view()) < 1e-13);
        // Other quadrants untouched.
        assert_eq!(big_c.get(0, 0), 0.0);
        assert_eq!(big_c.get(0, 8), 0.0);
        assert_eq!(big_c.get(8, 8), 0.0);
    }

    #[test]
    fn sub_rows_banding_is_bitwise_transparent() {
        // The CAPS work-shared leaf splits operands into row bands whose
        // boundaries need not align to the kernel tile; results must be
        // bitwise identical to an unsplit leaf.
        let mut gen = MatrixGen::new(21);
        let a1 = gen.uniform(23, 17, -1.0, 1.0);
        let a2 = gen.uniform(23, 17, -1.0, 1.0);
        let b = gen.uniform(17, 19, -1.0, 1.0);
        let a_op = Operand::Sub(a1.view(), a2.view());
        let b_op = Operand::View(b.view());
        let mut whole = Matrix::zeros(23, 19);
        leaf_gemm_fused(a_op, b_op, &mut whole.view_mut(), Accum::Set, None).unwrap();
        let mut banded = Matrix::zeros(23, 19);
        {
            let (top, bottom) = banded.view_mut().split_rows_at(10).unwrap();
            let mut top = top;
            let mut bottom = bottom;
            leaf_gemm_fused(
                a_op.sub_rows(0, 10).unwrap(),
                b_op,
                &mut top,
                Accum::Set,
                None,
            )
            .unwrap();
            leaf_gemm_fused(
                a_op.sub_rows(10, 13).unwrap(),
                b_op,
                &mut bottom,
                Accum::Set,
                None,
            )
            .unwrap();
        }
        assert_eq!(whole, banded);
    }

    #[test]
    fn unfused_toggle_is_bitwise_transparent() {
        let mut gen = MatrixGen::new(31);
        let a1 = gen.uniform(20, 20, -1.0, 1.0);
        let a2 = gen.uniform(20, 20, -1.0, 1.0);
        let b1 = gen.uniform(20, 20, -1.0, 1.0);
        let b2 = gen.uniform(20, 20, -1.0, 1.0);
        let run = |unfused_leaf: bool| {
            let dispatch = Dispatch {
                unfused_leaf,
                ..Dispatch::default()
            };
            let mut c = Matrix::zeros(20, 20);
            leaf_gemm_fused_with(
                dispatch,
                Operand::Add(a1.view(), a2.view()),
                Operand::Sub(b1.view(), b2.view()),
                &mut c.view_mut(),
                Accum::Set,
                None,
            )
            .unwrap();
            c
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn fused_event_accounting() {
        use powerscale_counters::EventSet;
        let a1 = Matrix::zeros(8, 8);
        let a2 = Matrix::zeros(8, 8);
        let b = Matrix::zeros(8, 8);
        let mut c = Matrix::zeros(8, 8);
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        leaf_gemm_fused(
            Operand::Add(a1.view(), a2.view()),
            Operand::View(b.view()),
            &mut c.view_mut(),
            Accum::Add,
            Some(&set),
        )
        .unwrap();
        let p = set.stop().unwrap();
        assert_eq!(p.get(Event::FpOps), 2 * 8 * 8 * 8);
        // One fused A combine (m·k) plus one accumulating merge (m·n).
        assert_eq!(p.get(Event::FpAdds), 64 + 64);
        // Fused A reads two sources; B one. Both panels are packed.
        assert_eq!(p.get(Event::BytesRead), 8 * (2 * 64 + 64));
        assert_eq!(p.get(Event::PackBytes), 8 * (64 + 64));
        assert_eq!(p.get(Event::BytesWritten), 8 * 64);
        assert_eq!(p.get(Event::KernelCalls), 1);
    }

    #[test]
    fn fused_shape_errors() {
        let a1 = Matrix::zeros(4, 4);
        let a2 = Matrix::zeros(4, 5);
        let b = Matrix::zeros(4, 4);
        let mut c = Matrix::zeros(4, 4);
        // Fused sources must agree in shape...
        assert!(leaf_gemm_fused(
            Operand::Add(a1.view(), a2.view()),
            Operand::View(b.view()),
            &mut c.view_mut(),
            Accum::Set,
            None,
        )
        .is_err());
        // ...and the contraction dimension must line up.
        let b_bad = Matrix::zeros(5, 4);
        assert!(leaf_gemm_fused(
            Operand::View(a1.view()),
            Operand::View(b_bad.view()),
            &mut c.view_mut(),
            Accum::Set,
            None,
        )
        .is_err());
    }
}
