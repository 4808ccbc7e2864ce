//! The dense leaf solvers used below the Strassen cutover.
//!
//! Two leaves live here:
//!
//! * [`leaf_gemm`] — the historical BOTS-style unpacked solver ("manually
//!   unrolled" dense base case, §IV-B of the paper), kept as the simple
//!   in-place reference path.
//! * [`leaf_gemm_fused`] — the Strassen/CAPS leaf: the one packed nest
//!   ([`crate::dgemm`]'s jc/pc/ic loops) at full extents. It accepts
//!   *fused operands* ([`Operand::Add`] / [`Operand::Sub`]): the quadrant
//!   sums Strassen feeds its seven products are combined **inside the
//!   packing pass** (see [`crate::pack::pack_a_sum`]) instead of being
//!   materialised into scratch matrices first — bitwise the same panels,
//!   since `1·x + 1·y` is exactly `x + y` and `1·x + (−1)·y` is exactly
//!   `x − y` in IEEE-754 — and the result can be merged into `C` with
//!   [`Accum::Add`] / [`Accum::Sub`] so combine steps need no product
//!   temporaries either. Packing buffers come from the thread-local
//!   [`crate::arena`], so steady-state leaves allocate nothing. The leaf
//!   packs the full depth `k` at once, so each C tile merges once and at
//!   the executed cutoffs its panels are megabytes, not cache-level sized
//!   (see [`leaf_gemm_fused`]). Given a pool it work-shares row bands and
//!   packs B once for all of them.

use crate::dgemm::packed_nest;
use crate::kernel::{Dispatch, Merge};
use powerscale_counters::{Event, EventSet, Profile};
use powerscale_matrix::{DimError, DimResult, MatrixView, MatrixViewMut};
use powerscale_pool::ThreadPool;

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

    /// The `shape` block at `origin` of the operand (of both sources, for
    /// a fused one) — the panels and row-band blocks the packed nest packs.
    pub fn sub_view(
        &self,
        origin: (usize, usize),
        shape: (usize, usize),
    ) -> DimResult<Operand<'a>> {
        let block = |v: &MatrixView<'a>| v.sub_view(origin, shape);
        Ok(match self {
            Operand::View(v) => Operand::View(block(v)?),
            Operand::Add(x, y) => Operand::Add(block(x)?, block(y)?),
            Operand::Sub(x, y) => Operand::Sub(block(x)?, block(y)?),
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

/// The packed, register-tiled leaf with fused operand combines.
///
/// Computes `A·B` where each operand is an [`Operand`] (plain block or
/// two-source combine) and merges it into `c` per `accum`: `Set` stores
/// (C is never read, so needs no zero-fill), `Add`/`Sub` accumulate in
/// place — so a Strassen node's products land directly in `C` quadrants.
/// Operands and `C` may be arbitrary strided views; packing runs over the
/// full depth `k` in one pass. The panels need not fit a low cache level:
/// at leaf sizes 512–1024 that is 2–8 MB per operand. It writes each C
/// tile once; `dgemm` writes it once per `kc`-deep panel, which the depth
/// rule ([`crate::BlockingParams::host_tuned_for_caches_and_tile`]) makes
/// 512 on one AVX-512 core — twice at n = 1024 (DESIGN §6f).
///
/// Event accounting (when `events` is armed): `FpOps = 2mnk`, one
/// [`Event::FpAdds`] pass per fused operand (`m·k` / `k·n` elements) and
/// one (`m·n`) for an accumulating merge — exactly the passes a
/// materialise-then-multiply formulation would spend on `ops::add_into` /
/// `ops::add_assign`, so the per-node Strassen add count is invariant
/// under fusion.
pub fn leaf_gemm_fused(
    a: Operand<'_>,
    b: Operand<'_>,
    c: &mut MatrixViewMut<'_>,
    accum: Accum,
    events: Option<&EventSet>,
) -> DimResult<()> {
    leaf_gemm_fused_with(Dispatch::default(), a, b, c, accum, None, events)
}

/// [`leaf_gemm_fused`] under an explicit [`Dispatch`], optionally
/// work-shared over `pool` — what the Strassen/CAPS executors call with
/// their config's dispatch, so concurrent multiplies can run different
/// tiers. A pooled leaf splits C into row bands ([`crate::dgemm`]'s band
/// rule), packs B once for all of them, and computes the same bits and
/// the same event counts as a sequential one.
pub fn leaf_gemm_fused_with(
    dispatch: Dispatch,
    a: Operand<'_>,
    b: Operand<'_>,
    c: &mut MatrixViewMut<'_>,
    accum: Accum,
    pool: Option<&ThreadPool>,
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
    if m == 0 || n == 0 || k == 0 {
        // An empty product stores nothing, so Set still owes C zeros.
        if accum == Accum::Set {
            c.fill(0.0);
        }
        return Ok(());
    }
    let kernel = dispatch.kernel();
    let _span = powerscale_trace::span_args(
        powerscale_trace::Category::Gemm,
        "leaf_gemm",
        m as u32,
        n as u32,
    );
    // Full extents: one B pack, one A pack per band, one write per tile —
    // a store for Set, so C is never zero-filled or read.
    let merge = match accum {
        Accum::Set => Merge::Store(1.0),
        Accum::Add => Merge::Add(1.0),
        Accum::Sub => Merge::Add(-1.0),
    };
    packed_nest(kernel, (m, k, n), merge, &a, &b, c, pool);

    if let Some(set) = events {
        let elem_bytes = kernel.packed_elem_bytes() as u64;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_mm;
    use crate::pack::K_CHUNK;
    use powerscale_counters::ALL_EVENTS;
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
        // A pooled leaf splits C into row bands, each packing its rows of
        // A (fused or not) against one shared packed B. Band boundaries
        // leave every element's k-accumulation order alone, so any split —
        // the pool's, or one off the kernel tile — gives the sequential
        // leaf's bits, under every merge mode.
        let mr = Dispatch::default().kernel().mr;
        let pools = [1, 2, 3].map(ThreadPool::new);
        for (m, k, n) in [
            (mr - 1, K_CHUNK - 1, 5),
            (mr + 1, K_CHUNK, 33),
            (2 * mr + 1, K_CHUNK + 1, 19),
            (97, 2 * K_CHUNK + 3, 65),
        ] {
            let mut gen = MatrixGen::new((m * 1000 + k * 10 + n) as u64);
            let [a1, a2] = [(); 2].map(|_| gen.uniform(m, k, -1.0, 1.0));
            let [b1, b2] = [(); 2].map(|_| gen.uniform(k, n, -1.0, 1.0));
            let c0 = gen.uniform(m, n, -1.0, 1.0);
            let operands = [
                (Operand::View(a1.view()), Operand::View(b1.view())),
                (Operand::Sub(a1.view(), a2.view()), Operand::View(b1.view())),
                (
                    Operand::Add(a1.view(), a2.view()),
                    Operand::Sub(b1.view(), b2.view()),
                ),
            ];
            for (a, b) in operands {
                for accum in [Accum::Set, Accum::Add, Accum::Sub] {
                    let run = |pool: Option<&ThreadPool>| {
                        let mut c = c0.clone();
                        let d = Dispatch::default();
                        leaf_gemm_fused_with(d, a, b, &mut c.view_mut(), accum, pool, None)
                            .unwrap();
                        c
                    };
                    let want = run(None);
                    for pool in &pools {
                        let w = pool.num_threads();
                        assert_eq!(run(Some(pool)), want, "({m},{k},{n}) {accum:?} width {w}");
                    }
                    // Two hand-cut bands, split one row off the tile.
                    let mut banded = c0.clone();
                    let cut = m / 2 + 1;
                    let (mut top, mut bottom) = banded.view_mut().split_rows_at(cut).unwrap();
                    for (r0, band) in [(0, &mut top), (cut, &mut bottom)] {
                        let rows = a.sub_view((r0, 0), (band.rows(), k)).unwrap();
                        leaf_gemm_fused(rows, b, band, accum, None).unwrap();
                    }
                    assert_eq!(banded, want, "({m},{k},{n}) {accum:?} cut at {cut}");
                }
            }
        }
    }

    #[test]
    fn operand_sub_view_blocks_both_sources() {
        let x = Matrix::from_fn(6, 5, |i, j| (10 * i + j) as f64);
        let y = Matrix::from_fn(6, 5, |i, j| -((10 * i + j) as f64));
        let Operand::Sub(bx, by) = Operand::Sub(x.view(), y.view())
            .sub_view((2, 1), (3, 4))
            .unwrap()
        else {
            panic!("a block of a fused operand is fused");
        };
        assert_eq!((bx.shape(), by.shape()), ((3, 4), (3, 4)));
        assert_eq!((bx.get(0, 0), by.get(2, 3)), (21.0, -44.0));
        let view = Operand::View(x.view());
        assert!(view.sub_view((4, 0), (3, 5)).is_err(), "rows past the end");
    }

    #[test]
    fn pooled_leaf_counts_one_leaf() {
        // A work-shared leaf is still one leaf: its events equal the
        // sequential leaf's, not one leaf's worth per band.
        let mut gen = MatrixGen::new(41);
        let [a1, a2] = [(); 2].map(|_| gen.uniform(40, 24, -1.0, 1.0));
        let [b1, b2] = [(); 2].map(|_| gen.uniform(24, 70, -1.0, 1.0));
        let pool = ThreadPool::new(2);
        let run = |pool: Option<&ThreadPool>| {
            let mut set = EventSet::with_all_events();
            set.start().unwrap();
            let mut c = Matrix::zeros(40, 70);
            leaf_gemm_fused_with(
                Dispatch::default(),
                Operand::Add(a1.view(), a2.view()),
                Operand::Sub(b1.view(), b2.view()),
                &mut c.view_mut(),
                Accum::Add,
                pool,
                Some(&set),
            )
            .unwrap();
            set.stop().unwrap()
        };
        let (seq, par) = (run(None), run(Some(&pool)));
        assert_eq!(par.get(Event::KernelCalls), 1);
        for event in ALL_EVENTS {
            assert_eq!(par.get(event), seq.get(event), "{event:?}");
        }
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
