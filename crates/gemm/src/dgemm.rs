//! The one packed GEMM loop nest ([`packed_nest`]) and the Goto-structured
//! DGEMM driver that runs it at its autotuned blocking.

use crate::arena;
use crate::blocking::BlockingParams;
use crate::kernel::{sweep_strips, Dispatch, KernelFn, KernelInfo, Merge};
use crate::leaf::Operand;
use crate::pack::{
    pack_b_strips, pack_operand_a, packed_a_len, packed_b_len, round_if_mixed, slots_for,
    PackScalar,
};
use powerscale_counters::{Event, EventSet, Profile};
use powerscale_matrix::{ops, DimError, DimResult, Matrix, MatrixView, MatrixViewMut};
use powerscale_pool::ThreadPool;
use powerscale_trace as trace;
use std::ops::Range;

/// Execution context for [`dgemm`]: the dispatched microkernel, blocking
/// factors derived for its tile shape, optional worker pool (sequential
/// when absent) and optional event instrumentation. Build one from a
/// [`Dispatch`] with [`GemmContext::new`].
pub struct GemmContext<'a> {
    /// Loop blocking factors (autotuned for `kernel` by default); must be
    /// aligned to `kernel`'s tile shape.
    pub params: BlockingParams,
    /// The microkernel to run.
    pub kernel: &'static KernelInfo,
    /// Pool for the row-panel loop; `None` runs sequentially.
    pub pool: Option<&'a ThreadPool>,
    /// Event set receiving work accounting; `None` disables it.
    pub events: Option<&'a EventSet>,
}

impl Default for GemmContext<'_> {
    fn default() -> Self {
        GemmContext::new(Dispatch::default(), None, None)
    }
}

impl<'a> GemmContext<'a> {
    /// The context `dispatch` resolves to: its kernel, blocking autotuned
    /// for that kernel's tile shape on the host's probed cache hierarchy,
    /// and the caller's pool and event set.
    pub fn new(
        dispatch: Dispatch,
        pool: Option<&'a ThreadPool>,
        events: Option<&'a EventSet>,
    ) -> Self {
        let kernel = dispatch.kernel();
        GemmContext {
            params: BlockingParams::autotuned_for(kernel),
            kernel,
            pool,
            events,
        }
    }

    /// A sequential, uninstrumented context with default dispatch.
    pub fn sequential() -> Self {
        GemmContext::default()
    }

    /// A parallel context on `pool` with default dispatch.
    pub fn parallel(pool: &'a ThreadPool) -> Self {
        GemmContext::new(Dispatch::default(), Some(pool), None)
    }

    /// A sequential context pinned to a specific microkernel. Used to
    /// force a dispatch tier (tests, benchmarks, CI's scalar job).
    pub fn with_kernel(kernel: &'static KernelInfo) -> Self {
        GemmContext::new(Dispatch::default().with_kernel(kernel), None, None)
    }
}

/// `C = alpha · A·B + beta · C`, blocked/packed/register-tiled.
///
/// Results are bitwise-deterministic and independent of the pool size: the
/// accumulation order over `kc` panels is fixed, parallel row bands write
/// disjoint regions of C, and parallel B packing writes disjoint strips
/// whose contents do not depend on which worker packs them.
///
/// Steady-state invocations perform no per-panel heap allocation: packing
/// buffers are leased from the thread-local [`crate::arena`].
///
/// When running under a cancellable scope (see
/// [`powerscale_pool::ThreadPool::scope_with_cancel`]), the panel loops poll
/// the token and return early once it fires; `C` then holds a partial
/// accumulation that the cancelling owner must discard.
pub fn dgemm(
    alpha: f64,
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    beta: f64,
    c: &mut MatrixViewMut<'_>,
    ctx: &GemmContext<'_>,
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
            op: "dgemm",
            lhs: (m, n),
            rhs: c.shape(),
        });
    }
    ctx.params
        .validate()
        .unwrap_or_else(|e| panic!("invalid blocking parameters: {e}"));
    let kernel = ctx.kernel;
    assert!(
        ctx.params.mr == kernel.mr && ctx.params.nr == kernel.nr,
        "blocking tile {}x{} does not match kernel `{}` tile {}x{}",
        ctx.params.mr,
        ctx.params.nr,
        kernel.name,
        kernel.mr,
        kernel.nr
    );

    // At beta = 0 C is written, never read (BLAS semantics): the first
    // kc-panel stores into it, so a NaN or inf in a reused buffer cannot
    // leak into the product as `0 · x`. Any other beta != 1 scales C once,
    // up front.
    if beta != 0.0 && beta != 1.0 {
        ops::scale_assign(c, beta);
        if let Some(set) = ctx.events {
            set.record(Event::FpOps, (m * n) as u64);
            set.record(Event::BytesWritten, 8 * (m * n) as u64);
        }
    }
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        // No panel runs, so nothing stores: beta = 0 still owes C zeros.
        if beta == 0.0 {
            c.fill(0.0);
        }
        return Ok(());
    }
    let _span = trace::span_args(trace::Category::Gemm, "dgemm", m as u32, n as u32);
    let BlockingParams { mc, kc, nc, mr, nr } = ctx.params;
    let first = if beta == 0.0 {
        Merge::Store(alpha)
    } else {
        Merge::Add(alpha)
    };
    packed_nest(
        kernel,
        (mc, kc, nc),
        first,
        &Operand::View(*a),
        &Operand::View(*b),
        c,
        ctx.pool,
    );

    // The nest's work in closed form: B is packed once, A once per
    // nc-panel, C written once per kc-panel (stored by the first at
    // beta = 0, merged by the rest), one kernel call per register tile per
    // kc-panel (every band but the last is whole `mr` strips).
    if let Some(set) = ctx.events {
        let (jc_panels, pc_panels) = (n.div_ceil(nc), k.div_ceil(kc));
        let packed = (k * n + m * k * jc_panels) as u64;
        let mut p = Profile::new();
        p.add_count(Event::FpOps, 2 * (m * n * k) as u64);
        p.add_count(Event::PackBytes, kernel.packed_elem_bytes() as u64 * packed);
        p.add_count(Event::BytesRead, 8 * packed);
        p.add_count(Event::BytesWritten, 8 * (m * n * pc_panels) as u64);
        p.add_count(
            Event::KernelCalls,
            (pc_panels * m.div_ceil(mr) * n.div_ceil(nr)) as u64,
        );
        set.record_profile(&p);
    }
    Ok(())
}

/// The row bands of an `m`-row nest on `width` workers: `⌈m/mc⌉` bands
/// rounded up to a multiple of `width`, each a near-equal run of whole
/// `mr`-row strips (the last band takes the ragged rows). Every band but
/// the last is a multiple of `mr` tall, heights differ by at most `mr`,
/// and none is taller than `mc` when `mc` is a multiple of `mr`. Bands are
/// empty only when there are fewer strips than bands.
pub(crate) fn row_bands(
    m: usize,
    mc: usize,
    mr: usize,
    width: usize,
) -> impl Iterator<Item = Range<usize>> {
    let bands = m.div_ceil(mc).max(1).next_multiple_of(width.max(1));
    let strips = m.div_ceil(mr);
    let edge = move |i: usize| (i * strips / bands * mr).min(m);
    (0..bands).map(move |i| edge(i)..edge(i + 1))
}

/// The one packed GEMM loop nest: `C = α · A·B` (`first` is
/// [`Merge::Store`]) or `C += α · A·B` ([`Merge::Add`]) over jc (`nc`
/// columns), pc (`kc` depth) and ic (row bands, [`row_bands`]), with A
/// and B plain or fused [`Operand`]s. The first kc-panel of each column
/// panel merges per `first`, every later one adds. [`dgemm`] runs it at
/// its autotuned blocking and the Strassen/CAPS leaf
/// ([`crate::leaf::leaf_gemm_fused_with`]) at full extents, so a leaf
/// packs each operand once and writes each C tile once.
///
/// Results do not depend on `pool`: the kc-panel order is fixed, bands
/// write disjoint rows of C, and a B panel packed in parallel is
/// byte-identical to a sequential pack. With a pool the bands and the B
/// strips run as pool tasks. Polls cooperative cancellation once per
/// kc-panel; a cancelled nest leaves C partially accumulated.
///
/// A [`DtypeTier::Mixed`](crate::DtypeTier::Mixed) kernel packs f64
/// panels and each packed block — an A band's block, a B strip range on
/// the task that packed it — is rounded once through f32
/// ([`crate::pack::round_if_mixed`]) before the f64 kernel sweeps it.
///
/// Shapes must agree (callers validate them).
pub(crate) fn packed_nest(
    kernel: &'static KernelInfo,
    blocking: (usize, usize, usize),
    first: Merge,
    a: &Operand<'_>,
    b: &Operand<'_>,
    c: &mut MatrixViewMut<'_>,
    pool: Option<&ThreadPool>,
) {
    // One dtype dispatch; the loops are generic over the packed element.
    match kernel.func {
        KernelFn::F64(_) => nest::<f64>(kernel, blocking, first, a, b, c, pool),
        KernelFn::F32(_) => nest::<f32>(kernel, blocking, first, a, b, c, pool),
    }
}

/// [`packed_nest`] at packed element type `T`.
fn nest<T: PackScalar>(
    kernel: &'static KernelInfo,
    (mc, kc, nc): (usize, usize, usize),
    first: Merge,
    a: &Operand<'_>,
    b: &Operand<'_>,
    c: &mut MatrixViewMut<'_>,
    pool: Option<&ThreadPool>,
) {
    let (m, n, k) = (c.rows(), c.cols(), a.shape().expect("shapes validated").1);
    let (mr, nr) = (kernel.mr, kernel.nr);
    let width = pool.map_or(1, ThreadPool::num_threads);
    let mut pb = arena::pack_buf(slots_for::<T>(packed_b_len(kc.min(k), nc.min(n), nr)));
    let pb_elems: &mut [T] = T::cast_mut(&mut pb[..]);

    let mut jc = 0;
    while jc < n {
        let ncb = nc.min(n - jc);
        let mut pc = 0;
        while pc < k {
            // Cooperative cancellation poll, once per kc-panel. Under a
            // cancelled request the partial C is garbage by contract — the
            // owner that observed the fired token discards it.
            if powerscale_pool::cancel_requested() {
                return;
            }
            let kcb = kc.min(k - pc);
            // Pack the shared B panel — in parallel when there are enough
            // strips to go around. Each worker writes a disjoint chunk of
            // whole strips (byte-identical to a sequential pack) and
            // first-touches it on its own node.
            let bpanel = b.sub_view((pc, jc), (kcb, ncb)).expect("B panel in bounds");
            let (b_strips, strip_len) = (ncb.div_ceil(nr), nr * kcb);
            let used = &mut pb_elems[..b_strips * strip_len];
            let pack_span =
                trace::span_args(trace::Category::Gemm, "pack_b", kcb as u32, ncb as u32);
            match pool {
                Some(pool) if width > 1 && b_strips >= 2 * width => {
                    let chunk_strips = b_strips.div_ceil(width);
                    pool.scope(|s| {
                        for (ci, chunk) in used.chunks_mut(chunk_strips * strip_len).enumerate() {
                            s.spawn(move |_| {
                                let strips = chunk.len() / strip_len;
                                pack_b_strips(&bpanel, chunk, nr, ci * chunk_strips, strips);
                                round_if_mixed(kernel, chunk);
                            });
                        }
                    });
                }
                _ => {
                    pack_b_strips(&bpanel, used, nr, 0, b_strips);
                    round_if_mixed(kernel, used);
                }
            }
            drop(pack_span);

            // Sweep the row bands of this C panel (disjoint mutable views).
            let pb_ref: &[T] = &*pb_elems;
            let merge = if pc == 0 { first } else { first.then_add() };
            let sweep = |r0: usize, mut band: MatrixViewMut<'_>| {
                row_band(kernel, a, (r0, pc, kcb), pb_ref, merge, &mut band)
            };
            let cpanel = c
                .reborrow()
                .into_sub_view((0, jc), (m, ncb))
                .expect("C panel");
            let bands = row_bands(m, mc, mr, width);
            match pool {
                Some(pool) if width > 1 => pool.scope(|s| {
                    for_each_band(cpanel, bands, |r0, band| {
                        s.spawn(move |_| sweep(r0, band));
                    });
                }),
                _ => for_each_band(cpanel, bands, sweep),
            }
            pc += kcb;
        }
        jc += ncb;
    }
}

/// Splits `panel` along `bands` and hands each non-empty band to `f` with
/// its first row.
fn for_each_band<'p>(
    mut panel: MatrixViewMut<'p>,
    bands: impl Iterator<Item = Range<usize>>,
    mut f: impl FnMut(usize, MatrixViewMut<'p>),
) {
    for rows in bands {
        let (band, tail) = panel.split_rows_at(rows.len()).expect("band in panel");
        panel = tail;
        if !rows.is_empty() {
            f(rows.start, band);
        }
    }
}

/// One row band of a kc-panel — rows from `r0`, depth `kcb` from `pc`:
/// packs its A block into a lease from the executing thread's arena (a
/// worker-local buffer under a pool) and sweeps it against the packed B
/// panel — the nest's one call of the tile sweep.
fn row_band<T: PackScalar>(
    kernel: &KernelInfo,
    a: &Operand<'_>,
    (r0, pc, kcb): (usize, usize, usize),
    pb: &[T],
    merge: Merge,
    band: &mut MatrixViewMut<'_>,
) {
    let (mcb, ncb) = band.shape();
    let _span = trace::span_args(trace::Category::Gemm, "row_band", mcb as u32, ncb as u32);
    let ablock = a.sub_view((r0, pc), (mcb, kcb)).expect("A block in bounds");
    let mut pa = arena::pack_buf(slots_for::<T>(packed_a_len(mcb, kcb, kernel.mr)));
    let pa_elems: &mut [T] = T::cast_mut(&mut pa[..]);
    let a_strips = pack_operand_a(&ablock, pa_elems, kernel.mr);
    round_if_mixed(kernel, pa_elems);
    let b_strips = ncb.div_ceil(kernel.nr);
    sweep_strips(kernel, kcb, pa_elems, pb, a_strips, b_strips, merge, band);
}

/// Convenience: `A · B` with default (sequential) settings.
pub fn multiply(a: &MatrixView<'_>, b: &MatrixView<'_>) -> DimResult<Matrix> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    dgemm(1.0, a, b, 0.0, &mut c.view_mut(), &GemmContext::default())?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{scalar_kernel, simd_kernel};
    use crate::naive::naive_mm;
    use crate::pack::K_CHUNK;
    use powerscale_matrix::norms::rel_frobenius_error;
    use powerscale_matrix::{Matrix, MatrixGen};

    fn check_against_naive(m: usize, k: usize, n: usize, seed: u64) {
        let mut gen = MatrixGen::new(seed);
        let a = gen.uniform(m, k, -1.0, 1.0);
        let b = gen.uniform(k, n, -1.0, 1.0);
        let mut c = Matrix::zeros(m, n);
        dgemm(
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            &GemmContext::default(),
        )
        .unwrap();
        let r = naive_mm(&a.view(), &b.view()).unwrap();
        let err = rel_frobenius_error(&c.view(), &r.view());
        assert!(err < 1e-13, "({m}x{k})·({k}x{n}): err {err}");
    }

    #[test]
    fn matches_naive_small_squares() {
        for n in [1, 2, 3, 4, 5, 8, 16, 17] {
            check_against_naive(n, n, n, n as u64);
        }
    }

    #[test]
    fn matches_naive_blocking_boundaries() {
        // Sizes straddling mc/kc/nc and mr/nr boundaries.
        let p = BlockingParams::default();
        for &dim in &[p.mc - 1, p.mc, p.mc + 1, p.kc, p.kc + 3, 2 * p.mc + 5] {
            check_against_naive(dim, dim, dim, dim as u64);
        }
    }

    #[test]
    fn matches_naive_rectangular() {
        check_against_naive(3, 300, 7, 1);
        check_against_naive(130, 2, 64, 2);
        check_against_naive(65, 129, 33, 3);
    }

    #[test]
    fn forced_kernels_agree() {
        // The dispatch tiers must compute the same product (to rounding).
        let mut gen = MatrixGen::new(21);
        let a = gen.paper_operand(73);
        let b = gen.paper_operand(73);
        let mut c_scalar = Matrix::zeros(73, 73);
        dgemm(
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c_scalar.view_mut(),
            &GemmContext::with_kernel(scalar_kernel()),
        )
        .unwrap();
        let want = naive_mm(&a.view(), &b.view()).unwrap();
        assert!(rel_frobenius_error(&c_scalar.view(), &want.view()) < 1e-13);
        if let Some(simd) = simd_kernel() {
            let mut c_simd = Matrix::zeros(73, 73);
            dgemm(
                1.0,
                &a.view(),
                &b.view(),
                0.0,
                &mut c_simd.view_mut(),
                &GemmContext::with_kernel(simd),
            )
            .unwrap();
            assert!(rel_frobenius_error(&c_simd.view(), &want.view()) < 1e-13);
            assert!(rel_frobenius_error(&c_simd.view(), &c_scalar.view()) < 1e-13);
        }
    }

    #[test]
    #[should_panic(expected = "does not match kernel")]
    fn mismatched_tile_rejected() {
        let kernel = scalar_kernel();
        let params = BlockingParams::for_caches_and_tile(&[], kernel.mr, kernel.nr);
        let bad = GemmContext {
            params: BlockingParams {
                mr: kernel.mr * 2,
                mc: params.mc * 2,
                ..params
            },
            kernel,
            ..GemmContext::default()
        };
        let a = Matrix::zeros(8, 8);
        let b = Matrix::zeros(8, 8);
        let mut c = Matrix::zeros(8, 8);
        let _ = dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &bad);
    }

    #[test]
    fn alpha_beta_semantics() {
        let mut gen = MatrixGen::new(9);
        let a = gen.paper_operand(32);
        let b = gen.paper_operand(32);
        let c0 = gen.paper_operand(32);
        // c = 2*a*b + 3*c0
        let mut c = c0.clone();
        dgemm(
            2.0,
            &a.view(),
            &b.view(),
            3.0,
            &mut c.view_mut(),
            &GemmContext::default(),
        )
        .unwrap();
        let ab = naive_mm(&a.view(), &b.view()).unwrap();
        let expect = Matrix::from_fn(32, 32, |i, j| 2.0 * ab.get(i, j) + 3.0 * c0.get(i, j));
        assert!(rel_frobenius_error(&c.view(), &expect.view()) < 1e-13);
    }

    #[test]
    fn beta_zero_overwrites_nan_and_inf() {
        let mut gen = MatrixGen::new(10);
        let a = gen.paper_operand(40);
        let b = gen.paper_operand(40);
        let mut want = Matrix::zeros(40, 40);
        let ctx = GemmContext::default();
        dgemm(1.0, &a.view(), &b.view(), 0.0, &mut want.view_mut(), &ctx).unwrap();
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = Matrix::filled(40, 40, poison);
            dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &ctx).unwrap();
            assert_eq!(c, want, "beta = 0 read a C holding {poison}");
        }
    }

    #[test]
    fn beta_one_keeps_nan() {
        let mut gen = MatrixGen::new(12);
        let a = gen.paper_operand(16);
        let b = gen.paper_operand(16);
        let mut c = Matrix::filled(16, 16, f64::NAN);
        dgemm(
            1.0,
            &a.view(),
            &b.view(),
            1.0,
            &mut c.view_mut(),
            &GemmContext::default(),
        )
        .unwrap();
        assert!(c.as_slice().iter().all(|x| x.is_nan()));
    }

    #[test]
    fn alpha_zero_only_scales() {
        let mut gen = MatrixGen::new(4);
        let a = gen.paper_operand(16);
        let b = gen.paper_operand(16);
        let mut c = Matrix::filled(16, 16, 2.0);
        dgemm(
            0.0,
            &a.view(),
            &b.view(),
            0.5,
            &mut c.view_mut(),
            &GemmContext::default(),
        )
        .unwrap();
        assert!(c.approx_eq(&Matrix::filled(16, 16, 1.0), 1e-15));
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let pools = [1, 2, 3, 4].map(ThreadPool::new);
        // dgemm at its own blocking, merging as Set, Add and Sub do.
        let mut gen = MatrixGen::new(11);
        let a = gen.paper_operand(150);
        let b = gen.paper_operand(150);
        let c0 = gen.paper_operand(150);
        for (alpha, beta) in [(1.0, 0.0), (1.0, 1.0), (-1.0, 1.0)] {
            let run = |ctx: &GemmContext<'_>| {
                let mut c = c0.clone();
                dgemm(alpha, &a.view(), &b.view(), beta, &mut c.view_mut(), ctx).unwrap();
                c
            };
            let c_seq = run(&GemmContext::default());
            for pool in &pools {
                let threads = pool.num_threads();
                let c_par = run(&GemmContext::parallel(pool));
                assert_eq!(
                    c_par, c_seq,
                    "α={alpha} β={beta}: {threads} threads changed bits"
                );
            }
        }
        // The nest itself at a small blocking, on fused operands, with
        // shapes straddling mr, K_CHUNK, kc, mc and nc.
        let kernel = Dispatch::default().kernel();
        let (mr, nr) = (kernel.mr, kernel.nr);
        let blocking = (2 * mr, 2 * K_CHUNK, 2 * nr);
        for (m, k, n) in [
            (mr - 1, K_CHUNK - 1, nr - 1),
            (2 * mr + 1, K_CHUNK + 1, nr + 1),
            (5 * mr + 3, 4 * K_CHUNK + 1, 3 * nr - 1),
        ] {
            let mut gen = MatrixGen::new((m * 1000 + k * 10 + n) as u64);
            let [a1, a2] = [(); 2].map(|_| gen.uniform(m, k, -1.0, 1.0));
            let [b1, b2] = [(); 2].map(|_| gen.uniform(k, n, -1.0, 1.0));
            let c0 = gen.uniform(m, n, -1.0, 1.0);
            let (fa, fb) = (
                Operand::Add(a1.view(), a2.view()),
                Operand::Sub(b1.view(), b2.view()),
            );
            for first in [Merge::Store(1.0), Merge::Add(1.0), Merge::Add(-1.0)] {
                let run = |pool: Option<&ThreadPool>| {
                    let mut c = c0.clone();
                    packed_nest(kernel, blocking, first, &fa, &fb, &mut c.view_mut(), pool);
                    c
                };
                let c_seq = run(None);
                for pool in &pools {
                    let threads = pool.num_threads();
                    assert_eq!(
                        run(Some(pool)),
                        c_seq,
                        "({m},{k},{n}) {first:?}: {threads} threads changed bits"
                    );
                }
            }
        }
    }

    #[test]
    fn row_bands_balance_whole_strips() {
        for mr in [4, 6] {
            for mc in [mr, 3 * mr, 80 * mr] {
                for width in 1..=4 {
                    for m in 1..=200 {
                        let bands: Vec<Range<usize>> = row_bands(m, mc, mr, width).collect();
                        let at = format!("m={m} mc={mc} mr={mr} width={width}");
                        assert_eq!(bands.len() % width, 0, "{at}: band count");
                        assert!(bands.len() >= m.div_ceil(mc), "{at}: too few bands");
                        assert_eq!(bands[0].start, 0, "{at}");
                        assert_eq!(bands.last().unwrap().end, m, "{at}");
                        assert!(bands.windows(2).all(|w| w[0].end == w[1].start), "{at}");
                        let heights: Vec<usize> = bands.iter().map(|r| r.len()).collect();
                        let (last, rest) = heights.split_last().unwrap();
                        assert!(rest.iter().all(|h| h % mr == 0), "{at}: {heights:?}");
                        let max = *heights.iter().max().unwrap();
                        let min = *heights.iter().min().unwrap();
                        assert!(max - min <= mr, "{at}: {heights:?}");
                        assert!(max <= mc && *last <= mc, "{at}: {heights:?}");
                    }
                }
            }
        }
        // Two workers at n = 2048: six near-equal bands of whole strips.
        let heights: Vec<usize> = row_bands(2048, 480, 6, 2).map(|r| r.len()).collect();
        assert_eq!(heights, [342, 342, 342, 342, 342, 338]);
    }

    #[test]
    fn parallel_packing_path_is_bitwise_stable() {
        // Wide-and-shallow shape: many B strips per panel, so the parallel
        // packing branch triggers even with small operands.
        let mut gen = MatrixGen::new(13);
        let a = gen.uniform(24, 40, -1.0, 1.0);
        let b = gen.uniform(40, 900, -1.0, 1.0);
        let mut c_seq = Matrix::zeros(24, 900);
        dgemm(
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c_seq.view_mut(),
            &GemmContext::default(),
        )
        .unwrap();
        for threads in [2, 4] {
            let pool = ThreadPool::new(threads);
            let mut c_par = Matrix::zeros(24, 900);
            dgemm(
                1.0,
                &a.view(),
                &b.view(),
                0.0,
                &mut c_par.view_mut(),
                &GemmContext::parallel(&pool),
            )
            .unwrap();
            assert_eq!(
                c_par, c_seq,
                "parallel packing with {threads} threads changed bits"
            );
        }
    }

    #[test]
    fn dimension_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 5);
        let mut c = Matrix::zeros(2, 5);
        assert!(dgemm(
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            &GemmContext::default()
        )
        .is_err());
        let b2 = Matrix::zeros(3, 5);
        let mut c2 = Matrix::zeros(3, 3);
        assert!(dgemm(
            1.0,
            &a.view(),
            &b2.view(),
            0.0,
            &mut c2.view_mut(),
            &GemmContext::default()
        )
        .is_err());
    }

    #[test]
    fn events_account_total_flops() {
        use powerscale_counters::EventSet;
        let mut gen = MatrixGen::new(5);
        let n = 96;
        let a = gen.paper_operand(n);
        let b = gen.paper_operand(n);
        let mut c = Matrix::zeros(n, n);
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        let ctx = GemmContext {
            events: Some(&set),
            ..GemmContext::default()
        };
        dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &ctx).unwrap();
        let p = set.read().unwrap();
        // beta = 0 has no pass of its own (the first panel stores): the
        // multiply is exactly 2·n³.
        let flops = 2 * (n as u64).pow(3);
        assert_eq!(p.get(Event::FpOps), flops);
        assert!(p.get(Event::PackBytes) > 0);
        assert!(p.get(Event::KernelCalls) > 0);
        // Any other beta != 1 scales C once, up front: n² more.
        dgemm(1.0, &a.view(), &b.view(), 0.5, &mut c.view_mut(), &ctx).unwrap();
        let scaled = set.read().unwrap().get(Event::FpOps) - p.get(Event::FpOps);
        assert_eq!(scaled, (n * n) as u64 + flops);
    }

    #[test]
    fn multiply_convenience() {
        let a = Matrix::identity(10);
        let b = MatrixGen::new(2).paper_operand(10);
        let c = multiply(&a.view(), &b.view()).unwrap();
        assert!(c.approx_eq(&b, 1e-14));
    }

    #[test]
    fn empty_operands_ok() {
        let a = Matrix::zeros(0, 0);
        let b = Matrix::zeros(0, 0);
        let mut c = Matrix::zeros(0, 0);
        dgemm(
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            &GemmContext::default(),
        )
        .unwrap();
    }
}
