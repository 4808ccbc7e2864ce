//! The recursive executor (real computation path).
//!
//! The recursion works in **Set semantics** (`dst = A · B`) and is built
//! around two scratch-avoiding primitives:
//!
//! * [`leaf_gemm_fused_with`] — quadrant sums like `A21 + A22` are packed
//!   directly into the leaf's panel buffers ([`Operand::Add`] /
//!   [`Operand::Sub`]) and products merge into `C` in place
//!   ([`Accum::Add`] / [`Accum::Sub`]), so leaves materialise neither
//!   operand sums nor product temporaries. The walker calls it itself,
//!   handing it the pool when the schedule shares leaves;
//! * in-place combine schedules — four of the seven products land
//!   directly in their destination quadrants and the remaining cross-term
//!   products cycle through a single scratch matrix (sequential paths),
//!   cutting per-node scratch from the textbook 7+ temporaries to one
//!   (Classic) or three (Winograd) half-size matrices.
//!
//! The parallel paths use the same per-quadrant update order as the
//! sequential ones, so results are bitwise identical; they only widen the
//! scratch set enough to give the seven spawned products disjoint
//! destinations. Quadrant-sized elementwise passes go through the
//! row-band-parallel `ops::par_*` family, which is bitwise transparent.
//!
//! This is the one Strassen recursion in the workspace. It is generic over
//! a [`Schedule`]: [`multiply`] runs it under the BOTS [`Untied`]
//! schedule, and CAPS runs it under its BFS/DFS schedule through
//! [`multiply_with`].

use crate::accounting::{
    add_pass, record_add, record_level, record_spawns, record_steal_delta, steal_snapshot, sub_pass,
};
use crate::config::{StrassenConfig, Variant};
use crate::cost::is_leaf;
use crate::schedule::{Schedule, Untied};
use powerscale_counters::EventSet;
use powerscale_gemm::arena;
use powerscale_gemm::leaf::Operand::{Add, Sub, View};
use powerscale_gemm::leaf::{leaf_gemm_fused_with, Accum, Operand};
use powerscale_matrix::{ops, pad, DimError, DimResult, Matrix, MatrixView, MatrixViewMut};
use powerscale_pool::{Scope, ThreadPool};

/// `A · B` by Strassen recursion.
///
/// Operands must be square and equal-shaped; dimensions that are not of the
/// form `base · 2^k` (base ≤ cutoff) are zero-padded up to the nearest such
/// size and the result is cropped back — padding with zeros is neutral for
/// multiplication.
///
/// `pool` enables task-parallel execution of the seven sub-products down to
/// `cfg.task_depth`; `events` receives the work accounting (including the
/// in-group/cross-group steal split the pool observed during the run).
pub fn multiply(
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    cfg: &StrassenConfig,
    pool: Option<&ThreadPool>,
    events: Option<&EventSet>,
) -> DimResult<Matrix> {
    cfg.validate().map_err(|reason| DimError::InvalidConfig {
        op: "strassen",
        reason,
    })?;
    if !a.is_square() || !b.is_square() || a.shape() != b.shape() {
        return Err(DimError::Mismatch {
            op: "strassen",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Matrix::zeros(0, 0));
    }
    let _span = powerscale_trace::span_args(
        powerscale_trace::Category::Strassen,
        "strassen",
        n as u32,
        cfg.task_depth,
    );
    Ok(multiply_with(a, b, cfg, &Untied, pool, events))
}

/// `A · B` by the Strassen recursion under `sched`, for operands the
/// caller has already checked square, equal-shaped and non-empty: pads to
/// a `base · 2^k` dimension when necessary, walks the recursion and
/// attributes the pool's steals during the walk to `events`.
pub fn multiply_with<S: Schedule>(
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    cfg: &StrassenConfig,
    sched: &S,
    pool: Option<&ThreadPool>,
    events: Option<&EventSet>,
) -> Matrix {
    let walker = Walker {
        cfg,
        sched,
        pool,
        events,
    };
    let n = a.rows();
    let snap = steal_snapshot(pool);
    let target = pad::next_recursive_size(n, cfg.cutoff);
    let result = if target == n {
        let mut c = Matrix::zeros(n, n);
        walker.rec(*a, *b, &mut c.view_mut(), 0);
        c
    } else {
        let pa = pad::pad_to(a, target);
        let pb = pad::pad_to(b, target);
        let mut pc = Matrix::zeros(target, target);
        walker.rec(pa.view(), pb.view(), &mut pc.view_mut(), 0);
        pad::crop(&pc.view(), n, n)
    };
    record_steal_delta(events, pool, snap);
    result
}

/// A fused operand resolved for a non-leaf child: either the original view
/// or one arena-leased materialisation of the quadrant sum.
enum Resolved<'v> {
    /// Plain quadrant view, used as-is.
    View(MatrixView<'v>),
    /// The evaluated quadrant sum, leased from the worker-local arena.
    Scratch(arena::ScratchMatrix),
}

impl Resolved<'_> {
    /// The resolved operand as a view.
    fn view(&self) -> MatrixView<'_> {
        match self {
            Resolved::View(v) => *v,
            Resolved::Scratch(s) => s.view(),
        }
    }
}

/// Evaluates a fused operand into scratch when a child must recurse
/// instead of going to the fused leaf (one elementwise pass — the same
/// pass a leaf charges for fused packing).
fn resolve_operand<'v>(
    op: Operand<'v>,
    h: usize,
    pool: Option<&ThreadPool>,
    events: Option<&EventSet>,
) -> Resolved<'v> {
    match op {
        Operand::View(v) => Resolved::View(v),
        Operand::Add(x, y) => {
            let mut t = arena::matrix_uninit(h, h);
            ops::par_add_into(&x, &y, &mut t.view_mut(), pool).expect("quadrant shapes");
            record_add(events, h);
            Resolved::Scratch(t)
        }
        Operand::Sub(x, y) => {
            let mut t = arena::matrix_uninit(h, h);
            ops::par_sub_into(&x, &y, &mut t.view_mut(), pool).expect("quadrant shapes");
            record_add(events, h);
            Resolved::Scratch(t)
        }
    }
}

/// One recursion's fixed context: the knobs, the schedule, and where the
/// work runs and is accounted.
struct Walker<'a, S> {
    cfg: &'a StrassenConfig,
    sched: &'a S,
    pool: Option<&'a ThreadPool>,
    events: Option<&'a EventSet>,
}

impl<S: Schedule> Walker<'_, S> {
    /// `c = a · b`, recursively. `c` is fully overwritten.
    fn rec(&self, a: MatrixView<'_>, b: MatrixView<'_>, c: &mut MatrixViewMut<'_>, depth: u32) {
        // Cooperative cancellation poll at every recursion node: a cancelled
        // request's task tree collapses within one leaf's latency, leaving
        // garbage quadrants the cancelling owner discards.
        if powerscale_pool::cancel_requested() {
            return;
        }
        let n = a.rows();
        if is_leaf(n, self.cfg.cutoff) {
            self.leaf(View(a), View(b), c, Accum::Set);
            return;
        }
        record_level(self.events);
        let parallel = self.pool.is_some() && depth < self.cfg.task_depth;
        let _span = self.sched.node_span(parallel, depth, n);
        match (self.cfg.variant, parallel) {
            (Variant::Classic, false) => self.classic_seq(a, b, c, depth),
            (Variant::Classic, true) => self.classic_par(a, b, c, depth),
            (Variant::Winograd, false) => self.winograd_seq(a, b, c, depth),
            (Variant::Winograd, true) => self.winograd_par(a, b, c, depth),
        }
    }

    /// The dense cutover: the fused leaf, work-shared over the pool when
    /// the schedule shares leaves.
    fn leaf(&self, a: Operand<'_>, b: Operand<'_>, c: &mut MatrixViewMut<'_>, accum: Accum) {
        let pool = self.pool.filter(|_| self.sched.shares_leaves());
        leaf_gemm_fused_with(self.cfg.dispatch, a, b, c, accum, pool, self.events)
            .expect("leaf shapes valid by construction");
    }

    /// Spawns product `index` of a parallel node at `depth`, seeded onto
    /// the worker the schedule pins it to, if any.
    fn spawn<'env, F>(&self, s: &Scope<'_, 'env>, depth: u32, index: usize, f: F)
    where
        F: FnOnce(&Scope<'_, 'env>) + Send + 'env,
    {
        match self.sched.pin(depth, index) {
            Some(worker) => s.spawn_in(worker, f),
            None => s.spawn(f),
        }
    }

    /// One Strassen sub-product: `dst (op)= A · B` with unevaluated operand
    /// sums. Leaf children fuse the sums into the packing pass and the
    /// merge into the kernel's `C` update; internal children materialise
    /// each sum once and recurse (merging through scratch for `Add`/`Sub`),
    /// keeping the per-node elementwise pass count identical on both paths.
    fn product(
        &self,
        a: Operand<'_>,
        b: Operand<'_>,
        dst: &mut MatrixViewMut<'_>,
        accum: Accum,
        depth: u32,
    ) {
        let h = dst.rows();
        if is_leaf(h, self.cfg.cutoff) {
            self.leaf(a, b, dst, accum);
            return;
        }
        let am = resolve_operand(a, h, self.pool, self.events);
        let bm = resolve_operand(b, h, self.pool, self.events);
        if accum == Accum::Set {
            self.rec(am.view(), bm.view(), dst, depth);
            return;
        }
        let mut t = arena::matrix_uninit(h, h);
        self.rec(am.view(), bm.view(), &mut t.view_mut(), depth);
        if accum == Accum::Add {
            add_pass(dst, &t.view(), self.pool, self.events);
        } else {
            sub_pass(dst, &t.view(), self.pool, self.events);
        }
    }

    /// Classic Strassen, sequential: 18 elementwise passes, one half-size
    /// scratch matrix.
    ///
    /// M2, M3, M6, M7 are Set straight into C21, C12, C22, C11; the shared
    /// products M1, M4, M5 cycle through `p`. C22's M2/M3 cross-terms are
    /// folded out of the quadrants that hold them before those quadrants
    /// take their own accumulations.
    fn classic_seq(
        &self,
        a: MatrixView<'_>,
        b: MatrixView<'_>,
        c: &mut MatrixViewMut<'_>,
        depth: u32,
    ) {
        let (pool, events) = (self.pool, self.events);
        let h = a.rows() / 2;
        let qa = a.quadrants().expect("even dimension");
        let qb = b.quadrants().expect("even dimension");
        let (a11, a12, a21, a22) = (qa.a11, qa.a12, qa.a21, qa.a22);
        let (b11, b12, b21, b22) = (qb.a11, qb.a12, qb.a21, qb.a22);
        let qc = c.reborrow().quadrants().expect("even dimension");
        let (mut c11, mut c12, mut c21, mut c22) = (qc.a11, qc.a12, qc.a21, qc.a22);
        let (d, set) = (depth + 1, Accum::Set);

        // M2 = (A21 + A22) B11          -> C21
        self.product(Add(a21, a22), View(b11), &mut c21, set, d);
        // M3 = A11 (B12 - B22)          -> C12
        self.product(View(a11), Sub(b12, b22), &mut c12, set, d);
        // M6 = (A21 - A11)(B11 + B12)   -> C22
        self.product(Sub(a21, a11), Add(b11, b12), &mut c22, set, d);
        // M7 = (A12 - A22)(B21 + B22)   -> C11
        self.product(Sub(a12, a22), Add(b21, b22), &mut c11, set, d);

        let mut p = arena::matrix_uninit(h, h);
        // M1 = (A11 + A22)(B11 + B22)
        self.product(Add(a11, a22), Add(b11, b22), &mut p.view_mut(), set, d);
        add_pass(&mut c11, &p.view(), pool, events);
        add_pass(&mut c22, &p.view(), pool, events);
        // C22 = M6 + M1 - M2 + M3, taking M2/M3 from C21/C12 while they still
        // hold exactly those products.
        sub_pass(&mut c22, &c21.as_view(), pool, events);
        add_pass(&mut c22, &c12.as_view(), pool, events);
        // M4 = A22 (B21 - B11)
        self.product(View(a22), Sub(b21, b11), &mut p.view_mut(), set, d);
        add_pass(&mut c11, &p.view(), pool, events);
        add_pass(&mut c21, &p.view(), pool, events);
        // M5 = (A11 + A12) B22
        self.product(Add(a11, a12), View(b22), &mut p.view_mut(), set, d);
        sub_pass(&mut c11, &p.view(), pool, events);
        add_pass(&mut c12, &p.view(), pool, events);
    }

    /// Classic Strassen, task-parallel: the same 18 passes and per-quadrant
    /// update order as [`Walker::classic_seq`] (results are bitwise
    /// identical), with M1/M4/M5 given their own scratch so all seven
    /// products have disjoint destinations.
    fn classic_par(
        &self,
        a: MatrixView<'_>,
        b: MatrixView<'_>,
        c: &mut MatrixViewMut<'_>,
        depth: u32,
    ) {
        let (pool, events) = (self.pool, self.events);
        let h = a.rows() / 2;
        let qa = a.quadrants().expect("even dimension");
        let qb = b.quadrants().expect("even dimension");
        let (a11, a12, a21, a22) = (qa.a11, qa.a12, qa.a21, qa.a22);
        let (b11, b12, b21, b22) = (qb.a11, qb.a12, qb.a21, qb.a22);
        let qc = c.reborrow().quadrants().expect("even dimension");
        let (mut c11, mut c12, mut c21, mut c22) = (qc.a11, qc.a12, qc.a21, qc.a22);
        let (d, set) = (depth + 1, Accum::Set);

        let mut p1 = arena::matrix_uninit(h, h);
        let mut p4 = arena::matrix_uninit(h, h);
        let mut p5 = arena::matrix_uninit(h, h);
        let pl = pool.expect("parallel path requires a pool");
        record_spawns(events, 7, h);
        {
            let (rc11, rc12, rc21, rc22) = (&mut c11, &mut c12, &mut c21, &mut c22);
            let (r1, r4, r5) = (&mut *p1, &mut *p4, &mut *p5);
            pl.scope(|s| {
                self.spawn(s, depth, 0, move |_| {
                    self.product(Add(a21, a22), View(b11), rc21, set, d);
                });
                self.spawn(s, depth, 1, move |_| {
                    self.product(View(a11), Sub(b12, b22), rc12, set, d);
                });
                self.spawn(s, depth, 2, move |_| {
                    self.product(Sub(a21, a11), Add(b11, b12), rc22, set, d);
                });
                self.spawn(s, depth, 3, move |_| {
                    self.product(Sub(a12, a22), Add(b21, b22), rc11, set, d);
                });
                self.spawn(s, depth, 4, move |_| {
                    self.product(Add(a11, a22), Add(b11, b22), &mut r1.view_mut(), set, d);
                });
                self.spawn(s, depth, 5, move |_| {
                    self.product(View(a22), Sub(b21, b11), &mut r4.view_mut(), set, d);
                });
                self.spawn(s, depth, 6, move |_| {
                    self.product(Add(a11, a12), View(b22), &mut r5.view_mut(), set, d);
                });
            });
        }
        add_pass(&mut c11, &p1.view(), pool, events);
        add_pass(&mut c22, &p1.view(), pool, events);
        sub_pass(&mut c22, &c21.as_view(), pool, events);
        add_pass(&mut c22, &c12.as_view(), pool, events);
        add_pass(&mut c11, &p4.view(), pool, events);
        add_pass(&mut c21, &p4.view(), pool, events);
        sub_pass(&mut c11, &p5.view(), pool, events);
        add_pass(&mut c12, &p5.view(), pool, events);
    }

    /// Strassen-Winograd, sequential: 15 elementwise passes, three
    /// half-size scratch matrices.
    ///
    /// `x`/`y` start as S1 = A21+A22 / T3 = B22−B12 and are updated *in
    /// place* to S2 / T2 once the products needing the first generation
    /// (P7, P5) are taken; T4 and the final P4/P2 merges are fused into the
    /// leaves.
    fn winograd_seq(
        &self,
        a: MatrixView<'_>,
        b: MatrixView<'_>,
        c: &mut MatrixViewMut<'_>,
        depth: u32,
    ) {
        let (pool, events) = (self.pool, self.events);
        let h = a.rows() / 2;
        let qa = a.quadrants().expect("even dimension");
        let qb = b.quadrants().expect("even dimension");
        let (a11, a12, a21, a22) = (qa.a11, qa.a12, qa.a21, qa.a22);
        let (b11, b12, b21, b22) = (qb.a11, qb.a12, qb.a21, qb.a22);
        let qc = c.reborrow().quadrants().expect("even dimension");
        let (mut c11, mut c12, mut c21, mut c22) = (qc.a11, qc.a12, qc.a21, qc.a22);
        let (d, set) = (depth + 1, Accum::Set);

        let mut x = arena::matrix_uninit(h, h);
        let mut y = arena::matrix_uninit(h, h);
        // X = S1 = A21 + A22; Y = T3 = B22 - B12.
        ops::par_add_into(&a21, &a22, &mut x.view_mut(), pool).expect("quadrant shapes");
        record_add(events, h);
        ops::par_sub_into(&b22, &b12, &mut y.view_mut(), pool).expect("quadrant shapes");
        record_add(events, h);
        // C21 = P7 = (A11 - A21) T3; C22 = P5 = S1 (B12 - B11).
        self.product(Sub(a11, a21), View(y.view()), &mut c21, set, d);
        self.product(View(x.view()), Sub(b12, b11), &mut c22, set, d);
        // X -> S2 = S1 - A11; Y -> T2 = T3 + B11.
        sub_pass(&mut x.view_mut(), &a11, pool, events);
        add_pass(&mut y.view_mut(), &b11, pool, events);
        let mut p = arena::matrix_uninit(h, h);
        // P = P6 = S2 T2; C11 = P1 = A11 B11.
        self.product(View(x.view()), View(y.view()), &mut p.view_mut(), set, d);
        self.product(View(a11), View(b11), &mut c11, set, d);
        // P -> U1 = P1 + P6; C21 -> U2 = U1 + P7.
        add_pass(&mut p.view_mut(), &c11.as_view(), pool, events);
        add_pass(&mut c21, &p.view(), pool, events);
        // C12 = P3 = (A12 - S2) B22, then U3 + P3 (C22 still holds P5).
        self.product(Sub(a12, x.view()), View(b22), &mut c12, set, d);
        add_pass(&mut c12, &p.view(), pool, events);
        add_pass(&mut c12, &c22.as_view(), pool, events);
        // C22 = U3 + P7 = P5 + U2 (C21 holds U2).
        add_pass(&mut c22, &c21.as_view(), pool, events);
        // C21 = U2 - P4, with T4 = T2 - B21 fused into the packing pass and
        // the subtraction fused into the kernel merge.
        self.product(View(a22), Sub(y.view(), b21), &mut c21, Accum::Sub, d);
        // C11 = P1 + P2, merge fused likewise.
        self.product(View(a12), View(b21), &mut c11, Accum::Add, d);
    }

    /// Strassen-Winograd, task-parallel: same 15 passes and per-quadrant
    /// update order as [`Walker::winograd_seq`] (bitwise identical); both
    /// generations of the pre-adds coexist so the seven products can run
    /// concurrently.
    fn winograd_par(
        &self,
        a: MatrixView<'_>,
        b: MatrixView<'_>,
        c: &mut MatrixViewMut<'_>,
        depth: u32,
    ) {
        let (pool, events) = (self.pool, self.events);
        let h = a.rows() / 2;
        let qa = a.quadrants().expect("even dimension");
        let qb = b.quadrants().expect("even dimension");
        let (a11, a12, a21, a22) = (qa.a11, qa.a12, qa.a21, qa.a22);
        let (b11, b12, b21, b22) = (qb.a11, qb.a12, qb.a21, qb.a22);
        let qc = c.reborrow().quadrants().expect("even dimension");
        let (mut c11, mut c12, mut c21, mut c22) = (qc.a11, qc.a12, qc.a21, qc.a22);
        let (d, set) = (depth + 1, Accum::Set);

        // S1, T3 and their second generation S2 = S1 - A11, T2 = T3 + B11.
        let mut x = arena::matrix_uninit(h, h);
        let mut y = arena::matrix_uninit(h, h);
        let mut x2 = arena::matrix_uninit(h, h);
        let mut y2 = arena::matrix_uninit(h, h);
        ops::par_add_into(&a21, &a22, &mut x.view_mut(), pool).expect("quadrant shapes");
        record_add(events, h);
        ops::par_sub_into(&b22, &b12, &mut y.view_mut(), pool).expect("quadrant shapes");
        record_add(events, h);
        ops::par_sub_into(&x.view(), &a11, &mut x2.view_mut(), pool).expect("quadrant shapes");
        record_add(events, h);
        ops::par_add_into(&y.view(), &b11, &mut y2.view_mut(), pool).expect("quadrant shapes");
        record_add(events, h);

        let mut pa = arena::matrix_uninit(h, h); // P6
        let mut pb = arena::matrix_uninit(h, h); // P4
        let mut pc = arena::matrix_uninit(h, h); // P2
        let pl = pool.expect("parallel path requires a pool");
        record_spawns(events, 7, h);
        {
            let (rc11, rc12, rc21, rc22) = (&mut c11, &mut c12, &mut c21, &mut c22);
            let (ra, rb, rp) = (&mut *pa, &mut *pb, &mut *pc);
            let (yv, xv, x2v, y2v) = (y.view(), x.view(), x2.view(), y2.view());
            pl.scope(|s| {
                // P7 -> C21
                self.spawn(s, depth, 0, move |_| {
                    self.product(Sub(a11, a21), View(yv), rc21, set, d);
                });
                // P5 -> C22
                self.spawn(s, depth, 1, move |_| {
                    self.product(View(xv), Sub(b12, b11), rc22, set, d);
                });
                // P6
                self.spawn(s, depth, 2, move |_| {
                    self.product(View(x2v), View(y2v), &mut ra.view_mut(), set, d);
                });
                // P1 -> C11
                self.spawn(s, depth, 3, move |_| {
                    self.product(View(a11), View(b11), rc11, set, d);
                });
                // P3 -> C12
                self.spawn(s, depth, 4, move |_| {
                    self.product(Sub(a12, x2v), View(b22), rc12, set, d);
                });
                // P4, with T4 = T2 - B21 fused
                self.spawn(s, depth, 5, move |_| {
                    self.product(View(a22), Sub(y2v, b21), &mut rb.view_mut(), set, d);
                });
                // P2
                self.spawn(s, depth, 6, move |_| {
                    self.product(View(a12), View(b21), &mut rp.view_mut(), set, d);
                });
            });
        }
        // Combines in the sequential schedule's per-quadrant order.
        add_pass(&mut pa.view_mut(), &c11.as_view(), pool, events); // U1
        add_pass(&mut c21, &pa.view(), pool, events); // U2
        add_pass(&mut c12, &pa.view(), pool, events);
        add_pass(&mut c12, &c22.as_view(), pool, events); // C12 final
        add_pass(&mut c22, &c21.as_view(), pool, events); // C22 final
        sub_pass(&mut c21, &pb.view(), pool, events); // C21 final
        add_pass(&mut c11, &pc.view(), pool, events); // C11 final
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerscale_gemm::naive::naive_mm;
    use powerscale_matrix::norms::rel_frobenius_error;
    use powerscale_matrix::MatrixGen;

    fn check(n: usize, cfg: &StrassenConfig, pool: Option<&ThreadPool>, seed: u64) {
        let mut gen = MatrixGen::new(seed);
        let a = gen.paper_operand(n);
        let b = gen.paper_operand(n);
        let c = multiply(&a.view(), &b.view(), cfg, pool, None).unwrap();
        let r = naive_mm(&a.view(), &b.view()).unwrap();
        let err = rel_frobenius_error(&c.view(), &r.view());
        assert!(err < 1e-11, "n={n} variant={:?}: err {err}", cfg.variant);
    }

    #[test]
    fn classic_matches_naive_power_of_two() {
        let cfg = StrassenConfig {
            cutoff: 8,
            ..Default::default()
        };
        for n in [8, 16, 32, 64] {
            check(n, &cfg, None, n as u64);
        }
    }

    #[test]
    fn winograd_matches_naive_power_of_two() {
        let cfg = StrassenConfig {
            cutoff: 8,
            ..Default::default()
        }
        .winograd();
        for n in [8, 16, 32, 64] {
            check(n, &cfg, None, n as u64);
        }
    }

    #[test]
    fn non_power_of_two_padded() {
        let cfg = StrassenConfig {
            cutoff: 8,
            ..Default::default()
        };
        for n in [12, 17, 31, 100] {
            check(n, &cfg, None, n as u64);
            check(n, &cfg.winograd(), None, n as u64 + 1);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let classic = StrassenConfig {
            cutoff: 16,
            ..Default::default()
        };
        for cfg in [classic, classic.winograd()] {
            let mut gen = MatrixGen::new(99);
            let a = gen.paper_operand(128);
            let b = gen.paper_operand(128);
            let seq = multiply(&a.view(), &b.view(), &cfg, None, None).unwrap();
            let pool = ThreadPool::new(4);
            let par = multiply(&a.view(), &b.view(), &cfg, Some(&pool), None).unwrap();
            // Identical per-quadrant update order in both schedules:
            // results are bitwise equal.
            assert_eq!(seq, par, "variant {:?}", cfg.variant);
        }
    }

    #[test]
    fn zero_and_one_sized() {
        let cfg = StrassenConfig::default();
        let z = Matrix::zeros(0, 0);
        assert_eq!(
            multiply(&z.view(), &z.view(), &cfg, None, None)
                .unwrap()
                .len(),
            0
        );
        let one = Matrix::filled(1, 1, 3.0);
        let r = multiply(&one.view(), &one.view(), &cfg, None, None).unwrap();
        assert_eq!(r.get(0, 0), 9.0);
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(4, 6);
        let b = Matrix::zeros(6, 4);
        assert!(multiply(&a.view(), &b.view(), &StrassenConfig::default(), None, None).is_err());
    }

    #[test]
    fn rejects_mismatched_squares() {
        let a = Matrix::zeros(4, 4);
        let b = Matrix::zeros(8, 8);
        assert!(multiply(&a.view(), &b.view(), &StrassenConfig::default(), None, None).is_err());
    }

    #[test]
    fn invalid_config_reports_invalid_config_error() {
        let a = Matrix::zeros(4, 4);
        let cfg = StrassenConfig {
            cutoff: 1,
            ..Default::default()
        };
        match multiply(&a.view(), &a.view(), &cfg, None, None) {
            Err(DimError::InvalidConfig { op, reason }) => {
                assert_eq!(op, "strassen");
                assert!(reason.contains("cutoff"), "reason: {reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn event_accounting_has_expected_structure() {
        use powerscale_counters::{Event, EventSet};
        let cfg = StrassenConfig {
            cutoff: 16,
            ..Default::default()
        };
        let mut gen = MatrixGen::new(5);
        let a = gen.paper_operand(64);
        let b = gen.paper_operand(64);
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        let _ = multiply(&a.view(), &b.view(), &cfg, None, None);
        // Sequential run with events.
        let _ = multiply(&a.view(), &b.view(), &cfg, None, Some(&set)).unwrap();
        let p = set.stop().unwrap();
        // Two recursion levels: 64 -> 32 -> 16(leaf). Internal nodes: 1 + 7.
        assert_eq!(p.get(Event::RecursionLevels), 8);
        // Leaves: 49 multiplications of 16^3, one packed kernel sweep each.
        assert_eq!(p.get(Event::KernelCalls), 49);
        assert_eq!(p.get(Event::FpOps), 49 * 2 * 16 * 16 * 16);
        // Classic in-place form: 18 elementwise passes per node (10 fused
        // operand passes + 8 combines), matching `adds_per_level()`.
        let expected_adds = 18 * 32 * 32 + 7 * 18 * 16 * 16;
        assert_eq!(p.get(Event::FpAdds), expected_adds as u64);
        // No tasks spawned without a pool.
        assert_eq!(p.get(Event::TasksSpawned), 0);
    }

    #[test]
    fn winograd_event_accounting_matches_adds_per_level() {
        use powerscale_counters::{Event, EventSet};
        let cfg = StrassenConfig {
            cutoff: 16,
            ..Default::default()
        }
        .winograd();
        let mut gen = MatrixGen::new(7);
        let a = gen.paper_operand(64);
        let b = gen.paper_operand(64);
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        let _ = multiply(&a.view(), &b.view(), &cfg, None, Some(&set)).unwrap();
        let p = set.stop().unwrap();
        assert_eq!(p.get(Event::RecursionLevels), 8);
        assert_eq!(p.get(Event::KernelCalls), 49);
        // Winograd in-place form: 15 passes per node.
        let expected_adds = 15 * 32 * 32 + 7 * 15 * 16 * 16;
        assert_eq!(p.get(Event::FpAdds), expected_adds as u64);
    }

    #[test]
    fn spawn_accounting_with_pool() {
        use powerscale_counters::{Event, EventSet};
        let cfg = StrassenConfig {
            cutoff: 16,
            task_depth: 1,
            ..Default::default()
        };
        let mut gen = MatrixGen::new(6);
        let a = gen.paper_operand(64);
        let b = gen.paper_operand(64);
        let pool = ThreadPool::new(2);
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        let _ = multiply(&a.view(), &b.view(), &cfg, Some(&pool), Some(&set)).unwrap();
        let p = set.stop().unwrap();
        // Only depth 0 spawns: exactly 7 tasks.
        assert_eq!(p.get(Event::TasksSpawned), 7);
        assert_eq!(p.get(Event::CommBytes), 7 * 2 * 8 * 32 * 32);
    }

    use powerscale_matrix::Matrix;
}
