//! The recursive executor (real computation path).
//!
//! The recursion works in **Set semantics** (`dst = A · B`) and is built
//! around two scratch-avoiding primitives:
//!
//! * [`leaf_gemm_fused_with`] — quadrant sums like `A21 + A22` are packed
//!   directly into the leaf's panel buffers ([`Operand::Add`] /
//!   [`Operand::Sub`]), so leaves never materialise operand sums. The
//!   walker calls it itself and hands it the pool, so every pooled leaf
//!   is work-shared by row bands;
//! * an in-place combine schedule — four of the seven products land
//!   directly in their destination quadrants and the remaining cross-term
//!   products cycle through a single scratch matrix (sequential path),
//!   cutting per-node scratch from the textbook 7+ temporaries to one
//!   half-size matrix.
//!
//! The parallel path uses the same per-quadrant update order as the
//! sequential one, so results are bitwise identical; it only widens the
//! scratch set enough to give the seven spawned products disjoint
//! destinations. Quadrant-sized elementwise passes go through the
//! row-band-parallel `ops::par_*` family, which is bitwise transparent.
//!
//! This is the one Strassen recursion in the workspace. It takes a
//! [`Schedule`] value: [`multiply`] runs it under the BOTS schedule, and
//! CAPS runs it under its BFS/DFS schedule through [`multiply_with`].

use crate::accounting::{
    add_pass, record_add, record_level, record_spawns, record_steal_delta, steal_snapshot, sub_pass,
};
use crate::config::StrassenConfig;
use crate::cost::is_leaf;
use crate::schedule::Schedule;
use powerscale_counters::EventSet;
use powerscale_gemm::arena;
use powerscale_gemm::leaf::Operand::{Add, Sub, View};
use powerscale_gemm::leaf::{leaf_gemm_fused_with, Accum, Operand};
use powerscale_matrix::{ops, pad, DimError, DimResult, Matrix, MatrixView, MatrixViewMut};
use powerscale_pool::{Scope, ThreadPool};
use powerscale_trace::{span_args, Category};

/// The BOTS schedule: untied tasks, placed wherever a worker steals them.
const UNTIED: Schedule = Schedule {
    seed: None,
    category: Category::Strassen,
    spans: ["rec:par", "rec:seq"],
};

/// `A · B` by Strassen recursion.
///
/// Operands must be square and equal-shaped; dimensions that are not of the
/// form `base · 2^k` (base ≤ cutoff) are zero-padded up to the nearest such
/// size and the result is cropped back — padding with zeros is neutral for
/// multiplication.
///
/// `pool` enables task-parallel execution of the seven sub-products down to
/// `cfg.task_depth` and row-band sharing of every leaf; `events` receives
/// the work accounting (including the in-group/cross-group steal split the
/// pool observed during the run).
pub fn multiply(
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    cfg: &StrassenConfig,
    pool: Option<&ThreadPool>,
    events: Option<&EventSet>,
) -> DimResult<Matrix> {
    let _span = span_args(
        Category::Strassen,
        "strassen",
        a.rows() as u32,
        cfg.task_depth,
    );
    multiply_with(a, b, cfg, &UNTIED, pool, events)
}

/// `A · B` by the Strassen recursion under `sched`: validates `cfg` and
/// the operands (errors name `sched.category`), pads to a `base · 2^k`
/// dimension when necessary, walks the recursion and attributes the
/// pool's steals during the walk to `events`.
pub fn multiply_with(
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    cfg: &StrassenConfig,
    sched: &Schedule,
    pool: Option<&ThreadPool>,
    events: Option<&EventSet>,
) -> DimResult<Matrix> {
    let op = sched.category.as_str();
    cfg.validate()
        .map_err(|reason| DimError::InvalidConfig { op, reason })?;
    if !a.is_square() || !b.is_square() || a.shape() != b.shape() {
        return Err(DimError::Mismatch {
            op,
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Matrix::zeros(0, 0));
    }
    let walker = Walker {
        cfg,
        sched,
        pool,
        events,
    };
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
    Ok(result)
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
struct Walker<'a> {
    cfg: &'a StrassenConfig,
    sched: &'a Schedule,
    pool: Option<&'a ThreadPool>,
    events: Option<&'a EventSet>,
}

impl Walker<'_> {
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
            self.leaf(View(a), View(b), c);
            return;
        }
        record_level(self.events);
        let parallel = self.pool.is_some() && depth < self.cfg.task_depth;
        let [spawned, inline] = self.sched.spans;
        let name = if parallel { spawned } else { inline };
        let _span = span_args(self.sched.category, name, depth, n as u32);
        if parallel {
            self.classic_par(a, b, c, depth);
        } else {
            self.classic_seq(a, b, c, depth);
        }
    }

    /// The dense cutover: the fused leaf, work-shared by row bands over
    /// the pool. Band boundaries leave every element's k-accumulation
    /// order unchanged, so a shared leaf computes a sequential leaf's bits
    /// and events.
    fn leaf(&self, a: Operand<'_>, b: Operand<'_>, c: &mut MatrixViewMut<'_>) {
        leaf_gemm_fused_with(
            self.cfg.dispatch,
            a,
            b,
            c,
            Accum::Set,
            self.pool,
            self.events,
        )
        .expect("leaf shapes valid by construction");
    }

    /// Spawns product `index` of a parallel node at `depth`, seeded onto
    /// the worker the schedule pins it to, if any.
    fn spawn<'env, F>(&self, s: &Scope<'_, 'env>, depth: u32, index: usize, f: F)
    where
        F: FnOnce(&Scope<'_, 'env>) + Send + 'env,
    {
        match self.sched.seed.filter(|_| depth == 0) {
            Some(workers) => s.spawn_in(workers[index], f),
            None => s.spawn(f),
        }
    }

    /// One Strassen sub-product: `dst = A · B` with unevaluated operand
    /// sums. Leaf children fuse the sums into the packing pass; internal
    /// children materialise each sum once and recurse, keeping the
    /// per-node elementwise pass count identical on both paths.
    fn product(&self, a: Operand<'_>, b: Operand<'_>, dst: &mut MatrixViewMut<'_>, depth: u32) {
        let h = dst.rows();
        if is_leaf(h, self.cfg.cutoff) {
            self.leaf(a, b, dst);
            return;
        }
        let am = resolve_operand(a, h, self.pool, self.events);
        let bm = resolve_operand(b, h, self.pool, self.events);
        self.rec(am.view(), bm.view(), dst, depth);
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
        let d = depth + 1;

        // M2 = (A21 + A22) B11          -> C21
        self.product(Add(a21, a22), View(b11), &mut c21, d);
        // M3 = A11 (B12 - B22)          -> C12
        self.product(View(a11), Sub(b12, b22), &mut c12, d);
        // M6 = (A21 - A11)(B11 + B12)   -> C22
        self.product(Sub(a21, a11), Add(b11, b12), &mut c22, d);
        // M7 = (A12 - A22)(B21 + B22)   -> C11
        self.product(Sub(a12, a22), Add(b21, b22), &mut c11, d);

        let mut p = arena::matrix_uninit(h, h);
        // M1 = (A11 + A22)(B11 + B22)
        self.product(Add(a11, a22), Add(b11, b22), &mut p.view_mut(), d);
        add_pass(&mut c11, &p.view(), pool, events);
        add_pass(&mut c22, &p.view(), pool, events);
        // C22 = M6 + M1 - M2 + M3, taking M2/M3 from C21/C12 while they still
        // hold exactly those products.
        sub_pass(&mut c22, &c21.as_view(), pool, events);
        add_pass(&mut c22, &c12.as_view(), pool, events);
        // M4 = A22 (B21 - B11)
        self.product(View(a22), Sub(b21, b11), &mut p.view_mut(), d);
        add_pass(&mut c11, &p.view(), pool, events);
        add_pass(&mut c21, &p.view(), pool, events);
        // M5 = (A11 + A12) B22
        self.product(Add(a11, a12), View(b22), &mut p.view_mut(), d);
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
        let d = depth + 1;

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
                    self.product(Add(a21, a22), View(b11), rc21, d);
                });
                self.spawn(s, depth, 1, move |_| {
                    self.product(View(a11), Sub(b12, b22), rc12, d);
                });
                self.spawn(s, depth, 2, move |_| {
                    self.product(Sub(a21, a11), Add(b11, b12), rc22, d);
                });
                self.spawn(s, depth, 3, move |_| {
                    self.product(Sub(a12, a22), Add(b21, b22), rc11, d);
                });
                self.spawn(s, depth, 4, move |_| {
                    self.product(Add(a11, a22), Add(b11, b22), &mut r1.view_mut(), d);
                });
                self.spawn(s, depth, 5, move |_| {
                    self.product(View(a22), Sub(b21, b11), &mut r4.view_mut(), d);
                });
                self.spawn(s, depth, 6, move |_| {
                    self.product(Add(a11, a12), View(b22), &mut r5.view_mut(), d);
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
        assert!(err < 1e-11, "n={n}: err {err}");
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
    fn non_power_of_two_padded() {
        let cfg = StrassenConfig {
            cutoff: 8,
            ..Default::default()
        };
        for n in [12, 17, 31, 100] {
            check(n, &cfg, None, n as u64);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let cfg = StrassenConfig {
            cutoff: 16,
            ..Default::default()
        };
        let mut gen = MatrixGen::new(99);
        let a = gen.paper_operand(128);
        let b = gen.paper_operand(128);
        let seq = multiply(&a.view(), &b.view(), &cfg, None, None).unwrap();
        let pool = ThreadPool::new(4);
        let par = multiply(&a.view(), &b.view(), &cfg, Some(&pool), None).unwrap();
        // Identical per-quadrant update order in both schedules: results
        // are bitwise equal.
        assert_eq!(seq, par);
    }

    #[test]
    fn pooled_single_leaf_is_shared_by_row_bands() {
        // n = cutoff is one leaf and no recursion node; on a pool it runs
        // as row-band tasks and still computes the sequential leaf's bits.
        let cfg = StrassenConfig::paper();
        let n = cfg.cutoff;
        let mut gen = MatrixGen::new(21);
        let a = gen.paper_operand(n);
        let b = gen.paper_operand(n);
        let seq = multiply(&a.view(), &b.view(), &cfg, None, None).unwrap();
        let pool = ThreadPool::new(2);
        let before = pool.stats().total_executed();
        let par = multiply(&a.view(), &b.view(), &cfg, Some(&pool), None).unwrap();
        let executed = pool.stats().total_executed() - before;
        assert!(executed >= 2, "{executed} pool tasks ran the leaf");
        assert_eq!(seq, par);
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
        // In-place form: 18 elementwise passes per node (10 fused
        // operand passes + 8 combines), matching `adds_per_level()`.
        let expected_adds = 18 * 32 * 32 + 7 * 18 * 16 * 16;
        assert_eq!(p.get(Event::FpAdds), expected_adds as u64);
        // No tasks spawned without a pool.
        assert_eq!(p.get(Event::TasksSpawned), 0);
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
