//! The recursive executor (real computation path).
//!
//! The recursion works in **Set semantics** (`dst = A · B`): each internal
//! node runs the seven products of [`crate::arith`]'s table, then replays
//! its combine sequence. Two things keep it scratch-light:
//!
//! * [`leaf_gemm_fused_with`] packs quadrant sums like `A21 + A22` directly
//!   into the leaf's panel buffers ([`Operand::Add`] / [`Operand::Sub`]),
//!   so leaves never materialise operand sums. The walker hands it the
//!   pool, so every pooled leaf is work-shared by row bands;
//! * four products are Set straight into their home quadrants. The other
//!   three cycle through one half-size scratch matrix when the node runs
//!   inline, or get one each when it spawns, so that the seven spawned
//!   products have disjoint destinations.
//!
//! Both paths replay the one combine sequence, so they compute the same
//! bits. Quadrant passes go through the row-band-parallel `ops::par_sum_*`
//! pair, which is bitwise transparent.
//!
//! This is the one Strassen recursion in the workspace. It takes a
//! [`Schedule`] value: [`multiply`] runs it under the BOTS schedule, and
//! CAPS runs it under its BFS/DFS schedule through [`multiply_with`].

use crate::accounting::{
    combine_pass, record_add, record_level, record_spawns, record_steal_delta, steal_snapshot,
};
use crate::arith::{combine, launch, Form, Quad, PRODUCTS};
use crate::config::StrassenConfig;
use crate::cost::is_leaf;
use crate::schedule::Schedule;
use powerscale_counters::EventSet;
use powerscale_gemm::arena::{self, ScratchMatrix};
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

/// The four quadrants of `v`, in [`Quad`] order.
fn quadrants(v: MatrixView<'_>) -> [MatrixView<'_>; 4] {
    let q = v.quadrants().expect("even dimension");
    [q.a11, q.a12, q.a21, q.a22]
}

/// The leaf operand a table operand names over the quadrants `q`.
fn operand<'v>(f: Form<Quad>, q: &[MatrixView<'v>; 4]) -> Operand<'v> {
    match f.map(|x| q[x as usize]) {
        Form::One(x) => View(x),
        Form::Add(x, y) => Add(x, y),
        Form::Sub(x, y) => Sub(x, y),
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
        let spawn = self.pool.filter(|_| depth < self.cfg.task_depth);
        let [spawned, inline] = self.sched.spans;
        let name = if spawn.is_some() { spawned } else { inline };
        let _span = span_args(self.sched.category, name, depth, n as u32);
        self.node(a, b, c, depth, spawn);
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
        let (mut sa, mut sb) = (None, None);
        let (am, bm) = (self.resolve(a, h, &mut sa), self.resolve(b, h, &mut sb));
        self.rec(am, bm, dst, depth);
    }

    /// `op` as a view for a child that recurses instead of going to the
    /// fused leaf: a sum is evaluated once into arena scratch leased into
    /// `slot` (one elementwise pass, the one a leaf charges for fused
    /// packing).
    fn resolve<'v>(
        &self,
        op: Operand<'v>,
        h: usize,
        slot: &'v mut Option<ScratchMatrix>,
    ) -> MatrixView<'v> {
        let (x, y, sub) = match op {
            View(v) => return v,
            Add(x, y) => (x, y, false),
            Sub(x, y) => (x, y, true),
        };
        let t = slot.insert(arena::matrix_uninit(h, h));
        ops::par_sum_into(&x, &y, &mut t.view_mut(), sub, self.pool).expect("quadrant shapes");
        record_add(self.events, h);
        t.view()
    }

    /// One internal node: the seven products of [`PRODUCTS`] in [`launch`]
    /// order, spawned onto `spawn` (the root ones seeded where the schedule
    /// pins them) or run inline, then the [`combine`] sequence. A combine
    /// step reads a product with a home out of its quadrant. Inline, a
    /// product without one runs into the shared scratch just before its
    /// first combine step.
    fn node(
        &self,
        a: MatrixView<'_>,
        b: MatrixView<'_>,
        c: &mut MatrixViewMut<'_>,
        depth: u32,
        spawn: Option<&ThreadPool>,
    ) {
        let h = a.rows() / 2;
        let (qa, qb) = (quadrants(a), quadrants(b));
        let qc = c.reborrow().quadrants().expect("even dimension");
        let mut qc = [qc.a11, qc.a12, qc.a21, qc.a22];
        let operands = |p: usize| (operand(PRODUCTS[p].a, &qa), operand(PRODUCTS[p].b, &qb));
        let d = depth + 1;
        let mut scratch: [Option<ScratchMatrix>; 7] = Default::default();
        match spawn {
            Some(pl) => {
                scratch = PRODUCTS.map(|p| p.home.is_none().then(|| arena::matrix_uninit(h, h)));
                record_spawns(self.events, PRODUCTS.len() as u64, h);
                let mut homes = qc.each_mut().map(|q| Some(q.reborrow()));
                let mut spares = scratch.each_mut().map(|s| s.as_mut().map(|m| m.view_mut()));
                pl.scope(|s| {
                    for (i, p) in launch().enumerate() {
                        let (x, y) = operands(p);
                        let mut dst = match PRODUCTS[p].home {
                            Some(q) => homes[q as usize].take(),
                            None => spares[p].take(),
                        }
                        .expect("one destination per product");
                        let f = move |_: &Scope<'_, '_>| self.product(x, y, &mut dst, d);
                        match self.sched.seed.filter(|_| depth == 0) {
                            Some(workers) => s.spawn_in(workers[i], f),
                            None => s.spawn(f),
                        }
                    }
                });
            }
            None => {
                for p in launch() {
                    if let Some(q) = PRODUCTS[p].home {
                        let (x, y) = operands(p);
                        self.product(x, y, &mut qc[q as usize], d);
                    }
                }
            }
        }
        for step in combine() {
            let p = step.product;
            let (dst, src) = match PRODUCTS[p].home {
                Some(q) => {
                    let [dst, src] = qc
                        .get_disjoint_mut([step.quad as usize, q as usize])
                        .expect("a product is not added into its home");
                    (dst, src.as_view())
                }
                None => {
                    if scratch[p].is_none() {
                        // Inline: this product takes the one scratch over
                        // from the product before it.
                        let mut m = (scratch.iter_mut().find_map(Option::take))
                            .unwrap_or_else(|| arena::matrix_uninit(h, h));
                        let (x, y) = operands(p);
                        self.product(x, y, &mut m.view_mut(), d);
                        scratch[p] = Some(m);
                    }
                    let held = scratch[p].as_ref().expect("product computed");
                    (&mut qc[step.quad as usize], held.view())
                }
            };
            combine_pass(dst, &src, step.sub, self.pool, self.events);
        }
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
