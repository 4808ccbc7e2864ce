//! The CAPS executor: BFS task spawning above the cutoff depth, DFS
//! work-sharing below it.
//!
//! The recursion works in **Set semantics** (`dst = A · B`) with the same
//! in-place Classic combine schedule as `powerscale_strassen` — 18
//! elementwise passes per node, quadrant sums fused into the leaf packing
//! pass, and a single half-size scratch matrix on the DFS path — so a
//! sequential CAPS run is bitwise identical to a sequential Strassen run.
//!
//! On top of that, the BFS phase is **group-affine**: with seven or more
//! pool workers, [`multiply`] partitions the pool into seven strict worker
//! groups (one per root sub-product) and pins each root BFS task to its
//! group's first worker. Descendant tasks go to their spawner's own deque
//! and strict stealing keeps them inside the group, so the only task
//! migrations are intra-group — the executor's realisation of the paper's
//! claim that BFS steps place operands once and communicate no further.
//! The pool's in-/cross-group steal split is attributed to the run's event
//! set for the Eq. 8 communication model.

use crate::config::CapsConfig;
use powerscale_counters::EventSet;
use powerscale_gemm::arena;
use powerscale_gemm::leaf::{leaf_gemm_fused_with, Accum, Operand};
use powerscale_matrix::{pad, DimError, DimResult, Matrix, MatrixView, MatrixViewMut};
use powerscale_pool::ThreadPool;
use powerscale_strassen::accounting::{
    add_pass, record_level, record_spawns, record_steal_delta, steal_snapshot, sub_pass,
};
use powerscale_strassen::cost::is_leaf;
use powerscale_strassen::resolve_operand;

/// `A · B` by the CAPS hybrid traversal.
///
/// Semantics mirror [`powerscale_strassen::multiply`]: square equal-shaped
/// operands, zero-padding to a `base · 2^k` dimension when necessary.
pub fn multiply(
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    cfg: &CapsConfig,
    pool: Option<&ThreadPool>,
    events: Option<&EventSet>,
) -> DimResult<Matrix> {
    cfg.validate()
        .map_err(|reason| DimError::InvalidConfig { op: "caps", reason })?;
    if !a.is_square() || !b.is_square() || a.shape() != b.shape() {
        return Err(DimError::Mismatch {
            op: "caps",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Matrix::zeros(0, 0));
    }
    let _span = powerscale_trace::span_args(
        powerscale_trace::Category::Caps,
        "caps",
        n as u32,
        cfg.cutoff_depth,
    );

    // Group-affine plan: when a BFS phase lies ahead and the pool is wide
    // enough, dedicate one strict worker group to each of the seven root
    // sub-products and seed each root task onto its group's first worker.
    // The guard restores free-for-all stealing when the multiply returns.
    let mut seed: Option<[usize; 7]> = None;
    let _groups = match pool {
        Some(p)
            if cfg.group_affine
                && cfg.cutoff_depth > 0
                && n > cfg.cutoff
                && p.num_threads() >= 7 =>
        {
            let per = p.num_threads() / 7;
            let ranges: Vec<std::ops::Range<usize>> = (0..7)
                .map(|g| {
                    let start = g * per;
                    // The last group absorbs the remainder workers.
                    let end = if g == 6 { p.num_threads() } else { start + per };
                    start..end
                })
                .collect();
            let guard = p.try_install_groups(&ranges, true);
            if guard.is_some() {
                let mut ws = [0usize; 7];
                for (g, w) in ws.iter_mut().enumerate() {
                    *w = g * per;
                }
                seed = Some(ws);
            }
            guard
        }
        _ => None,
    };

    let snap = steal_snapshot(pool);
    let target = pad::next_recursive_size(n, cfg.cutoff);
    let result = if target == n {
        let mut c = Matrix::zeros(n, n);
        rec(*a, *b, &mut c.view_mut(), 0, cfg, pool, events, seed);
        c
    } else {
        let pa = pad::pad_to(a, target);
        let pb = pad::pad_to(b, target);
        let mut pc = Matrix::zeros(target, target);
        rec(
            pa.view(),
            pb.view(),
            &mut pc.view_mut(),
            0,
            cfg,
            pool,
            events,
            seed,
        );
        pad::crop(&pc.view(), n, n)
    };
    record_steal_delta(events, pool, snap);
    Ok(result)
}

/// Work-shared `dst (accum)= A · B` over row bands: the DFS leaf step,
/// where all workers cooperate on one dense product (OpenMP work-sharing
/// in the paper).
///
/// A fused A operand bands along with its row range
/// ([`Operand::sub_rows`]); band boundaries leave every element's
/// k-accumulation order unchanged, so banded results are bitwise identical
/// to an unsplit leaf. A fused B operand would be repacked in full by
/// every band, so it is evaluated once up front instead (one accounted
/// pass — exactly what an unsplit fused leaf charges) and the bands pack
/// the plain view.
fn shared_leaf(
    a: Operand<'_>,
    b: Operand<'_>,
    c: &mut MatrixViewMut<'_>,
    accum: Accum,
    cfg: &CapsConfig,
    pool: Option<&ThreadPool>,
    events: Option<&EventSet>,
) {
    let (ways, dispatch) = (cfg.dfs_ways, cfg.dispatch);
    let _span = powerscale_trace::span_args(
        powerscale_trace::Category::Caps,
        "shared_leaf",
        ways as u32,
        c.rows() as u32,
    );
    match pool {
        Some(p) if ways > 1 && c.rows() >= 2 * ways => {
            let bm = resolve_operand(b, c.cols(), pool, events);
            let b = Operand::View(bm.view());
            let bands = c.reborrow().split_row_bands(ways);
            let mut row0 = 0usize;
            let mut jobs: Vec<(Operand<'_>, MatrixViewMut<'_>)> = Vec::new();
            for band in bands {
                let rows = band.rows();
                let asub = a.sub_rows(row0, rows).expect("band rows within A");
                jobs.push((asub, band));
                row0 += rows;
            }
            p.scope(|s| {
                for (asub, mut band) in jobs {
                    s.spawn(move |_| {
                        leaf_gemm_fused_with(dispatch, asub, b, &mut band, accum, events)
                            .expect("band shapes valid by construction");
                    });
                }
            });
        }
        _ => {
            leaf_gemm_fused_with(dispatch, a, b, c, accum, events)
                .expect("leaf shapes valid by construction");
        }
    }
}

/// One sub-product `dst = A · B` with unevaluated operand sums: fused into
/// the work-shared leaf at the cutover, materialised once and recursed
/// otherwise.
fn product(
    a: Operand<'_>,
    b: Operand<'_>,
    dst: &mut MatrixViewMut<'_>,
    depth: u32,
    cfg: &CapsConfig,
    pool: Option<&ThreadPool>,
    events: Option<&EventSet>,
) {
    let h = dst.rows();
    if is_leaf(h, cfg.cutoff) {
        shared_leaf(a, b, dst, Accum::Set, cfg, pool, events);
        return;
    }
    let am = resolve_operand(a, h, pool, events);
    let bm = resolve_operand(b, h, pool, events);
    rec(am.view(), bm.view(), dst, depth, cfg, pool, events, None);
}

/// `c = a · b`, hybrid traversal. `c` is fully overwritten. `seed` pins
/// the seven sub-tasks of the *first* BFS node onto specific workers (one
/// per group) and is consumed there.
#[allow(clippy::too_many_arguments)]
fn rec(
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    c: &mut MatrixViewMut<'_>,
    depth: u32,
    cfg: &CapsConfig,
    pool: Option<&ThreadPool>,
    events: Option<&EventSet>,
    seed: Option<[usize; 7]>,
) {
    // Cooperative cancellation poll at every recursion node (the BFS/DFS
    // analogue of the Strassen check): a fired token collapses the task
    // tree, and the cancelling owner discards the partial quadrants.
    if powerscale_pool::cancel_requested() {
        return;
    }
    let n = a.rows();
    if is_leaf(n, cfg.cutoff) {
        // Dense cutover. In DFS mode every worker cooperates on it.
        shared_leaf(
            Operand::View(a),
            Operand::View(b),
            c,
            Accum::Set,
            cfg,
            pool,
            events,
        );
        return;
    }
    record_level(events);
    if depth < cfg.cutoff_depth && pool.is_some() {
        bfs_node(a, b, c, depth, cfg, pool, events, seed);
    } else {
        dfs_node(a, b, c, depth, cfg, pool, events);
    }
}

/// DFS step: the seven sub-products in sequence (each internally
/// work-shared, no data migrates), with the in-place Classic combine
/// schedule — 18 elementwise passes, one half-size scratch matrix.
fn dfs_node(
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    c: &mut MatrixViewMut<'_>,
    depth: u32,
    cfg: &CapsConfig,
    pool: Option<&ThreadPool>,
    events: Option<&EventSet>,
) {
    let h = a.rows() / 2;
    let _span =
        powerscale_trace::span_args(powerscale_trace::Category::Caps, "dfs", depth, h as u32);
    let qa = a.quadrants().expect("even dimension");
    let qb = b.quadrants().expect("even dimension");
    let (a11, a12, a21, a22) = (qa.a11, qa.a12, qa.a21, qa.a22);
    let (b11, b12, b21, b22) = (qb.a11, qb.a12, qb.a21, qb.a22);
    let qc = c.reborrow().quadrants().expect("even dimension");
    let (mut c11, mut c12, mut c21, mut c22) = (qc.a11, qc.a12, qc.a21, qc.a22);
    let d = depth + 1;

    // M2 = (A21 + A22) B11          -> C21
    product(
        Operand::Add(a21, a22),
        Operand::View(b11),
        &mut c21,
        d,
        cfg,
        pool,
        events,
    );
    // M3 = A11 (B12 - B22)          -> C12
    product(
        Operand::View(a11),
        Operand::Sub(b12, b22),
        &mut c12,
        d,
        cfg,
        pool,
        events,
    );
    // M6 = (A21 - A11)(B11 + B12)   -> C22
    product(
        Operand::Sub(a21, a11),
        Operand::Add(b11, b12),
        &mut c22,
        d,
        cfg,
        pool,
        events,
    );
    // M7 = (A12 - A22)(B21 + B22)   -> C11
    product(
        Operand::Sub(a12, a22),
        Operand::Add(b21, b22),
        &mut c11,
        d,
        cfg,
        pool,
        events,
    );

    let mut p = arena::matrix_uninit(h, h);
    // M1 = (A11 + A22)(B11 + B22)
    product(
        Operand::Add(a11, a22),
        Operand::Add(b11, b22),
        &mut p.view_mut(),
        d,
        cfg,
        pool,
        events,
    );
    add_pass(&mut c11, &p.view(), pool, events);
    add_pass(&mut c22, &p.view(), pool, events);
    // C22 = M6 + M1 - M2 + M3, taking M2/M3 from C21/C12 while they still
    // hold exactly those products.
    sub_pass(&mut c22, &c21.as_view(), pool, events);
    add_pass(&mut c22, &c12.as_view(), pool, events);
    // M4 = A22 (B21 - B11)
    product(
        Operand::View(a22),
        Operand::Sub(b21, b11),
        &mut p.view_mut(),
        d,
        cfg,
        pool,
        events,
    );
    add_pass(&mut c11, &p.view(), pool, events);
    add_pass(&mut c21, &p.view(), pool, events);
    // M5 = (A11 + A12) B22
    product(
        Operand::Add(a11, a12),
        Operand::View(b22),
        &mut p.view_mut(),
        d,
        cfg,
        pool,
        events,
    );
    sub_pass(&mut c11, &p.view(), pool, events);
    add_pass(&mut c12, &p.view(), pool, events);
}

/// BFS step: the seven sub-products fan out to disjoint destinations with
/// their own buffers; operands are placed once. Same 18 passes and
/// per-quadrant update order as [`dfs_node`] (bitwise identical). `seed`
/// pins each sub-task onto its worker group's first worker.
#[allow(clippy::too_many_arguments)]
fn bfs_node(
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    c: &mut MatrixViewMut<'_>,
    depth: u32,
    cfg: &CapsConfig,
    pool: Option<&ThreadPool>,
    events: Option<&EventSet>,
    seed: Option<[usize; 7]>,
) {
    let h = a.rows() / 2;
    let _span =
        powerscale_trace::span_args(powerscale_trace::Category::Caps, "bfs", depth, h as u32);
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
    let pl = pool.expect("bfs implies pool");
    record_spawns(events, 7, h);
    {
        let (rc11, rc12, rc21, rc22) = (&mut c11, &mut c12, &mut c21, &mut c22);
        let (r1, r4, r5) = (&mut *p1, &mut *p4, &mut *p5);
        pl.scope(|s| {
            // Pins job `idx` to its seed worker when a group plan is
            // installed; plain spawn otherwise.
            macro_rules! launch {
                ($idx:expr, $f:expr) => {
                    match seed {
                        Some(ws) => s.spawn_in(ws[$idx], $f),
                        None => s.spawn($f),
                    }
                };
            }
            launch!(0, move |_: &_| {
                product(
                    Operand::Add(a21, a22),
                    Operand::View(b11),
                    rc21,
                    d,
                    cfg,
                    pool,
                    events,
                );
            });
            launch!(1, move |_: &_| {
                product(
                    Operand::View(a11),
                    Operand::Sub(b12, b22),
                    rc12,
                    d,
                    cfg,
                    pool,
                    events,
                );
            });
            launch!(2, move |_: &_| {
                product(
                    Operand::Sub(a21, a11),
                    Operand::Add(b11, b12),
                    rc22,
                    d,
                    cfg,
                    pool,
                    events,
                );
            });
            launch!(3, move |_: &_| {
                product(
                    Operand::Sub(a12, a22),
                    Operand::Add(b21, b22),
                    rc11,
                    d,
                    cfg,
                    pool,
                    events,
                );
            });
            launch!(4, move |_: &_| {
                product(
                    Operand::Add(a11, a22),
                    Operand::Add(b11, b22),
                    &mut r1.view_mut(),
                    d,
                    cfg,
                    pool,
                    events,
                );
            });
            launch!(5, move |_: &_| {
                product(
                    Operand::View(a22),
                    Operand::Sub(b21, b11),
                    &mut r4.view_mut(),
                    d,
                    cfg,
                    pool,
                    events,
                );
            });
            launch!(6, move |_: &_| {
                product(
                    Operand::Add(a11, a12),
                    Operand::View(b22),
                    &mut r5.view_mut(),
                    d,
                    cfg,
                    pool,
                    events,
                );
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

#[cfg(test)]
mod tests {
    use super::*;
    use powerscale_counters::{Event, EventSet};
    use powerscale_gemm::naive::naive_mm;
    use powerscale_matrix::norms::rel_frobenius_error;
    use powerscale_matrix::MatrixGen;

    fn check(n: usize, cfg: &CapsConfig, pool: Option<&ThreadPool>, seed: u64) {
        let mut gen = MatrixGen::new(seed);
        let a = gen.paper_operand(n);
        let b = gen.paper_operand(n);
        let c = multiply(&a.view(), &b.view(), cfg, pool, None).unwrap();
        let r = naive_mm(&a.view(), &b.view()).unwrap();
        let err = rel_frobenius_error(&c.view(), &r.view());
        assert!(err < 1e-11, "n={n}: err {err}");
    }

    #[test]
    fn matches_naive_sequential() {
        let cfg = CapsConfig {
            cutoff: 8,
            ..Default::default()
        };
        for n in [8, 16, 32, 64, 100] {
            check(n, &cfg, None, n as u64);
        }
    }

    #[test]
    fn matches_naive_parallel_bfs_and_dfs() {
        // cutoff_depth 1 forces DFS below the first level.
        let cfg = CapsConfig {
            cutoff: 8,
            cutoff_depth: 1,
            dfs_ways: 3,
            ..Default::default()
        };
        let pool = ThreadPool::new(3);
        for n in [32, 64, 128] {
            check(n, &cfg, Some(&pool), n as u64);
        }
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let cfg = CapsConfig {
            cutoff: 16,
            ..Default::default()
        };
        let mut gen = MatrixGen::new(42);
        let a = gen.paper_operand(128);
        let b = gen.paper_operand(128);
        let seq = multiply(&a.view(), &b.view(), &cfg, None, None).unwrap();
        let pool = ThreadPool::new(4);
        let par = multiply(&a.view(), &b.view(), &cfg, Some(&pool), None).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn caps_equals_strassen_results() {
        // Same arithmetic, same in-place combine schedule: identical
        // products, bitwise.
        let mut gen = MatrixGen::new(7);
        let a = gen.paper_operand(64);
        let b = gen.paper_operand(64);
        let caps = multiply(
            &a.view(),
            &b.view(),
            &CapsConfig {
                cutoff: 16,
                ..Default::default()
            },
            None,
            None,
        )
        .unwrap();
        let strassen = powerscale_strassen::multiply(
            &a.view(),
            &b.view(),
            &powerscale_strassen::StrassenConfig {
                cutoff: 16,
                ..Default::default()
            },
            None,
            None,
        )
        .unwrap();
        assert_eq!(caps, strassen);
    }

    #[test]
    fn bfs_records_comm_dfs_does_not() {
        let mut gen = MatrixGen::new(9);
        let a = gen.paper_operand(64);
        let b = gen.paper_operand(64);
        let pool = ThreadPool::new(2);

        // All-BFS: depth bound high.
        let mut set_bfs = EventSet::with_all_events();
        set_bfs.start().unwrap();
        let _ = multiply(
            &a.view(),
            &b.view(),
            &CapsConfig {
                cutoff: 16,
                cutoff_depth: 8,
                dfs_ways: 2,
                ..Default::default()
            },
            Some(&pool),
            Some(&set_bfs),
        )
        .unwrap();
        let p_bfs = set_bfs.stop().unwrap();
        assert!(p_bfs.get(Event::CommBytes) > 0);
        assert!(p_bfs.get(Event::TasksSpawned) >= 7);

        // All-DFS: depth bound zero — no spawn-comm at all.
        let mut set_dfs = EventSet::with_all_events();
        set_dfs.start().unwrap();
        let _ = multiply(
            &a.view(),
            &b.view(),
            &CapsConfig {
                cutoff: 16,
                cutoff_depth: 0,
                dfs_ways: 2,
                ..Default::default()
            },
            Some(&pool),
            Some(&set_dfs),
        )
        .unwrap();
        let p_dfs = set_dfs.stop().unwrap();
        assert_eq!(p_dfs.get(Event::CommBytes), 0);
        assert_eq!(p_dfs.get(Event::TasksSpawned), 0);
    }

    #[test]
    fn pure_bfs_on_grouped_pool_keeps_steals_in_group() {
        let pool = ThreadPool::new(7);
        let mut gen = MatrixGen::new(11);
        let a = gen.paper_operand(128);
        let b = gen.paper_operand(128);
        let cfg = CapsConfig {
            cutoff: 16,
            cutoff_depth: 8,
            dfs_ways: 1,
            ..Default::default()
        };
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        let c = multiply(&a.view(), &b.view(), &cfg, Some(&pool), Some(&set)).unwrap();
        let p = set.stop().unwrap();
        let r = naive_mm(&a.view(), &b.view()).unwrap();
        assert!(rel_frobenius_error(&c.view(), &r.view()) < 1e-11);
        // Strict group-affine plan: every root sub-product is pinned to
        // its own worker group and descendants stay inside it, so no
        // steal crosses a group boundary.
        let stats = pool.stats();
        assert_eq!(stats.steals_cross_group(), 0);
        assert_eq!(p.get(Event::StealsCrossGroup), 0);
        // The event attribution agrees with the pool's own split (the
        // pool is fresh, so lifetime counters equal this run's delta).
        assert_eq!(p.get(Event::StealsInGroup), stats.steals_in_group());
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // &[Range] is the install API
    fn group_affine_off_reverts_to_free_stealing_bitwise_identically() {
        // The ablation arm: same pool, same operands, `group_affine`
        // off. No group layout is installed (the pool stays free to
        // install one mid-run), and the result is bitwise identical to
        // the group-affine run — placement must never touch arithmetic.
        let pool = ThreadPool::new(7);
        let mut gen = MatrixGen::new(11);
        let a = gen.paper_operand(128);
        let b = gen.paper_operand(128);
        let affine_cfg = CapsConfig {
            cutoff: 16,
            cutoff_depth: 8,
            dfs_ways: 1,
            ..Default::default()
        };
        let free_cfg = CapsConfig {
            group_affine: false,
            ..affine_cfg
        };
        let c_affine = multiply(&a.view(), &b.view(), &affine_cfg, Some(&pool), None).unwrap();
        let c_free = multiply(&a.view(), &b.view(), &free_cfg, Some(&pool), None).unwrap();
        assert_eq!(
            c_affine, c_free,
            "group-affinity changed numerics, not just placement"
        );
        // With affinity off the multiply must leave the pool ungrouped:
        // a fresh install succeeds immediately afterwards.
        let g = pool.try_install_groups(&[0..7], false);
        assert!(g.is_some());
    }

    #[test]
    fn grouped_parallel_matches_sequential_bitwise() {
        // The group-affine BFS schedule changes only task placement, not
        // arithmetic.
        let cfg = CapsConfig {
            cutoff: 16,
            cutoff_depth: 8,
            dfs_ways: 1,
            ..Default::default()
        };
        let mut gen = MatrixGen::new(13);
        let a = gen.paper_operand(128);
        let b = gen.paper_operand(128);
        let seq = multiply(&a.view(), &b.view(), &cfg, None, None).unwrap();
        let pool = ThreadPool::new(8);
        let par = multiply(&a.view(), &b.view(), &cfg, Some(&pool), None).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn invalid_config_reports_invalid_config_error() {
        let a = Matrix::zeros(4, 4);
        let cfg = CapsConfig {
            dfs_ways: 0,
            ..Default::default()
        };
        match multiply(&a.view(), &a.view(), &cfg, None, None) {
            Err(DimError::InvalidConfig { op, reason }) => {
                assert_eq!(op, "caps");
                assert!(reason.contains("dfs_ways"), "reason: {reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Matrix::zeros(4, 6);
        let b = Matrix::zeros(6, 4);
        assert!(multiply(&a.view(), &b.view(), &CapsConfig::default(), None, None).is_err());
    }

    #[test]
    fn padding_path() {
        let cfg = CapsConfig {
            cutoff: 8,
            ..Default::default()
        };
        check(31, &cfg, None, 31);
        check(100, &cfg, None, 100);
    }

    use powerscale_matrix::Matrix;
}
