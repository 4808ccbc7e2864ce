//! The CAPS executor: Strassen's recursion under the BFS/DFS schedule.
//!
//! [`multiply`] opens the CAPS span, installs the group layout, and hands
//! the multiply to the one Strassen walker
//! ([`powerscale_strassen::multiply_with`]), which validates it: BFS task
//! spawning above the cutoff depth, DFS work-sharing below it. The walker's
//! in-place Classic combine schedule — 18 elementwise passes per node,
//! quadrant sums fused into the leaf packing pass, every pooled leaf
//! shared by row bands, one half-size scratch matrix on the DFS path — is
//! Strassen's, so a CAPS run is bitwise identical to a Strassen run with
//! the same cutoff.
//!
//! The BFS phase is **group-affine**: with seven or more pool workers,
//! [`multiply`] partitions the pool into seven strict worker groups (one
//! per root sub-product) and pins each root BFS task to its group's first
//! worker. Descendant tasks go to their spawner's own deque and strict
//! stealing keeps them inside the group, so the only task migrations are
//! intra-group — the executor's realisation of the paper's claim that BFS
//! steps place operands once and communicate no further. The pool's
//! in-/cross-group steal split is attributed to the run's event set for
//! the Eq. 8 communication model.

use crate::config::CapsConfig;
use powerscale_counters::EventSet;
use powerscale_matrix::{DimResult, Matrix, MatrixView};
use powerscale_pool::ThreadPool;
use powerscale_strassen::Schedule;
use powerscale_trace::{span_args, Category};

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
    let n = a.rows();
    let _span = span_args(Category::Caps, "caps", n as u32, cfg.cutoff_depth);

    // Group-affine plan: when a BFS phase lies ahead and the pool is wide
    // enough, dedicate one strict worker group to each of the seven root
    // sub-products and seed each root task onto its group's first worker.
    // The guard restores free-for-all stealing when the multiply returns.
    let mut seed = None;
    let _groups = match pool {
        Some(p) if cfg.cutoff_depth > 0 && n > cfg.cutoff && p.num_threads() >= 7 => {
            let (threads, per) = (p.num_threads(), p.num_threads() / 7);
            // The last group absorbs the remainder workers.
            let ranges: Vec<std::ops::Range<usize>> = (0..7)
                .map(|g| g * per..if g == 6 { threads } else { (g + 1) * per })
                .collect();
            let guard = p.try_install_groups(&ranges, true);
            if guard.is_some() {
                seed = Some(std::array::from_fn(|g| g * per));
            }
            guard
        }
        _ => None,
    };
    let sched = Schedule {
        seed,
        category: Category::Caps,
        spans: ["bfs", "dfs"],
    };
    powerscale_strassen::multiply_with(a, b, &cfg.as_strassen(), &sched, pool, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerscale_counters::{Event, EventSet};
    use powerscale_gemm::naive::naive_mm;
    use powerscale_matrix::norms::rel_frobenius_error;
    use powerscale_matrix::{DimError, MatrixGen};

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
        // products, bitwise, and identical work accounting.
        let mut gen = MatrixGen::new(7);
        let a = gen.paper_operand(128);
        let b = gen.paper_operand(128);
        let run = |caps: bool| {
            let mut set = EventSet::with_all_events();
            set.start().unwrap();
            let c = if caps {
                let cfg = CapsConfig {
                    cutoff: 16,
                    ..Default::default()
                };
                multiply(&a.view(), &b.view(), &cfg, None, Some(&set))
            } else {
                let cfg = powerscale_strassen::StrassenConfig {
                    cutoff: 16,
                    ..Default::default()
                };
                powerscale_strassen::multiply(&a.view(), &b.view(), &cfg, None, Some(&set))
            };
            (c.unwrap(), set.stop().unwrap())
        };
        let (caps, caps_events) = run(true);
        let (strassen, strassen_events) = run(false);
        assert_eq!(caps, strassen);
        for event in [
            Event::FpAdds,
            Event::FpOps,
            Event::KernelCalls,
            Event::RecursionLevels,
            Event::BytesRead,
            Event::BytesWritten,
        ] {
            assert_eq!(
                caps_events.get(event),
                strassen_events.get(event),
                "{event:?}"
            );
        }
    }

    #[test]
    fn pooled_caps_counts_what_sequential_caps_counts() {
        // A pooled shared leaf is one leaf: one kernel call, one pass per
        // fused operand, B packed and read once — whatever the pool width
        // or the schedule. CAPS all-DFS (cutoff depth 0), CAPS with
        // BFS-then-shared leaves (depth 4) and Strassen alike.
        let mut gen = MatrixGen::new(8);
        let a = gen.paper_operand(128);
        let b = gen.paper_operand(128);
        let pool = ThreadPool::new(2);
        let strassen = powerscale_strassen::StrassenConfig {
            cutoff: 16,
            ..Default::default()
        };
        for (label, caps_depth) in [
            ("caps depth 0", Some(0)),
            ("caps depth 4", Some(4)),
            ("strassen", None),
        ] {
            let run = |pool: Option<&ThreadPool>| {
                let mut set = EventSet::with_all_events();
                set.start().unwrap();
                let c = match caps_depth {
                    Some(cutoff_depth) => {
                        let cfg = CapsConfig {
                            cutoff: 16,
                            cutoff_depth,
                            ..Default::default()
                        };
                        multiply(&a.view(), &b.view(), &cfg, pool, Some(&set))
                    }
                    None => powerscale_strassen::multiply(
                        &a.view(),
                        &b.view(),
                        &strassen,
                        pool,
                        Some(&set),
                    ),
                };
                (c.unwrap(), set.stop().unwrap())
            };
            let ((seq, seq_events), (par, par_events)) = (run(None), run(Some(&pool)));
            assert_eq!(seq, par, "{label}");
            for event in [
                Event::FpOps,
                Event::FpAdds,
                Event::KernelCalls,
                Event::BytesRead,
                Event::BytesWritten,
                Event::PackBytes,
            ] {
                assert_eq!(
                    par_events.get(event),
                    seq_events.get(event),
                    "{event:?} for {label}"
                );
            }
        }
    }

    #[test]
    #[ignore = "release-tier size (n = 2 x executed cutoff); run in the release-oracle CI job"]
    fn executed_default_caps_equals_strassen_at_one_step() {
        // The executed cutoffs agree, so one recursion step above the leaf
        // is the same arithmetic under either schedule and pool width.
        let (cfg, scfg) = (
            CapsConfig::default(),
            powerscale_strassen::StrassenConfig::default(),
        );
        assert_eq!(cfg.cutoff, scfg.cutoff);
        let n = 2 * cfg.cutoff;
        let mut gen = MatrixGen::new(17);
        let a = gen.paper_operand(n);
        let b = gen.paper_operand(n);
        for workers in [1, 2] {
            let pool = ThreadPool::new(workers);
            let caps = multiply(&a.view(), &b.view(), &cfg, Some(&pool), None).unwrap();
            let strassen =
                powerscale_strassen::multiply(&a.view(), &b.view(), &scfg, Some(&pool), None)
                    .unwrap();
            assert_eq!(caps, strassen, "n={n} on {workers} workers");
        }
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
    fn grouped_parallel_matches_sequential_bitwise() {
        // The group-affine BFS schedule changes only task placement, not
        // arithmetic.
        let cfg = CapsConfig {
            cutoff: 16,
            cutoff_depth: 8,
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
            cutoff: 1,
            ..Default::default()
        };
        match multiply(&a.view(), &a.view(), &cfg, None, None) {
            Err(DimError::InvalidConfig { op, reason }) => {
                assert_eq!(op, "caps");
                assert!(reason.contains("cutoff"), "reason: {reason}");
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
