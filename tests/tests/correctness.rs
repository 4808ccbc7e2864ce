//! Cross-crate correctness: every multiplication path agrees with the
//! naive oracle, sequentially and in parallel, including property tests
//! over random shapes.

use powerscale::caps::CapsConfig;
use powerscale::gemm::naive::naive_mm;
use powerscale::matrix::norms::rel_frobenius_error;
use powerscale::matrix::{Matrix, MatrixGen};
use powerscale::pool::ThreadPool;
use powerscale::strassen::StrassenConfig;
use proptest::prelude::*;

const TOL: f64 = 1e-10;

fn operands(n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut gen = MatrixGen::new(seed);
    (gen.paper_operand(n), gen.paper_operand(n))
}

#[test]
fn all_algorithms_agree_across_sizes() {
    let pool = ThreadPool::new(3);
    for n in [1usize, 2, 7, 16, 33, 64, 96, 128, 200] {
        let (a, b) = operands(n, n as u64);
        let oracle = naive_mm(&a.view(), &b.view()).unwrap();
        let blocked = powerscale::gemm::multiply(&a.view(), &b.view()).unwrap();
        let strassen = powerscale::strassen::multiply(
            &a.view(),
            &b.view(),
            &StrassenConfig {
                cutoff: 16,
                ..Default::default()
            },
            Some(&pool),
            None,
        )
        .unwrap();
        let caps = powerscale::caps::multiply(
            &a.view(),
            &b.view(),
            &CapsConfig {
                cutoff: 16,
                cutoff_depth: 2,
                ..Default::default()
            },
            Some(&pool),
            None,
        )
        .unwrap();
        for (name, m) in [
            ("blocked", &blocked),
            ("strassen", &strassen),
            ("caps", &caps),
        ] {
            let err = rel_frobenius_error(&m.view(), &oracle.view());
            assert!(err < TOL, "{name} n={n}: err {err}");
        }
    }
}

#[test]
fn strassen_inline_below_task_depth_agrees_too() {
    // A pooled run that spawns two levels and walks the rest inline.
    let pool = ThreadPool::new(2);
    for n in [48usize, 100, 128] {
        let (a, b) = operands(n, 1000 + n as u64);
        let oracle = naive_mm(&a.view(), &b.view()).unwrap();
        let w = powerscale::strassen::multiply(
            &a.view(),
            &b.view(),
            &StrassenConfig {
                cutoff: 16,
                task_depth: 2,
                ..Default::default()
            },
            Some(&pool),
            None,
        )
        .unwrap();
        assert!(
            rel_frobenius_error(&w.view(), &oracle.view()) < TOL,
            "n={n}"
        );
    }
}

#[test]
fn identity_fixed_points() {
    // I·A == A·I == A for every path.
    let n = 64;
    let (a, _) = operands(n, 9);
    let i = Matrix::identity(n);
    let cfg = StrassenConfig {
        cutoff: 16,
        ..Default::default()
    };
    let left = powerscale::strassen::multiply(&i.view(), &a.view(), &cfg, None, None).unwrap();
    let right = powerscale::caps::multiply(
        &a.view(),
        &i.view(),
        &CapsConfig {
            cutoff: 16,
            ..Default::default()
        },
        None,
        None,
    )
    .unwrap();
    assert!(left.approx_eq(&a, 1e-12));
    assert!(right.approx_eq(&a, 1e-12));
}

#[test]
fn thread_count_never_changes_bits() {
    let (a, b) = operands(160, 77);
    let cfg = StrassenConfig {
        cutoff: 32,
        ..Default::default()
    };
    let ccfg = CapsConfig {
        cutoff: 32,
        ..Default::default()
    };
    let s1 = powerscale::strassen::multiply(&a.view(), &b.view(), &cfg, None, None).unwrap();
    let c1 = powerscale::caps::multiply(&a.view(), &b.view(), &ccfg, None, None).unwrap();
    for workers in [1usize, 2, 4, 7] {
        let pool = ThreadPool::new(workers);
        let s =
            powerscale::strassen::multiply(&a.view(), &b.view(), &cfg, Some(&pool), None).unwrap();
        let c = powerscale::caps::multiply(&a.view(), &b.view(), &ccfg, Some(&pool), None).unwrap();
        assert_eq!(s, s1, "strassen changed bits at {workers} workers");
        assert_eq!(c, c1, "caps changed bits at {workers} workers");
        // One walker under two schedules (seven workers install CAPS's
        // groups): CAPS is bitwise the sequential Strassen product.
        assert_eq!(c, s1, "caps left strassen's bits at {workers} workers");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn strassen_matches_naive_random_sizes(n in 1usize..80, seed in any::<u64>()) {
        let (a, b) = operands(n, seed);
        let oracle = naive_mm(&a.view(), &b.view()).unwrap();
        let cfg = StrassenConfig { cutoff: 8, ..Default::default() };
        let s = powerscale::strassen::multiply(&a.view(), &b.view(), &cfg, None, None).unwrap();
        prop_assert!(rel_frobenius_error(&s.view(), &oracle.view()) < TOL);
    }

    #[test]
    fn caps_matches_naive_random_sizes(n in 1usize..80, seed in any::<u64>()) {
        let (a, b) = operands(n, seed);
        let oracle = naive_mm(&a.view(), &b.view()).unwrap();
        let cfg = CapsConfig { cutoff: 8, cutoff_depth: 2, ..Default::default() };
        let c = powerscale::caps::multiply(&a.view(), &b.view(), &cfg, None, None).unwrap();
        prop_assert!(rel_frobenius_error(&c.view(), &oracle.view()) < TOL);
    }

    #[test]
    fn blocked_matches_naive_random_rect(
        m in 1usize..60, k in 1usize..60, n in 1usize..60, seed in any::<u64>()
    ) {
        let mut gen = MatrixGen::new(seed);
        let a = gen.uniform(m, k, -1.0, 1.0);
        let b = gen.uniform(k, n, -1.0, 1.0);
        let oracle = naive_mm(&a.view(), &b.view()).unwrap();
        let c = powerscale::gemm::multiply(&a.view(), &b.view()).unwrap();
        prop_assert!(rel_frobenius_error(&c.view(), &oracle.view()) < 1e-12);
    }

    #[test]
    fn distributivity_within_tolerance(n in 2usize..40, seed in any::<u64>()) {
        // (A + B)·C == A·C + B·C across different algorithm paths.
        let mut gen = MatrixGen::new(seed);
        let a = gen.paper_operand(n);
        let b = gen.paper_operand(n);
        let c = gen.paper_operand(n);
        let sum = powerscale::matrix::ops::add(&a.view(), &b.view()).unwrap();
        let cfg = StrassenConfig { cutoff: 8, ..Default::default() };
        let lhs = powerscale::strassen::multiply(&sum.view(), &c.view(), &cfg, None, None).unwrap();
        let ac = powerscale::gemm::multiply(&a.view(), &c.view()).unwrap();
        let bc = powerscale::gemm::multiply(&b.view(), &c.view()).unwrap();
        let rhs = powerscale::matrix::ops::add(&ac.view(), &bc.view()).unwrap();
        prop_assert!(rel_frobenius_error(&lhs.view(), &rhs.view()) < 1e-9);
    }
}
