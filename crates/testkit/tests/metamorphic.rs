//! Metamorphic identities against each production multiply: transpose,
//! exact power-of-two scaling, row permutation, distributivity.
//!
//! These need no oracle and therefore cross-check the differential
//! engine itself: an oracle bug would pass `differential.rs` and fail
//! here.

use powerscale_caps::CapsConfig;
use powerscale_gemm::GemmContext;
use powerscale_matrix::{Matrix, MatrixView};
use powerscale_pool::ThreadPool;
use powerscale_strassen::StrassenConfig;
use powerscale_testkit::check_identities;

const N: usize = 96;

fn assert_identities(label: &str, mul: &dyn Fn(&MatrixView<'_>, &MatrixView<'_>) -> Matrix) {
    let report = check_identities(mul, N, 0x4E7A);
    assert!(
        report.scaling_exact,
        "{label}: (2A)·B diverged bitwise from 2·(A·B): {report:?}"
    );
    // Identities compare two finite-precision runs, so the bound is the
    // differential tolerance doubled.
    assert!(
        report.worst_err() < 2e-12,
        "{label}: identity error too large: {report:?}"
    );
}

#[test]
fn blocked_gemm_satisfies_the_identities() {
    let pool = ThreadPool::new(4);
    assert_identities("blocked", &|a, b| {
        let ctx = GemmContext {
            pool: Some(&pool),
            ..Default::default()
        };
        let mut c = Matrix::zeros(a.rows(), b.cols());
        powerscale_gemm::dgemm(1.0, a, b, 0.0, &mut c.view_mut(), &ctx).expect("dims");
        c
    });
}

#[test]
fn strassen_satisfies_the_identities() {
    let pool = ThreadPool::new(4);
    let cfg = StrassenConfig {
        cutoff: 16,
        task_depth: 4,
        ..Default::default()
    };
    assert_identities("strassen", &|a, b| {
        powerscale_strassen::multiply(a, b, &cfg, Some(&pool), None).expect("dims")
    });
}

#[test]
fn sequential_strassen_satisfies_the_identities() {
    // No pool: every node takes the walker's one-scratch sequential path.
    let cfg = StrassenConfig {
        cutoff: 16,
        ..Default::default()
    };
    assert_identities("strassen-sequential", &|a, b| {
        powerscale_strassen::multiply(a, b, &cfg, None, None).expect("dims")
    });
}

#[test]
fn caps_satisfies_the_identities() {
    let pool = ThreadPool::new(7);
    let cfg = CapsConfig {
        cutoff: 16,
        cutoff_depth: 2,
        ..Default::default()
    };
    assert_identities("caps", &|a, b| {
        powerscale_caps::multiply(a, b, &cfg, Some(&pool), None).expect("dims")
    });
}
