//! Numerical stability of the fast algorithms.
//!
//! The paper (§IV-B): "Strassen has also been known to produce differences
//! in the numerical stability as compared with traditional techniques. A
//! number of works have refuted the stability of Strassen as being
//! problematic. However, these issues have been well understood
//! [Higham]." This suite quantifies that: Strassen-family errors are
//! larger than the blocked kernel's and grow with depth, but stay within
//! Higham's normwise bounds — "understood", not "problematic".

use powerscale::caps::CapsConfig;
use powerscale::gemm::naive::naive_mm;
use powerscale::matrix::norms;
use powerscale::matrix::MatrixGen;
use powerscale::strassen::StrassenConfig;

/// Normwise relative error against the naive oracle of Strassen at
/// `cutoff`, or of the blocked kernel for `None`.
fn error_of(n: usize, cutoff: Option<usize>, seed: u64) -> f64 {
    let mut gen = MatrixGen::new(seed);
    let a = gen.paper_operand(n);
    let b = gen.paper_operand(n);
    let oracle = naive_mm(&a.view(), &b.view()).unwrap();
    let got = match cutoff {
        None => powerscale::gemm::multiply(&a.view(), &b.view()).unwrap(),
        Some(cutoff) => powerscale::strassen::multiply(
            &a.view(),
            &b.view(),
            &StrassenConfig {
                cutoff,
                ..Default::default()
            },
            None,
            None,
        )
        .unwrap(),
    };
    norms::rel_frobenius_error(&got.view(), &oracle.view())
}

#[test]
fn blocked_error_is_at_roundoff_scale() {
    for n in [64usize, 128, 256] {
        let e = error_of(n, None, n as u64);
        assert!(e < 1e-13, "blocked n={n}: {e}");
    }
}

#[test]
fn strassen_error_grows_with_recursion_depth() {
    // Same size, deeper recursion (smaller cutoff) = more Strassen levels
    // = larger error constant (Higham's n^log2(12) factor).
    let shallow = error_of(256, Some(128), 7);
    let deep = error_of(256, Some(8), 7);
    assert!(
        deep > shallow,
        "deeper recursion should lose more digits: shallow {shallow}, deep {deep}"
    );
}

#[test]
fn strassen_error_bounded_and_acceptable() {
    // "Understood, not problematic": even at an aggressive cutoff the
    // error stays far below anything that would matter at f64 working
    // precision for these operand magnitudes.
    for n in [64usize, 128, 256] {
        let e = error_of(n, Some(8), n as u64 + 1);
        assert!(e < 1e-10, "strassen n={n}: {e}");
        assert!(e > 0.0, "identical to oracle is suspicious at n={n}");
    }
}

#[test]
fn caps_error_equals_strassen_error() {
    // CAPS reorders the schedule, not the arithmetic: identical products,
    // identical rounding.
    let mut gen = MatrixGen::new(13);
    let a = gen.paper_operand(128);
    let b = gen.paper_operand(128);
    let strassen = powerscale::strassen::multiply(
        &a.view(),
        &b.view(),
        &StrassenConfig {
            cutoff: 16,
            ..Default::default()
        },
        None,
        None,
    )
    .unwrap();
    let caps = powerscale::caps::multiply(
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
    assert_eq!(strassen, caps);
}

#[test]
fn diagonally_dominant_operands_behave_well() {
    // Well-conditioned inputs: fast algorithms lose almost nothing.
    let mut gen = MatrixGen::new(21);
    let a = gen.diag_dominant(128);
    let b = gen.diag_dominant(128);
    let oracle = naive_mm(&a.view(), &b.view()).unwrap();
    let s = powerscale::strassen::multiply(
        &a.view(),
        &b.view(),
        &StrassenConfig {
            cutoff: 16,
            ..Default::default()
        },
        None,
        None,
    )
    .unwrap();
    let e = norms::rel_frobenius_error(&s.view(), &oracle.view());
    assert!(e < 1e-12, "diag-dominant error {e}");
}
