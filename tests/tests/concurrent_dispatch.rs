//! Kernel selection is an explicit value, not process state: threads that
//! multiply the same operands under *different* dispatches at the same
//! instant — sharing one pool, so its workers interleave leaves of every
//! tier — must each get exactly the bits they get alone.

use powerscale::caps::CapsConfig;
use powerscale::gemm::{
    dgemm, scalar_kernel_for, simd_kernel_for, Dispatch, DtypeTier, GemmContext,
};
use powerscale::matrix::{Matrix, MatrixGen};
use powerscale::pool::ThreadPool;
use powerscale::strassen::StrassenConfig;
use std::sync::Barrier;

const N: usize = 96;
const ROUNDS: usize = 4;

/// {f64, f32, mixed} × {scalar, simd}.
fn dispatches() -> Vec<Dispatch> {
    let mut out = Vec::new();
    for dtype in DtypeTier::ALL {
        let scalar = scalar_kernel_for(dtype);
        for kernel in [scalar, simd_kernel_for(dtype).unwrap_or(scalar)] {
            out.push(Dispatch::default().with_kernel(kernel));
        }
    }
    out
}

/// Runs `mul` under every dispatch serially, then `ROUNDS` times with one
/// thread per dispatch released together by a barrier.
fn assert_concurrent_matches_serial(
    label: &str,
    mul: impl Fn(Dispatch, &Matrix, &Matrix, &ThreadPool) -> Matrix + Sync,
) {
    let mut gen = MatrixGen::new(0xD15);
    let (a, b) = (gen.paper_operand(N), gen.paper_operand(N));
    let pool = ThreadPool::new(4);
    let dispatches = dispatches();
    let serial: Vec<Matrix> = dispatches.iter().map(|&d| mul(d, &a, &b, &pool)).collect();
    // The cells are not all the same multiply: tiers round differently.
    assert_ne!(serial[0], serial[2], "{label}: f32 computed the f64 bits");
    for round in 0..ROUNDS {
        let start = Barrier::new(dispatches.len());
        let concurrent: Vec<Matrix> = std::thread::scope(|scope| {
            let handles: Vec<_> = dispatches
                .iter()
                .map(|&d| {
                    let (a, b, pool, start, mul) = (&a, &b, &pool, &start, &mul);
                    scope.spawn(move || {
                        start.wait();
                        mul(d, a, b, pool)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ((d, got), want) in dispatches.iter().zip(&concurrent).zip(&serial) {
            assert_eq!(got, want, "{label}: {d:?} drifted in round {round}");
        }
    }
}

#[test]
fn blocked_dispatches_run_concurrently_bitwise() {
    assert_concurrent_matches_serial("blocked", |dispatch, a, b, pool| {
        let mut c = Matrix::zeros(N, N);
        let ctx = GemmContext::new(dispatch, Some(pool), None);
        dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &ctx).unwrap();
        c
    });
}

#[test]
fn strassen_dispatches_run_concurrently_bitwise() {
    assert_concurrent_matches_serial("strassen", |dispatch, a, b, pool| {
        let cfg = StrassenConfig {
            cutoff: 24,
            dispatch,
            ..StrassenConfig::default()
        };
        powerscale::strassen::multiply(&a.view(), &b.view(), &cfg, Some(pool), None).unwrap()
    });
}

#[test]
fn caps_dispatches_run_concurrently_bitwise() {
    assert_concurrent_matches_serial("caps", |dispatch, a, b, pool| {
        let cfg = CapsConfig {
            cutoff: 24,
            cutoff_depth: 1,
            dispatch,
        };
        powerscale::caps::multiply(&a.view(), &b.view(), &cfg, Some(pool), None).unwrap()
    });
}
