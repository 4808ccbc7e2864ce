//! Rank threads outlive a run, and so do their `gemm::arena` leases.
//!
//! The distributed executor's leaves lease their packing buffers from the
//! running thread's arena. When ranks ran on threads spawned per run, every
//! run's first leaves on ranks ≥ 1 allocated (and page-faulted) afresh; on
//! the long-lived rank threads of `machine::net` a repeated run finds its
//! buffers already there. The crew belongs to the calling thread, so tests
//! running beside this one on other threads cannot take its rank threads.

use powerscale_gemm::{arena, dgemm, GemmContext};
use powerscale_machine::net::{run_spmd, LinkModel, NetConfig};
use powerscale_matrix::{Matrix, MatrixGen};

/// Pack-buffer misses each rank's program took, for one run in which every
/// rank multiplies `a · b` once.
fn pack_misses_per_rank(cfg: &NetConfig, a: &Matrix, b: &Matrix) -> Vec<u64> {
    let (misses, _) = run_spmd::<Vec<f64>, u64, _>(cfg, |_| {
        let before = arena::stats().pack_misses;
        let mut c = Matrix::zeros(a.rows(), b.cols());
        dgemm(
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            &GemmContext::default(),
        )
        .expect("square operands");
        Ok(arena::stats().pack_misses - before)
    })
    .expect("rank programs succeed");
    misses
}

#[test]
fn second_run_finds_every_rank_arena_warm() {
    let mut gen = MatrixGen::new(42);
    let (a, b) = (
        gen.uniform(96, 96, -1.0, 1.0),
        gen.uniform(96, 96, -1.0, 1.0),
    );
    let mut cfg = NetConfig::uniform(3, LinkModel::new(1e9, 1e-6));
    cfg.recv_timeout_s = 5.0;
    let first = pack_misses_per_rank(&cfg, &a, &b);
    assert!(
        first[1..].iter().all(|&m| m > 0),
        "a rank's first leaves lease fresh buffers: {first:?}"
    );
    let second = pack_misses_per_rank(&cfg, &a, &b);
    assert_eq!(
        second,
        vec![0; 3],
        "a repeated run must reuse every rank's buffers"
    );
}
