//! Bitwise-equivalence tier for the distributed CAPS executor.
//!
//! Distribution and placement must never touch the floating-point result:
//! at every node count — including the degenerate 1-node cluster and the
//! memory-forced distributed-DFS mode — `dist_caps_multiply` is
//! **bit-identical** to the sequential single-node CAPS executor (and, by
//! the caps crate's own guarantee, to single-node Strassen), and within
//! 1e-12 of the compensated double-double oracle.
//!
//! n = 256 runs in every `cargo test`; n ∈ {512, 1024} and the two-rank
//! check at the executed cutoff are `#[ignore]` and run in the release
//! `cluster-verify` CI job.

use powerscale_caps::comm::caps_comm_words;
use powerscale_caps::CapsConfig;
use powerscale_cluster::dist::{bfs_child_ranges, predict_peak_bytes};
use powerscale_cluster::presets::e3_1225_net;
use powerscale_cluster::{dist_caps_multiply, summa_multiply, DistCapsConfig, Layout};
use powerscale_machine::net::Phase;
use powerscale_matrix::{Matrix, MatrixGen};
use powerscale_testkit::oracle::{max_rel_error, reference_mm};

const NODE_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn operands(n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut gen = MatrixGen::new(seed);
    (gen.paper_operand(n), gen.paper_operand(n))
}

fn single_node_caps(a: &Matrix, b: &Matrix, cfg: &CapsConfig) -> Matrix {
    powerscale_caps::multiply(&a.view(), &b.view(), cfg, None, None).unwrap()
}

fn check_all_node_counts(n: usize, seed: u64) {
    let (a, b) = operands(n, seed);
    let cfg = DistCapsConfig::paper();
    let reference = single_node_caps(&a, &b, &cfg.caps);
    let strassen = powerscale_strassen::multiply(
        &a.view(),
        &b.view(),
        &powerscale_strassen::StrassenConfig::paper(),
        None,
        None,
    )
    .unwrap();
    assert_eq!(
        reference, strassen,
        "n={n}: caps and strassen must agree bitwise (precondition)"
    );
    let oracle = reference_mm(&a.view(), &b.view());
    for p in NODE_COUNTS {
        let out = dist_caps_multiply(&a, &b, &cfg, &e3_1225_net(p)).unwrap();
        assert_eq!(
            out.c, reference,
            "n={n}, P={p}: distributed result differs from single-node CAPS"
        );
        let err = max_rel_error(&out.c.view(), &oracle.view());
        assert!(err <= 1e-12, "n={n}, P={p}: oracle error {err}");
    }
}

#[test]
fn bitwise_equal_across_node_counts_n256() {
    check_all_node_counts(256, 0x256);
}

#[test]
#[ignore = "release-tier size; run in the cluster-verify CI job"]
fn bitwise_equal_across_node_counts_n512() {
    check_all_node_counts(512, 0x512);
}

#[test]
#[ignore = "release-tier size; run in the cluster-verify CI job"]
fn bitwise_equal_across_node_counts_n1024() {
    check_all_node_counts(1024, 0x1024);
}

#[test]
#[ignore = "release-tier size (n = 2 x executed cutoff); run in the cluster-verify CI job"]
fn executed_default_two_ranks_match_single_node_inside_eq8_gate() {
    // The benchmark's dist check: two ranks one step above the executed
    // leaf are bitwise single-node CAPS, and the largest per-rank
    // Algo-phase volume stays within the 4× single-level Eq. 8 gate.
    let cfg = DistCapsConfig::default();
    let executed = powerscale_strassen::StrassenConfig::default().cutoff;
    assert_eq!(cfg.caps.cutoff, executed);
    let n = 2 * cfg.caps.cutoff;
    let (a, b) = operands(n, 0xD15);
    let out = dist_caps_multiply(&a, &b, &cfg, &e3_1225_net(2)).unwrap();
    assert_eq!(out.c, single_node_caps(&a, &b, &cfg.caps));
    let words = out.report.max_recv_bytes(Phase::Algo) / 8;
    let m = (out.report.max_peak_bytes() / 8).max(1);
    let ratio = words as f64 / caps_comm_words(n as f64, 2.0, m as f64);
    assert!(ratio <= 4.0, "n={n}: Eq. 8 ratio {ratio}");
}

#[test]
fn degenerate_one_node_cluster_moves_no_algo_bytes() {
    let (a, b) = operands(128, 1);
    let cfg = DistCapsConfig::paper();
    let out = dist_caps_multiply(&a, &b, &cfg, &e3_1225_net(1)).unwrap();
    assert_eq!(out.c, single_node_caps(&a, &b, &cfg.caps));
    // One rank keeps everything local: the transport must meter zero.
    assert_eq!(out.report.total_bytes(), 0);
    assert_eq!(out.report.total_msgs(), 0);
}

#[test]
fn memory_forced_dfs_is_still_bitwise_equal() {
    let n = 256;
    let (a, b) = operands(n, 2);
    let unlimited = DistCapsConfig::paper();
    // A budget tight enough to force distributed DFS at the top levels but
    // loose enough to hold the node-local leaves.
    let tight = DistCapsConfig {
        mem_limit_bytes: Some(3 * (n as u64 / 2).pow(2) * 8),
        ..DistCapsConfig::paper()
    };
    let reference = single_node_caps(&a, &b, &unlimited.caps);
    for p in [2, 4, 7] {
        let free = dist_caps_multiply(&a, &b, &unlimited, &e3_1225_net(p)).unwrap();
        let forced = dist_caps_multiply(&a, &b, &tight, &e3_1225_net(p)).unwrap();
        assert_eq!(free.c, reference, "P={p}: BFS run diverged");
        assert_eq!(forced.c, reference, "P={p}: DFS-forced run diverged");
        // The memory-forced schedule must actually change the traffic
        // (more redistribution) while leaving the bits alone.
        assert!(
            forced.report.total_bytes() >= free.report.total_bytes(),
            "P={p}: DFS mode should not move fewer bytes"
        );
    }
}

#[test]
fn forced_dfs_step_moves_zero_algo_bytes() {
    // The fractal layout makes a memory-forced DFS step communication-
    // free. With a budget that forces DFS at exactly the top split (one
    // byte under the worst predicted BFS-child residency) and lets
    // everything below run free, each rank's Algo-phase received volume
    // must equal exactly 7× its volume in a free run of the half-size
    // problem: the DFS level itself — operand formation and product
    // combination — contributes zero bytes.
    let n = 256usize;
    let cutoff = DistCapsConfig::paper().caps.cutoff;
    let (a, b) = operands(n, 7);
    let (ah, bh) = operands(n / 2, 7);
    for p in [2usize, 4, 7] {
        let worst_child = bfs_child_ranges(p)
            .iter()
            .map(|&(lo, hi)| predict_peak_bytes(n / 2, hi - lo, cutoff))
            .max()
            .unwrap();
        let tight = DistCapsConfig {
            mem_limit_bytes: Some(worst_child - 1),
            ..DistCapsConfig::paper()
        };
        let net = e3_1225_net(p);
        let forced = dist_caps_multiply(&a, &b, &tight, &net).unwrap();
        assert_eq!(
            forced.c,
            single_node_caps(&a, &b, &tight.caps),
            "P={p}: forced run diverged"
        );
        let free_half = dist_caps_multiply(&ah, &bh, &DistCapsConfig::paper(), &net).unwrap();
        for r in 0..p {
            assert_eq!(
                forced.report.recv_bytes(r, Phase::Algo),
                7 * free_half.report.recv_bytes(r, Phase::Algo),
                "P={p} rank {r}: the forced DFS level moved bytes"
            );
        }
    }
}

#[test]
fn final_meter_matches_liveness() {
    // Every allocation charge but the final C panel's must have been
    // paired with a free by the end of a run: each rank's residual meter
    // equals exactly its C-panel bytes. Swept across a free BFS run, a
    // budget-forced DFS run, and a leaf-hitting deep-DFS run (the last
    // exercises the leader_leaf charge ordering around the scatter-back).
    let n = 256usize;
    let (a, b) = operands(n, 5);
    let cutoff = DistCapsConfig::paper().caps.cutoff;
    let layout = Layout::for_target(n, cutoff);
    for (p, limit_words) in [(7usize, None), (2, Some(3 * 128 * 128)), (7, Some(96 * 96))] {
        let cfg = DistCapsConfig {
            mem_limit_bytes: limit_words.map(|w: u64| w * 8),
            ..DistCapsConfig::paper()
        };
        let out = dist_caps_multiply(&a, &b, &cfg, &e3_1225_net(p)).unwrap();
        for r in 0..p {
            let want = (n * layout.width(n, p, r) * 8) as u64;
            assert_eq!(
                out.report.ranks[r].mem.current_bytes, want,
                "P={p} M={limit_words:?} rank {r}: meter out of step with liveness"
            );
        }
    }
}

#[test]
fn non_pow2_sizes_pad_and_crop_like_single_node() {
    for n in [100, 192, 250] {
        let (a, b) = operands(n, n as u64);
        let cfg = DistCapsConfig::paper();
        let reference = single_node_caps(&a, &b, &cfg.caps);
        for p in [2, 7] {
            let out = dist_caps_multiply(&a, &b, &cfg, &e3_1225_net(p)).unwrap();
            assert_eq!(out.c, reference, "n={n}, P={p}");
        }
    }
}

#[test]
fn summa_matches_oracle() {
    let n = 256;
    let (a, b) = operands(n, 3);
    let oracle = reference_mm(&a.view(), &b.view());
    for p in [1, 4] {
        let out = summa_multiply(&a, &b, &e3_1225_net(p)).unwrap();
        let err = max_rel_error(&out.c.view(), &oracle.view());
        assert!(err <= 1e-12, "P={p}: SUMMA oracle error {err}");
    }
}
