//! Property tests for the *declared* communication volumes in
//! `cluster::plans`, their closed forms, and the cross-check against the
//! transport-metered counters of the executing `cluster::dist` path.

use powerscale_cluster::plans::{dist_caps_graph, summa_graph};
use powerscale_cluster::presets::{e3_1225_cluster, e3_1225_net};
use powerscale_cluster::{summa_multiply, DistCapsConfig};
use powerscale_machine::net::Phase;
use powerscale_matrix::MatrixGen;
use proptest::prelude::*;

/// SUMMA per-rank closed form, in bytes: `2n²(√P−1)/P` words. Every rank
/// is in the same class — node `(i, j)` receives exactly `q−1` A blocks
/// (all steps but `k = j`) and `q−1` B blocks (all but `k = i`).
fn summa_per_rank_bytes(n: usize, q: usize) -> u64 {
    let nb = (n / q) as u64;
    2 * nb * nb * (q as u64 - 1) * 8
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Declared SUMMA volume matches the closed form exactly, for every
    /// rank and in aggregate.
    #[test]
    fn summa_declared_matches_closed_form(q in 1usize..6, blk in 1usize..9) {
        let n = q * blk * 32;
        let cluster = e3_1225_cluster(q * q);
        let g = summa_graph(n, &cluster).expect("square grid dividing n");
        let per_rank = summa_per_rank_bytes(n, q);
        prop_assert_eq!(g.total_net_bytes(), per_rank * (q * q) as u64);
        // Per-node ingress: sum net_bytes of the tasks placed there.
        for node in 0..q * q {
            let ingress: u64 = (0..g.len())
                .map(powerscale_machine::TaskId::from_index)
                .filter(|&id| g.node(id) == node)
                .map(|id| g.net_bytes(id))
                .sum();
            prop_assert_eq!(ingress, per_rank, "node {}", node);
        }
    }

    /// Declared dist-CAPS BFS volumes across recursion levels: on a
    /// `7^j`-node cluster the level-`k` BFS step count grows as `7^k`
    /// while each step's operand shipment shrinks 4× (aggregate
    /// `(7/4)^k` — the Strassen communication signature).
    #[test]
    fn dist_caps_bfs_volumes_scale_as_7k(exp in 1usize..3, half in 9u32..12) {
        let n = 2usize.pow(half);
        let nodes = 7usize.pow(exp as u32);
        let g = dist_caps_graph(n, &e3_1225_cluster(nodes));
        // A level-k BFS prepare task ships 2·8·(n/2^(k+1))²·(6/7) bytes
        // (the block-cyclic complement of two operands): count the tasks
        // carrying exactly that volume. Prepares have at most one
        // dependency; two-input combines can carry the same volume but
        // depend on whole product subtrees, which tells them apart.
        for k in 0..exp {
            let hh = (n / 2usize.pow(k as u32 + 1)).pow(2) as f64;
            let expected = (2.0 * 8.0 * hh * (6.0 / 7.0)) as u64;
            let count = (0..g.len())
                .filter(|&i| {
                    let id = powerscale_machine::TaskId::from_index(i);
                    g.net_bytes(id) == expected && g.deps(id).len() <= 1
                })
                .count();
            prop_assert_eq!(count, 7usize.pow(k as u32 + 1), "level {}", k);
        }
    }
}

/// Declared SUMMA volume equals what the message-passing executor's
/// transport actually meters, rank by rank, byte for byte.
#[test]
fn summa_declared_equals_measured_transport() {
    for (n, q) in [(256usize, 2usize), (256, 4), (192, 3)] {
        let p = q * q;
        let mut gen = MatrixGen::new(7);
        let a = gen.paper_operand(n);
        let b = gen.paper_operand(n);
        let out = summa_multiply(&a, &b, &e3_1225_net(p)).unwrap();
        let per_rank = summa_per_rank_bytes(n, q);
        for r in 0..p {
            assert_eq!(
                out.report.recv_bytes(r, Phase::Algo),
                per_rank,
                "n={n} q={q} rank {r}"
            );
        }
        // Aggregate check against the declared graph: the algorithm-phase
        // traffic, summed over ranks (the sender-side total also counts
        // the O(n²) scatter/gather setup, which the plan does not model).
        let declared = summa_graph(n, &e3_1225_cluster(p))
            .unwrap()
            .total_net_bytes();
        let measured_algo: u64 = (0..p).map(|r| out.report.recv_bytes(r, Phase::Algo)).sum();
        assert_eq!(measured_algo, declared, "n={n} q={q}");
    }
}

/// The dist-CAPS declared volume is an idealized block-cyclic model; the
/// block-column executor moves a same-order amount: measured total within
/// [1/4, 4]× of declared at one BFS level.
#[test]
fn caps_declared_vs_measured_same_order() {
    let n = 256;
    let mut gen = MatrixGen::new(8);
    let a = gen.paper_operand(n);
    let b = gen.paper_operand(n);
    let out =
        powerscale_cluster::dist_caps_multiply(&a, &b, &DistCapsConfig::paper(), &e3_1225_net(7))
            .unwrap();
    let measured: f64 = (0..7)
        .map(|r| out.report.recv_bytes(r, Phase::Algo) as f64)
        .sum();
    let declared = dist_caps_graph(n, &e3_1225_cluster(7)).total_net_bytes() as f64;
    let ratio = measured / declared;
    assert!(
        (0.25..=4.0).contains(&ratio),
        "measured {measured} vs declared {declared} (ratio {ratio})"
    );
}
