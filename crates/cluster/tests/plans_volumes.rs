//! Property tests for the *declared* communication volumes in
//! `cluster::plans`, their closed forms, and the cross-check against the
//! transport-metered counters of the executing `cluster::dist` path.

use powerscale_cluster::plans::{dist_caps_graph, summa_graph};
use powerscale_cluster::presets::{e3_1225_cluster, e3_1225_net};
use powerscale_cluster::{summa_multiply, DistCapsConfig};
use powerscale_machine::net::Phase;
use powerscale_machine::{KernelClass, TaskId};
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
        // A level-k prepare forms one or two quadrant sums of
        // `hh = (n/2^(k+1))²` elements and depends on at most its parent's
        // prepare; combines depend on whole product subtrees, which tells
        // them apart. Each ships the columns of two operands its child
        // group does not own: most, but not all, of `2·8·hh` bytes (a
        // seventh of the group keeps about a seventh of the columns).
        for k in 0..exp {
            let hh = (n / 2usize.pow(k as u32 + 1)).pow(2) as u64;
            let prepares: Vec<u64> = (0..g.len())
                .map(TaskId::from_index)
                .filter(|&id| {
                    let c = g.cost(id);
                    c.class == KernelClass::Elementwise
                        && (c.flops == hh || c.flops == 2 * hh)
                        && g.deps(id).len() <= 1
                })
                .map(|id| g.net_bytes(id))
                .collect();
            prop_assert_eq!(prepares.len(), 7usize.pow(k as u32 + 1), "level {}", k);
            for net in prepares {
                prop_assert!(
                    16 * hh * 5 / 7 < net && net < 16 * hh,
                    "level {}: {} of {} operand bytes",
                    k,
                    net,
                    16 * hh
                );
            }
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

/// The declared dist-CAPS fabric bytes are the bytes the executor moves:
/// the plan's `total_net_bytes()` equals the `Algo`-phase receive bytes
/// summed over ranks, exactly. At P = 3 the frame's 64 columns split
/// 21/21/22 and every child group is one node; at P = 16 n = 128 the
/// leaves sit on two- and three-node groups and gather to their leaders.
#[test]
fn caps_declared_equals_measured_transport() {
    let cells = [2usize, 3, 4, 7]
        .into_iter()
        .flat_map(|p| [(p, 256usize), (p, 512)])
        .chain([(16, 128)]);
    for (p, n) in cells {
        let mut gen = MatrixGen::new(8);
        let a = gen.paper_operand(n);
        let b = gen.paper_operand(n);
        let out = powerscale_cluster::dist_caps_multiply(
            &a,
            &b,
            &DistCapsConfig::paper(),
            &e3_1225_net(p),
        )
        .unwrap();
        let measured: u64 = (0..p).map(|r| out.report.recv_bytes(r, Phase::Algo)).sum();
        let declared = dist_caps_graph(n, &e3_1225_cluster(p)).total_net_bytes();
        assert_eq!(declared, measured, "P={p} n={n}");
    }
}

/// The plan gives each node group the products the executor's does: at
/// P = 2, group 1 runs launch positions 4–6 (M1, M4, M5), whose operand
/// sums cost 2 + 1 + 1 quadrant passes on node 1.
#[test]
fn caps_plan_places_products_like_the_executor() {
    let n = 512u64;
    let hh = (n / 2) * (n / 2);
    let g = dist_caps_graph(n as usize, &e3_1225_cluster(2));
    let node1: u64 = (0..g.len())
        .map(TaskId::from_index)
        .filter(|&id| g.node(id) == 1 && g.cost(id).class == KernelClass::Elementwise)
        .map(|id| g.cost(id).flops)
        .sum();
    assert_eq!(node1, 4 * hh);
}
