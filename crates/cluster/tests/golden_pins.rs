//! Golden pins for the distributed CAPS executor: "same bytes, same meter,
//! same bits" asserted against constants, not only run-vs-run.
//!
//! The constants were written from the output of the commit *before* the
//! strided-run data-movement rewrite (per-element `get`/`set`
//! redistribution) and must never be regenerated from a data-movement
//! change: how panels are copied may not move a metered byte, a memory
//! charge, a counted flop or a result bit.
//!
//! The kernel tier is scalar in every cell's config so the result hash is the same on
//! every host (the scalar kernel is unfused multiply-then-add in `k`
//! order; the SIMD tiers fuse).

use powerscale_caps::CapsConfig;
use powerscale_cluster::presets::e3_1225_net;
use powerscale_cluster::{dist_caps_multiply, DistCapsConfig};
use powerscale_gemm::{scalar_kernel, Dispatch};
use powerscale_matrix::MatrixGen;

const N: usize = 256;
const SEED: u64 = 0x601D;

/// One rank's pinned numbers: sent bytes, received bytes, sent messages,
/// received messages (each Scatter/Algo/Gather), memory high-water mark,
/// flops.
type RankPin = [u64; 14];

struct Cell {
    nodes: usize,
    /// The `M` of Eq. 8 in words; `None` lets every step BFS.
    mem_limit_words: Option<u64>,
    /// FNV-1a over the little-endian bits of `c.as_slice()`.
    c_fnv: u64,
    ranks: &'static [RankPin],
}

fn fnv1a(data: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const CELLS: &[Cell] = &[
    Cell {
        nodes: 1,
        mem_limit_words: None,
        c_fnv: 0xaf600b7801dfc635,
        ranks: &[[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1747626, 26501120]],
    },
    Cell {
        nodes: 2,
        mem_limit_words: None,
        c_fnv: 0xaf600b7801dfc635,
        ranks: &[
            [
                524288, 655360, 0, 0, 720896, 262144, 2, 10, 0, 0, 11, 1, 720896, 15122432,
            ],
            [
                0, 720896, 262144, 524288, 655360, 0, 0, 11, 1, 2, 10, 0, 720896, 11378688,
            ],
        ],
    },
    Cell {
        nodes: 4,
        mem_limit_words: None,
        c_fnv: 0xaf600b7801dfc635,
        ranks: &[
            [
                786432, 524288, 0, 0, 557056, 393216, 6, 16, 0, 0, 17, 3, 436906, 7561216,
            ],
            [
                0, 524288, 131072, 262144, 557056, 0, 0, 16, 1, 2, 17, 0, 436906, 7561216,
            ],
            [
                0, 524288, 131072, 262144, 557056, 0, 0, 16, 1, 2, 17, 0, 436906, 7561216,
            ],
            [
                0, 491520, 131072, 262144, 393216, 0, 0, 15, 1, 2, 12, 0, 436906, 3817472,
            ],
        ],
    },
    Cell {
        nodes: 7,
        mem_limit_words: None,
        c_fnv: 0xaf600b7801dfc635,
        ranks: &[
            [
                901120, 333824, 0, 0, 335872, 450560, 12, 18, 0, 0, 18, 6, 436906, 3785216,
            ],
            [
                0, 333824, 73728, 147456, 335872, 0, 0, 18, 1, 2, 18, 0, 436906, 3785216,
            ],
            [
                0, 333824, 73728, 147456, 335872, 0, 0, 18, 1, 2, 18, 0, 436906, 3785216,
            ],
            [
                0, 333824, 73728, 147456, 335872, 0, 0, 18, 1, 2, 18, 0, 436906, 3785216,
            ],
            [
                0, 333824, 73728, 147456, 335872, 0, 0, 18, 1, 2, 18, 0, 436906, 3785216,
            ],
            [
                0, 333824, 73728, 147456, 335872, 0, 0, 18, 1, 2, 18, 0, 436906, 3785216,
            ],
            [
                0, 356352, 81920, 163840, 344064, 0, 0, 18, 1, 2, 18, 0, 436906, 3789824,
            ],
        ],
    },
    Cell {
        nodes: 7,
        mem_limit_words: Some(128 * 128),
        c_fnv: 0xaf600b7801dfc635,
        ranks: &[
            [
                901120, 584192, 0, 0, 587776, 450560, 12, 126, 0, 0, 126, 6, 367274, 3784064,
            ],
            [
                0, 584192, 73728, 147456, 587776, 0, 0, 126, 1, 2, 126, 0, 367274, 3784064,
            ],
            [
                0, 584192, 73728, 147456, 587776, 0, 0, 126, 1, 2, 126, 0, 367274, 3784064,
            ],
            [
                0, 584192, 73728, 147456, 587776, 0, 0, 126, 1, 2, 126, 0, 367274, 3784064,
            ],
            [
                0, 584192, 73728, 147456, 587776, 0, 0, 126, 1, 2, 126, 0, 367274, 3784064,
            ],
            [
                0, 584192, 73728, 147456, 587776, 0, 0, 126, 1, 2, 126, 0, 367274, 3784064,
            ],
            [
                0, 623616, 81920, 163840, 602112, 0, 0, 126, 1, 2, 126, 0, 395946, 3796736,
            ],
        ],
    },
    // All-DFS descent: the frame-size leaves still span the group, so
    // this cell also pins the leader-leaf gather/scatter.
    Cell {
        nodes: 7,
        mem_limit_words: Some(96 * 96),
        c_fnv: 0xaf600b7801dfc635,
        ranks: &[
            [
                901120, 584192, 0, 0, 587776, 450560, 12, 126, 0, 0, 126, 6, 431786, 3784064,
            ],
            [
                0, 584192, 73728, 147456, 587776, 0, 0, 126, 1, 2, 126, 0, 404138, 3784064,
            ],
            [
                0, 584192, 73728, 147456, 587776, 0, 0, 126, 1, 2, 126, 0, 408746, 3784064,
            ],
            [
                0, 584192, 73728, 147456, 587776, 0, 0, 126, 1, 2, 126, 0, 413354, 3784064,
            ],
            [
                0, 584192, 73728, 147456, 587776, 0, 0, 126, 1, 2, 126, 0, 417962, 3784064,
            ],
            [
                0, 584192, 73728, 147456, 587776, 0, 0, 126, 1, 2, 126, 0, 422570, 3784064,
            ],
            [
                0, 623616, 81920, 163840, 602112, 0, 0, 126, 1, 2, 126, 0, 462506, 3796736,
            ],
        ],
    },
];

#[test]
fn counters_meter_flops_and_bits_match_the_pinned_constants() {
    let scalar = Dispatch::default().with_kernel(scalar_kernel());
    let mut gen = MatrixGen::new(SEED);
    let (a, b) = (gen.paper_operand(N), gen.paper_operand(N));
    let mut actual = String::new();
    let mut ok = true;
    for cell in CELLS {
        let cfg = DistCapsConfig {
            caps: CapsConfig {
                dispatch: scalar,
                ..CapsConfig::paper()
            },
            mem_limit_bytes: cell.mem_limit_words.map(|w| w * 8),
        };
        assert_eq!(cfg.caps.cutoff, 64, "the pins were taken at cutoff 64");
        let out = dist_caps_multiply(&a, &b, &cfg, &e3_1225_net(cell.nodes)).unwrap();
        let ranks: Vec<RankPin> = out
            .report
            .ranks
            .iter()
            .zip(&out.per_rank_flops)
            .map(|(r, &flops)| {
                let mut pin = [0u64; 14];
                pin[0..3].copy_from_slice(&r.sent_bytes);
                pin[3..6].copy_from_slice(&r.recv_bytes);
                pin[6..9].copy_from_slice(&r.sent_msgs);
                pin[9..12].copy_from_slice(&r.recv_msgs);
                pin[12] = r.mem.peak_bytes;
                pin[13] = flops;
                pin
            })
            .collect();
        let c_fnv = fnv1a(out.c.as_slice());
        ok &= c_fnv == cell.c_fnv && ranks == cell.ranks;
        actual.push_str(&format!(
            "    Cell {{\n        nodes: {},\n        mem_limit_words: {:?},\n        \
             c_fnv: {c_fnv:#018x},\n        ranks: &[\n",
            cell.nodes, cell.mem_limit_words
        ));
        for pin in &ranks {
            actual.push_str(&format!("            {pin:?},\n"));
        }
        actual.push_str("        ],\n    },\n");
    }
    assert!(
        ok,
        "pinned constants no longer hold; this run produced:\n{actual}"
    );
}
