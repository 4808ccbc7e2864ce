//! Size-aware, group-affine placement for the concurrent scheduler.
//!
//! Two decisions live here, both pure functions so they can be property
//! tested without a pool:
//!
//! * **Partition** — how the pool's workers split into per-executor
//!   groups ([`partition`]): contiguous, near-equal ranges, one per
//!   executor, installed as scheduling groups so each in-flight request's
//!   fan-out stays on its own workers (the paper's disjoint processor
//!   groups, reused from the CAPS BFS steps).
//! * **Width** — how many of a group's workers one request may use
//!   ([`slot_width`]). The blocked algorithm fans out in `mc`-row bands,
//!   so a request of dimension `n` can keep at most `ceil(n / mc)`
//!   workers busy; handing it more just parks them. This is the
//!   strong-scaling cap of the memory-independent communication bounds
//!   (arXiv 1202.3177): past the point where each processor holds one
//!   band, extra processors add communication without reducing the
//!   critical path. `scaling_cap` is that bound; `slot_width` clamps it
//!   to the group.
//!
//! A width of 1 selects the **batched small-GEMM fast path**: the
//! executor runs the multiply inline (no cross-thread handoff at all) and
//! a homogeneous batch is spread one-request-per-group-slot under a
//! single pool scope, so the spawn/steal overhead is paid once per batch
//! instead of once per request.

use std::ops::Range;

/// Splits `threads` workers into `executors` contiguous, disjoint,
/// near-equal ranges (earlier groups get the remainder). `executors` is
/// clamped to `[1, threads]`, so every returned range is non-empty.
pub fn partition(threads: usize, executors: usize) -> Vec<Range<usize>> {
    let threads = threads.max(1);
    let g = executors.clamp(1, threads);
    let base = threads / g;
    let extra = threads % g;
    let mut ranges = Vec::with_capacity(g);
    let mut start = 0;
    for e in 0..g {
        let width = base + usize::from(e < extra);
        ranges.push(start..start + width);
        start += width;
    }
    ranges
}

/// Maximum workers a square multiply of dimension `n` can keep busy when
/// the blocked algorithm splits it into `mc`-row bands: `ceil(n / mc)`,
/// at least 1. More workers than bands cannot reduce the critical path —
/// the strong-scaling limit of arXiv 1202.3177 expressed in this
/// codebase's blocking terms.
pub fn scaling_cap(n: usize, mc: usize) -> usize {
    let mc = mc.max(1);
    n.div_ceil(mc).max(1)
}

/// Workers one request actually gets inside a group of `group_width`
/// workers: the scaling cap, clamped to the group. Width 1 means the
/// request runs inline on the executor (small-GEMM fast path).
pub fn slot_width(n: usize, mc: usize, group_width: usize) -> usize {
    scaling_cap(n, mc).min(group_width.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_workers_disjointly() {
        for threads in 1..=16 {
            for executors in 1..=20 {
                let ranges = partition(threads, executors);
                assert_eq!(ranges.len(), executors.clamp(1, threads));
                let mut seen = vec![false; threads];
                for r in &ranges {
                    assert!(!r.is_empty(), "empty group in {ranges:?}");
                    for w in r.clone() {
                        assert!(!seen[w], "worker {w} claimed twice in {ranges:?}");
                        seen[w] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "uncovered worker in {ranges:?}");
                // Contiguous and ordered: each range starts where the
                // previous ended.
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
                // Near-equal: widths differ by at most one.
                let widths: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
                let (min, max) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced partition {ranges:?}");
            }
        }
    }

    #[test]
    fn scaling_cap_is_band_count() {
        assert_eq!(scaling_cap(64, 168), 1);
        assert_eq!(scaling_cap(168, 168), 1);
        assert_eq!(scaling_cap(169, 168), 2);
        assert_eq!(scaling_cap(512, 168), 4);
        assert_eq!(scaling_cap(0, 168), 1, "degenerate n still gets a slot");
        assert_eq!(
            scaling_cap(64, 0),
            64,
            "degenerate mc falls back to 1-row bands"
        );
    }

    #[test]
    fn widths_follow_the_kernel_tile_on_the_known_host() {
        // Width is `ceil(n / mc)` and `mc` is derived from the dispatched
        // kernel's register tile, so placement follows the tile. On the
        // 48K/2M/260M host the 6×32 AVX-512 f64 tile derives mc = 480
        // (f32, 6×64: 510), so every shape of the default serve mix is one
        // band: width 1, the batched fast path, on any group.
        let caches = powerscale_gemm::autotune::parse_cache_list("48K,2M,260M").unwrap();
        let mc_for = |mr, nr| {
            powerscale_gemm::BlockingParams::host_tuned_for_caches_and_tile(&caches, mr, nr).mc
        };
        let (mc, mc_f32) = (mc_for(6, 32), mc_for(6, 64));
        assert_eq!((mc, mc_f32), (480, 510));
        for n in [64usize, 96, 128, 192, 256, 384, 480] {
            assert_eq!(slot_width(n, mc, 4), 1, "n={n}");
            assert_eq!(slot_width(n, mc_f32, 4), 1, "f32 n={n}");
        }
        assert_eq!(slot_width(512, mc, 4), 2);
        assert_eq!(slot_width(512, mc_f32, 4), 2);
        assert_eq!(slot_width(1024, mc, 4), 3);
        assert_eq!(
            slot_width(2048, mc, 4),
            4,
            "five bands, clamped to the group"
        );
        // The 8×8 tile it replaced derived mc = 168 here, which gave
        // n = 192 and n = 256 two bands and a width-2 handoff.
        assert_eq!(slot_width(192, 168, 4), 2);
        assert_eq!(slot_width(256, 168, 4), 2);
    }

    #[test]
    fn slot_width_never_exceeds_cap_or_group() {
        // The placement property: a request never gets more workers than
        // its n can use, and never more than its group holds.
        for n in [1usize, 32, 64, 96, 128, 168, 192, 256, 384, 512, 1024, 2048] {
            for mc in [64usize, 128, 168, 256] {
                for group_width in 1..=8 {
                    let w = slot_width(n, mc, group_width);
                    assert!(w >= 1);
                    assert!(w <= scaling_cap(n, mc), "width {w} beats the cap for n={n}");
                    assert!(w <= group_width, "width {w} escapes the group");
                }
            }
        }
    }

    #[test]
    fn slot_width_is_monotone_in_n() {
        // Bigger problems may never get *narrower* placements.
        for mc in [128usize, 168] {
            for group_width in 1..=8 {
                let mut prev = 0;
                for n in (32..=2048).step_by(32) {
                    let w = slot_width(n, mc, group_width);
                    assert!(w >= prev, "width shrank from {prev} to {w} at n={n}");
                    prev = w;
                }
            }
        }
    }
}
