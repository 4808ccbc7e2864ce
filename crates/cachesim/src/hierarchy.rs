//! A multi-level inclusive cache hierarchy.

use crate::cache::{Cache, CacheStats};
use crate::config::CacheConfig;

/// Per-level statistics with the level's name attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelStats {
    /// Level index (0 = L1).
    pub level: usize,
    /// Raw hit/miss counters.
    pub stats: CacheStats,
}

/// Whole-hierarchy statistics: per-level counters plus DRAM traffic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HierarchyStats {
    /// One entry per level, L1 first.
    pub levels: Vec<LevelStats>,
    /// Bytes fetched from DRAM (last-level misses × line size).
    pub dram_read_bytes: u64,
    /// Bytes written back to DRAM (last-level dirty evictions × line size).
    pub dram_write_bytes: u64,
}

impl HierarchyStats {
    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Miss rate of the last cache level (the DRAM-visible miss rate).
    pub fn llc_miss_rate(&self) -> f64 {
        self.levels.last().map_or(0.0, |l| l.stats.miss_rate())
    }

    /// Miss rate of L1.
    pub fn l1_miss_rate(&self) -> f64 {
        self.levels.first().map_or(0.0, |l| l.stats.miss_rate())
    }
}

/// An L1→…→LLC→DRAM stack of [`Cache`]s.
///
/// Misses cascade down; a hit at level *k* fills the levels above it
/// (inclusive hierarchy, as on the paper's Haswell testbed). Dirty victims
/// are written to the next level down (or DRAM from the LLC).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    levels: Vec<Cache>,
    line_bytes: u64,
    dram_read_bytes: u64,
    dram_write_bytes: u64,
}

impl Hierarchy {
    /// Builds a hierarchy from geometries ordered L1 first.
    ///
    /// # Panics
    /// Panics if `configs` is empty or line sizes differ between levels
    /// (mixed line sizes are not modelled).
    pub fn new(configs: &[CacheConfig]) -> Self {
        assert!(!configs.is_empty(), "hierarchy needs at least one level");
        let line = configs[0].line_bytes;
        assert!(
            configs.iter().all(|c| c.line_bytes == line),
            "all levels must share a line size"
        );
        Hierarchy {
            levels: configs.iter().map(|&c| Cache::new(c)).collect(),
            line_bytes: line as u64,
            dram_read_bytes: 0,
            dram_write_bytes: 0,
        }
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Simulates one access. Returns the level that hit (0 = L1) or
    /// `None` for a DRAM access.
    pub fn access(&mut self, byte_addr: u64, write: bool) -> Option<usize> {
        let mut hit_level = None;
        for k in 0..self.levels.len() {
            let (hit, dirty_victim) = self.levels[k].access_detail(byte_addr, write && k == 0);
            // Dirty victims cascade: pushed into the next level down as a
            // write, or counted as DRAM write traffic from the last level.
            if let Some(victim_addr) = dirty_victim {
                let (_, lower) = self.levels.split_at_mut(k + 1);
                victims_push(
                    &mut self.dram_write_bytes,
                    lower,
                    victim_addr,
                    self.line_bytes,
                );
            }
            if hit {
                hit_level = Some(k);
                break;
            }
        }
        if hit_level.is_none() {
            self.dram_read_bytes += self.line_bytes;
        }
        hit_level
    }

    /// Convenience: simulates a read of `len` bytes starting at `addr`,
    /// touching each byte's line once per line.
    pub fn touch_range(&mut self, addr: u64, len: u64, write: bool) {
        let first = addr / self.line_bytes;
        let last = (addr + len.max(1) - 1) / self.line_bytes;
        for line in first..=last {
            self.access(line * self.line_bytes, write);
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            levels: self
                .levels
                .iter()
                .enumerate()
                .map(|(level, c)| LevelStats {
                    level,
                    stats: c.stats(),
                })
                .collect(),
            dram_read_bytes: self.dram_read_bytes,
            dram_write_bytes: self.dram_write_bytes,
        }
    }

    /// Invalidates all levels and zeroes stats.
    pub fn flush(&mut self) {
        for c in &mut self.levels {
            c.flush();
        }
        self.dram_read_bytes = 0;
        self.dram_write_bytes = 0;
    }
}

/// Pushes a dirty victim line into `lower` levels (as a write access to the
/// first of them) or accounts a DRAM write when no lower level exists.
fn victims_push(
    dram_write_bytes: &mut u64,
    lower: &mut [Cache],
    victim_addr: u64,
    line_bytes: u64,
) {
    match lower.split_first_mut() {
        Some((next, rest)) => {
            // Write-back lands in the next level; if that displaces another
            // dirty line, the push-down continues toward DRAM.
            let (_, nested) = next.access_detail(victim_addr, true);
            if let Some(nested_victim) = nested {
                victims_push(dram_write_bytes, rest, nested_victim, line_bytes);
            }
        }
        None => *dram_write_bytes += line_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level() -> Hierarchy {
        Hierarchy::new(&[
            CacheConfig::new(512, 64, 2),  // tiny L1: 8 lines
            CacheConfig::new(4096, 64, 4), // L2: 64 lines
        ])
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut h = two_level();
        assert_eq!(h.access(0, false), None); // DRAM
        assert_eq!(h.access(0, false), Some(0)); // L1
    }

    #[test]
    fn l2_serves_l1_capacity_victims() {
        let mut h = two_level();
        // Fill 16 lines: L1 holds 8, L2 holds all 16.
        for l in 0..16u64 {
            h.access(l * 64, false);
        }
        // Line 0 fell out of L1 but should hit in L2.
        assert_eq!(h.access(0, false), Some(1));
        let s = h.stats();
        assert_eq!(s.dram_read_bytes, 16 * 64);
    }

    #[test]
    fn dram_write_traffic_from_dirty_llc_evictions() {
        // Single-level hierarchy so evictions go straight to DRAM.
        let mut h = Hierarchy::new(&[CacheConfig::new(512, 64, 1)]);
        // Dirty all 8 lines, then stream 8 more conflicting lines.
        for l in 0..8u64 {
            h.access(l * 64, true);
        }
        for l in 8..16u64 {
            h.access(l * 64, false);
        }
        let s = h.stats();
        assert_eq!(s.dram_write_bytes, 8 * 64);
        assert_eq!(s.dram_read_bytes, 16 * 64);
    }

    #[test]
    fn touch_range_counts_lines_once() {
        let mut h = two_level();
        h.touch_range(0, 256, false); // 4 lines
        let s = h.stats();
        assert_eq!(s.levels[0].stats.accesses(), 4);
        assert_eq!(s.dram_read_bytes, 4 * 64);
    }

    #[test]
    fn touch_range_unaligned_spans_extra_line() {
        let mut h = two_level();
        h.touch_range(32, 64, false); // crosses a line boundary → 2 lines
        assert_eq!(h.stats().levels[0].stats.accesses(), 2);
    }

    #[test]
    fn stats_miss_rates() {
        let mut h = two_level();
        h.access(0, false);
        h.access(0, false);
        let s = h.stats();
        assert!((s.l1_miss_rate() - 0.5).abs() < 1e-12);
        assert!((s.llc_miss_rate() - 1.0).abs() < 1e-12); // L2 saw only the miss
    }

    #[test]
    fn flush_restores_cold_state() {
        let mut h = two_level();
        h.access(0, true);
        h.flush();
        assert_eq!(h.stats().dram_bytes(), 0);
        assert_eq!(h.access(0, false), None);
    }

    #[test]
    #[should_panic(expected = "share a line size")]
    fn mixed_line_sizes_rejected() {
        let _ = Hierarchy::new(&[CacheConfig::new(512, 64, 2), CacheConfig::new(4096, 128, 4)]);
    }

    #[test]
    fn blocked_walk_beats_naive_walk() {
        // The essence of Algorithm 1 in the paper: walking a matrix in
        // blocks that fit the cache produces less DRAM traffic than a
        // column-major walk of a row-major layout.
        let n: u64 = 64; // 64x64 f64 matrix = 32 KiB
        let row_bytes = n * 8;
        let mut naive = Hierarchy::new(&[CacheConfig::new(4096, 64, 4)]);
        // Column-major walk: stride = row_bytes.
        for j in 0..n {
            for i in 0..n {
                naive.access(i * row_bytes + j * 8, false);
            }
        }
        let mut blocked = Hierarchy::new(&[CacheConfig::new(4096, 64, 4)]);
        // 8x8 blocks: each block's lines are reused before eviction.
        let b = 8;
        for bi in (0..n).step_by(b as usize) {
            for bj in (0..n).step_by(b as usize) {
                for i in bi..bi + b {
                    for j in bj..bj + b {
                        blocked.access(i * row_bytes + j * 8, false);
                    }
                }
            }
        }
        let naive_traffic = naive.stats().dram_read_bytes;
        let blocked_traffic = blocked.stats().dram_read_bytes;
        assert!(
            blocked_traffic * 4 <= naive_traffic,
            "blocked {blocked_traffic} should be at least 4x below naive {naive_traffic}"
        );
    }
}
