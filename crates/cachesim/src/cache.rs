//! A single cache level.

use crate::config::CacheConfig;

/// Hit/miss/eviction counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Evicted lines that were dirty (write-back traffic).
    pub writebacks: u64,
    /// Lines filled speculatively by the next-line prefetcher.
    pub prefetch_fills: u64,
    /// Demand accesses that hit a prefetched line before any demand touch
    /// (useful prefetches).
    pub prefetch_hits: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in `[0, 1]`; 0 for an untouched cache.
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// One line's bookkeeping: which line-address it holds, recency, dirtiness.
#[derive(Debug, Clone, Copy)]
struct LineState {
    tag: u64,
    /// Monotonic access stamp for LRU; 0 = invalid/never used.
    stamp: u64,
    dirty: bool,
    valid: bool,
    /// Filled by the prefetcher and not yet demanded.
    prefetched: bool,
}

impl LineState {
    const EMPTY: LineState = LineState {
        tag: 0,
        stamp: 0,
        dirty: false,
        valid: false,
        prefetched: false,
    };
}

/// A set-associative, LRU, write-back / write-allocate cache.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `num_sets * associativity` line slots, set-major.
    lines: Vec<LineState>,
    clock: u64,
    stats: CacheStats,
    /// Next-line prefetch on demand misses (a simple stream prefetcher,
    /// standard on the paper's Haswell).
    prefetch: bool,
}

impl Cache {
    /// Creates an empty (all-invalid) cache, no prefetcher.
    pub fn new(config: CacheConfig) -> Self {
        Cache {
            lines: vec![LineState::EMPTY; config.num_lines()],
            config,
            clock: 0,
            stats: CacheStats::default(),
            prefetch: false,
        }
    }

    /// Creates a cache with a next-line prefetcher: every demand miss also
    /// fills the following line.
    pub fn with_next_line_prefetch(config: CacheConfig) -> Self {
        let mut c = Cache::new(config);
        c.prefetch = true;
        c
    }

    /// Geometry of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Simulates one byte-address access. Returns `true` on hit.
    ///
    /// Write misses allocate (write-allocate); evicted dirty lines count a
    /// writeback.
    pub fn access(&mut self, byte_addr: u64, write: bool) -> bool {
        self.access_detail(byte_addr, write).0
    }

    /// Like [`Cache::access`] but also reports `(hit, evicted_dirty_line)`:
    /// the hierarchy needs to know when a dirty victim must be pushed down.
    pub fn access_detail(&mut self, byte_addr: u64, write: bool) -> (bool, Option<u64>) {
        self.clock += 1;
        let tag = self.config.line_addr(byte_addr);
        let set = self.config.set_index(byte_addr);
        let ways = self.config.associativity;
        let base = set * ways;
        let slots = &mut self.lines[base..base + ways];

        // Hit path.
        if let Some(slot) = slots.iter_mut().find(|s| s.valid && s.tag == tag) {
            slot.stamp = self.clock;
            slot.dirty |= write;
            let was_prefetched = slot.prefetched;
            slot.prefetched = false;
            self.stats.hits += 1;
            if was_prefetched {
                self.stats.prefetch_hits += 1;
                // Stream continuation: a consumed prefetch keeps the
                // stream one line ahead.
                if self.prefetch {
                    self.prefetch_fill((tag + 1) * self.config.line_bytes as u64);
                }
            }
            return (true, None);
        }

        // Miss: pick an invalid slot, else the LRU slot.
        self.stats.misses += 1;
        let victim = match slots.iter_mut().find(|s| !s.valid) {
            Some(s) => s,
            None => slots
                .iter_mut()
                .min_by_key(|s| s.stamp)
                .expect("associativity >= 1"),
        };
        let mut evicted_dirty = None;
        if victim.valid {
            self.stats.evictions += 1;
            if victim.dirty {
                self.stats.writebacks += 1;
                evicted_dirty = Some(victim.tag * self.config.line_bytes as u64);
            }
        }
        *victim = LineState {
            tag,
            stamp: self.clock,
            dirty: write,
            valid: true,
            prefetched: false,
        };
        if self.prefetch {
            self.prefetch_fill((tag + 1) * self.config.line_bytes as u64);
        }
        (false, evicted_dirty)
    }

    /// Speculatively fills the line containing `byte_addr` (no demand
    /// stats; marks the line prefetched). No-op if already resident.
    fn prefetch_fill(&mut self, byte_addr: u64) {
        let tag = self.config.line_addr(byte_addr);
        let set = self.config.set_index(byte_addr);
        let ways = self.config.associativity;
        let base = set * ways;
        let slots = &mut self.lines[base..base + ways];
        if slots.iter().any(|s| s.valid && s.tag == tag) {
            return;
        }
        self.stats.prefetch_fills += 1;
        let victim = match slots.iter_mut().find(|s| !s.valid) {
            Some(s) => s,
            None => slots
                .iter_mut()
                .min_by_key(|s| s.stamp)
                .expect("associativity >= 1"),
        };
        if victim.valid {
            self.stats.evictions += 1;
            if victim.dirty {
                self.stats.writebacks += 1;
            }
        }
        *victim = LineState {
            tag,
            stamp: self.clock,
            dirty: false,
            valid: true,
            prefetched: true,
        };
    }

    /// `true` if the line containing `byte_addr` is currently resident.
    pub fn probe(&self, byte_addr: u64) -> bool {
        let tag = self.config.line_addr(byte_addr);
        let set = self.config.set_index(byte_addr);
        let ways = self.config.associativity;
        self.lines[set * ways..(set + 1) * ways]
            .iter()
            .any(|s| s.valid && s.tag == tag)
    }

    /// Invalidates everything and zeroes the stats.
    pub fn flush(&mut self) {
        self.lines.fill(LineState::EMPTY);
        self.clock = 0;
        self.stats = CacheStats::default();
    }

    /// Number of currently valid lines.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|s| s.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheConfig::new(512, 64, 2))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, false));
        assert!(c.access(0, false));
        assert!(c.access(63, false)); // same line
        assert!(!c.access(64, false)); // next line
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 lines: addresses with line_addr % 4 == 0 → 0, 256, 512, …
        assert!(!c.access(0, false)); // A
        assert!(!c.access(256, false)); // B (set 0 now full: A, B)
        assert!(c.access(0, false)); // touch A (B is now LRU)
        assert!(!c.access(512, false)); // C evicts B
        assert!(c.access(0, false)); // A still resident
        assert!(!c.access(256, false)); // B was evicted
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn writeback_only_for_dirty_victims() {
        let mut c = tiny();
        c.access(0, true); // dirty A in set 0
        c.access(256, false); // clean B
                              // Evict A (LRU) with C.
        let (hit, wb) = c.access_detail(512, false);
        assert!(!hit);
        assert_eq!(wb, Some(0));
        assert_eq!(c.stats().writebacks, 1);
        // Evict clean B with D.
        let (_, wb2) = c.access_detail(768, false);
        assert_eq!(wb2, None);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, false); // clean fill
        c.access(0, true); // dirty it via a write hit
        c.access(256, false);
        let (_, wb) = c.access_detail(512, false); // evicts line 0
        assert_eq!(wb, Some(0));
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = tiny();
        c.access(0, false);
        let before = c.stats();
        assert!(c.probe(32));
        assert!(!c.probe(4096));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn flush_resets() {
        let mut c = tiny();
        c.access(0, true);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().accesses(), 0);
        assert!(!c.access(0, false));
    }

    #[test]
    fn capacity_bound_respected() {
        let mut c = tiny();
        for i in 0..100 {
            c.access(i * 64, false);
        }
        assert_eq!(c.resident_lines(), 8); // 512B / 64B = 8 lines max
    }

    #[test]
    fn streaming_miss_rate_matches_line_size() {
        // Sequential byte stream: one miss per 64-byte line.
        let mut c = Cache::new(CacheConfig::new(32 * 1024, 64, 8));
        let bytes = 8 * 1024u64;
        for a in 0..bytes {
            c.access(a, false);
        }
        let s = c.stats();
        assert_eq!(s.misses, bytes / 64);
        assert!((s.miss_rate() - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        // Repeatedly walk 2x the cache capacity with a direct-mapped cache:
        // every access conflicts on the second pass onwards.
        let mut c = Cache::new(CacheConfig::new(1024, 64, 1));
        let lines = 2 * 1024 / 64;
        for _pass in 0..3 {
            for l in 0..lines {
                c.access((l * 64) as u64, false);
            }
        }
        // All accesses miss: the walk distance exceeds capacity.
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn working_set_within_cache_hits_after_warmup() {
        let mut c = Cache::new(CacheConfig::new(4096, 64, 4));
        let lines = 4096 / 64;
        for l in 0..lines {
            c.access((l * 64) as u64, false);
        }
        let cold = c.stats().misses;
        for _ in 0..4 {
            for l in 0..lines {
                assert!(c.access((l * 64) as u64, false));
            }
        }
        assert_eq!(c.stats().misses, cold, "no misses after warmup");
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;

    #[test]
    fn streaming_hits_with_prefetch() {
        // A sequential line walk: every miss prefetches the next line, so
        // after the cold start, alternate lines hit.
        let cfg = CacheConfig::new(32 * 1024, 64, 8);
        let mut plain = Cache::new(cfg);
        let mut pf = Cache::with_next_line_prefetch(cfg);
        for l in 0..256u64 {
            plain.access(l * 64, false);
            pf.access(l * 64, false);
        }
        assert_eq!(plain.stats().misses, 256);
        // With next-line prefetch, only the first access misses; the rest
        // hit the prefetched line.
        assert_eq!(pf.stats().misses, 1, "{:?}", pf.stats());
        assert!(pf.stats().prefetch_hits >= 255);
    }

    #[test]
    fn random_walks_gain_little() {
        let cfg = CacheConfig::new(4 * 1024, 64, 4);
        let mut pf = Cache::with_next_line_prefetch(cfg);
        // A large-stride walk never touches the prefetched neighbours.
        for l in 0..128u64 {
            pf.access(l * 64 * 17, false);
        }
        assert_eq!(pf.stats().prefetch_hits, 0);
        assert!(pf.stats().prefetch_fills > 0);
    }

    #[test]
    fn prefetch_fill_does_not_count_as_access() {
        let cfg = CacheConfig::new(4 * 1024, 64, 4);
        let mut pf = Cache::with_next_line_prefetch(cfg);
        pf.access(0, false);
        assert_eq!(pf.stats().accesses(), 1);
        assert_eq!(pf.stats().prefetch_fills, 1);
    }
}
