//! Cache geometry description.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line (block) size in bytes; must be a power of two.
    pub line_bytes: usize,
    /// Ways per set; `1` = direct-mapped. `size/(line*assoc)` must be a
    /// power of two number of sets.
    pub associativity: usize,
}

impl CacheConfig {
    /// Builds and validates a geometry.
    ///
    /// # Panics
    /// Panics when the geometry is inconsistent (non-power-of-two line size
    /// or set count, capacity not divisible by `line * associativity`).
    pub fn new(size_bytes: usize, line_bytes: usize, associativity: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(associativity >= 1, "associativity must be >= 1");
        assert!(
            size_bytes.is_multiple_of(line_bytes * associativity),
            "capacity {size_bytes} not divisible by line*ways {}",
            line_bytes * associativity
        );
        let sets = size_bytes / (line_bytes * associativity);
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        CacheConfig {
            size_bytes,
            line_bytes,
            associativity,
        }
    }

    /// Number of sets.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.associativity)
    }

    /// Total number of lines the cache can hold.
    #[inline]
    pub fn num_lines(&self) -> usize {
        self.size_bytes / self.line_bytes
    }

    /// Line-address (tag+index portion) of a byte address.
    #[inline]
    pub fn line_addr(&self, byte_addr: u64) -> u64 {
        byte_addr / self.line_bytes as u64
    }

    /// Set index of a byte address.
    #[inline]
    pub fn set_index(&self, byte_addr: u64) -> usize {
        (self.line_addr(byte_addr) as usize) & (self.num_sets() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derivations() {
        let c = CacheConfig::new(32 * 1024, 64, 8);
        assert_eq!(c.num_sets(), 64);
        assert_eq!(c.num_lines(), 512);
    }

    #[test]
    fn addresses_map_to_sets() {
        let c = CacheConfig::new(4096, 64, 1); // 64 sets
        assert_eq!(c.set_index(0), 0);
        assert_eq!(c.set_index(63), 0);
        assert_eq!(c.set_index(64), 1);
        assert_eq!(c.set_index(4096), 0); // wraps
        assert_eq!(c.line_addr(129), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        let _ = CacheConfig::new(4096, 48, 1);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_capacity_rejected() {
        let _ = CacheConfig::new(1000, 64, 2);
    }

    #[test]
    fn fully_associative_single_set() {
        let c = CacheConfig::new(1024, 64, 16);
        assert_eq!(c.num_sets(), 1);
        assert_eq!(c.set_index(0xdead_beef), 0);
    }
}
