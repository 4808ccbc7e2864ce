//! Cache-derived blocking parameters.
//!
//! The paper (§IV-A) describes OpenBLAS "determining what the best blocking
//! factor is for the platform based upon cache hierarchy and respective
//! capacity of each cache level". This module implements that derivation,
//! using the classic Goto constraints:
//!
//! * a `kc × nr` sliver of packed B plus an `mr × kc` sliver of packed A
//!   must fit in L1 with room to spare,
//! * an `mc × kc` packed A panel should occupy about half of L2,
//! * a `kc × nc` packed B panel should occupy about half of the LLC.
//!
//! The register-tile shape (`mr × nr`) is no longer a compile-time
//! constant: it comes from the microkernel selected at runtime
//! ([`crate::kernel::select_kernel`]), so `mc`/`nc` alignment follows the
//! dispatched kernel (4×4 scalar, 6×8 AVX2, 6×32 AVX-512; the
//! f32 tiers are twice as wide — the table is in `simd.rs`).

use crate::kernel::KernelInfo;
use powerscale_cachesim::CacheConfig;

/// Loop blocking factors for the Goto GEMM structure, plus the
/// register-tile shape they are aligned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockingParams {
    /// Row-panel height (the parallelised loop); a multiple of `mr`.
    pub mc: usize,
    /// Depth of one packed panel pair (the accumulation loop).
    pub kc: usize,
    /// Column-panel width (the outermost loop); a multiple of `nr`.
    pub nc: usize,
    /// Register-tile rows of the kernel these factors are derived for.
    pub mr: usize,
    /// Register-tile columns of the kernel these factors are derived for.
    pub nr: usize,
}

impl BlockingParams {
    /// Derives parameters for `kernel` from the **host's** cache
    /// hierarchy, probed once per process ([`crate::autotune`]): sysfs
    /// capacities when available, the Haswell preset otherwise, with the
    /// `POWERSCALE_CACHES` / `POWERSCALE_BLOCKING` environment overrides
    /// honoured for reproducibility. Uses the host-tuned budget fractions
    /// ([`BlockingParams::host_tuned_for_caches_and_tile`]) rather than
    /// the conservative halves model. This is what every default
    /// [`crate::GemmContext`] uses.
    ///
    /// # Panics
    /// Panics when a `POWERSCALE_BLOCKING` pin does not align to the
    /// kernel's register tile.
    pub fn autotuned_for(kernel: &KernelInfo) -> Self {
        if let Some((mc, kc, nc)) = crate::autotune::blocking_override() {
            let p = BlockingParams {
                mc,
                kc,
                nc,
                mr: kernel.mr,
                nr: kernel.nr,
            };
            p.validate().unwrap_or_else(|e| {
                panic!(
                    "POWERSCALE_BLOCKING override invalid for kernel `{}`: {e}",
                    kernel.name
                )
            });
            return p;
        }
        Self::host_tuned_for_caches_and_tile(crate::autotune::host_caches(), kernel.mr, kernel.nr)
    }

    /// The host-tuned derivation: same Goto structure as
    /// [`BlockingParams::for_caches_and_tile`], budgets taken from how the
    /// row-accumulating kernel walks its operands. Budgets count doubles
    /// for every dtype tier.
    ///
    /// **The L1 floor, which sizes `mc`.** The sweep
    /// ([`KernelInfo::sweep_tiles`]) holds one `kc × nr` B sliver while
    /// every `mr × kc` A strip of the panel streams past it. The sliver
    /// survives an LRU L1 beside *two* A strips — the one being read and
    /// the one arriving behind it — at `floor · 8 · (nr + 2·mr) ≤ L1`: 136
    /// on the 48 KiB host with the 6×32 AVX-512 tile. A quarter of L2 holds
    /// the `mc × floor` packed A block, leaving room for the B stream and
    /// C: `mc = 480`. `mc` sets the executed Strassen cutoff and the serve
    /// slot widths, so it stays on the floor.
    ///
    /// **The depth, which amortises the C epilogue.** Each kernel call
    /// ends by reading, merging and writing back an `mr × nr` C tile that,
    /// past L2, comes from LLC or DRAM. That is `16·mr·nr` bytes against
    /// the call's `2·mr·nr·kc` flops: `8 / kc` LLC bytes per flop, so
    /// the deeper the panel, the cheaper the epilogue. The depth stops
    /// where the packed `mc × kc` A block, re-read once per B sliver,
    /// would leave L2 beside the `kc × nr` sliver being swept:
    /// `kc · 8 · (mc + nr) ≤ L2`. Past that bound every call also streams
    /// its `mr × kc` A strip from LLC, `4 / nr` bytes per flop — as much as
    /// the epilogue costs at `kc = 2·nr` — so deeper is worse. On the
    /// 2 MiB host: `2 MiB / (8 · (480 + 32)) = 512`, against the floor's
    /// 136, so `dgemm` at n = 1024 merges each C tile twice instead of
    /// eight times (DESIGN §6f has the derivation and the measurements).
    /// The depth never drops below the floor and keeps the 512 cap.
    pub fn host_tuned_for_caches_and_tile(caches: &[CacheConfig], mr: usize, nr: usize) -> Self {
        assert!(mr > 0 && nr > 0, "register tile must be non-empty");
        let (l1, l2, l3) = capacities(caches);
        // floor: L1 holds the kc*nr B sliver and two kc*mr A strips.
        let floor = l1_depth(l1, mr, nr);
        // mc: a quarter of L2 holds mc*floor doubles, rounded to mr.
        let mc = aligned_clamp(l2 / (4 * 8 * floor), mr, mr, 512);
        // kc: L2 holds the mc*kc A block beside one kc*nr B sliver.
        let kc = aligned_clamp(l2 / (8 * (mc + nr)), 8, floor, 512);
        // nc: half of L3 holds kc*nc doubles, same cap as the base model.
        let nc = aligned_clamp(l3 / (2 * 8 * kc), nr, nr, 2048);
        BlockingParams { mc, kc, nc, mr, nr }
    }

    /// Derives parameters from a cache hierarchy for an explicit `mr × nr`
    /// register tile.
    ///
    /// Every clamp bound is aligned to the rounding multiple before it is
    /// applied, so the result always satisfies [`BlockingParams::validate`]
    /// even for degenerate hierarchies or tiles (like 8×6) whose size does
    /// not divide the nominal caps.
    pub fn for_caches_and_tile(caches: &[CacheConfig], mr: usize, nr: usize) -> Self {
        assert!(mr > 0 && nr > 0, "register tile must be non-empty");
        let (l1, l2, l3) = capacities(caches);
        // kc: half of L1 holds kc*(mr+nr) doubles.
        let kc = aligned_clamp(l1 / (2 * 8 * (mr + nr)), 8, 32, 512);
        // mc: half of L2 holds mc*kc doubles, rounded to mr.
        let mc = aligned_clamp(l2 / (2 * 8 * kc), mr, mr, 512);
        // nc: half of L3 holds kc*nc doubles, rounded to nr, capped to keep
        // task granularity reasonable.
        let nc = aligned_clamp(l3 / (2 * 8 * kc), nr, nr, 2048);
        BlockingParams { mc, kc, nc, mr, nr }
    }

    /// Validates invariants (all factors positive and register-tile
    /// aligned where required).
    pub fn validate(&self) -> Result<(), String> {
        if self.mr == 0 || self.nr == 0 {
            return Err(format!("zero register tile in {self:?}"));
        }
        if self.mc == 0 || self.kc == 0 || self.nc == 0 {
            return Err(format!("zero blocking factor in {self:?}"));
        }
        if !self.mc.is_multiple_of(self.mr) {
            return Err(format!("mc {} not a multiple of mr {}", self.mc, self.mr));
        }
        if !self.nc.is_multiple_of(self.nr) {
            return Err(format!("nc {} not a multiple of nr {}", self.nc, self.nr));
        }
        Ok(())
    }
}

impl Default for BlockingParams {
    /// The autotuned derivation (probed host hierarchy) for the
    /// runtime-selected kernel.
    fn default() -> Self {
        BlockingParams::autotuned_for(crate::kernel::select_kernel())
    }
}

/// The L1, L2 and L3 capacities of `caches`, defaulting missing levels
/// to 32 KiB, 256 KiB and 8 MiB.
fn capacities(caches: &[CacheConfig]) -> (usize, usize, usize) {
    let level = |i: usize, default: usize| caches.get(i).map_or(default, |c| c.size_bytes);
    (
        level(0, 32 * 1024),
        level(1, 256 * 1024),
        level(2, 8 * 1024 * 1024),
    )
}

/// The host-tuned depth floor: the deepest `kc` (a multiple of 8 in
/// `32..=512`) whose `kc × nr` B sliver fits an `l1`-byte L1 beside two
/// `mr × kc` A strips.
fn l1_depth(l1: usize, mr: usize, nr: usize) -> usize {
    aligned_clamp(l1 / (8 * (nr + 2 * mr)), 8, 32, 512)
}

/// Rounds `x` down to a positive multiple of `multiple`, then clamps it to
/// `[lo, hi]` with both bounds themselves aligned to `multiple` first (lo
/// rounds up, hi rounds down). Without the bound alignment, a clamp that
/// fires can break the multiple invariant — e.g. a 2048 cap is not a
/// multiple of nr = 6.
fn aligned_clamp(x: usize, multiple: usize, lo: usize, hi: usize) -> usize {
    let lo = lo.div_ceil(multiple).max(1) * multiple;
    let hi = ((hi / multiple) * multiple).max(lo);
    ((x / multiple).max(1) * multiple).clamp(lo, hi)
}

/// The host-tuned budgets every hierarchy must honour: the depth lies
/// between the L1 floor and the L2 bound of the A block beside one B
/// sliver (the floor wins where that bound falls below it), `mc` fills
/// a quarter of L2 at the floor's depth (plus one strip of slack for
/// the `mr` floor on degenerate hierarchies), and the B panel fits L3.
#[cfg(test)]
impl BlockingParams {
    /// Bytes of packing buffer needed for one A panel.
    pub(crate) fn packed_a_bytes(&self) -> usize {
        self.mc * self.kc * 8
    }

    /// Bytes of packing buffer needed for one B panel.
    pub(crate) fn packed_b_bytes(&self) -> usize {
        self.kc * self.nc * 8
    }
}

#[cfg(test)]
pub(crate) fn assert_host_tuned_budgets(h: &BlockingParams, caches: &[CacheConfig]) {
    let (l1, l2, l3) = capacities(caches);
    let (mr, nr) = (h.mr, h.nr);
    let floor = l1_depth(l1, mr, nr);
    assert!(h.kc >= floor, "kc below the L1 floor {floor}: {h:?}");
    assert!(
        h.kc == floor || h.kc * 8 * (h.mc + nr) <= l2,
        "A block + B sliver overflow L2: {h:?} vs l2={l2}"
    );
    assert!(h.kc <= 512, "{h:?}");
    assert!(
        h.mc * floor * 8 <= l2 / 4 + mr * floor * 8,
        "A quarter-budget overflow at the floor: {h:?} vs l2={l2}"
    );
    assert!(
        h.packed_b_bytes() <= l3,
        "B panel overflow: {h:?} vs l3={l3}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::select_kernel;
    use powerscale_cachesim::presets::e3_1225_caches;
    use proptest::prelude::*;

    #[test]
    fn default_params_valid_and_sized() {
        // Default params come from the host probe now, so exact values
        // vary by machine; the derivation's clamps still bound them.
        let p = BlockingParams::default();
        p.validate().unwrap();
        assert!((32..=512).contains(&p.kc), "kc={}", p.kc);
        assert!((8..=512).contains(&p.mc), "mc={}", p.mc);
        assert!((8..=2048).contains(&p.nc), "nc={}", p.nc);
        let k = select_kernel();
        assert_eq!((p.mr, p.nr), (k.mr, k.nr));
    }

    #[test]
    fn static_haswell_derivation_unchanged() {
        // The halves model on the paper's Haswell hierarchy, per tile
        // shape (the 8×6 row is the simulated machine's blocking).
        let p = BlockingParams::for_caches_and_tile(&e3_1225_caches(), 4, 4);
        assert_eq!((p.mc, p.kc, p.nc), (64, 256, 2048));
        let q = BlockingParams::for_caches_and_tile(&e3_1225_caches(), 8, 6);
        assert_eq!((q.mc, q.kc, q.nc), (112, 144, 2046));
    }

    #[test]
    fn host_tuned_derivation_on_known_hierarchies() {
        // The 48K/2M/260M host with the 6×32 AVX-512 tile: the L1 floor is
        // the B sliver beside two A strips (48K / (8·(32 + 12)) = 139 →
        // 136), packed A at that floor in a quarter of L2 (512K / (8·136)
        // = 481 → 480), and the depth the A block beside one B sliver in
        // L2 (2M / (8·(480 + 32)) = 512).
        let host = [
            CacheConfig::new(48 * 1024, 64, 768),
            CacheConfig::new(2048 * 1024, 64, 32768),
            CacheConfig::new(266240 * 1024, 64, 266240 * 16),
        ];
        let p = BlockingParams::host_tuned_for_caches_and_tile(&host, 6, 32);
        assert_eq!((p.mc, p.kc, p.nc), (480, 512, 2048));
        // The other tiers on that hierarchy: AVX2 6×8 (floor 48K / (8·20)
        // = 307 → 304, mc 210, depth at the 512 cap), scalar 4×4 (floor at
        // the 512 cap, mc 128), f32 AVX-512 6×64 (budgeted in doubles:
        // floor 80, mc at its 512 cap rounded to 6, depth 2M / (8·574) =
        // 456). `mc` is the floor's in every row, as before the depth rule.
        let shapes = [
            ((6, 8), (210, 512, 2048)),
            ((4, 4), (128, 512, 2048)),
            ((6, 64), (510, 456, 2048)),
        ];
        for ((mr, nr), want) in shapes {
            let q = BlockingParams::host_tuned_for_caches_and_tile(&host, mr, nr);
            assert_eq!((q.mc, q.kc, q.nc), want, "tile {mr}x{nr}");
        }
        // The tuned model must still honour its own budgets for every
        // dispatchable tile shape on that hierarchy.
        for (mr, nr) in [(4usize, 4usize), (6, 8), (6, 16), (6, 32), (6, 64)] {
            let q = BlockingParams::host_tuned_for_caches_and_tile(&host, mr, nr);
            q.validate().unwrap();
            assert_host_tuned_budgets(&q, &host);
        }
        // Falls back to the same defaults as the base model when the
        // hierarchy is underspecified.
        BlockingParams::host_tuned_for_caches_and_tile(&[], 6, 8)
            .validate()
            .unwrap();
    }

    #[test]
    fn fits_cache_budgets() {
        let caches = e3_1225_caches();
        let k = select_kernel();
        let p = BlockingParams::for_caches_and_tile(&caches, k.mr, k.nr);
        // Packed A panel within L2; packed B panel within L3.
        assert!(p.packed_a_bytes() <= caches[1].size_bytes);
        assert!(p.packed_b_bytes() <= caches[2].size_bytes);
        // The L1 sliver constraint.
        assert!(p.kc * 8 * (p.mr + p.nr) <= caches[0].size_bytes);
    }

    #[test]
    fn degenerate_hierarchy_still_valid() {
        let k = select_kernel();
        let p = BlockingParams::for_caches_and_tile(&[], k.mr, k.nr);
        p.validate().unwrap();
        let one = BlockingParams::for_caches_and_tile(&[CacheConfig::new(4096, 64, 1)], k.mr, k.nr);
        one.validate().unwrap();
        // A tiny L1/L2 pair with a 6-column tile used to trip the
        // unaligned 2048 cap path on large L3 values.
        let tiny = BlockingParams::for_caches_and_tile(
            &[
                CacheConfig::new(1024, 64, 1),
                CacheConfig::new(2048, 64, 2),
                CacheConfig::new(512 * 1024 * 1024, 64, 16),
            ],
            8,
            6,
        );
        tiny.validate().unwrap();
    }

    #[test]
    fn validate_catches_misalignment() {
        let bad = BlockingParams {
            mc: 13,
            kc: 64,
            nc: 64,
            mr: 4,
            nr: 4,
        };
        assert!(bad.validate().is_err());
        let zero = BlockingParams {
            mc: 0,
            kc: 64,
            nc: 64,
            mr: 4,
            nr: 4,
        };
        assert!(zero.validate().is_err());
        let bad_nc = BlockingParams {
            mc: 48,
            kc: 64,
            nc: 2048,
            mr: 8,
            nr: 6,
        };
        assert!(bad_nc.validate().is_err());
    }

    #[test]
    fn smaller_caches_give_smaller_blocks() {
        let k = select_kernel();
        let small = BlockingParams::for_caches_and_tile(
            &[
                CacheConfig::new(8 * 1024, 64, 2),
                CacheConfig::new(64 * 1024, 64, 4),
                CacheConfig::new(1024 * 1024, 64, 8),
            ],
            k.mr,
            k.nr,
        );
        let big = BlockingParams::for_caches_and_tile(&e3_1225_caches(), k.mr, k.nr);
        assert!(small.kc <= big.kc);
        assert!(small.packed_b_bytes() <= big.packed_b_bytes());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_hierarchies_always_validate(
            l1_shift in 0usize..7,
            l2_shift in 0usize..7,
            l3_shift in 0usize..10,
            tile_idx in 0usize..5,
        ) {
            // Random (possibly absurd) cache hierarchies crossed with every
            // register-tile shape the dispatcher can pick: the derived
            // parameters must always satisfy validate(), and the packed
            // panel sizes must be positive. Sizes stay powers of two so the
            // cachesim geometry (power-of-two set counts) accepts them.
            let tiles = [(4usize, 4usize), (8, 6), (6, 8), (6, 32), (6, 64)];
            let (mr, nr) = tiles[tile_idx];
            let l1 = 1024usize << l1_shift;
            let l2 = l1 << l2_shift;
            let l3 = l2 << l3_shift;
            let caches = [
                CacheConfig::new(l1, 64, 2),
                CacheConfig::new(l2, 64, 4),
                CacheConfig::new(l3, 64, 8),
            ];
            let p = BlockingParams::for_caches_and_tile(&caches, mr, nr);
            prop_assert!(p.validate().is_ok(), "invalid params {p:?} for l1={l1} l2={l2} l3={l3}");
            prop_assert!(p.packed_a_bytes() > 0);
            prop_assert!(p.packed_b_bytes() > 0);
            prop_assert!(p.mc >= mr && p.nc >= nr && p.kc >= 8);
            // On realistically-sized hierarchies (L1 ≥ 16 KiB and deep
            // enough for the 32-deep kc floor of this tile; monotone
            // levels — which this generator guarantees) no lower clamp can
            // bind, so the derived factors must honour the Goto budgets:
            // kc-sliver in L1, packed A panel in L2, packed B panel in L3.
            let realistic = |floor_bytes: usize| l1 >= (16 * 1024).max(floor_bytes);
            if realistic(32 * 2 * 8 * (mr + nr)) {
                prop_assert!(
                    p.kc * 8 * (mr + nr) <= l1,
                    "L1 sliver overflow: {p:?} vs l1={l1}"
                );
                prop_assert!(p.packed_a_bytes() <= l2, "A panel overflow: {p:?} vs l2={l2}");
                prop_assert!(p.packed_b_bytes() <= l3, "B panel overflow: {p:?} vs l3={l3}");
            }
            // The host-tuned variant obeys its own budgets on the same
            // hierarchies: the depth between the L1 floor (whose sliver
            // fits L1 here) and the L2 bound, mc in a quarter of L2 at the
            // floor's depth, the B panel in L3.
            let h = BlockingParams::host_tuned_for_caches_and_tile(&caches, mr, nr);
            prop_assert!(h.validate().is_ok(), "invalid host-tuned {h:?}");
            if realistic(32 * 8 * (nr + 2 * mr)) {
                let floor = l1_depth(l1, mr, nr);
                prop_assert!(
                    floor * 8 * (nr + 2 * mr) <= l1,
                    "L1 sliver overflow at the floor: {h:?} vs l1={l1}"
                );
                assert_host_tuned_budgets(&h, &caches);
            }
        }
    }
}
