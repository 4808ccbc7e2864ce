//! Startup cache autotuning: probe the host's real cache hierarchy once
//! per process and derive the Goto blocking factors from it, instead of
//! hard-coding the paper's Haswell constants.
//!
//! The probe reads `/sys/devices/system/cpu/cpu0/cache/index*/` (level,
//! type, size, line size), keeping the data/unified caches of levels 1–3.
//! Geometries are normalised to fully-associative (`ways = size / line`,
//! one set) because the blocking derivation only consumes capacities and
//! sysfs capacities (e.g. a 260 MiB shared L3) rarely form the
//! power-of-two set counts [`CacheConfig::new`] demands. When sysfs is
//! absent (macOS, wasm, sandboxes) the probe falls back to the paper's
//! Haswell preset, so behaviour is unchanged from the static constants.
//!
//! The probe result is cached in a `OnceLock`: repeated calls are
//! deterministic and free, and every `GemmContext` in the process sees the
//! same hierarchy. Nothing else feeds it. Other blocking is a value: build
//! [`BlockingParams`](crate::BlockingParams) from any hierarchy
//! ([`hierarchy`] makes one from capacities) or by hand, and set it as
//! `GemmContext::params`.

use powerscale_cachesim::CacheConfig;
use std::path::Path;
use std::sync::OnceLock;

/// A capacity with an optional binary suffix: `48K`, `2m`, `1G`, `262144`.
pub(crate) fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1024),
        b'm' | b'M' => (&s[..s.len() - 1], 1024 * 1024),
        b'g' | b'G' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    let n: usize = digits.trim().parse().ok()?;
    n.checked_mul(mult).filter(|&b| b > 0)
}

/// A cache hierarchy of the given capacities in bytes (L1 first), each
/// level normalised with 64-byte lines as the probe normalises sysfs
/// sizes.
pub fn hierarchy(capacities: &[usize]) -> Vec<CacheConfig> {
    capacities
        .iter()
        .map(|&b| fully_associative(b, 64))
        .collect()
}

/// Normalises a capacity to a valid fully-associative [`CacheConfig`]:
/// one set, `size / line` ways. The blocking derivation reads only
/// `size_bytes`, and this shape accepts any line-aligned capacity —
/// probed sizes need not satisfy set-count power-of-two constraints.
fn fully_associative(size_bytes: usize, line_bytes: usize) -> CacheConfig {
    let line = if line_bytes.is_power_of_two() && line_bytes > 0 {
        line_bytes
    } else {
        64
    };
    let size = (size_bytes - size_bytes % line).max(line);
    CacheConfig::new(size, line, size / line)
}

/// Reads the cache hierarchy below `root` (normally
/// `/sys/devices/system/cpu`): every `cpu0/cache/index*` directory whose
/// type is `Data` or `Unified` and whose level is 1–3, largest capacity
/// winning per level. Returns `None` when no L1 data cache can be read —
/// callers fall back to the Haswell preset.
///
/// The probe is pure directory reading, so repeated calls on the same
/// tree return identical hierarchies.
pub(crate) fn probe_sysfs(root: &Path) -> Option<Vec<CacheConfig>> {
    let cache_dir = root.join("cpu0/cache");
    let mut levels: [Option<(usize, usize)>; 3] = [None; 3];
    for entry in std::fs::read_dir(&cache_dir).ok()?.flatten() {
        if !entry.file_name().to_string_lossy().starts_with("index") {
            continue;
        }
        let path = entry.path();
        let read = |f: &str| -> Option<String> {
            std::fs::read_to_string(path.join(f))
                .ok()
                .map(|s| s.trim().to_string())
        };
        let Some(ty) = read("type") else { continue };
        if ty != "Data" && ty != "Unified" {
            continue;
        }
        let Some(level) = read("level").and_then(|s| s.parse::<usize>().ok()) else {
            continue;
        };
        if !(1..=3).contains(&level) {
            continue;
        }
        let Some(size) = read("size").and_then(|s| parse_size(&s)) else {
            continue;
        };
        let line = read("coherency_line_size")
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(64);
        let slot = &mut levels[level - 1];
        if slot.is_none_or(|(prev, _)| size > prev) {
            *slot = Some((size, line));
        }
    }
    levels[0]?;
    Some(
        levels
            .iter()
            .flatten()
            .map(|&(size, line)| fully_associative(size, line))
            .collect(),
    )
}

static HOST_CACHES: OnceLock<Vec<CacheConfig>> = OnceLock::new();

/// The hierarchy every autotuned derivation uses, probed once per
/// process: the sysfs hierarchy, else the paper's Haswell preset.
pub fn host_caches() -> &'static [CacheConfig] {
    HOST_CACHES.get_or_init(|| {
        probe_sysfs(Path::new("/sys/devices/system/cpu"))
            .unwrap_or_else(powerscale_cachesim::presets::e3_1225_caches)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::BlockingParams;

    #[test]
    fn size_suffixes_parse() {
        assert_eq!(parse_size("48K"), Some(48 * 1024));
        assert_eq!(parse_size("2m"), Some(2 * 1024 * 1024));
        assert_eq!(parse_size("1G"), Some(1 << 30));
        assert_eq!(parse_size(" 262144 "), Some(262144));
        assert_eq!(parse_size("266240K"), Some(266240 * 1024));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("K"), None);
        assert_eq!(parse_size("12Q"), None);
        assert_eq!(parse_size("0"), None);
    }

    #[test]
    fn hierarchy_takes_capacities_l1_first() {
        let caches = hierarchy(&[32 << 10, 1 << 20, 8 << 20]);
        assert_eq!(
            caches.iter().map(|c| c.size_bytes).collect::<Vec<_>>(),
            vec![32 << 10, 1 << 20, 8 << 20]
        );
        assert!(caches.iter().all(|c| c.num_sets() == 1));
    }

    #[test]
    fn odd_capacities_normalise_to_valid_geometry() {
        // A 260 MiB shared L3 (266240K, a real server value) has no
        // power-of-two set count at any sane associativity; the
        // fully-associative normalisation must accept it — and anything
        // else line-aligned — without panicking.
        for bytes in [266240 * 1024, 48 * 1024, 64, 100] {
            let c = fully_associative(bytes, 64);
            assert_eq!(c.num_sets(), 1);
            assert!(c.size_bytes >= 64 && c.size_bytes <= bytes.max(64));
        }
    }

    #[test]
    fn sysfs_probe_reads_fixture_tree_deterministically() {
        let root = std::env::temp_dir().join(format!("powerscale-autotune-{}", std::process::id()));
        let cache = root.join("cpu0/cache");
        let mk = |idx: usize, level: &str, ty: &str, size: &str| {
            let d = cache.join(format!("index{idx}"));
            std::fs::create_dir_all(&d).unwrap();
            std::fs::write(d.join("level"), level).unwrap();
            std::fs::write(d.join("type"), ty).unwrap();
            std::fs::write(d.join("size"), size).unwrap();
            std::fs::write(d.join("coherency_line_size"), "64").unwrap();
        };
        mk(0, "1", "Data", "48K");
        mk(1, "1", "Instruction", "32K"); // must be ignored
        mk(2, "2", "Unified", "2048K");
        mk(3, "3", "Unified", "266240K");
        let first = probe_sysfs(&root).unwrap();
        let again = probe_sysfs(&root).unwrap();
        assert_eq!(first, again, "probe must be deterministic");
        assert_eq!(
            first.iter().map(|c| c.size_bytes).collect::<Vec<_>>(),
            vec![48 * 1024, 2048 * 1024, 266240 * 1024]
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn probe_without_l1_falls_back() {
        let root =
            std::env::temp_dir().join(format!("powerscale-autotune-empty-{}", std::process::id()));
        std::fs::create_dir_all(root.join("cpu0/cache")).unwrap();
        assert!(probe_sysfs(&root).is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn host_hierarchy_is_cached_and_autotuned_params_fit_it() {
        let first = host_caches();
        let again = host_caches();
        assert_eq!(first.as_ptr(), again.as_ptr(), "probe must run once");
        assert!(!first.is_empty());
        // Every dispatchable kernel gets parameters honouring the
        // host-tuned budgets on the real host hierarchy: the depth between
        // the L1 floor and the L2 bound, mc in a quarter of L2 at the floor.
        for kernel in crate::kernel::available_kernels() {
            let p = BlockingParams::autotuned_for(kernel);
            p.validate().unwrap();
            assert_eq!((p.mr, p.nr), (kernel.mr, kernel.nr));
            crate::blocking::assert_host_tuned_budgets(&p, first);
        }
    }

    #[test]
    fn every_kernel_fits_the_budgets_of_the_tiny_hierarchy() {
        // The same budgets with the tiny hierarchy as the input: the
        // derivation must not rely on host-sized caches.
        let tiny = hierarchy(&crate::blocking::TINY_CACHES);
        for kernel in crate::kernel::available_kernels() {
            let p = BlockingParams::host_tuned_for_caches_and_tile(&tiny, kernel.mr, kernel.nr);
            p.validate().unwrap();
            crate::blocking::assert_host_tuned_budgets(&p, &tiny);
        }
    }
}
