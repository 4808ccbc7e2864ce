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
//! Reproducibility overrides, read once per process (a variable that is
//! set but empty counts as unset):
//!
//! * `POWERSCALE_CACHES=32K,1M,8M` — replace the probed hierarchy with
//!   explicit L1/L2/L3 capacities (suffixes `K`/`M`/`G`, case-insensitive).
//!   CI uses this to run the differential suite under a synthetic
//!   tiny-cache hierarchy.
//! * `POWERSCALE_BLOCKING=mc,kc,nc` — bypass the derivation entirely and
//!   pin the blocking factors (they must still align to the selected
//!   kernel's tile; misalignment panics with the validator's message).
//!
//! Both the probe result and the parsed overrides are cached in
//! `OnceLock`s: repeated calls are deterministic and free, and every
//! `GemmContext` in the process sees the same hierarchy.

use powerscale_cachesim::CacheConfig;
use std::path::Path;
use std::sync::OnceLock;

/// A capacity with an optional binary suffix: `48K`, `2m`, `1G`, `262144`.
pub fn parse_size(s: &str) -> Option<usize> {
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

/// A comma-separated capacity list (`32K,1M,8M`, L1 first) as a cache
/// hierarchy — the `POWERSCALE_CACHES` override format.
pub fn parse_cache_list(s: &str) -> Option<Vec<CacheConfig>> {
    let levels: Option<Vec<CacheConfig>> = s
        .split(',')
        .map(|part| parse_size(part).map(|b| fully_associative(b, 64)))
        .collect();
    levels.filter(|v| !v.is_empty())
}

/// A `mc,kc,nc` triple — the `POWERSCALE_BLOCKING` override format.
pub fn parse_blocking(s: &str) -> Option<(usize, usize, usize)> {
    let mut it = s.split(',').map(|p| p.trim().parse::<usize>().ok());
    let (mc, kc, nc) = (it.next()??, it.next()??, it.next()??);
    if it.next().is_some() || mc == 0 || kc == 0 || nc == 0 {
        return None;
    }
    Some((mc, kc, nc))
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
pub fn probe_sysfs(root: &Path) -> Option<Vec<CacheConfig>> {
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

/// Resolves one override variable: unset, or set but empty (what a CI
/// matrix cell or `env VAR= cmd` produces), is no override; anything else
/// must parse.
///
/// # Panics
/// Panics on a non-empty value `parse` rejects — a silent fallback would
/// defeat the override's reproducibility purpose.
fn parse_override<T>(
    name: &str,
    value: Option<&str>,
    parse: impl Fn(&str) -> Option<T>,
    expected: &str,
) -> Option<T> {
    let spec = value.filter(|v| !v.trim().is_empty())?;
    Some(parse(spec).unwrap_or_else(|| panic!("{name} {spec:?} invalid: expected {expected}")))
}

/// [`parse_override`] on the process environment.
fn env_override<T>(name: &str, parse: impl Fn(&str) -> Option<T>, expected: &str) -> Option<T> {
    parse_override(name, std::env::var(name).ok().as_deref(), parse, expected)
}

static HOST_CACHES: OnceLock<Vec<CacheConfig>> = OnceLock::new();

/// The hierarchy every autotuned derivation uses, resolved once per
/// process: the `POWERSCALE_CACHES` override if set (and non-empty), else
/// the sysfs probe, else the paper's Haswell preset.
///
/// # Panics
/// Panics when `POWERSCALE_CACHES` is non-empty but unparsable.
pub fn host_caches() -> &'static [CacheConfig] {
    HOST_CACHES.get_or_init(|| {
        env_override(
            "POWERSCALE_CACHES",
            parse_cache_list,
            "comma-separated capacities like 32K,1M,8M",
        )
        .or_else(|| probe_sysfs(Path::new("/sys/devices/system/cpu")))
        .unwrap_or_else(powerscale_cachesim::presets::e3_1225_caches)
    })
}

static BLOCKING_OVERRIDE: OnceLock<Option<(usize, usize, usize)>> = OnceLock::new();

/// The `POWERSCALE_BLOCKING` pin, parsed once per process (unset or empty:
/// none).
///
/// # Panics
/// Panics when the variable is non-empty but not a positive `mc,kc,nc`
/// triple.
pub fn blocking_override() -> Option<(usize, usize, usize)> {
    *BLOCKING_OVERRIDE.get_or_init(|| {
        env_override(
            "POWERSCALE_BLOCKING",
            parse_blocking,
            "mc,kc,nc (all positive)",
        )
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
    fn override_formats_round_trip() {
        // The env readers cache in OnceLocks, so the round-trip property
        // is tested on the pure parsers they delegate to.
        let caches = parse_cache_list("32K,1M,8M").unwrap();
        assert_eq!(
            caches.iter().map(|c| c.size_bytes).collect::<Vec<_>>(),
            vec![32 * 1024, 1024 * 1024, 8 * 1024 * 1024]
        );
        let (mc, kc, nc) = (96, 256, 4092);
        assert_eq!(
            parse_blocking(&format!("{mc},{kc},{nc}")),
            Some((mc, kc, nc))
        );
        assert_eq!(parse_blocking("96,256"), None);
        assert_eq!(parse_blocking("96,0,12"), None);
        assert_eq!(parse_cache_list(""), None);
        assert_eq!(parse_cache_list("32K,nope"), None);
    }

    #[test]
    fn set_but_empty_overrides_are_unset() {
        // `POWERSCALE_BLOCKING= cmd` and an empty CI matrix cell export
        // the variable with no value: that is "no override", not garbage.
        for empty in [None, Some(""), Some("  ")] {
            assert_eq!(
                parse_override("POWERSCALE_BLOCKING", empty, parse_blocking, "mc,kc,nc"),
                None
            );
            assert_eq!(
                parse_override("POWERSCALE_CACHES", empty, parse_cache_list, "capacities"),
                None
            );
        }
        assert_eq!(
            parse_override(
                "POWERSCALE_BLOCKING",
                Some("96,256,4092"),
                parse_blocking,
                "mc,kc,nc"
            ),
            Some((96, 256, 4092))
        );
    }

    #[test]
    #[should_panic(expected = "POWERSCALE_CACHES \"32K,nope\" invalid")]
    fn non_empty_garbage_override_still_panics() {
        parse_override(
            "POWERSCALE_CACHES",
            Some("32K,nope"),
            parse_cache_list,
            "capacities",
        );
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
            if crate::autotune::blocking_override().is_some() {
                continue; // pinned externally; budget claims do not apply
            }
            crate::blocking::assert_host_tuned_budgets(&p, first);
        }
    }
}
