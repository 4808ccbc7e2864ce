//! The powercap-sysfs backend.
//!
//! Linux exposes RAPL through `/sys/class/powercap/intel-rapl/`:
//! `intel-rapl:0/` is the package domain, with `intel-rapl:0:N/`
//! sub-domains (core, uncore, dram). Each directory holds `name` and
//! `energy_uj` (microjoules, already unit-scaled by the kernel) plus
//! `max_energy_range_uj`, the value at which `energy_uj` wraps to zero.
//!
//! The reader takes the tree root as a parameter, so tests inject a fake
//! tree and CI machines without RAPL simply get an empty domain list
//! rather than an error. A zone whose `energy_uj` exists but cannot be
//! read is not a domain: since the CVE-2020-8694 fix the file is readable
//! by root only (the paper had to grant its binaries MSR access
//! explicitly, §V-B), and discovery lists such zones apart, in
//! [`SysfsReader::unreadable_domains`].

use crate::counter::RaplUnits;
use crate::domain::Domain;
use crate::EnergyReader;
use std::path::{Path, PathBuf};

/// The canonical tree root on Linux.
pub(crate) const DEFAULT_ROOT: &str = "/sys/class/powercap/intel-rapl";

/// One readable powercap domain directory and its delta state.
#[derive(Debug, Clone)]
struct Zone {
    domain: Domain,
    energy_file: PathBuf,
    /// The counter's modulus: `max_energy_range_uj + 1`.
    range_uj: u64,
    /// The last `energy_uj` read; `None` before the first good read.
    last_uj: Option<u64>,
    /// Microjoules integrated from the first good read on, starting at
    /// that reading.
    total_uj: u64,
}

impl Zone {
    /// Folds a new `energy_uj` reading into the running total. The kernel
    /// counter runs `0..=max_energy_range_uj` and then restarts at zero,
    /// so a reading below the last one crossed the top once.
    fn advance(&mut self, uj: u64) {
        self.total_uj = match self.last_uj {
            None => uj,
            Some(last) if uj >= last => self.total_uj.wrapping_add(uj - last),
            Some(last) => self
                .total_uj
                .wrapping_add(self.range_uj.wrapping_sub(last).wrapping_add(uj)),
        };
        self.last_uj = Some(uj);
    }
}

/// An [`EnergyReader`] over a powercap sysfs tree.
#[derive(Debug, Clone)]
pub struct SysfsReader {
    zones: Vec<Zone>,
    unreadable: Vec<Domain>,
}

/// The contents of a counter file as a number.
fn read_u64(path: &Path) -> Option<u64> {
    std::fs::read_to_string(path).ok()?.trim().parse().ok()
}

impl SysfsReader {
    /// Scans the default system location. Returns a reader with no domains
    /// when RAPL is absent or unreadable.
    pub fn system() -> Self {
        Self::from_root(Path::new(DEFAULT_ROOT))
    }

    /// Scans an explicit tree root (used by tests and containers).
    pub fn from_root(root: &Path) -> Self {
        let mut reader = SysfsReader {
            zones: Vec::new(),
            unreadable: Vec::new(),
        };
        let Ok(entries) = std::fs::read_dir(root) else {
            return reader;
        };
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("intel-rapl:"))
            })
            .collect();
        dirs.sort();
        // Package dirs contain sub-zones; scan both levels.
        let mut all = Vec::new();
        for d in dirs {
            if let Ok(subs) = std::fs::read_dir(&d) {
                for s in subs.filter_map(|e| e.ok().map(|e| e.path())) {
                    if s.is_dir()
                        && s.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with("intel-rapl:"))
                    {
                        all.push(s);
                    }
                }
            }
            all.push(d);
        }
        for dir in all {
            let Ok(name) = std::fs::read_to_string(dir.join("name")) else {
                continue;
            };
            let Some(domain) = Domain::from_sysfs_name(&name) else {
                continue;
            };
            let energy_file = dir.join("energy_uj");
            // A zone without a range cannot take a wrap-correct delta.
            let Some(max_uj) = read_u64(&dir.join("max_energy_range_uj")) else {
                continue;
            };
            // The first zone naming a domain decides it.
            if !energy_file.exists()
                || reader.domains().contains(&domain)
                || reader.unreadable.contains(&domain)
            {
                continue;
            }
            if std::fs::read_to_string(&energy_file).is_err() {
                reader.unreadable.push(domain);
                continue;
            }
            reader.zones.push(Zone {
                domain,
                energy_file,
                range_uj: max_uj.wrapping_add(1),
                last_uj: None,
                total_uj: 0,
            });
        }
        reader
    }

    /// `true` when at least one domain was found.
    pub fn is_available(&self) -> bool {
        !self.zones.is_empty()
    }

    /// Domains whose `energy_uj` is present but could not be read at
    /// discovery (root-only since CVE-2020-8694). They are not in
    /// [`EnergyReader::domains`].
    pub fn unreadable_domains(&self) -> &[Domain] {
        &self.unreadable
    }
}

impl EnergyReader for SysfsReader {
    fn domains(&self) -> Vec<Domain> {
        self.zones.iter().map(|z| z.domain).collect()
    }

    fn read_raw(&mut self, domain: Domain) -> Option<u32> {
        let esu = self.units().esu_exponent;
        let zone = self.zones.iter_mut().find(|z| z.domain == domain)?;
        zone.advance(read_u64(&zone.energy_file)?);
        // Convert the integrated microjoules to the raw tick domain so
        // downstream code is backend-agnostic. Integer math throughout: a
        // u64 microjoule count exceeds f64's 53-bit mantissa after ~104
        // days of counting, and the low bits we'd lose are exactly the
        // ones wrap-corrected deltas depend on. ticks = uj * 2^esu / 1e6,
        // wrapped into 32 bits; the meter's counter undoes that wrap.
        let ticks = ((zone.total_uj as u128) << esu) / 1_000_000;
        Some((ticks & 0xFFFF_FFFF) as u32)
    }

    fn units(&self) -> RaplUnits {
        RaplUnits::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnergyMeter;
    use std::fs;

    /// The `max_energy_range_uj` of a Haswell package: 2^32 ticks of
    /// 61.035 µJ, rounded down by the kernel.
    const MAX_UJ: u64 = 262_143_328_850;

    fn fake_tree(root: &Path, zones: &[(&str, &str, u64)]) {
        for (dir, name, uj) in zones {
            let d = root.join(dir);
            fs::create_dir_all(&d).unwrap();
            fs::write(d.join("name"), name).unwrap();
            fs::write(d.join("energy_uj"), uj.to_string()).unwrap();
            fs::write(d.join("max_energy_range_uj"), MAX_UJ.to_string()).unwrap();
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("powerscale-rapl-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn parses_fake_tree() {
        let root = tmpdir("parse");
        fake_tree(
            &root,
            &[
                ("intel-rapl:0", "package-0", 1_000_000),
                ("intel-rapl:0/intel-rapl:0:0", "core", 600_000),
                ("intel-rapl:0/intel-rapl:0:1", "dram", 150_000),
            ],
        );
        let mut r = SysfsReader::from_root(&root);
        assert!(r.is_available());
        let mut doms = r.domains();
        doms.sort();
        assert_eq!(doms, vec![Domain::Package, Domain::PP0, Domain::Dram]);
        // 1 J in raw ticks.
        let raw = r.read_raw(Domain::Package).unwrap();
        let j = r.units().raw_to_joules(raw);
        assert!((j - 1.0).abs() < 1e-3);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn energy_delta_tracks_file_updates() {
        let root = tmpdir("delta");
        fake_tree(&root, &[("intel-rapl:0", "package-0", 0)]);
        let mut r = SysfsReader::from_root(&root);
        let r0 = r.read_raw(Domain::Package).unwrap();
        fs::write(root.join("intel-rapl:0/energy_uj"), "2500000").unwrap();
        let r1 = r.read_raw(Domain::Package).unwrap();
        let j = r.units().raw_to_joules(r1.wrapping_sub(r0));
        assert!((j - 2.5).abs() < 1e-3);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn wrap_at_max_energy_range_is_exact() {
        // The counter wraps to 0 after `max_energy_range_uj`, not after
        // 2^32 ticks: a delta taken modulo the range is exact across the
        // wrap, where one taken modulo 2^32 ticks over-counts by the
        // 10 996 ticks (~0.67 J) between the two.
        let root = tmpdir("wrap");
        let start = MAX_UJ - 999_999;
        fake_tree(&root, &[("intel-rapl:0", "package-0", start)]);
        let file = root.join("intel-rapl:0/energy_uj");
        let mut r = SysfsReader::from_root(&root);
        let mut m = EnergyMeter::start(&mut r);
        // Four 0.5 J steps; the second lands on the wrap at 0.
        for k in 1..=4 {
            fs::write(&file, ((start + k * 500_000) % (MAX_UJ + 1)).to_string()).unwrap();
            m.sample(&mut r);
        }
        let report = m.finish(&mut r, 1.0);
        let j = report.joules_for(Domain::Package).unwrap();
        assert!((j - 2.0).abs() <= r.units().joules_per_tick(), "j = {j}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unreadable_energy_file_is_listed_apart() {
        // Since the CVE-2020-8694 fix `energy_uj` is root-only. Tests run
        // as root, so a chmod proves nothing here; an `energy_uj` that is
        // a directory is present and unreadable the same way.
        let root = tmpdir("unreadable");
        fake_tree(&root, &[("intel-rapl:0/intel-rapl:0:0", "core", 5)]);
        let pkg = root.join("intel-rapl:0");
        fs::write(pkg.join("name"), "package-0").unwrap();
        fs::write(pkg.join("max_energy_range_uj"), MAX_UJ.to_string()).unwrap();
        fs::create_dir_all(pkg.join("energy_uj")).unwrap();
        let r = SysfsReader::from_root(&root);
        assert_eq!(r.domains(), vec![Domain::PP0]);
        assert_eq!(r.unreadable_domains(), &[Domain::Package]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_tree_is_graceful() {
        let r = SysfsReader::from_root(Path::new("/nonexistent/powercap"));
        assert!(!r.is_available());
        assert!(r.domains().is_empty());
    }

    #[test]
    fn truncated_tree_skips_bad_zones() {
        let root = tmpdir("trunc");
        // Zone without an energy file, zone with garbage name.
        let d1 = root.join("intel-rapl:0");
        fs::create_dir_all(&d1).unwrap();
        fs::write(d1.join("name"), "package-0").unwrap(); // no energy_uj
        let d2 = root.join("intel-rapl:1");
        fs::create_dir_all(&d2).unwrap();
        fs::write(d2.join("name"), "mystery").unwrap();
        fs::write(d2.join("energy_uj"), "1").unwrap();
        // Zone without a wrap range.
        let d3 = root.join("intel-rapl:2");
        fs::create_dir_all(&d3).unwrap();
        fs::write(d3.join("name"), "dram").unwrap();
        fs::write(d3.join("energy_uj"), "1").unwrap();
        let r = SysfsReader::from_root(&root);
        assert!(!r.is_available());
        assert!(r.unreadable_domains().is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn huge_counter_keeps_tick_precision() {
        // Near u64::MAX microjoules, the old u64 → f64 → ticks round trip
        // lost the low ~10 bits (f64 has a 53-bit mantissa; the value needs
        // 63), corrupting exactly the small deltas wrap correction relies
        // on. Integer conversion must keep a ~61 µJ (1-tick) step visible.
        let root = tmpdir("huge");
        let base: u64 = (1 << 62) + 123_456_789; // ~4.6e18 µJ
        fake_tree(&root, &[("intel-rapl:0", "package-0", base)]);
        let mut r = SysfsReader::from_root(&root);
        let r0 = r.read_raw(Domain::Package).unwrap();
        fs::write(root.join("intel-rapl:0/energy_uj"), (base + 62).to_string()).unwrap();
        let r1 = r.read_raw(Domain::Package).unwrap();
        let delta = r1.wrapping_sub(r0);
        // 62 µJ at 2^-14 J/tick is ~1.016 ticks; rounding puts it at 1 ± 1.
        assert!(delta <= 2, "delta = {delta} ticks, precision lost");
        assert!(delta >= 1, "delta = {delta} ticks, step invisible");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unparsable_energy_returns_none() {
        let root = tmpdir("garbage");
        fake_tree(&root, &[("intel-rapl:0", "package-0", 1)]);
        fs::write(root.join("intel-rapl:0/energy_uj"), "not-a-number").unwrap();
        let mut r = SysfsReader::from_root(&root);
        assert_eq!(r.read_raw(Domain::Package), None);
        let _ = fs::remove_dir_all(&root);
    }
}
