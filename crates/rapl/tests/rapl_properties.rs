//! Property-based tests for RAPL counter arithmetic, the meter, and the
//! meter over the sysfs backend's wraps and read errors.

use powerscale_rapl::model::ModelReader;
use powerscale_rapl::sysfs::SysfsReader;
use powerscale_rapl::{Domain, EnergyCounter, EnergyMeter, EnergyReader, RaplUnits};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The fixture counter's `max_energy_range_uj` (a Haswell package's).
const MAX_UJ: u64 = 262_143_328_850;

/// A fresh powercap tree with one zone per `(dir, name)`, each counter at
/// `uj`; removed on drop.
struct Tree(PathBuf);

impl Tree {
    fn new(zones: &[(&str, &str)], uj: u64) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "powerscale-rapl-prop-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&root);
        for (dir, name) in zones {
            let d = root.join(dir);
            fs::create_dir_all(&d).unwrap();
            fs::write(d.join("name"), name).unwrap();
            fs::write(d.join("energy_uj"), uj.to_string()).unwrap();
            fs::write(d.join("max_energy_range_uj"), MAX_UJ.to_string()).unwrap();
        }
        Tree(root)
    }

    fn energy_file(&self, dir: &str) -> PathBuf {
        self.0.join(dir).join("energy_uj")
    }

    fn root(&self) -> &Path {
        &self.0
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// One tick of slack (plus float dust): the meter sees the integrated
/// microjoules floored to whole ticks at both ends.
fn tick_slack() -> f64 {
    RaplUnits::default().joules_per_tick() * 1.0001
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn raw_joule_round_trip(esu in 10u8..20, joules in 0.0f64..50_000.0) {
        let u = RaplUnits { esu_exponent: esu };
        let raw = u.joules_to_raw_wrapping(joules);
        let back = u.raw_to_joules(raw);
        // Within one tick, modulo the wrap range.
        let wrap = u.wrap_joules();
        let diff = (back - joules % wrap).abs();
        prop_assert!(diff <= 2.0 * u.joules_per_tick(), "diff {diff}");
    }

    #[test]
    fn counter_accumulates_any_delta_sequence(
        start in any::<u32>(),
        deltas in proptest::collection::vec(0u32..100_000_000, 1..50)
    ) {
        // Feed a sequence of raw increments (with wrapping); the counter
        // must accumulate exactly the sum of deltas in joules.
        let u = RaplUnits::default();
        let mut c = EnergyCounter::new(u, start);
        let mut raw = start;
        let mut expect_ticks = 0u64;
        for &d in &deltas {
            raw = raw.wrapping_add(d);
            c.update(raw);
            expect_ticks += u64::from(d);
        }
        let expect = expect_ticks as f64 * u.joules_per_tick();
        prop_assert!((c.total_joules() - expect).abs() < 1e-6 * expect.max(1.0));
    }

    #[test]
    fn meter_integral_matches_power_times_time(
        watts in 0.1f64..200.0,
        steps in 1usize..60,
        dt in 0.001f64..0.5
    ) {
        let mut r = ModelReader::from_powers(&[(Domain::Package, watts)]);
        let mut m = EnergyMeter::start(&mut r);
        for _ in 0..steps {
            r.advance(dt);
            m.sample(&mut r);
        }
        let elapsed = steps as f64 * dt;
        let report = m.finish(&mut r, elapsed);
        let j = report.joules_for(Domain::Package).unwrap();
        let expect = watts * elapsed;
        prop_assert!(
            (j - expect).abs() < 0.01 * expect + 0.01,
            "measured {j} vs expected {expect}"
        );
    }

    #[test]
    fn meter_survives_any_wrap_position(
        offset_fraction in 0.0f64..1.0,
        watts in 10.0f64..500.0
    ) {
        // Start anywhere in the counter range; integrate enough to wrap.
        let u = RaplUnits::default();
        let start = u.wrap_joules() * offset_fraction;
        let mut r = ModelReader::from_powers(&[(Domain::PP0, watts)])
            .with_initial_joules(start);
        let mut m = EnergyMeter::start(&mut r);
        // Cross the wrap at least once: total energy 1.2 wraps, sampled
        // well under a wrap apart.
        let total = u.wrap_joules() * 1.2;
        let steps = 64usize;
        for _ in 0..steps {
            r.advance(total / watts / steps as f64);
            m.sample(&mut r);
        }
        let report = m.finish(&mut r, total / watts);
        let j = report.joules_for(Domain::PP0).unwrap();
        prop_assert!((j - total).abs() < 0.001 * total, "j {j} vs {total}");
    }

    #[test]
    fn sysfs_energy_is_exact_under_any_wraps_and_read_errors(
        start in 0u64..=MAX_UJ,
        steps in proptest::collection::vec((0u64..MAX_UJ / 8, any::<bool>()), 1..40),
    ) {
        // The counter runs `0..=max_energy_range_uj` and wraps to 0; any
        // read may fail. Whatever the sequence, the meter over the sysfs
        // backend integrates exactly the energy the counter advanced by:
        // a failed read defers its delta to the next good one (the running
        // total holds at the last good read, then catches up: no energy is
        // lost), and a wrap is a delta modulo the range. At most six reads
        // fail in a row, so no gap between good reads spans a whole range.
        let tree = Tree::new(&[("intel-rapl:0", "package-0")], start);
        let file = tree.energy_file("intel-rapl:0");
        let mut r = SysfsReader::from_root(tree.root());
        let mut m = EnergyMeter::start(&mut r);
        let (mut advanced, mut read, mut in_row) = (0u64, 0u64, 0);
        for &(delta, fail) in &steps {
            advanced += delta;
            if fail && in_row < 6 {
                fs::write(&file, "").unwrap();
                in_row += 1;
            } else {
                fs::write(&file, ((start + advanced) % (MAX_UJ + 1)).to_string()).unwrap();
                read = advanced;
                in_row = 0;
            }
            m.sample(&mut r);
            let (_, so_far) = m.joules().next().unwrap();
            let want = read as f64 / 1e6;
            prop_assert!((so_far - want).abs() <= tick_slack(), "{so_far} vs {want}");
        }
        fs::write(&file, ((start + advanced) % (MAX_UJ + 1)).to_string()).unwrap();
        let report = m.finish(&mut r, 1.0);
        let j = report.joules_for(Domain::Package).unwrap();
        let expect = advanced as f64 / 1e6;
        prop_assert!((j - expect).abs() <= tick_slack(), "j {j} vs {expect}");
    }

    #[test]
    fn sysfs_zone_that_stops_answering_is_counted_and_isolated(
        alive in 0u64..30,
        step_uj in 1u64..5_000_000,
    ) {
        // DRAM's `energy_uj` stops answering after `alive` samples (read
        // errors forever, here a file turned into a directory): its energy
        // up to then is kept through every later sample, and the package
        // plane beside it is untouched.
        let zones = [
            ("intel-rapl:0", "package-0"),
            ("intel-rapl:0/intel-rapl:0:0", "dram"),
        ];
        let tree = Tree::new(&zones, 0);
        let pkg = tree.energy_file("intel-rapl:0");
        let dram = tree.energy_file("intel-rapl:0/intel-rapl:0:0");
        let mut r = SysfsReader::from_root(tree.root());
        let mut m = EnergyMeter::start(&mut r);
        let samples = 40u64;
        let dram_expect = (alive * step_uj / 10) as f64 / 1e6;
        for k in 1..=samples {
            fs::write(&pkg, (k * step_uj).to_string()).unwrap();
            if k <= alive {
                fs::write(&dram, (k * step_uj / 10).to_string()).unwrap();
            } else if k == alive + 1 {
                fs::remove_file(&dram).unwrap();
                fs::create_dir(&dram).unwrap();
            }
            m.sample(&mut r);
            if k > alive {
                let (_, dram_j) = m.joules().find(|&(d, _)| d == Domain::Dram).unwrap();
                prop_assert!((dram_j - dram_expect).abs() <= tick_slack(), "k {k}: dram {dram_j}");
            }
        }
        let report = m.finish(&mut r, 1.0);
        let pkg_j = report.joules_for(Domain::Package).unwrap();
        let pkg_expect = (samples * step_uj) as f64 / 1e6;
        prop_assert!((pkg_j - pkg_expect).abs() <= tick_slack(), "pkg {pkg_j} vs {pkg_expect}");
        let dram_j = report.joules_for(Domain::Dram).unwrap();
        prop_assert!((dram_j - dram_expect).abs() <= tick_slack(), "dram {dram_j} vs {dram_expect}");
        prop_assert_eq!(r.read_raw(Domain::Dram), None);
    }
}
