//! The sampling energy meter — the harness's measurement front-end.

use crate::counter::EnergyCounter;
use crate::domain::Domain;
use crate::EnergyReader;

/// Per-domain sample counts over one metered interval.
///
/// `attempted`/`failed` count [`EnergyMeter::sample`] reads (including the
/// final one taken by [`EnergyMeter::finish`]). A failed read loses no
/// energy: the counter is cumulative, so the next good sample integrates
/// the deferred delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SampleQuality {
    /// Samples attempted for this domain.
    pub attempted: u64,
    /// Samples that returned no reading (`read_raw -> None`).
    pub failed: u64,
    /// Counter wraparounds corrected while integrating.
    pub wraps_corrected: u64,
}

/// Integrated energy per domain over one measured interval.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// `(domain, joules)` pairs in the backend's domain order.
    pub joules: Vec<(Domain, f64)>,
    /// Interval length in seconds.
    pub elapsed: f64,
    /// Per-domain sample quality, same order as `joules`.
    pub quality: Vec<(Domain, SampleQuality)>,
}

impl EnergyReport {
    /// Joules for one domain.
    pub fn joules_for(&self, domain: Domain) -> Option<f64> {
        self.joules
            .iter()
            .find(|&&(d, _)| d == domain)
            .map(|&(_, j)| j)
    }

    /// Average watts for one domain. `None` when the window is zero,
    /// negative or non-finite, or when the ratio itself is not finite —
    /// a degenerate window must not leak NaN/inf into EP tables.
    pub fn avg_watts(&self, domain: Domain) -> Option<f64> {
        if !self.elapsed.is_finite() || self.elapsed <= 0.0 {
            return None;
        }
        self.joules_for(domain).and_then(|j| {
            let w = j / self.elapsed;
            w.is_finite().then_some(w)
        })
    }
}

/// Trace-counter name for a domain's cumulative-joules series.
fn trace_counter_name(d: Domain) -> &'static str {
    match d {
        Domain::Package => "joules:package",
        Domain::PP0 => "joules:pp0",
        Domain::PP1 => "joules:pp1",
        Domain::Dram => "joules:dram",
        Domain::Psys => "joules:psys",
    }
}

/// Samples an [`EnergyReader`] and integrates wrap-corrected deltas — the
/// equivalent of the paper's PAPI-instrumented driver loop.
pub struct EnergyMeter {
    counters: Vec<(Domain, Tracked)>,
}

struct Tracked {
    counter: EnergyCounter,
    attempted: u64,
    failed: u64,
}

impl EnergyMeter {
    /// Begins a measurement: snapshots every domain. Domains whose opening
    /// read fails are dropped from the report entirely (there is no
    /// baseline to integrate from); callers see that as a missing plane.
    pub fn start<R: EnergyReader + ?Sized>(reader: &mut R) -> Self {
        let units = reader.units();
        let counters = reader
            .domains()
            .into_iter()
            .filter_map(|d| {
                reader.read_raw(d).map(|raw| {
                    (
                        d,
                        Tracked {
                            counter: EnergyCounter::new(units, raw),
                            attempted: 0,
                            failed: 0,
                        },
                    )
                })
            })
            .collect();
        EnergyMeter { counters }
    }

    /// Takes an intermediate sample (must run at least once per counter
    /// wrap period; the harness samples every simulated 100 ms). Failed
    /// reads are counted, not fatal — the next successful sample still
    /// integrates the full wrap-corrected delta.
    pub fn sample<R: EnergyReader + ?Sized>(&mut self, reader: &mut R) {
        for (d, t) in &mut self.counters {
            t.attempted += 1;
            match reader.read_raw(*d) {
                Some(raw) => {
                    t.counter.update(raw);
                    // Stamp the cumulative integral onto the trace
                    // timeline so per-phase energy attribution sees the
                    // same samples the report integrates.
                    powerscale_trace::counter(trace_counter_name(*d), t.counter.total_joules());
                }
                None => t.failed += 1,
            }
        }
    }

    /// Final sample + report over `elapsed` seconds.
    pub fn finish<R: EnergyReader + ?Sized>(
        mut self,
        reader: &mut R,
        elapsed: f64,
    ) -> EnergyReport {
        self.sample(reader);
        let joules = self
            .counters
            .iter()
            .map(|(d, t)| (*d, t.counter.total_joules()))
            .collect();
        let quality = self
            .counters
            .iter()
            .map(|(d, t)| {
                (
                    *d,
                    SampleQuality {
                        attempted: t.attempted,
                        failed: t.failed,
                        wraps_corrected: t.counter.wraps_corrected(),
                    },
                )
            })
            .collect();
        EnergyReport {
            joules,
            elapsed,
            quality,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelReader;

    impl EnergyReport {
        /// Sample quality for one domain.
        fn quality_for(&self, domain: Domain) -> Option<SampleQuality> {
            self.quality
                .iter()
                .find(|&&(d, _)| d == domain)
                .map(|&(_, q)| q)
        }
    }

    #[test]
    fn meter_integrates_constant_power() {
        let mut r = ModelReader::from_powers(&[(Domain::Package, 30.0), (Domain::Dram, 3.0)]);
        let mut m = EnergyMeter::start(&mut r);
        for _ in 0..50 {
            r.advance(0.1);
            m.sample(&mut r);
        }
        let report = m.finish(&mut r, 5.0);
        assert!((report.joules_for(Domain::Package).unwrap() - 150.0).abs() < 0.1);
        assert!((report.avg_watts(Domain::Dram).unwrap() - 3.0).abs() < 0.05);
        let q = report.quality_for(Domain::Package).unwrap();
        assert_eq!(q.attempted, 51); // 50 samples + finish
        assert_eq!(q.failed, 0);
    }

    #[test]
    fn meter_handles_wraps_mid_measurement() {
        let units = crate::RaplUnits::default();
        let mut r = ModelReader::from_powers(&[(Domain::PP0, 100.0)])
            .with_initial_joules(units.wrap_joules() - 120.0);
        let mut m = EnergyMeter::start(&mut r);
        // 3 seconds at 100 W crosses the wrap once.
        for _ in 0..30 {
            r.advance(0.1);
            m.sample(&mut r);
        }
        let report = m.finish(&mut r, 3.0);
        let j = report.joules_for(Domain::PP0).unwrap();
        assert!((j - 300.0).abs() < 0.1, "j = {j}");
        let q = report.quality_for(Domain::PP0).unwrap();
        assert_eq!(q.wraps_corrected, 1);
        assert_eq!(q.failed, 0, "a corrected wrap is not a failed sample");
    }

    #[test]
    fn zero_elapsed_has_no_watts() {
        let mut r = ModelReader::from_powers(&[(Domain::Package, 10.0)]);
        let m = EnergyMeter::start(&mut r);
        let report = m.finish(&mut r, 0.0);
        assert_eq!(report.avg_watts(Domain::Package), None);
        assert_eq!(report.joules_for(Domain::Package), Some(0.0));
    }

    #[test]
    fn degenerate_windows_have_no_watts() {
        // NaN, negative and infinite windows are all refused outright.
        for elapsed in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            let mut r = ModelReader::from_powers(&[(Domain::Package, 10.0)]);
            let mut m = EnergyMeter::start(&mut r);
            r.advance(1.0);
            m.sample(&mut r);
            let report = m.finish(&mut r, elapsed);
            assert_eq!(
                report.avg_watts(Domain::Package),
                None,
                "elapsed = {elapsed} must not produce watts"
            );
            // The integrated energy itself is still reported.
            assert!(report.joules_for(Domain::Package).unwrap() > 0.0);
        }
        // A near-zero window whose ratio overflows to inf is also refused.
        let mut r = ModelReader::from_powers(&[(Domain::Package, 10.0)]);
        let mut m = EnergyMeter::start(&mut r);
        r.advance(1.0);
        m.sample(&mut r);
        let report = m.finish(&mut r, 1e-320);
        assert_eq!(report.avg_watts(Domain::Package), None);
    }

    #[test]
    fn missing_domain_tolerated() {
        let mut r = ModelReader::from_powers(&[]);
        let m = EnergyMeter::start(&mut r);
        let report = m.finish(&mut r, 1.0);
        assert!(report.joules.is_empty());
        assert_eq!(report.joules_for(Domain::Package), None);
        assert!(report.quality.is_empty());
    }

    #[test]
    fn failed_samples_are_counted_and_deferred() {
        struct FlakyOnce {
            inner: ModelReader,
            fail_next: bool,
        }
        impl EnergyReader for FlakyOnce {
            fn domains(&self) -> Vec<Domain> {
                self.inner.domains()
            }
            fn read_raw(&mut self, d: Domain) -> Option<u32> {
                if self.fail_next {
                    self.fail_next = false;
                    return None;
                }
                self.inner.read_raw(d)
            }
            fn units(&self) -> crate::RaplUnits {
                self.inner.units()
            }
        }
        let mut r = FlakyOnce {
            inner: ModelReader::from_powers(&[(Domain::Package, 50.0)]),
            fail_next: false,
        };
        let mut m = EnergyMeter::start(&mut r);
        for i in 0..10 {
            r.inner.advance(0.1);
            r.fail_next = i == 4;
            m.sample(&mut r);
        }
        r.fail_next = false;
        let report = m.finish(&mut r, 1.0);
        // Energy is deferred, not lost, across the failed sample.
        assert!((report.joules_for(Domain::Package).unwrap() - 50.0).abs() < 0.1);
        let q = report.quality_for(Domain::Package).unwrap();
        assert_eq!(q.attempted, 11);
        assert_eq!(q.failed, 1);
    }
}
