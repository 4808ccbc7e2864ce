//! The sampling energy meter — the harness's measurement front-end.

use crate::counter::EnergyCounter;
use crate::domain::Domain;
use crate::EnergyReader;

/// Integrated energy per domain over one measured interval.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// `(domain, joules)` pairs in the backend's domain order.
    pub joules: Vec<(Domain, f64)>,
    /// Interval length in seconds.
    pub elapsed: f64,
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

/// Samples an [`EnergyReader`] and integrates wrap-corrected deltas — the
/// equivalent of the paper's PAPI-instrumented driver loop.
pub struct EnergyMeter {
    counters: Vec<(Domain, EnergyCounter)>,
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
                reader
                    .read_raw(d)
                    .map(|raw| (d, EnergyCounter::new(units, raw)))
            })
            .collect();
        EnergyMeter { counters }
    }

    /// Takes an intermediate sample (must run at least once per counter
    /// wrap period; the harness samples every simulated 100 ms). A failed
    /// read is not fatal and loses no energy: the counter is cumulative,
    /// so the next successful sample integrates the full wrap-corrected
    /// delta.
    pub fn sample<R: EnergyReader + ?Sized>(&mut self, reader: &mut R) {
        for (d, counter) in &mut self.counters {
            if let Some(raw) = reader.read_raw(*d) {
                counter.update(raw);
            }
        }
    }

    /// Cumulative wrap-corrected joules per domain since [`start`](Self::start),
    /// as of the last sample.
    pub fn joules(&self) -> impl Iterator<Item = (Domain, f64)> + '_ {
        self.counters
            .iter()
            .map(|(d, counter)| (*d, counter.total_joules()))
    }

    /// Final sample + report over `elapsed` seconds.
    pub fn finish<R: EnergyReader + ?Sized>(
        mut self,
        reader: &mut R,
        elapsed: f64,
    ) -> EnergyReport {
        self.sample(reader);
        EnergyReport {
            joules: self.joules().collect(),
            elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelReader;

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
    }

    #[test]
    fn failed_samples_are_deferred() {
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
    }
}
