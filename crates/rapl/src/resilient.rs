//! The self-healing reader: retry, sanitise, demote.
//!
//! [`ResilientReader`] wraps any [`EnergyReader`] and turns its raw,
//! possibly-misbehaving counter stream into a *sanitised* stream the
//! meter can trust:
//!
//! * transient read failures are retried (bounded budget per sample);
//! * implausible jumps are double-checked with a verification read —
//!   torn/garbage values are discarded, confirmed counter resets are
//!   re-baselined instead of being integrated as phantom energy;
//! * stuck counters are detected and flagged;
//! * domains that keep failing are demoted **Healthy → Flaky → Dead** and
//!   a dead domain is never read again (graceful demotion instead of a
//!   crash or a silent zero);
//! * a Flaky domain that produces a clean streak heals back to Healthy.
//!
//! The decorator exposes per-domain [`DomainQuality`] accounting so the
//! meter and the harness can mark downstream aggregates as degraded
//! instead of presenting partial-plane arithmetic as full-fidelity data.

use crate::counter::RaplUnits;
use crate::domain::Domain;
use crate::EnergyReader;

/// Health of one measured domain, as judged by [`ResilientReader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum DomainHealth {
    /// No anomalies observed recently.
    #[default]
    Healthy,
    /// Anomalies observed (retries, garbage, resets, stuck episodes);
    /// values are still flowing but should be treated as degraded.
    Flaky,
    /// The domain stopped answering and has been demoted permanently.
    Dead,
}

impl core::fmt::Display for DomainHealth {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            DomainHealth::Healthy => "healthy",
            DomainHealth::Flaky => "flaky",
            DomainHealth::Dead => "dead",
        })
    }
}

/// Tuning knobs for [`ResilientReader`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilientConfig {
    /// Extra attempts after a failed inner read, per sample.
    pub max_retries: u32,
    /// Consecutive failed *samples* (after retries) before a domain is
    /// demoted to [`DomainHealth::Dead`].
    pub dead_after: u32,
    /// Consecutive clean samples for a Flaky domain to heal back to
    /// Healthy.
    pub heal_after: u32,
    /// Consecutive identical raw values before the counter is declared
    /// stuck (the domain goes Flaky).
    pub stuck_after: u32,
    /// Largest believable forward step between two samples, in raw ticks.
    /// At the default Haswell unit (61 µJ/tick) the default of 2²⁴ ticks
    /// is ≈1 kJ per sample — far above any real per-sample energy, far
    /// below the ≈2³¹ expected from garbage.
    pub max_step_ticks: u32,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            max_retries: 2,
            dead_after: 8,
            heal_after: 32,
            stuck_after: 8,
            max_step_ticks: 1 << 24,
        }
    }
}

/// Per-domain sample accounting exported by [`ResilientReader`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainQuality {
    /// Samples requested by the caller.
    pub attempts: u64,
    /// Samples that failed even after retries.
    pub failures: u64,
    /// Extra inner reads spent on retries.
    pub retries: u64,
    /// Implausible values discarded as torn/garbage reads.
    pub garbage_discarded: u64,
    /// Counter resets detected and re-baselined (energy across the reset
    /// interval is unknowable and conservatively dropped).
    pub resets_rebased: u64,
    /// Stuck-counter episodes detected.
    pub stuck_episodes: u64,
}

impl DomainQuality {
    /// `true` when any anomaly was recorded.
    pub fn is_clean(&self) -> bool {
        self.failures == 0
            && self.retries == 0
            && self.garbage_discarded == 0
            && self.resets_rebased == 0
            && self.stuck_episodes == 0
    }
}

#[derive(Debug, Clone)]
struct DomainState {
    domain: Domain,
    health: DomainHealth,
    /// Last accepted raw value from the inner reader.
    last_good: Option<u32>,
    /// Sanitised output counter presented downstream.
    out_raw: u32,
    consecutive_failures: u32,
    consecutive_stuck: u32,
    clean_streak: u32,
    quality: DomainQuality,
}

impl DomainState {
    fn mark_anomaly(&mut self) {
        if self.health == DomainHealth::Healthy {
            self.health = DomainHealth::Flaky;
        }
        self.clean_streak = 0;
    }
}

/// A recovering [`EnergyReader`] decorator. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ResilientReader<R> {
    inner: R,
    cfg: ResilientConfig,
    states: Vec<DomainState>,
}

impl<R: EnergyReader> ResilientReader<R> {
    /// Wraps `inner` with default tuning.
    pub fn new(inner: R) -> Self {
        Self::with_config(inner, ResilientConfig::default())
    }

    /// Wraps `inner` with explicit tuning.
    pub fn with_config(inner: R, cfg: ResilientConfig) -> Self {
        let states = inner
            .domains()
            .into_iter()
            .map(|domain| DomainState {
                domain,
                health: DomainHealth::Healthy,
                last_good: None,
                out_raw: 0,
                consecutive_failures: 0,
                consecutive_stuck: 0,
                clean_streak: 0,
                quality: DomainQuality::default(),
            })
            .collect();
        ResilientReader { inner, cfg, states }
    }

    /// Sample accounting for one domain.
    pub fn quality(&self, domain: Domain) -> DomainQuality {
        self.states
            .iter()
            .find(|s| s.domain == domain)
            .map(|s| s.quality)
            .unwrap_or_default()
    }

    /// `(domain, quality)` for every wrapped domain.
    pub fn qualities(&self) -> Vec<(Domain, DomainQuality)> {
        self.states.iter().map(|s| (s.domain, s.quality)).collect()
    }

    /// Domains currently demoted to [`DomainHealth::Dead`].
    pub fn dead_domains(&self) -> Vec<Domain> {
        self.states
            .iter()
            .filter(|s| s.health == DomainHealth::Dead)
            .map(|s| s.domain)
            .collect()
    }

    /// The wrapped reader.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Mutable access to the wrapped reader (e.g. to advance a
    /// [`crate::model::ModelReader`] clock through the decorator).
    pub fn inner_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// One inner read attempt with the sanitising state machine applied.
    /// Returns `Some(out_raw)` when a value was accepted.
    fn attempt(&mut self, idx: usize) -> Option<u32> {
        let domain = self.states[idx].domain;
        let raw = self.inner.read_raw(domain)?;
        let max_step = self.cfg.max_step_ticks;
        let stuck_after = self.cfg.stuck_after;

        let Some(last_good) = self.states[idx].last_good else {
            // First ever value: baseline the sanitised counter on it so the
            // wrap position downstream matches the hardware's.
            let st = &mut self.states[idx];
            st.last_good = Some(raw);
            st.out_raw = raw;
            return Some(st.out_raw);
        };

        let delta = raw.wrapping_sub(last_good);
        if delta == 0 {
            let st = &mut self.states[idx];
            st.consecutive_stuck += 1;
            if st.consecutive_stuck >= stuck_after {
                if st.consecutive_stuck == stuck_after {
                    st.quality.stuck_episodes += 1;
                }
                // Ongoing stuck reads keep the domain Flaky and hold the
                // clean streak at zero.
                st.mark_anomaly();
            }
            return Some(st.out_raw);
        }
        if delta <= max_step {
            let st = &mut self.states[idx];
            st.consecutive_stuck = 0;
            st.last_good = Some(raw);
            st.out_raw = st.out_raw.wrapping_add(delta);
            return Some(st.out_raw);
        }

        // Implausible jump: verify with a second read before believing it.
        let verify = self.inner.read_raw(domain);
        let st = &mut self.states[idx];
        st.consecutive_stuck = 0;
        match verify {
            Some(second) if second.wrapping_sub(last_good) <= max_step => {
                // The jump vanished: the first value was a torn read.
                st.quality.garbage_discarded += 1;
                st.mark_anomaly();
                let d2 = second.wrapping_sub(last_good);
                st.last_good = Some(second);
                st.out_raw = st.out_raw.wrapping_add(d2);
                Some(st.out_raw)
            }
            Some(second) if second.wrapping_sub(raw) <= max_step => {
                // The jump persists: the counter genuinely reset (or was
                // forced past a wrap). Energy across the gap is unknowable;
                // re-baseline without advancing the sanitised counter.
                st.quality.resets_rebased += 1;
                st.mark_anomaly();
                st.last_good = Some(second);
                Some(st.out_raw)
            }
            _ => {
                // Two mutually inconsistent wild values (or a failure on
                // verification): trust neither.
                st.quality.garbage_discarded += 1;
                st.mark_anomaly();
                None
            }
        }
    }
}

impl<R: EnergyReader> EnergyReader for ResilientReader<R> {
    fn domains(&self) -> Vec<Domain> {
        self.inner.domains()
    }

    fn read_raw(&mut self, domain: Domain) -> Option<u32> {
        let idx = self.states.iter().position(|s| s.domain == domain)?;
        if self.states[idx].health == DomainHealth::Dead {
            return None;
        }
        self.states[idx].quality.attempts += 1;

        let mut result = None;
        for try_no in 0..=self.cfg.max_retries {
            if try_no > 0 {
                self.states[idx].quality.retries += 1;
                self.states[idx].mark_anomaly();
            }
            result = self.attempt(idx);
            if result.is_some() {
                break;
            }
        }

        let heal_after = self.cfg.heal_after;
        let dead_after = self.cfg.dead_after;
        let st = &mut self.states[idx];
        match result {
            Some(_) => {
                st.consecutive_failures = 0;
                st.clean_streak += 1;
                if st.health == DomainHealth::Flaky && st.clean_streak >= heal_after {
                    st.health = DomainHealth::Healthy;
                }
            }
            None => {
                st.quality.failures += 1;
                st.consecutive_failures += 1;
                st.mark_anomaly();
                if st.consecutive_failures >= dead_after {
                    st.health = DomainHealth::Dead;
                }
            }
        }
        result
    }

    fn units(&self) -> RaplUnits {
        self.inner.units()
    }

    fn health(&self, domain: Domain) -> DomainHealth {
        self.states
            .iter()
            .find(|s| s.domain == domain)
            .map(|s| s.health)
            .unwrap_or(DomainHealth::Healthy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultInjectingReader};
    use crate::model::ModelReader;
    use crate::{EnergyMeter, RaplUnits};

    fn model(watts: f64) -> ModelReader {
        ModelReader::from_powers(&[(Domain::Package, watts), (Domain::Dram, 3.0)])
    }

    fn faulty(watts: f64, cfg: FaultConfig) -> ResilientReader<FaultInjectingReader<ModelReader>> {
        ResilientReader::new(FaultInjectingReader::new(model(watts), cfg))
    }

    #[test]
    fn clean_stream_passes_through_exactly() {
        let mut plain = model(42.0);
        let mut r = ResilientReader::new(model(42.0));
        for _ in 0..40 {
            plain.advance(0.1);
            r.inner_mut().advance(0.1);
            assert_eq!(r.read_raw(Domain::Package), plain.read_raw(Domain::Package));
        }
        assert!(r.quality(Domain::Package).is_clean());
        assert_eq!(r.health(Domain::Package), DomainHealth::Healthy);
    }

    #[test]
    fn transient_failures_are_retried_through() {
        // 40% transient failures, 2 retries: nearly every sample recovers.
        let cfg = FaultConfig::with_seed(77).transient(0.4);
        let mut r = faulty(50.0, cfg);
        let mut ok = 0;
        for _ in 0..200 {
            r.inner_mut().inner_mut().advance(0.1);
            if r.read_raw(Domain::Package).is_some() {
                ok += 1;
            }
        }
        let q = r.quality(Domain::Package);
        assert!(ok > 180, "recovered only {ok}/200");
        assert!(q.retries > 20, "retries = {}", q.retries);
        assert!(q.failures < 20, "failures = {}", q.failures);
    }

    #[test]
    fn dead_domain_demoted_and_never_read_again() {
        let cfg = FaultConfig::with_seed(1).kill(Domain::Dram, 3);
        let mut r = faulty(50.0, cfg);
        let mut failures_seen = 0;
        for _ in 0..60 {
            r.inner_mut().inner_mut().advance(0.1);
            if r.read_raw(Domain::Dram).is_none() {
                failures_seen += 1;
            }
        }
        assert_eq!(r.health(Domain::Dram), DomainHealth::Dead);
        assert_eq!(r.dead_domains(), vec![Domain::Dram]);
        assert!(failures_seen > 40);
        // Demotion is cheap: inner reads stop once dead. Each failed sample
        // costs 1 + max_retries inner reads; after death, zero.
        let inner_reads = r.inner().stats(Domain::Dram).reads;
        let q = r.quality(Domain::Dram);
        assert!(
            inner_reads <= q.failures * 3 + 10,
            "inner reads {inner_reads} vs failures {}",
            q.failures
        );
        // The healthy plane is untouched.
        assert_eq!(r.health(Domain::Package), DomainHealth::Healthy);
    }

    #[test]
    fn garbage_reads_discarded_energy_stays_sane() {
        let cfg = FaultConfig::with_seed(5).torn(0.15);
        let mut r = faulty(100.0, cfg);
        let mut meter = EnergyMeter::start(&mut r);
        for _ in 0..100 {
            r.inner_mut().inner_mut().advance(0.1);
            meter.sample(&mut r);
        }
        let report = meter.finish(&mut r, 10.0);
        let j = report.joules_for(Domain::Package).unwrap();
        // 100 W × 10 s = 1000 J. Un-sanitised, a single garbage read would
        // add up to 2^32 ticks ≈ 262 kJ.
        assert!((j - 1000.0).abs() < 20.0, "j = {j}");
        assert!(r.quality(Domain::Package).garbage_discarded > 0);
        assert_eq!(r.health(Domain::Package), DomainHealth::Flaky);
    }

    #[test]
    fn forced_wrap_rebased_not_integrated() {
        // Seed chosen to give several forced wraps in ~100 reads (most
        // seeds do at a 5% rate; a few produce a fault-free stream).
        let cfg = FaultConfig::with_seed(5).wraps(0.05);
        let mut r = faulty(80.0, cfg);
        let mut meter = EnergyMeter::start(&mut r);
        for _ in 0..100 {
            r.inner_mut().inner_mut().advance(0.1);
            meter.sample(&mut r);
        }
        let report = meter.finish(&mut r, 10.0);
        let j = report.joules_for(Domain::Package).unwrap();
        // Each reset drops one interval's energy (~8 J here) instead of
        // adding a phantom quarter-wrap (~65 kJ).
        assert!(j <= 801.0, "j = {j}");
        assert!(j > 300.0, "j = {j} — too much energy dropped");
        assert!(r.quality(Domain::Package).resets_rebased > 0);
    }

    #[test]
    fn stuck_counter_detected() {
        let cfg = FaultConfig::with_seed(21).stuck(1.0, 64);
        let mut r = faulty(80.0, cfg);
        for _ in 0..40 {
            r.inner_mut().inner_mut().advance(0.1);
            r.read_raw(Domain::Package);
        }
        assert!(r.quality(Domain::Package).stuck_episodes >= 1);
        assert_eq!(r.health(Domain::Package), DomainHealth::Flaky);
    }

    #[test]
    fn flaky_domain_heals_after_clean_streak() {
        let mut r = ResilientReader::with_config(
            model(60.0),
            ResilientConfig {
                heal_after: 5,
                stuck_after: 8,
                ..ResilientConfig::default()
            },
        );
        let _ = r.read_raw(Domain::Package); // baseline
        for _ in 0..10 {
            // Clock never advances: the counter looks stuck.
            let _ = r.read_raw(Domain::Package);
        }
        assert_eq!(r.health(Domain::Package), DomainHealth::Flaky);
        assert_eq!(r.quality(Domain::Package).stuck_episodes, 1);
        for _ in 0..6 {
            r.inner_mut().advance(0.1);
            let _ = r.read_raw(Domain::Package);
        }
        assert_eq!(r.health(Domain::Package), DomainHealth::Healthy);
    }

    #[test]
    fn acceptance_chaos_stream_yields_sane_energy() {
        // The ISSUE acceptance shape: 20% transient + dying DRAM domain.
        let cfg = FaultConfig::chaos(20150831);
        let mut r = faulty(35.0, cfg);
        let mut meter = EnergyMeter::start(&mut r);
        for _ in 0..200 {
            r.inner_mut().inner_mut().advance(0.1);
            meter.sample(&mut r);
        }
        let report = meter.finish(&mut r, 20.0);
        let pkg = report.joules_for(Domain::Package).unwrap();
        // 35 W × 20 s = 700 J; resets/garbage may shave a little.
        assert!((pkg - 700.0).abs() < 35.0, "pkg = {pkg}");
        assert_eq!(r.health(Domain::Dram), DomainHealth::Dead);
        assert!(!r.quality(Domain::Package).is_clean());
    }

    #[test]
    fn determinism_under_chaos() {
        let run = || {
            let mut r = faulty(35.0, FaultConfig::chaos(99));
            let mut out = Vec::new();
            for _ in 0..150 {
                r.inner_mut().inner_mut().advance(0.05);
                out.push((r.read_raw(Domain::Package), r.read_raw(Domain::Dram)));
            }
            (out, r.quality(Domain::Package), r.quality(Domain::Dram))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn real_wrap_still_counts_as_energy() {
        // A genuine counter wrap is a *small* wrapped delta — the
        // plausibility check must not eat it.
        let u = RaplUnits::default();
        let inner = ModelReader::from_powers(&[(Domain::PP0, 100.0)])
            .with_initial_joules(u.wrap_joules() - 120.0);
        let mut r = ResilientReader::new(inner);
        let mut meter = EnergyMeter::start(&mut r);
        for _ in 0..30 {
            r.inner_mut().advance(0.1);
            meter.sample(&mut r);
        }
        let report = meter.finish(&mut r, 3.0);
        let j = report.joules_for(Domain::PP0).unwrap();
        assert!((j - 300.0).abs() < 0.1, "j = {j}");
        assert!(r.quality(Domain::PP0).is_clean());
    }
}
