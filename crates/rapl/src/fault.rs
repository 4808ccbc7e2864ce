//! Deterministic fault injection for energy readers.
//!
//! Real RAPL counters misbehave in well-documented ways: reads fail
//! transiently (permission races, hot-unplugged hwmon files), counters
//! stick at one value while the kernel buffers updates, torn reads return
//! garbage, counters wrap or reset mid-run, and whole domains disappear
//! when a module unloads. [`FaultInjectingReader`] wraps any
//! [`EnergyReader`] and injects exactly those failures from a seeded
//! ChaCha stream, so the recovery layer ([`crate::ResilientReader`]) and
//! everything above it can be exercised deterministically: the same seed
//! produces the same fault schedule, read for read.

use crate::counter::RaplUnits;
use crate::domain::Domain;
use crate::EnergyReader;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Probabilities and schedules for the injected fault classes.
///
/// Rates are per-read probabilities in `[0, 1]`, evaluated in the order
/// transient → torn → forced wrap → stuck; a read suffers at most one
/// fault class. All decisions come from a per-domain ChaCha stream seeded
/// from [`FaultConfig::seed`], so fault schedules are independent of the
/// interleaving of reads *across* domains and fully reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault schedule streams.
    pub seed: u64,
    /// Probability a read transiently fails (returns `None`).
    pub transient_rate: f64,
    /// Probability a read returns a uniformly random garbage value (a torn
    /// read).
    pub torn_rate: f64,
    /// Probability the counter takes a persistent backwards jump, as a
    /// forced wrap / reset would produce.
    pub wrap_rate: f64,
    /// Probability of entering a stuck episode (the counter repeats its
    /// current value for [`FaultConfig::stuck_len`] further reads).
    pub stuck_rate: f64,
    /// Length of a stuck episode, in reads.
    pub stuck_len: u32,
    /// Permanently kills a domain after it has served this many reads
    /// (mid-run disappearance, e.g. a module unload).
    pub death: Option<(Domain, u64)>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            transient_rate: 0.0,
            torn_rate: 0.0,
            wrap_rate: 0.0,
            stuck_rate: 0.0,
            stuck_len: 4,
            death: None,
        }
    }
}

impl FaultConfig {
    /// A quiet plan with only the seed set: no faults until rates are
    /// raised via the builder methods.
    pub fn with_seed(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..FaultConfig::default()
        }
    }

    /// The acceptance-scenario plan: 20% transient read failures, a light
    /// sprinkle of every other fault class, and the DRAM plane dying
    /// mid-run.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_rate: 0.20,
            torn_rate: 0.02,
            wrap_rate: 0.005,
            stuck_rate: 0.01,
            stuck_len: 4,
            death: Some((Domain::Dram, 24)),
        }
    }

    /// Sets the transient-failure rate.
    pub fn transient(mut self, rate: f64) -> Self {
        self.transient_rate = rate;
        self
    }

    /// Sets the torn-read rate.
    pub fn torn(mut self, rate: f64) -> Self {
        self.torn_rate = rate;
        self
    }

    /// Sets the forced-wrap rate.
    pub fn wraps(mut self, rate: f64) -> Self {
        self.wrap_rate = rate;
        self
    }

    /// Sets the stuck-episode rate and length.
    pub fn stuck(mut self, rate: f64, len: u32) -> Self {
        self.stuck_rate = rate;
        self.stuck_len = len;
        self
    }

    /// Kills `domain` after `reads` successful reads.
    pub fn kill(mut self, domain: Domain, reads: u64) -> Self {
        self.death = Some((domain, reads));
        self
    }
}

/// Counts of faults actually injected for one domain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reads requested from this domain.
    pub reads: u64,
    /// Reads answered with a transient failure.
    pub transient: u64,
    /// Reads answered with garbage.
    pub torn: u64,
    /// Persistent backwards jumps injected.
    pub wraps_forced: u64,
    /// Stuck episodes started.
    pub stuck_episodes: u64,
    /// `true` once the domain has been killed.
    pub dead: bool,
}

/// Per-domain fault-schedule state.
#[derive(Debug, Clone)]
struct DomainFaults {
    domain: Domain,
    rng: ChaCha8Rng,
    /// Persistent additive offset (wrapping); forced wraps shift it.
    offset: u32,
    /// Remaining reads of the current stuck episode, with the pinned value.
    stuck_remaining: u32,
    stuck_value: u32,
    stats: FaultStats,
}

/// An [`EnergyReader`] decorator that injects deterministic faults.
///
/// See the [module docs](self) for the fault taxonomy. Wrap it in a
/// [`crate::ResilientReader`] to exercise recovery, or use it bare to test
/// how un-protected consumers fail.
#[derive(Debug, Clone)]
pub struct FaultInjectingReader<R> {
    inner: R,
    cfg: FaultConfig,
    states: Vec<DomainFaults>,
}

impl<R: EnergyReader> FaultInjectingReader<R> {
    /// Wraps `inner` with the fault plan `cfg`.
    pub fn new(inner: R, cfg: FaultConfig) -> Self {
        let states = inner
            .domains()
            .into_iter()
            .map(|domain| DomainFaults {
                domain,
                // Stream per domain: schedules do not depend on how reads
                // of *other* domains interleave.
                rng: ChaCha8Rng::seed_from_u64(
                    cfg.seed ^ (0x9E37_79B9 + domain.msr_address() as u64 * 0x1_0000_0001),
                ),
                offset: 0,
                stuck_remaining: 0,
                stuck_value: 0,
                stats: FaultStats::default(),
            })
            .collect();
        FaultInjectingReader { inner, cfg, states }
    }

    /// Fault counts for one domain.
    pub fn stats(&self, domain: Domain) -> FaultStats {
        self.states
            .iter()
            .find(|s| s.domain == domain)
            .map(|s| s.stats)
            .unwrap_or_default()
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

    /// Consumes the decorator, returning the wrapped reader.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: EnergyReader> EnergyReader for FaultInjectingReader<R> {
    fn domains(&self) -> Vec<Domain> {
        self.inner.domains()
    }

    fn read_raw(&mut self, domain: Domain) -> Option<u32> {
        /// What the fault schedule decided for this read, before the inner
        /// reader is consulted.
        enum Decision {
            Dead,
            StuckReplay(u32),
            Transient,
            Torn(u32),
            /// Pass through; `true` starts a new stuck episode on the value
            /// read.
            Pass(bool),
        }

        let idx = self.states.iter().position(|s| s.domain == domain)?;
        let cfg = &self.cfg;
        let decision = {
            let st = &mut self.states[idx];
            st.stats.reads += 1;

            // Mid-run domain death is permanent and pre-empts everything.
            let killed = matches!(cfg.death, Some((victim, after))
                if victim == domain && st.stats.reads > after);
            if killed {
                st.stats.dead = true;
                Decision::Dead
            } else if st.stuck_remaining > 0 {
                // A running stuck episode pins the value regardless of the
                // inner counter's progress.
                st.stuck_remaining -= 1;
                Decision::StuckReplay(st.stuck_value)
            } else {
                let roll: f64 = st.rng.gen();
                let transient_to = cfg.transient_rate;
                let torn_to = transient_to + cfg.torn_rate;
                let wrap_to = torn_to + cfg.wrap_rate;
                let stuck_to = wrap_to + cfg.stuck_rate;
                if roll < transient_to {
                    st.stats.transient += 1;
                    Decision::Transient
                } else if roll < torn_to {
                    st.stats.torn += 1;
                    Decision::Torn(st.rng.next_u32())
                } else if roll < wrap_to {
                    // Persistent backwards jump: the counter appears to have
                    // wrapped or reset. Jump size is large enough to be
                    // implausible as real energy (between 1/4 and 1/2 of the
                    // counter range).
                    let jump = (1u32 << 30) + (st.rng.next_u32() >> 2);
                    st.offset = st.offset.wrapping_sub(jump);
                    st.stats.wraps_forced += 1;
                    Decision::Pass(false)
                } else if roll < stuck_to {
                    st.stats.stuck_episodes += 1;
                    Decision::Pass(true)
                } else {
                    Decision::Pass(false)
                }
            }
        };

        match decision {
            Decision::Dead | Decision::Transient => None,
            Decision::StuckReplay(v) => Some(v),
            Decision::Torn(v) => Some(v),
            Decision::Pass(start_stuck) => {
                let value = self.inner.read_raw(domain)?;
                let st = &mut self.states[idx];
                let value = value.wrapping_add(st.offset);
                if start_stuck {
                    st.stuck_value = value;
                    st.stuck_remaining = cfg.stuck_len;
                }
                Some(value)
            }
        }
    }

    fn units(&self) -> RaplUnits {
        self.inner.units()
    }

    fn health(&self, domain: Domain) -> crate::DomainHealth {
        self.inner.health(domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelReader;

    fn reader(watts: f64) -> ModelReader {
        ModelReader::from_powers(&[(Domain::Package, watts), (Domain::Dram, 3.0)])
    }

    #[test]
    fn quiet_config_is_transparent() {
        let mut plain = reader(40.0);
        let mut faulty = FaultInjectingReader::new(reader(40.0), FaultConfig::with_seed(7));
        for _ in 0..50 {
            plain.advance(0.1);
            faulty.inner_mut().advance(0.1);
            assert_eq!(
                faulty.read_raw(Domain::Package),
                plain.read_raw(Domain::Package)
            );
        }
        let stats = faulty.stats(Domain::Package);
        assert_eq!(stats.transient + stats.torn + stats.wraps_forced, 0);
    }

    #[test]
    fn transient_rate_roughly_respected() {
        let cfg = FaultConfig::with_seed(42).transient(0.25);
        let mut r = FaultInjectingReader::new(reader(40.0), cfg);
        let mut failed = 0;
        const READS: u64 = 2000;
        for _ in 0..READS {
            if r.read_raw(Domain::Package).is_none() {
                failed += 1;
            }
        }
        let rate = failed as f64 / READS as f64;
        assert!((0.18..0.32).contains(&rate), "observed rate {rate}");
        assert_eq!(r.stats(Domain::Package).transient, failed);
    }

    #[test]
    fn identical_seeds_identical_schedules() {
        let cfg = FaultConfig::chaos(2015);
        let run = |cfg: FaultConfig| {
            let mut r = FaultInjectingReader::new(reader(35.0), cfg);
            let mut out = Vec::new();
            for i in 0..300 {
                // Interleave domains; per-domain streams stay aligned.
                if i % 3 == 0 {
                    r.read_raw(Domain::Dram);
                }
                out.push(r.read_raw(Domain::Package));
            }
            out
        };
        assert_eq!(run(cfg.clone()), run(cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut r = FaultInjectingReader::new(
                reader(35.0),
                FaultConfig::with_seed(seed).transient(0.5),
            );
            (0..100)
                .map(|_| r.read_raw(Domain::Package).is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn domain_death_is_permanent_and_isolated() {
        let cfg = FaultConfig::with_seed(9).kill(Domain::Dram, 5);
        let mut r = FaultInjectingReader::new(reader(35.0), cfg);
        for _ in 0..5 {
            assert!(r.read_raw(Domain::Dram).is_some());
        }
        for _ in 0..20 {
            assert_eq!(r.read_raw(Domain::Dram), None);
            // The other plane is unaffected.
            assert!(r.read_raw(Domain::Package).is_some());
        }
        assert!(r.stats(Domain::Dram).dead);
        assert!(!r.stats(Domain::Package).dead);
    }

    #[test]
    fn stuck_episode_pins_value() {
        let cfg = FaultConfig::with_seed(3).stuck(1.0, 4);
        let mut inner = reader(100.0);
        inner.advance(1.0);
        let mut r = FaultInjectingReader::new(inner, cfg);
        let v0 = r.read_raw(Domain::Package).unwrap();
        for _ in 0..4 {
            assert_eq!(r.read_raw(Domain::Package), Some(v0));
        }
        assert!(r.stats(Domain::Package).stuck_episodes >= 1);
    }

    #[test]
    fn forced_wrap_jumps_backwards() {
        let cfg = FaultConfig::with_seed(11).wraps(1.0);
        let mut r = FaultInjectingReader::new(reader(30.0), cfg);
        let v0 = r.read_raw(Domain::Package).unwrap();
        let v1 = r.read_raw(Domain::Package).unwrap();
        // Every read forces another backwards jump; the wrapped delta is
        // far beyond any plausible energy step.
        assert!(v1.wrapping_sub(v0) > 1 << 29, "v0={v0} v1={v1}");
        assert!(r.stats(Domain::Package).wraps_forced >= 2);
    }

    #[test]
    fn torn_reads_return_garbage_without_moving_counter() {
        let cfg = FaultConfig::with_seed(5).torn(0.5);
        let mut r = FaultInjectingReader::new(reader(30.0), cfg);
        let stats_before = r.stats(Domain::Package);
        for _ in 0..200 {
            r.read_raw(Domain::Package);
        }
        let stats = r.stats(Domain::Package);
        assert!(stats.torn > 50, "torn = {}", stats.torn);
        assert_eq!(stats_before.wraps_forced, stats.wraps_forced);
    }
}
