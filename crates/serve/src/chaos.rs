//! Seeded chaos for the serving path.
//!
//! Everything is a pure function of `(seed, request id, attempt)`, so a
//! chaos run is reproducible: the same seed injects the same worker
//! panics into the same attempts, interrupted or not. That determinism is
//! what lets the lifecycle tests assert exactly-once delivery *under*
//! faults — rerunning the scenario replays the identical failure pattern.

/// FNV-1a-64 over a byte stream: the word mixer below, the result
/// checksum and the journal's line checksum.
pub(crate) fn fnv1a_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, step)
}

/// FNV-1a over a sequence of words — the workspace's standard cheap
/// deterministic mixer.
pub fn fnv1a(words: &[u64]) -> u64 {
    fnv1a_bytes(words.iter().flat_map(|w| w.to_le_bytes()))
}

/// The chaos plan for one serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Master seed; per-request schedules are derived from it.
    pub seed: u64,
    /// Per-attempt probability (in permille) that the worker executing a
    /// request panics at task start.
    pub panic_permille: u32,
}

impl ChaosConfig {
    /// The standard chaos profile: 20% of attempts panic (so a retry
    /// budget of 2 almost always recovers, and occasionally doesn't —
    /// exercising budget exhaustion too).
    pub fn chaos(seed: u64) -> Self {
        ChaosConfig {
            seed,
            panic_permille: 200,
        }
    }

    /// Every attempt panics — drives a request deterministically into
    /// retry-budget exhaustion.
    pub fn always_panic(seed: u64) -> Self {
        ChaosConfig {
            seed,
            panic_permille: 1000,
        }
    }

    /// True when this `(request, attempt)` pair is scheduled to panic.
    pub(crate) fn attempt_panics(&self, id: u64, attempt: u32) -> bool {
        if self.panic_permille == 0 {
            return false;
        }
        if self.panic_permille >= 1000 {
            return true;
        }
        fnv1a(&[self.seed, id, u64::from(attempt)]) % 1000 < u64::from(self.panic_permille)
    }

    /// Panics if the schedule says this attempt dies. Called at task
    /// start inside the executor's `catch_unwind` perimeter, so it lands
    /// exactly where a real worker fault would.
    pub(crate) fn maybe_panic(&self, id: u64, attempt: u32) {
        if self.attempt_panics(id, attempt) {
            panic!("chaos: injected worker panic (request {id}, attempt {attempt})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_answers() {
        // The published FNV-1a-64 vector for "a", and a word sequence
        // hashed before the mixer was written over `fnv1a_bytes`.
        assert_eq!(fnv1a_bytes(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(&[2015, 7, 1]), 0xbc34_98ce_c9cc_3015);
    }

    #[test]
    fn schedule_is_deterministic() {
        let c = ChaosConfig::chaos(7);
        for id in 0..32u64 {
            for attempt in 0..4 {
                assert_eq!(
                    c.attempt_panics(id, attempt),
                    ChaosConfig::chaos(7).attempt_panics(id, attempt)
                );
            }
        }
    }

    #[test]
    fn panic_rate_is_roughly_the_configured_permille() {
        let c = ChaosConfig::chaos(11);
        let hits = (0..2000u64).filter(|&id| c.attempt_panics(id, 1)).count();
        assert!((250..550).contains(&hits), "20% of 2000 ≈ 400, got {hits}");
    }

    #[test]
    fn always_panic_panics_every_attempt() {
        let c = ChaosConfig::always_panic(3);
        assert!((0..64u64).all(|id| (0..8).all(|a| c.attempt_panics(id, a))));
    }

    #[test]
    fn different_requests_get_different_fault_schedules() {
        // A request's panic schedule over its attempts is its own: two
        // requests under one seed do not fail the same attempts.
        let c = ChaosConfig::chaos(5);
        let schedule = |id| (0..64).map(|a| c.attempt_panics(id, a)).collect::<Vec<_>>();
        assert_ne!(schedule(1), schedule(2));
    }

    #[test]
    #[should_panic(expected = "chaos: injected worker panic")]
    fn maybe_panic_fires() {
        ChaosConfig::always_panic(1).maybe_panic(9, 1);
    }
}
