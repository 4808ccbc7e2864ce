//! Raw-register arithmetic: energy-status units and wrap-correct deltas.

/// Unit scaling read from `MSR_RAPL_POWER_UNIT`.
///
/// Bits 12:8 of that MSR give the energy-status-unit exponent `e`; one
/// counter tick is `1 / 2^e` joules. Haswell-class parts report `e = 14`
/// (61.04 µJ/tick), which is this type's default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaplUnits {
    /// Energy-status-unit exponent (`1 tick = 2^-esu_exponent J`).
    pub esu_exponent: u8,
}

impl Default for RaplUnits {
    fn default() -> Self {
        RaplUnits { esu_exponent: 14 }
    }
}

impl RaplUnits {
    /// Joules per counter tick.
    pub fn joules_per_tick(&self) -> f64 {
        1.0 / f64::from(1u32 << self.esu_exponent)
    }

    /// Converts a raw counter value to joules.
    pub fn raw_to_joules(&self, raw: u32) -> f64 {
        f64::from(raw) * self.joules_per_tick()
    }

    /// Converts joules to raw ticks (wrapping into 32 bits as hardware
    /// does).
    pub fn joules_to_raw_wrapping(&self, joules: f64) -> u32 {
        let ticks = joules / self.joules_per_tick();
        (ticks as u64 % (1u64 << 32)) as u32
    }

    /// Energy range of the 32-bit counter before it wraps, in joules
    /// (2^18 ≈ 262 kJ at the exponent-14 unit — about 87 minutes at
    /// 50 W; parts with finer units wrap correspondingly sooner).
    pub fn wrap_joules(&self) -> f64 {
        self.raw_to_joules(u32::MAX) + self.joules_per_tick()
    }
}

/// Wrap-aware accumulation over a 32-bit energy-status counter.
#[derive(Debug, Clone, Copy)]
pub struct EnergyCounter {
    units: RaplUnits,
    last_raw: u32,
    accumulated_joules: f64,
    /// Backwards register movements read as wraps; only tests read it.
    #[cfg(test)]
    wraps: u64,
}

impl EnergyCounter {
    /// Starts tracking from an initial raw reading.
    pub fn new(units: RaplUnits, initial_raw: u32) -> Self {
        EnergyCounter {
            units,
            last_raw: initial_raw,
            accumulated_joules: 0.0,
            #[cfg(test)]
            wraps: 0,
        }
    }

    /// Feeds a new raw reading; returns the joules consumed since the last
    /// one, handling a single wraparound.
    ///
    /// (As with real RAPL, *multiple* wraps between samples are
    /// undetectable — the meter must sample faster than the counter's
    /// wrap period, [`RaplUnits::wrap_joules`] over the load's watts.)
    pub fn update(&mut self, raw: u32) -> f64 {
        #[cfg(test)]
        if raw < self.last_raw {
            // The register moved backwards: a wraparound was corrected.
            self.wraps += 1;
        }
        let delta_ticks = raw.wrapping_sub(self.last_raw);
        self.last_raw = raw;
        let joules = self.units.raw_to_joules(delta_ticks);
        self.accumulated_joules += joules;
        joules
    }

    /// Total joules accumulated since construction.
    pub fn total_joules(&self) -> f64 {
        self.accumulated_joules
    }

    /// Wraparounds corrected since construction (backwards register
    /// movements interpreted as wraps).
    #[cfg(test)]
    pub(crate) fn wraps_corrected(&self) -> u64 {
        self.wraps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RaplUnits {
        /// Decodes the unit field of a raw `MSR_RAPL_POWER_UNIT` value.
        fn from_power_unit_msr(raw: u64) -> Self {
            RaplUnits {
                esu_exponent: ((raw >> 8) & 0x1F) as u8,
            }
        }
    }

    #[test]
    fn default_units_are_haswell() {
        let u = RaplUnits::default();
        assert_eq!(u.esu_exponent, 14);
        assert!((u.joules_per_tick() - 6.103515625e-5).abs() < 1e-15);
    }

    #[test]
    fn power_unit_msr_decoding() {
        // Haswell's MSR_RAPL_POWER_UNIT is typically 0x000a0e03:
        // energy bits 12:8 = 0x0E = 14.
        let u = RaplUnits::from_power_unit_msr(0x000a_0e03);
        assert_eq!(u.esu_exponent, 14);
        let u2 = RaplUnits::from_power_unit_msr(0x0000_1000); // e = 16
        assert_eq!(u2.esu_exponent, 16);
    }

    #[test]
    fn raw_round_trip() {
        let u = RaplUnits::default();
        for j in [0.0, 1.0, 523.77, 60_000.0] {
            let raw = u.joules_to_raw_wrapping(j);
            let back = u.raw_to_joules(raw);
            assert!(
                (back - j).abs() < 2.0 * u.joules_per_tick(),
                "{j} -> {back}"
            );
        }
    }

    #[test]
    fn wrap_energy_matches_unit() {
        let w = RaplUnits::default().wrap_joules();
        assert!((w - 262_144.0).abs() < 1.0, "wrap = {w}"); // 2^32 / 2^14
    }

    #[test]
    fn counter_accumulates_simple_deltas() {
        let u = RaplUnits::default();
        let mut c = EnergyCounter::new(u, 1000);
        let j = c.update(1000 + 16384); // 16384 ticks = 1 J
        assert!((j - 1.0).abs() < 1e-12);
        c.update(1000 + 32768);
        assert!((c.total_joules() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn counter_survives_wraparound() {
        let u = RaplUnits::default();
        let start = u32::MAX - 100;
        let mut c = EnergyCounter::new(u, start);
        // Counter wraps past zero: 100 + 1 + 63 ticks consumed.
        let j = c.update(63);
        let expect = u.raw_to_joules(164);
        assert!((j - expect).abs() < 1e-12, "j={j} expect={expect}");
    }

    #[test]
    fn zero_delta_zero_energy() {
        let mut c = EnergyCounter::new(RaplUnits::default(), 42);
        assert_eq!(c.update(42), 0.0);
        assert_eq!(c.total_joules(), 0.0);
        assert_eq!(c.wraps_corrected(), 0);
    }

    #[test]
    fn multi_wrap_sequence_counts_every_wrap() {
        // Three laps around the register, sampled often enough that each
        // wrap is visible; total energy = 3 wraps + net forward movement.
        let u = RaplUnits::default();
        let mut c = EnergyCounter::new(u, 0);
        let mut raw = 0u32;
        let step = u32::MAX / 7 + 1; // ~0.14 of range per sample
        let laps = 3 * 8; // 3 full wraps at 8 samples per lap
        let mut expect_ticks = 0u64;
        for _ in 0..laps {
            raw = raw.wrapping_add(step);
            c.update(raw);
            expect_ticks += u64::from(step);
        }
        assert_eq!(c.wraps_corrected(), 3);
        let expect = expect_ticks as f64 * u.joules_per_tick();
        assert!((c.total_joules() - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn stuck_counter_accumulates_nothing() {
        let mut c = EnergyCounter::new(RaplUnits::default(), 777);
        for _ in 0..100 {
            assert_eq!(c.update(777), 0.0);
        }
        assert_eq!(c.total_joules(), 0.0);
        assert_eq!(c.wraps_corrected(), 0);
    }

    #[test]
    fn backwards_jump_reads_as_wrap() {
        // A backwards jump is indistinguishable from a wrap at this layer:
        // the counter must interpret it as one (huge wrapped delta) and
        // report the wrap. A backend whose counter wraps at another range
        // takes its deltas modulo that range before it reaches here.
        let u = RaplUnits::default();
        let mut c = EnergyCounter::new(u, 1_000_000);
        let j = c.update(999_000); // 1000 ticks "backwards"
        assert_eq!(c.wraps_corrected(), 1);
        let expect = u.raw_to_joules(u32::MAX - 1000 + 1);
        assert!((j - expect).abs() < 1e-9, "j={j} expect={expect}");
        // Recovery after the jump: normal forward deltas keep working.
        let j2 = c.update(999_000 + 16_384);
        assert!((j2 - 1.0).abs() < 1e-12);
        assert_eq!(c.wraps_corrected(), 1);
    }
}
