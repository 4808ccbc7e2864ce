//! The CAPS communication bound — the paper's Equation 8.

/// ω₀ = log₂ 7, the Strassen exponent.
pub const OMEGA0: f64 = 2.807354922057604; // log2(7)

/// Equation 8: the CAPS per-processor communication volume (in words) for
/// an `n × n` multiply on `p` processors with `m` words of local memory:
///
/// `max( n^ω₀ / (p · m^(ω₀/2 − 1)),  n² / p^(2/ω₀) )`
///
/// The first term is the memory-limited (DFS-heavy) regime; the second is
/// the memory-rich (BFS-heavy) lower bound.
pub fn caps_comm_words(n: f64, p: f64, m: f64) -> f64 {
    let (term_memory, term_bandwidth) = terms(n, p, m);
    term_memory.max(term_bandwidth)
}

/// Equation 8's two terms `(memory-limited, bandwidth)`; panics unless
/// every argument is positive (a NaN is not).
fn terms(n: f64, p: f64, m: f64) -> (f64, f64) {
    assert!(n > 0.0 && p > 0.0 && m > 0.0, "arguments must be positive");
    let term_memory = n.powf(OMEGA0) / (p * m.powf(OMEGA0 / 2.0 - 1.0));
    let term_bandwidth = n * n / p.powf(2.0 / OMEGA0);
    (term_memory, term_bandwidth)
}

/// Classic 2D-algorithm communication for comparison: `n² / √p` words per
/// processor (the bound CAPS beats; see the CAPS papers' Table 1).
pub fn classic_2d_comm_words(n: f64, p: f64) -> f64 {
    assert!(n > 0.0 && p > 0.0, "arguments must be positive");
    n * n / p.sqrt()
}

/// The regime Equation 8 is in for the given parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommRegime {
    /// First term dominates: local memory is the constraint (DFS steps
    /// forced).
    MemoryLimited,
    /// Second term dominates: enough memory for BFS throughout.
    BandwidthBound,
}

/// Which term of Equation 8 dominates. Panics unless every argument is
/// positive, like [`caps_comm_words`].
pub fn regime(n: f64, p: f64, m: f64) -> CommRegime {
    let (term_memory, term_bandwidth) = terms(n, p, m);
    if term_memory > term_bandwidth {
        CommRegime::MemoryLimited
    } else {
        CommRegime::BandwidthBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omega_is_log2_7() {
        assert!((2f64.powf(OMEGA0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn more_processors_less_comm_each() {
        let m = 1e6;
        let c1 = caps_comm_words(4096.0, 1.0, m);
        let c4 = caps_comm_words(4096.0, 4.0, m);
        assert!(c4 < c1);
    }

    #[test]
    fn more_memory_helps_until_bandwidth_bound() {
        let n = 8192.0;
        let p = 64.0;
        let small = caps_comm_words(n, p, 1e4);
        let large = caps_comm_words(n, p, 1e9);
        assert!(large < small);
        assert_eq!(regime(n, p, 1e4), CommRegime::MemoryLimited);
        assert_eq!(regime(n, p, 1e9), CommRegime::BandwidthBound);
    }

    #[test]
    fn caps_beats_classic_2d_at_scale() {
        // The headline claim of the CAPS papers: asymptotically less
        // communication than any classic (non-Strassen) algorithm.
        let n = 1_048_576.0; // large n so the asymptotics show
        let p = 4096.0;
        let m = 3.0 * n * n / p; // memory-rich regime
        assert!(caps_comm_words(n, p, m) < classic_2d_comm_words(n, p));
    }

    #[test]
    fn bandwidth_term_scaling() {
        // In the memory-rich regime comm ~ n²: quadrupling n multiplies
        // comm by 16.
        let p = 16.0;
        let m = 1e12;
        let c1 = caps_comm_words(1024.0, p, m);
        let c2 = caps_comm_words(4096.0, p, m);
        assert!((c2 / c1 - 16.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive() {
        let _ = caps_comm_words(0.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn regime_rejects_nonpositive() {
        // Once answered `BandwidthBound` without checking, as did p = 0
        // and m = NaN; all now share `caps_comm_words`'s assert.
        let _ = regime(0.0, 1.0, 1.0);
    }
}
