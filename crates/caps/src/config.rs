//! CAPS configuration.

use powerscale_gemm::Dispatch;

/// Tuning knobs for the CAPS traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapsConfig {
    /// Dense-solver cutover dimension (shared with the Strassen study; the
    /// paper uses 64, the executed default is the dispatched kernel's rule,
    /// [`powerscale_strassen::cost::executed_cutoff`]).
    pub cutoff: usize,
    /// Tree depth below which steps are BFS; at or beyond it they are DFS
    /// (the paper settles on 4 after "much empirical testing").
    pub cutoff_depth: u32,
    /// Kernel selection every leaf product runs under.
    pub dispatch: Dispatch,
}

impl Default for CapsConfig {
    /// The executed configuration: [`CapsConfig::paper`] with the cutoff
    /// of [`powerscale_strassen::StrassenConfig::default`].
    fn default() -> Self {
        let paper = CapsConfig::paper();
        CapsConfig {
            cutoff: powerscale_strassen::cost::executed_cutoff(paper.dispatch.kernel()),
            ..paper
        }
    }
}

impl CapsConfig {
    /// The paper's configuration: cutoff 64, cutoff depth 4. Every
    /// simulated artifact, paper claim and pinned recursion shape uses it.
    pub fn paper() -> Self {
        CapsConfig {
            cutoff: powerscale_strassen::cost::PAPER_CUTOFF,
            cutoff_depth: 4,
            dispatch: Dispatch::default(),
        }
    }

    /// The Strassen configuration equivalent to this one (task spawning
    /// bounded by the BFS depth) — what the shared walker, plan and cost
    /// recurrences run CAPS under.
    pub fn as_strassen(&self) -> powerscale_strassen::StrassenConfig {
        powerscale_strassen::StrassenConfig {
            cutoff: self.cutoff,
            task_depth: self.cutoff_depth,
            dispatch: self.dispatch,
        }
    }

    /// Validates the knobs.
    pub fn validate(&self) -> Result<(), String> {
        self.as_strassen().validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CapsConfig::paper();
        assert_eq!(c.cutoff, 64);
        assert_eq!(c.cutoff_depth, 4);
        c.validate().unwrap();
    }

    #[test]
    fn strassen_equivalent() {
        let s = CapsConfig::paper().as_strassen();
        assert_eq!(s.cutoff, 64);
        assert_eq!(s.task_depth, 4);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(CapsConfig {
            cutoff: 1,
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
