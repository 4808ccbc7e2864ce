//! Strassen configuration.

use powerscale_gemm::Dispatch;

/// Tuning knobs of the recursive algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrassenConfig {
    /// Sub-matrix dimension at (or below) which the dense leaf solver takes
    /// over. The paper's empirical optimum on the Haswell testbed is 64
    /// ([`StrassenConfig::paper`]); the executed default is the dispatched
    /// kernel's rule ([`crate::cost::executed_cutoff`]).
    pub cutoff: usize,
    /// Recursion depth down to which new pool tasks are spawned; deeper
    /// levels run inline in their parent task. BOTS spawns an untied task
    /// at *every* recursion level, which is what makes its schedule
    /// placement-oblivious (and communication-heavy); the default of 5
    /// covers every level the paper's problem sizes reach before the
    /// leaves, i.e. it reproduces the BOTS behaviour while bounding the
    /// task count for pathological inputs.
    pub task_depth: u32,
    /// Kernel selection and leaf mode every leaf product runs under.
    pub dispatch: Dispatch,
}

impl Default for StrassenConfig {
    /// The executed configuration: [`StrassenConfig::paper`] with the
    /// cutoff the default dispatch's kernel rules
    /// ([`crate::cost::executed_cutoff`]).
    fn default() -> Self {
        let paper = StrassenConfig::paper();
        StrassenConfig {
            cutoff: crate::cost::executed_cutoff(paper.dispatch.kernel()),
            ..paper
        }
    }
}

impl StrassenConfig {
    /// The paper's configuration: cutoff 64, task depth 5. Every
    /// simulated artifact, paper claim and pinned recursion shape uses it.
    pub fn paper() -> Self {
        StrassenConfig {
            cutoff: crate::cost::PAPER_CUTOFF,
            task_depth: 5,
            dispatch: Dispatch::default(),
        }
    }

    /// Validates the knobs.
    pub fn validate(&self) -> Result<(), String> {
        if self.cutoff < 2 {
            return Err(format!("cutoff {} must be at least 2", self.cutoff));
        }
        Ok(())
    }

    /// Quadrant adds per recursion level: one per operand sum and per
    /// combine step of [`crate::arith`]'s table (10 + 8).
    pub fn adds_per_level(&self) -> u32 {
        crate::arith::node_passes() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = StrassenConfig::paper();
        assert_eq!(c.cutoff, 64);
        c.validate().unwrap();
    }

    #[test]
    fn add_counts_by_variant() {
        assert_eq!(StrassenConfig::default().adds_per_level(), 18);
    }

    #[test]
    fn tiny_cutoff_rejected() {
        let c = StrassenConfig {
            cutoff: 1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
