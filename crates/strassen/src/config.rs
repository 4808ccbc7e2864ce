//! Strassen configuration.

use powerscale_gemm::Dispatch;

/// Which seven-multiply arrangement to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// Strassen's original scheme: 7 multiplies, 18 quadrant adds
    /// (the paper's Equation 7).
    #[default]
    Classic,
    /// The Winograd arrangement: 7 multiplies, 15 quadrant adds
    /// (what the BOTS suite implements).
    Winograd,
}

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
    /// Multiply arrangement.
    pub variant: Variant,
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
    /// The paper's configuration: cutoff 64, task depth 5, Classic. Every
    /// simulated artifact, paper claim and pinned recursion shape uses it.
    pub fn paper() -> Self {
        StrassenConfig {
            cutoff: crate::cost::PAPER_CUTOFF,
            task_depth: 5,
            variant: Variant::Classic,
            dispatch: Dispatch::default(),
        }
    }

    /// A Winograd-variant copy of this configuration.
    pub fn winograd(mut self) -> Self {
        self.variant = Variant::Winograd;
        self
    }

    /// Validates the knobs.
    pub fn validate(&self) -> Result<(), String> {
        if self.cutoff < 2 {
            return Err(format!("cutoff {} must be at least 2", self.cutoff));
        }
        Ok(())
    }

    /// Quadrant adds per recursion level for the configured variant: the
    /// operand and combine passes of [`crate::cost::add_passes`].
    pub fn adds_per_level(&self) -> u32 {
        let (pre, combine) = crate::cost::add_passes(self.variant);
        (pre + combine) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = StrassenConfig::paper();
        assert_eq!(c.cutoff, 64);
        assert_eq!(c.variant, Variant::Classic);
        c.validate().unwrap();
    }

    #[test]
    fn add_counts_by_variant() {
        assert_eq!(StrassenConfig::default().adds_per_level(), 18);
        assert_eq!(StrassenConfig::default().winograd().adds_per_level(), 15);
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
