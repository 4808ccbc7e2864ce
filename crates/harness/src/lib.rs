//! The experiment harness: regenerates every table and figure of
//! *Communication Avoiding Power Scaling* (Chen & Leidel, ICPPW 2015).
//!
//! The paper's execution configuration (§VI-A) is a 48-run matrix: three
//! algorithms (tuned blocked DGEMM, parallel Strassen, CAPS) × problem
//! sizes {512, 1024, 2048, 4096} × thread counts {1, 2, 3, 4}. This crate
//! runs that matrix on the simulated E3-1225 machine, measures it through
//! the RAPL substrate (counters, wrap arithmetic, sampling meter — the
//! full measurement stack the paper used via PAPI), and reproduces:
//!
//! * **Table II / Figure 3** — Strassen & CAPS slowdown vs the blocked
//!   baseline ([`tables::slowdown_table`], [`figures::fig3_slowdown`]);
//! * **Table III / Figures 4–6** — package power vs thread count
//!   ([`tables::power_table`], [`figures::power_figure`]);
//! * **Table IV** — average energy-performance per size
//!   ([`tables::ep_table`]);
//! * **Figure 7** — EP scaling against the linear threshold
//!   ([`figures::fig7_ep_scaling`]);
//! * **Figure 1** — the conceptual ideal/superlinear illustration
//!   ([`figures::fig1_concept`]);
//! * **Table I** — the infrastructure manifest ([`manifest::manifest`]).
//!
//! Paper reference values are embedded ([`tables::paper`]) so every
//! artifact renders a paper-vs-measured comparison; `EXPERIMENTS.md` is
//! generated by [`report::experiments_markdown`] via the `reproduce`
//! binary.

#![warn(missing_docs)]

pub(crate) mod ascii;
pub mod experiment;
pub mod figures;
pub mod manifest;
pub(crate) mod realexec;
pub mod report;
pub mod sweep;
pub mod tables;
pub(crate) mod tracerun;

pub use experiment::{Algorithm, Harness, RunResult, RunSpec};
pub use powerscale_gemm::DtypeTier;
pub use realexec::{operands_for, RealRunResult};
pub use sweep::{run_sweep, CellRecord, CheckpointError, MatrixOutcome, SweepOptions};
pub use tracerun::TracedRuns;
