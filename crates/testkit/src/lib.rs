//! Test instrumentation for the powerscale multiply stack.
//!
//! Three layers, each usable on its own:
//!
//! * [`oracle`] — a compensated (double-double) reference GEMM and the
//!   max-norm relative-error metric every comparison in the suite uses;
//! * [`metamorphic`] + [`differential`] — algebraic identities and the
//!   full configuration-matrix sweep (blocked / Strassen / CAPS ×
//!   scalar/SIMD kernels × single-SMP/distributed) scored against the
//!   oracle;
//! * [`chaos`] — seeded adversarial-schedule fuzzing on top of the
//!   pool's `deterministic` feature, asserting bitwise
//!   schedule-invariance and exact replay-from-trace.
//!
//! The crate is a test dependency only: pulling it in enables
//! `powerscale-pool/deterministic`, which is a no-op for production
//! builds that don't depend on the testkit.
//!
//! See `TESTING.md` at the workspace root for how these layers map onto
//! the CI jobs and how to reproduce a failing seed.

#![warn(missing_docs)]

pub mod chaos;
pub mod differential;
pub mod metamorphic;
pub mod oracle;

pub use chaos::{chaos_blocked, chaos_caps, chaos_strassen, ChaosConfig, ChaosReport};
pub use differential::{assert_differential, assert_kernel_matrix, dtype_tol, DiffConfig};
pub use metamorphic::{check_identities, MetamorphicReport};
pub use oracle::{max_rel_error, reference_mm};
