//! Communication Avoiding Parallel Strassen (CAPS).
//!
//! CAPS (Ballard, Demmel, Holtz, Lipshitz, Schwartz — SPAA'12/SC'12)
//! recasts the Strassen recursion as a tree traversal with two step kinds
//! (paper §IV-C, Figure 2, Algorithm 2):
//!
//! * **BFS steps** (tree depth < cutoff depth, default 4): the seven
//!   sub-problems execute *in parallel* on disjoint workers, each with its
//!   own buffer memory. More memory, **less communication** — operands
//!   move once at the split and stay worker-local.
//! * **DFS steps** (deeper levels): the seven sub-problems execute *in
//!   sequence*, each fully parallelised across all workers by loop
//!   work-sharing (row bands), so no task — and no operand — migrates.
//!
//! There is no second recursion here: CAPS is `powerscale-strassen`'s one
//! walker run under a BFS/DFS [`Schedule`](powerscale_strassen::Schedule),
//! for real matrices ([`multiply`]) and for the simulated machine
//! ([`caps_graph_with`]). The schedule names the row-band dense cutover, the
//! pinning of the seven root products onto seven worker groups, and the
//! plan's migration prices; the arithmetic is Strassen's, bit for bit.
//!
//! The total communication obeys the paper's Equation 8,
//! `max(n^ω₀ / (P·M^(ω₀/2−1)), n² / P^(2/ω₀))` with ω₀ = log₂ 7
//! (implemented in [`comm`]), which is what the experiments trace against
//! the classic Strassen graph's migration volume.
//!
//! # Example
//!
//! ```
//! use powerscale_caps::{multiply, CapsConfig};
//! use powerscale_matrix::MatrixGen;
//!
//! let mut gen = MatrixGen::new(1);
//! let a = gen.paper_operand(128);
//! let b = gen.paper_operand(128);
//! let c = multiply(&a.view(), &b.view(), &CapsConfig::default(), None, None).unwrap();
//! let r = powerscale_gemm::naive::naive_mm(&a.view(), &b.view()).unwrap();
//! assert!(powerscale_matrix::norms::rel_frobenius_error(&c.view(), &r.view()) < 1e-10);
//! ```

#![warn(missing_docs)]

pub mod comm;
mod config;
mod exec;
pub mod plan;
mod schedule;

pub use config::CapsConfig;
pub use exec::multiply;
pub use plan::caps_graph_with;
