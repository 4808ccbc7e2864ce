//! Task-parallel Strassen and Strassen-Winograd matrix multiplication.
//!
//! This crate reproduces the paper's second comparator (§IV-B): the BOTS
//! Strassen, an OpenMP-task recursion that partitions the operands into
//! quadrants, forms the seven Strassen products in parallel, and reverts to
//! a dense leaf solver once sub-matrices reach the cutover size. The paper
//! empirically settles on n ≤ 64, and so does [`StrassenConfig::paper`];
//! [`StrassenConfig::default`] stops where a step stops paying for the
//! dispatched kernel ([`cost::executed_cutoff`]).
//!
//! Two variants are provided:
//!
//! * [`Variant::Classic`] — the 7-multiply / 18-add scheme printed as
//!   Equation 7 of the paper (with the two well-known typos in the paper's
//!   rendition of Q5/Q6 corrected to Strassen's original formulas);
//! * [`Variant::Winograd`] — the 7-multiply / 15-add Winograd arrangement
//!   the BOTS benchmark actually implements.
//!
//! Both recurse on padded operands when the dimension is not
//! `cutoff · 2^k`-shaped (zero padding is multiplication-neutral), spawn
//! through [`powerscale_pool::ThreadPool`] down to a configurable task
//! depth, and report their work through [`powerscale_counters::EventSet`].
//! [`plan`] emits the equivalent task graph for the simulated machine.
//!
//! The recursion exists once. Its executor and its plan are generic over a
//! [`Schedule`]: [`multiply`] and [`strassen_graph_with`] run it under the
//! BOTS `Untied` schedule, and `powerscale-caps` runs the same walker
//! under its BFS/DFS schedule.
//!
//! # Example
//!
//! ```
//! use powerscale_strassen::{multiply, StrassenConfig};
//! use powerscale_matrix::MatrixGen;
//!
//! let mut gen = MatrixGen::new(1);
//! let a = gen.paper_operand(128);
//! let b = gen.paper_operand(128);
//! let c = multiply(&a.view(), &b.view(), &StrassenConfig::default(), None, None).unwrap();
//! let reference = powerscale_gemm::naive::naive_mm(&a.view(), &b.view()).unwrap();
//! assert!(powerscale_matrix::norms::rel_frobenius_error(&c.view(), &reference.view()) < 1e-10);
//! ```

#![warn(missing_docs)]

pub mod accounting;
mod config;
pub mod cost;
mod exec;
pub mod memory;
pub mod plan;
pub mod schedule;

pub use config::{StrassenConfig, Variant};
pub use exec::{multiply, multiply_with};
pub use plan::strassen_graph_with;
pub use schedule::Schedule;
