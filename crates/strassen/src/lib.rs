//! Task-parallel Strassen matrix multiplication.
//!
//! This crate reproduces the paper's second comparator (§IV-B): the BOTS
//! Strassen, an OpenMP-task recursion that partitions the operands into
//! quadrants, forms the seven Strassen products in parallel, and reverts to
//! a dense leaf solver once sub-matrices reach the cutover size. The paper
//! empirically settles on n ≤ 64, and so does [`StrassenConfig::paper`];
//! [`StrassenConfig::default`] stops where a step stops paying for the
//! dispatched kernel ([`cost::executed_cutoff`]).
//!
//! The arrangement is Strassen's classic 7-multiply / 18-add scheme printed
//! as Equation 7 of the paper (with the two well-known typos in the
//! paper's rendition of Q5/Q6 corrected to Strassen's original formulas),
//! written once as the coefficient table in [`arith`]: the executor, the
//! plan, the cost and memory models and distributed CAPS all read it.
//! BOTS runs a 15-add arrangement instead; DESIGN §2 gives the measured
//! speed/error trade behind keeping only Equation 7.
//!
//! The recursion pads its operands when the dimension is not
//! `cutoff · 2^k`-shaped (zero padding is multiplication-neutral), spawns
//! through [`powerscale_pool::ThreadPool`] down to a configurable task
//! depth, and reports its work through [`powerscale_counters::EventSet`].
//! [`plan`] emits the equivalent task graph for the simulated machine.
//!
//! The recursion exists once. Its executor takes a [`Schedule`] value and
//! its plan is generic over a [`Pricing`]: [`multiply`] and
//! [`strassen_graph_with`] run it under the BOTS schedule, and
//! `powerscale-caps` runs the same walker under its BFS/DFS schedule.
//! Every pooled leaf is work-shared by row bands under either.
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
pub mod arith;
mod config;
pub mod cost;
mod exec;
pub mod memory;
pub mod plan;
pub mod schedule;

pub use config::StrassenConfig;
pub use exec::{multiply, multiply_with};
pub use plan::strassen_graph_with;
pub use schedule::{Pricing, Schedule};
