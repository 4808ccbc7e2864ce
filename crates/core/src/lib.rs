//! The energy-performance (EP) scaling model of *Communication Avoiding
//! Power Scaling* (Chen & Leidel, ICPPW 2015) — the paper's primary
//! contribution, as a small pure library.
//!
//! The model relates the average energy draw of a parallel algorithm to its
//! runtime, and tracks how that ratio *scales* with the degree of
//! parallelism:
//!
//! | Paper | Here |
//! |---|---|
//! | Eq. 1 `EP_p = EAvg_p / T_p` | [`ep_ratio`] |
//! | Eq. 2 mixed sequential/parallel `EP_t` | unit-test reference form only |
//! | Eq. 3 plane aggregation `EAvg_n = Σ PPL` | [`PlaneSet::total`] |
//! | Eq. 4 plane-discretised `EP_t` | unit-test reference form only |
//! | Eq. 5/6 scaling `S = EP_p / EP_1` | [`ep_scaling`], [`EpCurve`] |
//! | Fig. 1 ideal vs superlinear regions | [`ScalingClass`], [`classify_point`] |
//! | Eq. 9 Strassen/blocked crossover | [`crossover_dimension`] |
//!
//! Units are deliberately left to the caller (the paper: "we explicitly
//! avoid defining the measurement criteria and units … to permit
//! flexibility"); the harness feeds watts and seconds.
//!
//! # Example
//!
//! ```
//! use powerscale_core::{ep_ratio, ep_scaling, classify_point, PhaseMeasure, ScalingClass};
//!
//! // One thread: 20 W for 8 s. Four threads: 26 W for 2.9 s.
//! let ep1 = ep_ratio(&PhaseMeasure::new(20.0, 8.0));
//! let ep4 = ep_ratio(&PhaseMeasure::new(26.0, 2.9));
//! let s = ep_scaling(ep4, ep1);
//! // S = (26/2.9)/(20/8) ≈ 3.59, below the linear threshold of 4: the
//! // power grew far slower than the parallelism — ideal EP scaling.
//! assert_eq!(classify_point(4, s, 0.05), ScalingClass::Ideal);
//! ```

#![warn(missing_docs)]

mod crossover;
mod ep;
mod scaling;

pub use crossover::crossover_dimension;
pub use ep::{ep_ratio, PhaseMeasure, PlaneSet};
pub use scaling::{classify_point, ep_scaling, EpCurve, EpPoint, ScalingClass};
