//! **powerscale** — a full Rust reproduction of *Communication Avoiding
//! Power Scaling* (Yong Chen & John Leidel, ICPPW 2015).
//!
//! The paper proposes judging parallel algorithms not only by runtime but
//! by how their **energy-performance ratio scales** with parallelism, and
//! demonstrates the model on three dense matrix-multiplication algorithms
//! on a 4-core Haswell SMP: a tuned blocked DGEMM (fastest, but its power
//! scales *superlinearly*), classic parallel Strassen, and Communication
//! Avoiding Parallel Strassen (slower, but with *ideal* power scaling —
//! and CAPS the best of all).
//!
//! This crate is the facade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`model`] | `powerscale-core` | the EP scaling model (Eq. 1–6, 9) |
//! | [`matrix`] | `powerscale-matrix` | dense matrices, views, quadrants |
//! | [`gemm`] | `powerscale-gemm` | blocked/packed DGEMM + leaf/naive kernels |
//! | [`strassen`] | `powerscale-strassen` | task-parallel Strassen (Eq. 7) |
//! | [`caps`] | `powerscale-caps` | CAPS BFS/DFS hybrid + Eq. 8 bound |
//! | [`pool`] | `powerscale-pool` | work-stealing task pool |
//! | [`counters`] | `powerscale-counters` | PAPI-style event sets |
//! | [`cachesim`] | `powerscale-cachesim` | set-associative cache simulator |
//! | [`machine`] | `powerscale-machine` | simulated SMP + power integration |
//! | [`rapl`] | `powerscale-rapl` | RAPL counters, meters, backends |
//! | [`sparse`] | `powerscale-sparse` | sparse formats + SpMV EP study (§VIII) |
//! | [`cluster`] | `powerscale-cluster` | distributed-memory study (§VIII) |
//! | [`harness`] | `powerscale-harness` | the paper's 48-run experiment matrix |
//! | [`trace`] | `powerscale-trace` | run-timeline recorder + trace exporters |
//!
//! # Quickstart
//!
//! ```
//! use powerscale::prelude::*;
//!
//! // Multiply two matrices three ways and check they agree.
//! let mut gen = MatrixGen::new(7);
//! let a = gen.paper_operand(128);
//! let b = gen.paper_operand(128);
//!
//! let blocked = powerscale::gemm::multiply(&a.view(), &b.view()).unwrap();
//! let strassen = powerscale::strassen::multiply(
//!     &a.view(), &b.view(), &StrassenConfig::default(), None, None).unwrap();
//! let caps = powerscale::caps::multiply(
//!     &a.view(), &b.view(), &CapsConfig::default(), None, None).unwrap();
//! assert!(powerscale::matrix::norms::rel_frobenius_error(&strassen.view(), &blocked.view()) < 1e-10);
//! assert!(powerscale::matrix::norms::rel_frobenius_error(&caps.view(), &blocked.view()) < 1e-10);
//!
//! // Reproduce a cell of the paper's experiment on the simulated machine.
//! let h = Harness::default();
//! let r = h.run(RunSpec::new(Algorithm::Caps, 512, 4));
//! assert!(r.pkg_watts > 10.0);
//! ```

#![warn(missing_docs)]

/// The paper's energy-performance scaling model (`powerscale-core`).
pub mod model {
    pub use powerscale_core::*;
}

/// Dense matrix substrate (`powerscale-matrix`).
pub mod matrix {
    pub use powerscale_matrix::*;
}

/// Work-stealing task pool (`powerscale-pool`).
pub mod pool {
    pub use powerscale_pool::*;
}

/// PAPI-style software counters (`powerscale-counters`).
pub mod counters {
    pub use powerscale_counters::*;
}

/// Cache-hierarchy simulator (`powerscale-cachesim`).
pub mod cachesim {
    pub use powerscale_cachesim::*;
}

/// Blocked DGEMM and the reference/leaf kernels (`powerscale-gemm`).
pub mod gemm {
    pub use powerscale_gemm::*;
}

/// Strassen's Equation 7 recursion (`powerscale-strassen`).
pub mod strassen {
    pub use powerscale_strassen::*;
}

/// Communication Avoiding Parallel Strassen (`powerscale-caps`).
pub mod caps {
    pub use powerscale_caps::*;
}

/// The simulated SMP machine (`powerscale-machine`).
pub mod machine {
    pub use powerscale_machine::*;
}

/// RAPL-style energy measurement (`powerscale-rapl`).
pub mod rapl {
    pub use powerscale_rapl::*;
}

/// The paper's experiment harness (`powerscale-harness`).
pub mod harness {
    pub use powerscale_harness::*;
}

/// Run-timeline observability (`powerscale-trace`): span/event recorder,
/// Chrome-trace and flamegraph exporters, per-phase EP attribution.
/// Hooks are no-ops unless built with the facade's `trace` feature.
pub mod trace {
    pub use powerscale_trace::*;
}

/// Sparse formats and their EP study (`powerscale-sparse`) — the paper's
/// §VIII future work.
pub mod sparse {
    pub use powerscale_sparse::*;
}

/// Distributed-memory cluster study (`powerscale-cluster`) — the paper's
/// §VIII future work.
pub mod cluster {
    pub use powerscale_cluster::*;
}

/// The most commonly used items in one import.
pub mod prelude {
    pub use powerscale_caps::CapsConfig;
    pub use powerscale_core::{
        classify_point, crossover_dimension, ep_ratio, ep_scaling, EpCurve, PhaseMeasure,
        ScalingClass,
    };
    pub use powerscale_gemm::{BlockingParams, Dispatch, GemmContext};
    pub use powerscale_harness::{Algorithm, Harness, RunResult, RunSpec};
    pub use powerscale_machine::{presets::e3_1225, simulate, KernelClass, TaskCost, TaskGraph};
    pub use powerscale_matrix::{Matrix, MatrixGen};
    pub use powerscale_pool::ThreadPool;
    pub use powerscale_strassen::StrassenConfig;
}
