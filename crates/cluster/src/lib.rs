//! Distributed-memory extension of the powerscale study.
//!
//! The paper's first future-work commitment (§VIII): "migrate the current
//! implementation to a distributed memory implementation using MPI.
//! Measuring the power performance characteristics of a distributed
//! memory platform shall take into account the power associated with
//! transmitting memory blocks across the interconnect as well as local
//! communication traffic", using "the same microarchitecture as utilized
//! in this test as to make fair comparisons".
//!
//! This crate delivers that study on the simulation substrate:
//!
//! * [`ClusterConfig`] — `N` nodes of the paper's E3-1225 machine joined
//!   by an InfiniBand-class fabric, with NIC/switch power accounting;
//! * [`DistGraph`] — task DAGs with explicit node placement and
//!   inter-node transfer volumes;
//! * [`simulate_cluster`] — a two-level fluid scheduler: per-node cores
//!   and DRAM exactly as in `powerscale-machine`, plus a shared network
//!   with per-link ceilings and latency, and per-plane + network energy
//!   integration;
//! * [`plans`] — distributed CAPS (BFS across nodes, node-local below)
//!   versus a classic 2D **SUMMA** blocked multiply, the communication
//!   baseline CAPS is measured against in the CAPS papers;
//! * [`study`] — the EP scaling study across node counts, answering the
//!   question the paper poses: does communication avoidance still buy
//!   ideal energy scaling when communication costs real network power?
//!
//! # Example
//!
//! ```
//! use powerscale_cluster::{presets, plans, simulate_cluster};
//!
//! let cluster = presets::e3_1225_cluster(4);
//! let caps = plans::dist_caps_graph(2048, &cluster);
//! let summa = plans::summa_graph(2048, &cluster).unwrap();
//! let sc = simulate_cluster(&caps, &cluster);
//! let ss = simulate_cluster(&summa, &cluster);
//! // CAPS's memory-stalled nodes draw far less power than SUMMA's
//! // flop-saturated ones — the paper's §VI-D argument at cluster scale.
//! assert!(sc.energy.avg_watts(sc.makespan) < ss.energy.avg_watts(ss.makespan));
//! ```

#![warn(missing_docs)]

mod config;
pub mod dist;
mod graph;
pub mod measured;
pub mod plans;
pub mod presets;
mod sim;
pub mod study;

pub use config::ClusterConfig;
pub use dist::{
    dist_caps_multiply, summa_multiply, DistCapsConfig, DistError, DistOutcome, Layout,
};
pub use graph::{DistGraph, DistTask};
pub use sim::{simulate_cluster, ClusterEnergy, ClusterSchedule};
