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
//!   by an InfiniBand-class [`powerscale_machine::Fabric`], with NIC/switch
//!   power accounting;
//! * [`plans`] — distributed CAPS (BFS across nodes, node-local below)
//!   versus a classic 2D **SUMMA** blocked multiply, the communication
//!   baseline CAPS is measured against in the CAPS papers, emitted as
//!   `powerscale_machine::TaskGraph`s whose tasks are pinned to nodes and
//!   carry their inter-node transfer volumes;
//! * [`ClusterConfig::simulate`] — those graphs on the one fluid engine,
//!   `powerscale_machine::simulate_nodes`: per-node cores and DRAM exactly
//!   as on the SMP, plus a shared network with per-link ceilings and
//!   latency, and a network energy plane;
//! * [`study`] — the EP scaling study across node counts, answering the
//!   question the paper poses: does communication avoidance still buy
//!   ideal energy scaling when communication costs real network power?
//! * [`dist`] and [`measured`] — the executed counterpart: distributed
//!   CAPS and SUMMA multiplying real matrices over the metered
//!   `powerscale_machine::net` transport, gated against Eq. 8.
//!
//! # Example
//!
//! ```
//! use powerscale_cluster::{plans, presets};
//!
//! let cluster = presets::e3_1225_cluster(4);
//! let caps = cluster.simulate(&plans::dist_caps_graph(2048, &cluster)).unwrap();
//! let summa = cluster.simulate(&plans::summa_graph(2048, &cluster).unwrap()).unwrap();
//! // CAPS's memory-stalled nodes draw far less power than SUMMA's
//! // flop-saturated ones — the paper's §VI-D argument at cluster scale.
//! assert!(
//!     caps.energy.total_avg_watts(caps.makespan) < summa.energy.total_avg_watts(summa.makespan)
//! );
//! ```

#![warn(missing_docs)]

mod config;
pub mod dist;
pub mod measured;
pub mod plans;
pub mod presets;
pub mod study;

pub use config::ClusterConfig;
pub use dist::{
    dist_caps_multiply, summa_multiply, DistCapsConfig, DistError, DistOutcome, Layout,
};
