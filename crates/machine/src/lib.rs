//! A deterministic simulated symmetric multiprocessor.
//!
//! *Communication Avoiding Power Scaling* measures three matrix-multiply
//! algorithms on a 4-core Intel E3-1225 (Haswell) with RAPL power planes.
//! This crate is the substitute for that physical testbed: algorithms emit a
//! [`TaskGraph`] whose nodes carry work descriptors ([`TaskCost`]: flops by
//! kernel class, DRAM traffic, inter-core communication), and
//! [`simulate`] plays the graph on `P` simulated cores with
//!
//! * a greedy list scheduler (the fluid analog of the work-stealing pool),
//! * **shared-bandwidth contention** — concurrent memory-bound tasks split
//!   the DRAM bandwidth, which is exactly the resource whose exhaustion
//!   separates the blocked DGEMM from the Strassen variants in the paper,
//! * per-interval **power integration** over three RAPL-style planes
//!   (package, PP0/cores, DRAM), with distinct core power for
//!   flop-saturated, memory-stalled and idle states.
//!
//! The same engine runs clusters: [`simulate_nodes`] plays a graph whose
//! tasks [`TaskGraph::add_on`] pinned to nodes on `N` copies of the machine
//! joined by a [`Fabric`]. A task's fabric ingress drains first (latency,
//! then bytes at its share of the bisection), each node keeps its own cores
//! and DRAM contention, and a fourth energy plane charges the network.
//! `powerscale-cluster` builds its distributed plans on it.
//!
//! The output [`Schedule`] carries the makespan, per-core utilisation and
//! per-plane energy; `powerscale-rapl` wraps it in RAPL counter semantics and
//! `powerscale-core` turns it into the paper's energy-performance ratios.
//! Both entries check the configuration first ([`ConfigError`]): a zero or
//! NaN rate is an error, never a schedule that does not finish.
//!
//! Determinism: no clocks, no randomness — identical inputs produce
//! bit-identical schedules on any host, which is what lets a 1-core CI box
//! reproduce 4-core experiments.
//!
//! # Example
//!
//! ```
//! use powerscale_machine::{presets, simulate, KernelClass, TaskCost, TaskGraph};
//!
//! let machine = presets::e3_1225();
//! let mut g = TaskGraph::new();
//! // Four independent compute-heavy tasks...
//! for _ in 0..4 {
//!     g.add(TaskCost::compute(KernelClass::PackedGemm, 1_000_000_000), &[]);
//! }
//! let s1 = simulate(&g, &machine, 1);
//! let s4 = simulate(&g, &machine, 4);
//! // ...speed up ~4x on 4 cores,
//! assert!(s1.makespan / s4.makespan > 3.9);
//! // ...and draw more package power while doing so.
//! assert!(s4.energy.pkg_avg_watts(s4.makespan) > s1.energy.pkg_avg_watts(s1.makespan));
//! ```

#![warn(missing_docs)]

mod config;
pub mod net;
pub mod presets;
mod schedule;
mod task;

pub use config::{ComputeModel, ConfigError, Fabric, MachineConfig, PowerModel, TrafficModel};
pub use net::{
    run_spmd, Endpoint, LinkModel, LinkTraffic, MemMeter, NetConfig, NetError, NetPayload,
    NetReport, Phase, RankStats,
};
pub use schedule::{simulate, simulate_nodes, EnergyBreakdown, Schedule, ScheduledTask};
pub use task::{KernelClass, TaskCost, TaskGraph, TaskId, ALL_KERNEL_CLASSES, KERNEL_CLASS_COUNT};
