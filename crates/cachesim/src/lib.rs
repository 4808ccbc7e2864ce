//! A set-associative, LRU, write-back cache-hierarchy simulator.
//!
//! The blocked-DGEMM baseline in *Communication Avoiding Power Scaling* owes
//! its performance (and its power draw) to how well its blocking factors fit
//! the cache hierarchy of the paper's Haswell testbed. The rest of the
//! workspace uses only this crate's cache *descriptions*: [`CacheConfig`]
//! and the [`presets`] size `gemm`'s blocking and describe
//! `powerscale-machine`'s hierarchies. Every simulated DRAM byte comes from
//! `powerscale-machine`'s analytic `TrafficModel`, not from this simulator.
//! The simulator itself ([`Cache`], [`Hierarchy`], [`trace`]) simulates the
//! hierarchy at line granularity and has no caller outside this crate's own
//! tests.
//!
//! The simulator is deliberately classic — physical-address streams, LRU
//! replacement per set, write-back/write-allocate, inclusive levels — because
//! that is the model the paper's blocking analysis (Algorithm 1) assumes.
//!
//! # Example
//!
//! ```
//! use powerscale_cachesim::{Cache, CacheConfig};
//!
//! // A 4 KiB direct-mapped cache with 64-byte lines.
//! let mut c = Cache::new(CacheConfig::new(4096, 64, 1));
//! assert!(!c.access(0x0, false));  // cold miss
//! assert!(c.access(0x8, false));   // same line: hit
//! assert!(!c.access(0x1000, false)); // conflicts with line 0 (same set)
//! assert!(!c.access(0x0, false));  // evicted: miss again
//! ```

#![warn(missing_docs)]

mod cache;
mod config;
mod hierarchy;
pub mod presets;
pub mod trace;

pub use cache::{Cache, CacheStats};
pub use config::CacheConfig;
pub use hierarchy::{Hierarchy, HierarchyStats, LevelStats};
