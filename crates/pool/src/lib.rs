//! A work-stealing task pool: the shared-memory tasking substrate for the
//! `powerscale` reproduction of *Communication Avoiding Power Scaling*
//! (Chen & Leidel, ICPPW 2015).
//!
//! The paper's Strassen and CAPS implementations are built on **OpenMP untied
//! tasks** (the BOTS suite). This crate reproduces that substrate in safe
//! Rust idiom: a fixed-size pool of workers with per-worker Chase–Lev deques
//! (via `crossbeam-deque`), a global injector for external submissions, and a
//! rayon-style [`ThreadPool::scope`] API whose spawned tasks may themselves
//! spawn — the recursion pattern Strassen needs. A worker that blocks on a
//! nested scope *helps*: it keeps executing other tasks until its scope
//! drains, so recursive task trees never deadlock, exactly like untied OpenMP
//! tasks migrating between threads.
//!
//! Per-worker [`stats`](PoolStats) (tasks run, steals, injector hits) feed
//! the communication accounting in the machine model: a steal is exactly the
//! event that moves operand data between cores' caches.
//!
//! Scoped task trees are cooperatively cancellable: root a scope with
//! [`ThreadPool::scope_with_cancel`] and its [`CancelToken`] (explicit or
//! deadline-armed) is consulted at spawn and steal/pop boundaries and
//! exposed to leaf kernels via [`cancel_requested`], so an expired request
//! frees its workers instead of running to completion.
//!
//! Workers can further be partitioned into **scheduling groups**
//! ([`ThreadPool::try_install_groups`]) — the disjoint processor groups of
//! a CAPS BFS step. Grouped workers steal own-group first; under a strict
//! layout they never execute work from another group, and the
//! in-group/cross-group split of every steal is reported in
//! [`PoolStats`].
//!
//! # Example
//!
//! ```
//! use powerscale_pool::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let (a, b) = pool.join(|| 21 * 2, || "hi");
//! assert_eq!(a, 42);
//! assert_eq!(b, "hi");
//!
//! let mut results = vec![0usize; 8];
//! pool.scope(|s| {
//!     for (i, slot) in results.iter_mut().enumerate() {
//!         s.spawn(move |_| *slot = i * i);
//!     }
//! });
//! assert_eq!(results[7], 49);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod cancel;
pub mod det;
mod pool;
mod scope;
mod stats;

pub use cancel::{cancel_requested, CancelReason, CancelToken};
pub use det::{DetConfig, DetEvent, DetTrace};
pub use pool::{current_worker_index, GroupGuard, ThreadPool};
pub use scope::Scope;
pub use stats::PoolStats;
