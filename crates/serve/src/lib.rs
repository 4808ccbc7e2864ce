//! Fault-tolerant GEMM serving on the powerscale stack.
//!
//! The paper's algorithms are batch kernels; this crate wraps them in the
//! serving discipline a shared accelerator needs: a **bounded admission
//! queue** (backpressure with typed load shedding), **shape-bucketed
//! batching**, **per-request deadlines** enforced cooperatively through
//! the pool's [`CancelToken`](powerscale_pool::CancelToken) protocol,
//! **bounded retry with backoff** around `catch_unwind`-isolated worker
//! panics, a **degradation ladder** (recursive algorithm → blocked DGEMM)
//! that trades the caller's algorithm for latency before shedding,
//! and a **crash-safe write-ahead journal** giving exactly-once responses
//! across a kill-and-restart.
//!
//! Every [`ServerConfig::executors`](server::ServerConfig) count G runs
//! one serve loop: the pool is partitioned into G per-executor worker
//! groups ([`placement`]), up to G requests are in flight at once with
//! size-aware, strong-scaling-capped widths, small GEMMs take a batched
//! inline fast path, and `run` pipelines admission with execution. A
//! request's frozen plan executes bit-identically at every G.
//!
//! Per-request observability rides the existing layers: a `serve:exec`
//! trace span per execution plus a cross-thread `serve:queued` async span
//! for queue wait, recorded whenever a trace session is active, and model
//! package joules (profile watts × measured wall time).
//!
//! ```no_run
//! use powerscale_harness::Algorithm;
//! use powerscale_serve::{JobSpec, Server, ServerConfig};
//!
//! let mut server = Server::new(ServerConfig::default()).unwrap();
//! let jobs = (0..16).map(|i| {
//!     JobSpec::new(i, 256, Algorithm::Strassen).with_deadline_ms(5_000)
//! });
//! for response in server.run(jobs) {
//!     println!("{}: {:?} in {:?} ms", response.id, response.status, response.wall_ms);
//! }
//! ```
//!
//! The `serve` binary drives a seeded load generator over this engine and
//! emits `BENCH_serving.json` (latency percentiles, joules per request,
//! shed/degraded/retried counts); see the repository README.

#![warn(missing_docs)]

pub mod chaos;
pub mod journal;
pub mod placement;
pub mod queue;
pub mod request;
pub mod server;

pub use chaos::ChaosConfig;
pub use journal::{Journal, JournalError, JournalRecord, ServeManifest};
pub use placement::partition;
pub use queue::ExecPlan;
pub use request::{checksum_f64, DegradeStep, FailReason, JobSpec, RejectReason, Response, Status};
pub use server::{ServeStats, Server, ServerConfig};
