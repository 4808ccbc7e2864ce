//! # powerscale-trace
//!
//! Unified run-timeline observability for the workspace: lock-free
//! per-worker span/event rings with nanosecond timestamps, plus
//! exporters for Chrome trace-event JSON (Perfetto-loadable),
//! folded-stack flamegraph text, and a machine-readable per-phase EP
//! summary that attributes sampled RAPL energy to algorithm phases.
//!
//! ## Cost model
//!
//! Instrumented crates call the hooks with no `cfg` at the call site, and
//! the recorder is always compiled. With no session active a hook costs
//! one relaxed atomic load; recording never allocates on the hot path
//! (the one cold allocation is each thread's ring registration, once per
//! thread per session).
//!
//! ## Quick use
//!
//! ```
//! use powerscale_trace as trace;
//!
//! trace::start(trace::TraceConfig::default());
//! {
//!     let _span = trace::span_args(trace::Category::Harness, "demo", 0, 0);
//!     trace::instant(trace::Category::Pool, "tick", 1);
//!     trace::counter("joules:package", 0.5);
//! }
//! let t = trace::stop();
//! let json = trace::to_chrome_json(&t); // Perfetto-loadable
//! let folded = trace::to_folded(&t);    // flamegraph.pl input
//! let table = trace::phase_summary(&t); // per-phase EP rows
//! # let _ = (json, folded, table);
//! ```

#![deny(missing_docs)]

mod export;
mod model;
mod ring;
mod summary;

pub use export::{
    coverage, span_forest, structural_signature, to_chrome_json, to_folded, SpanNode,
};
pub use model::{Category, Kind, Record, ThreadTrace, Trace};
pub use ring::{active, async_begin, async_end, counter, instant, set_thread_label, start, stop};
pub use summary::{phase_summary, PhaseRow, PhaseSummary};

/// Session configuration.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Per-thread ring capacity in records. A full ring drops new
    /// records (counted) rather than overwrite history.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        // 64 B/record × 1 Mi records ≈ 64 MiB/thread worst case; deep
        // recursions at n = 1024 emit well under this.
        TraceConfig { capacity: 1 << 20 }
    }
}

/// RAII guard closing a span when dropped.
///
/// Obtained from [`span`]/[`span_args`]; bind it (`let _span = …;`) so it
/// lives for the region being measured.
#[must_use = "binding the guard defines the span's extent"]
pub struct SpanGuard {
    _priv: (),
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        ring::push_end();
    }
}

/// Opens a span on the calling thread; the returned guard closes it.
#[inline]
pub fn span(cat: Category, name: &'static str) -> SpanGuard {
    span_args(cat, name, 0, 0)
}

/// Opens a span carrying two small-integer tags (e.g. recursion depth
/// and sub-problem size).
#[inline]
pub fn span_args(cat: Category, name: &'static str, arg0: u32, arg1: u32) -> SpanGuard {
    ring::push_begin(cat, name, arg0, arg1);
    SpanGuard { _priv: () }
}
