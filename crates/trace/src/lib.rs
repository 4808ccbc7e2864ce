//! # powerscale-trace
//!
//! Unified run-timeline observability for the workspace: lock-free
//! per-worker span/event rings with nanosecond timestamps, plus
//! exporters for Chrome trace-event JSON (Perfetto-loadable),
//! folded-stack flamegraph text, and a machine-readable per-phase EP
//! summary that attributes sampled RAPL energy to algorithm phases.
//!
//! ## Feature strategy
//!
//! Instrumented crates depend on this crate **unconditionally** and call
//! the hooks with no `cfg` at the call site. With the `enable` feature
//! off (the default) every hook is an empty `#[inline]` function and the
//! session API collects an empty [`Trace`] — the same pattern the `log`
//! crate uses for compiled-out levels. Turning on any consumer's `trace`
//! feature activates `powerscale-trace/enable`, and Cargo feature
//! unification lights up every instrumentation site in that build graph.
//!
//! Even when compiled in, an inactive session costs one relaxed atomic
//! load per hook; recording never allocates on the hot path (the one
//! cold allocation is each thread's ring registration, once per thread
//! per session).
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
mod summary;

pub use export::{
    coverage, span_forest, structural_signature, to_chrome_json, to_folded, SpanNode,
};
pub use model::{Category, Kind, Record, ThreadTrace, Trace};
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

/// Whether this build carries the recorder (`enable` feature). Lets
/// callers give an actionable error ("rebuild with --features trace")
/// instead of silently writing an empty trace.
pub const fn build_enabled() -> bool {
    cfg!(feature = "enable")
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
        #[cfg(feature = "enable")]
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
    #[cfg(feature = "enable")]
    ring::push_begin(cat, name, arg0, arg1);
    #[cfg(not(feature = "enable"))]
    let _ = (cat, name, arg0, arg1);
    SpanGuard { _priv: () }
}

#[cfg(feature = "enable")]
mod ring;

#[cfg(feature = "enable")]
pub use ring::{active, async_begin, async_end, counter, instant, set_thread_label, start, stop};

#[cfg(not(feature = "enable"))]
mod noop {
    use super::{Category, Trace, TraceConfig};

    /// Records a point event (no-op: `enable` feature off).
    #[inline(always)]
    pub fn instant(_cat: Category, _name: &'static str, _arg0: u32) {}

    /// Records a counter sample (no-op: `enable` feature off).
    #[inline(always)]
    pub fn counter(_name: &'static str, _value: f64) {}

    /// Opens a cross-thread async span (no-op: `enable` feature off).
    #[inline(always)]
    pub fn async_begin(_cat: Category, _name: &'static str, _id: u64) {}

    /// Closes a cross-thread async span (no-op: `enable` feature off).
    #[inline(always)]
    pub fn async_end(_cat: Category, _name: &'static str, _id: u64) {}

    /// Names the calling thread (no-op: `enable` feature off).
    #[inline(always)]
    pub fn set_thread_label(_label: &'static str, _index: u32) {}

    /// Whether a session is active — always `false` in this build.
    #[inline(always)]
    pub fn active() -> bool {
        false
    }

    /// Starts a session — always refuses in this build.
    #[inline(always)]
    pub fn start(_config: TraceConfig) -> bool {
        false
    }

    /// Stops the session — always returns an empty trace in this build.
    #[inline(always)]
    pub fn stop() -> Trace {
        Trace::default()
    }
}

#[cfg(not(feature = "enable"))]
pub use noop::{active, async_begin, async_end, counter, instant, set_thread_label, start, stop};
