//! What a workload process is told and what it reports back.

use crate::stats::Sample;
use crate::trace::{Recorder, Span};
use serde::Value;
use std::time::Instant;

/// What the process was started for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set up, report `setup_s`, exit: one more fresh-process set-up sample.
    SetupOnly,
    /// Untraced pass: the end-to-end metrics.
    Measure,
    /// Traced pass: spans, isolated layer replays, the per-layer metrics.
    Trace,
}

/// Inputs of one workload process.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed: every generated input is a function of it.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// What to do.
    pub mode: Mode,
    /// Process start, the origin of `setup_s`.
    pub started: Instant,
}

impl Ctx {
    /// Seconds since process start.
    pub fn since_start(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// What one workload process reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Process start to first timed op.
    pub setup_s: f64,
    /// Operations attempted (multiplies, requests), checks included.
    pub attempted: u64,
    /// Operations failed, refused, lost, duplicated or failing a check.
    pub failed: u64,
    /// Invariant checks beyond the per-op ones: `(name, held, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// End-to-end metrics (untraced pass), `setup_s` excluded.
    pub e2e: Vec<(&'static str, Sample)>,
    /// Per-layer metrics (traced pass); names absent here are reported 0.
    pub layers: Vec<(&'static str, f64)>,
    /// Op and sample counts, for the result header.
    pub counts: Vec<(String, u64)>,
    /// Counts that must repeat exactly between two runs of one commit.
    pub exact: Vec<(String, f64)>,
    /// Cells that ran for their counts only (`"timed": false`).
    pub cells: Vec<Value>,
    /// Spans of the traced rounds and probes (traced pass).
    pub spans: Vec<Span>,
}

impl Report {
    /// Records one attempted operation and whether its output check held.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a named invariant check; a failed one counts as a failed op.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.op(ok);
        self.checks.push((name.to_string(), ok, detail));
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Sets a per-layer metric that is an exact count: also listed among
    /// the values two runs of one commit must agree on.
    pub fn layer_exact(&mut self, name: &'static str, value: f64) {
        self.layer(name, value);
        self.exact.push((name.to_string(), value));
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the per-layer table"
        );
        self.layers.push((name, value));
    }
}

/// The per-algorithm rate metrics, in the order blocked, Strassen, CAPS.
pub const GFLOPS_METRICS: [&str; 3] = ["blocked_gflops", "strassen_gflops", "caps_gflops"];

/// Runs `f` under a span and returns its result with its own wall seconds.
pub fn timed<R>(rec: &Recorder, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
    rec.span(name, op, || {
        let t0 = Instant::now();
        let out = f();
        (out, t0.elapsed().as_secs_f64())
    })
}

/// `latency_p50_ms` off the serving path: the wall of the slowest kind of
/// op in the round (the kind with the largest median seconds), in ms. A
/// median pooled over kinds would read the middle kind's time and stay put
/// when the slowest one regresses.
pub fn slowest_kind_ms<'a>(kinds: impl IntoIterator<Item = &'a Vec<f64>>) -> Sample {
    let slowest = kinds
        .into_iter()
        .max_by(|a, b| crate::stats::median(a).total_cmp(&crate::stats::median(b)))
        .expect("a workload times at least one kind of op");
    let ms: Vec<f64> = slowest.iter().map(|s| s * 1e3).collect();
    Sample::median_of(&ms)
}

/// Repeats `round(index, recorder)` until the window closes (at least
/// `min_rounds` times). In the traced pass odd rounds record spans and
/// even rounds do not, so the two sets see the same drift; the untraced
/// pass never records. Returns the round walls of each set and the
/// recorder.
pub fn rounds(
    ctx: &Ctx,
    min_rounds: usize,
    mut round: impl FnMut(u64, &Recorder),
) -> (Vec<f64>, Vec<f64>, Recorder) {
    let on = Recorder::new(ctx.mode == Mode::Trace);
    let off = Recorder::new(false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut i = 0u64;
    while t0.elapsed().as_secs_f64() < ctx.seconds || (i as usize) < min_rounds {
        let use_on = ctx.mode == Mode::Trace && i % 2 == 1;
        let r0 = Instant::now();
        round(i, if use_on { &on } else { &off });
        let wall = r0.elapsed().as_secs_f64();
        if use_on {
            traced.push(wall);
        } else {
            plain.push(wall);
        }
        i += 1;
    }
    (plain, traced, on)
}

/// `bench.trace_overhead_frac` and its base from the two sets of round
/// walls.
pub fn trace_overhead(report: &mut Report, plain: &[f64], traced: &[f64]) {
    let base = crate::stats::median(plain);
    report.layer("bench.untraced_round_s", base);
    if base > 0.0 && !traced.is_empty() {
        report.layer(
            "bench.trace_overhead_frac",
            crate::stats::median(traced) / base - 1.0,
        );
    }
}
