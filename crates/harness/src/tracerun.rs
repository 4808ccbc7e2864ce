//! Traced real executions: runs the real-execution bridge with the
//! run-timeline recorder armed and a background energy sampler stamping
//! RAPL samples onto the *same* clock, then collects the session into
//! Chrome-trace / folded-stack / per-phase-EP exports.
//!
//! This is the `reproduce --trace <path>` backend. The sampler here is
//! the one energy meter that runs on the wall clock, so it is the only
//! source of the `joules:<domain>` counters a session carries: each
//! series is cumulative and never decreases.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::experiment::{Harness, RunSpec};
use crate::realexec::RealRunResult;
use powerscale_machine::KernelClass;
use powerscale_pool::ThreadPool;
use powerscale_rapl::model::ModelReader;
use powerscale_rapl::sysfs::SysfsReader;
use powerscale_rapl::{Domain, EnergyMeter, EnergyReader};
use powerscale_trace as trace;

/// Sampling period for the timeline energy sampler. ~2 ms keeps well
/// inside any RAPL wrap period while staying cheap (a few hundred
/// records per second of run).
const SAMPLE_PERIOD: Duration = Duration::from_millis(2);

/// Everything one traced session produced.
pub struct TracedRuns {
    /// The collected timeline.
    pub trace: trace::Trace,
    /// Per-phase busy-time/energy/EP table derived from it.
    pub summary: trace::PhaseSummary,
    /// The individual run results, in spec order.
    pub runs: Vec<RealRunResult>,
}

impl Harness {
    /// Runs `specs` for real on `pool` with the recorder armed: every
    /// pool/gemm/Strassen/CAPS span lands on one timeline together with
    /// energy-counter samples from a background sampler (host RAPL via
    /// sysfs when readable, the machine-model reader otherwise).
    ///
    /// Returns `None` when a session is already active (nested tracing)
    /// — the caller keeps the running session undisturbed.
    pub fn traced_real_runs(&self, specs: &[RunSpec], pool: &ThreadPool) -> Option<TracedRuns> {
        if !trace::start(trace::TraceConfig::default()) {
            return None;
        }
        trace::set_thread_label("main", u32::MAX);

        // Dropping `stop_tx` wakes the sampler at once for its last sample,
        // so the session does not idle out the rest of a sample period.
        let (stop_tx, stop) = mpsc::channel::<()>();
        let sysfs = SysfsReader::system();
        let sampler = if sysfs.is_available() {
            spawn_sampler(sysfs, stop, |_| {})
        } else {
            // No host RAPL: drive the machine model's power law in real
            // time so the timeline still carries a physically plausible
            // cumulative-joules series.
            let threads = specs.iter().map(|s| s.threads).max().unwrap_or(1);
            let power = &self.machine.power;
            let pkg_w = power.pkg_base_w
                + threads as f64 * power.core_active_w[KernelClass::LeafGemm.index()];
            let model = ModelReader::from_powers(&[
                (Domain::Package, pkg_w),
                (Domain::Dram, power.dram_static_w),
            ]);
            let mut last = Instant::now();
            spawn_sampler(model, stop, move |r| {
                let now = Instant::now();
                r.advance((now - last).as_secs_f64());
                last = now;
            })
        };

        let runs: Vec<RealRunResult> = specs.iter().map(|&s| self.run_real(s, pool)).collect();

        drop(stop_tx);
        sampler.join().expect("sampler thread never panics");
        let collected = trace::stop();
        let summary = trace::phase_summary(&collected);
        Some(TracedRuns {
            trace: collected,
            summary,
            runs,
        })
    }
}

/// Starts the meter on `reader` and stamps each domain's opening zero on
/// the calling thread, before any run begins: without it the curve begins
/// at the sampler's first stamp, which can come milliseconds late while
/// the pool is busy, and a run that ends before it is attributed no
/// energy. Then spawns the sampler: every [`SAMPLE_PERIOD`], and once
/// more when `stop` disconnects, it advances the reader (`tick`: the
/// model reader moves simulated time by real elapsed time), samples and
/// stamps the cumulative joules again.
fn spawn_sampler<R: EnergyReader + Send + 'static>(
    mut reader: R,
    stop: Receiver<()>,
    mut tick: impl FnMut(&mut R) + Send + 'static,
) -> JoinHandle<()> {
    let mut meter = EnergyMeter::start(&mut reader);
    stamp(&meter);
    std::thread::spawn(move || {
        trace::set_thread_label("sampler", u32::MAX);
        loop {
            let last = stop.recv_timeout(SAMPLE_PERIOD) != Err(RecvTimeoutError::Timeout);
            tick(&mut reader);
            meter.sample(&mut reader);
            stamp(&meter);
            if last {
                return;
            }
        }
    })
}

/// Stamps each domain's cumulative joules onto the trace.
fn stamp(meter: &EnergyMeter) {
    for (domain, joules) in meter.joules() {
        trace::counter(trace_counter_name(domain), joules);
    }
}

/// Trace-counter name for a domain's cumulative-joules series.
fn trace_counter_name(d: Domain) -> &'static str {
    match d {
        Domain::Package => "joules:package",
        Domain::PP0 => "joules:pp0",
        Domain::PP1 => "joules:pp1",
        Domain::Dram => "joules:dram",
        Domain::Psys => "joules:psys",
    }
}
