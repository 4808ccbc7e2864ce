//! The two serving workloads. `serve_f64` is the `serve` binary's default
//! mix (five sizes × three algorithm hints, f64, 5 s deadline) with the
//! journal off; `serve_mixed_journaled` gives a fifth of the requests a
//! non-f64 tier and turns the write-ahead journal on.
//!
//! Closed loop: `Server::run` takes a batch, admits it from one front
//! thread paced by the queue watermark, and returns when every request is
//! answered — there is no arrival schedule to drive. A run is a sequence
//! of such batches ("rounds") on one server; throughput and latency
//! percentiles are taken per round and reported as medians over rounds.

use crate::host;
use crate::layers::{self, median_secs};
use crate::run::{self, timed, Ctx, Mode, Report, GFLOPS_METRICS};
use crate::stats::{self, percentile, Sample};
use crate::trace::Recorder;
use powerscale::caps;
use powerscale::gemm::{self, DtypeTier};
use powerscale::harness::{Algorithm, Harness};
use powerscale::matrix::{Matrix, MatrixGen};
use powerscale::strassen;
use powerscale_serve::{
    checksum_f64, JobSpec, Journal, JournalRecord, Response, ServeManifest, Server, ServerConfig,
    Status,
};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SIZES: [usize; 5] = [64, 96, 128, 192, 256];
const ALGOS: [Algorithm; 3] = [Algorithm::Blocked, Algorithm::Strassen, Algorithm::Caps];
/// Ids of the untimed warm-up batch sit above every timed id.
const WARMUP_BASE: u64 = 1 << 40;
/// Every `CHECKSUM_STRIDE`-th eligible response has its checksum
/// recomputed out of band.
const CHECKSUM_STRIDE: u64 = 64;

/// FNV-1a over a few words: the request generator's hash. Same construction
/// as `powerscale_serve::chaos::fnv1a`, kept here so that a change to the
/// program's hash cannot silently change the benchmark's inputs.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Request `id` of the mix: a pure function of `(seed, id)`.
fn spec(seed: u64, id: u64, mixed: bool) -> JobSpec {
    let h = fnv1a(&[seed, id]);
    let n = SIZES[(h % SIZES.len() as u64) as usize];
    let algorithm = ALGOS[((h >> 8) % ALGOS.len() as u64) as usize];
    let dtype = match (mixed, (h >> 40) % 10) {
        (true, 0) => DtypeTier::F32,
        (true, 1) => DtypeTier::Mixed,
        _ => DtypeTier::F64,
    };
    JobSpec::new(id, n, algorithm)
        .with_seed(fnv1a(&[seed, id, 0xa11]))
        .with_dtype(dtype)
        .with_deadline_ms(5_000)
}

fn config(seed: u64, journal_dir: Option<PathBuf>) -> ServerConfig {
    let threads = host::load_threads();
    ServerConfig {
        seed,
        threads,
        executors: threads,
        capacity: 64,
        batch: 8,
        chaos: None,
        journal_dir,
        ..ServerConfig::default()
    }
}

fn manifest(cfg: &ServerConfig) -> ServeManifest {
    ServeManifest {
        seed: cfg.seed,
        capacity: cfg.capacity,
        threads: cfg.threads,
    }
}

/// The product the server must have computed for an undegraded f64 request,
/// from the generated inputs alone.
fn expected_checksum(spec: &JobSpec, harness: &Harness) -> u64 {
    let mut gen = MatrixGen::new(spec.seed);
    let (a, b) = (gen.paper_operand(spec.n), gen.paper_operand(spec.n));
    let c: Matrix = match spec.algorithm {
        Algorithm::Blocked => gemm::multiply(&a.view(), &b.view()),
        Algorithm::Strassen => {
            strassen::multiply(&a.view(), &b.view(), &harness.strassen, None, None)
        }
        Algorithm::Caps => caps::multiply(&a.view(), &b.view(), &harness.caps, None, None),
    }
    .expect("square operands");
    checksum_f64(c.as_slice())
}

/// Checks one round's responses against the specs that produced them:
/// each id answered exactly once and `Completed`, and a sample of the
/// checksums recomputed. Counts every request as one attempted op.
fn check_round(report: &mut Report, specs: &[JobSpec], responses: &[Response], harness: &Harness) {
    let mut by_id: HashMap<u64, Vec<&Response>> = HashMap::new();
    for r in responses {
        by_id.entry(r.id).or_default().push(r);
    }
    for spec in specs {
        let ok = match by_id.get(&spec.id).map(Vec::as_slice) {
            Some([r]) if r.status == Status::Completed => {
                let sampled = spec.id % CHECKSUM_STRIDE == 0
                    && spec.dtype == DtypeTier::F64
                    && r.degraded.is_none();
                !sampled || r.checksum == Some(expected_checksum(spec, harness))
            }
            // Lost, duplicated, rejected or failed.
            _ => false,
        };
        report.op(ok);
    }
    let extra = responses.len().saturating_sub(specs.len());
    for _ in 0..extra {
        report.op(false);
    }
}

/// What is kept of the served rounds: per-round figures the end-to-end
/// metrics are medians of, and (traced pass only) the per-request phase
/// times the program reports. Responses themselves are checked and dropped
/// round by round, so resident memory does not grow with throughput.
#[derive(Default)]
struct Served {
    rps: Vec<f64>,
    p50_ms: Vec<f64>,
    gflops: [Vec<f64>; 3],
    keep_phases: bool,
    latency_ms: Vec<f64>,
    queued_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    multiply_ms: Vec<f64>,
    joules: Vec<f64>,
    /// Per request size: summed `exec_ms`, summed `wall_ms`, request count.
    by_size: HashMap<usize, (f64, f64, u64)>,
}

fn latency_ms(r: &Response) -> Option<f64> {
    Some(r.queued_ms? + r.exec_ms?)
}

impl Served {
    fn push(&mut self, specs: &[JobSpec], responses: &[Response], wall_s: f64) {
        self.rps.push(responses.len() as f64 / wall_s);
        let lat: Vec<f64> = responses.iter().filter_map(latency_ms).collect();
        self.p50_ms.push(stats::median(&lat));
        if self.keep_phases {
            self.latency_ms.extend(&lat);
        }
        let by_id: HashMap<u64, &Response> = responses.iter().map(|r| (r.id, r)).collect();
        let mut flops = [0.0f64; 3];
        let mut secs = [0.0f64; 3];
        for spec in specs {
            let Some(r) = by_id.get(&spec.id) else {
                continue;
            };
            let (Some(mult), Some(exec)) = (r.wall_ms, r.exec_ms) else {
                continue;
            };
            let a = ALGOS
                .iter()
                .position(|&x| x == spec.algorithm)
                .expect("known algorithm");
            flops[a] += 2.0 * (spec.n as f64).powi(3);
            secs[a] += mult / 1e3;
            if self.keep_phases {
                self.queued_ms.extend(r.queued_ms);
                self.exec_ms.push(exec);
                self.multiply_ms.push(mult);
                self.joules.extend(r.joules);
                let e = self.by_size.entry(spec.n).or_default();
                *e = (e.0 + exec, e.1 + mult, e.2 + 1);
            }
        }
        for a in 0..3 {
            if secs[a] > 0.0 {
                self.gflops[a].push(flops[a] / secs[a] / 1e9);
            }
        }
    }
}

/// Serves `specs` on a fresh server; returns requests per second.
fn leg(cfg: ServerConfig, specs: &[JobSpec]) -> f64 {
    let mut server = Server::new(cfg).expect("fresh journal");
    let t0 = Instant::now();
    let responses = server.run(specs.to_vec());
    responses.len() as f64 / t0.elapsed().as_secs_f64()
}

/// `serve_f64` (`mixed = false`) or `serve_mixed_journaled`.
pub fn run(ctx: &Ctx, mixed: bool) -> Report {
    let round_len: u64 = if mixed { 500 } else { 1000 };
    let mut report = Report::default();

    // Set-up: scratch directory, server (pool, queue, journal), request
    // generation for the warm-up, one untimed warm-up batch that touches
    // every size and algorithm.
    let scratch = host::scratch_dir();
    let journal_dir = mixed.then(|| scratch.join("journal"));
    if mixed {
        std::fs::create_dir_all(&scratch).expect("scratch directory");
    }
    let cfg = config(ctx.seed, journal_dir.clone());
    let harness = Harness::default();
    let mut server = Server::new(cfg.clone()).expect("fresh journal");
    let warm: Vec<JobSpec> = (0..64)
        .map(|i| spec(ctx.seed, WARMUP_BASE + i, mixed))
        .collect();
    let warm_responses = server.run(warm.clone());
    report.setup_s = ctx.since_start();
    if ctx.mode == Mode::SetupOnly {
        drop(server);
        cleanup(&scratch, mixed);
        return report;
    }
    check_round(&mut report, &warm, &warm_responses, &harness);

    let mut served = Served {
        keep_phases: ctx.mode == Mode::Trace,
        ..Served::default()
    };
    let (plain, traced, rec) = run::rounds(ctx, 4, |i, rec| {
        let specs: Vec<JobSpec> = (i * round_len..(i + 1) * round_len)
            .map(|id| spec(ctx.seed, id, mixed))
            .collect();
        let batch = specs.clone();
        let (responses, wall_s) = timed(rec, "serve.server.run", i, || server.run(batch));
        served.push(&specs, &responses, wall_s);
        rec.span("check.responses", i, || {
            check_round(&mut report, &specs, &responses, &harness)
        });
    });
    let total_rounds = (plain.len() + traced.len()) as u64;

    let serve_stats = server.stats().clone();
    drop(server);
    report.check(
        "no_shed_degraded_or_deadline_failures",
        serve_stats.shed
            + serve_stats.degraded
            + serve_stats.failed_deadline
            + serve_stats.failed_panics
            == 0,
        format!("{serve_stats:?}"),
    );
    let mut resume_ms_per_1k = 0.0;
    if let Some(dir) = &journal_dir {
        let expected: BTreeSet<u64> = warm
            .iter()
            .map(|s| s.id)
            .chain(0..total_rounds * round_len)
            .collect();
        let t0 = Instant::now();
        let recovered = Journal::resume(dir, &manifest(&cfg));
        resume_ms_per_1k = t0.elapsed().as_secs_f64() * 1e3 / (expected.len() as f64 / 1e3);
        let (ok, detail) = match recovered {
            Ok((_, records)) => {
                let ids: BTreeSet<u64> = records.iter().map(|r| r.spec.id).collect();
                let done = records.iter().all(|r| r.response.is_some());
                (
                    ids == expected && done,
                    format!("{} records for {} served", ids.len(), expected.len()),
                )
            }
            Err(e) => (false, e.to_string()),
        };
        report.check("journal_resume_recovers_served_ids", ok, detail);
    }
    report.counts.push(("rounds".into(), total_rounds));
    report.counts.push(("requests_per_round".into(), round_len));

    if ctx.mode == Mode::Measure {
        cleanup(&scratch, mixed);
        for (a, metric) in GFLOPS_METRICS.into_iter().enumerate() {
            report
                .e2e
                .push((metric, Sample::median_of(&served.gflops[a])));
        }
        report
            .e2e
            .push(("throughput_rps", Sample::median_of(&served.rps)));
        report
            .e2e
            .push(("latency_p50_ms", Sample::median_of(&served.p50_ms)));
        return report;
    }

    // Traced pass.
    run::trace_overhead(&mut report, &plain, &traced);
    let (queued, exec, multiply, joules) = (
        &served.queued_ms,
        &served.exec_ms,
        &served.multiply_ms,
        &served.joules,
    );
    for (metric, values, q) in [
        ("serve.server.queued_ms_p50", queued, 0.5),
        ("serve.server.queued_ms_p90", queued, 0.9),
        ("serve.server.queued_ms_p99", queued, 0.99),
        ("serve.server.queued_ms_p999", queued, 0.999),
        ("serve.server.latency_p90_ms", &served.latency_ms, 0.9),
        ("serve.server.latency_p99_ms", &served.latency_ms, 0.99),
        ("serve.server.exec_ms_p50", exec, 0.5),
        ("serve.server.exec_ms_p99", exec, 0.99),
        ("serve.server.multiply_ms_p50", multiply, 0.5),
        ("serve.server.multiply_ms_p99", multiply, 0.99),
    ] {
        report.layer(metric, percentile(values, q));
    }
    if !joules.is_empty() {
        report.layer(
            "serve.server.joules_per_request",
            joules.iter().sum::<f64>() / joules.len() as f64,
        );
    }
    report.layer("serve.server.shed", serve_stats.shed as f64);
    report.layer("serve.server.degraded", serve_stats.degraded as f64);
    report.layer("serve.server.retried", serve_stats.retried as f64);
    report.layer(
        "serve.server.failed_deadline",
        serve_stats.failed_deadline as f64,
    );

    layers::host(&mut report);
    layers::kernel(&mut report);
    layers::matrix(&mut report, ctx.seed);
    layers::request_phases(&mut report);
    layers::pool(&mut report);
    let journal_us = if mixed {
        journal_probe(&mut report, &scratch, ctx.seed)
    } else {
        0.0
    };
    if mixed {
        report.layer("serve.journal.resume_ms_per_1k", resume_ms_per_1k);
    }
    phase_residual(&mut report, &served.by_size, ctx.seed, journal_us);
    submit_drain_probe(&mut report, &rec, ctx.seed, mixed);
    if mixed {
        // Three short legs on fresh servers isolate the two features this
        // workload adds to serve_f64.
        let ids = || WARMUP_BASE * 2..WARMUP_BASE * 2 + 1500;
        let f64_mix: Vec<JobSpec> = ids().map(|id| spec(ctx.seed, id, false)).collect();
        let mixed_mix: Vec<JobSpec> = ids().map(|id| spec(ctx.seed, id, true)).collect();
        let base = leg(config(ctx.seed, None), &f64_mix);
        let journaled = leg(
            config(ctx.seed, Some(scratch.join("leg_journal"))),
            &f64_mix,
        );
        let tiers = leg(config(ctx.seed, None), &mixed_mix);
        report.layer("serve.journal.overhead_frac", 1.0 - journaled / base);
        report.layer("serve.dtype.mixed_over_f64_rps", tiers / base);
    }
    cleanup(&scratch, mixed);
    report.spans = rec.spans();
    report
}

fn cleanup(scratch: &Path, mixed: bool) {
    if mixed {
        let _ = std::fs::remove_dir_all(scratch);
    }
}

/// `serve.server.phase_residual_frac`: the share of in-executor time that
/// isolated operand generation, the reported multiply time, the isolated
/// checksum and the isolated journal write do not explain.
fn phase_residual(
    report: &mut Report,
    by_size: &HashMap<usize, (f64, f64, u64)>,
    seed: u64,
    journal_us: f64,
) {
    let (mut explained, mut total) = (0.0, 0.0);
    for (&n, &(exec_ms, multiply_ms, count)) in by_size {
        let mut gen = MatrixGen::new(seed);
        let generate = median_secs(20, || {
            std::hint::black_box((gen.paper_operand(n), gen.paper_operand(n)));
        });
        let c = gen.paper_operand(n);
        let checksum = median_secs(20, || {
            std::hint::black_box(checksum_f64(c.as_slice()));
        });
        total += exec_ms;
        explained += multiply_ms + count as f64 * ((generate + checksum) * 1e3 + journal_us / 1e3);
    }
    if total > 0.0 {
        report.layer("serve.server.phase_residual_frac", 1.0 - explained / total);
    }
}

/// `serve.server.submit_us_*`, `drain_ms_per_req`: the explicit
/// submit-then-drain contract, a queue's worth at a time, on its own
/// server so the main run's counters stay clean. Each submit and each
/// drain is a span; a request's submit span carries its id.
fn submit_drain_probe(report: &mut Report, rec: &Recorder, seed: u64, mixed: bool) {
    let cfg = config(seed, None);
    let capacity = cfg.capacity as u64;
    let mut server = Server::new(cfg).expect("no journal");
    let mut submit_us = Vec::new();
    let mut drain_ms = Vec::new();
    for chunk in 0..8u64 {
        let base = WARMUP_BASE * 3 + chunk * capacity;
        for id in base..base + capacity {
            let s = spec(seed, id, mixed);
            let (_, secs) = timed(rec, "serve.server.submit", id, || server.submit(s));
            submit_us.push(secs * 1e6);
        }
        let ((), secs) = timed(rec, "serve.server.drain", base, || server.drain());
        drain_ms.push(secs * 1e3 / capacity as f64);
        server.take_responses();
    }
    report.layer("serve.server.submit_us_p50", percentile(&submit_us, 0.5));
    report.layer("serve.server.submit_us_p99", percentile(&submit_us, 0.99));
    report.layer("serve.server.drain_ms_per_req", stats::median(&drain_ms));
}

/// `serve.journal.*`: the two writes a journaled request costs, on a
/// scratch journal. Returns the per-request journal microseconds (admit +
/// done medians) for the phase attribution.
fn journal_probe(report: &mut Report, scratch: &Path, seed: u64) -> f64 {
    const RECORDS: u64 = 500;
    let dir = scratch.join("probe_journal");
    let cfg = config(seed, Some(dir.clone()));
    // A short served batch provides real records (spec, plan, response).
    let specs: Vec<JobSpec> = (0..RECORDS)
        .map(|i| spec(seed, WARMUP_BASE * 4 + i, true))
        .collect();
    let mut server = Server::new(cfg.clone()).expect("fresh journal");
    server.run(specs);
    drop(server);
    let (journal, records) = Journal::resume(&dir, &manifest(&cfg)).expect("journal just written");
    let (mut admit, mut done) = (Vec::new(), Vec::new());
    for rec in &records {
        let pending = JournalRecord::pending(rec.spec, rec.plan());
        let t0 = Instant::now();
        journal.record_admitted(&pending);
        admit.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        journal.record_done(rec);
        done.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let (mut files, mut bytes) = (0u64, 0u64);
    if let Ok(entries) = std::fs::read_dir(dir.join("requests")) {
        for entry in entries.flatten() {
            files += 1;
            bytes += entry.metadata().map_or(0, |m| m.len());
        }
    }
    report.layer("serve.journal.admit_us_p50", percentile(&admit, 0.5));
    report.layer("serve.journal.admit_us_p99", percentile(&admit, 0.99));
    report.layer("serve.journal.done_us_p50", percentile(&done, 0.5));
    report.layer("serve.journal.done_us_p99", percentile(&done, 0.99));
    report.layer(
        "serve.journal.bytes_per_req",
        bytes as f64 / records.len().max(1) as f64,
    );
    report.layer(
        "serve.journal.files_per_req",
        files as f64 / records.len().max(1) as f64,
    );
    percentile(&admit, 0.5) + percentile(&done, 0.5)
}
