//! Load-generating driver for the fault-tolerant GEMM server.
//!
//! ```text
//! serve [--requests N] [--mix default|storm|burst] [--seed S]
//!       [--threads T] [--executors G] [--queue CAP] [--batch B]
//!       [--retries K] [--backoff MS] [--chaos] [--journal DIR]
//!       [--resume] [--halt-after N] [--out PATH] [--gate]
//! ```
//!
//! Generates a seeded heterogeneous request mix (shapes, algorithm
//! hints, dtype tiers, deadlines), serves it, prints a summary and
//! writes the run report (`--out`, default `artifacts/BENCH_serving.json`).
//!
//! Mixes: `default` has generous deadlines (the ≥ 99% deadline-hit
//! configuration); `storm` gives half the requests near-zero deadlines.
//! Both go through `Server::run`, which pipelines admission with
//! execution and paces below the degradation watermark. `burst` submits
//! everything at once, then drains, to overrun the queue and exercise
//! shedding + the degradation ladder.
//!
//! `--executors G` serves G requests at once on G pool groups (default
//! 1); every G runs the same loop.
//!
//! `--halt-after N` kills the serving loop after N completions (crash
//! simulation); a following run with `--resume` and the same seed and
//! journal recovers exactly-once. `--gate` enforces the serving
//! invariants: zero lost or duplicated responses, and on the default mix
//! a deadline hit rate of at least 99%.

use powerscale_harness::Algorithm;
use powerscale_serve::chaos::fnv1a;
use powerscale_serve::{ChaosConfig, JobSpec, Response, ServeStats, Server, ServerConfig, Status};
use serde::Serialize;
use std::collections::HashMap;
use std::time::Instant;

const USAGE: &str = "usage: serve [--requests N] [--mix default|storm|burst] [--seed S] \
                     [--threads T] [--executors G] [--queue CAP] [--batch B] [--retries K] \
                     [--backoff MS] [--chaos] [--journal DIR] [--resume] [--halt-after N] \
                     [--out PATH] [--gate]";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Prints `error: {err}` and exits 1: the run itself failed.
fn fatal(err: impl std::fmt::Display) -> ! {
    eprintln!("error: {err}");
    std::process::exit(1);
}

/// The flag's value, or a usage error (not a panic) when it is missing.
fn take_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) if !v.starts_with("--") => v,
        _ => usage_error(&format!("{flag} needs a value")),
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag}: not a number: {v}")))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mix {
    Default,
    Storm,
    Burst,
}

impl Mix {
    fn parse(v: &str) -> Self {
        match v {
            "default" => Mix::Default,
            "storm" => Mix::Storm,
            "burst" => Mix::Burst,
            other => usage_error(&format!("--mix: unknown mix: {other}")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mix::Default => "default",
            Mix::Storm => "storm",
            Mix::Burst => "burst",
        }
    }
}

/// Seeded heterogeneous workload: shapes, algorithm hints, tiers and
/// deadlines are all pure functions of `(seed, request index)`.
fn generate(requests: usize, mix: Mix, seed: u64) -> Vec<JobSpec> {
    const SIZES: [usize; 5] = [64, 96, 128, 192, 256];
    const ALGOS: [Algorithm; 3] = [Algorithm::Blocked, Algorithm::Strassen, Algorithm::Caps];
    (0..requests as u64)
        .map(|id| {
            let h = fnv1a(&[seed, id]);
            let n = SIZES[(h % SIZES.len() as u64) as usize];
            let algorithm = ALGOS[((h >> 8) % ALGOS.len() as u64) as usize];
            let mut spec = JobSpec::new(id, n, algorithm).with_seed(fnv1a(&[seed, id, 0xa11]));
            spec = match mix {
                // Generous budget: the serving SLO configuration.
                Mix::Default => spec.with_deadline_ms(5_000),
                // Half the requests get a budget the larger shapes
                // cannot meet — a deadline storm.
                Mix::Storm => {
                    if (h >> 16).is_multiple_of(2) {
                        spec.with_deadline_ms(1 + (h >> 24) % 3)
                    } else {
                        spec.with_deadline_ms(5_000)
                    }
                }
                // No deadlines; the stress is queue overrun.
                Mix::Burst => spec,
            };
            spec
        })
        .collect()
}

/// p99 multiply latency for one shape bucket of the mix.
#[derive(Debug, Clone, Serialize)]
struct ShapeP99 {
    /// Square dimension of the bucket.
    n: u64,
    /// Completed requests in the bucket.
    count: u64,
    /// p99 of the successful attempts' multiply wall time.
    p99_ms: f64,
}

/// The run report `--out` writes. Schema-stable named fields (serde shim:
/// no enum payloads), so CI can read it across commits. v2 keeps every
/// v1 field and adds throughput, the queue-wait split, per-shape p99 and
/// the executor count.
#[derive(Debug, Clone, Serialize)]
struct RunReport {
    schema: String,
    mix: String,
    seed: u64,
    requests: u64,
    threads: u64,
    /// Executors the serving run used.
    executors: u64,
    capacity: u64,
    /// Base retry backoff in milliseconds.
    backoff_ms: u64,
    chaos: bool,
    /// Requests with no response (must be 0 — the core invariant).
    lost: u64,
    /// Request ids with more than one response (must be 0).
    duplicated: u64,
    completed: u64,
    shed: u64,
    rejected_deadline: u64,
    failed_deadline: u64,
    failed_panics: u64,
    degraded: u64,
    retried: u64,
    recovered: u64,
    replayed: u64,
    /// completed / admitted-and-served, the SLO number.
    deadline_hit_rate: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Wall seconds of the serving phase (admission through last
    /// response; excludes workload generation and report building).
    wall_s: f64,
    /// Responses per wall second of the serving phase.
    throughput_rps: f64,
    /// Median admission-to-pickup queue wait.
    queue_wait_p50_ms: f64,
    /// p99 admission-to-pickup queue wait.
    queue_wait_p99_ms: f64,
    /// Multiply-latency p99 per shape bucket of the mix.
    shape_p99: Vec<ShapeP99>,
    joules_per_request: f64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn sorted_ms(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    v
}

fn build_report(
    specs: &[JobSpec],
    responses: &[Response],
    stats: &ServeStats,
    mix: Mix,
    cfg: &ServerConfig,
    wall_s: f64,
) -> RunReport {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for r in responses {
        *counts.entry(r.id).or_insert(0) += 1;
    }
    let lost = specs.iter().filter(|s| !counts.contains_key(&s.id)).count() as u64;
    let duplicated = counts.values().filter(|&&c| c > 1).count() as u64;

    let walls = sorted_ms(responses.iter().filter_map(|r| r.wall_ms));
    let waits = sorted_ms(responses.iter().filter_map(|r| r.queued_ms));
    let joules: Vec<f64> = responses.iter().filter_map(|r| r.joules).collect();
    let joules_per_request = if joules.is_empty() {
        0.0
    } else {
        joules.iter().sum::<f64>() / joules.len() as f64
    };

    // Per-shape multiply-latency tails: bucket completed responses by
    // the spec's n (the mix is a pure function of the seed, so the id →
    // shape map is exact).
    let shape_of: HashMap<u64, usize> = specs.iter().map(|s| (s.id, s.n)).collect();
    let mut by_shape: HashMap<usize, Vec<f64>> = HashMap::new();
    for r in responses {
        if let (Some(wall), Some(&n)) = (r.wall_ms, shape_of.get(&r.id)) {
            by_shape.entry(n).or_default().push(wall);
        }
    }
    let mut shape_p99: Vec<ShapeP99> = by_shape
        .into_iter()
        .map(|(n, mut walls)| {
            walls.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            ShapeP99 {
                n: n as u64,
                count: walls.len() as u64,
                p99_ms: percentile(&walls, 0.99),
            }
        })
        .collect();
    shape_p99.sort_by_key(|s| s.n);

    // SLO denominator: requests that were admitted and carried to a
    // terminal state by an executor (rejections never entered service).
    // Misses are *deadline* failures only — a panic-budget exhaustion is
    // a fault-tolerance outcome, tracked separately as `failed_panics`.
    let served: Vec<&Response> = responses
        .iter()
        .filter(|r| r.status != Status::Rejected)
        .collect();
    let misses = served
        .iter()
        .filter(|r| r.failure == Some(powerscale_serve::FailReason::DeadlineExceeded))
        .count();
    let deadline_hit_rate = if served.is_empty() {
        1.0
    } else {
        1.0 - misses as f64 / served.len() as f64
    };

    let throughput_rps = if wall_s > 0.0 {
        responses.len() as f64 / wall_s
    } else {
        0.0
    };
    RunReport {
        schema: "powerscale-serving-v2".to_string(),
        mix: mix.name().to_string(),
        seed: cfg.seed,
        requests: specs.len() as u64,
        threads: cfg.threads as u64,
        executors: cfg.executors.max(1) as u64,
        capacity: cfg.capacity as u64,
        backoff_ms: cfg.backoff_ms,
        chaos: cfg.chaos.is_some(),
        lost,
        duplicated,
        completed: stats.completed + stats.recovered,
        shed: stats.shed,
        rejected_deadline: stats.rejected_deadline,
        failed_deadline: stats.failed_deadline,
        failed_panics: stats.failed_panics,
        degraded: stats.degraded,
        retried: stats.retried,
        recovered: stats.recovered,
        replayed: stats.replayed,
        deadline_hit_rate,
        p50_ms: percentile(&walls, 0.50),
        p99_ms: percentile(&walls, 0.99),
        wall_s,
        throughput_rps,
        queue_wait_p50_ms: percentile(&waits, 0.50),
        queue_wait_p99_ms: percentile(&waits, 0.99),
        shape_p99,
        joules_per_request,
    }
}

/// The deadline-hit SLO of the default mix.
const MIN_DEADLINE_HIT: f64 = 0.99;

/// Gate: hard invariants, and the SLO on the default mix only (storm and
/// burst miss deadlines by design).
fn gate(report: &RunReport, mix: Mix) -> Result<(), String> {
    if report.lost != 0 {
        return Err(format!("{} requests lost a response", report.lost));
    }
    if report.duplicated != 0 {
        return Err(format!(
            "{} request ids got duplicate responses",
            report.duplicated
        ));
    }
    if mix == Mix::Default && report.deadline_hit_rate < MIN_DEADLINE_HIT {
        return Err(format!(
            "deadline hit rate {:.4} below the {MIN_DEADLINE_HIT} bar",
            report.deadline_hit_rate
        ));
    }
    Ok(())
}

/// Serves the workload and returns its responses plus the serving-phase
/// wall seconds. Burst submits everything, then drains, so the queue
/// overruns (shed + degrade); the other mixes go through `Server::run`,
/// which paces admission.
fn serve_phase(server: &mut Server, specs: &[JobSpec], mix: Mix) -> (Vec<Response>, f64) {
    let t0 = Instant::now();
    let responses = if mix == Mix::Burst {
        for spec in specs {
            server.submit(*spec);
        }
        server.drain();
        server.take_responses()
    } else {
        server.run(specs.iter().copied())
    };
    (responses, t0.elapsed().as_secs_f64())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut requests: usize = 1000;
    let mut mix = Mix::Default;
    let mut cfg = ServerConfig {
        // Client-facing default: a realistic pause before hammering a
        // worker that just panicked. The library default (1 ms) is tuned
        // for test speed, not serving.
        backoff_ms: 10,
        ..ServerConfig::default()
    };
    let mut chaos = false;
    let mut out_path = "artifacts/BENCH_serving.json".to_string();
    let mut do_gate = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--requests" => {
                requests = parse_num("--requests", take_value(&args, &mut i, "--requests"))
            }
            "--mix" => mix = Mix::parse(take_value(&args, &mut i, "--mix")),
            "--seed" => cfg.seed = parse_num("--seed", take_value(&args, &mut i, "--seed")),
            "--threads" => {
                cfg.threads = parse_num("--threads", take_value(&args, &mut i, "--threads"))
            }
            "--executors" => {
                cfg.executors = parse_num("--executors", take_value(&args, &mut i, "--executors"))
            }
            "--queue" => cfg.capacity = parse_num("--queue", take_value(&args, &mut i, "--queue")),
            "--batch" => cfg.batch = parse_num("--batch", take_value(&args, &mut i, "--batch")),
            "--retries" => {
                cfg.retries = parse_num("--retries", take_value(&args, &mut i, "--retries"))
            }
            "--backoff" => {
                cfg.backoff_ms = parse_num("--backoff", take_value(&args, &mut i, "--backoff"))
            }
            "--halt-after" => {
                cfg.halt_after = Some(parse_num(
                    "--halt-after",
                    take_value(&args, &mut i, "--halt-after"),
                ))
            }
            "--journal" => cfg.journal_dir = Some(take_value(&args, &mut i, "--journal").into()),
            "--out" => out_path = take_value(&args, &mut i, "--out").to_string(),
            "--chaos" => chaos = true,
            "--resume" => cfg.resume = true,
            "--gate" => do_gate = true,
            other => usage_error(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if cfg.resume && cfg.journal_dir.is_none() {
        usage_error("--resume needs --journal DIR (there is nowhere to resume from)");
    }
    if cfg.threads == 0 {
        usage_error("--threads must be at least 1");
    }
    if cfg.executors == 0 {
        usage_error("--executors must be at least 1");
    }
    if chaos {
        // An env override lets CI vary the schedule per run; the seed is
        // printed, so any run replays.
        let seed = std::env::var("POWERSCALE_FAULT_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(cfg.seed);
        eprintln!("chaos: worker panics, seed {seed}");
        cfg.chaos = Some(ChaosConfig::chaos(seed));
        // Injected panics are routine under chaos and all caught at the
        // executor's perimeter; keep the default hook's backtrace spam
        // out of the serving log while leaving real panics loud.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("chaos: injected"));
            if !injected {
                prev(info);
            }
        }));
    }

    let specs = generate(requests, mix, cfg.seed);

    eprintln!(
        "serving {} requests (mix {}, seed {}) on {} threads, {} executor(s), queue {}…",
        specs.len(),
        mix.name(),
        cfg.seed,
        cfg.threads,
        cfg.executors,
        cfg.capacity
    );

    let mut server = Server::new(cfg.clone()).unwrap_or_else(|err| fatal(err));
    let (responses, wall_s) = serve_phase(&mut server, &specs, mix);
    if let Some(err) = server.journal_error() {
        fatal(err);
    }

    let report = build_report(&specs, &responses, server.stats(), mix, &cfg, wall_s);
    if server.halted() {
        eprintln!(
            "halted after {} completions (crash simulation); journal holds the rest",
            cfg.halt_after.unwrap_or(0)
        );
    }
    println!(
        "completed {} | shed {} | degraded {} | retried {} | deadline-failed {} | \
         panic-failed {} | recovered {} | replayed {}",
        report.completed,
        report.shed,
        report.degraded,
        report.retried,
        report.failed_deadline,
        report.failed_panics,
        report.recovered,
        report.replayed
    );
    println!(
        "p50 {:.2} ms | p99 {:.2} ms | queue wait p50 {:.2} / p99 {:.2} ms | \
         {:.2} J/request | deadline hit rate {:.4}",
        report.p50_ms,
        report.p99_ms,
        report.queue_wait_p50_ms,
        report.queue_wait_p99_ms,
        report.joules_per_request,
        report.deadline_hit_rate
    );
    println!(
        "throughput {:.1} rps over {:.2} s",
        report.throughput_rps, report.wall_s
    );

    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let json = serde_json::to_string_pretty(&report)
        .unwrap_or_else(|e| fatal(format!("cannot serialise report: {e}")));
    if let Err(e) = std::fs::write(&out_path, json) {
        fatal(format!("cannot write {out_path}: {e}"));
    }
    eprintln!("report written to {out_path}");

    if do_gate {
        // A halted (crash-simulated) run is mid-lifecycle by design; its
        // invariants are gated on the follow-up --resume run instead.
        if server.halted() {
            eprintln!("gate: skipped (halted run; gate the resumed run)");
            return;
        }
        match gate(&report, mix) {
            Ok(()) => println!("gate: PASS"),
            Err(msg) => {
                eprintln!("gate: FAIL: {msg}");
                std::process::exit(1);
            }
        }
    }
}
