//! End-to-end lifecycle guarantees under injected faults:
//!
//! * exactly one response per request, chaos or not;
//! * a killed-and-restarted server resumes from the journal with no
//!   lost and no duplicated responses, and the replayed requests
//!   reproduce the uninterrupted run's results bit-for-bit;
//! * a traced run records its requests, and no per-request energy figure
//!   lands on the timeline as a `joules:*` counter: those series are
//!   cumulative and never decrease.

use powerscale_harness::Algorithm;
use powerscale_serve::{ChaosConfig, FailReason, JobSpec, Response, Server, ServerConfig, Status};
use powerscale_trace as trace;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "powerscale-serve-lifecycle-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A heterogeneous workload: mixed shapes, hints and tiers, distinct
/// operand seeds.
fn workload(count: u64) -> Vec<JobSpec> {
    let algos = [Algorithm::Blocked, Algorithm::Strassen, Algorithm::Caps];
    (0..count)
        .map(|id| {
            let n = [32, 48, 64][(id % 3) as usize];
            JobSpec::new(id, n, algos[(id % algos.len() as u64) as usize]).with_deadline_ms(30_000)
        })
        .collect()
}

/// Admits every spec before anything executes, then drains: the crash
/// legs need every request admitted (and journaled) before the halt
/// ticket can fire, which `run`'s pipelined admission does not promise.
fn submit_then_drain(server: &mut Server, specs: &[JobSpec]) -> Vec<Response> {
    for spec in specs {
        server.submit(*spec);
    }
    server.drain();
    server.take_responses()
}

fn by_id(responses: &[Response]) -> HashMap<u64, &Response> {
    let mut map = HashMap::new();
    for r in responses {
        assert!(
            map.insert(r.id, r).is_none(),
            "duplicate response for id {}",
            r.id
        );
    }
    map
}

#[test]
fn chaos_run_yields_exactly_one_response_per_request() {
    let cfg = ServerConfig {
        threads: 2,
        capacity: 64,
        chaos: Some(ChaosConfig::chaos(2015)),
        ..ServerConfig::default()
    };
    let specs = workload(30);
    let out = Server::new(cfg).unwrap().run(specs.clone());
    let map = by_id(&out);
    assert_eq!(map.len(), specs.len(), "no request may lose its response");
    for spec in &specs {
        let r = map[&spec.id];
        // Under panic chaos with a retry budget the only legal terminal
        // states are success or an exhausted budget.
        assert!(
            r.status == Status::Completed || r.failure == Some(FailReason::WorkerPanic),
            "{r:?}"
        );
        if r.status == Status::Completed {
            assert!(r.checksum.is_some() && r.joules.is_some());
        }
    }
}

#[test]
fn traced_run_keeps_every_joules_series_non_decreasing() {
    assert!(
        trace::start(trace::TraceConfig::default()),
        "a trace session was already active"
    );
    let cfg = ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    };
    let out = Server::new(cfg).unwrap().run(workload(12));
    let t = trace::stop();
    assert!(out.iter().all(|r| r.status == Status::Completed), "{out:?}");

    let mut execs = 0;
    let mut series: BTreeMap<&str, Vec<(u64, f64)>> = BTreeMap::new();
    for rec in t.threads.iter().flat_map(|th| &th.records) {
        match rec.kind {
            trace::Kind::Begin {
                name: "serve:exec", ..
            } => execs += 1,
            trace::Kind::Counter { name, value } if name.starts_with("joules:") => {
                series.entry(name).or_default().push((rec.ts, value));
            }
            _ => {}
        }
    }
    assert!(
        execs >= out.len(),
        "{execs} serve:exec spans for {} requests",
        out.len()
    );
    for (name, mut samples) in series {
        samples.sort_by_key(|&(ts, _)| ts);
        for w in samples.windows(2) {
            assert!(
                w[1].1 >= w[0].1,
                "`{name}` falls from {} J to {} J",
                w[0].1,
                w[1].1
            );
        }
    }
}

#[test]
fn killed_server_resumes_from_journal_with_no_lost_or_duplicated_responses() {
    let specs = workload(18);
    let cfg = |journal: Option<PathBuf>, resume: bool, halt: Option<usize>| ServerConfig {
        threads: 2,
        capacity: 64,
        journal_dir: journal,
        resume,
        halt_after: halt,
        ..ServerConfig::default()
    };

    // Reference: one uninterrupted run.
    let reference = Server::new(cfg(None, false, None))
        .unwrap()
        .run(specs.clone());
    let reference = by_id(&reference);

    // Crash-simulated run: dies after 7 completions, mid-lifecycle.
    let dir = tmpdir("kill-restart");
    let mut first = Server::new(cfg(Some(dir.clone()), false, Some(7))).unwrap();
    let first_out = submit_then_drain(&mut first, &specs);
    assert!(first.halted(), "the crash point must have fired");
    assert!(
        first_out
            .iter()
            .filter(|r| r.status == Status::Completed)
            .count()
            == 7,
        "halt_after must stop the loop at exactly 7 completions"
    );

    // Restart: resume the journal, blindly resubmit the whole workload
    // (clients retry after a server crash), drain to completion.
    let mut second = Server::new(cfg(Some(dir), true, None)).unwrap();
    assert_eq!(second.stats().recovered, 7, "done records recover whole");
    assert_eq!(
        second.stats().replayed,
        specs.len() as u64 - 7,
        "pending records re-enqueue for replay"
    );
    let second_out = second.run(specs.clone());

    // Exactly-once: every request exactly one response after recovery.
    let map = by_id(&second_out);
    assert_eq!(map.len(), specs.len());
    assert_eq!(
        second.stats().admitted,
        0,
        "resubmitted known ids must not be re-admitted"
    );

    // Bit-consistency: recovered and replayed results alike match the
    // uninterrupted run.
    for spec in &specs {
        let a = map[&spec.id];
        let b = reference[&spec.id];
        assert_eq!(a.status, b.status, "id {}", spec.id);
        assert_eq!(a.checksum, b.checksum, "id {} result drifted", spec.id);
        assert_eq!(a.degraded, b.degraded, "id {} plan drifted", spec.id);
    }
}

#[test]
fn kill_and_restart_under_chaos_is_still_exactly_once_and_bit_consistent() {
    // Same round trip with worker panics injected. The
    // chaos schedule is a pure function of (seed, id, attempt), so the
    // replayed requests see the same faults the uninterrupted run saw.
    let specs = workload(18);
    let chaos = Some(ChaosConfig::chaos(77));
    let cfg = |journal: Option<PathBuf>, resume: bool, halt: Option<usize>| ServerConfig {
        threads: 2,
        capacity: 64,
        chaos,
        journal_dir: journal,
        resume,
        halt_after: halt,
        ..ServerConfig::default()
    };

    let reference = Server::new(cfg(None, false, None))
        .unwrap()
        .run(specs.clone());
    let reference = by_id(&reference);

    let dir = tmpdir("kill-restart-chaos");
    let mut first = Server::new(cfg(Some(dir.clone()), false, Some(5))).unwrap();
    let _ = first.run(specs.clone());
    assert!(first.halted());

    let mut second = Server::new(cfg(Some(dir), true, None)).unwrap();
    let second_out = second.run(specs.clone());
    let map = by_id(&second_out);
    assert_eq!(map.len(), specs.len());
    for spec in &specs {
        assert_eq!(
            map[&spec.id].checksum, reference[&spec.id].checksum,
            "id {} result drifted under chaos replay",
            spec.id
        );
        assert_eq!(map[&spec.id].status, reference[&spec.id].status);
    }
}

#[test]
fn concurrent_kill_and_restart_under_chaos_is_exactly_once_and_bit_consistent() {
    // The concurrent scheduler's crash discipline: with G executors and
    // several requests genuinely in flight, kill the server mid-drain,
    // restart it (still concurrent), blindly resubmit. The journal must
    // hold exactly-once together across the restart, and every result
    // must match a *serial* uninterrupted reference bit-for-bit — the
    // same journal serves any executor count.
    let specs = workload(18);
    let chaos = Some(ChaosConfig::chaos(77));
    let cfg = |executors: usize, journal: Option<PathBuf>, resume: bool, halt: Option<usize>| {
        ServerConfig {
            threads: 4,
            executors,
            capacity: 64,
            chaos,
            journal_dir: journal,
            resume,
            halt_after: halt,
            ..ServerConfig::default()
        }
    };

    // Serial uninterrupted reference.
    let reference = Server::new(cfg(1, None, false, None))
        .unwrap()
        .run(specs.clone());
    let reference = by_id(&reference);

    // Concurrent crash-simulated run: 2 executors, dies after 5
    // completion tickets.
    let dir = tmpdir("concurrent-kill-restart");
    let mut first = Server::new(cfg(2, Some(dir.clone()), false, Some(5))).unwrap();
    let first_out = submit_then_drain(&mut first, &specs);
    assert!(first.halted(), "the crash point must have fired");
    assert_eq!(
        first_out.len(),
        5,
        "exactly the first 5 completion tickets survive the crash"
    );

    // Concurrent restart + blind resubmission.
    let mut second = Server::new(cfg(2, Some(dir), true, None)).unwrap();
    assert_eq!(second.stats().recovered, 5, "done records recover whole");
    assert_eq!(
        second.stats().recovered + second.stats().replayed,
        specs.len() as u64,
        "every admitted request is either recovered or replayed"
    );
    let second_out = second.run(specs.clone());
    let map = by_id(&second_out);
    assert_eq!(map.len(), specs.len(), "no lost responses after recovery");
    assert_eq!(
        second.stats().admitted,
        0,
        "resubmitted known ids must not be re-admitted"
    );
    for spec in &specs {
        let a = map[&spec.id];
        let b = reference[&spec.id];
        assert_eq!(a.status, b.status, "id {}", spec.id);
        assert_eq!(
            a.checksum, b.checksum,
            "id {} drifted across the concurrent crash",
            spec.id
        );
        assert_eq!(a.degraded, b.degraded, "id {} plan drifted", spec.id);
    }
}

#[test]
fn concurrent_journal_holds_one_done_record_per_request() {
    // Ordering discipline under concurrency: the pending (write-ahead)
    // record is written before the request becomes poppable, so with 4
    // executors racing the admitting thread, a resume must find every
    // record in the done state — a late pending write clobbering a done
    // record would resurface here as a replayed request.
    let specs = workload(24);
    let cfg = |resume: bool, dir: PathBuf| ServerConfig {
        threads: 4,
        executors: 4,
        capacity: 64,
        chaos: Some(ChaosConfig::chaos(13)),
        journal_dir: Some(dir),
        resume,
        ..ServerConfig::default()
    };
    let dir = tmpdir("concurrent-journal-order");
    let mut first = Server::new(cfg(false, dir.clone())).unwrap();
    let first_out = first.run(specs.clone());
    assert_eq!(by_id(&first_out).len(), specs.len());

    let mut second = Server::new(cfg(true, dir)).unwrap();
    assert_eq!(
        second.stats().recovered,
        specs.len() as u64,
        "every record must be done after a clean concurrent drain"
    );
    assert_eq!(
        second.stats().replayed,
        0,
        "no record may revert to pending"
    );
    let second_out = second.run(specs.clone());
    let map = by_id(&second_out);
    let first_map = by_id(&first_out);
    for spec in &specs {
        assert_eq!(
            map[&spec.id].checksum, first_map[&spec.id].checksum,
            "id {} recovered response drifted",
            spec.id
        );
    }
}

#[test]
fn degraded_plans_survive_the_journal_round_trip() {
    // Fill a small queue so admission degrades late requests, crash,
    // resume: the replay must serve them at the *journaled* rung, not
    // re-decide under post-restart (empty-queue) pressure.
    let specs: Vec<JobSpec> = (0..10)
        .map(|id| JobSpec::new(id, 32, Algorithm::Strassen))
        .collect();
    let cfg = |resume: bool, halt: Option<usize>, dir: PathBuf| ServerConfig {
        threads: 2,
        capacity: 10,
        journal_dir: Some(dir),
        resume,
        halt_after: halt,
        ..ServerConfig::default()
    };
    let dir = tmpdir("degraded-replay");
    let mut first = Server::new(cfg(false, Some(3), dir.clone())).unwrap();
    let _ = submit_then_drain(&mut first, &specs);
    assert!(first.halted());

    let mut second = Server::new(cfg(true, None, dir)).unwrap();
    let out = second.run(specs.clone());
    let map = by_id(&out);
    for spec in &specs {
        let expect = (spec.id >= 5).then_some(powerscale_serve::DegradeStep::Algorithm);
        assert_eq!(
            map[&spec.id].degraded, expect,
            "id {}: replay must honour the admission-time plan",
            spec.id
        );
    }
}
