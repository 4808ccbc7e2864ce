//! Traced end-to-end smoke: all three algorithms at n = 256 on one
//! recorder session, validating the acceptance bars — Chrome-trace JSON
//! parses with spans from every subsystem, energy samples ride the same
//! clock, span coverage ≥ 95% of wall time, and nothing was dropped.

use powerscale_harness::{Algorithm, Harness, RunSpec};
use powerscale_pool::ThreadPool;
use powerscale_trace as trace;
use serde::Value;

#[test]
fn traced_smoke_all_algorithms() {
    let h = Harness::default();
    let threads = 4;
    let pool = ThreadPool::new(threads);
    let specs: Vec<RunSpec> = [Algorithm::Blocked, Algorithm::Strassen, Algorithm::Caps]
        .into_iter()
        .map(|algorithm| RunSpec::new(algorithm, 256, threads))
        .collect();
    let traced = h
        .traced_real_runs(&specs, &pool)
        .expect("no other session active");

    // Every run completed and was captured.
    assert_eq!(traced.runs.len(), 3);
    assert_eq!(
        traced.trace.total_dropped(),
        0,
        "ring overflow in smoke run"
    );

    // Spans from every instrumented subsystem are present.
    let json = trace::to_chrome_json(&traced.trace);
    let v: Value = serde_json::from_str(&json).expect("Chrome trace must parse");
    let events = v.get_field("traceEvents").unwrap().as_array().unwrap();
    let has = |cat: &str| {
        events.iter().any(|ev| {
            ev.get_field("cat")
                .ok()
                .and_then(|c| c.as_str().ok())
                .is_some_and(|c| c == cat)
        })
    };
    for cat in ["pool", "gemm", "strassen", "caps", "harness"] {
        assert!(has(cat), "no `{cat}` events in the trace");
    }
    // Energy counters ride the same timeline.
    assert!(
        events.iter().any(|ev| {
            ev.get_field("ph").unwrap().as_str().unwrap() == "C"
                && ev
                    .get_field("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .starts_with("joules:")
        }),
        "no joules:* counter samples on the timeline"
    );
    // All three per-run harness spans are there.
    for name in ["run:blocked", "run:strassen", "run:caps"] {
        assert!(
            events.iter().any(|ev| {
                ev.get_field("ph").unwrap().as_str().unwrap() == "X"
                    && ev.get_field("name").unwrap().as_str().unwrap() == name
            }),
            "missing {name} span"
        );
    }

    // Every energy series opens before the first run does: a run is
    // attributed energy from its first instant, not from whenever the
    // sampler thread first got a CPU.
    let records = || traced.trace.threads.iter().flat_map(|t| &t.records);
    let first_run = records()
        .filter_map(|r| match r.kind {
            trace::Kind::Begin { name, .. } if name.starts_with("run:") => Some(r.ts),
            _ => None,
        })
        .min()
        .expect("run spans recorded");
    let mut series: Vec<(&str, u64)> = Vec::new();
    for r in records() {
        if let trace::Kind::Counter { name, .. } = r.kind {
            if !name.starts_with("joules:") {
                continue;
            }
            match series.iter_mut().find(|(n, _)| *n == name) {
                Some((_, first)) => *first = (*first).min(r.ts),
                None => series.push((name, r.ts)),
            }
        }
    }
    assert!(!series.is_empty(), "no joules:* series");
    for (name, first) in series {
        assert!(
            first < first_run,
            "{name} opens at {first} ns, after the first run span at {first_run} ns"
        );
    }

    // Coverage bar: spans cover ≥ 95% of session wall time.
    let cov = trace::coverage(&traced.trace);
    assert!(cov >= 0.95, "span coverage {:.1}% < 95%", cov * 100.0);
    assert!((traced.summary.coverage - cov).abs() < 1e-12);

    // The per-phase summary has real busy time and attributed energy.
    assert!(traced.summary.wall_s > 0.0);
    assert!(
        traced.summary.total_joules > 0.0,
        "sampler recorded no energy"
    );
    let busy: f64 = traced.summary.rows.iter().map(|r| r.busy_s).sum();
    assert!(busy > 0.0);
    let attributed: f64 = traced.summary.rows.iter().map(|r| r.joules).sum();
    assert!(
        (attributed - traced.summary.total_joules).abs()
            <= 1e-6 * traced.summary.total_joules.max(1.0),
        "phases + idle must partition measured energy: {attributed} vs {}",
        traced.summary.total_joules
    );
    // Summary JSON parses.
    let sv: Value = serde_json::from_str(&traced.summary.to_json()).expect("summary JSON");
    assert!(!sv
        .get_field("phases")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());

    // The folded export is non-empty and well-formed.
    let folded = trace::to_folded(&traced.trace);
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (_, v) = line.rsplit_once(' ').expect("folded line format");
        v.parse::<u64>().expect("folded value");
    }
}
