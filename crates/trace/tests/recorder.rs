//! Recorder + exporter round-trip tests.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use powerscale_trace as trace;
use serde::{Deserialize, Value};
use trace::{Category, TraceConfig};

/// The recorder session is process-global; serialize tests that use it.
static SESSION_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn start(capacity: usize) {
    assert!(
        trace::start(TraceConfig { capacity }),
        "session already active"
    );
}

#[test]
fn spans_nest_and_export_to_chrome_json() {
    let _g = lock();
    start(1 << 12);
    trace::set_thread_label("main", u32::MAX);
    {
        let _outer = trace::span_args(Category::Strassen, "rec", 0, 512);
        std::thread::sleep(Duration::from_millis(2));
        {
            let _inner = trace::span_args(Category::Gemm, "leaf_gemm", 1, 64);
            std::thread::sleep(Duration::from_millis(2));
        }
        trace::instant(Category::Pool, "steal", 3);
        trace::counter("joules:package", 1.25);
    }
    let t = trace::stop();
    assert_eq!(t.threads.len(), 1);
    assert_eq!(t.total_dropped(), 0);

    // The forest nests correctly: one root with one child.
    let forest = trace::span_forest(&t);
    assert_eq!(forest.len(), 1);
    let roots = &forest[0].1;
    assert_eq!(roots.len(), 1);
    assert_eq!(roots[0].name, "rec");
    assert_eq!(roots[0].children.len(), 1);
    assert_eq!(roots[0].children[0].name, "leaf_gemm");
    assert!(roots[0].children[0].start_ns >= roots[0].start_ns);
    assert!(roots[0].children[0].end_ns <= roots[0].end_ns);

    // The Chrome export parses as JSON and the child X event sits inside
    // the parent's [ts, ts+dur] window on the same tid.
    let json = trace::to_chrome_json(&t);
    let v: Value = serde_json::from_str(&json).expect("chrome export must be valid JSON");
    let events = v.get_field("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    let span_of = |name: &str| -> (f64, f64) {
        for ev in events {
            if ev.get_field("ph").unwrap().as_str().unwrap() == "X"
                && ev.get_field("name").unwrap().as_str().unwrap() == name
            {
                let ts = f64::from_value(ev.get_field("ts").unwrap()).unwrap();
                let dur = f64::from_value(ev.get_field("dur").unwrap()).unwrap();
                return (ts, ts + dur);
            }
        }
        panic!("no X event named {name}");
    };
    let (p0, p1) = span_of("rec");
    let (c0, c1) = span_of("leaf_gemm");
    assert!(
        p0 <= c0 && c1 <= p1,
        "child [{c0},{c1}] outside parent [{p0},{p1}]"
    );
    // Instants and counters ride the same timeline.
    assert!(events.iter().any(|ev| {
        ev.get_field("ph").unwrap().as_str().unwrap() == "i"
            && ev.get_field("name").unwrap().as_str().unwrap() == "steal"
    }));
    assert!(events.iter().any(|ev| {
        ev.get_field("ph").unwrap().as_str().unwrap() == "C"
            && ev.get_field("name").unwrap().as_str().unwrap() == "joules:package"
    }));
    // Every event has the required trace-event fields.
    for ev in events {
        let ph = ev.get_field("ph").unwrap().as_str().unwrap();
        assert!(matches!(ph, "M" | "X" | "i" | "C"), "unexpected ph {ph}");
        assert!(ev.get_field("pid").is_ok());
        assert!(ev.get_field("tid").is_ok());
        if ph != "M" {
            assert!(f64::from_value(ev.get_field("ts").unwrap()).unwrap() >= 0.0);
        }
    }
}

#[test]
fn folded_stacks_sum_to_busy_time() {
    let _g = lock();
    start(1 << 12);
    trace::set_thread_label("main", u32::MAX);
    {
        let _outer = trace::span(Category::Harness, "run");
        std::thread::sleep(Duration::from_millis(3));
        {
            let _inner = trace::span(Category::Gemm, "dgemm");
            std::thread::sleep(Duration::from_millis(3));
        }
    }
    let t = trace::stop();
    let forest = trace::span_forest(&t);
    let root_ns: u64 = forest[0].1.iter().map(|n| n.dur_ns()).sum();

    let folded = trace::to_folded(&t);
    let mut folded_ns = 0u64;
    for line in folded.lines() {
        let (stack, v) = line.rsplit_once(' ').expect("folded line format");
        assert!(
            stack.starts_with("main;"),
            "stack rooted at thread name: {stack}"
        );
        folded_ns += v.parse::<u64>().expect("folded self-time value");
    }
    // Self times partition the root spans exactly (integer ns bookkeeping).
    assert_eq!(folded_ns, root_ns);
    assert!(folded.contains("main;run;dgemm "));
}

#[test]
fn ring_overflow_drops_new_records_and_keeps_old_ones() {
    let _g = lock();
    start(16);
    trace::set_thread_label("main", u32::MAX);
    for i in 0..100u32 {
        trace::instant(Category::Pool, "tick", i);
    }
    let t = trace::stop();
    assert_eq!(t.threads.len(), 1);
    let th = &t.threads[0];
    assert_eq!(th.records.len(), 16, "capacity bounds the capture");
    assert_eq!(th.dropped, 84, "overflow is counted");
    // Earlier records are intact and in order — overflow never overwrote.
    for (i, rec) in th.records.iter().enumerate() {
        match rec.kind {
            trace::Kind::Instant { name, arg0, .. } => {
                assert_eq!(name, "tick");
                assert_eq!(arg0, i as u32);
            }
            other => panic!("unexpected record {other:?}"),
        }
    }
}

#[test]
fn unmatched_begin_clamps_and_stray_end_is_ignored() {
    let _g = lock();
    start(1 << 10);
    trace::set_thread_label("main", u32::MAX);
    {
        // Stray End first: must not corrupt the forest.
        drop(trace::span(Category::Pool, "noise"));
    }
    trace::stop();

    // Build a trace by hand to exercise the exporter paths directly.
    let t = trace::Trace {
        threads: vec![trace::ThreadTrace {
            name: "synthetic".into(),
            records: vec![
                trace::Record {
                    ts: 100,
                    kind: trace::Kind::End,
                }, // stray
                trace::Record {
                    ts: 200,
                    kind: trace::Kind::Begin {
                        name: "open",
                        cat: Category::Caps,
                        arg0: 0,
                        arg1: 0,
                    },
                }, // never closed
            ],
            dropped: 0,
        }],
        start_ns: 0,
        end_ns: 1_000,
    };
    let forest = trace::span_forest(&t);
    assert_eq!(forest[0].1.len(), 1);
    let node = &forest[0].1[0];
    assert_eq!(node.name, "open");
    assert_eq!(node.end_ns, 1_000, "open span clamps to session end");
    assert!((trace::coverage(&t) - 0.8).abs() < 1e-9);
}

#[test]
fn multi_thread_rings_collect_with_labels() {
    let _g = lock();
    start(1 << 10);
    trace::set_thread_label("main", u32::MAX);
    trace::instant(Category::Harness, "main-event", 0);
    let handles: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                trace::set_thread_label("worker", i);
                let _s = trace::span_args(Category::Pool, "job", i, 0);
                std::thread::sleep(Duration::from_millis(1));
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let t = trace::stop();
    assert_eq!(t.threads.len(), 4);
    let mut names: Vec<&str> = t.threads.iter().map(|t| t.name.as_str()).collect();
    names.sort_unstable();
    assert_eq!(names, ["main", "worker-0", "worker-1", "worker-2"]);
}

#[test]
fn phase_summary_attributes_energy_to_phases() {
    let _g = lock();
    // Synthetic trace: one worker busy in two phases back-to-back while a
    // sampler thread stamps a linear 10 W cumulative-energy ramp.
    let mk_begin = |ts, name| trace::Record {
        ts,
        kind: trace::Kind::Begin {
            name,
            cat: Category::Gemm,
            arg0: 0,
            arg1: 0,
        },
    };
    let mk_end = |ts| trace::Record {
        ts,
        kind: trace::Kind::End,
    };
    let t = trace::Trace {
        threads: vec![
            trace::ThreadTrace {
                name: "worker-0".into(),
                records: vec![
                    mk_begin(0, "pack"),
                    mk_end(400_000_000),
                    mk_begin(400_000_000, "kernel"),
                    mk_end(1_000_000_000),
                ],
                dropped: 0,
            },
            trace::ThreadTrace {
                name: "sampler".into(),
                records: (0..=10u64)
                    .map(|i| trace::Record {
                        ts: i * 100_000_000,
                        kind: trace::Kind::Counter {
                            name: "joules:package",
                            value: i as f64, // 10 W ramp: 1 J per 100 ms
                        },
                    })
                    .collect(),
                dropped: 0,
            },
        ],
        start_ns: 0,
        end_ns: 1_000_000_000,
    };
    let s = trace::phase_summary(&t);
    assert_eq!(s.dropped, 0);
    assert!((s.wall_s - 1.0).abs() < 1e-9);
    assert!((s.total_joules - 10.0).abs() < 1e-6);
    let row = |name: &str| {
        s.rows
            .iter()
            .find(|r| r.phase == name)
            .unwrap_or_else(|| panic!("missing row {name}"))
    };
    let pack = row("gemm:pack");
    let kernel = row("gemm:kernel");
    // 40/60 time split at constant watts → 4 J / 6 J.
    assert!((pack.busy_s - 0.4).abs() < 1e-9);
    assert!((kernel.busy_s - 0.6).abs() < 1e-9);
    assert!(
        (pack.joules - 4.0).abs() < 1e-6,
        "pack joules {}",
        pack.joules
    );
    assert!(
        (kernel.joules - 6.0).abs() < 1e-6,
        "kernel joules {}",
        kernel.joules
    );
    assert!((pack.watts.unwrap() - 10.0).abs() < 1e-6);
    assert!((kernel.watts.unwrap() - 10.0).abs() < 1e-6);
    // JSON rendering parses.
    let v: Value = serde_json::from_str(&s.to_json()).expect("summary JSON parses");
    assert!(v.get_field("phases").unwrap().as_array().unwrap().len() >= 2);
}

#[test]
fn zero_duration_phase_reports_no_watts() {
    let _g = lock();
    let t = trace::Trace {
        threads: vec![trace::ThreadTrace {
            name: "w".into(),
            records: vec![
                trace::Record {
                    ts: 5,
                    kind: trace::Kind::Begin {
                        name: "blink",
                        cat: Category::Pool,
                        arg0: 0,
                        arg1: 0,
                    },
                },
                trace::Record {
                    ts: 5,
                    kind: trace::Kind::End,
                },
            ],
            dropped: 0,
        }],
        start_ns: 0,
        end_ns: 10,
    };
    let s = trace::phase_summary(&t);
    let row = s.rows.iter().find(|r| r.phase == "pool:blink").unwrap();
    assert_eq!(row.busy_s, 0.0);
    assert_eq!(
        row.watts, None,
        "0-duration window must not produce NaN/inf watts"
    );
}

#[test]
fn second_session_reuses_threads_cleanly() {
    let _g = lock();
    start(1 << 10);
    trace::instant(Category::Harness, "first", 0);
    let t1 = trace::stop();
    assert_eq!(t1.total_records(), 1);

    start(1 << 10);
    trace::instant(Category::Harness, "second", 0);
    let t2 = trace::stop();
    assert_eq!(
        t2.total_records(),
        1,
        "stale ring from session 1 must not leak"
    );
    match t2.threads[0].records[0].kind {
        trace::Kind::Instant { name, .. } => assert_eq!(name, "second"),
        ref other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn disabled_session_records_nothing() {
    let _g = lock();
    assert!(!trace::active());
    trace::instant(Category::Pool, "orphan", 0);
    let _s = trace::span(Category::Pool, "orphan-span");
    drop(_s);
    let t = trace::stop();
    assert!(t.is_empty());
}
