//! Armed-recorder overhead gate: n = 1024 Strassen at the paper's cutoff
//! with a trace session active (every span and instant recorded) against
//! the same multiplies with the hooks compiled in but no session (one
//! relaxed atomic load each). The bar is < 3% and zero dropped records.
//!
//! Release tier (a debug build's timings say nothing about the recorder):
//! `cargo test -p powerscale-harness --features trace --release --test
//! trace_overhead -- --include-ignored`.
#![cfg(feature = "trace")]

use powerscale_matrix::MatrixGen;
use powerscale_pool::ThreadPool;
use powerscale_strassen::{multiply, StrassenConfig};
use powerscale_trace as trace;
use std::time::Instant;

const N: usize = 1024;
const REPS: usize = 5;
const GATE_PCT: f64 = 3.0;

/// Wall-clock seconds of one call of `f`.
fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

#[test]
#[ignore = "release-tier timing gate"]
fn armed_recorder_costs_under_three_percent() {
    // One worker: on more, steal-order jitter between runs is larger than
    // the 3% being bounded.
    let pool = ThreadPool::new(1);
    let mut gen = MatrixGen::new(42);
    let a = gen.paper_operand(N);
    let b = gen.paper_operand(N);
    // The paper's cutoff 64: 400 recursion-node and 2401 leaf spans per
    // multiply, the per-span cost this gate bounds.
    let cfg = StrassenConfig::paper();
    let mul = || {
        let c = multiply(&a.view(), &b.view(), &cfg, Some(&pool), None).expect("square operands");
        std::hint::black_box(c);
    };

    // A small multiply registers every recording thread's ring for the
    // session: one cold allocation per thread per session, outside the
    // per-span cost this gate bounds.
    let small = gen.paper_operand(2 * cfg.cutoff);
    let register_rings = || {
        multiply(&small.view(), &small.view(), &cfg, Some(&pool), None).expect("square operands");
    };

    // Same build, pool and operands on both sides, so the delta is the
    // recording cost alone. Idle and armed runs alternate, one session
    // per armed run, so a change in the host's speed state moves both
    // best-of times alike.
    mul();
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    let (mut records, mut dropped) = (0, 0);
    for _ in 0..REPS {
        off = off.min(secs(mul));
        assert!(
            trace::start(trace::TraceConfig::default()),
            "a trace session was already active"
        );
        register_rings();
        on = on.min(secs(mul));
        let collected = trace::stop();
        records += collected.total_records();
        dropped += collected.total_dropped();
    }

    let overhead_pct = (on - off) / off * 100.0;
    println!(
        "trace overhead n={N}, one worker, best of {REPS}: off {off:.4} s, on {on:.4} s, \
         {overhead_pct:+.2}% · {records} records, {dropped} dropped"
    );
    assert!(records > 0, "the armed runs recorded nothing");
    assert_eq!(dropped, 0, "ring too small for the run");
    assert!(
        overhead_pct < GATE_PCT,
        "traced-on overhead {overhead_pct:.2}% is not below {GATE_PCT}%"
    );
}
