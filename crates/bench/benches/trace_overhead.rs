//! Tracing overhead gate: n = 1024 Strassen with the recorder *armed*
//! (session active, every span/instant recorded) versus *idle* (hooks
//! compiled in but no session — one relaxed atomic load each). The
//! acceptance bar is < 3% traced-on overhead.
//!
//! Run with the recorder compiled in:
//! `cargo bench -p powerscale-bench --features trace --bench trace_overhead`
//! Without the `trace` feature the hooks are empty functions; the bench
//! still runs and records both timings (they measure the same thing),
//! flagging `build_enabled: false` in the JSON so CI can't silently gate
//! on a no-op build.
//!
//! Environment knobs (all optional):
//! - `POWERSCALE_TRACE_BENCH_N`       problem size, default 1024
//! - `POWERSCALE_TRACE_BENCH_REPS`    best-of repetitions, default 5
//! - `POWERSCALE_TRACE_BENCH_THREADS` pool width, default available_parallelism
//! - `POWERSCALE_TRACE_BENCH_GATE`    overhead gate in percent (e.g. `3`);
//!   when set, exits non-zero if traced-on overhead exceeds it

use powerscale::prelude::*;
use powerscale::trace;
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Best-of-`reps` wall-clock seconds for `f` (one untimed warm-up run).
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let n = env_usize("POWERSCALE_TRACE_BENCH_N", 1024);
    let reps = env_usize("POWERSCALE_TRACE_BENCH_REPS", 5);
    let threads = env_usize(
        "POWERSCALE_TRACE_BENCH_THREADS",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let pool = ThreadPool::new(threads);
    let mut gen = MatrixGen::new(42);
    let a = gen.paper_operand(n);
    let b = gen.paper_operand(n);
    // The paper's cutoff 64: at n = 1024 that is 400 recursion-node and
    // 2401 leaf spans, the per-span cost this gate bounds.
    let cfg = StrassenConfig::paper();
    let mut sink = 0.0f64;
    let mul = |sink: &mut f64| {
        let c = powerscale::strassen::multiply(&a.view(), &b.view(), &cfg, Some(&pool), None)
            .expect("valid shapes");
        *sink += c.as_slice()[0];
    };

    // Idle first (no session), then armed: same build, same pool, same
    // operands — the delta is the recording cost alone.
    let secs_off = best_of(reps, || mul(&mut sink));

    assert!(
        trace::start(trace::TraceConfig::default()) || !trace::build_enabled(),
        "a trace session was already active"
    );
    let secs_on = best_of(reps, || mul(&mut sink));
    let collected = trace::stop();
    let dropped = collected.total_dropped();
    let records = collected.total_records();

    let overhead_pct = (secs_on - secs_off) / secs_off * 100.0;
    let flops = 2.0 * (n as f64).powi(3);
    println!(
        "trace_overhead n={n} threads={threads} reps={reps} (best-of): \
         off {secs_off:.4}s ({:.2} GFLOP/s), on {secs_on:.4}s ({:.2} GFLOP/s), \
         overhead {overhead_pct:+.2}% · {records} records, {dropped} dropped · \
         recorder compiled: {}",
        flops / secs_off / 1e9,
        flops / secs_on / 1e9,
        trace::build_enabled(),
    );
    std::hint::black_box(sink);

    let json = format!(
        "{{\n  \"bench\": \"trace_overhead\",\n  \"n\": {n},\n  \"threads\": {threads},\n  \
         \"reps\": {reps},\n  \"build_enabled\": {},\n  \"secs_traced_off\": {secs_off:.6},\n  \
         \"secs_traced_on\": {secs_on:.6},\n  \"overhead_pct\": {overhead_pct:.3},\n  \
         \"records\": {records},\n  \"dropped\": {dropped},\n  \"gate_pct\": 3.0\n}}\n",
        trace::build_enabled(),
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../artifacts");
    std::fs::create_dir_all(dir).expect("artifacts dir");
    let path = format!("{dir}/BENCH_trace_overhead.json");
    std::fs::write(&path, &json).expect("write BENCH_trace_overhead.json");
    println!("trace_overhead results -> {path}");

    if let Ok(gate) = std::env::var("POWERSCALE_TRACE_BENCH_GATE") {
        let gate: f64 = gate
            .parse()
            .expect("POWERSCALE_TRACE_BENCH_GATE is a number");
        if !trace::build_enabled() {
            eprintln!(
                "gate requested but the recorder is compiled out; rebuild with --features trace"
            );
            std::process::exit(1);
        }
        if dropped > 0 {
            eprintln!("gate FAILED: {dropped} records dropped (ring too small for the run)");
            std::process::exit(1);
        }
        if overhead_pct > gate {
            eprintln!("gate FAILED: traced-on overhead {overhead_pct:.2}% > {gate}%");
            std::process::exit(1);
        }
        println!("gate OK: {overhead_pct:.2}% <= {gate}%");
    }
}
