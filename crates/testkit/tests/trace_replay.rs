//! Span-tree determinism: two `replay_deterministic` replays of the same
//! recorded schedule must produce *structurally identical* span forests —
//! same spans, same nesting, same per-thread assignment — even though
//! wall-clock timestamps differ between replays. Uses the pool's
//! deterministic scheduler, which the testkit always enables.

use powerscale_matrix::MatrixGen;
use powerscale_pool::{DetConfig, ThreadPool};
use powerscale_strassen::StrassenConfig;
use powerscale_trace as trace;

/// Per-thread structural signatures (thread label + forest shape,
/// timestamps excluded), sorted so thread *registration order* — which
/// legitimately varies with OS scheduling — does not matter.
fn sorted_signature(t: &trace::Trace) -> Vec<String> {
    let mut lines: Vec<String> = trace::structural_signature(t)
        .lines()
        .map(str::to_owned)
        .collect();
    lines.sort();
    lines
}

#[test]
fn deterministic_replays_produce_identical_span_trees() {
    let pool = ThreadPool::new(3);
    let mut gen = MatrixGen::new(7);
    let (a, b) = (gen.paper_operand(48), gen.paper_operand(48));
    let cfg = StrassenConfig {
        cutoff: 8,
        task_depth: 2,
        ..StrassenConfig::default()
    };
    let mul = || {
        powerscale_strassen::multiply(&a.view(), &b.view(), &cfg, Some(&pool), None)
            .expect("valid shapes")
    };

    // Record one chaotic schedule (no tracing yet).
    let det = DetConfig::chaotic(2015);
    let (baseline, recorded) = pool.run_deterministic(&det, mul);

    // Replay it twice, each under its own recorder session.
    let mut signatures = Vec::new();
    for round in 0..2 {
        assert!(
            trace::start(trace::TraceConfig::default()),
            "round {round}: a session was already active"
        );
        trace::set_thread_label("main", u32::MAX);
        let (c, replayed) = pool.replay_deterministic(&det, &recorded, mul);
        let captured = trace::stop();
        assert_eq!(c.as_slice(), baseline.as_slice(), "round {round} result");
        assert_eq!(
            recorded.events, replayed.events,
            "round {round}: schedule replay diverged"
        );
        assert_eq!(captured.total_dropped(), 0, "round {round} dropped records");
        assert!(
            captured.total_records() > 0,
            "round {round} captured nothing"
        );
        signatures.push(sorted_signature(&captured));
    }
    assert_eq!(
        signatures[0], signatures[1],
        "identical deterministic replays must produce identical span trees"
    );
    // The forest is non-trivial: it contains Strassen recursion spans.
    assert!(
        signatures[0].iter().any(|l| l.contains("strassen:rec")),
        "no recursion spans in {:?}",
        signatures[0]
    );
}
