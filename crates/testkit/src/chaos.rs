//! Chaos-schedule fuzzing: many seeded adversarial schedules through the
//! same multiply, asserting the result is bitwise schedule-invariant.
//!
//! The pool's deterministic mode ([`powerscale_pool::det`]) turns the
//! scheduler into a function of a seed: worker stalls, shuffled steal
//! orders and forced cross-group probing all replay bit-identically from
//! that one `u64`. The fuzzer drives a small Strassen or CAPS multiply
//! through a batch of such schedules and checks that every run produces
//! the *same bytes* as a sequential baseline — the workspace's central
//! determinism claim (task decomposition and per-task summation order are
//! fixed; the schedule only decides *where* and *when*, never *what*).
//!
//! A failing seed is the whole reproduction recipe: re-run the same
//! multiply under `DetConfig::chaotic(seed)` and the schedule — including
//! the failure — comes back exactly, or replay the recorded
//! [`DetTrace`](powerscale_pool::DetTrace) to step through it.
//!
//! Batch size comes from `schedules_from_env`: smoke defaults keep
//! `cargo test` quick, CI raises `POWERSCALE_CHAOS_SCHEDULES` into the
//! thousands in release builds.

use powerscale_caps::CapsConfig;
use powerscale_matrix::{Matrix, MatrixGen};
use powerscale_pool::det::DetConfig;
use powerscale_pool::ThreadPool;
use powerscale_strassen::StrassenConfig;
use std::collections::HashSet;

/// Reads the schedule budget from `POWERSCALE_CHAOS_SCHEDULES`, falling
/// back to `default` when unset or unparsable. A zero budget is clamped
/// to one so a misconfigured CI job can never silently skip the fuzz.
pub(crate) fn schedules_from_env(default: usize) -> usize {
    std::env::var("POWERSCALE_CHAOS_SCHEDULES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(default)
        .max(1)
}

/// Parameters of one chaos batch.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Matrix dimension of the multiply under test (kept small: the
    /// point is schedule coverage, not flops).
    pub n: usize,
    /// Dense cutover of the recursion (small, to force several levels of
    /// task spawning even at a small `n`).
    pub cutoff: usize,
    /// Number of adversarial schedules to run.
    pub schedules: usize,
    /// First seed of the batch; schedule `i` uses `base_seed + i`.
    pub base_seed: u64,
}

impl ChaosConfig {
    /// The smoke batch: `n = 32`, cutoff 8, seed batch from the env
    /// budget (default 24).
    pub fn smoke(base_seed: u64) -> Self {
        ChaosConfig {
            n: 32,
            cutoff: 8,
            schedules: schedules_from_env(24),
            base_seed,
        }
    }
}

/// Outcome of a chaos batch (all runs already asserted bitwise-equal).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Schedules executed.
    pub schedules_run: usize,
    /// Distinct schedule traces observed (byte-rendering dedup) — proof
    /// the batch explored more than one interleaving.
    pub distinct_traces: usize,
    /// Total scheduling events across the batch.
    pub total_events: usize,
}

/// Drives `mul` through `cfg.schedules` adversarial schedules on `pool`,
/// asserting every parallel result is bitwise identical to the
/// sequential baseline, and that the *last* schedule replays exactly
/// from its recorded trace.
///
/// # Panics
/// Panics (test-style) on any schedule-dependent divergence or replay
/// mismatch; the message names the offending seed.
pub(crate) fn chaos_batch(
    pool: &ThreadPool,
    cfg: &ChaosConfig,
    label: &str,
    mul: &(dyn Fn(Option<&ThreadPool>) -> Matrix + Sync),
) -> ChaosReport {
    let baseline = mul(None);
    let mut traces = HashSet::new();
    let mut total_events = 0usize;
    let mut last: Option<(DetConfig, powerscale_pool::DetTrace)> = None;
    for i in 0..cfg.schedules {
        let seed = cfg.base_seed.wrapping_add(i as u64);
        let det = DetConfig::chaotic(seed);
        let (c, trace) = pool.run_deterministic(&det, || mul(Some(pool)));
        assert_eq!(
            c.as_slice(),
            baseline.as_slice(),
            "{label}: schedule seed {seed} changed the result — \
             reproduce with DetConfig::chaotic({seed})"
        );
        total_events += trace.events.len();
        traces.insert(trace.to_bytes());
        last = Some((det, trace));
    }
    // Replay the final schedule from its trace: the recorded draw stream
    // must reproduce the event list exactly.
    let (det, recorded) = last.expect("batch ran at least one schedule");
    let (c, replayed) = pool.replay_deterministic(&det, &recorded, || mul(Some(pool)));
    assert_eq!(c.as_slice(), baseline.as_slice());
    assert_eq!(
        recorded.events, replayed.events,
        "{label}: replay diverged from the recording (seed {})",
        det.seed
    );
    assert_eq!(recorded.to_bytes(), replayed.to_bytes());

    ChaosReport {
        schedules_run: cfg.schedules,
        distinct_traces: traces.len(),
        total_events,
    }
}

fn operands(n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut gen = MatrixGen::new(seed);
    (gen.paper_operand(n), gen.paper_operand(n))
}

/// Chaos batch over the classic Strassen recursion.
pub fn chaos_strassen(pool: &ThreadPool, cfg: &ChaosConfig) -> ChaosReport {
    let (a, b) = operands(cfg.n, cfg.base_seed ^ 0xA5);
    let scfg = StrassenConfig {
        cutoff: cfg.cutoff,
        ..StrassenConfig::default()
    };
    let mul = move |p: Option<&ThreadPool>| {
        powerscale_strassen::multiply(&a.view(), &b.view(), &scfg, p, None)
            .expect("strassen dimensions")
    };
    chaos_batch(pool, cfg, "strassen", &mul)
}

/// Chaos batch over the CAPS traversal. On a pool of ≥ 7 workers CAPS
/// installs its strict seven-group layout *inside* every adversarial
/// schedule, so the batch doubles as a fuzz of the strict-steal put-back
/// path under forced cross-group probing.
pub fn chaos_caps(pool: &ThreadPool, cfg: &ChaosConfig) -> ChaosReport {
    let (a, b) = operands(cfg.n, cfg.base_seed ^ 0xCA);
    let ccfg = CapsConfig {
        cutoff: cfg.cutoff,
        cutoff_depth: 2,
        dfs_ways: 2,
        ..CapsConfig::default()
    };
    let mul = move |p: Option<&ThreadPool>| {
        powerscale_caps::multiply(&a.view(), &b.view(), &ccfg, p, None).expect("caps dimensions")
    };
    chaos_batch(pool, cfg, "caps", &mul)
}

/// Chaos batch over the blocked GEMM's parallel row-panel loop.
pub fn chaos_blocked(pool: &ThreadPool, cfg: &ChaosConfig) -> ChaosReport {
    let (a, b) = operands(cfg.n, cfg.base_seed ^ 0xB1);
    let mul = move |p: Option<&ThreadPool>| {
        let ctx = powerscale_gemm::GemmContext {
            pool: p,
            ..Default::default()
        };
        let mut c = Matrix::zeros(cfg.n, cfg.n);
        powerscale_gemm::dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &ctx)
            .expect("blocked dimensions");
        c
    };
    chaos_batch(pool, cfg, "blocked", &mul)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_budget_parses_and_clamps() {
        // Unset → default; the clamp keeps a zero default alive.
        assert!(schedules_from_env(24) >= 1);
        assert_eq!(schedules_from_env(0), 1);
    }

    #[test]
    fn tiny_strassen_batch_is_schedule_invariant() {
        let pool = ThreadPool::new(3);
        let cfg = ChaosConfig {
            n: 16,
            cutoff: 8,
            schedules: 4,
            base_seed: 0x7E57,
        };
        let report = chaos_strassen(&pool, &cfg);
        assert_eq!(report.schedules_run, 4);
        assert!(report.total_events > 0);
    }
}
