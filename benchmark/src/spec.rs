//! What the benchmark runs and what it reports: the five workloads, the
//! end-to-end metrics (each with the bound by which it may worsen) and the
//! per-layer ledger (each row with the end-to-end metric it should move).
//!
//! `BENCHMARK.json` at the repository root carries the same names, units,
//! directions and bounds; a unit test below keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload: a fixed recipe for generating inputs from the seed.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver runs and gates it. The
    /// driver's workloads may not contain an op that fails.
    pub driver: bool,
}

/// The workloads, in the order the no-`--workload` run executes them.
pub const WORKLOADS: [Workload; 5] = [
    // Not in BENCHMARK.json until crates/pool is fixed: about one run in ten
    // dies or hangs in a pooled recursion (README, "Known defect").
    // `--workload gemm_large` and the whole-set run still run it, and a
    // process that dies is a failed op there.
    Workload {
        name: "gemm_large",
        why: "n=2048 f64 multiplies on a 2-thread pool: kernel, packing, fused leaf, Strassen/CAPS recursion, add passes and pool scheduling do all the work; serving, journal and transport do none",
        driver: false,
    },
    Workload {
        name: "gemm_1t",
        why: "blocked DGEMM, Strassen and CAPS with no pool at n=512 and n=1024: the single-thread baseline and the mid sizes where fused packing and CAPS bookkeeping cost most; a scheduling change must not move it",
        driver: true,
    },
    Workload {
        name: "serve_f64",
        why: "Server::run over the default f64 request mix, journal off: admission queue, operand generation and checksum dominate and kernels matter little; a journal or dtype-gate change must not move it",
        driver: true,
    },
    Workload {
        name: "serve_mixed_journaled",
        why: "same mix with 20% f32/mixed-tier requests and the write-ahead journal on: writes beside reads and the process-global dtype gate beside f64 traffic",
        driver: true,
    },
    Workload {
        name: "dist_caps",
        why: "distributed CAPS on 2 rank threads over the metered transport, beside its single-node baselines; count-only P=7 forced-DFS and P=4 SUMMA cells pin the Eq. 8 byte counts",
        driver: true,
    },
];

/// An end-to-end metric: reported by every workload in the untraced pass.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of run A's value by which the metric may get worse on each
    /// workload (in the order of `WORKLOADS`) before `--compare` answers
    /// `beyond-bound`: three times the widest interquartile spread of the
    /// ten-seed studies in benchmark/README.md, rounded up to a step of
    /// 0.05 and capped at 0.25.
    pub bounds: [f64; 5],
}

impl EndToEnd {
    /// The bound `BENCHMARK.json` carries: it has one per metric for all
    /// the driver's workloads, so it is the loosest of theirs.
    pub fn bound(&self) -> f64 {
        WORKLOADS
            .iter()
            .zip(self.bounds)
            .filter(|(w, _)| w.driver)
            .fold(0.0, |max, (_, b)| b.max(max))
    }

    /// The bound on one workload.
    pub fn bound_on(&self, workload: &str) -> f64 {
        WORKLOADS
            .iter()
            .position(|w| w.name == workload)
            .map_or(self.bound(), |i| self.bounds[i])
    }
}

/// The end-to-end metrics.
pub const END_TO_END: [EndToEnd; 7] = [
    // Process start to first timed op: pool/server/journal creation, operand
    // generation, blocking autotune, one untimed warm-up op per algorithm;
    // median over fresh processes.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bounds: [0.25, 0.25, 0.25, 0.25, 0.25],
    },
    // VmHWM of the measuring process after the timed window and its output
    // checks.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bounds: [0.05, 0.05, 0.25, 0.25, 0.10],
    },
    // 2n^3 summed over sizes / summed per-size median seconds of blocked DGEMM
    // (serve: over Blocked responses' multiply time; dist_caps: 1-thread
    // baseline on the same operands).
    EndToEnd {
        name: "blocked_gflops",
        unit: "GF/s",
        better: Better::Higher,
        bounds: [0.25, 0.20, 0.15, 0.25, 0.25],
    },
    // Same, classical-equivalent 2n^3, for strassen::multiply (dist_caps:
    // 1-thread baseline).
    EndToEnd {
        name: "strassen_gflops",
        unit: "GF/s",
        better: Better::Higher,
        bounds: [0.25, 0.20, 0.15, 0.25, 0.25],
    },
    // Same for caps::multiply (dist_caps: the distributed multiply itself,
    // 2n^3 / wall of dist_caps_multiply on 2 ranks).
    EndToEnd {
        name: "caps_gflops",
        unit: "GF/s",
        better: Better::Higher,
        bounds: [0.25, 0.20, 0.15, 0.25, 0.25],
    },
    // Operations (multiplies or requests) completed per second spent in
    // them, per round; median over rounds. On the gemm workloads and
    // dist_caps a round is one op of each kind, so this is a function of the
    // three rates above: the one number that moves when any of them does.
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bounds: [0.25, 0.20, 0.10, 0.25, 0.25],
    },
    // Serve: queued_ms + exec_ms per response (median over rounds of the
    // per-round median). gemm workloads: the median wall of the slowest kind
    // of op in the round (an algorithm at a size; CAPS at the largest size
    // today). dist_caps: the median wall of dist_caps_multiply (the issue's
    // dist_caps_wall_s). Never a median pooled over kinds of op.
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bounds: [0.25, 0.20, 0.15, 0.25, 0.25],
    },
];

/// A per-layer metric: reported by every workload in the traced pass, 0 on
/// workloads that do not exercise the layer. Never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<metric>`; layers are this repository's modules.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The end-to-end metric (and workload) a change here should move.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher as H, Lower as L};

const GEMM_BOTH: &str = "blocked_gflops on gemm_large and gemm_1t";
const REC_BOTH: &str = "strassen_gflops, caps_gflops on gemm_large and gemm_1t";
const SERVE_BOTH: &str = "throughput_rps on serve_f64 and serve_mixed_journaled";
const SERVE_LAT: &str = "latency_p50_ms on both serve workloads";
const JOURNAL: &str = "throughput_rps, latency_p50_ms on serve_mixed_journaled; none on serve_f64";
const DIST: &str = "caps_gflops, latency_p50_ms on dist_caps";
const CONTEXT: &str = "none (context for roofline ratios)";

/// The per-layer ledger.
pub const PER_LAYER: [PerLayer; 95] = [
    pl(
        "bench.trace_overhead_frac",
        "ratio",
        L,
        "none; traced over untraced round time minus 1",
    ),
    pl(
        "bench.untraced_round_s",
        "s",
        L,
        "none; the base of bench.trace_overhead_frac",
    ),
    pl("host.nproc", "count", H, CONTEXT),
    pl("host.llc_bytes", "B", H, CONTEXT),
    pl("host.stream_gbps", "GB/s", H, CONTEXT),
    pl(
        "host.eq9_crossover_n",
        "n",
        L,
        "none; 480*y/z from gemm.kernel.f64_gflops and host.stream_gbps",
    ),
    pl(
        "host.observed_crossover_n",
        "n",
        L,
        "none; smallest measured n with Strassen ahead of blocked, 0 if none",
    ),
    pl("gemm.kernel.f64_gflops", "GF/s", H, GEMM_BOTH),
    pl(
        "gemm.kernel.f32_gflops",
        "GF/s",
        H,
        "throughput_rps on serve_mixed_journaled only",
    ),
    pl(
        "gemm.kernel.mixed_gflops",
        "GF/s",
        H,
        "throughput_rps on serve_mixed_journaled only",
    ),
    pl("gemm.kernel.mr", "count", H, CONTEXT),
    pl("gemm.kernel.nr", "count", H, CONTEXT),
    pl(
        "gemm.pack.a_gbps",
        "GB/s",
        H,
        "blocked_gflops on gemm_large",
    ),
    pl(
        "gemm.pack.b_gbps",
        "GB/s",
        H,
        "blocked_gflops on gemm_large",
    ),
    pl(
        "gemm.pack.sum_gbps",
        "GB/s",
        H,
        "strassen_gflops, caps_gflops on gemm_large; neutral on gemm_1t",
    ),
    pl(
        "gemm.pack.frac_of_stream",
        "ratio",
        H,
        "blocked_gflops on gemm_large",
    ),
    pl("gemm.leaf.fused_gflops_n64", "GF/s", H, REC_BOTH),
    pl("gemm.leaf.fused_sum_gflops_n64", "GF/s", H, REC_BOTH),
    pl("gemm.leaf.unpacked_gflops_n64", "GF/s", H, REC_BOTH),
    pl(
        "gemm.leaf.frac_of_kernel",
        "ratio",
        H,
        "strassen_gflops, caps_gflops everywhere; caps_gflops on dist_caps",
    ),
    pl("gemm.dgemm.gflops_1t_n256", "GF/s", H, GEMM_BOTH),
    pl("gemm.dgemm.gflops_1t_n512", "GF/s", H, GEMM_BOTH),
    pl("gemm.dgemm.gflops_1t_n1024", "GF/s", H, GEMM_BOTH),
    pl("gemm.dgemm.gflops_1t_n2048", "GF/s", H, GEMM_BOTH),
    pl("gemm.dgemm.frac_of_kernel_1t", "ratio", H, GEMM_BOTH),
    pl("gemm.dgemm.pack_share", "ratio", L, GEMM_BOTH),
    pl(
        "matrix.add_gbps",
        "GB/s",
        H,
        "strassen_gflops, caps_gflops on gemm_large",
    ),
    pl(
        "matrix.add_frac_of_stream",
        "ratio",
        H,
        "strassen_gflops, caps_gflops on gemm_large",
    ),
    pl("matrix.gen_ms_n64", "ms", L, SERVE_BOTH),
    pl("matrix.gen_ms_n256", "ms", L, SERVE_BOTH),
    pl("matrix.gen_ms_n2048", "ms", L, "setup_s on gemm_large"),
    pl("strassen.leaf_calls", "count", L, "strassen_gflops"),
    pl("strassen.add_passes", "count", L, "strassen_gflops"),
    pl(
        "strassen.residual_s_n2048",
        "s",
        L,
        "strassen_gflops on gemm_large",
    ),
    pl(
        "strassen.residual_s_n1024",
        "s",
        L,
        "strassen_gflops on gemm_1t",
    ),
    pl(
        "caps.over_strassen_2t_n2048",
        "ratio",
        L,
        "caps_gflops on gemm_large",
    ),
    pl(
        "caps.over_strassen_1t_n512",
        "ratio",
        L,
        "caps_gflops on gemm_1t",
    ),
    pl(
        "caps.over_strassen_1t_n1024",
        "ratio",
        L,
        "caps_gflops on gemm_1t",
    ),
    pl("caps.residual_s_n2048", "s", L, "caps_gflops on gemm_large"),
    pl("caps.residual_s_n1024", "s", L, "caps_gflops on gemm_1t"),
    pl(
        "pool.spawn_ns_per_task",
        "ns",
        L,
        "strassen_gflops, caps_gflops on gemm_large; throughput_rps on serve; none on gemm_1t",
    ),
    pl(
        "pool.join_ns",
        "ns",
        L,
        "strassen_gflops, caps_gflops on gemm_large",
    ),
    pl(
        "pool.par_eff_blocked_n2048",
        "ratio",
        H,
        "blocked_gflops on gemm_large",
    ),
    pl(
        "pool.par_eff_strassen_n2048",
        "ratio",
        H,
        "strassen_gflops on gemm_large",
    ),
    pl(
        "pool.par_eff_caps_n2048",
        "ratio",
        H,
        "caps_gflops on gemm_large",
    ),
    pl(
        "pool.steals_in_group",
        "count",
        L,
        "caps_gflops on gemm_large",
    ),
    pl(
        "pool.steals_cross_group",
        "count",
        L,
        "caps_gflops on gemm_large",
    ),
    pl(
        "pool.tasks_executed",
        "count",
        L,
        "strassen_gflops, caps_gflops on gemm_large",
    ),
    pl("harness.operands_ms_n64", "ms", L, SERVE_BOTH),
    pl("harness.operands_ms_n256", "ms", L, SERVE_BOTH),
    pl("serve.server.queued_ms_p50", "ms", L, SERVE_LAT),
    pl("serve.server.queued_ms_p90", "ms", L, SERVE_LAT),
    pl("serve.server.queued_ms_p99", "ms", L, SERVE_LAT),
    pl("serve.server.queued_ms_p999", "ms", L, SERVE_LAT),
    pl("serve.server.latency_p90_ms", "ms", L, SERVE_LAT),
    pl("serve.server.latency_p99_ms", "ms", L, SERVE_LAT),
    pl("serve.server.exec_ms_p50", "ms", L, SERVE_BOTH),
    pl("serve.server.exec_ms_p99", "ms", L, SERVE_BOTH),
    pl("serve.server.multiply_ms_p50", "ms", L, SERVE_BOTH),
    pl("serve.server.multiply_ms_p99", "ms", L, SERVE_BOTH),
    pl("serve.server.submit_us_p50", "us", L, SERVE_BOTH),
    pl("serve.server.submit_us_p99", "us", L, SERVE_BOTH),
    pl("serve.server.drain_ms_per_req", "ms", L, SERVE_BOTH),
    pl("serve.server.phase_residual_frac", "ratio", L, SERVE_BOTH),
    pl(
        "serve.server.joules_per_request",
        "J",
        L,
        "none (model joules)",
    ),
    pl(
        "serve.server.shed",
        "count",
        L,
        "failed count on both serve workloads",
    ),
    pl(
        "serve.server.degraded",
        "count",
        L,
        "failed count on both serve workloads",
    ),
    pl("serve.server.retried", "count", L, SERVE_BOTH),
    pl(
        "serve.server.failed_deadline",
        "count",
        L,
        "failed count on both serve workloads",
    ),
    pl("serve.request.checksum_ms_n64", "ms", L, SERVE_BOTH),
    pl("serve.request.checksum_ms_n256", "ms", L, SERVE_BOTH),
    pl("serve.journal.admit_us_p50", "us", L, JOURNAL),
    pl("serve.journal.admit_us_p99", "us", L, JOURNAL),
    pl("serve.journal.done_us_p50", "us", L, JOURNAL),
    pl("serve.journal.done_us_p99", "us", L, JOURNAL),
    pl("serve.journal.bytes_per_req", "B", L, JOURNAL),
    pl("serve.journal.files_per_req", "count", L, JOURNAL),
    pl(
        "serve.journal.resume_ms_per_1k",
        "ms",
        L,
        "setup_s of a resumed server (not a workload yet)",
    ),
    pl("serve.journal.overhead_frac", "ratio", L, JOURNAL),
    pl(
        "serve.dtype.mixed_over_f64_rps",
        "ratio",
        H,
        "throughput_rps on serve_mixed_journaled; none on serve_f64",
    ),
    pl("machine.net.spmd_launch_us", "us", L, DIST),
    pl("machine.net.msg_us", "us", L, DIST),
    pl("machine.net.gbps", "GB/s", H, DIST),
    pl("cluster.dist.wall_s", "s", L, DIST),
    pl(
        "cluster.dist.eq8_ratio",
        "ratio",
        L,
        "none; exact count, must not move",
    ),
    pl(
        "cluster.dist.eq8_ratio_dfs_p7",
        "ratio",
        L,
        "none; exact count, must not move",
    ),
    pl("cluster.dist.algo_bytes_max_rank", "B", L, DIST),
    pl("cluster.dist.msgs_total", "count", L, DIST),
    pl("cluster.dist.scatter_gather_bytes", "B", L, DIST),
    pl(
        "cluster.dist.peak_bytes_max_rank",
        "B",
        L,
        "peak_rss_mb on dist_caps",
    ),
    pl("cluster.dist.rank_wait_frac", "ratio", L, DIST),
    pl("cluster.dist.over_local_caps", "ratio", L, DIST),
    pl("cluster.dist.p1_over_caps_1t", "ratio", L, DIST),
    pl(
        "cluster.dist.summa_bytes_over_caps_p4",
        "ratio",
        H,
        "none; exact count",
    ),
    pl(
        "machine.sim_paper_matrix_s",
        "s",
        L,
        "none end to end; before/after for the simulator merge",
    ),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
        v.get_field(name).expect("object")
    }

    fn names(v: &Value, key: &str) -> BTreeSet<String> {
        field(v, key)
            .as_array()
            .expect("array")
            .iter()
            .map(|e| field(e, "name").as_str().expect("name").to_string())
            .collect()
    }

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(n), "bad name {n}");
            assert!(seen.insert(n), "duplicate name {n}");
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(u), "bad unit {u}");
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bounds.iter().all(|b| (0.0..=0.25).contains(b))));
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let doc = benchmark_json();
        let own = |it: &mut dyn Iterator<Item = &'static str>| -> BTreeSet<String> {
            it.map(str::to_string).collect()
        };
        assert_eq!(
            names(&doc, "workloads"),
            own(&mut WORKLOADS.iter().filter(|w| w.driver).map(|w| w.name))
        );
        assert_eq!(
            names(&doc, "end_to_end"),
            own(&mut END_TO_END.iter().map(|m| m.name))
        );
        assert_eq!(
            names(&doc, "per_layer"),
            own(&mut PER_LAYER.iter().map(|m| m.name))
        );

        for entry in field(&doc, "workloads").as_array().unwrap() {
            let w = workload(field(entry, "name").as_str().unwrap()).unwrap();
            assert_eq!(field(entry, "why").as_str().unwrap(), w.why);
        }
        for entry in field(&doc, "end_to_end").as_array().unwrap() {
            let name = field(entry, "name").as_str().unwrap();
            let m = END_TO_END.iter().find(|m| m.name == name).unwrap();
            assert_eq!(field(entry, "unit").as_str().unwrap(), m.unit, "{name}");
            assert_eq!(
                field(entry, "better").as_str().unwrap(),
                m.better.as_str(),
                "{name}"
            );
            assert_eq!(field(entry, "bound"), &Value::Float(m.bound()), "{name}");
        }
        for entry in field(&doc, "per_layer").as_array().unwrap() {
            let name = field(entry, "name").as_str().unwrap();
            let m = PER_LAYER.iter().find(|m| m.name == name).unwrap();
            assert_eq!(field(entry, "unit").as_str().unwrap(), m.unit, "{name}");
            assert_eq!(
                field(entry, "better").as_str().unwrap(),
                m.better.as_str(),
                "{name}"
            );
        }
        assert_eq!(
            field(&doc, "paths"),
            &Value::Array(vec![Value::String("benchmark".into())])
        );
    }
}
