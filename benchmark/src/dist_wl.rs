//! `dist_caps`: the paper's communication-avoidance claim executed.
//! `dist_caps_multiply` on two rank threads over the metered transport is
//! the op under test; each round also times the single-thread blocked and
//! Strassen multiplies of the same operands (the plain baselines a
//! distributed number is read against). Cells with more ranks than cores
//! run for their byte counts only and are never timed.

use crate::gemm_wl::{run_algo, Case};
use crate::host;
use crate::layers::{self, median_secs};
use crate::run::{self, timed, Ctx, Mode, Report, GFLOPS_METRICS};
use crate::stats::{self, Sample};
use crate::trace::Recorder;
use powerscale::caps::comm::caps_comm_words;
use powerscale::caps::{self, CapsConfig};
use powerscale::cluster::presets::e3_1225_net;
use powerscale::cluster::{dist_caps_multiply, summa_multiply, DistCapsConfig, DistOutcome};
use powerscale::machine::net::{run_spmd, NetReport, Phase};
use powerscale::matrix::MatrixGen;
use powerscale::pool::ThreadPool;
use serde::Value;
use std::time::Instant;

/// Dimension of the timed cell and of the count-only cells.
const N: usize = 1024;
/// The repository's own Eq. 8 gate for single-distribution-level cells.
const EQ8_GATE: f64 = 4.0;
/// ... and for cells stacking two levels (forced DFS at P = 7).
const EQ8_GATE_MULTI: f64 = 5.0;

/// Every per-rank, per-phase byte and message counter of a run, flattened:
/// two runs moved the same traffic iff these are equal.
fn traffic(report: &NetReport) -> Vec<u64> {
    report
        .ranks
        .iter()
        .flat_map(|r| {
            r.sent_bytes
                .iter()
                .chain(&r.recv_bytes)
                .chain(&r.sent_msgs)
                .chain(&r.recv_msgs)
                .copied()
                .collect::<Vec<u64>>()
        })
        .collect()
}

/// Measured-over-bound ratio of Eq. 8: the largest per-rank received
/// algorithm-phase volume against `caps_comm_words(n, P, M)`, `M` being
/// the budget when one was set and the metered high-water mark otherwise
/// (the convention of `cluster::measured`).
fn eq8_ratio(out: &DistOutcome, n: usize, p: usize, mem_limit_words: Option<u64>) -> f64 {
    let words = out.report.max_recv_bytes(Phase::Algo) / 8;
    let peak = (out.report.max_peak_bytes() / 8).max(1);
    let m = mem_limit_words.unwrap_or(peak).max(1);
    words as f64 / caps_comm_words(n as f64, p as f64, m as f64)
}

fn count_only_cell(name: &str, p: usize, out: &DistOutcome, ratio: Option<f64>) -> Value {
    let mut fields = vec![
        ("cell".into(), Value::String(name.into())),
        ("timed".into(), Value::Bool(false)),
        ("n".into(), Value::UInt(N as u64)),
        ("ranks".into(), Value::UInt(p as u64)),
        (
            "algo_recv_bytes_max_rank".into(),
            Value::UInt(out.report.max_recv_bytes(Phase::Algo)),
        ),
        ("msgs_total".into(), Value::UInt(out.report.total_msgs())),
    ];
    if let Some(r) = ratio {
        fields.push(("eq8_ratio".into(), Value::Float(r)));
    }
    Value::Object(fields)
}

/// The workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let ranks = host::load_threads();
    let net = e3_1225_net(ranks);
    let cfg = DistCapsConfig::default();

    // Set-up: operands, the single-node CAPS product every distributed
    // result must equal bit for bit, one untimed warm-up of each op.
    let mut case = Case::new(&mut MatrixGen::new(ctx.seed), N);
    let off = Recorder::new(false);
    let reference = caps::multiply(
        &case.a.view(),
        &case.b.view(),
        &CapsConfig::default(),
        None,
        None,
    )
    .expect("square operands");
    for algo in 0..2 {
        run_algo(&off, 0, algo, &mut case, None);
    }
    let warm = dist_caps_multiply(&case.a, &case.b, &cfg, &net).expect("distributed multiply");
    report.setup_s = ctx.since_start();
    if ctx.mode == Mode::SetupOnly {
        return report;
    }
    report.op(warm.c.as_slice() == reference.as_slice());
    let expected_traffic = traffic(&warm.report);

    let mut secs: [Vec<f64>; 3] = Default::default();
    let mut ops_per_s = Vec::new();
    let mut last: Option<DistOutcome> = None;
    let (plain, traced, rec) = run::rounds(ctx, 4, |i, rec| {
        rec.span("round", i, || {
            let mut total = 0.0;
            for (algo, algo_secs) in secs.iter_mut().enumerate().take(2) {
                let s = run_algo(rec, i, algo, &mut case, None);
                algo_secs.push(s);
                total += s;
                report.op(rec.span("check.freivalds", i, || case.freivalds(algo)));
            }
            let (out, s) = timed(rec, "cluster.dist.dist_caps_multiply", i, || {
                dist_caps_multiply(&case.a, &case.b, &cfg, &net)
            });
            secs[2].push(s);
            total += s;
            ops_per_s.push(3.0 / total);
            let ok = rec.span("check.bitwise", i, || match &out {
                Ok(o) => {
                    o.c.as_slice() == reference.as_slice() && traffic(&o.report) == expected_traffic
                }
                Err(_) => false,
            });
            report.op(ok);
            last = out.ok();
        })
    });
    let out = last.unwrap_or(warm);
    let ratio = eq8_ratio(&out, N, ranks, None);
    report.check(
        "eq8_ratio_within_gate",
        ratio <= EQ8_GATE,
        format!("{ratio:.4} vs {EQ8_GATE}"),
    );
    report.exact.push(("eq8_ratio".into(), ratio));
    report.exact.push((
        "algo_recv_bytes_max_rank".into(),
        out.report.max_recv_bytes(Phase::Algo) as f64,
    ));
    report
        .exact
        .push(("msgs_total".into(), out.report.total_msgs() as f64));
    report
        .counts
        .push(("rounds".into(), (plain.len() + traced.len()) as u64));
    report.counts.push(("ranks".into(), ranks as u64));
    report.counts.push(("n".into(), N as u64));

    if ctx.mode == Mode::Measure {
        for (a, metric) in GFLOPS_METRICS.into_iter().enumerate() {
            let per_round: Vec<f64> = secs[a].iter().map(|s| case.flops() / s / 1e9).collect();
            report.e2e.push((metric, Sample::median_of(&per_round)));
        }
        report
            .e2e
            .push(("throughput_rps", Sample::median_of(&ops_per_s)));
        // The distributed multiply's wall (the issue's dist_caps_wall_s).
        let dist_ms: Vec<f64> = secs[2].iter().map(|s| s * 1e3).collect();
        report
            .e2e
            .push(("latency_p50_ms", Sample::median_of(&dist_ms)));
        return report;
    }

    // Traced pass.
    run::trace_overhead(&mut report, &plain, &traced);
    let wall = stats::median(&secs[2]);
    report.layer("cluster.dist.wall_s", wall);
    report.layer("cluster.dist.eq8_ratio", ratio);
    report.layer(
        "cluster.dist.algo_bytes_max_rank",
        out.report.max_recv_bytes(Phase::Algo) as f64,
    );
    report.layer("cluster.dist.msgs_total", out.report.total_msgs() as f64);
    let setup_bytes: u64 = (0..ranks)
        .map(|r| out.report.recv_bytes(r, Phase::Scatter) + out.report.recv_bytes(r, Phase::Gather))
        .sum();
    report.layer("cluster.dist.scatter_gather_bytes", setup_bytes as f64);
    report.layer(
        "cluster.dist.peak_bytes_max_rank",
        out.report.max_peak_bytes() as f64,
    );
    // The result waits for the rank with the most arithmetic: the share of
    // that rank's compute the average rank spends idle (exact flop counts).
    let max_flops = out.per_rank_flops.iter().copied().max().unwrap_or(0).max(1) as f64;
    let mean_flops = out.per_rank_flops.iter().sum::<u64>() as f64 / ranks as f64;
    report.layer("cluster.dist.rank_wait_frac", 1.0 - mean_flops / max_flops);

    let caps_1t = median_secs(3, || {
        std::hint::black_box(run_algo(&off, 0, 2, &mut case, None));
    });
    let pool = ThreadPool::new(ranks);
    let caps_pooled = median_secs(3, || {
        std::hint::black_box(run_algo(&off, 0, 2, &mut case, Some(&pool)));
    });
    drop(pool);
    let single = e3_1225_net(1);
    let p1 = median_secs(3, || {
        std::hint::black_box(
            dist_caps_multiply(&case.a, &case.b, &cfg, &single).expect("one rank"),
        );
    });
    report.layer("cluster.dist.over_local_caps", wall / caps_pooled);
    report.layer("cluster.dist.p1_over_caps_1t", p1 / caps_1t);

    // Count-only cells: more ranks than cores, so no wall clock — the byte
    // counts repeat exactly and are the result.
    let m_words = ((N / 2) * (N / 2)) as u64;
    let forced = DistCapsConfig {
        mem_limit_bytes: Some(m_words * 8),
        ..DistCapsConfig::default()
    };
    match dist_caps_multiply(&case.a, &case.b, &forced, &e3_1225_net(7)) {
        Ok(o) => {
            let r = eq8_ratio(&o, N, 7, Some(m_words));
            report.op(o.c.as_slice() == reference.as_slice());
            report.check(
                "eq8_ratio_dfs_p7_within_gate",
                r <= EQ8_GATE_MULTI,
                format!("{r:.4} vs {EQ8_GATE_MULTI}"),
            );
            report.layer_exact("cluster.dist.eq8_ratio_dfs_p7", r);
            report
                .cells
                .push(count_only_cell("dist_caps_forced_dfs_p7", 7, &o, Some(r)));
        }
        Err(e) => report.check("dist_caps_forced_dfs_p7", false, e.to_string()),
    }
    let net4 = e3_1225_net(4);
    match (
        summa_multiply(&case.a, &case.b, &net4),
        dist_caps_multiply(&case.a, &case.b, &cfg, &net4),
    ) {
        (Ok(summa), Ok(caps4)) => {
            report.op(case.freivalds_of(&summa.c));
            report.op(caps4.c.as_slice() == reference.as_slice());
            report.layer_exact(
                "cluster.dist.summa_bytes_over_caps_p4",
                summa.report.max_recv_bytes(Phase::Algo) as f64
                    / caps4.report.max_recv_bytes(Phase::Algo).max(1) as f64,
            );
            report
                .cells
                .push(count_only_cell("summa_p4", 4, &summa, None));
            report.cells.push(count_only_cell(
                "dist_caps_p4",
                4,
                &caps4,
                Some(eq8_ratio(&caps4, N, 4, None)),
            ));
        }
        (s, c) => report.check(
            "count_only_p4",
            false,
            format!("summa: {:?}, caps: {:?}", s.err(), c.err()),
        ),
    }

    layers::host(&mut report);
    let kernel = layers::kernel(&mut report);
    layers::leaf(&mut report, kernel);
    layers::simulator(&mut report);
    net_probes(&mut report, ranks);
    report.spans = rec.spans();
    report
}

/// `machine.net.*`: what the transport costs with no algorithm on top.
fn net_probes(report: &mut Report, ranks: usize) {
    if ranks < 2 {
        return;
    }
    let cfg = e3_1225_net(2);
    let launch = median_secs(100, || {
        run_spmd::<Vec<f64>, (), _>(&cfg, |_| Ok(())).expect("empty program");
    });
    report.layer("machine.net.spmd_launch_us", launch * 1e6);

    // Ping-pong of `words` doubles, `trips` round trips; every hop sends a
    // fresh copy of the payload, as the distributed executors do (a moved
    // buffer would time a pointer hand-off). Rank 0 reports its loop time.
    let ping_pong = |words: usize, trips: u64| -> f64 {
        let (results, _) = run_spmd::<Vec<f64>, f64, _>(&cfg, |ep| {
            let me = ep.rank();
            let payload = vec![me as f64; words];
            let t0 = Instant::now();
            for t in 0..trips {
                if me == 0 {
                    ep.send(1, t, payload.clone())?;
                    std::hint::black_box(ep.recv(1, t)?);
                } else {
                    std::hint::black_box(ep.recv(0, t)?);
                    ep.send(0, t, payload.clone())?;
                }
            }
            Ok(t0.elapsed().as_secs_f64())
        })
        .expect("ping-pong");
        results[0]
    };
    const SMALL_TRIPS: u64 = 5_000;
    report.layer(
        "machine.net.msg_us",
        ping_pong(1, SMALL_TRIPS) / (2 * SMALL_TRIPS) as f64 * 1e6,
    );
    const BIG_WORDS: usize = 1 << 20;
    const BIG_TRIPS: u64 = 20;
    let big = ping_pong(BIG_WORDS, BIG_TRIPS);
    report.layer(
        "machine.net.gbps",
        (2 * BIG_TRIPS) as f64 * (BIG_WORDS * 8) as f64 / big / 1e9,
    );
}
