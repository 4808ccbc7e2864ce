//! Regenerates every paper artifact: tables, figures, EXPERIMENTS.md.
//!
//! ```text
//! reproduce [--out DIR] [--quick] [--trace PATH] [--cluster]
//!           [--dtype f64|f32|mixed]
//! ```
//!
//! `--out DIR` additionally writes `EXPERIMENTS.md`, per-figure CSVs,
//! the raw result JSON and per-algorithm timelines into `DIR`. `--quick`
//! runs a reduced matrix (sizes 256/512) for smoke testing.
//!
//! The matrix is a deterministic simulation that takes seconds, so a
//! rerun is the recovery from an interrupted one. A cell that panics is
//! a bug: the run stops, stderr names the cell, and the exit code is
//! non-zero.
//!
//! `--dtype` selects the kernel numeric tier every cell is stamped
//! with: `f64` (default), `f32`, or `mixed` (f64 arithmetic on
//! operands rounded through f32). Real executions (`--trace`) dispatch kernels of that
//! tier; the simulated matrix records it as scenario metadata.
//!
//! `--trace PATH` skips the matrix and instead runs traced real
//! executions of all three algorithms (n = 512, or 256 with `--quick`),
//! writing a Perfetto-loadable Chrome trace to `PATH`, folded flamegraph
//! stacks to `PATH.folded`, and the per-phase EP summary to
//! `PATH.phases.json`.
//!
//! `--cluster` skips the matrix and runs the measured distributed-memory
//! studies instead: the Eq. 8 verification grid and the arXiv 1202.3177
//! strong-scaling figure, both metered by the simulated message-passing
//! transport. `--quick` shrinks both to the fast sizes; `--out DIR`
//! additionally writes `CLUSTER_eq8.json` and the two figure CSVs.
//! Exits non-zero if any swept cell exceeds its Eq. 8 gate (4× single-level
//! cells, 5× multi-level cells).

use powerscale_harness::{figures, manifest, report, tables, DtypeTier, Harness};

const USAGE: &str =
    "usage: reproduce [--out DIR] [--quick] [--trace PATH] [--cluster] [--dtype f64|f32|mixed]";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The flag's value, or a usage error (not a panic) when it is missing.
fn take_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) if !v.starts_with("--") => v,
        _ => usage_error(&format!("{flag} needs a value")),
    }
}

/// The `--trace PATH` mode: traced real executions of all three
/// algorithms on one timeline, exported as Chrome JSON + folded stacks +
/// a per-phase EP summary. Skips the matrix entirely.
fn run_traced(h: &Harness, path: &str, quick: bool, dtype: DtypeTier) {
    use powerscale_harness::{Algorithm, RunSpec};
    let n = if quick { 256 } else { 512 };
    let threads = 4;
    let pool = powerscale_pool::ThreadPool::new(threads);
    let specs: Vec<RunSpec> = [Algorithm::Blocked, Algorithm::Strassen, Algorithm::Caps]
        .into_iter()
        .map(|algorithm| RunSpec::new(algorithm, n, threads).with_dtype(dtype))
        .collect();
    eprintln!("traced run: 3 algorithms, n = {n}, {threads} threads…");
    let traced = h
        .traced_real_runs(&specs, &pool)
        .expect("no other trace session is active");

    std::fs::write(path, powerscale_trace::to_chrome_json(&traced.trace))
        .expect("write Chrome trace");
    std::fs::write(
        format!("{path}.folded"),
        powerscale_trace::to_folded(&traced.trace),
    )
    .expect("write folded stacks");
    std::fs::write(format!("{path}.phases.json"), traced.summary.to_json())
        .expect("write phase summary");

    for r in &traced.runs {
        println!(
            "{} n={} t={}: {:.4}s wall, {:.1} W (model)",
            r.spec.algorithm, r.spec.n, r.spec.threads, r.wall_seconds, r.model_pkg_watts
        );
    }
    println!("{}", traced.summary.to_markdown());
    eprintln!(
        "trace written to {path} (load in https://ui.perfetto.dev or chrome://tracing);\n\
         folded stacks: {path}.folded · per-phase EP: {path}.phases.json"
    );
    if traced.summary.coverage < 0.95 {
        eprintln!(
            "warning: span coverage {:.1}% is below the 95% bar",
            traced.summary.coverage * 100.0
        );
    }
    if traced.summary.dropped > 0 {
        eprintln!(
            "warning: {} records dropped on ring overflow",
            traced.summary.dropped
        );
    }
}

/// The `--cluster` mode: the measured distributed-memory studies — the
/// Eq. 8 verification sweep and the arXiv 1202.3177 strong-scaling
/// figure — printed to stdout and, with `--out`, written as
/// `CLUSTER_eq8.json` plus per-figure CSVs. Skips the matrix entirely.
/// Exits non-zero if any swept cell breaks its Eq. 8 gate (≤ 4× for
/// single-distribution-level cells, ≤ 5× for multi-level cells).
fn run_cluster(quick: bool, out_dir: Option<&str>) {
    use powerscale_cluster::measured;
    let grid: Vec<_> = if quick {
        measured::default_eq8_grid()
            .into_iter()
            .filter(|&(n, _, _)| n <= 256)
            .collect()
    } else {
        measured::default_eq8_grid()
    };
    eprintln!("measured Eq. 8 sweep: {} cells…", grid.len());
    let study = measured::run_eq8_study(&grid).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    println!("{}", study.to_markdown());
    println!("{}", figures::fig_cluster_eq8(&study).to_ascii(64, 16));

    let (n, mem_words, counts): (usize, u64, &[usize]) = if quick {
        (256, 16384, &[1, 2, 4, 7, 28])
    } else {
        (1024, 262144, &[1, 2, 4, 7, 14, 28, 49])
    };
    eprintln!(
        "strong-scaling sweep: n = {n}, {} node counts…",
        counts.len()
    );
    let scaling =
        measured::run_strong_scaling(n, mem_words, counts, measured::preset_node_flops_per_s())
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
    println!("{}", scaling.to_markdown());
    println!(
        "{}",
        figures::fig_cluster_scaling(&scaling).to_ascii(64, 16)
    );

    if let Some(dir) = out_dir {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).expect("create output directory");
        #[derive(serde::Serialize)]
        struct ClusterArtifact {
            eq8: powerscale_cluster::measured::Eq8Study,
            strong_scaling: powerscale_cluster::measured::StrongScalingStudy,
        }
        std::fs::write(
            dir.join("CLUSTER_eq8.json"),
            serde_json::to_string_pretty(&ClusterArtifact {
                eq8: study.clone(),
                strong_scaling: scaling.clone(),
            })
            .expect("serialise cluster studies"),
        )
        .expect("write CLUSTER_eq8.json");
        std::fs::write(
            dir.join("fig_cluster_eq8.csv"),
            figures::fig_cluster_eq8(&study).to_csv(),
        )
        .expect("write Eq. 8 figure CSV");
        std::fs::write(
            dir.join("fig_cluster_scaling.csv"),
            figures::fig_cluster_scaling(&scaling).to_csv(),
        )
        .expect("write scaling figure CSV");
        eprintln!("cluster artifacts written to {}", dir.display());
    }

    // Per-cell gates: 4× for single-distribution-level cells, 5× for
    // multi-level cells (see Eq8Cell::gate for the derivation).
    let violations: Vec<_> = study
        .cells
        .iter()
        .filter(|c| c.ratio() > c.gate())
        .collect();
    if !violations.is_empty() {
        for c in &violations {
            eprintln!(
                "Eq. 8 gate FAILED: n={} P={} M={:?}: ratio {:.2}× exceeds its {}× gate",
                c.n,
                c.nodes,
                c.mem_limit_words,
                c.ratio(),
                c.gate()
            );
        }
        std::process::exit(1);
    }
    println!(
        "Eq. 8 gate: PASS (worst ratio {:.2}×; per-cell gates 4×/5×)",
        study.max_ratio()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir: Option<String> = None;
    let mut quick = false;
    let mut trace_path: Option<String> = None;
    let mut cluster = false;
    let mut dtype = DtypeTier::F64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out_dir = Some(take_value(&args, &mut i, "--out").to_string()),
            "--trace" => trace_path = Some(take_value(&args, &mut i, "--trace").to_string()),
            "--cluster" => cluster = true,
            "--dtype" => {
                let v = take_value(&args, &mut i, "--dtype");
                dtype = v
                    .parse()
                    .unwrap_or_else(|e: String| usage_error(&format!("--dtype: {e}")));
            }
            "--quick" => quick = true,
            other => usage_error(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if cluster && trace_path.is_some() {
        usage_error("--cluster is a stand-alone mode; it combines only with --quick and --out");
    }
    if cluster {
        run_cluster(quick, out_dir.as_deref());
        return;
    }

    let h = Harness::default();
    eprintln!("platform: {}", h.machine.name);
    if dtype != DtypeTier::F64 {
        eprintln!("dtype tier: {dtype}");
    }
    if let Some(path) = trace_path {
        run_traced(&h, &path, quick, dtype);
        return;
    }
    let (sizes, threads): (&[usize], &[usize]) = if quick {
        (&[256, 512], &[1, 2, 3, 4])
    } else {
        (&tables::PAPER_SIZES, &tables::PAPER_THREADS)
    };
    eprintln!(
        "running execution matrix: 3 algorithms x {:?} x {:?} threads…",
        sizes, threads
    );
    let results = h.run_matrix(sizes, threads, dtype);

    println!("{}", manifest::to_markdown(&manifest::manifest(&h)));
    println!(
        "{}",
        tables::slowdown_table(&results, sizes, threads).to_markdown()
    );
    println!(
        "{}",
        tables::power_table(&results, sizes, threads).to_markdown()
    );
    println!(
        "{}",
        tables::ep_table(&results, sizes, threads).to_markdown()
    );
    println!(
        "{}",
        figures::fig3_slowdown(&results, sizes, threads).to_ascii(64, 16)
    );
    for alg in powerscale_harness::experiment::ALL_ALGORITHMS {
        println!(
            "{}",
            figures::power_figure(&results, alg, sizes, threads).to_ascii(64, 14)
        );
    }
    println!(
        "{}",
        figures::fig7_ep_scaling(&results, sizes, threads).to_ascii(64, 18)
    );

    println!("Claim checks:");
    let mut all_ok = true;
    for (claim, ok) in report::claim_checks(&results) {
        println!("  [{}] {claim}", if ok { "PASS" } else { "FAIL" });
        all_ok &= ok;
    }

    if let Some(dir) = out_dir {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir).expect("create output directory");
        let mut experiments = report::experiments_markdown(&h, &results);
        eprintln!("running the section-VIII future-work studies…");
        experiments.push_str(&report::future_work_markdown());
        std::fs::write(dir.join("EXPERIMENTS.md"), experiments).expect("write EXPERIMENTS.md");
        std::fs::write(
            dir.join("results.json"),
            serde_json::to_string_pretty(&results).expect("serialise results"),
        )
        .expect("write results.json");
        let figs = [
            ("fig1.csv", figures::fig1_concept(4).to_csv()),
            (
                "fig3.csv",
                figures::fig3_slowdown(&results, sizes, threads).to_csv(),
            ),
            (
                "fig4.csv",
                figures::power_figure(
                    &results,
                    powerscale_harness::Algorithm::Blocked,
                    sizes,
                    threads,
                )
                .to_csv(),
            ),
            (
                "fig5.csv",
                figures::power_figure(
                    &results,
                    powerscale_harness::Algorithm::Strassen,
                    sizes,
                    threads,
                )
                .to_csv(),
            ),
            (
                "fig6.csv",
                figures::power_figure(
                    &results,
                    powerscale_harness::Algorithm::Caps,
                    sizes,
                    threads,
                )
                .to_csv(),
            ),
            (
                "fig7.csv",
                figures::fig7_ep_scaling(&results, sizes, threads).to_csv(),
            ),
        ];
        for (name, csv) in figs {
            std::fs::write(dir.join(name), csv).expect("write figure CSV");
        }
        // Gantt timelines for one representative cell per algorithm.
        for alg in powerscale_harness::experiment::ALL_ALGORITHMS {
            let graph = h.graph(alg, 1024);
            let schedule = powerscale_harness::experiment::simulate_for(&h, &graph, 4);
            std::fs::write(
                dir.join(format!(
                    "timeline_{}_1024_4t.csv",
                    alg.paper_name().to_lowercase()
                )),
                schedule.timeline_csv(&graph),
            )
            .expect("write timeline CSV");
        }
        eprintln!("artifacts written to {}", dir.display());
    }

    if !all_ok && !quick {
        std::process::exit(1);
    }
}
