//! End-to-end real-path benchmark: blocked DGEMM vs Strassen (classic and
//! Winograd) vs CAPS on the host CPU, at the paper's problem scale.
//!
//! Unlike the `kernels` microbench this times whole multiplies — packing,
//! quadrant adds, recursion, scheduling — so the fused-packing and
//! group-affine-scheduling work has an end-to-end number, not just a
//! register-tile number. Strassen and CAPS run the paper's configuration
//! (cutoff 64), so every size recurses and the committed baseline stays
//! comparable. Results land in `artifacts/BENCH_e2e.json`.
//!
//! Environment knobs (all optional):
//! - `POWERSCALE_E2E_SIZES`    comma list, default `512,1024,2048`
//! - `POWERSCALE_E2E_REPS`     best-of repetitions, default 3
//! - `POWERSCALE_E2E_THREADS`  pool width, default `available_parallelism`
//! - `POWERSCALE_E2E_CHECK`    `0` skips the naive Frobenius check
//! - `POWERSCALE_E2E_OUT`      output filename, default `BENCH_e2e.json`
//! - `POWERSCALE_E2E_GATE`     baseline filename; when set, exits non-zero
//!   if any algorithm's blocked-relative throughput regressed > 20%

use powerscale::prelude::*;
use std::time::Instant;

struct Measurement {
    algo: String,
    n: usize,
    secs: f64,
    gflops: f64,
    rel_err: f64,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_sizes() -> Vec<usize> {
    match std::env::var("POWERSCALE_E2E_SIZES") {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => vec![512, 1024, 2048],
    }
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
    let sizes = env_sizes();
    let reps = env_usize("POWERSCALE_E2E_REPS", 3);
    let threads = env_usize(
        "POWERSCALE_E2E_THREADS",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let check = std::env::var("POWERSCALE_E2E_CHECK").map_or(true, |v| v != "0");
    let pool = ThreadPool::new(threads);
    let kernel = powerscale::gemm::select_kernel();
    let mut results: Vec<Measurement> = Vec::new();

    for &n in &sizes {
        let mut gen = MatrixGen::new(42);
        let a = gen.paper_operand(n);
        let b = gen.paper_operand(n);
        let flops = 2.0 * (n as f64).powi(3);
        let reference = if check {
            Some(powerscale::gemm::naive::naive_mm(&a.view(), &b.view()).unwrap())
        } else {
            None
        };
        let err_of = |c: &Matrix| {
            reference.as_ref().map_or(0.0, |r| {
                powerscale::matrix::norms::rel_frobenius_error(&c.view(), &r.view())
            })
        };

        // Blocked DGEMM through the pool (the paper's tuned baseline).
        let mut out = Matrix::zeros(n, n);
        let secs = best_of(reps, || {
            let mut c = Matrix::zeros(n, n);
            powerscale::gemm::dgemm(
                1.0,
                &a.view(),
                &b.view(),
                0.0,
                &mut c.view_mut(),
                &GemmContext::parallel(&pool),
            )
            .unwrap();
            out = c;
        });
        results.push(Measurement {
            algo: "blocked".to_string(),
            n,
            secs,
            gflops: flops / secs / 1e9,
            rel_err: err_of(&out),
        });

        let classic = StrassenConfig::paper();
        let strassen_cfgs = [
            ("strassen_classic", classic),
            ("strassen_winograd", classic.winograd()),
        ];
        for (name, cfg) in strassen_cfgs {
            let mut out = Matrix::zeros(n, n);
            let secs = best_of(reps, || {
                out = powerscale::strassen::multiply(&a.view(), &b.view(), &cfg, Some(&pool), None)
                    .unwrap();
            });
            results.push(Measurement {
                algo: name.to_string(),
                n,
                secs,
                gflops: flops / secs / 1e9,
                rel_err: err_of(&out),
            });
        }

        let caps_cfg = CapsConfig::paper();
        let mut out = Matrix::zeros(n, n);
        let secs = best_of(reps, || {
            out = powerscale::caps::multiply(&a.view(), &b.view(), &caps_cfg, Some(&pool), None)
                .unwrap();
        });
        results.push(Measurement {
            algo: "caps".to_string(),
            n,
            secs,
            gflops: flops / secs / 1e9,
            rel_err: err_of(&out),
        });

        for m in results.iter().filter(|m| m.n == n) {
            println!(
                "e2e n={:5} {:18} {:8.3} s  {:7.2} GFLOP/s  rel_err {:.2e}",
                m.n, m.algo, m.secs, m.gflops, m.rel_err
            );
            assert!(
                m.rel_err < 1e-9,
                "{} at n={} drifted from naive: {}",
                m.algo,
                m.n,
                m.rel_err
            );
        }
    }

    // JSON snapshot (hand-formatted: the bench crate carries no JSON dep).
    let entries: Vec<String> = results
        .iter()
        .map(|m| {
            format!(
                "    {{\"algo\": \"{}\", \"n\": {}, \"secs\": {:.6}, \"gflops\": {:.3}, \
                 \"rel_err\": {:.3e}}}",
                m.algo, m.n, m.secs, m.gflops, m.rel_err
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"e2e\",\n  \"threads\": {threads},\n  \"kernel\": \"{}\",\n  \
         \"reps\": {reps},\n  \"results\": [\n{}\n  ]\n}}\n",
        kernel.name,
        entries.join(",\n")
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../artifacts");
    std::fs::create_dir_all(dir).expect("artifacts dir");
    let out_name =
        std::env::var("POWERSCALE_E2E_OUT").unwrap_or_else(|_| "BENCH_e2e.json".to_string());
    let path = format!("{dir}/{out_name}");
    std::fs::write(&path, &json).expect("write BENCH_e2e.json");
    println!("e2e results -> {path}");

    gate_against_baseline(&results, dir);
}

/// Optional CI regression gate: compares each algorithm's throughput
/// *relative to blocked DGEMM in the same run* against the committed
/// baseline, so the check is meaningful across machines of different
/// absolute speed. Fails (exit 1) on > 20% relative regression.
fn gate_against_baseline(results: &[Measurement], dir: &str) {
    let Ok(baseline_name) = std::env::var("POWERSCALE_E2E_GATE") else {
        return;
    };
    let baseline = std::fs::read_to_string(format!("{dir}/{baseline_name}"))
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_name}: {e}"));
    let mut failed = false;
    for m in results {
        let Some(base_gf) = baseline_gflops(&baseline, &m.algo, m.n) else {
            continue;
        };
        let Some(base_blocked) = baseline_gflops(&baseline, "blocked", m.n) else {
            continue;
        };
        let cur_blocked = results
            .iter()
            .find(|r| r.algo == "blocked" && r.n == m.n)
            .map(|r| r.gflops)
            .unwrap_or(m.gflops);
        let base_ratio = base_gf / base_blocked;
        let cur_ratio = m.gflops / cur_blocked;
        if cur_ratio < 0.8 * base_ratio {
            eprintln!(
                "REGRESSION: {} n={} blocked-relative throughput {:.3} vs baseline {:.3} \
                 (>20% drop)",
                m.algo, m.n, cur_ratio, base_ratio
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("e2e regression gate passed (within 20% of committed baseline)");
}

/// Extracts `gflops` for (`algo`, `n`) from a BENCH_e2e.json document.
/// Hand-rolled line scan — the bench crate carries no JSON dep, and the
/// emitter above writes one result object per line.
fn baseline_gflops(doc: &str, algo: &str, n: usize) -> Option<f64> {
    let tag = format!("\"algo\": \"{algo}\", \"n\": {n},");
    let line = doc.lines().find(|l| l.contains(&tag))?;
    let idx = line.find("\"gflops\": ")?;
    let rest = &line[idx + "\"gflops\": ".len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}
