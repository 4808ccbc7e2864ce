//! Quickstart: multiply a pair of matrices with all three of the paper's
//! algorithms, verify the results agree, and read each algorithm's
//! energy-performance profile off the simulated E3-1225 machine.
//!
//! ```text
//! cargo run --release -p powerscale-examples --bin quickstart
//! ```

use powerscale::harness::DtypeTier;
use powerscale::prelude::*;

fn main() {
    let n = 256;
    println!("== powerscale quickstart: {n}x{n} double-precision multiply ==\n");

    // 1. Deterministic operands (the paper uses random matrices; ours are
    //    seeded so every run is identical).
    let mut gen = MatrixGen::new(2015);
    let a = gen.paper_operand(n);
    let b = gen.paper_operand(n);

    // 2. Real computation, three ways, on a 4-worker pool, in the paper's
    //    configuration (cutoff 64: a real recursion at this size).
    let pool = ThreadPool::new(4);
    let t0 = std::time::Instant::now();
    let blocked = powerscale::gemm::multiply(&a.view(), &b.view()).expect("blocked gemm");
    let t_blocked = t0.elapsed();

    let t0 = std::time::Instant::now();
    let strassen = powerscale::strassen::multiply(
        &a.view(),
        &b.view(),
        &StrassenConfig::paper(),
        Some(&pool),
        None,
    )
    .expect("strassen");
    let t_strassen = t0.elapsed();

    let t0 = std::time::Instant::now();
    let caps = powerscale::caps::multiply(
        &a.view(),
        &b.view(),
        &CapsConfig::paper(),
        Some(&pool),
        None,
    )
    .expect("caps");
    let t_caps = t0.elapsed();

    let err_s = powerscale::matrix::norms::rel_frobenius_error(&strassen.view(), &blocked.view());
    let err_c = powerscale::matrix::norms::rel_frobenius_error(&caps.view(), &blocked.view());
    println!("host wall-clock (not the experiment substrate, just proof of life):");
    println!("  blocked   {t_blocked:>12.3?}");
    println!("  strassen  {t_strassen:>12.3?}  (rel err vs blocked: {err_s:.2e})");
    println!("  caps      {t_caps:>12.3?}  (rel err vs blocked: {err_c:.2e})");
    assert!(err_s < 1e-10 && err_c < 1e-10, "algorithms disagree!");

    // 3. The paper's question: how do time and power trade off as threads
    //    scale? Ask the simulated Haswell.
    println!("\nsimulated E3-1225 (the paper's testbed), n = 512:");
    println!(
        "  {:<10} {:>4} {:>10} {:>9} {:>8}",
        "algorithm", "p", "time (ms)", "pkg (W)", "EP"
    );
    let h = Harness::default();
    for algorithm in [Algorithm::Blocked, Algorithm::Strassen, Algorithm::Caps] {
        for threads in [1usize, 4] {
            let r = h.run(RunSpec::new(algorithm, 512, threads));
            println!(
                "  {:<10} {:>4} {:>10.2} {:>9.2} {:>8.1}",
                algorithm.paper_name(),
                threads,
                r.t_seconds * 1e3,
                r.pkg_watts,
                r.ep()
            );
        }
    }

    // 4. Equation 5/6 verdicts.
    println!("\nEP scaling verdicts at n = 512 (Eq. 5/6 vs the linear threshold):");
    let results = h.run_matrix(&[512], &[1, 2, 3, 4], DtypeTier::F64);
    for algorithm in [Algorithm::Blocked, Algorithm::Strassen, Algorithm::Caps] {
        let curve = powerscale::harness::figures::ep_curve(&results, algorithm, 512, &[1, 2, 3, 4]);
        println!(
            "  {:<10} {:?} (mean excess over linear {:+.2})",
            algorithm.paper_name(),
            curve.overall(),
            curve.mean_excess()
        );
    }
    println!("\nThe paper's finding in one line: the blocked kernel is fastest but its");
    println!("power scales superlinearly; Strassen and CAPS trade raw speed for ideal");
    println!("energy-performance scaling, with CAPS the better of the two.");
}
