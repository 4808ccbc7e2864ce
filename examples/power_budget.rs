//! Power-budgeted algorithm selection — the paper's motivating use case.
//!
//! §VI-D: "for parallel systems whose peak power is relatively limited by
//! the local facilities, there is a significant probability that the peak
//! parallel performance of OpenBLAS cannot be realized due to a lack of
//! available power." This example makes that concrete: given a per-socket
//! power cap, it sweeps the execution matrix on the simulated machine and
//! picks, per problem size, the fastest `(algorithm, threads)` whose
//! package power fits the budget.
//!
//! ```text
//! cargo run --release -p powerscale-examples --bin power_budget -- [watts]
//! ```

use powerscale::harness::DtypeTier;
use powerscale::prelude::*;

fn main() {
    let budget_w: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30.0);
    println!("== algorithm selection under a {budget_w:.0} W package budget ==\n");

    let h = Harness::default();
    let sizes = [512usize, 1024, 2048, 4096];
    let threads = [1usize, 2, 3, 4];
    let results = h.run_matrix(&sizes, &threads, DtypeTier::F64);

    println!(
        "{:<6} | {:<28} | {:>10} | {:>8} | {:>9}",
        "size", "winner within budget", "time (ms)", "pkg (W)", "Gflop/s"
    );
    println!("{}", "-".repeat(75));
    for &n in &sizes {
        let mut best: Option<&RunResult> = None;
        let mut unconstrained: Option<&RunResult> = None;
        for r in results.iter().filter(|r| r.spec.n == n) {
            if unconstrained.is_none_or(|u| r.t_seconds < u.t_seconds) {
                unconstrained = Some(r);
            }
            if r.pkg_watts <= budget_w && best.is_none_or(|b| r.t_seconds < b.t_seconds) {
                best = Some(r);
            }
        }
        match best {
            Some(r) => {
                println!(
                    "{:<6} | {:<28} | {:>10.2} | {:>8.2} | {:>9.2}",
                    n,
                    format!(
                        "{} @ {} threads",
                        r.spec.algorithm.paper_name(),
                        r.spec.threads
                    ),
                    r.t_seconds * 1e3,
                    r.pkg_watts,
                    r.gflops()
                );
            }
            None => println!("{n:<6} | nothing fits the budget!"),
        }
        if let (Some(b), Some(u)) = (best, unconstrained) {
            if b.spec != u.spec {
                println!(
                    "{:<6} |   (unconstrained winner would be {} @ {} threads: {:.2} ms at {:.1} W)",
                    "",
                    u.spec.algorithm.paper_name(),
                    u.spec.threads,
                    u.t_seconds * 1e3,
                    u.pkg_watts
                );
            }
        }
    }

    println!("\nLower the budget (try 25 or 22 W) and the blocked kernel loses its");
    println!("thread headroom first — exactly the regime where the paper argues the");
    println!("Strassen-derived algorithms earn their keep.");
}
