//! Real (non-simulated) execution with full instrumentation.
//!
//! Runs the three algorithms on the host with the work-stealing pool,
//! collecting the PAPI-style event profile and the pool's scheduling
//! statistics — the measurement path a port to real RAPL hardware would
//! use. Problem sizes are kept modest so this completes quickly anywhere.
//! Strassen and CAPS run the paper's configuration (cutoff 64), so their
//! profiles show the recursion the machine model prices.
//!
//! ```text
//! cargo run --release -p powerscale-examples --bin real_execution -- [n] [threads]
//! ```

use powerscale::counters::{Event, EventSet};
use powerscale::prelude::*;
use powerscale::rapl::sysfs::SysfsReader;
use powerscale::rapl::EnergyReader;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(256);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    println!("== real execution: n = {n}, {workers} pool workers ==\n");

    let mut gen = MatrixGen::new(99);
    let a = gen.paper_operand(n);
    let b = gen.paper_operand(n);
    let pool = ThreadPool::new(workers);

    // Real RAPL, if this host exposes it (it usually will not in CI).
    let rapl = SysfsReader::system();
    let unreadable = rapl.unreadable_domains();
    if rapl.is_available() {
        println!("real RAPL domains found: {:?}", rapl.domains());
    } else if unreadable.is_empty() {
        println!("no RAPL sysfs tree on this host (expected in containers);");
    }
    if !unreadable.is_empty() {
        println!(
            "RAPL domains present but unreadable: {unreadable:?} (energy_uj is \
             root-only since the CVE-2020-8694 fix);"
        );
    }
    if !rapl.is_available() {
        println!("event profiles below are what would parameterise the machine model.");
    }
    println!();

    let reference = powerscale::gemm::naive::naive_mm(&a.view(), &b.view()).expect("naive");

    for name in ["blocked", "strassen", "caps"] {
        let mut set = EventSet::with_all_events();
        set.start().expect("start counters");
        let t0 = std::time::Instant::now();
        let result = match name {
            "blocked" => {
                let mut c = powerscale::matrix::Matrix::zeros(n, n);
                let ctx = GemmContext {
                    pool: Some(&pool),
                    events: Some(&set),
                    ..GemmContext::default()
                };
                powerscale::gemm::dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &ctx)
                    .expect("dgemm");
                c
            }
            "strassen" => powerscale::strassen::multiply(
                &a.view(),
                &b.view(),
                &StrassenConfig::paper(),
                Some(&pool),
                Some(&set),
            )
            .expect("strassen"),
            _ => powerscale::caps::multiply(
                &a.view(),
                &b.view(),
                &CapsConfig::paper(),
                Some(&pool),
                Some(&set),
            )
            .expect("caps"),
        };
        let wall = t0.elapsed();
        let profile = set.stop().expect("stop counters");
        let err = powerscale::matrix::norms::rel_frobenius_error(&result.view(), &reference.view());

        println!("--- {name} ---");
        println!("  wall time        {wall:?}   (rel err {err:.2e})");
        println!("  flops            {}", profile.total_flops());
        println!(
            "  bytes moved      {} (arith intensity {:.2} flop/B)",
            profile.total_bytes(),
            profile.arithmetic_intensity().unwrap_or(0.0)
        );
        println!(
            "  tasks spawned    {}   comm footprint {} B",
            profile.get(Event::TasksSpawned),
            profile.get(Event::CommBytes)
        );
        println!(
            "  kernel calls     {}   recursion levels {}",
            profile.get(Event::KernelCalls),
            profile.get(Event::RecursionLevels)
        );
        println!();
    }

    let stats = pool.stats();
    println!("pool statistics over all runs:");
    println!("  tasks executed   {}", stats.total_executed());
    println!("  steals           {}", stats.total_stolen());
    println!(
        "  migration frac   {:.1}%  (tasks that moved cores — the paper's communication)",
        stats.migration_fraction() * 100.0
    );
}
