//! **Equation 8** — the CAPS communication bound. Prints an analytic
//! sweep plus the measured (task-graph) communication of our CAPS vs
//! Strassen plans, then benchmarks both computations.

use criterion::{criterion_group, criterion_main, Criterion};
use powerscale::caps::{comm, CapsConfig};
use powerscale::strassen::StrassenConfig;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    println!("\nEq. 8 sweep (n=8192):");
    for p in [4.0, 64.0, 1024.0] {
        for m in [1e5, 1e8] {
            println!(
                "  p={p:<6} M={m:.0e}: CAPS {:.3e} words vs classic-2D {:.3e}",
                comm::caps_comm_words(8192.0, p, m),
                comm::classic_2d_comm_words(8192.0, p)
            );
        }
    }
    println!("\nplanned communication volume (bytes) on the simulated machine:");
    let machine = powerscale::machine::presets::e3_1225();
    let tm = machine.traffic_model();
    for n in [512usize, 1024, 2048, 4096] {
        let s = powerscale::strassen::strassen_graph_with(n, &StrassenConfig::paper(), &tm)
            .total_comm_bytes();
        let cp = powerscale::caps::caps_graph_with(n, &CapsConfig::paper(), &tm).total_comm_bytes();
        println!(
            "  n={n:<5} strassen {s:>12}  caps {cp:>12}  (caps/strassen {:.2})",
            cp as f64 / s as f64
        );
    }
    println!();

    let mut group = c.benchmark_group("eq8");
    group.bench_function("analytic_bound", |b| {
        b.iter(|| comm::caps_comm_words(8192.0, 64.0, 1e7))
    });
    group.sample_size(10);
    group.bench_function("caps_graph_2048", |b| {
        b.iter(|| powerscale::caps::caps_graph_with(2048, &CapsConfig::paper(), &tm))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900))
        .sample_size(10);
    targets = bench
}
criterion_main!(benches);
