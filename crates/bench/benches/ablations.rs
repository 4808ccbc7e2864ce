//! Ablation benches for the design choices DESIGN.md calls out:
//! Strassen cutoff, CAPS cutoff depth, Strassen variant, and platform
//! memory bandwidth (the Eq. 9 lever).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use powerscale::caps::CapsConfig;
use powerscale::machine::{presets, simulate};
use powerscale::prelude::*;
use powerscale::strassen::StrassenConfig;
use std::time::Duration;

fn print_ablations() {
    let m = presets::e3_1225();
    let tm = m.traffic_model();

    println!("\n[ablation] Strassen leaf cutoff (n=1024, 4 cores, simulated):");
    for cutoff in [16usize, 32, 64, 128] {
        let cfg = StrassenConfig {
            cutoff,
            ..Default::default()
        };
        let g = powerscale::strassen::strassen_graph_with(1024, &cfg, &tm);
        let s = simulate(&g, &m, 4);
        println!(
            "  cutoff={cutoff:<4} makespan {:>8.2} ms  pkg {:>6.2} W",
            s.makespan * 1e3,
            s.energy.pkg_avg_watts(s.makespan)
        );
    }

    println!("\n[ablation] CAPS BFS/DFS cutoff depth (n=2048, 4 cores):");
    for depth in 0..=5u32 {
        let cfg = CapsConfig {
            cutoff_depth: depth,
            ..CapsConfig::paper()
        };
        let g = powerscale::caps::caps_graph_with(2048, &cfg, &tm);
        let s = simulate(&g, &m, 4);
        println!(
            "  depth={depth} makespan {:>8.2} ms  pkg {:>6.2} W  comm {:>6} MB",
            s.makespan * 1e3,
            s.energy.pkg_avg_watts(s.makespan),
            g.total_comm_bytes() / 1_000_000
        );
    }

    println!("\n[ablation] Classic vs Winograd flops (n=4096, cutoff 64):");
    let classic = StrassenConfig::paper();
    let winograd = classic.winograd();
    println!(
        "  classic  {} flops | winograd {} flops",
        powerscale::strassen::cost::total_flops(4096, &classic),
        powerscale::strassen::cost::total_flops(4096, &winograd)
    );

    println!("\n[ablation] halved DRAM bandwidth (n=1024, 4 cores):");
    let half = presets::e3_1225_half_bandwidth();
    for (name, machine) in [("full-bw", &m), ("half-bw", &half)] {
        let bg = powerscale::gemm::plan::blocked_gemm_graph_with(
            1024,
            &BlockingParams::for_caches(&machine.caches),
            &machine.traffic_model(),
        );
        let sg = powerscale::strassen::strassen_graph_with(
            1024,
            &StrassenConfig::paper(),
            &machine.traffic_model(),
        );
        let tb = simulate(&bg, machine, 4).makespan;
        let ts = simulate(&sg, machine, 4).makespan;
        println!(
            "  {name}: blocked {:.2} ms, strassen {:.2} ms, ratio {:.2}",
            tb * 1e3,
            ts * 1e3,
            ts / tb
        );
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_ablations();
    let m = presets::e3_1225();
    let tm = m.traffic_model();
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    for depth in [0u32, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("caps_cutoff_depth", depth),
            &depth,
            |b, &depth| {
                let cfg = CapsConfig {
                    cutoff_depth: depth,
                    ..CapsConfig::paper()
                };
                b.iter(|| {
                    let g = powerscale::caps::caps_graph_with(1024, &cfg, &tm);
                    simulate(&g, &m, 4).makespan
                })
            },
        );
    }
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
