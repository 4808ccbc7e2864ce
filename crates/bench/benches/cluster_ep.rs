//! Distributed-memory EP study bench (§VIII future work): prints the
//! CAPS-vs-SUMMA node-scaling study and benchmarks the cluster simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use powerscale::cluster::study::{run_study, DistAlgorithm};
use powerscale::cluster::{plans, presets};
use std::time::Duration;

fn print_artifact() {
    let study = run_study(8192, &[1, 4, 16]);
    println!("\n{}", study.to_markdown());
    for alg in [DistAlgorithm::Caps, DistAlgorithm::Summa] {
        let c = study.ep_curve(alg);
        println!(
            "  {:<6} {:?} (mean excess {:+.2})",
            alg.name(),
            c.overall(),
            c.mean_excess()
        );
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_artifact();
    let mut group = c.benchmark_group("cluster_sim");
    group.sample_size(10);
    for nodes in [4usize, 16] {
        let cluster = presets::e3_1225_cluster(nodes);
        group.bench_with_input(BenchmarkId::new("caps", nodes), &nodes, |b, _| {
            b.iter(|| {
                let g = plans::dist_caps_graph(4096, &cluster);
                cluster.simulate(&g).unwrap().makespan
            })
        });
        if let Some(g) = plans::summa_graph(4096, &cluster) {
            group.bench_with_input(BenchmarkId::new("summa", nodes), &nodes, |b, _| {
                b.iter(|| cluster.simulate(&g).unwrap().makespan)
            });
        }
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
