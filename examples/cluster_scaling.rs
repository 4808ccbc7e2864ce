//! The paper's §VIII distributed-memory study: CAPS vs 2D SUMMA across
//! node counts on a simulated InfiniBand cluster of E3-1225 nodes, with
//! network power in the energy accounting.
//!
//! ```text
//! cargo run --release -p powerscale-examples --bin cluster_scaling -- [n]
//! ```

use powerscale::cluster::study::{run_study, DistAlgorithm};
use powerscale::cluster::{plans, presets};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8192);
    println!("== distributed-memory study, n = {n} (the sizes §VIII wanted) ==\n");

    let study = run_study(n, &[1, 4, 16]);
    println!("{}", study.to_markdown());

    for alg in [DistAlgorithm::Caps, DistAlgorithm::Summa] {
        let curve = study.ep_curve(alg);
        println!(
            "{:<6} EP scaling across nodes: {:?} (mean excess over linear {:+.2})",
            alg.name(),
            curve.overall(),
            curve.mean_excess()
        );
    }

    // The paper's §VI-D argument at cluster scale: under a facility power
    // cap, the fastest algorithm is the fastest *that fits the cap*.
    let cap_w = 500.0;
    println!("\nfastest configuration under a {cap_w:.0} W facility cap:");
    for alg in [DistAlgorithm::Caps, DistAlgorithm::Summa] {
        let best = study
            .runs
            .iter()
            .filter(|r| r.algorithm == alg && r.watts <= cap_w)
            .min_by(|a, b| a.t_seconds.partial_cmp(&b.t_seconds).unwrap());
        match best {
            Some(r) => println!(
                "  {:<6} {} nodes: {:.3} s at {:.0} W  ({:.1} kJ)",
                alg.name(),
                r.nodes,
                r.t_seconds,
                r.watts,
                r.watts * r.t_seconds / 1e3
            ),
            None => println!("  {:<6} nothing fits the cap", alg.name()),
        }
    }

    // Fabric ablation: the GbE counterfactual.
    println!("\nfabric ablation at 4 nodes (n = {n}):");
    for (label, cluster) in [
        ("QDR InfiniBand", presets::e3_1225_cluster(4)),
        ("gigabit Ethernet", presets::e3_1225_cluster_slow_fabric(4)),
    ] {
        let simulate = |g| cluster.simulate(&g).expect("preset cluster is valid");
        let caps = simulate(plans::dist_caps_graph(n, &cluster));
        let summa = simulate(plans::summa_graph(n, &cluster).expect("4 nodes = 2x2"));
        println!(
            "  {label:<18} CAPS {:.3} s / {:.0} W   SUMMA {:.3} s / {:.0} W   (SUMMA/CAPS time {:.2})",
            caps.makespan,
            caps.energy.total_avg_watts(caps.makespan),
            summa.makespan,
            summa.energy.total_avg_watts(summa.makespan),
            summa.makespan / caps.makespan
        );
    }
    // The reading's numbers come off the study's own rows: the power CAPS
    // saves per node count, and each algorithm's fabric-traffic growth
    // exponent from 4 to 16 nodes.
    let cell = |alg: DistAlgorithm, nodes: usize| {
        study
            .runs
            .iter()
            .find(|r| r.algorithm == alg && r.nodes == nodes)
    };
    let (caps, summa) = (DistAlgorithm::Caps, DistAlgorithm::Summa);
    let less = |nodes| Some(100.0 * (1.0 - cell(caps, nodes)?.watts / cell(summa, nodes)?.watts));
    let growth =
        |alg| Some((cell(alg, 16)?.net_bytes as f64 / cell(alg, 4)?.net_bytes as f64).log(4.0));
    println!("\nReading: at small node counts SUMMA's tuned local DGEMM wins raw time and");
    println!("energy-to-solution — consistent with the SMP paper, where blocked DGEMM also");
    println!("beat the Strassen family outright. What CAPS buys, there and here, is POWER");
    println!("headroom, and its EP curve sits far closer to the linear threshold.");
    if let (Some(l4), Some(l16), Some(gc), Some(gs)) =
        (less(4), less(16), growth(caps), growth(summa))
    {
        println!(
            "Its nodes draw {l4:.0}% (4 nodes) and {l16:.0}% (16 nodes) less than SUMMA's, and"
        );
        println!(
            "from 4 to 16 nodes its fabric traffic grows as p^{gc:.2} against SUMMA's p^{gs:.2}."
        );
    }
    println!("Under a facility power cap, CAPS keeps scaling out after SUMMA has to stop —");
    println!("which is precisely the determination the paper's model exists to make.");
}
