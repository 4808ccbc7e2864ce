//! Explore the analytic equations: the Strassen/blocked crossover (Eq. 9)
//! and the CAPS communication bound (Eq. 8) across platform designs.
//!
//! The paper could not reach the crossover point on its 4 GB testbed
//! (§VI-B); this example shows *why*, by sweeping compute-to-bandwidth
//! ratios, and shows where CAPS's communication advantage lands for a
//! range of processor counts and memory sizes. Its last section measures
//! the host it runs on: the executed cutoff, one-thread blocked DGEMM
//! against executed-default Strassen, and the one-step bound 272·y/z.
//!
//! ```text
//! cargo run --release -p powerscale-examples --bin crossover_explorer -- [max_n]
//! ```

use powerscale::caps::comm;
use powerscale::prelude::*;
use powerscale::strassen::cost::PAPER_CUTOFF;
use std::time::Instant;

fn main() {
    println!("== Equation 9: Strassen/blocked crossover dimension n = 480·y/z ==\n");
    println!(
        "{:<44} {:>12} {:>11} {:>10}",
        "platform", "y (Mflop/s)", "z (MB/s)", "crossover"
    );
    // (name, achieved Mflop/s, MB/s)
    let platforms = [
        (
            "paper's E3-1225 (23 Gflop/s, DDR3-1600)",
            23_040.0,
            12_800.0,
        ),
        ("same CPU, dual-channel memory", 23_040.0, 25_600.0),
        ("same CPU, half-bandwidth DIMM", 23_040.0, 6_400.0),
        ("older core (5 Gflop/s), same memory", 5_000.0, 12_800.0),
        ("big node (200 Gflop/s, 100 GB/s)", 200_000.0, 100_000.0),
    ];
    for (name, y, z) in platforms {
        println!(
            "{:<44} {:>12.0} {:>11.0} {:>10.0}",
            name,
            y,
            z,
            crossover_dimension(y, z)
        );
    }
    println!("\nThe paper's machine needs n ≈ 864 by this estimate — but its blocked");
    println!("kernel is so efficient relative to the *unpacked* Strassen leaves that");
    println!("Strassen still loses at 4096 (Table II), and 4 GB of DRAM forbids going");
    println!("bigger. Compute-rich, bandwidth-poor platforms push the crossover out.\n");

    println!("== Equation 8: CAPS communication (words/processor), n = 8192 ==\n");
    println!(
        "{:<8} {:>14} {:>16} {:>16} {:>12}",
        "procs", "memory (words)", "CAPS (Eq. 8)", "classic 2D", "regime"
    );
    let n = 8192.0;
    for p in [4.0, 16.0, 64.0, 256.0] {
        for m in [1e5, 1e7, 1e9] {
            let caps_words = comm::caps_comm_words(n, p, m);
            let classic = comm::classic_2d_comm_words(n, p);
            println!(
                "{:<8} {:>14.0e} {:>16.3e} {:>16.3e} {:>12}",
                p,
                m,
                caps_words,
                classic,
                match comm::regime(n, p, m) {
                    comm::CommRegime::MemoryLimited => "mem-limited",
                    comm::CommRegime::BandwidthBound => "bw-bound",
                }
            );
        }
    }
    println!("\nMore local memory buys BFS steps (fewer, bigger messages) until the");
    println!("bandwidth-bound floor n²/p^(2/ω₀) — the 'communication avoiding' part.");

    // The other ceiling the paper hit: memory. Derive §VI-A's 4096 limit.
    println!("\n== memory ceiling (paper §VI-A) ==\n");
    let cfg = StrassenConfig::paper();
    for (label, bytes) in [
        ("paper's 4 GB DIMM (~3.5 GB usable)", 3_500_000_000u64),
        ("16 GB node", 15_000_000_000),
        ("64 GB node", 60_000_000_000),
    ] {
        let ceiling = powerscale::strassen::memory::max_dimension_within(bytes, &cfg, 4);
        let need = powerscale::strassen::memory::total_required_bytes(ceiling, &cfg, 4);
        println!(
            "{label:<38} largest parallel Strassen: n = {ceiling} ({:.2} GB resident)",
            need as f64 / 1e9
        );
    }
    println!("…which derives the paper's observed 4096 ceiling from the allocator model.");

    // Tie Eq. 9 back to the simulated machine preset.
    let m = e3_1225();
    let y = m.compute.achieved_flops(KernelClass::PackedGemm) / 1e6;
    let z = m.dram_bw_bytes_per_s / 1e6;
    println!(
        "\nsimulated preset check: y = {:.0} Mflop/s, z = {:.0} MB/s → crossover n ≈ {:.0}",
        y,
        z,
        crossover_dimension(y, z)
    );

    // The sweep's largest size: 2048 unless given (4096 needs ~1.3 GB).
    let max_n = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2048);
    this_host(max_n);
}

/// The executed cutoff and the one-step bound on the machine running this
/// example, then one-thread blocked DGEMM against executed-default
/// Strassen for n from 512 up to `max_n`. The benchmark's `host.*` and
/// `matrix.add_gbps` rows report Eq. 9 with `z` = STREAM copy and the
/// same in-LLC add probe as below.
fn this_host(max_n: usize) {
    println!("\n== this host, one thread ==\n");
    let kernel = powerscale::gemm::select_kernel();
    let mc = BlockingParams::autotuned_for(kernel).mc;
    let cfg = StrassenConfig::default();
    println!(
        "kernel {} (mc = {mc}): paper cutoff {PAPER_CUTOFF}, executed cutoff {}",
        kernel.name, cfg.cutoff
    );

    println!(
        "\n{:>6} {:>16} {:>18} {:>10}",
        "n", "blocked GF/s", "Strassen GF/s", "S / B time"
    );
    let mut y = None;
    let mut observed = None;
    for (n, reps) in [(512usize, 5usize), (1024, 3), (2048, 1), (4096, 1)] {
        if n > max_n {
            break;
        }
        let mut gen = MatrixGen::new(n as u64);
        let (a, b) = (gen.paper_operand(n), gen.paper_operand(n));
        let tb = blocked_secs(&a, &b, reps);
        let ts = median_secs(reps, || {
            std::hint::black_box(
                powerscale::strassen::multiply(&a.view(), &b.view(), &cfg, None, None)
                    .expect("square operands"),
            );
        });
        let flops = 2.0 * (n as f64).powi(3);
        println!(
            "{n:>6} {:>16.1} {:>18.1} {:>10.3}",
            flops / tb / 1e9,
            flops / ts / 1e9,
            ts / tb
        );
        y.get_or_insert(flops / tb / 1e6);
        if ts < tb && observed.is_none() {
            observed = Some(n);
        }
    }
    match observed {
        Some(n) => println!("\nobserved crossover: Strassen first ahead at n = {n}"),
        None => println!("\nobserved crossover: none at the sizes run"),
    }
    println!("(at n ≤ the executed cutoff \"Strassen\" is one fused leaf: a leaf finding)");

    // One step pays above 272·y/z (DESIGN §8), y the leaf's rate (the
    // blocked path's at 512) and z the recursion's in-LLC quadrant add.
    if let Some(y) = y {
        let z = llc_add_mbs();
        println!(
            "\ny = {y:.0} Mflop/s, z = {z:.0} MB/s (in-LLC add): one step pays above \
             272·y/z = {:.0}; Eq. 9 480·y/z = {:.0}",
            272.0 * y / z,
            crossover_dimension(y, z)
        );
    }
}

/// Median wall seconds of `reps` calls of `f`, after one warm-up call.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[reps / 2]
}

/// Median seconds of one-thread blocked DGEMM `a · b`.
fn blocked_secs(a: &Matrix, b: &Matrix, reps: usize) -> f64 {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    let ctx = GemmContext::sequential();
    median_secs(reps, || {
        powerscale::gemm::dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &ctx)
            .expect("square operands");
    })
}

/// `C = A + B` over 1024² operands (24 MiB touched, LLC-resident on a
/// large-LLC host) in MB/s: the recursion's quadrant add.
fn llc_add_mbs() -> f64 {
    const H: usize = 1024;
    let mut gen = MatrixGen::new(1);
    let (a, b) = (gen.paper_operand(H), gen.paper_operand(H));
    let mut c = Matrix::zeros(H, H);
    let secs = median_secs(10, || {
        powerscale::matrix::ops::add_into(&a.view(), &b.view(), &mut c.view_mut())
            .expect("equal shapes");
    });
    (3 * 8 * H * H) as f64 / secs / 1e6
}
