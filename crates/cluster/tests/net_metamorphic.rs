//! Metamorphic properties of the simulated message-passing layer, driven
//! through the distributed executor: relations that must hold between
//! *pairs* of runs when the topology is perturbed.

use powerscale_cluster::presets::e3_1225_net;
use powerscale_cluster::{dist_caps_multiply, DistCapsConfig, DistError};
use powerscale_machine::net::{LinkModel, NetConfig, NetError};
use powerscale_matrix::{Matrix, MatrixGen};

fn operands(n: usize) -> (Matrix, Matrix) {
    let mut gen = MatrixGen::new(42);
    (gen.paper_operand(n), gen.paper_operand(n))
}

fn doubled_bandwidth(net: &NetConfig) -> NetConfig {
    let double = |l: &LinkModel| LinkModel {
        bw_bytes_per_s: l.bw_bytes_per_s * 2.0,
        ..*l
    };
    NetConfig {
        scale_up: double(&net.scale_up),
        scale_out: double(&net.scale_out),
        ..net.clone()
    }
}

/// Doubling every link bandwidth never increases the modeled makespan —
/// at any compute speed, including zero compute.
#[test]
fn doubling_bandwidth_never_increases_makespan() {
    let (a, b) = operands(256);
    let cfg = DistCapsConfig::paper();
    for p in [2usize, 4, 7] {
        let net = e3_1225_net(p);
        let slow = dist_caps_multiply(&a, &b, &cfg, &net).unwrap();
        let fast = dist_caps_multiply(&a, &b, &cfg, &doubled_bandwidth(&net)).unwrap();
        // Identical traffic (the schedule is topology-independent) …
        assert_eq!(slow.report.matrix, fast.report.matrix, "P={p}");
        // … and a makespan that can only improve.
        for flops_per_s in [1e9, 1e10, 1e12] {
            let ts = slow.makespan_s(flops_per_s);
            let tf = fast.makespan_s(flops_per_s);
            assert!(tf <= ts, "P={p} at {flops_per_s} flops/s: {tf} > {ts}");
        }
        let comm_only_slow = slow.report.makespan(&vec![0.0; p]);
        let comm_only_fast = fast.report.makespan(&vec![0.0; p]);
        assert!(comm_only_fast <= comm_only_slow, "P={p} comm-only");
    }
}

/// Adding nodes never increases any node's peak memory: more ranks means
/// smaller panels and smaller (or equal) sub-problems per rank.
#[test]
fn adding_a_node_never_increases_peak_memory() {
    let (a, b) = operands(256);
    let cfg = DistCapsConfig::paper();
    let mut prev = u64::MAX;
    for p in [1usize, 2, 4, 7, 14, 49] {
        let out = dist_caps_multiply(&a, &b, &cfg, &e3_1225_net(p)).unwrap();
        let peak = out.report.max_peak_bytes();
        assert!(
            peak <= prev,
            "P={p}: peak {peak} exceeds smaller cluster's {prev}"
        );
        prev = peak;
    }
}

/// A zero-bandwidth link is a typed configuration error, surfaced before
/// any rank spawns — never a hang.
#[test]
fn zero_bandwidth_is_typed_error_not_hang() {
    let (a, b) = operands(64);
    let mut net = e3_1225_net(4);
    net.scale_out.bw_bytes_per_s = 0.0;
    match dist_caps_multiply(&a, &b, &DistCapsConfig::paper(), &net) {
        Err(DistError::Net(NetError::ZeroBandwidth { link })) => {
            assert_eq!(link, "scale-out");
        }
        other => panic!("expected ZeroBandwidth, got {other:?}"),
    }
    // Same for a non-finite latency on the intra-chassis link.
    let mut net = e3_1225_net(4);
    net.scale_up.latency_s = f64::NAN;
    assert!(matches!(
        dist_caps_multiply(&a, &b, &DistCapsConfig::paper(), &net),
        Err(DistError::Net(NetError::BadLatency { link: "scale-up" }))
    ));
}
