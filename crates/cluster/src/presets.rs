//! Cluster presets.

use crate::config::ClusterConfig;
use powerscale_machine::net::{LinkModel, NetConfig};
use powerscale_machine::Fabric;

/// `nodes` × the paper's E3-1225 machine on a QDR-InfiniBand-class fabric
/// (2015-era commodity HPC: ~4 GB/s per link, ~1.5 µs latency), with a
/// non-blocking switch whose bisection scales with the node count.
///
/// Network power constants follow the usual rule of thumb for the era:
/// a few watts static per NIC, ~0.5 nJ per byte end-to-end dynamic.
pub fn e3_1225_cluster(nodes: usize) -> ClusterConfig {
    ClusterConfig {
        name: format!("{nodes}x E3-1225, QDR IB fabric"),
        nodes,
        node: powerscale_machine::presets::e3_1225(),
        fabric: Fabric {
            link_bw_bytes_per_s: 4.0e9,
            net_bw_bytes_per_s: 4.0e9 * (nodes as f64 / 2.0).max(1.0),
            link_latency_s: 1.5e-6,
            nic_idle_w: 4.0,
            nic_joule_per_byte: 0.5e-9,
            switch_w: 3.0 * nodes as f64,
        },
    }
}

/// A bandwidth-starved variant (gigabit-Ethernet-class fabric): used by
/// the ablation study to show how fabric quality moves the CAPS/SUMMA
/// comparison.
pub fn e3_1225_cluster_slow_fabric(nodes: usize) -> ClusterConfig {
    let mut c = e3_1225_cluster(nodes);
    c.name = format!("{nodes}x E3-1225, GbE fabric");
    c.fabric.link_bw_bytes_per_s = 0.125e9;
    c.fabric.net_bw_bytes_per_s = 0.125e9 * (nodes as f64 / 2.0).max(1.0);
    c.fabric.link_latency_s = 50.0e-6;
    c
}

/// The message-passing topology matching [`e3_1225_cluster`]: chassis of 4
/// nodes on a scale-up backplane (~16 GB/s, sub-µs), chassis joined by the
/// QDR-class scale-out fabric (~4 GB/s, 1.5 µs) with the usual efficiency
/// deratings — the SNIPPETS.md Snippet 1 config shape.
pub fn e3_1225_net(nodes: usize) -> NetConfig {
    NetConfig {
        nodes,
        group_size: 4.min(nodes.max(1)),
        scale_up: LinkModel {
            bw_bytes_per_s: 16.0e9,
            latency_s: 0.5e-6,
            efficiency: 0.92,
        },
        scale_out: LinkModel {
            bw_bytes_per_s: 4.0e9,
            latency_s: 1.5e-6,
            efficiency: 0.85,
        },
        recv_timeout_s: 120.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_scales_with_nodes() {
        let small = e3_1225_cluster(2);
        let big = e3_1225_cluster(16);
        assert!(big.fabric.net_bw_bytes_per_s > small.fabric.net_bw_bytes_per_s);
        assert_eq!(big.node, small.node);
    }

    #[test]
    fn slow_fabric_is_slower() {
        let fast = e3_1225_cluster(4).fabric;
        let slow = e3_1225_cluster_slow_fabric(4).fabric;
        assert!(slow.link_bw_bytes_per_s < fast.link_bw_bytes_per_s / 10.0);
        assert!(slow.link_latency_s > fast.link_latency_s);
    }
}
