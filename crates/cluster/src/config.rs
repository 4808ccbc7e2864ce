//! Cluster description.

use powerscale_machine::{simulate_nodes, ConfigError, Fabric, MachineConfig, Schedule, TaskGraph};

/// A homogeneous cluster: `nodes` copies of one SMP joined by a fabric.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ClusterConfig {
    /// Human-readable name.
    pub name: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Per-node machine (the paper insists on the same microarchitecture
    /// as the SMP study for fair comparison).
    pub node: MachineConfig,
    /// The interconnect and its power.
    pub fabric: Fabric,
}

impl ClusterConfig {
    /// Simulates `graph` on this cluster: every node's cores, the fabric,
    /// and the network energy plane ([`simulate_nodes`]).
    pub fn simulate(&self, graph: &TaskGraph) -> Result<Schedule, ConfigError> {
        simulate_nodes(graph, &self.node, self.nodes, &self.fabric)
    }

    /// Validates the node count, the node machine and the fabric.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        self.node.validate()?;
        self.fabric.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::ClusterConfig;
    use crate::presets::e3_1225_cluster;
    use powerscale_machine::ConfigError;

    impl ClusterConfig {
        /// Static power of the whole cluster when idle (nodes idle +
        /// network).
        fn idle_watts(&self) -> f64 {
            let node_idle = self.node.power.pkg_base_w
                + self.node.power.dram_static_w
                + self.node.cores as f64 * self.node.power.core_idle_w;
            self.nodes as f64 * (node_idle + self.fabric.nic_idle_w) + self.fabric.switch_w
        }
    }

    #[test]
    fn derived_quantities() {
        let c = e3_1225_cluster(4);
        c.validate().unwrap();
        // Idle floor: 4 nodes of ~14 W + NICs + switch.
        let idle = c.idle_watts();
        assert!(idle > 40.0 && idle < 120.0, "idle {idle}");
    }

    #[test]
    fn zero_nodes_invalid() {
        let mut c = e3_1225_cluster(1);
        c.nodes = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoNodes));
    }

    #[test]
    fn node_and_fabric_rates_validated() {
        let mut c = e3_1225_cluster(2);
        c.node.comm_bw_bytes_per_s = f64::NAN;
        assert!(matches!(c.validate(), Err(ConfigError::CommBandwidth(_))));
        let mut c = e3_1225_cluster(2);
        c.fabric.link_latency_s = -1.0;
        assert_eq!(c.validate(), Err(ConfigError::LinkLatency(-1.0)));
    }
}
