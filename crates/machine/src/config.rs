//! Machine description: compute, memory, interconnect and power models,
//! and the fabric that joins machines into a cluster.

use crate::task::{KernelClass, TaskCost, ALL_KERNEL_CLASSES, KERNEL_CLASS_COUNT};
use powerscale_cachesim::CacheConfig;
use std::fmt;

/// Core compute capability and per-kernel-class efficiency.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ComputeModel {
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Peak double-precision flops per cycle per core (SIMD width × FMA).
    pub flops_per_cycle: f64,
    /// Fraction of peak achieved by each [`KernelClass`]
    /// (indexed by `KernelClass::index()`).
    pub class_efficiency: [f64; KERNEL_CLASS_COUNT],
}

impl ComputeModel {
    /// Peak flops/second of one core.
    pub(crate) fn peak_core_flops(&self) -> f64 {
        self.freq_ghz * 1e9 * self.flops_per_cycle
    }

    /// Achieved flops/second of one core running `class` kernels.
    pub fn achieved_flops(&self, class: KernelClass) -> f64 {
        self.peak_core_flops() * self.class_efficiency[class.index()]
    }
}

/// Power coefficients for the three RAPL-style planes.
///
/// The core (PP0) plane distinguishes three core states, which is what
/// produces the paper's divergent power-scaling curves: blocked DGEMM keeps
/// cores in the *active* state (high draw), the Strassen variants spend much
/// of their time *stalled* on memory or *idle* on dependencies (low draw).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PowerModel {
    /// Uncore/static package power excluding cores and DRAM (W).
    pub pkg_base_w: f64,
    /// Power of an idle core (W).
    pub core_idle_w: f64,
    /// Power of a core stalled on memory or communication (W).
    pub core_stall_w: f64,
    /// Power of a core actively executing each kernel class (W), indexed by
    /// `KernelClass::index()`.
    pub core_active_w: [f64; KERNEL_CLASS_COUNT],
    /// Static DRAM plane power (W).
    pub dram_static_w: f64,
    /// Dynamic DRAM energy per byte transferred (J/B).
    pub dram_joule_per_byte: f64,
    /// Dynamic interconnect energy per byte transferred core-to-core (J/B).
    pub comm_joule_per_byte: f64,
}

/// LLC-residency model used when *planning* DRAM traffic for task graphs.
///
/// A pass whose operand footprint fits comfortably in the shared LLC is
/// mostly served from cache — its producers just wrote it there — so only a
/// `resident_discount` fraction of its bytes reach DRAM. Footprints larger
/// than `llc_bytes * fit_fraction` stream at full cost. This is the single
/// most important correction for Strassen-style algorithms, whose quadrant
/// add passes at deep recursion levels are cache-resident while the
/// top-level passes stream.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TrafficModel {
    /// Shared last-level cache capacity in bytes.
    pub llc_bytes: u64,
    /// Fraction of the LLC a working set may occupy and still be considered
    /// resident (other cores compete for the rest).
    pub fit_fraction: f64,
    /// Fraction of bytes that still reach DRAM when resident (compulsory
    /// misses on fresh temporaries, write-back drains).
    pub resident_discount: f64,
}

impl TrafficModel {
    /// Effective DRAM bytes of a pass with the given working-set footprint
    /// and raw byte count.
    pub fn effective_bytes(&self, footprint_bytes: u64, raw_bytes: u64) -> u64 {
        if (footprint_bytes as f64) <= self.llc_bytes as f64 * self.fit_fraction {
            (raw_bytes as f64 * self.resident_discount) as u64
        } else {
            raw_bytes
        }
    }
}

impl Default for TrafficModel {
    /// The paper's 8 MB LLC with half-capacity fit and a 50% resident
    /// leak-through (fresh temporaries miss compulsorily and Strassen's
    /// temporaries churn the LLC; calibrated against Table II/Fig. 7).
    fn default() -> Self {
        TrafficModel {
            llc_bytes: 8 * 1024 * 1024,
            fit_fraction: 0.5,
            resident_discount: 0.5,
        }
    }
}

/// Full description of the simulated SMP.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MachineConfig {
    /// Human-readable name (appears in reports).
    pub name: String,
    /// Number of physical cores.
    pub cores: usize,
    /// Compute capability.
    pub compute: ComputeModel,
    /// Aggregate DRAM bandwidth in bytes/second, shared by all cores.
    pub dram_bw_bytes_per_s: f64,
    /// Per-core DRAM bandwidth ceiling in bytes/second: a single core
    /// cannot saturate the memory controller (limited line-fill buffers),
    /// which is what lets memory-bound kernels still gain from a second
    /// thread. Set equal to `dram_bw_bytes_per_s` to disable.
    pub core_dram_bw_bytes_per_s: f64,
    /// Aggregate core-to-core (LLC/ring) bandwidth in bytes/second.
    pub comm_bw_bytes_per_s: f64,
    /// Cache hierarchy (L1 first). Only the last level's capacity is read,
    /// as [`TrafficModel::llc_bytes`]; DRAM bytes come from that analytic
    /// model, not from a cache simulation. Not read by the scheduler.
    pub caches: Vec<CacheConfig>,
    /// Power coefficients.
    pub power: PowerModel,
}

impl MachineConfig {
    /// Duration of `cost` on one core of an otherwise idle machine
    /// (full DRAM bandwidth, no contention): communication first, then
    /// roofline `max(flop_time, mem_time)`.
    pub(crate) fn unloaded_duration(&self, cost: &TaskCost) -> f64 {
        let comm = cost.comm_bytes as f64 / self.comm_bw_bytes_per_s;
        let flop_rate = self.compute.achieved_flops(cost.class);
        let flop_t = if cost.flops == 0 {
            0.0
        } else {
            cost.flops as f64 / flop_rate
        };
        let bw = self.dram_bw_bytes_per_s.min(self.core_dram_bw_bytes_per_s);
        let mem_t = cost.dram_bytes as f64 / bw;
        comm + flop_t.max(mem_t)
    }

    /// The traffic model induced by this machine's LLC.
    pub fn traffic_model(&self) -> TrafficModel {
        TrafficModel {
            llc_bytes: self.caches.last().map(|c| c.size_bytes as u64).unwrap_or(0),
            ..TrafficModel::default()
        }
    }

    /// Checks every rate the scheduler divides by. A zero, negative,
    /// infinite or NaN rate would give an infinite or NaN step and a
    /// schedule that never finishes; [`crate::simulate`] and
    /// [`crate::simulate_nodes`] reject it here instead.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::NoCores);
        }
        rate(self.dram_bw_bytes_per_s, ConfigError::DramBandwidth)?;
        rate(
            self.core_dram_bw_bytes_per_s,
            ConfigError::CoreDramBandwidth,
        )?;
        rate(self.comm_bw_bytes_per_s, ConfigError::CommBandwidth)?;
        rate(self.compute.peak_core_flops(), ConfigError::PeakFlops)?;
        for class in ALL_KERNEL_CLASSES {
            let efficiency = self.compute.class_efficiency[class.index()];
            let invalid = |_| ConfigError::ClassEfficiency(class, efficiency);
            rate(efficiency, invalid)?;
            rate(self.compute.achieved_flops(class), invalid)?;
        }
        Ok(())
    }
}

/// The fabric joining the nodes of a cluster: what a task's inter-node
/// ingress drains through, and what the network energy plane charges.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Fabric {
    /// Per-node NIC bandwidth, bytes/second, each direction.
    pub link_bw_bytes_per_s: f64,
    /// Aggregate fabric (bisection) bandwidth shared by all transfers.
    pub net_bw_bytes_per_s: f64,
    /// Per-message latency in seconds (paid once per inter-node transfer).
    pub link_latency_s: f64,
    /// Idle power of one NIC (W).
    pub nic_idle_w: f64,
    /// Dynamic network energy per byte moved (NIC + switch port, J/B).
    pub nic_joule_per_byte: f64,
    /// Static switch power for the whole fabric (W).
    pub switch_w: f64,
}

impl Fabric {
    /// Checks both bandwidths (positive, finite) and the latency
    /// (non-negative, finite).
    pub fn validate(&self) -> Result<(), ConfigError> {
        rate(self.link_bw_bytes_per_s, ConfigError::LinkBandwidth)?;
        rate(self.net_bw_bytes_per_s, ConfigError::NetBandwidth)?;
        if !(self.link_latency_s >= 0.0 && self.link_latency_s.is_finite()) {
            return Err(ConfigError::LinkLatency(self.link_latency_s));
        }
        Ok(())
    }
}

/// Why a machine, fabric or placement cannot be simulated. Every rate
/// variant carries the offending value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `MachineConfig::cores` is zero.
    NoCores,
    /// `dram_bw_bytes_per_s` is not a positive finite rate.
    DramBandwidth(f64),
    /// `core_dram_bw_bytes_per_s` is not a positive finite rate.
    CoreDramBandwidth(f64),
    /// `comm_bw_bytes_per_s` is not a positive finite rate.
    CommBandwidth(f64),
    /// `freq_ghz × flops_per_cycle` is not a positive finite rate.
    PeakFlops(f64),
    /// A kernel class's efficiency is not positive and finite, or its
    /// achieved flop rate is not.
    ClassEfficiency(KernelClass, f64),
    /// `Fabric::link_bw_bytes_per_s` is not a positive finite rate.
    LinkBandwidth(f64),
    /// `Fabric::net_bw_bytes_per_s` is not a positive finite rate.
    NetBandwidth(f64),
    /// `Fabric::link_latency_s` is negative or not finite.
    LinkLatency(f64),
    /// A cluster with no nodes.
    NoNodes,
    /// The graph pins tasks to `placed` nodes; the machine has `nodes`.
    Placement {
        /// Highest node index the graph uses, plus one.
        placed: usize,
        /// Nodes simulated.
        nodes: usize,
    },
    /// The graph has fabric ingress but no fabric was given.
    NoFabric,
}

/// Names the variant and its values, e.g. `DramBandwidth(0.0)`; the
/// variant docs say what each requires.
impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid simulator input: {self:?}")
    }
}

impl std::error::Error for ConfigError {}

/// `Ok` when `v` is a positive finite rate, else `err(v)`.
fn rate(v: f64, err: impl FnOnce(f64) -> ConfigError) -> Result<(), ConfigError> {
    (v > 0.0 && v.is_finite())
        .then_some(())
        .ok_or_else(|| err(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::task::KernelClass;

    #[test]
    fn peak_rates() {
        let m = presets::e3_1225();
        // 3.2 GHz x 8 flops/cycle = 25.6 Gflop/s per core.
        assert!((m.compute.peak_core_flops() - 25.6e9).abs() < 1.0);
    }

    #[test]
    fn achieved_flops_ordering() {
        let m = presets::e3_1225();
        // Packed kernels must out-rate leaf kernels, which out-rate
        // elementwise passes.
        assert!(
            m.compute.achieved_flops(KernelClass::PackedGemm)
                > m.compute.achieved_flops(KernelClass::LeafGemm)
        );
        assert!(
            m.compute.achieved_flops(KernelClass::LeafGemm)
                > m.compute.achieved_flops(KernelClass::Elementwise)
        );
    }

    #[test]
    fn unloaded_duration_roofline() {
        let m = presets::e3_1225();
        // Pure compute: time = flops / achieved rate.
        let c = TaskCost::compute(KernelClass::PackedGemm, 1_000_000_000);
        let rate = m.compute.achieved_flops(KernelClass::PackedGemm);
        assert!((m.unloaded_duration(&c) - 1e9 / rate).abs() < 1e-12);

        // Memory-bound: elementwise with heavy traffic, paced by the
        // per-core bandwidth ceiling.
        let e = TaskCost::new(KernelClass::Elementwise, 1000, 1_000_000_000, 0);
        let mem_t = 1e9 / m.core_dram_bw_bytes_per_s.min(m.dram_bw_bytes_per_s);
        assert!((m.unloaded_duration(&e) - mem_t).abs() < 1e-9);

        // Communication adds serially.
        let cc = TaskCost::new(KernelClass::Control, 0, 0, 1_000_000);
        assert!(m.unloaded_duration(&cc) > 0.0);
    }

    #[test]
    fn validate_rejects_each_rate() {
        use ConfigError::*;
        let ok = presets::e3_1225();
        assert_eq!(ok.validate(), Ok(()));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let check = |edit: &dyn Fn(&mut MachineConfig)| {
                let mut m = ok.clone();
                edit(&mut m);
                m.validate().unwrap_err()
            };
            assert!(matches!(
                check(&|m| m.dram_bw_bytes_per_s = bad),
                DramBandwidth(_)
            ));
            assert!(matches!(
                check(&|m| m.core_dram_bw_bytes_per_s = bad),
                CoreDramBandwidth(_)
            ));
            assert!(matches!(
                check(&|m| m.comm_bw_bytes_per_s = bad),
                CommBandwidth(_)
            ));
            assert!(matches!(check(&|m| m.compute.freq_ghz = bad), PeakFlops(_)));
            assert!(matches!(
                check(&|m| m.compute.flops_per_cycle = bad),
                PeakFlops(_)
            ));
            for class in crate::ALL_KERNEL_CLASSES {
                let err = check(&|m| m.compute.class_efficiency[class.index()] = bad);
                assert!(matches!(err, ClassEfficiency(c, _) if c == class), "{err}");
            }
        }
        // A finite efficiency whose achieved rate overflows.
        let mut m = ok.clone();
        m.compute.class_efficiency[0] = f64::MAX;
        assert!(matches!(
            m.validate(),
            Err(ClassEfficiency(KernelClass::PackedGemm, _))
        ));
        m = ok.clone();
        m.cores = 0;
        assert_eq!(m.validate(), Err(NoCores));
    }

    #[test]
    fn fabric_validate_rejects_each_field() {
        use ConfigError::*;
        let ok = Fabric {
            link_bw_bytes_per_s: 4.0e9,
            net_bw_bytes_per_s: 8.0e9,
            link_latency_s: 0.0,
            nic_idle_w: 4.0,
            nic_joule_per_byte: 0.5e-9,
            switch_w: 12.0,
        };
        assert_eq!(ok.validate(), Ok(()));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let f = Fabric {
                link_bw_bytes_per_s: bad,
                ..ok.clone()
            };
            assert!(matches!(f.validate(), Err(LinkBandwidth(_))));
            let f = Fabric {
                net_bw_bytes_per_s: bad,
                ..ok.clone()
            };
            assert!(matches!(f.validate(), Err(NetBandwidth(_))));
        }
        for bad in [-1e-6, f64::NAN, f64::INFINITY] {
            let f = Fabric {
                link_latency_s: bad,
                ..ok.clone()
            };
            assert!(matches!(f.validate(), Err(LinkLatency(_))));
        }
    }

    #[test]
    fn balance_point_sane() {
        let m = presets::e3_1225();
        // Haswell-class machine balance (the flop/byte intensity below which
        // a kernel is memory-bound on an idle machine) for packed kernels is
        // O(1) flop/byte — between 0.5 and 10.
        let b = m.compute.achieved_flops(KernelClass::PackedGemm) / m.dram_bw_bytes_per_s;
        assert!((0.5..10.0).contains(&b), "balance {b}");
    }
}
