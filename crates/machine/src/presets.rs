//! Machine presets, headed by the paper's testbed.

use crate::config::{ComputeModel, MachineConfig, PowerModel};
use powerscale_cachesim::presets::e3_1225_caches;

/// The paper's test platform (Section V): Lenovo TS140 with an Intel
/// E3-1225 "Haswell" quad-core at 3.2 GHz, 8 MB LLC, one DDR3-1600 DIMM
/// (12.8 GB/s), power-saving features disabled in BIOS.
///
/// Compute: 8 DP flops/cycle (one 4-wide FMA pipe held as sustained issue;
/// the part's theoretical 16 is never approached by real DGEMM on this
/// memory system). Efficiencies and power coefficients are *calibrated
/// constants*, fitted so the simulated experiment matrix reproduces the
/// shapes of the paper's Tables II–IV:
///
/// * `PackedGemm` at 0.90 of peak — "tuned OpenBLAS" (paper §IV-A);
/// * `LeafGemm` at 0.34 — the BOTS manually-unrolled n≤64 cutover solver,
///   unpacked and strided (this gap, times the extra O(n²) add passes, is
///   what makes Strassen ~2.9× slower at these sizes, Table II);
/// * core active/stall/idle watts fitted against Table III's per-thread
///   averages (OpenBLAS 20.2→49.1 W, Strassen 21.1→31.9 W for 1→4 threads).
pub fn e3_1225() -> MachineConfig {
    MachineConfig {
        name: "Intel E3-1225 (Haswell), 4c/3.2GHz, DDR3-1600".to_string(),
        cores: 4,
        compute: ComputeModel {
            freq_ghz: 3.2,
            flops_per_cycle: 8.0,
            // Indexed by KernelClass: PackedGemm, LeafGemm, Elementwise,
            // Pack, Control.
            class_efficiency: [0.90, 0.42, 0.125, 0.50, 0.05],
        },
        dram_bw_bytes_per_s: 12.8e9,
        // A single Haswell core sustains ~10 GB/s of the 12.8 GB/s channel
        // (line-fill-buffer limited) — the headroom a second thread claims.
        core_dram_bw_bytes_per_s: 10.0e9,
        comm_bw_bytes_per_s: 45.0e9,
        caches: e3_1225_caches(),
        power: PowerModel {
            pkg_base_w: 9.5,
            core_idle_w: 0.8,
            core_stall_w: 1.4,
            core_active_w: [10.3, 7.5, 4.0, 3.5, 1.5],
            dram_static_w: 1.5,
            dram_joule_per_byte: 3.1e-10,
            comm_joule_per_byte: 3.0e-10,
        },
    }
}

/// A uniform, friction-free machine for unit tests: 4 cores, every kernel
/// class at 100% of a 1 Gflop/s core, effectively unlimited bandwidth, and
/// round-number power coefficients. Makes hand-computed expectations exact.
pub fn ideal_test_machine(cores: usize) -> MachineConfig {
    MachineConfig {
        name: format!("ideal-{cores}c"),
        cores,
        compute: ComputeModel {
            freq_ghz: 1.0,
            flops_per_cycle: 1.0,
            class_efficiency: [1.0; crate::task::KERNEL_CLASS_COUNT],
        },
        dram_bw_bytes_per_s: 1e15,
        core_dram_bw_bytes_per_s: 1e15,
        comm_bw_bytes_per_s: 1e15,
        caches: powerscale_cachesim::presets::e3_1225_caches(),
        power: PowerModel {
            pkg_base_w: 10.0,
            core_idle_w: 1.0,
            core_stall_w: 1.4,
            core_active_w: [5.0; crate::task::KERNEL_CLASS_COUNT],
            dram_static_w: 0.0,
            dram_joule_per_byte: 0.0,
            comm_joule_per_byte: 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::KernelClass;

    #[test]
    fn haswell_preset_shape() {
        let m = e3_1225();
        assert_eq!(m.cores, 4);
        assert_eq!(m.caches.len(), 3);
        assert!(m.power.core_active_w[KernelClass::PackedGemm.index()] > m.power.core_stall_w);
        assert!(m.power.core_stall_w > m.power.core_idle_w);
    }

    #[test]
    fn efficiency_vector_in_range() {
        let m = e3_1225();
        for e in m.compute.class_efficiency {
            assert!(e > 0.0 && e <= 1.0);
        }
    }
}
