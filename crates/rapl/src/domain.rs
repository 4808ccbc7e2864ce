//! RAPL power-plane domains.

use core::fmt;
use serde::{Deserialize, Serialize};

/// A RAPL power plane.
///
/// The paper's driver reads "the entire package and the primary power
/// plane (PP0) that corresponds to the CPU socket" (§V-C); DRAM is listed
/// for completeness since later harness revisions report it too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Domain {
    /// Whole processor package (`MSR_PKG_ENERGY_STATUS`).
    Package,
    /// Power plane 0: the cores (`MSR_PP0_ENERGY_STATUS`).
    PP0,
    /// Power plane 1: client uncore/graphics (`MSR_PP1_ENERGY_STATUS`).
    PP1,
    /// DRAM plane (`MSR_DRAM_ENERGY_STATUS`).
    Dram,
    /// Platform/system plane (`MSR_PLATFORM_ENERGY_STATUS`, Skylake+).
    Psys,
}

impl Domain {
    /// Parses a powercap `name` file value.
    pub(crate) fn from_sysfs_name(s: &str) -> Option<Domain> {
        let s = s.trim();
        if s.starts_with("package") {
            return Some(Domain::Package);
        }
        match s {
            "core" => Some(Domain::PP0),
            "uncore" => Some(Domain::PP1),
            "dram" => Some(Domain::Dram),
            "psys" => Some(Domain::Psys),
            _ => None,
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Domain::Package => "PKG",
            Domain::PP0 => "PP0",
            Domain::PP1 => "PP1",
            Domain::Dram => "DRAM",
            Domain::Psys => "PSYS",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every domain, in canonical order.
    const ALL_DOMAINS: [Domain; 5] = [
        Domain::Package,
        Domain::PP0,
        Domain::PP1,
        Domain::Dram,
        Domain::Psys,
    ];

    impl Domain {
        /// The x86 MSR address of the domain's energy-status register.
        fn msr_address(self) -> u32 {
            match self {
                Domain::Package => 0x611,
                Domain::PP0 => 0x639,
                Domain::PP1 => 0x641,
                Domain::Dram => 0x619,
                Domain::Psys => 0x64D,
            }
        }

        /// The powercap-sysfs `name` file contents identifying the domain.
        fn sysfs_name(self) -> &'static str {
            match self {
                Domain::Package => "package-0",
                Domain::PP0 => "core",
                Domain::PP1 => "uncore",
                Domain::Dram => "dram",
                Domain::Psys => "psys",
            }
        }
    }

    #[test]
    fn msr_addresses_canonical() {
        assert_eq!(Domain::Package.msr_address(), 0x611);
        assert_eq!(Domain::Dram.msr_address(), 0x619);
        assert_eq!(Domain::PP0.msr_address(), 0x639);
    }

    #[test]
    fn sysfs_name_round_trip() {
        for d in ALL_DOMAINS {
            assert_eq!(Domain::from_sysfs_name(d.sysfs_name()), Some(d));
        }
        assert_eq!(Domain::from_sysfs_name("package-1"), Some(Domain::Package));
        assert_eq!(Domain::from_sysfs_name("bogus"), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(Domain::Package.to_string(), "PKG");
        assert_eq!(Domain::PP0.to_string(), "PP0");
    }
}
