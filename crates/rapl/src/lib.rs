//! RAPL-compatible energy measurement.
//!
//! The paper reads Intel **Running Average Power Limit** (RAPL) counters
//! through PAPI: 32-bit energy-status registers per power plane, scaled by
//! the energy-status unit from `MSR_RAPL_POWER_UNIT`, wrapping every few
//! minutes at load. This crate reproduces that interface faithfully enough
//! that measurement code written against it ports to real hardware
//! unchanged:
//!
//! * [`Domain`] — the power planes (PKG, PP0, PP1, DRAM, PSys), each
//!   documented with its energy-status MSR;
//! * [`RaplUnits`] / [`EnergyCounter`] — raw-register arithmetic including
//!   **wraparound-correct deltas**;
//! * [`EnergyReader`] — the backend trait, with
//!   [`ModelReader`](model::ModelReader) (driven by a simulated
//!   [`powerscale_machine::Schedule`]),
//!   and [`SysfsReader`](sysfs::SysfsReader) (parsing a
//!   `/sys/class/powercap/intel-rapl` tree, injectable for tests: it
//!   takes its deltas modulo each zone's `max_energy_range_uj`, and a
//!   zone whose `energy_uj` cannot be read is listed apart from the
//!   readable domains);
//! * [`EnergyMeter`] — the sampling integrator the experiment harness uses
//!   (the analog of the paper's PAPI-instrumented test driver). After a
//!   failed read the next good sample integrates the deferred delta: the
//!   failures a real backend has (read errors, wraps, a zone that stops
//!   answering) need no decorator.
//!
//! # Example
//!
//! ```
//! use powerscale_rapl::{Domain, EnergyMeter, model::ModelReader};
//!
//! // A synthetic run: 35 W package, 25 W cores, 3 W DRAM for 2 seconds.
//! let mut reader = ModelReader::from_powers(&[
//!     (Domain::Package, 35.0),
//!     (Domain::PP0, 25.0),
//!     (Domain::Dram, 3.0),
//! ]);
//! let mut meter = EnergyMeter::start(&mut reader);
//! for _ in 0..20 {
//!     reader.advance(0.1);
//!     meter.sample(&mut reader);
//! }
//! let report = meter.finish(&mut reader, 2.0);
//! let pkg = report.avg_watts(Domain::Package).unwrap();
//! assert!((pkg - 35.0).abs() < 0.5);
//! ```

#![warn(missing_docs)]

mod counter;
mod domain;
mod meter;
pub mod model;
pub mod sysfs;

pub use counter::{EnergyCounter, RaplUnits};
pub use domain::Domain;
pub use meter::{EnergyMeter, EnergyReport};

/// A backend that exposes RAPL-style raw energy counters.
pub trait EnergyReader {
    /// Domains this backend can read.
    fn domains(&self) -> Vec<Domain>;
    /// Raw 32-bit energy-status value for a domain (monotonic, wrapping).
    fn read_raw(&mut self, domain: Domain) -> Option<u32>;
    /// Unit scaling for this package.
    fn units(&self) -> RaplUnits;
}
