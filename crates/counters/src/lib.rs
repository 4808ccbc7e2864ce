//! PAPI-style software performance counters.
//!
//! The paper instruments its matrix-multiplication drivers with PAPI to read
//! RAPL energy and hardware activity. Our reproduction replaces hardware
//! counters with **software event accounting**: every kernel in
//! `powerscale-gemm`, `powerscale-strassen` and `powerscale-caps` reports the
//! work it performed (flops, bytes moved, communication volume, tasking
//! events) at block granularity, and those reports drive the machine model
//! that in turn synthesizes RAPL readings.
//!
//! The API deliberately mirrors PAPI's event-set life cycle — create, add
//! events, `start`, `record` while running, `stop`/`read`/`accum`, `reset` —
//! including its state-machine errors, so a port to real PAPI bindings on
//! instrumented hardware is mechanical.
//!
//! # Example
//!
//! ```
//! use powerscale_counters::{Event, EventSet, Profile};
//!
//! let mut set = EventSet::new();
//! set.add(Event::FpOps).unwrap();
//! set.add(Event::BytesRead).unwrap();
//! set.start().unwrap();
//! set.record(Event::FpOps, 2_000);
//! set.record(Event::BytesRead, 64);
//! set.record(Event::CommBytes, 999); // not in the set: ignored
//! let profile: Profile = set.stop().unwrap();
//! assert_eq!(profile.get(Event::FpOps), 2_000);
//! assert_eq!(profile.get(Event::CommBytes), 0);
//! ```

#![warn(missing_docs)]

mod event;
mod eventset;
mod profile;

pub use event::{Event, ALL_EVENTS};
pub use eventset::{CounterError, EventSet, SetState};
pub use profile::Profile;
