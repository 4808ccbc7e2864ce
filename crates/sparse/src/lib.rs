//! Sparse matrix storage formats and their energy-performance scaling.
//!
//! *Communication Avoiding Power Scaling* closes (§VIII) by promising to
//! "quantify the energy performance scaling of a complementary set of
//! sparse matrix multiplication techniques … \[and\] address the energy
//! performance scaling properties of the various sparse matrix (vector)
//! storage techniques". This crate implements that follow-on study:
//!
//! * four storage formats — [`Coo`], [`Csr`], [`Csc`], [`Ell`] — with
//!   loss-free conversions and dense round-trips;
//! * sparse matrix–vector products ([`spmv`]) for each, with row-band
//!   parallelism over the `powerscale-pool` where the format allows it;
//! * per-format traffic/cost models ([`cost`]) feeding the simulated
//!   machine, capturing what actually differs between formats at the
//!   memory system: index overhead bytes, gather irregularity and the
//!   parallelisability of the traversal;
//! * an EP-scaling study ([`study`]) producing, per format, the same
//!   Equation 5/6 curves the paper draws for the dense algorithms.
//!
//! # Example
//!
//! ```
//! use powerscale_sparse::{Csr, SparseGen};
//!
//! let mut gen = SparseGen::new(5);
//! let a = gen.uniform(64, 64, 0.05); // ~5% nonzeros, COO
//! let csr = Csr::from_coo(&a);
//! let x = vec![1.0; 64];
//! let y = powerscale_sparse::spmv::csr_spmv(&csr, &x, None, None);
//! // Row sums of A.
//! assert_eq!(y.len(), 64);
//! ```

#![warn(missing_docs)]

mod coo;
pub mod cost;
mod csc;
mod csr;
mod ell;
mod gen;
pub mod spmv;
pub mod study;

pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use ell::Ell;
pub use gen::SparseGen;

/// The storage formats under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Coordinate list: `(row, col, value)` triplets.
    Coo,
    /// Compressed sparse row.
    Csr,
    /// Compressed sparse column.
    Csc,
    /// ELLPACK: fixed width per row, zero-padded.
    Ell,
}

/// All formats, in presentation order.
pub(crate) const ALL_FORMATS: [Format; 4] = [Format::Coo, Format::Csr, Format::Csc, Format::Ell];

impl Format {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Format::Coo => "COO",
            Format::Csr => "CSR",
            Format::Csc => "CSC",
            Format::Ell => "ELL",
        }
    }
}
