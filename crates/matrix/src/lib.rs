//! Dense double-precision matrix substrate for the `powerscale` workspace.
//!
//! This crate provides the storage layer shared by every matrix-multiplication
//! algorithm in the reproduction of *Communication Avoiding Power Scaling*
//! (Chen & Leidel, ICPPW 2015): cache-line-aligned owned matrices
//! ([`Matrix`]), cheap strided views ([`MatrixView`] / [`MatrixViewMut`]),
//! quadrant splitting for Strassen-style recursion, power-of-two padding, and
//! deterministic seeded generation of test operands.
//!
//! # Layout
//!
//! Matrices are **row-major** with an explicit leading dimension (`ld` =
//! number of addressable columns per row in the backing buffer), so a view of
//! a sub-block is just a pointer, dimensions and the parent's `ld`. This is
//! the classic BLAS layout transposed to C conventions; it keeps rows
//! contiguous, which is what our packing kernels and cache simulator expect.
//!
//! # Example
//!
//! ```
//! use powerscale_matrix::Matrix;
//!
//! let a = Matrix::identity(4);
//! let b = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
//! let mut c = Matrix::zeros(4, 4);
//! // c = a + b elementwise
//! powerscale_matrix::ops::add_into(&a.view(), &b.view(), &mut c.view_mut()).unwrap();
//! assert_eq!(c.get(1, 1), 1.0 + 5.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod error;
mod gen;
mod matrix;
pub mod norms;
pub mod ops;
pub mod pad;
mod view;

pub use error::{DimError, DimResult};
pub use gen::{MatrixGen, SpecialMatrix};
pub use matrix::Matrix;
pub use view::{MatrixView, MatrixViewMut, Quadrants, QuadrantsMut};

/// Alignment, in bytes, of every [`Matrix`] backing buffer.
///
/// 64 bytes = one x86 cache line = one AVX-512 register; keeping operands
/// line-aligned makes the blocked-GEMM packing kernels and the cache
/// simulator's line-granularity accounting exact.
pub const ALIGN: usize = 64;
