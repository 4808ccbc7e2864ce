//! Blocked, packed, register-tiled double-precision GEMM.
//!
//! This crate is the reproduction's stand-in for the paper's "tuned
//! OpenBLAS" baseline (§IV-A): a Goto-style `C = α·A·B + β·C` with
//!
//! * a runtime-dispatched register-tile microkernel ([`kernel`]): one
//!   generic row-accumulating tile body ([`simd`]) instantiated as AVX-512
//!   (6×32), AVX2+FMA (6×8) and portable scalar (4×4) ISA tiers — each
//!   tile sized from its ISA's register file — each in three dtype tiers — f64, f32, and mixed (the f64
//!   kernel on panels rounded through f32 at pack time) — selected by an
//!   explicit [`Dispatch`] value callers carry down to the kernels (its default is
//!   the host's best f64 kernel; [`Dispatch::with_kernel`] pins any other,
//!   the scalar one included),
//! * blocking parameters derived from the cache hierarchy *and* the
//!   selected kernel's tile shape ([`BlockingParams::for_caches_and_tile`]), with
//!   [`BlockingParams::autotuned_for`] probing the host's real cache
//!   sizes at startup ([`autotune`]),
//! * contiguous packing of A and B panels ([`pack`]) by cache-line row
//!   segments, packed in parallel across pool workers and drawn from
//!   thread-local recycling arenas ([`arena`]) so steady-state invocations
//!   allocate nothing,
//! * parallelisation of the row-band loop over a
//!   [`powerscale_pool::ThreadPool`] (the OpenMP-worksharing analog), and
//! * optional [`powerscale_counters::EventSet`] instrumentation feeding the
//!   machine model.
//!
//! One packed loop nest (jc/pc/ic over [`leaf::Operand`]s, in the `dgemm`
//! module) runs every packed product: [`dgemm`] at its autotuned blocking,
//! and the fused-operand leaf ([`leaf::leaf_gemm_fused`]) the
//! Strassen/CAPS recursions call below their cutover size at full
//! extents — its [`leaf::Operand`] combines quadrant sums inside the
//! packing pass and its [`leaf::Accum`] merges products into `C` in place,
//! so recursion nodes materialise neither operand sums nor product
//! temporaries. The crate also hosts the naive reference
//! (`naive::naive_gemm`, the correctness oracle) and the BOTS-style
//! unpacked leaf solver ([`leaf::leaf_gemm`]).
//!
//! # Example
//!
//! ```
//! use powerscale_gemm::{dgemm, GemmContext};
//! use powerscale_matrix::{Matrix, MatrixGen};
//!
//! let mut gen = MatrixGen::new(7);
//! let a = gen.paper_operand(64);
//! let b = gen.paper_operand(64);
//! let mut c = Matrix::zeros(64, 64);
//! dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &GemmContext::default()).unwrap();
//!
//! let reference = powerscale_gemm::naive::naive_mm(&a.view(), &b.view()).unwrap();
//! assert!(powerscale_matrix::norms::rel_frobenius_error(&c.view(), &reference.view()) < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod autotune;
mod blocking;
mod dgemm;
pub mod kernel;
pub mod leaf;
pub mod naive;
pub mod pack;
pub mod plan;
mod simd;

pub use blocking::BlockingParams;
pub use dgemm::{dgemm, multiply, GemmContext};
pub use kernel::{
    available_kernels, scalar_kernel, scalar_kernel_for, select_kernel, select_kernel_for,
    simd_kernel, simd_kernel_for, Dispatch, DtypeTier, KernelFn, KernelInfo,
};
pub use leaf::{leaf_gemm_fused, leaf_gemm_fused_with, Accum, Operand};
