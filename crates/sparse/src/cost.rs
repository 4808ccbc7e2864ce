//! Per-format SpMV cost models for the simulated machine.
//!
//! What differs between formats at the memory system:
//!
//! * **index overhead** — bytes of structure streamed per useful flop
//!   (COO pays 8 B/nnz of row indices that CSR compresses to a pointer
//!   array; ELL streams padding slots);
//! * **gather locality** — `x[j]` accesses are random; when `x` fits in
//!   the LLC they cost one resident read, otherwise a whole line;
//! * **parallelisability** — CSR/ELL emit one independent task per row
//!   band; COO/CSC scatter into `y` and emit a single serial task.
//!
//! These three properties are what make the formats' *energy-performance
//! scaling* differ even when their flop counts are identical.

use crate::{Coo, Format};
use powerscale_machine::{KernelClass, TaskCost, TaskGraph, TrafficModel};

/// Structural statistics of a sparse operand, format-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmvStats {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Useful nonzeros.
    pub nnz: usize,
    /// ELL padded width (max row nnz).
    pub ell_width: usize,
}

impl SpmvStats {
    /// Reads the statistics off a COO matrix.
    pub fn of(a: &Coo) -> Self {
        SpmvStats {
            rows: a.rows(),
            cols: a.cols(),
            nnz: a.nnz(),
            ell_width: a.max_row_nnz(),
        }
    }
}

/// Cost components of one SpMV in a given format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SpmvCost {
    /// Executed flops (padding included for ELL).
    pub flops: u64,
    /// DRAM bytes: structure streams + gathers + y traffic.
    pub dram_bytes: u64,
    /// `true` when the traversal row-partitions (parallel bands).
    pub parallel: bool,
}

/// Bytes one `x` gather costs: resident read when `x` fits the LLC share,
/// else a full cache line.
fn gather_bytes_per_access(cols: usize, tm: &TrafficModel) -> u64 {
    let x_bytes = cols as u64 * 8;
    if (x_bytes as f64) <= tm.llc_bytes as f64 * tm.fit_fraction {
        8
    } else {
        64
    }
}

/// The cost model for one format. Structure streams (values, indices,
/// pointers) are discounted by LLC residency — an iterative solver re-runs
/// SpMV over the same operand, so a small matrix streams from cache.
pub(crate) fn spmv_cost(format: Format, s: &SpmvStats, tm: &TrafficModel) -> SpmvCost {
    let nnz = s.nnz as u64;
    let rows = s.rows as u64;
    let cols = s.cols as u64;
    let gather = gather_bytes_per_access(s.cols, tm);
    let resident = |raw: u64, footprint: u64| tm.effective_bytes(footprint, raw);
    match format {
        Format::Coo => SpmvCost {
            flops: 2 * nnz,
            // 16 B/triplet structure + gather + y scatter (read+write).
            dram_bytes: resident(nnz * (16 + gather + 16), nnz * 16 + cols * 8 + rows * 8),
            parallel: false,
        },
        Format::Csr => SpmvCost {
            flops: 2 * nnz,
            // 12 B/nnz + indptr + gather; y written streaming once.
            dram_bytes: resident(
                nnz * (12 + gather) + (rows + 1) * 4 + rows * 8,
                nnz * 12 + cols * 8 + rows * 8,
            ),
            parallel: true,
        },
        Format::Csc => SpmvCost {
            flops: 2 * nnz,
            // 12 B/nnz + y scatter (read+write, poor locality) + x stream.
            dram_bytes: resident(
                nnz * (12 + 16) + (cols + 1) * 4 + cols * 8,
                nnz * 12 + cols * 8 + rows * 8,
            ),
            parallel: false,
        },
        Format::Ell => {
            let slots = rows * s.ell_width as u64;
            SpmvCost {
                flops: 2 * slots,
                // Fully regular streams over padded slots + gathers.
                dram_bytes: resident(
                    slots * (12 + gather) + rows * 8,
                    slots * 12 + cols * 8 + rows * 8,
                ),
                parallel: true,
            }
        }
    }
}

/// Emits the SpMV task graph: `ways` parallel band tasks for
/// row-partitionable formats, one serial task otherwise. `repeats` chains
/// that structure end-to-end (the iterative-solver inner loop the study
/// simulates).
pub(crate) fn spmv_graph(
    format: Format,
    s: &SpmvStats,
    ways: usize,
    repeats: usize,
    tm: &TrafficModel,
) -> TaskGraph {
    let cost = spmv_cost(format, s, tm);
    let mut g = TaskGraph::new();
    let mut prev: Vec<powerscale_machine::TaskId> = Vec::new();
    for _ in 0..repeats.max(1) {
        let ways = if cost.parallel { ways.max(1) as u64 } else { 1 };
        let mut band_ids = Vec::with_capacity(ways as usize);
        for w in 0..ways {
            let f = cost.flops / ways + u64::from(w < cost.flops % ways);
            let b = cost.dram_bytes / ways + u64::from(w < cost.dram_bytes % ways);
            band_ids.push(g.add(TaskCost::new(KernelClass::Elementwise, f, b, 0), &prev));
        }
        prev = band_ids;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseGen;

    fn stats() -> SpmvStats {
        SpmvStats {
            rows: 1000,
            cols: 1000,
            nnz: 10_000,
            ell_width: 30,
        }
    }

    #[test]
    fn flops_per_format() {
        let tm = TrafficModel::default();
        let s = stats();
        assert_eq!(spmv_cost(Format::Coo, &s, &tm).flops, 20_000);
        assert_eq!(spmv_cost(Format::Csr, &s, &tm).flops, 20_000);
        // ELL executes padded slots.
        assert_eq!(spmv_cost(Format::Ell, &s, &tm).flops, 2 * 1000 * 30);
    }

    #[test]
    fn csr_moves_fewest_bytes_here() {
        let tm = TrafficModel::default();
        let s = stats();
        let csr = spmv_cost(Format::Csr, &s, &tm).dram_bytes;
        for f in [Format::Coo, Format::Csc, Format::Ell] {
            assert!(
                spmv_cost(f, &s, &tm).dram_bytes > csr,
                "{f:?} should move more than CSR"
            );
        }
    }

    #[test]
    fn gather_cost_depends_on_x_footprint() {
        let tm = TrafficModel::default();
        let small = SpmvStats {
            cols: 1000,
            ..stats()
        };
        let huge = SpmvStats {
            cols: 10_000_000,
            ..stats()
        };
        let a = spmv_cost(Format::Csr, &small, &tm).dram_bytes;
        let b = spmv_cost(Format::Csr, &huge, &tm).dram_bytes;
        assert!(b > a, "out-of-cache x must cost more");
    }

    #[test]
    fn graph_parallelism_by_format() {
        let tm = TrafficModel::default();
        let s = stats();
        let csr = spmv_graph(Format::Csr, &s, 4, 1, &tm);
        assert_eq!(csr.len(), 4);
        let coo = spmv_graph(Format::Coo, &s, 4, 1, &tm);
        assert_eq!(coo.len(), 1);
        // Repeats chain with dependencies.
        let chained = spmv_graph(Format::Csr, &s, 4, 3, &tm);
        assert_eq!(chained.len(), 12);
        assert!(!chained
            .deps(powerscale_machine::TaskId::from_index(4))
            .is_empty());
    }

    #[test]
    fn graph_conserves_cost_totals() {
        let tm = TrafficModel::default();
        let s = stats();
        let cost = spmv_cost(Format::Ell, &s, &tm);
        let g = spmv_graph(Format::Ell, &s, 4, 2, &tm);
        assert_eq!(g.total_flops(), 2 * cost.flops);
        assert_eq!(g.total_dram_bytes(), 2 * cost.dram_bytes);
    }

    #[test]
    fn stats_of_real_matrices() {
        let mut gen = SparseGen::new(3);
        let coo = gen.power_law(128, 6);
        let s = SpmvStats::of(&coo);
        assert_eq!(s.nnz, coo.nnz());
        assert_eq!(s.ell_width, coo.max_row_nnz());
        let ell = crate::Ell::from_coo(&coo);
        assert_eq!(ell.width(), s.ell_width);
    }
}
