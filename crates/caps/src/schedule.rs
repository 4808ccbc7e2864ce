//! The CAPS schedule's plan prices: BFS steps above the cutoff depth, DFS
//! steps below it (paper §IV-C, Figure 2).
//!
//! CAPS is Strassen's recursion run under the BFS/DFS schedule: the
//! executor is [`powerscale_strassen::multiply_with`] under the
//! [`Schedule`](powerscale_strassen::Schedule) value [`crate::multiply`]
//! builds, and the plan is [`powerscale_strassen::plan::graph`] priced by
//! [`BfsDfsPricing`]. The walker fixes the arithmetic and shares every
//! pooled leaf over row bands (the OpenMP work-sharing of the paper's DFS
//! steps: the fused leaf's pooled nest, which packs B once for all bands),
//! so a CAPS product is bitwise a Strassen product with the same cutoff;
//! the schedule decides only
//!
//! * **placement** — with the seven-group worker layout installed, each
//!   root BFS product is seeded onto its group's first worker, and strict
//!   stealing keeps its descendants inside the group;
//! * **the plan's prices** ([`BfsDfsPricing`]) — BFS steps place operands
//!   deterministically, so sub-results stay group-local and combine steps
//!   pull about half the operand volume a steal-scheduled Strassen combine
//!   does; DFS subtrees are one fluid band task per machine core carrying
//!   equal shares of the work (the fluid-model image of work-sharing,
//!   whose DFS step the CAPS papers define over all P processors) with
//!   **zero** communication, where the Strassen plan's inline subtrees
//!   each pay a full operand migration.

use powerscale_machine::{KernelClass, TaskCost, TaskGraph, TaskId};
use powerscale_strassen::Pricing;

/// The BFS/DFS schedule's prices in the plan of one CAPS multiply on a
/// machine with `cores` cores, across which every DFS step is shared.
#[derive(Clone)]
pub(crate) struct BfsDfsPricing {
    pub(crate) cores: usize,
}

impl BfsDfsPricing {
    /// Fraction of a BFS step's operand volume that migrates at `depth`:
    /// there are 7^depth concurrent sub-problems, so once they outnumber
    /// the cores the split is core-local and (almost) nothing crosses.
    /// This factor is the "communication avoiding" in CAPS.
    fn placement(&self, depth: u32) -> f64 {
        (self.cores as f64 / 7f64.powi(depth as i32)).min(1.0)
    }
}

impl Pricing for BfsDfsPricing {
    fn plan_leaf(
        &self,
        g: &mut TaskGraph,
        leaf: TaskCost,
        inline: bool,
        deps: &[TaskId],
    ) -> Vec<TaskId> {
        // A leaf inside a BFS task belongs to that task outright; a DFS
        // leaf is work-shared across all cores.
        let ways = if inline { self.cores } else { 1 };
        g.add_shared(0, 0, leaf.class, leaf.flops, leaf.dram_bytes, ways, deps)
    }

    fn plan_inline(
        &self,
        g: &mut TaskGraph,
        _n: usize,
        flops: u64,
        dram: u64,
        deps: &[TaskId],
    ) -> Vec<TaskId> {
        g.add_shared(0, 0, KernelClass::LeafGemm, flops, dram, self.cores, deps)
    }

    fn prepare_comm(&self, depth: u32, hh: u64) -> u64 {
        // Operands are partitioned to the sub-problem's workers once.
        (2.0 * 8.0 * hh as f64 * self.placement(depth)) as u64
    }

    fn combine_comm(&self, depth: u32, inputs: usize, hh: u64) -> u64 {
        // Combines pull group-local results: scaled by the same placement
        // factor, halved again because the consuming quadrant lives in one
        // of the producing groups.
        (inputs as f64 * 8.0 * hh as f64 * self.placement(depth) / 2.0) as u64
    }
}
