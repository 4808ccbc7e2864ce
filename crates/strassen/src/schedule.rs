//! The schedule a Strassen recursion runs under.
//!
//! There is one recursion: [`crate::multiply_with`] walks it on real
//! matrices and [`crate::plan::graph`] emits its task graph. What differs between the BOTS
//! Strassen and CAPS (paper §IV-B/§IV-C) is only *how* that tree is
//! scheduled. A [`Schedule`] names those differences for the walker:
//!
//! * whether a leaf is work-shared across the pool;
//! * the worker a depth-0 product is pinned to;
//! * the trace category and span names of internal nodes.
//!
//! Its [`Pricing`] names them for the task-graph plan: how a leaf, an
//! inline subtree below the spawn depth, and operand migration at a
//! spawned node's prepare and combine tasks are priced.
//!
//! Arithmetic order, event counts and task order belong to the walker, so
//! every schedule computes the same bits. `Untied` is the BOTS schedule;
//! CAPS's BFS/DFS schedule lives in `powerscale-caps`. Schedules are
//! statically dispatched: the walker is monomorphised per schedule.

use powerscale_machine::{KernelClass, TaskCost, TaskGraph, TaskId};
use powerscale_trace::{span_args, Category, SpanGuard};

/// What a schedule decides about one executed Strassen recursion.
pub trait Schedule: Sync {
    /// Whether a leaf product is work-shared by row bands across the
    /// walker's pool (the fused leaf's pooled nest) rather than run by the
    /// one task that reaches it.
    fn shares_leaves(&self) -> bool;

    /// The worker that product `index` (0..7, in spawn order) of a spawned
    /// node at `depth` is seeded onto; `None` leaves it on the spawner's
    /// own deque.
    fn pin(&self, depth: u32, index: usize) -> Option<usize>;

    /// Opens the trace span of one internal `n × n` node at `depth`,
    /// spawned (`parallel`) or inline.
    fn node_span(&self, parallel: bool, depth: u32, n: usize) -> SpanGuard;
}

/// How a schedule prices one Strassen recursion's task-graph plan.
pub trait Pricing {
    /// Emits the task(s) of one dense leaf costing `leaf`; `inline` is true
    /// below the spawn depth. Returns the sink tasks.
    fn plan_leaf(
        &self,
        g: &mut TaskGraph,
        leaf: TaskCost,
        inline: bool,
        deps: &[TaskId],
    ) -> Vec<TaskId>;

    /// Emits a whole `n × n` subtree below the spawn depth, carrying
    /// `flops` and `dram` bytes of work. Returns the sink tasks.
    fn plan_inline(
        &self,
        g: &mut TaskGraph,
        n: usize,
        flops: u64,
        dram: u64,
        deps: &[TaskId],
    ) -> Vec<TaskId>;

    /// Bytes migrated ahead of one product's prepare task at a spawned
    /// node of `depth` whose quadrants hold `hh` elements.
    fn prepare_comm(&self, depth: u32, hh: u64) -> u64;

    /// Bytes a combine task at a spawned node of `depth` pulls from the
    /// `inputs` products it consumes.
    fn combine_comm(&self, depth: u32, inputs: usize, hh: u64) -> u64;
}

/// The BOTS schedule: an untied task per product down to the spawn depth,
/// placed wherever a worker steals it. Placement-oblivious, so the plan
/// charges every spawned product and every inline subtree a full operand
/// migration.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Untied;

impl Schedule for Untied {
    /// BOTS leaves are sequential tasks.
    fn shares_leaves(&self) -> bool {
        false
    }

    fn pin(&self, _depth: u32, _index: usize) -> Option<usize> {
        None
    }

    fn node_span(&self, parallel: bool, depth: u32, n: usize) -> SpanGuard {
        let name = if parallel { "rec:par" } else { "rec:seq" };
        span_args(Category::Strassen, name, depth, n as u32)
    }
}

impl Pricing for Untied {
    fn plan_leaf(
        &self,
        g: &mut TaskGraph,
        leaf: TaskCost,
        _inline: bool,
        deps: &[TaskId],
    ) -> Vec<TaskId> {
        vec![g.add(leaf, deps)]
    }

    fn plan_inline(
        &self,
        g: &mut TaskGraph,
        n: usize,
        flops: u64,
        dram: u64,
        deps: &[TaskId],
    ) -> Vec<TaskId> {
        // One sequential task carrying all of the subtree's work.
        // Multiplies dominate the flop stream (LeafGemm efficiency); the
        // add passes contribute their bytes to the memory stream; the
        // operands migrate to the task once.
        let migrate = 2 * 8 * (n * n) as u64;
        vec![g.add(
            TaskCost::new(KernelClass::LeafGemm, flops, dram, migrate),
            deps,
        )]
    }

    fn prepare_comm(&self, _depth: u32, hh: u64) -> u64 {
        // Both half-size operands move to whichever core runs the product.
        2 * 8 * hh
    }

    fn combine_comm(&self, _depth: u32, inputs: usize, hh: u64) -> u64 {
        // Products land wherever their core was; the combine pulls them
        // across: one half-size operand per consumed product.
        inputs as u64 * 8 * hh
    }
}
