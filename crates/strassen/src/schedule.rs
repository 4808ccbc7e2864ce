//! The schedule a Strassen recursion runs under.
//!
//! There is one recursion: [`crate::multiply_with`] walks it on real
//! matrices and [`crate::plan::graph`] emits its task graph. What differs
//! between the BOTS Strassen and CAPS (paper §IV-B/§IV-C) is only *how*
//! that tree is scheduled. A [`Schedule`] value names those differences
//! for the walker:
//!
//! * the worker each depth-0 product is seeded onto;
//! * the trace category and span names of internal nodes.
//!
//! Every pooled leaf is work-shared by row bands across the pool, whatever
//! the schedule. Its [`Pricing`] names the differences for the task-graph
//! plan: how a leaf, an inline subtree below the spawn depth, and operand
//! migration at a spawned node's prepare and combine tasks are priced, and,
//! for a plan spread over a group of cluster nodes, which nodes run which
//! product and what crosses the fabric.
//!
//! Arithmetic order, event counts and task order belong to the walker, so
//! every schedule computes the same bits. `Untied` is the BOTS pricing;
//! CAPS's BFS/DFS schedule and pricing live in `powerscale-caps`, and the
//! node-group pricing of distributed CAPS in `powerscale-cluster`.

use powerscale_machine::{KernelClass, TaskCost, TaskGraph, TaskId};
use powerscale_trace::Category;

/// What a schedule decides about one executed Strassen recursion.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Entry `i` is the worker the root node's product `i` (in spawn
    /// order) is seeded onto; `None` leaves every product on its
    /// spawner's own deque.
    pub seed: Option<[usize; 7]>,
    /// The trace category of internal-node spans. Its label names the
    /// multiply in errors.
    pub category: Category,
    /// Internal-node span names: spawned, then inline.
    pub spans: [&'static str; 2],
}

/// How a schedule prices one Strassen recursion's task-graph plan.
///
/// A pricing covers the subtree of one group of cluster nodes. The last
/// four methods are what a group wider than one node needs; their defaults
/// are the one-node plan: a child is priced like its parent, every task
/// runs on node 0, nothing crosses the fabric, and the spawn depth decides
/// where the recursion goes inline.
pub trait Pricing: Clone {
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

    /// `true` when the subtree at `depth` runs inline, below the spawn
    /// depth `task_depth`; a node group goes inline (node-local) once it
    /// is one node wide.
    fn inline(&self, depth: u32, task_depth: u32) -> bool {
        depth >= task_depth
    }

    /// The pricing of the subtree that computes the product at position
    /// `launch` of [`crate::arith::launch`].
    fn child(&self, _launch: usize) -> Self {
        self.clone()
    }

    /// The node this subtree's prepare and combine tasks run on.
    fn node(&self) -> usize {
        0
    }

    /// Fabric bytes of one quadrant-sized matrix (`hh` elements) that the
    /// child at `launch` does not already hold: what each of its two
    /// operands costs to ship in, and its product to ship back.
    fn fabric(&self, _launch: usize, _hh: u64) -> u64 {
        0
    }
}

/// The BOTS pricing: an untied task per product down to the spawn depth,
/// placed wherever a worker steals it. Placement-oblivious, so the plan
/// charges every spawned product and every inline subtree a full operand
/// migration. Its leaves are BOTS's sequential tasks; the executor shares
/// every pooled leaf regardless (DESIGN §6c).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Untied;

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
