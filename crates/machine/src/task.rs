//! Task graphs: the work representation algorithms hand to the simulator.

use powerscale_counters::{Event, Profile};

/// The kind of kernel a task runs — selects its compute efficiency and its
/// active-core power draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[repr(usize)]
pub enum KernelClass {
    /// Packed, register-tiled GEMM macro-kernel (the OpenBLAS-style path):
    /// near-peak flop rate, SIMD units saturated.
    PackedGemm,
    /// Unpacked dense leaf solver (the BOTS Strassen cutover kernel):
    /// considerably below peak — strided operands, no packing.
    LeafGemm,
    /// Elementwise add/sub passes (Strassen quadrant combinations):
    /// bandwidth-bound, arithmetic units mostly idle.
    Elementwise,
    /// Panel packing / buffer copies: pure data movement.
    Pack,
    /// Scheduling/recursion control: negligible work, nonzero latency.
    Control,
}

/// Number of [`KernelClass`] variants.
pub(crate) const KERNEL_CLASS_COUNT: usize = 5;

/// All kernel classes in `repr` order.
pub const ALL_KERNEL_CLASSES: [KernelClass; KERNEL_CLASS_COUNT] = [
    KernelClass::PackedGemm,
    KernelClass::LeafGemm,
    KernelClass::Elementwise,
    KernelClass::Pack,
    KernelClass::Control,
];

impl KernelClass {
    /// Stable array index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Work descriptor for one task.
///
/// A task is modelled as up to three fluid streams executed by one core:
/// a *communication* stream (inter-core transfer that must complete before
/// work starts), then a *compute* stream (flops at the class's efficiency)
/// and a *memory* stream (DRAM traffic at the contended bandwidth share)
/// progressing concurrently — the task completes when both drain (roofline
/// semantics).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TaskCost {
    /// Kernel class (efficiency + power bucket).
    pub class: KernelClass,
    /// Floating-point operations.
    pub flops: u64,
    /// DRAM bytes moved (misses + writebacks attributable to this task).
    pub dram_bytes: u64,
    /// Bytes transferred between cores before the task can start.
    pub comm_bytes: u64,
}

impl TaskCost {
    /// A pure-compute task.
    pub fn compute(class: KernelClass, flops: u64) -> Self {
        TaskCost {
            class,
            flops,
            dram_bytes: 0,
            comm_bytes: 0,
        }
    }

    /// A full descriptor.
    pub fn new(class: KernelClass, flops: u64, dram_bytes: u64, comm_bytes: u64) -> Self {
        TaskCost {
            class,
            flops,
            dram_bytes,
            comm_bytes,
        }
    }

    /// Builds a cost from a counter [`Profile`] (flops from `FpOps+FpAdds`,
    /// DRAM bytes from the byte events, communication from `CommBytes`).
    pub fn from_profile(class: KernelClass, p: &Profile) -> Self {
        TaskCost {
            class,
            flops: p.total_flops(),
            dram_bytes: p
                .get(Event::BytesRead)
                .saturating_add(p.get(Event::BytesWritten))
                .saturating_add(p.get(Event::PackBytes)),
            comm_bytes: p.get(Event::CommBytes),
        }
    }

    /// `true` when the task carries no work at all.
    pub fn is_empty(&self) -> bool {
        self.flops == 0 && self.dram_bytes == 0 && self.comm_bytes == 0
    }
}

/// Identifier of a task within one [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TaskId(pub(crate) u32);

impl TaskId {
    /// Index into the graph's node list.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a node index (the inverse of [`TaskId::index`];
    /// only meaningful against the graph the index came from).
    pub fn from_index(index: usize) -> Self {
        TaskId(u32::try_from(index).expect("task index out of range"))
    }
}

#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct Node {
    pub(crate) cost: TaskCost,
    pub(crate) deps: Vec<TaskId>,
    /// Cluster node the task is pinned to (0 on a single machine).
    pub(crate) node: usize,
    /// Bytes that must arrive over the fabric before the task starts.
    pub(crate) net_bytes: u64,
}

/// A dependency DAG of [`TaskCost`]s, each pinned to a cluster node
/// (node 0 unless placed with [`TaskGraph::add_on`]).
///
/// Acyclicity is guaranteed by construction: a task may only depend on
/// previously added tasks.
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TaskGraph {
    pub(crate) nodes: Vec<Node>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Adds a task on node 0 with no fabric ingress, depending on `deps`;
    /// returns its id.
    ///
    /// # Panics
    /// Panics if any dependency id has not been returned by a prior `add`
    /// on this graph (which is what makes cycles unrepresentable).
    pub fn add(&mut self, cost: TaskCost, deps: &[TaskId]) -> TaskId {
        self.add_on(0, 0, cost, deps)
    }

    /// Adds a task pinned to cluster node `node` whose `net_bytes` of
    /// operands, produced on other nodes, must cross the fabric before it
    /// starts. `cost.comm_bytes` stays *intra-node* traffic.
    ///
    /// # Panics
    /// As [`TaskGraph::add`].
    pub fn add_on(
        &mut self,
        node: usize,
        net_bytes: u64,
        cost: TaskCost,
        deps: &[TaskId],
    ) -> TaskId {
        let id = TaskId(u32::try_from(self.nodes.len()).expect("task graph too large"));
        for d in deps {
            assert!(
                d.0 < id.0,
                "dependency {:?} does not precede task {:?}",
                d,
                id
            );
        }
        self.nodes.push(Node {
            cost,
            deps: deps.to_vec(),
            node,
            net_bytes,
        });
        id
    }

    /// Adds one work-shared loop nest on cluster node `node`: `ways` equal
    /// fluid shares of `(flops, dram_bytes)` of kernel `class` (the
    /// remainder goes to the first shares, so totals are exact), with the
    /// `net_bytes` of fabric ingress charged to share 0. Returns every
    /// share's id.
    ///
    /// # Panics
    /// As [`TaskGraph::add`].
    #[allow(clippy::too_many_arguments)]
    pub fn add_shared(
        &mut self,
        node: usize,
        net_bytes: u64,
        class: KernelClass,
        flops: u64,
        dram_bytes: u64,
        ways: usize,
        deps: &[TaskId],
    ) -> Vec<TaskId> {
        let ways = ways.max(1) as u64;
        (0..ways)
            .map(|w| {
                let f = flops / ways + u64::from(w < flops % ways);
                let b = dram_bytes / ways + u64::from(w < dram_bytes % ways);
                let net = if w == 0 { net_bytes } else { 0 };
                self.add_on(node, net, TaskCost::new(class, f, b, 0), deps)
            })
            .collect()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for an empty graph.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Cost of one task.
    pub fn cost(&self, id: TaskId) -> &TaskCost {
        &self.nodes[id.index()].cost
    }

    /// Dependencies of one task.
    pub fn deps(&self, id: TaskId) -> &[TaskId] {
        &self.nodes[id.index()].deps
    }

    /// Cluster node one task is pinned to.
    pub fn node(&self, id: TaskId) -> usize {
        self.nodes[id.index()].node
    }

    /// Fabric ingress of one task, in bytes.
    pub fn net_bytes(&self, id: TaskId) -> u64 {
        self.nodes[id.index()].net_bytes
    }

    /// Highest node index any task is pinned to, plus one (0 when empty).
    pub fn placement_nodes(&self) -> usize {
        self.nodes.iter().map(|n| n.node + 1).max().unwrap_or(0)
    }

    /// Sum of fabric ingress bytes over all tasks.
    pub fn total_net_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.net_bytes).sum()
    }

    /// Sum of flops over all tasks.
    pub fn total_flops(&self) -> u64 {
        self.nodes.iter().map(|n| n.cost.flops).sum()
    }

    /// Sum of DRAM bytes over all tasks.
    pub fn total_dram_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.cost.dram_bytes).sum()
    }

    /// Sum of communication bytes over all tasks.
    pub fn total_comm_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.cost.comm_bytes).sum()
    }

    /// Longest dependency chain measured in *unloaded* task durations
    /// (full bandwidth, no contention): the machine-specific lower bound on
    /// any schedule's makespan.
    pub fn critical_path_seconds(&self, machine: &crate::MachineConfig) -> f64 {
        let mut finish = vec![0.0f64; self.nodes.len()];
        let mut longest = 0.0f64;
        for (i, node) in self.nodes.iter().enumerate() {
            let ready: f64 = node
                .deps
                .iter()
                .map(|d| finish[d.index()])
                .fold(0.0, f64::max);
            let f = ready + machine.unloaded_duration(&node.cost);
            finish[i] = f;
            longest = longest.max(f);
        }
        longest
    }

    /// Total *unloaded* work in core-seconds: `T_1`, the sequential time.
    pub fn total_work_seconds(&self, machine: &crate::MachineConfig) -> f64 {
        self.nodes
            .iter()
            .map(|n| machine.unloaded_duration(&n.cost))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn add_and_query() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskCost::compute(KernelClass::PackedGemm, 100), &[]);
        let b = g.add(TaskCost::compute(KernelClass::Elementwise, 50), &[a]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.cost(b).flops, 50);
        assert_eq!(g.deps(b), &[a]);
        assert_eq!(g.total_flops(), 150);
    }

    #[test]
    fn add_on_records_node_and_ingress() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskCost::compute(KernelClass::PackedGemm, 100), &[]);
        assert_eq!((g.node(a), g.net_bytes(a), g.placement_nodes()), (0, 0, 1));
        let b = g.add_on(2, 64, TaskCost::compute(KernelClass::PackedGemm, 50), &[a]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.deps(b), &[a]);
        assert_eq!((g.node(b), g.net_bytes(b)), (2, 64));
        assert_eq!(g.placement_nodes(), 3);
        assert_eq!(g.total_flops(), 150);
        assert_eq!(g.total_net_bytes(), 64);
        assert_eq!(TaskGraph::new().placement_nodes(), 0);
    }

    #[test]
    fn add_shared_splits_exactly_and_charges_ingress_once() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskCost::compute(KernelClass::Control, 0), &[]);
        let ids = g.add_shared(2, 96, KernelClass::LeafGemm, 103, 57, 4, &[a]);
        assert_eq!(ids.len(), 4);
        let flops: Vec<u64> = ids.iter().map(|&id| g.cost(id).flops).collect();
        let dram: Vec<u64> = ids.iter().map(|&id| g.cost(id).dram_bytes).collect();
        assert_eq!((flops, dram), (vec![26, 26, 26, 25], vec![15, 14, 14, 14]));
        let net: Vec<u64> = ids.iter().map(|&id| g.net_bytes(id)).collect();
        assert_eq!(net, vec![96, 0, 0, 0]);
        assert!(ids.iter().all(|&id| g.node(id) == 2 && g.deps(id) == [a]));
        assert!(ids.iter().all(|&id| g.cost(id).comm_bytes == 0));
        // Zero ways still emits the work, as one share.
        assert_eq!(g.add_shared(0, 0, KernelClass::Pack, 9, 9, 0, &[]).len(), 1);
    }

    #[test]
    #[should_panic(expected = "does not precede")]
    fn forward_dependency_rejected() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskCost::compute(KernelClass::Control, 0), &[]);
        // Fabricate a not-yet-existing id.
        let bogus = TaskId(a.0 + 5);
        g.add(TaskCost::compute(KernelClass::Control, 0), &[bogus]);
    }

    #[test]
    #[should_panic(expected = "does not precede")]
    fn add_on_forward_dependency_rejected() {
        let mut g = TaskGraph::new();
        let a = g.add_on(1, 0, TaskCost::compute(KernelClass::Control, 0), &[]);
        let bogus = TaskId(a.0 + 3);
        g.add_on(1, 8, TaskCost::compute(KernelClass::Control, 0), &[bogus]);
    }

    #[test]
    fn cost_from_profile() {
        use powerscale_counters::Event;
        let p = Profile::from_pairs(&[
            (Event::FpOps, 1000),
            (Event::FpAdds, 24),
            (Event::BytesRead, 512),
            (Event::BytesWritten, 128),
            (Event::PackBytes, 64),
            (Event::CommBytes, 32),
        ]);
        let c = TaskCost::from_profile(KernelClass::LeafGemm, &p);
        assert_eq!(c.flops, 1024);
        assert_eq!(c.dram_bytes, 704);
        assert_eq!(c.comm_bytes, 32);
        assert!(!c.is_empty());
        assert!(TaskCost::compute(KernelClass::Control, 0).is_empty());
    }

    #[test]
    fn critical_path_chain_vs_fanout() {
        let m = presets::e3_1225();
        let cost = TaskCost::compute(KernelClass::PackedGemm, 1_000_000_000);
        // Chain of 4.
        let mut chain = TaskGraph::new();
        let mut prev: Option<TaskId> = None;
        for _ in 0..4 {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            prev = Some(chain.add(cost, &deps));
        }
        // Fan-out of 4.
        let mut fan = TaskGraph::new();
        for _ in 0..4 {
            fan.add(cost, &[]);
        }
        let cp_chain = chain.critical_path_seconds(&m);
        let cp_fan = fan.critical_path_seconds(&m);
        assert!((cp_chain / cp_fan - 4.0).abs() < 1e-9);
        // Total work identical.
        assert!((chain.total_work_seconds(&m) - fan.total_work_seconds(&m)).abs() < 1e-12);
    }

    #[test]
    fn kernel_class_indices_dense() {
        let mut seen = [false; KERNEL_CLASS_COUNT];
        for k in ALL_KERNEL_CLASSES {
            assert!(!seen[k.index()]);
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }
}
