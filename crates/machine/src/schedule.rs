//! The discrete-event scheduler with fluid bandwidth sharing and power
//! integration: the one engine behind every simulated schedule, on one
//! machine ([`simulate`]) or on a cluster of them ([`simulate_nodes`]).
//!
//! Each task is up to four fluid streams run by one core of its node. On a
//! cluster, its *fabric ingress* drains first: the link latency, then its
//! bytes at a share of the fabric's bisection (capped by the link rate).
//! Then an intra-node *communication* stream, then a *compute* stream
//! (private per-core rate) and a *memory* stream (share of its node's DRAM
//! bandwidth) draining concurrently. Events occur whenever any stream of any
//! running task empties; rates are recomputed at every event, which is
//! where contention lives — two memory-bound tasks on one node each see half
//! its bandwidth, two transfers each see half the fabric. Energy is
//! integrated interval-by-interval from the core states
//! (active/stalled/idle), the achieved byte rates and the fabric's power.

use crate::config::{ConfigError, Fabric, MachineConfig};
use crate::task::{TaskGraph, TaskId, ALL_KERNEL_CLASSES};
use std::collections::VecDeque;

/// Placement and timing of one task in a simulated schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledTask {
    /// The task.
    pub id: TaskId,
    /// Core it ran on, within its node.
    pub core: usize,
    /// Start time (s), fabric ingress included.
    pub start: f64,
    /// End time (s).
    pub end: f64,
}

/// Energy totals per RAPL-style plane, summed over all nodes, plus the
/// fabric.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Core plane (PP0): active/stall/idle core power integrated.
    pub pp0_joules: f64,
    /// DRAM plane: static plus per-byte dynamic energy.
    pub dram_joules: f64,
    /// Interconnect dynamic energy (accounted inside the package).
    pub comm_joules: f64,
    /// Package base (uncore/static) energy.
    pub pkg_base_joules: f64,
    /// Network plane: NIC and switch static power plus per-byte dynamic
    /// energy. Zero on a single machine.
    pub network_joules: f64,
}

impl EnergyBreakdown {
    /// Total package-plane energy: base + cores + interconnect (matches
    /// RAPL PKG, which contains PP0 but not DRAM on the paper's Haswell).
    pub fn pkg_joules(&self) -> f64 {
        self.pkg_base_joules + self.pp0_joules + self.comm_joules
    }

    /// Total energy over all planes.
    pub fn total_joules(&self) -> f64 {
        self.pkg_joules() + self.dram_joules + self.network_joules
    }

    /// Average power over all planes across `makespan` seconds.
    pub fn total_avg_watts(&self, makespan: f64) -> f64 {
        if makespan <= 0.0 {
            0.0
        } else {
            self.total_joules() / makespan
        }
    }

    /// Average package power over `makespan` seconds.
    pub fn pkg_avg_watts(&self, makespan: f64) -> f64 {
        if makespan <= 0.0 {
            0.0
        } else {
            self.pkg_joules() / makespan
        }
    }

    /// Average PP0 (core-plane) power over `makespan` seconds.
    pub fn pp0_avg_watts(&self, makespan: f64) -> f64 {
        if makespan <= 0.0 {
            0.0
        } else {
            self.pp0_joules / makespan
        }
    }

    /// Average DRAM-plane power over `makespan` seconds.
    pub fn dram_avg_watts(&self, makespan: f64) -> f64 {
        if makespan <= 0.0 {
            0.0
        } else {
            self.dram_joules / makespan
        }
    }
}

/// Result of simulating a [`TaskGraph`] on a machine or cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Total simulated wall-clock (s).
    pub makespan: f64,
    /// Per-task placement, indexed like the graph's ids.
    pub tasks: Vec<ScheduledTask>,
    /// Busy seconds per core, node-major (`node × cores-per-node + core`).
    pub core_busy: Vec<f64>,
    /// Integrated energy.
    pub energy: EnergyBreakdown,
    /// Number of cores simulated, over all nodes.
    pub cores: usize,
}

impl Schedule {
    /// Mean core utilisation in `[0, 1]`.
    pub fn utilisation(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.core_busy.iter().sum::<f64>() / (self.makespan * self.cores as f64)
    }

    /// Gantt data as CSV (`task,core,class,start,end`), suitable for
    /// plotting the schedule. `graph` must be the graph this schedule was
    /// produced from (it supplies the kernel classes).
    pub fn timeline_csv(&self, graph: &TaskGraph) -> String {
        let mut out = String::from("task,core,class,start,end\n");
        for t in &self.tasks {
            out.push_str(&format!(
                "{},{},{:?},{:.9},{:.9}\n",
                t.id.index(),
                t.core,
                graph.cost(t.id).class,
                t.start,
                t.end
            ));
        }
        out
    }
}

/// Streams below this are considered drained: fluid arithmetic can leave
/// subnormal residues whose drain time underflows to zero, freezing the
/// event loop (a Zeno deadlock).
const STREAM_EPS: f64 = 1e-6;

/// The stream a running task is draining. Work drains its compute and
/// memory streams together.
#[derive(Clone, Copy)]
enum Stream {
    Latency,
    Ingress,
    Comm,
    Work,
}

struct Running {
    /// The stream drained over the current interval (set each event).
    stream: Stream,
    id: TaskId,
    node: usize,
    core: usize,
    start: f64,
    rem_lat: f64,
    rem_net: f64,
    rem_comm: f64,
    rem_flops: f64,
    rem_mem: f64,
}

impl Running {
    fn finished(&self) -> bool {
        self.rem_lat < STREAM_EPS
            && self.rem_net < STREAM_EPS
            && self.rem_comm < STREAM_EPS
            && self.rem_flops < STREAM_EPS
            && self.rem_mem < STREAM_EPS
    }

    /// The first stream, in drain order, that still holds work.
    fn next_stream(&self) -> Stream {
        if self.rem_lat >= STREAM_EPS {
            Stream::Latency
        } else if self.rem_net >= STREAM_EPS {
            Stream::Ingress
        } else if self.rem_comm >= STREAM_EPS {
            Stream::Comm
        } else {
            Stream::Work
        }
    }
}

/// One node's contended streams under the current mix.
#[derive(Clone, Copy, Default)]
struct NodeLoad {
    comm_active: usize,
    mem_active: usize,
    comm_rate: f64,
    mem_rate: f64,
}

/// Subtracts progress from a stream, clamping near-empty residues to zero.
fn drain(rem: &mut f64, amount: f64) {
    *rem -= amount;
    if *rem < STREAM_EPS {
        *rem = 0.0;
    }
}

/// Simulates `graph` on `cores` cores of one `machine`.
///
/// Deterministic: ready tasks dispatch in FIFO order of becoming ready
/// (ties broken by task id), onto the lowest-numbered idle core.
///
/// # Panics
/// Panics if `cores == 0`, or with the [`ConfigError`] if `machine` fails
/// [`MachineConfig::validate`] or `graph` places tasks off node 0 or
/// carries fabric ingress.
pub fn simulate(graph: &TaskGraph, machine: &MachineConfig, cores: usize) -> Schedule {
    assert!(cores > 0, "simulate requires at least one core");
    if let Err(e) = check(graph, machine, 1, None) {
        panic!("cannot simulate: {e}");
    }
    run(graph, machine, cores, 1, None)
}

/// Simulates `graph` on `nodes` copies of `machine` (all of each node's
/// cores) joined by `fabric`. Each task runs on the node
/// [`TaskGraph::add_on`] pinned it to; within a node the semantics are
/// [`simulate`]'s, and on one node with no ingress the schedule is
/// bit-identical to it apart from the network energy plane.
pub fn simulate_nodes(
    graph: &TaskGraph,
    machine: &MachineConfig,
    nodes: usize,
    fabric: &Fabric,
) -> Result<Schedule, ConfigError> {
    fabric.validate()?;
    check(graph, machine, nodes, Some(fabric))?;
    Ok(run(graph, machine, machine.cores, nodes, Some(fabric)))
}

/// Everything that would make the event loop stall or never finish.
fn check(
    graph: &TaskGraph,
    machine: &MachineConfig,
    nodes: usize,
    fabric: Option<&Fabric>,
) -> Result<(), ConfigError> {
    machine.validate()?;
    let placed = graph.placement_nodes();
    if placed > nodes {
        return Err(ConfigError::Placement { placed, nodes });
    }
    if fabric.is_none() && graph.total_net_bytes() > 0 {
        return Err(ConfigError::NoFabric);
    }
    Ok(())
}

/// The event loop, on validated inputs.
fn run(
    graph: &TaskGraph,
    machine: &MachineConfig,
    cores: usize,
    nodes: usize,
    fabric: Option<&Fabric>,
) -> Schedule {
    let n = graph.len();
    // Successors as one flat list (two allocations, not one per task):
    // count each task's successors, prefix-sum the counts into range ends,
    // then fill backwards, leaving `first[t]..first[t + 1]` as task `t`'s
    // successors in id order.
    let mut indeg: Vec<usize> = graph.nodes.iter().map(|t| t.deps.len()).collect();
    let mut first = vec![0usize; n + 1];
    for d in graph.nodes.iter().flat_map(|t| &t.deps) {
        first[d.index()] += 1;
    }
    for i in 0..n {
        first[i + 1] += first[i];
    }
    let mut children = vec![0u32; first[n]];
    for (i, task) in graph.nodes.iter().enumerate().rev() {
        for d in task.deps.iter().rev() {
            first[d.index()] -= 1;
            children[first[d.index()]] = i as u32;
        }
    }
    let flop_rate = ALL_KERNEL_CLASSES.map(|class| machine.compute.achieved_flops(class));
    let total_cores = nodes * cores;
    let mut ready: VecDeque<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
    let mut running: Vec<Running> = Vec::with_capacity(total_cores);
    let mut placed: Vec<Option<ScheduledTask>> = vec![None; n];
    let mut core_busy = vec![0.0f64; total_cores];
    let mut loads = vec![NodeLoad::default(); nodes];
    let mut energy = EnergyBreakdown::default();
    let mut completed = 0usize;
    let mut t = 0.0f64;

    while completed < n {
        // Dispatch in ready order, each task onto the lowest-numbered idle
        // core of its node; a task whose node is full keeps its place.
        let mut i = 0;
        while running.len() < total_cores && i < ready.len() {
            let id = TaskId(ready[i]);
            let task = &graph.nodes[id.index()];
            let taken = |c: usize| running.iter().any(|r| r.node == task.node && r.core == c);
            let Some(core) = (0..cores).find(|&c| !taken(c)) else {
                i += 1;
                continue;
            };
            ready.remove(i);
            running.push(Running {
                stream: Stream::Work,
                id,
                node: task.node,
                core,
                start: t,
                rem_lat: match fabric {
                    Some(f) if task.net_bytes > 0 => f.link_latency_s,
                    _ => 0.0,
                },
                rem_net: task.net_bytes as f64,
                rem_comm: task.cost.comm_bytes as f64,
                rem_flops: task.cost.flops as f64,
                rem_mem: task.cost.dram_bytes as f64,
            });
        }
        assert!(
            !running.is_empty(),
            "scheduler stall: {completed}/{n} done but nothing runnable (invalid DAG?)"
        );

        // Rates under the current mix.
        let mut net_active = 0usize;
        for l in &mut loads {
            l.comm_active = 0;
            l.mem_active = 0;
        }
        for r in &mut running {
            r.stream = r.next_stream();
            match r.stream {
                Stream::Latency => {}
                Stream::Ingress => net_active += 1,
                Stream::Comm => loads[r.node].comm_active += 1,
                Stream::Work => {
                    if r.rem_mem >= STREAM_EPS {
                        loads[r.node].mem_active += 1;
                    }
                }
            }
        }
        for l in &mut loads {
            l.comm_rate = machine.comm_bw_bytes_per_s / l.comm_active.max(1) as f64;
            l.mem_rate = (machine.dram_bw_bytes_per_s / l.mem_active.max(1) as f64)
                .min(machine.core_dram_bw_bytes_per_s);
        }
        let net_rate = match fabric {
            Some(f) if net_active > 0 => {
                (f.net_bw_bytes_per_s / net_active as f64).min(f.link_bw_bytes_per_s)
            }
            _ => 0.0,
        };

        // Next event: earliest single-stream depletion.
        let mut dt = f64::INFINITY;
        for r in &running {
            match r.stream {
                Stream::Latency => dt = dt.min(r.rem_lat),
                Stream::Ingress => dt = dt.min(r.rem_net / net_rate),
                Stream::Comm => dt = dt.min(r.rem_comm / loads[r.node].comm_rate),
                Stream::Work => {
                    if r.rem_flops >= STREAM_EPS {
                        let rate = flop_rate[graph.cost(r.id).class.index()];
                        dt = dt.min(r.rem_flops / rate);
                    }
                    if r.rem_mem >= STREAM_EPS {
                        dt = dt.min(r.rem_mem / loads[r.node].mem_rate);
                    }
                    if r.finished() {
                        dt = 0.0;
                    }
                }
            }
        }
        debug_assert!(dt.is_finite(), "no stream can progress");
        let dt = dt.max(0.0);

        // Energy integration over [t, t+dt].
        if dt > 0.0 {
            let p = &machine.power;
            let nodes_f = nodes as f64;
            let mut pp0 = (total_cores - running.len()) as f64 * p.core_idle_w;
            for r in &running {
                pp0 += match r.stream {
                    Stream::Work if r.rem_flops >= STREAM_EPS => {
                        p.core_active_w[graph.cost(r.id).class.index()]
                    }
                    _ => p.core_stall_w,
                };
            }
            energy.pp0_joules += pp0 * dt;
            energy.pkg_base_joules += nodes_f * p.pkg_base_w * dt;
            let mut dram_dyn_bytes = 0.0;
            let mut comm_bytes = 0.0;
            for l in &loads {
                dram_dyn_bytes += l.mem_active as f64 * l.mem_rate * dt;
                if l.comm_active > 0 {
                    comm_bytes += machine.comm_bw_bytes_per_s * dt;
                }
            }
            energy.dram_joules +=
                nodes_f * p.dram_static_w * dt + p.dram_joule_per_byte * dram_dyn_bytes;
            energy.comm_joules += p.comm_joule_per_byte * comm_bytes;
            if let Some(f) = fabric {
                let moved = net_active as f64 * net_rate * dt;
                energy.network_joules +=
                    (nodes_f * f.nic_idle_w + f.switch_w) * dt + f.nic_joule_per_byte * moved;
            }
        }

        // Advance streams.
        t += dt;
        for r in &mut running {
            match r.stream {
                Stream::Latency => drain(&mut r.rem_lat, dt),
                Stream::Ingress => drain(&mut r.rem_net, net_rate * dt),
                Stream::Comm => drain(&mut r.rem_comm, loads[r.node].comm_rate * dt),
                Stream::Work => {
                    if r.rem_flops >= STREAM_EPS {
                        let rate = flop_rate[graph.cost(r.id).class.index()];
                        drain(&mut r.rem_flops, rate * dt);
                    }
                    if r.rem_mem >= STREAM_EPS {
                        drain(&mut r.rem_mem, loads[r.node].mem_rate * dt);
                    }
                }
            }
        }

        // Completions (stable order: by position, i.e. dispatch order).
        let mut i = 0;
        while i < running.len() {
            if running[i].finished() {
                let r = running.remove(i);
                placed[r.id.index()] = Some(ScheduledTask {
                    id: r.id,
                    core: r.core,
                    start: r.start,
                    end: t,
                });
                core_busy[r.node * cores + r.core] += t - r.start;
                completed += 1;
                for &c in &children[first[r.id.index()]..first[r.id.index() + 1]] {
                    indeg[c as usize] -= 1;
                    if indeg[c as usize] == 0 {
                        ready.push_back(c);
                    }
                }
            } else {
                i += 1;
            }
        }
    }

    Schedule {
        makespan: t,
        tasks: placed
            .into_iter()
            .map(|p| p.expect("all tasks placed"))
            .collect(),
        core_busy,
        energy,
        cores: total_cores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{e3_1225, ideal_test_machine};
    use crate::task::{KernelClass, TaskCost, TaskGraph};

    fn flops(n: u64) -> TaskCost {
        TaskCost::compute(KernelClass::PackedGemm, n)
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new();
        let s = simulate(&g, &ideal_test_machine(2), 2);
        assert_eq!(s.makespan, 0.0);
        assert!(s.tasks.is_empty());
    }

    #[test]
    fn single_task_duration_exact() {
        // 1 Gflop on the 1 Gflop/s ideal machine = exactly 1 s.
        let mut g = TaskGraph::new();
        g.add(flops(1_000_000_000), &[]);
        let s = simulate(&g, &ideal_test_machine(1), 1);
        assert!((s.makespan - 1.0).abs() < 1e-9);
        assert!((s.core_busy[0] - 1.0).abs() < 1e-9);
        assert!((s.utilisation() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn independent_tasks_scale_linearly() {
        let mut g = TaskGraph::new();
        for _ in 0..8 {
            g.add(flops(1_000_000_000), &[]);
        }
        let m = ideal_test_machine(4);
        let s1 = simulate(&g, &m, 1);
        let s4 = simulate(&g, &m, 4);
        assert!((s1.makespan - 8.0).abs() < 1e-9);
        assert!((s4.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn chain_does_not_scale() {
        let mut g = TaskGraph::new();
        let mut prev = None;
        for _ in 0..4 {
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(g.add(flops(1_000_000_000), &deps));
        }
        let m = ideal_test_machine(4);
        let s4 = simulate(&g, &m, 4);
        assert!((s4.makespan - 4.0).abs() < 1e-9, "chain is sequential");
    }

    #[test]
    fn dependencies_respected() {
        let mut g = TaskGraph::new();
        let a = g.add(flops(1_000_000_000), &[]);
        let b = g.add(flops(500_000_000), &[a]);
        let s = simulate(&g, &ideal_test_machine(2), 2);
        let ta = s.tasks[a.index()];
        let tb = s.tasks[b.index()];
        assert!(tb.start >= ta.end - 1e-12);
    }

    #[test]
    fn makespan_bounds_hold() {
        // Brent's bounds: max(CP, W/P) <= makespan <= CP + W/P.
        let m = e3_1225();
        let mut g = TaskGraph::new();
        let mut layer = Vec::new();
        for i in 0..3 {
            let mut next = Vec::new();
            for j in 0..5 {
                let deps: Vec<_> = if i == 0 { vec![] } else { layer.clone() };
                let cost = TaskCost::new(
                    KernelClass::LeafGemm,
                    (j + 1) * 100_000_000,
                    (j + 1) * 1_000_000,
                    0,
                );
                next.push(g.add(cost, &deps));
            }
            layer = next;
        }
        for p in [1usize, 2, 3, 4] {
            let s = simulate(&g, &m, p);
            let cp = g.critical_path_seconds(&m);
            let w = g.total_work_seconds(&m);
            let lower = cp.max(w / p as f64);
            // Contention can stretch durations beyond unloaded estimates, so
            // allow the upper bound some slack but require the lower bound
            // strictly.
            assert!(
                s.makespan >= lower - 1e-9,
                "p={p}: makespan {} < lower bound {lower}",
                s.makespan
            );
            assert!(
                s.makespan <= (cp + w / p as f64) * 2.0 + 1e-9,
                "p={p}: makespan {} way over greedy bound",
                s.makespan
            );
        }
    }

    #[test]
    fn bandwidth_contention_stretches_memory_tasks() {
        // Two memory-only tasks: one core runs them back-to-back at the
        // per-core ceiling (10 GB/s); two cores split the 12.8 GB/s bus.
        // The bus, not the core count, is the limit.
        let m = e3_1225();
        let bytes = 1_280_000_000u64; // 0.1 s at full bus bandwidth
        let mut g = TaskGraph::new();
        g.add(TaskCost::new(KernelClass::Elementwise, 0, bytes, 0), &[]);
        g.add(TaskCost::new(KernelClass::Elementwise, 0, bytes, 0), &[]);
        let s1 = simulate(&g, &m, 1);
        let s2 = simulate(&g, &m, 2);
        let t1_expect = 2.0 * bytes as f64 / m.core_dram_bw_bytes_per_s;
        assert!((s1.makespan - t1_expect).abs() < 1e-6, "t1 {}", s1.makespan);
        assert!((s2.makespan - 0.2).abs() < 1e-6, "t2 {}", s2.makespan);
        // The second core helps exactly up to the bus limit.
        assert!(s2.makespan < s1.makespan);
    }

    #[test]
    fn compute_tasks_do_scale_under_same_conditions() {
        // Contrast with the memory test: compute-bound tasks double up fine.
        let m = e3_1225();
        let mut g = TaskGraph::new();
        g.add(flops(2_304_000_000), &[]); // 0.1 s at 23.04 Gflop/s achieved
        g.add(flops(2_304_000_000), &[]);
        let s1 = simulate(&g, &m, 1);
        let s2 = simulate(&g, &m, 2);
        assert!((s1.makespan / s2.makespan - 2.0).abs() < 0.01);
    }

    #[test]
    fn energy_components_positive_and_consistent() {
        let m = e3_1225();
        let mut g = TaskGraph::new();
        g.add(
            TaskCost::new(
                KernelClass::PackedGemm,
                1_000_000_000,
                10_000_000,
                1_000_000,
            ),
            &[],
        );
        let s = simulate(&g, &m, 4);
        assert!(s.energy.pp0_joules > 0.0);
        assert!(s.energy.dram_joules > 0.0);
        assert!(s.energy.comm_joules > 0.0);
        assert!(s.energy.pkg_joules() > s.energy.pp0_joules);
        assert!(s.energy.total_joules() > s.energy.pkg_joules());
        let w = s.energy.pkg_avg_watts(s.makespan);
        assert!(w > m.power.pkg_base_w, "package power above base: {w}");
    }

    #[test]
    fn more_active_cores_draw_more_power() {
        let m = e3_1225();
        let per_core_flops = 2_304_000_000u64;
        // 4 independent tasks.
        let mut g = TaskGraph::new();
        for _ in 0..4 {
            g.add(flops(per_core_flops), &[]);
        }
        let s1 = simulate(&g, &m, 1);
        let s4 = simulate(&g, &m, 4);
        let w1 = s1.energy.pkg_avg_watts(s1.makespan);
        let w4 = s4.energy.pkg_avg_watts(s4.makespan);
        assert!(
            w4 - w1 > 2.0 * (m.power.core_active_w[0] - m.power.core_idle_w) * 0.9,
            "w1={w1}, w4={w4}"
        );
    }

    #[test]
    fn stalled_cores_draw_less_than_active() {
        let m = e3_1225();
        // Memory-bound task: core mostly stalled.
        let mut gm = TaskGraph::new();
        gm.add(
            TaskCost::new(KernelClass::Elementwise, 1000, 1_280_000_000, 0),
            &[],
        );
        let sm = simulate(&gm, &m, 1);
        // Compute-bound task of the same duration (0.1 s).
        let mut gc = TaskGraph::new();
        gc.add(flops(2_304_000_000), &[]);
        let sc = simulate(&gc, &m, 1);
        let wm = sm.energy.pp0_avg_watts(sm.makespan);
        let wc = sc.energy.pp0_avg_watts(sc.makespan);
        assert!(wm < wc, "stalled {wm} W should be below active {wc} W");
    }

    #[test]
    fn comm_phase_delays_start_of_work() {
        let m = e3_1225();
        let mut g = TaskGraph::new();
        let comm_bytes = 4_500_000_000u64; // 0.1 s at 45 GB/s
        g.add(TaskCost::new(KernelClass::Control, 0, 0, comm_bytes), &[]);
        let s = simulate(&g, &m, 1);
        assert!((s.makespan - 0.1).abs() < 1e-6);
    }

    #[test]
    fn zero_cost_tasks_complete_instantly() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskCost::compute(KernelClass::Control, 0), &[]);
        let b = g.add(TaskCost::compute(KernelClass::Control, 0), &[a]);
        let _ = b;
        let s = simulate(&g, &ideal_test_machine(1), 1);
        assert_eq!(s.makespan, 0.0);
        assert_eq!(s.tasks.len(), 2);
    }

    #[test]
    fn timeline_csv_lists_every_task() {
        let m = e3_1225();
        let mut g = TaskGraph::new();
        let a = g.add(flops(1_000_000), &[]);
        g.add(TaskCost::new(KernelClass::Elementwise, 10, 1_000, 0), &[a]);
        let s = simulate(&g, &m, 2);
        let csv = s.timeline_csv(&g);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("PackedGemm"));
        assert!(csv.contains("Elementwise"));
        assert!(csv.starts_with("task,core,class,start,end"));
    }

    #[test]
    fn determinism() {
        let m = e3_1225();
        let mut g = TaskGraph::new();
        let mut ids = Vec::new();
        for i in 0..20u64 {
            let deps: Vec<TaskId> = ids
                .iter()
                .copied()
                .filter(|t: &TaskId| t.index().is_multiple_of(3))
                .collect();
            ids.push(g.add(
                TaskCost::new(KernelClass::LeafGemm, i * 10_000_000, i * 1_000, 0),
                &deps,
            ));
        }
        let a = simulate(&g, &m, 3);
        let b = simulate(&g, &m, 3);
        assert_eq!(a, b);
    }

    /// The QDR-class fabric of the cluster presets: 4 GB/s links, a
    /// bisection of 4 GB/s per node pair, 1.5 µs latency.
    fn qdr(nodes: usize) -> Fabric {
        Fabric {
            link_bw_bytes_per_s: 4.0e9,
            net_bw_bytes_per_s: 4.0e9 * (nodes as f64 / 2.0).max(1.0),
            link_latency_s: 1.5e-6,
            nic_idle_w: 4.0,
            nic_joule_per_byte: 0.5e-9,
            switch_w: 3.0 * nodes as f64,
        }
    }

    /// 0.1 s of packed GEMM on one e3_1225 core.
    const TENTH: u64 = 2_304_000_000;

    #[test]
    fn single_node_matches_flop_rate() {
        let s = simulate_nodes(&g_on_node0(1), &e3_1225(), 1, &qdr(1)).unwrap();
        assert!((s.makespan - 0.1).abs() < 1e-6, "{}", s.makespan);
    }

    #[test]
    fn nodes_compute_in_parallel() {
        let m = e3_1225();
        // 16 tenth-second tasks fill 4 nodes x 4 cores exactly once.
        let mut g = TaskGraph::new();
        for k in 0..16 {
            g.add_on(k % 4, 0, flops(TENTH), &[]);
        }
        let s = simulate_nodes(&g, &m, 4, &qdr(4)).unwrap();
        assert!((s.makespan - 0.1).abs() < 1e-6, "{}", s.makespan);
        assert_eq!(s.cores, 16);
        assert!((s.utilisation() - 1.0).abs() < 1e-6);
        // On one node the same 16 tasks take four rounds.
        let one = simulate(&g_on_node0(16), &m, 4);
        assert!((one.makespan - 0.4).abs() < 1e-6, "{}", one.makespan);
    }

    fn g_on_node0(tasks: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        for _ in 0..tasks {
            g.add(flops(TENTH), &[]);
        }
        g
    }

    #[test]
    fn network_transfer_delays_start() {
        let mut g = TaskGraph::new();
        let producer = g.add(flops(TENTH), &[]);
        // 400 MB over the 4 GB/s link: +0.1 s before the consumer starts.
        let consumer = g.add_on(1, 400_000_000, flops(TENTH), &[producer]);
        let s = simulate_nodes(&g, &e3_1225(), 2, &qdr(2)).unwrap();
        assert!((s.makespan - 0.3).abs() < 1e-3, "{}", s.makespan);
        assert!((s.tasks[consumer.index()].start - 0.1).abs() < 1e-6);
    }

    #[test]
    fn latency_paid_once_per_transfer() {
        let fabric = Fabric {
            link_latency_s: 0.05,
            ..qdr(2)
        };
        let mut g = TaskGraph::new();
        g.add_on(1, 1, TaskCost::compute(KernelClass::Control, 0), &[]);
        let s = simulate_nodes(&g, &e3_1225(), 2, &fabric).unwrap();
        assert!((s.makespan - 0.05).abs() < 1e-6, "{}", s.makespan);
        // No ingress, no latency.
        let mut g = TaskGraph::new();
        g.add_on(1, 0, TaskCost::compute(KernelClass::Control, 0), &[]);
        assert_eq!(
            simulate_nodes(&g, &e3_1225(), 2, &fabric).unwrap().makespan,
            0.0
        );
    }

    #[test]
    fn fabric_shared_among_transfers() {
        // Two concurrent 400 MB transfers share the 4 GB/s bisection.
        let mut g = TaskGraph::new();
        for node in [0, 1] {
            g.add_on(
                node,
                400_000_000,
                TaskCost::compute(KernelClass::Control, 0),
                &[],
            );
        }
        let s = simulate_nodes(&g, &e3_1225(), 2, &qdr(2)).unwrap();
        assert!((s.makespan - 0.2).abs() < 1e-3, "{}", s.makespan);
    }

    #[test]
    fn energy_includes_network_plane() {
        let m = e3_1225();
        let fabric = qdr(2);
        let mut g = TaskGraph::new();
        g.add_on(1, 100_000_000, flops(TENTH), &[]);
        let s = simulate_nodes(&g, &m, 2, &fabric).unwrap();
        let e = s.energy;
        assert!(e.network_joules > 0.0 && e.pkg_joules() > 0.0);
        assert_eq!(
            e.total_joules(),
            e.pkg_joules() + e.dram_joules + e.network_joules
        );
        // Above the idle floor of two nodes, two NICs and the switch.
        let node_idle = m.power.pkg_base_w + m.power.dram_static_w + 4.0 * m.power.core_idle_w;
        let idle = 2.0 * (node_idle + fabric.nic_idle_w) + fabric.switch_w;
        assert!(e.total_avg_watts(s.makespan) > idle);
        // A single machine has no network plane.
        assert_eq!(simulate(&g_on_node0(1), &m, 1).energy.network_joules, 0.0);
    }

    #[test]
    fn one_node_is_the_smp_schedule() {
        // The same graph through both entries: identical bits everywhere
        // but the network plane, which only the fabric call charges.
        let m = e3_1225();
        let mut g = TaskGraph::new();
        let mut ids: Vec<TaskId> = Vec::new();
        for i in 0..40u64 {
            let deps: Vec<TaskId> = ids.iter().copied().rev().step_by(3).take(3).collect();
            let class = ALL_KERNEL_CLASSES[(i % 5) as usize];
            let cost = TaskCost::new(
                class,
                i * 30_000_000,
                (i % 7) * 9_000_000,
                (i % 4) * 1_000_000,
            );
            ids.push(g.add(cost, &deps));
        }
        let smp = simulate(&g, &m, 4);
        let mut one = simulate_nodes(&g, &m, 1, &qdr(1)).unwrap();
        assert!(one.energy.network_joules > 0.0);
        one.energy.network_joules = 0.0;
        assert_eq!(smp, one);
    }

    #[test]
    fn placement_beyond_cluster_rejected() {
        let mut g = TaskGraph::new();
        g.add_on(5, 0, flops(1), &[]);
        assert_eq!(
            simulate_nodes(&g, &e3_1225(), 2, &qdr(2)),
            Err(ConfigError::Placement {
                placed: 6,
                nodes: 2
            })
        );
        assert_eq!(
            simulate_nodes(&g, &e3_1225(), 0, &qdr(2)),
            Err(ConfigError::Placement {
                placed: 6,
                nodes: 0
            })
        );
    }

    #[test]
    #[should_panic(expected = "Placement { placed: 2, nodes: 1 }")]
    fn simulate_rejects_a_second_node() {
        let mut g = TaskGraph::new();
        g.add_on(1, 0, flops(1), &[]);
        simulate(&g, &e3_1225(), 4);
    }

    #[test]
    #[should_panic(expected = "NoFabric")]
    fn simulate_rejects_fabric_ingress() {
        let mut g = TaskGraph::new();
        g.add_on(0, 10, flops(1), &[]);
        simulate(&g, &e3_1225(), 4);
    }

    #[test]
    fn invalid_fabric_rejected() {
        let g = g_on_node0(1);
        let fabric = Fabric {
            net_bw_bytes_per_s: 0.0,
            ..qdr(2)
        };
        assert_eq!(
            simulate_nodes(&g, &e3_1225(), 2, &fabric),
            Err(ConfigError::NetBandwidth(0.0))
        );
    }

    /// Once a release-build hang: a zero DRAM rate made the step infinite,
    /// the drained residue NaN, and the loop never finished.
    #[test]
    #[should_panic(expected = "DramBandwidth(0.0)")]
    fn zero_dram_rate_is_rejected_not_hung() {
        let mut m = e3_1225();
        m.dram_bw_bytes_per_s = 0.0;
        let mut g = TaskGraph::new();
        g.add(TaskCost::new(KernelClass::Elementwise, 10, 1_000, 0), &[]);
        assert_eq!(
            simulate_nodes(&g, &m, 1, &qdr(1)),
            Err(ConfigError::DramBandwidth(0.0))
        );
        simulate(&g, &m, 1);
    }

    #[test]
    fn determinism_on_a_cluster() {
        let m = e3_1225();
        let mut g = TaskGraph::new();
        let mut prev = Vec::new();
        for i in 0..30u64 {
            let deps: Vec<_> = prev.iter().copied().take(2).collect();
            let cost = TaskCost::new(KernelClass::LeafGemm, i * 1_000_000, i * 10_000, 0);
            prev.insert(0, g.add_on((i % 3) as usize, i * 100, cost, &deps));
        }
        let a = simulate_nodes(&g, &m, 3, &qdr(3)).unwrap();
        assert_eq!(a, simulate_nodes(&g, &m, 3, &qdr(3)).unwrap());
    }
}
