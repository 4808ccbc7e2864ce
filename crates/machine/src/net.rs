//! Simulated message passing between per-node ranks.
//!
//! The cluster work before this module *declared* transfer volumes on task
//! graphs and let a fluid simulator integrate them. This module is the other
//! half of the story: ranks are real OS threads, messages carry real payloads
//! (matrix blocks, in practice), and **every byte that crosses a link is
//! metered by the transport itself** — the counters cannot disagree with the
//! execution because they *are* the execution.
//!
//! Topology follows the two-level shape of SNIPPETS.md Snippet 1: ranks are
//! grouped into nodes-of-a-chassis (`group_size`), intra-group traffic rides
//! the **scale-up** link model and inter-group traffic the **scale-out**
//! model, each with its own bandwidth, latency and efficiency derating.
//!
//! Time is analytic, not wall-clock: [`NetReport::makespan`] folds the
//! metered per-link traffic through the link models
//! (`bytes / (bw · eff) + msgs · latency` per rank, plus the rank's compute
//! seconds) and takes the slowest rank. The model is monotone in bandwidth by
//! construction, which the metamorphic tier asserts.
//!
//! Determinism: each rank's counters are accumulated by that rank alone, and
//! the per-link matrix is assembled from sender-side rows after all ranks
//! join, so reports are bit-identical across runs regardless of thread
//! interleaving. Blocking receives carry a timeout that converts a deadlock
//! into a typed [`NetError`], never a hang; a rank that fails or panics
//! poisons its peers, so their blocked receives return
//! [`NetError::PeerFailed`] at once instead of waiting the timeout out.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::Duration;

/// Anything that can travel through the simulated network.
///
/// The transport meters `payload_bytes()` per message; implementors report
/// the wire size of their actual data (matrix blocks report `rows · cols ·
/// size_of::<f64>()`).
pub trait NetPayload: Send {
    /// Bytes this payload occupies on the wire.
    fn payload_bytes(&self) -> u64;
}

impl NetPayload for Vec<f64> {
    fn payload_bytes(&self) -> u64 {
        (self.len() * std::mem::size_of::<f64>()) as u64
    }
}

impl NetPayload for Vec<u8> {
    fn payload_bytes(&self) -> u64 {
        self.len() as u64
    }
}

/// One link class: achievable bandwidth, per-message latency, efficiency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Peak bandwidth in bytes per second.
    pub bw_bytes_per_s: f64,
    /// Per-message latency in seconds (wire + software stack).
    pub latency_s: f64,
    /// Fraction of peak bandwidth actually achieved, in `(0, 1]`.
    pub efficiency: f64,
}

impl LinkModel {
    /// A link with the given bandwidth and latency at unit efficiency.
    pub fn new(bw_bytes_per_s: f64, latency_s: f64) -> Self {
        Self {
            bw_bytes_per_s,
            latency_s,
            efficiency: 1.0,
        }
    }

    /// Validate the model; `kind` names the link in error messages.
    pub fn validate(&self, kind: &'static str) -> Result<(), NetError> {
        if !self.bw_bytes_per_s.is_finite() || self.bw_bytes_per_s <= 0.0 {
            return Err(NetError::ZeroBandwidth { link: kind });
        }
        if !self.latency_s.is_finite() || self.latency_s < 0.0 {
            return Err(NetError::BadLatency { link: kind });
        }
        if !self.efficiency.is_finite() || self.efficiency <= 0.0 || self.efficiency > 1.0 {
            return Err(NetError::BadEfficiency { link: kind });
        }
        Ok(())
    }

    /// Seconds to move `bytes` in `msgs` messages over this link.
    pub(crate) fn transfer_seconds(&self, bytes: u64, msgs: u64) -> f64 {
        bytes as f64 / (self.bw_bytes_per_s * self.efficiency) + msgs as f64 * self.latency_s
    }
}

/// Two-level network topology: ranks in the same `group_size`-sized group
/// talk over the scale-up link, everyone else over scale-out.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Number of ranks (one per simulated node).
    pub nodes: usize,
    /// Ranks per scale-up group (chassis); `rank / group_size` is the group.
    pub group_size: usize,
    /// Link model for intra-group traffic.
    pub scale_up: LinkModel,
    /// Link model for inter-group traffic.
    pub scale_out: LinkModel,
    /// Blocking-receive timeout in seconds before a typed error is returned
    /// (a deadlock guard, not a modelled quantity).
    pub recv_timeout_s: f64,
}

impl NetConfig {
    /// A topology with the same link model everywhere and a 30 s deadlock
    /// guard.
    pub fn uniform(nodes: usize, link: LinkModel) -> Self {
        Self {
            nodes,
            group_size: nodes.max(1),
            scale_up: link,
            scale_out: link,
            recv_timeout_s: 30.0,
        }
    }

    /// Validate node counts, group size and both link models.
    pub fn validate(&self) -> Result<(), NetError> {
        if self.nodes == 0 {
            return Err(NetError::NoNodes);
        }
        if self.group_size == 0 {
            return Err(NetError::BadGroupSize {
                group_size: self.group_size,
            });
        }
        if !self.recv_timeout_s.is_finite() || self.recv_timeout_s <= 0.0 {
            return Err(NetError::BadLatency { link: "timeout" });
        }
        self.scale_up.validate("scale-up")?;
        self.scale_out.validate("scale-out")
    }

    /// The scale-up group a rank belongs to.
    pub(crate) fn group_of(&self, rank: usize) -> usize {
        rank / self.group_size
    }

    /// The link model traffic between `src` and `dst` rides on.
    pub fn link(&self, src: usize, dst: usize) -> &LinkModel {
        if self.group_of(src) == self.group_of(dst) {
            &self.scale_up
        } else {
            &self.scale_out
        }
    }
}

/// Typed transport failures. The transport never hangs: a blocked receive
/// times out into [`NetError::RecvTimeout`] and invalid configs are rejected
/// before any rank spawns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A link model has zero, negative or non-finite bandwidth.
    ZeroBandwidth {
        /// Which link class ("scale-up" / "scale-out").
        link: &'static str,
    },
    /// A link model has a negative or non-finite latency.
    BadLatency {
        /// Which link class.
        link: &'static str,
    },
    /// A link efficiency outside `(0, 1]`.
    BadEfficiency {
        /// Which link class.
        link: &'static str,
    },
    /// A topology with zero nodes.
    NoNodes,
    /// A zero scale-up group size.
    BadGroupSize {
        /// The offending group size.
        group_size: usize,
    },
    /// A send or receive addressed a rank outside `0..nodes`.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// The topology's node count.
        nodes: usize,
    },
    /// A blocking receive waited past the deadlock guard.
    RecvTimeout {
        /// The receiving rank.
        rank: usize,
        /// The rank it was waiting on.
        src: usize,
        /// The message tag it was matching.
        tag: u64,
    },
    /// Every peer sender hung up while this rank was still receiving.
    Disconnected {
        /// The receiving rank.
        rank: usize,
    },
    /// A peer's program returned an error or panicked while this rank was
    /// blocked receiving: the run is lost, so the receive gives up at once
    /// rather than waiting out the deadlock guard. [`run_spmd`] reports the
    /// peer's own failure, not this echo of it.
    PeerFailed {
        /// The receiving rank.
        rank: usize,
        /// The rank that failed.
        peer: usize,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::ZeroBandwidth { link } => {
                write!(f, "{link} link has zero or non-finite bandwidth")
            }
            NetError::BadLatency { link } => {
                write!(f, "{link} link has a negative or non-finite latency")
            }
            NetError::BadEfficiency { link } => {
                write!(f, "{link} link efficiency outside (0, 1]")
            }
            NetError::NoNodes => write!(f, "topology has zero nodes"),
            NetError::BadGroupSize { group_size } => {
                write!(f, "scale-up group size {group_size} is invalid")
            }
            NetError::RankOutOfRange { rank, nodes } => {
                write!(f, "rank {rank} outside topology of {nodes} nodes")
            }
            NetError::RecvTimeout { rank, src, tag } => write!(
                f,
                "rank {rank} timed out receiving (src {src}, tag {tag}) — deadlock guard"
            ),
            NetError::Disconnected { rank } => {
                write!(f, "all peers of rank {rank} disconnected")
            }
            NetError::PeerFailed { rank, peer } => {
                write!(f, "rank {rank} gave up receiving: rank {peer} failed")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Which phase of an SPMD program a message belongs to; counters are split
/// per phase so scatter/gather overheads can be separated from the
/// algorithm's own traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Initial operand distribution.
    Scatter,
    /// The algorithm proper (this is what communication bounds govern).
    Algo,
    /// Result collection.
    Gather,
}

impl Phase {
    /// Dense index into per-phase counter arrays.
    pub fn index(self) -> usize {
        match self {
            Phase::Scatter => 0,
            Phase::Algo => 1,
            Phase::Gather => 2,
        }
    }
}

/// Per-rank memory meter: bytes currently charged and the high-water mark.
///
/// The transport does not charge memory implicitly — the executor charges
/// what it allocates (received blocks included) so the meter reflects the
/// algorithm's residency policy, which is exactly the `M` in Eq. 8.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemMeter {
    /// Bytes currently charged.
    pub current_bytes: u64,
    /// Highest `current_bytes` ever observed.
    pub peak_bytes: u64,
}

impl MemMeter {
    /// Charge `bytes` and update the high-water mark.
    pub fn alloc(&mut self, bytes: u64) {
        self.current_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.current_bytes);
    }

    /// Release `bytes` (saturating; over-freeing clamps at zero).
    pub fn free(&mut self, bytes: u64) {
        self.current_bytes = self.current_bytes.saturating_sub(bytes);
    }
}

struct Msg<T> {
    src: usize,
    tag: u64,
    payload: T,
}

/// What travels on a rank's channel: data, or the unmetered notice that a
/// peer's program failed (which is what wakes a receive blocked on it).
enum Wire<T> {
    Data(Msg<T>),
    Failed(usize),
}

/// Per-rank traffic and memory statistics, indexed by [`Phase::index`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankStats {
    /// Bytes sent to other ranks, per phase.
    pub sent_bytes: [u64; 3],
    /// Messages sent to other ranks, per phase.
    pub sent_msgs: [u64; 3],
    /// Bytes received from other ranks, per phase.
    pub recv_bytes: [u64; 3],
    /// Messages received from other ranks, per phase.
    pub recv_msgs: [u64; 3],
    /// Memory meter at the end of the rank's program.
    pub mem: MemMeter,
}

/// Bytes and message count over one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Payload bytes carried.
    pub bytes: u64,
    /// Messages carried.
    pub msgs: u64,
}

/// One rank's handle on the simulated network.
///
/// Receives match on `(src, tag)` with out-of-order stashing, so a rank may
/// consume messages in any order its algorithm needs. Self-sends bypass the
/// wire entirely and are **not** metered — a rank keeping its own block costs
/// no communication, which is what makes the degenerate 1-node cluster's
/// traffic exactly zero.
pub struct Endpoint<T> {
    rank: usize,
    cfg: NetConfig,
    txs: Vec<Sender<Wire<T>>>,
    rx: Receiver<Wire<T>>,
    stash: Vec<Msg<T>>,
    /// The first peer known to have failed; receives no longer block.
    failed_peer: Option<usize>,
    phase: Phase,
    stats: RankStats,
    matrix_row: Vec<LinkTraffic>,
}

impl<T: NetPayload> Endpoint<T> {
    /// This rank's id in `0..nodes`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the topology.
    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    /// The topology this endpoint is attached to.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Switch the phase subsequent sends/receives are accounted under.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Charge bytes against this rank's memory meter.
    pub fn mem_alloc(&mut self, bytes: u64) {
        self.stats.mem.alloc(bytes);
    }

    /// Release bytes from this rank's memory meter.
    pub fn mem_free(&mut self, bytes: u64) {
        self.stats.mem.free(bytes);
    }

    /// This rank's memory high-water mark so far, in bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.stats.mem.peak_bytes
    }

    /// Send `payload` to `dst` under `tag`. Self-sends are delivered locally
    /// and unmetered; cross-rank sends are metered on this rank's counters
    /// and the `self → dst` link row, then enqueued without blocking.
    pub fn send(&mut self, dst: usize, tag: u64, payload: T) -> Result<(), NetError> {
        if dst >= self.cfg.nodes {
            return Err(NetError::RankOutOfRange {
                rank: dst,
                nodes: self.cfg.nodes,
            });
        }
        if dst == self.rank {
            self.stash.push(Msg {
                src: self.rank,
                tag,
                payload,
            });
            return Ok(());
        }
        let bytes = payload.payload_bytes();
        let p = self.phase.index();
        self.stats.sent_bytes[p] += bytes;
        self.stats.sent_msgs[p] += 1;
        self.matrix_row[dst].bytes += bytes;
        self.matrix_row[dst].msgs += 1;
        self.txs[dst]
            .send(Wire::Data(Msg {
                src: self.rank,
                tag,
                payload,
            }))
            .map_err(|_| NetError::Disconnected { rank: self.rank })
    }

    /// Tell every peer this rank's program failed (unmetered, never
    /// blocks; a peer that already finished has hung up, which is fine).
    fn poison_peers(&self) {
        for (peer, tx) in self.txs.iter().enumerate() {
            if peer != self.rank {
                let _ = tx.send(Wire::Failed(self.rank));
            }
        }
    }

    /// Blocking receive matching `(src, tag)`; other messages arriving in
    /// the meantime are stashed for later receives. Times out into a typed
    /// error after `recv_timeout_s` rather than hanging, and gives up with
    /// [`NetError::PeerFailed`] as soon as any peer's program has failed.
    pub fn recv(&mut self, src: usize, tag: u64) -> Result<T, NetError> {
        if src >= self.cfg.nodes {
            return Err(NetError::RankOutOfRange {
                rank: src,
                nodes: self.cfg.nodes,
            });
        }
        if let Some(pos) = self.stash.iter().position(|m| m.src == src && m.tag == tag) {
            let msg = self.stash.remove(pos);
            self.charge_recv(&msg);
            return Ok(msg.payload);
        }
        if src == self.rank {
            // A self-receive can only be satisfied from the stash.
            return Err(NetError::RecvTimeout {
                rank: self.rank,
                src,
                tag,
            });
        }
        // One absolute deadline for the whole matching receive. Re-arming
        // the full timeout per arriving message would let a steady stream
        // of stashable (non-matching) traffic defer the deadlock guard
        // indefinitely; against a fixed deadline, stashing consumes no
        // budget and the typed timeout still fires on schedule.
        let deadline = std::time::Instant::now() + Duration::from_secs_f64(self.cfg.recv_timeout_s);
        loop {
            if let Some(peer) = self.failed_peer {
                return Err(NetError::PeerFailed {
                    rank: self.rank,
                    peer,
                });
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            match self.rx.recv_timeout(remaining) {
                Ok(Wire::Data(msg)) if msg.src == src && msg.tag == tag => {
                    self.charge_recv(&msg);
                    return Ok(msg.payload);
                }
                Ok(Wire::Data(msg)) => self.stash.push(msg),
                Ok(Wire::Failed(peer)) => self.failed_peer = Some(peer),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(NetError::RecvTimeout {
                        rank: self.rank,
                        src,
                        tag,
                    })
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(NetError::Disconnected { rank: self.rank })
                }
            }
        }
    }

    fn charge_recv(&mut self, msg: &Msg<T>) {
        if msg.src == self.rank {
            return; // self-delivery is free
        }
        let p = self.phase.index();
        self.stats.recv_bytes[p] += msg.payload.payload_bytes();
        self.stats.recv_msgs[p] += 1;
    }

    fn into_stats(self) -> (RankStats, Vec<LinkTraffic>) {
        (self.stats, self.matrix_row)
    }
}

/// Metered outcome of an SPMD run: per-rank counters, the directed per-link
/// traffic matrix, and the topology they were measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct NetReport {
    /// The topology the run used.
    pub config: NetConfig,
    /// Per-rank counters, indexed by rank.
    pub ranks: Vec<RankStats>,
    /// `matrix[src][dst]`: traffic metered on the sender side.
    pub matrix: Vec<Vec<LinkTraffic>>,
}

impl NetReport {
    /// Total payload bytes that crossed any link (sender-side count).
    pub fn total_bytes(&self) -> u64 {
        self.matrix
            .iter()
            .flat_map(|row| row.iter())
            .map(|l| l.bytes)
            .sum()
    }

    /// Total messages that crossed any link.
    pub fn total_msgs(&self) -> u64 {
        self.matrix
            .iter()
            .flat_map(|row| row.iter())
            .map(|l| l.msgs)
            .sum()
    }

    /// Bytes a rank received in one phase.
    pub fn recv_bytes(&self, rank: usize, phase: Phase) -> u64 {
        self.ranks[rank].recv_bytes[phase.index()]
    }

    /// Bytes a rank sent in one phase.
    pub fn sent_bytes(&self, rank: usize, phase: Phase) -> u64 {
        self.ranks[rank].sent_bytes[phase.index()]
    }

    /// The largest per-rank *incoming* volume in one phase: every
    /// transported byte counted exactly once, at the node it lands on (the
    /// "per-node traffic" the Eq. 8 verification gates on; sender-side
    /// counters and the link matrix cross-check it).
    pub fn max_recv_bytes(&self, phase: Phase) -> u64 {
        (0..self.ranks.len())
            .map(|r| self.recv_bytes(r, phase))
            .max()
            .unwrap_or(0)
    }

    /// A rank's memory high-water mark in bytes.
    pub fn peak_bytes(&self, rank: usize) -> u64 {
        self.ranks[rank].mem.peak_bytes
    }

    /// The largest per-rank memory high-water mark in bytes.
    pub fn max_peak_bytes(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.mem.peak_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Seconds rank `r` spends on the wire: its outgoing traffic plus its
    /// incoming traffic, each folded through the link model it rode on.
    pub(crate) fn comm_seconds(&self, rank: usize) -> f64 {
        let n = self.config.nodes;
        let mut secs = 0.0;
        for peer in 0..n {
            let out = self.matrix[rank][peer];
            let inc = self.matrix[peer][rank];
            if out.msgs > 0 {
                secs += self
                    .config
                    .link(rank, peer)
                    .transfer_seconds(out.bytes, out.msgs);
            }
            if inc.msgs > 0 {
                secs += self
                    .config
                    .link(peer, rank)
                    .transfer_seconds(inc.bytes, inc.msgs);
            }
        }
        secs
    }

    /// Analytic makespan: each rank's compute seconds plus its wire seconds,
    /// maximised over ranks. Monotone non-increasing in every link bandwidth
    /// and non-decreasing in every byte metered — the properties the
    /// metamorphic tier pins.
    pub fn makespan(&self, compute_seconds: &[f64]) -> f64 {
        (0..self.config.nodes)
            .map(|r| compute_seconds.get(r).copied().unwrap_or(0.0) + self.comm_seconds(r))
            .fold(0.0, f64::max)
    }
}

/// Run one closure per rank, each holding an [`Endpoint`], and collect
/// results plus the metered [`NetReport`]. Rank 0 runs on the calling
/// thread (a 1-node run spawns nothing); every other rank gets its own OS
/// thread.
///
/// Rank closures return `Result<R, NetError>`. The first rank to fail —
/// return an error or panic — poisons its peers, so receives blocked on it
/// return [`NetError::PeerFailed`] within milliseconds instead of waiting
/// out `recv_timeout_s`; that first failure is the run's result (its error
/// returned, its panic resumed), not the echoes it caused.
pub fn run_spmd<T, R, F>(cfg: &NetConfig, f: F) -> Result<(Vec<R>, NetReport), NetError>
where
    T: NetPayload + 'static,
    R: Send,
    F: Fn(&mut Endpoint<T>) -> Result<R, NetError> + Sync,
{
    cfg.validate()?;
    let n = cfg.nodes;
    let mut txs = Vec::with_capacity(n);
    let mut rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        txs.push(tx);
        rxs.push(rx);
    }
    let endpoints: Vec<Endpoint<T>> = rxs
        .into_iter()
        .enumerate()
        .map(|(rank, rx)| Endpoint {
            rank,
            cfg: cfg.clone(),
            txs: txs.clone(),
            rx,
            stash: Vec::new(),
            failed_peer: None,
            phase: Phase::Algo,
            stats: RankStats::default(),
            matrix_row: vec![LinkTraffic::default(); n],
        })
        .collect();
    drop(txs);

    // The rank whose failure came first; echoes (`PeerFailed`, sends to a
    // rank that is gone) can only happen after it is recorded.
    let first_failed = AtomicUsize::new(usize::MAX);
    let run_rank = |mut ep: Endpoint<T>| {
        let out = panic::catch_unwind(AssertUnwindSafe(|| f(&mut ep)));
        if !matches!(out, Ok(Ok(_))) {
            let _ = first_failed.compare_exchange(
                usize::MAX,
                ep.rank,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            ep.poison_peers();
        }
        let (stats, row) = ep.into_stats();
        (out, stats, row)
    };
    let mut joined: Vec<_> = thread::scope(|scope| {
        let mut endpoints = endpoints.into_iter();
        let ep0 = endpoints.next().expect("validated: at least one node");
        let handles: Vec<_> = endpoints.map(|ep| scope.spawn(|| run_rank(ep))).collect();
        let mut joined = vec![run_rank(ep0)];
        joined.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panics are caught inside run_rank")),
        );
        joined
    });

    let first_failed = first_failed.into_inner();
    if first_failed != usize::MAX {
        return match joined.swap_remove(first_failed).0 {
            Err(payload) => panic::resume_unwind(payload),
            Ok(Err(e)) => Err(e),
            Ok(Ok(_)) => unreachable!("only a failing rank records itself"),
        };
    }
    let mut results = Vec::with_capacity(n);
    let mut ranks = Vec::with_capacity(n);
    let mut matrix = Vec::with_capacity(n);
    for (out, stats, row) in joined {
        let Ok(Ok(r)) = out else {
            unreachable!("a failing rank records itself")
        };
        results.push(r);
        ranks.push(stats);
        matrix.push(row);
    }
    Ok((
        results,
        NetReport {
            config: cfg.clone(),
            ranks,
            matrix,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg(nodes: usize) -> NetConfig {
        let mut cfg = NetConfig::uniform(nodes, LinkModel::new(1e9, 1e-6));
        cfg.recv_timeout_s = 5.0;
        cfg
    }

    #[test]
    fn ring_exchange_meters_every_byte() {
        let cfg = fast_cfg(4);
        let (_, report) = run_spmd::<Vec<f64>, (), _>(&cfg, |ep| {
            let next = (ep.rank() + 1) % ep.nodes();
            let prev = (ep.rank() + ep.nodes() - 1) % ep.nodes();
            ep.send(next, 7, vec![ep.rank() as f64; 100])?;
            let got = ep.recv(prev, 7)?;
            assert_eq!(got, vec![prev as f64; 100]);
            Ok(())
        })
        .unwrap();
        assert_eq!(report.total_bytes(), 4 * 800);
        assert_eq!(report.total_msgs(), 4);
        for r in 0..4 {
            assert_eq!(report.sent_bytes(r, Phase::Algo), 800);
            assert_eq!(report.recv_bytes(r, Phase::Algo), 800);
            assert_eq!(report.matrix[r][(r + 1) % 4].bytes, 800);
        }
    }

    #[test]
    fn self_sends_are_unmetered() {
        let cfg = fast_cfg(2);
        let (_, report) = run_spmd::<Vec<f64>, (), _>(&cfg, |ep| {
            let me = ep.rank();
            ep.send(me, 1, vec![1.0; 50])?;
            let got = ep.recv(me, 1)?;
            assert_eq!(got.len(), 50);
            Ok(())
        })
        .unwrap();
        assert_eq!(report.total_bytes(), 0);
        assert_eq!(report.total_msgs(), 0);
        for r in 0..2 {
            assert_eq!(report.sent_bytes(r, Phase::Algo), 0);
            assert_eq!(report.recv_bytes(r, Phase::Algo), 0);
        }
    }

    #[test]
    fn out_of_order_tag_matching() {
        let cfg = fast_cfg(2);
        let (_, _) = run_spmd::<Vec<f64>, (), _>(&cfg, |ep| {
            if ep.rank() == 0 {
                ep.send(1, 10, vec![10.0])?;
                ep.send(1, 20, vec![20.0])?;
            } else {
                // Receive in the opposite order they were sent.
                let b = ep.recv(0, 20)?;
                let a = ep.recv(0, 10)?;
                assert_eq!(a, vec![10.0]);
                assert_eq!(b, vec![20.0]);
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn phase_split_counters() {
        let cfg = fast_cfg(2);
        let (_, report) = run_spmd::<Vec<f64>, (), _>(&cfg, |ep| {
            if ep.rank() == 0 {
                ep.set_phase(Phase::Scatter);
                ep.send(1, 1, vec![0.0; 10])?;
                ep.set_phase(Phase::Algo);
                ep.send(1, 2, vec![0.0; 30])?;
            } else {
                ep.set_phase(Phase::Scatter);
                let _ = ep.recv(0, 1)?;
                ep.set_phase(Phase::Algo);
                let _ = ep.recv(0, 2)?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(report.sent_bytes(0, Phase::Scatter), 80);
        assert_eq!(report.sent_bytes(0, Phase::Algo), 240);
        assert_eq!(report.recv_bytes(1, Phase::Scatter), 80);
        assert_eq!(report.recv_bytes(1, Phase::Algo), 240);
        assert_eq!(report.sent_bytes(0, Phase::Gather), 0);
    }

    #[test]
    fn mem_meter_tracks_high_water() {
        let mut m = MemMeter::default();
        m.alloc(100);
        m.alloc(50);
        m.free(120);
        m.alloc(10);
        assert_eq!(m.current_bytes, 40);
        assert_eq!(m.peak_bytes, 150);
        m.free(1000); // over-free clamps
        assert_eq!(m.current_bytes, 0);
        assert_eq!(m.peak_bytes, 150);
    }

    #[test]
    fn zero_bandwidth_is_a_typed_error_not_a_hang() {
        let mut cfg = fast_cfg(2);
        cfg.scale_out.bw_bytes_per_s = 0.0;
        cfg.group_size = 1; // force cross-group traffic
        let err = run_spmd::<Vec<f64>, (), _>(&cfg, |_| Ok(())).unwrap_err();
        assert_eq!(err, NetError::ZeroBandwidth { link: "scale-out" });
    }

    #[test]
    fn recv_from_silent_peer_times_out_typed() {
        let mut cfg = fast_cfg(2);
        cfg.recv_timeout_s = 0.05;
        let err = run_spmd::<Vec<f64>, (), _>(&cfg, |ep| {
            if ep.rank() == 0 {
                ep.recv(1, 99).map(|_| ())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            NetError::RecvTimeout {
                rank: 0,
                src: 1,
                tag: 99
            }
        );
    }

    #[test]
    fn stashable_flood_cannot_defer_the_recv_deadline() {
        // A steady stream of non-matching (stashable) messages used to
        // re-arm the full timeout on every arrival, deferring the
        // deadlock guard indefinitely. With an absolute deadline the
        // typed timeout still fires on schedule.
        let mut cfg = fast_cfg(2);
        cfg.recv_timeout_s = 0.2;
        let started = std::time::Instant::now();
        let err = run_spmd::<Vec<f64>, (), _>(&cfg, |ep| {
            if ep.rank() == 0 {
                ep.recv(1, 99).map(|_| ())
            } else {
                // Flood rank 0 with wrong-tag traffic at a cadence well
                // inside the timeout, for far longer than the timeout.
                // Stop once the peer has timed out and hung up, so the
                // elapsed check below times rank 0's guard, not us.
                for i in 0..40u64 {
                    if ep.send(0, i, vec![0.0; 4]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            NetError::RecvTimeout {
                rank: 0,
                src: 1,
                tag: 99
            }
        );
        // Old behaviour: each of the 40 arrivals restarts the 200 ms
        // window, so the guard fires only after the flood ends (~1 s+).
        // Fixed behaviour: ~200 ms regardless of the flood.
        assert!(
            started.elapsed() < Duration::from_millis(800),
            "recv deadline was deferred by stashable traffic: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn failing_rank_fails_its_peers_in_milliseconds() {
        // Every rank holds sender clones to every peer, so a dead rank's
        // channel never disconnects: without the poison, ranks 0 and 2
        // would sit in `recv` for the whole 30 s deadlock guard.
        let mut cfg = fast_cfg(3);
        cfg.recv_timeout_s = 30.0;
        let original = NetError::RankOutOfRange { rank: 99, nodes: 3 };
        let started = std::time::Instant::now();
        let err = run_spmd::<Vec<f64>, (), _>(&cfg, |ep| {
            if ep.rank() == 1 {
                return ep.send(99, 0, vec![]);
            }
            let got = ep.recv(1, 7).map(|_| ());
            assert_eq!(
                got,
                Err(NetError::PeerFailed {
                    rank: ep.rank(),
                    peer: 1
                })
            );
            got
        })
        .unwrap_err();
        // Rank 0 fails too (with the echo), but rank 1 failed first.
        assert_eq!(err, original);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "survivors waited on a dead rank: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn panicking_rank_fails_its_peers_and_its_panic_wins() {
        let mut cfg = fast_cfg(3);
        cfg.recv_timeout_s = 30.0;
        let started = std::time::Instant::now();
        let caught = panic::catch_unwind(|| {
            run_spmd::<Vec<f64>, (), _>(&cfg, |ep| {
                if ep.rank() == 2 {
                    panic!("rank 2 exploded");
                }
                ep.recv(2, 7).map(|_| ())
            })
        })
        .expect_err("the rank's panic propagates");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"rank 2 exploded"));
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn makespan_monotone_in_bandwidth() {
        let cfg = fast_cfg(4);
        let (_, report) = run_spmd::<Vec<f64>, (), _>(&cfg, |ep| {
            let next = (ep.rank() + 1) % ep.nodes();
            let prev = (ep.rank() + ep.nodes() - 1) % ep.nodes();
            ep.send(next, 0, vec![0.0; 1000])?;
            let _ = ep.recv(prev, 0)?;
            Ok(())
        })
        .unwrap();
        let compute = vec![0.01; 4];
        let t1 = report.makespan(&compute);
        let mut faster = report.clone();
        faster.config.scale_up.bw_bytes_per_s *= 2.0;
        faster.config.scale_out.bw_bytes_per_s *= 2.0;
        let t2 = faster.makespan(&compute);
        assert!(
            t2 <= t1,
            "doubling bandwidth increased makespan: {t1} -> {t2}"
        );
        assert!(t2 < t1, "bandwidth term should actually shrink");
    }

    #[test]
    fn scale_up_vs_scale_out_link_selection() {
        let mut cfg = fast_cfg(4);
        cfg.group_size = 2;
        cfg.scale_out = LinkModel::new(1e6, 1e-3); // much slower
        assert_eq!(cfg.link(0, 1).bw_bytes_per_s, 1e9);
        assert_eq!(cfg.link(2, 3).bw_bytes_per_s, 1e9);
        assert_eq!(cfg.link(1, 2).bw_bytes_per_s, 1e6);
        assert_eq!(cfg.link(0, 3).bw_bytes_per_s, 1e6);
    }

    #[test]
    fn report_is_deterministic_across_runs() {
        let cfg = fast_cfg(7);
        let run = || {
            run_spmd::<Vec<f64>, (), _>(&cfg, |ep| {
                // All-to-root then root-to-all, mixed phases.
                if ep.rank() != 0 {
                    ep.send(0, ep.rank() as u64, vec![1.0; 10 * ep.rank()])?;
                    let _ = ep.recv(0, 100 + ep.rank() as u64)?;
                } else {
                    for peer in 1..ep.nodes() {
                        let _ = ep.recv(peer, peer as u64)?;
                    }
                    for peer in 1..ep.nodes() {
                        ep.send(peer, 100 + peer as u64, vec![2.0; 5])?;
                    }
                }
                Ok(())
            })
            .unwrap()
            .1
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn config_validation_catches_bad_models() {
        let mut cfg = fast_cfg(2);
        cfg.scale_up.efficiency = 1.5;
        assert_eq!(
            cfg.validate().unwrap_err(),
            NetError::BadEfficiency { link: "scale-up" }
        );
        let mut cfg = fast_cfg(2);
        cfg.scale_up.latency_s = -1.0;
        assert_eq!(
            cfg.validate().unwrap_err(),
            NetError::BadLatency { link: "scale-up" }
        );
        let mut cfg = fast_cfg(0);
        cfg.nodes = 0;
        assert_eq!(cfg.validate().unwrap_err(), NetError::NoNodes);
    }
}
