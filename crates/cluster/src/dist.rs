//! Distributed-memory CAPS and SUMMA executors over simulated message
//! passing.
//!
//! Unlike [`crate::plans`], which *declares* transfer volumes on a task DAG,
//! this module **executes** the multiply: per-node ranks hold fractal
//! ([`Layout`], frame-cyclic) column panels of real matrices, BFS steps
//! redistribute the seven Strassen sub-problems across disjoint node groups
//! through [`powerscale_machine::net`], and leaves run the existing
//! sequential `caps` executor node-local. Every byte crossing a link is
//! metered by the transport — the Eq. 8 verification reads traffic off the
//! wire, not off a plan.
//!
//! # Bitwise equality with single-node CAPS
//!
//! The recursion mirrors the single-node executor's arithmetic exactly:
//!
//! * sub-problem operands (`A21 + A22`, `B12 − B22`, …) are materialised
//!   elementwise with one rounding per element — the same values
//!   `resolve_operand` produces on the single-node DFS path, and the fused
//!   leaf packers are documented bitwise-equal to materialise-then-pack;
//! * the combine uses the single-node 18-pass schedule's association orders
//!   per element: `C11 = ((M7 + M1) + M4) − M5`, `C12 = M3 + M5`,
//!   `C21 = M2 + M4`, `C22 = ((M6 + M1) − M2) + M3`;
//! * node-local leaves call [`powerscale_caps::multiply`] with no pool —
//!   the identical code path a sequential single-node run takes.
//!
//! Distribution and placement therefore never touch the floating-point
//! result: [`dist_caps_multiply`] is bitwise equal to single-node CAPS at
//! every node count, which the equivalence tier asserts.
//!
//! # Memory-forced DFS — communication-free under the fractal layout
//!
//! A BFS step hands each sub-problem to a *smaller* group, growing the
//! per-rank share — the classic CAPS memory cost. When
//! [`DistCapsConfig::mem_limit_bytes`] says the BFS children would not fit,
//! the step degrades to a distributed DFS: all seven sub-problems run
//! sequentially on the *full* group, keeping per-rank panels narrow.
//!
//! Under the [`Layout`] frame-cyclic column map, a rank's panel already
//! contains its share of every quadrant (column `c` and column `c + h`
//! always live together), so the DFS step forms `T_i`/`S_i` node-locally
//! and the formed share *is* the child panel — **zero bytes move on the
//! wire**, exactly the fractal-layout property of the CAPS papers
//! (arXiv 1202.3173). Only BFS steps redistribute, which is what removes
//! the `(7/4)^ℓ` re-shuffle term from forced-DFS descents and lets the
//! 1202.3177 strong-scaling knee appear at `P̂` instead of being drowned
//! in re-shuffle traffic.

use powerscale_caps::CapsConfig;
use powerscale_machine::net::{
    run_spmd, Endpoint, NetConfig, NetError, NetPayload, NetReport, Phase,
};
use powerscale_matrix::{pad, DimError, Matrix};
use powerscale_strassen::cost::is_leaf;

/// A matrix block on the wire; the transport meters its actual element
/// storage (`rows · cols · 8` bytes).
pub(crate) struct Block(pub Matrix);

impl NetPayload for Block {
    fn payload_bytes(&self) -> u64 {
        (self.0.len() * std::mem::size_of::<f64>()) as u64
    }
}

/// Configuration for the distributed CAPS executor.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DistCapsConfig {
    /// The node-local executor configuration (cutoff governs both the
    /// distributed split and the local leaves, keeping the arithmetic tree
    /// identical to a single-node run).
    pub caps: CapsConfig,
    /// Per-rank memory budget in bytes. `None` lets every step BFS;
    /// `Some(m)` forces distributed DFS whenever the predicted BFS child
    /// residency would exceed `m` — the `M` of Eq. 8.
    pub mem_limit_bytes: Option<u64>,
}

impl DistCapsConfig {
    /// [`CapsConfig::paper`] with no memory budget: the configuration the
    /// Eq. 8 studies, the cluster figures and their golden pins run.
    pub fn paper() -> Self {
        DistCapsConfig {
            caps: CapsConfig::paper(),
            mem_limit_bytes: None,
        }
    }
}

/// Typed failures of the distributed executors.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// The transport failed (bad topology, timeout, …).
    Net(NetError),
    /// Operand shapes rejected.
    Dim(DimError),
    /// SUMMA needs a square process grid: `nodes` must be `q²`.
    NotSquareGrid {
        /// The offending node count.
        nodes: usize,
    },
    /// SUMMA needs the matrix dimension divisible by the grid side.
    Indivisible {
        /// Matrix dimension.
        n: usize,
        /// Grid side `q = √nodes`.
        q: usize,
    },
    /// A strong-scaling sweep must start at `P = 1`: efficiency is
    /// normalised by `T(1)`, and inferring it as `P·T(P)` of an arbitrary
    /// first point silently pins `e(first) = 1`.
    ScalingSweepNotFromOne {
        /// The first node count actually swept.
        first: usize,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Net(e) => write!(f, "transport: {e}"),
            DistError::Dim(e) => write!(f, "shapes: {e}"),
            DistError::NotSquareGrid { nodes } => {
                write!(f, "SUMMA needs a square grid; {nodes} nodes is not q^2")
            }
            DistError::Indivisible { n, q } => {
                write!(f, "SUMMA needs q | n; n={n}, q={q}")
            }
            DistError::ScalingSweepNotFromOne { first } => {
                write!(
                    f,
                    "strong-scaling sweep must start at P=1 to normalise \
                     e(P) = T(1)/(P*T(P)); first swept point is P={first}"
                )
            }
        }
    }
}

impl std::error::Error for DistError {}

impl From<NetError> for DistError {
    fn from(e: NetError) -> Self {
        DistError::Net(e)
    }
}

impl From<DimError> for DistError {
    fn from(e: DimError) -> Self {
        DistError::Dim(e)
    }
}

/// Outcome of a distributed multiply: the full result (gathered at rank 0),
/// the transport-metered traffic/memory report, and per-rank flop counts
/// for the analytic makespan model.
#[derive(Debug)]
pub struct DistOutcome {
    /// The product `A · B`, bit-identical to the single-node executor.
    pub c: Matrix,
    /// Metered traffic, per-link matrix and per-rank memory high-water
    /// marks.
    pub report: NetReport,
    /// Flops each rank executed (leaf products + elementwise passes).
    pub per_rank_flops: Vec<u64>,
}

impl DistOutcome {
    /// Per-rank compute seconds under a node's achieved GEMM rate.
    pub fn compute_seconds(&self, flops_per_s: f64) -> Vec<f64> {
        self.per_rank_flops
            .iter()
            .map(|&f| f as f64 / flops_per_s)
            .collect()
    }

    /// Analytic makespan: per-rank compute + wire time, maximised.
    pub fn makespan_s(&self, flops_per_s: f64) -> f64 {
        self.report.makespan(&self.compute_seconds(flops_per_s))
    }
}

// ---------------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------------

/// Block-column ownership: rank `idx` of a `g`-rank group owns columns
/// `[idx·m/g, (idx+1)·m/g)` of an `m`-column matrix (floor partition — no
/// divisibility constraint).
pub(crate) fn owner_cols(m: usize, g: usize, idx: usize) -> (usize, usize) {
    ((idx * m) / g, ((idx + 1) * m) / g)
}

/// The BFS rank-range split of `g` ranks into 7 child groups (relative to
/// group base 0). Ranges are equal-or-disjoint: with `g ≥ 7` they are
/// disjoint; with `g < 7` several children share one rank and run
/// sequentially on it. The declared [`crate::plans`] split node groups
/// with this function too, so declared and measured placements agree.
pub fn bfs_child_ranges(g: usize) -> [(usize, usize); 7] {
    let mut out = [(0usize, 0usize); 7];
    for (i, slot) in out.iter_mut().enumerate() {
        let lo = (i * g) / 7;
        let hi = (((i + 1) * g) / 7).max(lo + 1);
        *slot = (lo, hi.min(g.max(lo + 1)));
    }
    out
}

/// The fractal (frame-cyclic) column layout of the distributed executor.
///
/// Columns are grouped into *frames* of `frame` consecutive columns, where
/// `frame` is the leaf size of the halving chain from the padded top-level
/// size — every matrix the distributed recursion touches has `frame · 2^j`
/// columns. Within each frame, rank `idx` of a `g`-rank group owns the same
/// slice `owner_cols``(frame, g, idx)`, and a rank's panel stores its
/// owned columns in increasing global order.
///
/// Because every split size `h = frame · 2^(j−1)` is a multiple of the
/// frame, columns `c` and `c + h` always live on the same rank: each rank
/// already owns its share of all four quadrants, and the left-half columns
/// occupy exactly the first half of its panel (`local(c + h) = local(c) +
/// w/2`). A DFS step (child group = parent group) therefore forms its share
/// of `T_i`/`S_i` from purely local elements, and the formed share *is* the
/// child panel — zero bytes on the wire. Only BFS steps (child group ⊂
/// parent group) redistribute. This is the bit-interleaved element map of
/// the CAPS papers (arXiv 1202.3173), expressed per column frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Frame width: the leaf size of the run's halving chain.
    pub frame: usize,
}

impl Layout {
    /// The layout of a run whose padded top-level size is `target`: the
    /// frame is where the halving chain `target, target/2, …` first hits a
    /// leaf (`≤ cutoff` or odd) — the same predicate the recursion uses.
    pub fn for_target(target: usize, cutoff: usize) -> Self {
        let mut f = target.max(1);
        while !is_leaf(f, cutoff) {
            f /= 2;
        }
        Layout { frame: f }
    }

    /// Per-frame column slice owned by rank `idx` of a `g`-rank group.
    pub fn slice(&self, g: usize, idx: usize) -> (usize, usize) {
        owner_cols(self.frame, g, idx)
    }

    /// Panel width of rank `idx` for an `m`-column matrix (`frame | m`).
    pub fn width(&self, m: usize, g: usize, idx: usize) -> usize {
        let (lo, hi) = self.slice(g, idx);
        (m / self.frame) * (hi - lo)
    }

    /// Global column of local panel column `k` for rank `idx` of a
    /// `g`-rank group (an `m`-column matrix has `m / frame` frames; local
    /// columns enumerate the owned slice of each frame in global order).
    /// This is the *definition* of the layout; data moves through
    /// [`Layout::take`] / [`Layout::place`], which the property tier checks
    /// against it element for element.
    pub fn col_at(&self, g: usize, idx: usize, k: usize) -> usize {
        let (lo, hi) = self.slice(g, idx);
        let sw = hi - lo;
        (k / sw) * self.frame + lo + (k % sw)
    }

    /// *Take*: the `sub` columns of every frame of `panel`, as a dense
    /// block (frames in order, `sub` columns each). `panel` stores the
    /// `own ⊇ sub` columns of every frame — a rank's panel, or a full
    /// matrix with `own = (0, frame)`.
    pub fn take(&self, panel: &Matrix, own: Slice, sub: Slice) -> Matrix {
        let frames = self.frames_in(panel, own);
        let runs = Runs::new(frames, own, sub, sub);
        formed(
            Form::One(Win::whole(panel)),
            panel.rows(),
            frames * width(sub),
            &runs,
        )
    }

    /// *Place*: the inverse of [`Layout::take`] — write `blk` (the `sub`
    /// columns of every frame) into `panel`, which stores `own ⊇ sub`.
    pub fn place(&self, panel: &mut Matrix, own: Slice, sub: Slice, blk: &Matrix) {
        let runs = Runs::new(self.frames_in(panel, own), sub, own, sub);
        place(panel, (0, 0), Form::One(Win::whole(blk)), blk.rows(), &runs);
    }

    fn frames_in(&self, panel: &Matrix, own: Slice) -> usize {
        debug_assert!(own.1 <= self.frame, "slice {own:?} outside the frame");
        panel.cols().checked_div(width(own)).unwrap_or(0)
    }
}

/// A per-frame column slice `[lo, hi)` of the [`Layout`].
pub(crate) type Slice = (usize, usize);

fn width(s: Slice) -> usize {
    s.1 - s.0
}

/// Per-frame overlap of two layout slices; `None` when disjoint. Sender and
/// receiver both enumerate transfers from this, so the column order inside
/// every message is agreed without any index metadata on the wire.
fn slice_overlap(a: Slice, b: Slice) -> Option<Slice> {
    let lo = a.0.max(b.0);
    let hi = a.1.min(b.1);
    (lo < hi).then_some((lo, hi))
}

/// Geometry of a strided-run copy: per row, `frames` runs of `ow` elements;
/// run `f` starts at `f·ss + so` in the source and `f·ds + d0` in the
/// destination.
#[derive(Clone, Copy, Debug)]
struct Runs {
    frames: usize,
    ow: usize,
    ss: usize,
    so: usize,
    ds: usize,
    d0: usize,
}

impl Runs {
    /// Moving the `sub` columns of each of `frames` frames out of storage
    /// holding the `from` columns of every frame into storage holding `to`.
    fn new(frames: usize, from: Slice, to: Slice, sub: Slice) -> Self {
        debug_assert!(
            from.0 <= sub.0 && sub.1 <= from.1,
            "{sub:?} not in {from:?}"
        );
        debug_assert!(to.0 <= sub.0 && sub.1 <= to.1, "{sub:?} not in {to:?}");
        let ow = width(sub);
        // Dense on both sides: the runs abut, one run per row.
        let (frames, ow) = if width(from) == ow && width(to) == ow {
            (1, frames * ow)
        } else {
            (frames, ow)
        };
        Runs {
            frames,
            ow,
            ss: width(from),
            so: sub.0 - from.0,
            ds: width(to),
            d0: sub.0 - to.0,
        }
    }
}

/// A read window onto row-major storage: rows from `r0`, columns from `c0`.
#[derive(Clone, Copy)]
struct Win<'a> {
    m: &'a Matrix,
    r0: usize,
    c0: usize,
}

impl<'a> Win<'a> {
    fn whole(m: &'a Matrix) -> Self {
        Win { m, r0: 0, c0: 0 }
    }

    fn run(&self, r: usize, f: usize, g: &Runs) -> &'a [f64] {
        &self.m.row(self.r0 + r)[self.c0 + f * g.ss + g.so..][..g.ow]
    }
}

/// One thing, or the sum / difference of two: a sub-problem operand over
/// quadrants ([`OpSpec`]), and the same over the windows a strided-run copy
/// reads ([`Source`]).
#[derive(Clone, Copy, Debug)]
enum Form<T> {
    One(T),
    Add(T, T),
    Sub(T, T),
}

impl<T> Form<T> {
    fn map<U>(self, mut f: impl FnMut(T) -> U) -> Form<U> {
        match self {
            Form::One(x) => Form::One(f(x)),
            Form::Add(x, y) => Form::Add(f(x), f(y)),
            Form::Sub(x, y) => Form::Sub(f(x), f(y)),
        }
    }
}

/// What a strided-run copy reads: one window, or `X + Y` / `X − Y` of two
/// formed on the way with one rounding per element — the same value
/// single-node `resolve_operand` produces.
type Source<'a> = Form<Win<'a>>;

impl Source<'_> {
    /// Whether forming costs a flop per element.
    fn adds(&self) -> bool {
        !matches!(self, Form::One(_))
    }

    /// Row `r` of the source into `out`, run by run.
    fn write_row(&self, r: usize, out: &mut [f64], g: &Runs) {
        fn zip(d: &mut [f64], x: &[f64], y: &[f64], op: impl Fn(f64, f64) -> f64) {
            for ((d, &a), &b) in d.iter_mut().zip(x).zip(y) {
                *d = op(a, b);
            }
        }
        for f in 0..g.frames {
            let d = &mut out[f * g.ds + g.d0..][..g.ow];
            match self {
                Form::One(x) => d.copy_from_slice(x.run(r, f, g)),
                Form::Add(x, y) => zip(d, x.run(r, f, g), y.run(r, f, g), |a, b| a + b),
                Form::Sub(x, y) => zip(d, x.run(r, f, g), y.run(r, f, g), |a, b| a - b),
            }
        }
    }
}

/// A fresh `rows × cols` matrix holding the runs of `src`; columns the runs
/// do not cover stay zero (for later pieces to [`place`]).
fn formed(src: Source<'_>, rows: usize, cols: usize, runs: &Runs) -> Matrix {
    Matrix::from_row_fn(rows, cols, |r, out| src.write_row(r, out, runs))
}

/// The runs of `src` written into `dst` from `(r0, c0)`.
fn place(dst: &mut Matrix, (r0, c0): (usize, usize), src: Source<'_>, rows: usize, runs: &Runs) {
    for r in 0..rows {
        src.write_row(r, &mut dst.row_mut(r0 + r)[c0..], runs);
    }
}

/// Sequential CAPS/Strassen flop count: `7 F(m/2) + 18 (m/2)²` above the
/// cutoff, `2 m³` at the dense leaf.
pub(crate) fn seq_caps_flops(m: usize, cutoff: usize) -> u64 {
    if m == 0 {
        return 0;
    }
    if is_leaf(m, cutoff) {
        return 2 * (m as u64).pow(3);
    }
    let h = (m / 2) as u64;
    7 * seq_caps_flops(m / 2, cutoff) + 18 * h * h
}

/// Predicted per-rank residency (bytes) of running an `m`-sized sub-problem
/// on a `g`-rank group: panel storage while distributed, full operands +
/// result + DFS scratch once node-local.
pub fn predict_peak_bytes(m: usize, g: usize, cutoff: usize) -> u64 {
    let m64 = m as u64;
    if g <= 1 || is_leaf(m, cutoff) {
        // Local leaf: T, S, C plus the geometric DFS scratch (≈ m²/3).
        return (3 * m64 * m64 + m64 * m64 / 3) * 8;
    }
    let w = m.div_ceil(g) as u64;
    let panels = 2 * m64 * w * 8;
    let h = m / 2;
    let child = bfs_child_ranges(g)
        .iter()
        .map(|&(lo, hi)| {
            let gi = hi - lo;
            predict_peak_bytes(h, gi, cutoff) + (h as u64) * (h.div_ceil(gi) as u64) * 8
        })
        .max()
        .unwrap_or(0);
    panels.max(child)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StepMode {
    Bfs,
    Dfs,
}

/// BFS unless the predicted per-rank residency of the widest BFS child
/// exceeds the memory budget; pure function of `(m, g, limit)`, so every
/// rank takes the same branch.
fn step_mode(m: usize, g: usize, cutoff: usize, limit: Option<u64>) -> StepMode {
    match limit {
        None => StepMode::Bfs,
        Some(l) => {
            let h = m / 2;
            let worst = bfs_child_ranges(g)
                .iter()
                .map(|&(lo, hi)| predict_peak_bytes(h, hi - lo, cutoff))
                .max()
                .unwrap_or(0);
            if worst <= l {
                StepMode::Bfs
            } else {
                StepMode::Dfs
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Grp {
    base: usize,
    size: usize,
}

impl Grp {
    fn contains(&self, r: usize) -> bool {
        r >= self.base && r < self.base + self.size
    }
    fn local(&self, r: usize) -> usize {
        r - self.base
    }
}

/// Unique message tags: `(path, stage, src, dst, k)` with `stage < 32`,
/// ranks `< 256`, `k < 4`. `path` is the recursion-tree node id (root 1,
/// child `7·path + i + 1`); top-level scatter/gather uses the reserved
/// `path = 0`.
fn tag(path: u64, stage: u64, src: usize, dst: usize, k: usize) -> u64 {
    (((path * 32 + stage) * 256 + src as u64) * 256 + dst as u64) * 4 + k as u64
}

fn mat_bytes(m: &Matrix) -> u64 {
    (m.len() * std::mem::size_of::<f64>()) as u64
}

// ---------------------------------------------------------------------------
// sub-problem operand specs (launch order of the single-node executor)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Quad {
    Q11,
    Q12,
    Q21,
    Q22,
}

impl Quad {
    /// This quadrant of a rank's `2h × 2·w2` panel. The fractal layout puts
    /// global column `c` in the left panel half and `c + h` at the same
    /// offset in the right, so each quadrant is a window of `w2` columns.
    fn of(self, panel: &Matrix, h: usize) -> Win<'_> {
        let w2 = panel.cols() / 2;
        let (r0, c0) = match self {
            Quad::Q11 => (0, 0),
            Quad::Q12 => (0, w2),
            Quad::Q21 => (h, 0),
            Quad::Q22 => (h, w2),
        };
        Win { m: panel, r0, c0 }
    }
}

type OpSpec = Form<Quad>;

impl OpSpec {
    /// This operand (`T_i`/`S_i`) read out of a rank's parent panel: both
    /// quadrant elements of every column are local under the fractal
    /// layout.
    fn of(self, panel: &Matrix, h: usize) -> Source<'_> {
        self.map(|q| q.of(panel, h))
    }
}

/// The seven sub-products in the executor's launch order: child `i`
/// computes `M_{PRODUCT_OF[i]}` from `(T_i, S_i)`.
/// `i`: 0 → M2, 1 → M3, 2 → M6, 3 → M7, 4 → M1, 5 → M4, 6 → M5.
const CHILD_OPS: [(OpSpec, OpSpec); 7] = [
    (OpSpec::Add(Quad::Q21, Quad::Q22), OpSpec::One(Quad::Q11)), // M2 = (A21+A22) B11
    (OpSpec::One(Quad::Q11), OpSpec::Sub(Quad::Q12, Quad::Q22)), // M3 = A11 (B12−B22)
    (
        OpSpec::Sub(Quad::Q21, Quad::Q11),
        OpSpec::Add(Quad::Q11, Quad::Q12),
    ), // M6
    (
        OpSpec::Sub(Quad::Q12, Quad::Q22),
        OpSpec::Add(Quad::Q21, Quad::Q22),
    ), // M7
    (
        OpSpec::Add(Quad::Q11, Quad::Q22),
        OpSpec::Add(Quad::Q11, Quad::Q22),
    ), // M1
    (OpSpec::One(Quad::Q22), OpSpec::Sub(Quad::Q21, Quad::Q11)), // M4 = A22 (B21−B11)
    (OpSpec::Add(Quad::Q11, Quad::Q12), OpSpec::One(Quad::Q22)), // M5 = (A11+A12) B22
];

// ---------------------------------------------------------------------------
// the per-rank program
// ---------------------------------------------------------------------------

struct RankCtx<'a, 'b> {
    ep: &'a mut Endpoint<Block>,
    caps: &'b CapsConfig,
    layout: Layout,
    mem_limit: Option<u64>,
    flops: u64,
}

impl RankCtx<'_, '_> {
    fn me(&self) -> usize {
        self.ep.rank()
    }

    fn my_slice(&self, grp: Grp) -> Slice {
        self.layout.slice(grp.size, grp.local(self.me()))
    }

    /// The `sub` columns of every frame of `src` — this rank's `own`-slice
    /// share of an `h × h` matrix — seated in a fresh panel for slice
    /// `mine ⊇ sub`: a dense block when `sub == mine`, else a `mine`-wide
    /// panel whose other columns are still to be placed. Forming `X ± Y`
    /// counts one flop per element.
    fn piece(&mut self, src: Source<'_>, h: usize, own: Slice, sub: Slice, mine: Slice) -> Matrix {
        let frames = h / self.layout.frame;
        if src.adds() {
            self.flops += (h * frames * width(sub)) as u64;
        }
        let runs = Runs::new(frames, own, mine, sub);
        formed(src, h, frames * width(mine), &runs)
    }

    /// Ship to every *other* rank of `to` the columns of `src` (this rank's
    /// `own` share of an `h × h` matrix) that fall in its slice. Sender and
    /// receiver enumerate the same overlaps, so one dense block per pair
    /// crosses the wire and each element crosses exactly once.
    fn ship(
        &mut self,
        src: Source<'_>,
        h: usize,
        own: Slice,
        to: Grp,
        stage: u64,
        path: u64,
    ) -> Result<(), NetError> {
        let me = self.me();
        for ri in 0..to.size {
            let dst = to.base + ri;
            let Some(o) = slice_overlap(own, self.layout.slice(to.size, ri)) else {
                continue;
            };
            if dst != me {
                let blk = self.piece(src, h, own, o, o);
                self.ep
                    .send(dst, tag(path, stage, me, dst, 0), Block(blk))?;
            }
        }
        Ok(())
    }

    /// The share of `src` this rank keeps as a member of `to` (what used to
    /// be an unmetered self-send): formed straight into its `to`-layout
    /// panel, no block, no stash, no copy. `None` when it is no member of
    /// `to` or owns nothing of it.
    fn keep(&mut self, src: Source<'_>, h: usize, own: Slice, to: Grp) -> Option<Matrix> {
        if !to.contains(self.me()) {
            return None;
        }
        let mine = self.my_slice(to);
        let o = slice_overlap(own, mine)?;
        Some(self.piece(src, h, own, o, mine))
    }

    /// Complete this rank's `to`-layout panel of an `h × h` matrix from the
    /// pieces the ranks of `from` shipped; `kept` is the panel [`keep`]
    /// started with this rank's own share. A block covering the whole
    /// slice *is* the panel — moved, not copied. The panel is charged to
    /// the meter up front: it is resident from here on.
    ///
    /// [`keep`]: RankCtx::keep
    fn assemble(
        &mut self,
        kept: Option<Matrix>,
        h: usize,
        from: Grp,
        to: Grp,
        stage: u64,
        path: u64,
    ) -> Result<Matrix, NetError> {
        let me = self.me();
        let mine = self.my_slice(to);
        let cols = (h / self.layout.frame) * width(mine);
        self.ep.mem_alloc((h * cols * 8) as u64);
        let mut panel = kept;
        for si in 0..from.size {
            let src = from.base + si;
            let Some(o) = slice_overlap(self.layout.slice(from.size, si), mine) else {
                continue;
            };
            if src == me {
                debug_assert!(panel.is_some(), "own share kept before assembling");
                continue;
            }
            let blk = self.ep.recv(src, tag(path, stage, src, me, 0))?.0;
            if o == mine {
                panel = Some(blk);
            } else {
                let panel = panel.get_or_insert_with(|| Matrix::zeros(h, cols));
                self.layout.place(panel, mine, o, &blk);
            }
        }
        Ok(panel.unwrap_or_else(|| Matrix::zeros(h, cols)))
    }

    /// `C = T · S` on a group; fractal-layout panels in and out. The input
    /// panels arrive charged to the memory meter and the result leaves
    /// charged; every intermediate charge pairs with a free inside, so when
    /// the top-level call returns, the meter holds exactly the live `C`
    /// panel — the meter-vs-liveness invariant the equivalence tier pins.
    fn rec(
        &mut self,
        t: Matrix,
        s: Matrix,
        m: usize,
        grp: Grp,
        path: u64,
    ) -> Result<Matrix, NetError> {
        debug_assert!(grp.contains(self.me()));
        if grp.size == 1 {
            return Ok(self.local_multiply(t, s, m));
        }
        if is_leaf(m, self.caps.cutoff) {
            return self.leader_leaf(t, s, m, grp, path);
        }
        let h = m / 2;
        let mode = step_mode(m, grp.size, self.caps.cutoff, self.mem_limit);
        let ranges = bfs_child_ranges(grp.size);
        let child_grp = |i: usize| -> Grp {
            match mode {
                StepMode::Bfs => Grp {
                    base: grp.base + ranges[i].0,
                    size: ranges[i].1 - ranges[i].0,
                },
                StepMode::Dfs => grp,
            }
        };
        let own = self.my_slice(grp);
        let panel_bytes = mat_bytes(&t) + mat_bytes(&s);

        // prod[i]: this rank's columns of M_i in *parent* layout — local
        // column k feeds C's left column k (global j < h) and its right
        // column w/2 + k (global j + h), the same owner by the fractal
        // property.
        let mut prod: [Option<Matrix>; 7] = Default::default();
        match mode {
            StepMode::Bfs => {
                // Distribute all seven children up front (sends never
                // block), peers first: remote ranks start on their children
                // while this rank forms the shares it keeps. Then release
                // the parent panels — BFS trades memory for placement-once
                // communication.
                for (i, &(ta, tb)) in CHILD_OPS.iter().enumerate() {
                    self.ship(ta.of(&t, h), h, own, child_grp(i), 2 * i as u64, path)?;
                    self.ship(tb.of(&s, h), h, own, child_grp(i), 2 * i as u64 + 1, path)?;
                }
                let mut kept: [(Option<Matrix>, Option<Matrix>); 7] = Default::default();
                for (i, &(ta, tb)) in CHILD_OPS.iter().enumerate() {
                    kept[i] = (
                        self.keep(ta.of(&t, h), h, own, child_grp(i)),
                        self.keep(tb.of(&s, h), h, own, child_grp(i)),
                    );
                }
                drop((t, s));
                self.ep.mem_free(panel_bytes);
                for i in 0..7 {
                    let cg = child_grp(i);
                    if !cg.contains(self.me()) {
                        continue;
                    }
                    let (kt, ks) = std::mem::take(&mut kept[i]);
                    let ti = self.assemble(kt, h, grp, cg, 2 * i as u64, path)?;
                    let si = self.assemble(ks, h, grp, cg, 2 * i as u64 + 1, path)?;
                    let mi = self.rec(ti, si, h, cg, path * 7 + i as u64 + 1)?;
                    // Ship the product's columns to their parent-layout
                    // owners immediately, then drop it — per-rank residency
                    // never holds more than one child product here.
                    let (src, cown) = (Form::One(Win::whole(&mi)), self.my_slice(cg));
                    self.ship(src, h, cown, grp, 16 + i as u64, path)?;
                    prod[i] = self.keep(src, h, cown, grp);
                    self.ep.mem_free(mat_bytes(&mi));
                    drop(mi);
                }
                for (i, slot) in prod.iter_mut().enumerate() {
                    let kept = slot.take();
                    *slot = Some(self.assemble(kept, h, child_grp(i), grp, 16 + i as u64, path)?);
                }
            }
            StepMode::Dfs => {
                // The fractal layout makes the DFS step communication-free:
                // the child group *is* the parent group, each rank's formed
                // share of `T_i`/`S_i` is exactly its child panel, and the
                // product panel the recursion returns is exactly its share
                // of `M_i` — zero bytes move on the wire at this step.
                for (i, &(ta, tb)) in CHILD_OPS.iter().enumerate() {
                    let ti = self.piece(ta.of(&t, h), h, own, own, own);
                    self.ep.mem_alloc(mat_bytes(&ti));
                    let si = self.piece(tb.of(&s, h), h, own, own, own);
                    self.ep.mem_alloc(mat_bytes(&si));
                    prod[i] = Some(self.rec(ti, si, h, grp, path * 7 + i as u64 + 1)?);
                }
                drop((t, s));
                self.ep.mem_free(panel_bytes);
            }
        }

        // Combine with the single-node 18-pass schedule's association
        // orders, applied to this rank's product columns: one pass over the
        // seven product rows writes the two C rows they feed.
        let w2 = (h / self.layout.frame) * width(own);
        let mut c = Matrix::zeros(m, 2 * w2);
        self.ep.mem_alloc(mat_bytes(&c));
        let (top, bottom) = c.as_mut_slice().split_at_mut(h * 2 * w2);
        for r in 0..h {
            let [m2, m3, m6, m7, m1, m4, m5] = prod
                .each_ref()
                .map(|p| &p.as_ref().expect("all seven products present").row(r)[..w2]);
            let (c11, c12) = top[r * 2 * w2..][..2 * w2].split_at_mut(w2);
            let (c21, c22) = bottom[r * 2 * w2..][..2 * w2].split_at_mut(w2);
            for k in 0..w2 {
                c11[k] = ((m7[k] + m1[k]) + m4[k]) - m5[k];
                c12[k] = m3[k] + m5[k];
                c21[k] = m2[k] + m4[k];
                c22[k] = ((m6[k] + m1[k]) - m2[k]) + m3[k];
            }
        }
        self.flops += 8 * (h * w2) as u64;
        for slot in prod.iter_mut() {
            if let Some(p) = slot.take() {
                self.ep.mem_free(mat_bytes(&p));
            }
        }
        Ok(c)
    }

    /// Full node-local multiply through the sequential single-node CAPS
    /// executor — the identical code path a 1-node run takes. Consumes the
    /// operands (and their meter charge); the result stays charged.
    fn local_multiply(&mut self, t: Matrix, s: Matrix, m: usize) -> Matrix {
        let in_bytes = mat_bytes(&t) + mat_bytes(&s);
        let scratch = ((m as u64 / 2).pow(2) * 8 * 4) / 3;
        self.ep.mem_alloc((m as u64 * m as u64) * 8 + scratch);
        let c = powerscale_caps::multiply(&t.view(), &s.view(), self.caps, None, None)
            .expect("leaf shapes valid by construction");
        self.flops += seq_caps_flops(m, self.caps.cutoff);
        drop((t, s));
        self.ep.mem_free(scratch + in_bytes);
        c
    }

    /// Leaf reached while the group is still wider than one rank: gather
    /// the panels to the group leader, multiply there, scatter C back.
    ///
    /// Leaves sit at the frame size, so each rank's panel is one contiguous
    /// column slice of the single frame — the gather/scatter indexing is
    /// plain block-column.
    fn leader_leaf(
        &mut self,
        t: Matrix,
        s: Matrix,
        m: usize,
        grp: Grp,
        path: u64,
    ) -> Result<Matrix, NetError> {
        debug_assert_eq!(m, self.layout.frame, "leader leaves sit at the frame size");
        // Rotate leadership by the recursion path. A DFS descent reaches
        // this leaf with `grp` still the full group, so a fixed
        // `grp.base` leader would absorb every leaf gather of the whole
        // descent (7^ℓ of them) on one rank. The 7^ℓ leaf paths of such
        // a descent are consecutive integers, so `path % size` spreads
        // leadership exactly uniformly. (Below a BFS step the leaf paths
        // of child `i` are all ≡ i+1 mod 7 and the rotation degenerates
        // to a fixed per-group leader — harmless, since each BFS child
        // group then hosts only its own descent's leaves.) The leaf
        // product is rank-agnostic, so rotation is bitwise-neutral.
        let leader = grp.base + (path % grp.size as u64) as usize;
        let me = self.me();
        let panel_bytes = mat_bytes(&t) + mat_bytes(&s);
        if me != leader {
            self.ep
                .send(leader, tag(path, 23, me, leader, 0), Block(t))?;
            self.ep
                .send(leader, tag(path, 24, me, leader, 1), Block(s))?;
            self.ep.mem_free(panel_bytes);
            let c = self.ep.recv(leader, tag(path, 25, leader, me, 2))?.0;
            self.ep.mem_alloc(mat_bytes(&c));
            return Ok(c);
        }
        let full = (0, m);
        let mut tf = Matrix::zeros(m, m);
        let mut sf = Matrix::zeros(m, m);
        self.ep.mem_alloc(2 * mat_bytes(&tf));
        for src_local in 0..grp.size {
            let src = grp.base + src_local;
            let sl = self.layout.slice(grp.size, src_local);
            if width(sl) == 0 {
                continue;
            }
            if src == me {
                self.layout.place(&mut tf, full, sl, &t);
                self.layout.place(&mut sf, full, sl, &s);
            } else {
                let pt = self.ep.recv(src, tag(path, 23, src, leader, 0))?.0;
                let ps = self.ep.recv(src, tag(path, 24, src, leader, 1))?.0;
                self.layout.place(&mut tf, full, sl, &pt);
                self.layout.place(&mut sf, full, sl, &ps);
            }
        }
        drop((t, s));
        self.ep.mem_free(panel_bytes);
        let cf = self.local_multiply(tf, sf, m);
        // Scatter C back, peers first. Meter charges follow liveness: each
        // outgoing panel is transient (never charged, like every send
        // buffer), the leader's own panel is charged the moment it is
        // carved out while `cf` is still whole, and `cf`'s m·m·8 bytes are
        // released only when `cf` is actually dropped.
        for dst_local in 0..grp.size {
            let dst = grp.base + dst_local;
            if dst != me {
                let panel = self
                    .layout
                    .take(&cf, full, self.layout.slice(grp.size, dst_local));
                self.ep
                    .send(dst, tag(path, 25, leader, dst, 2), Block(panel))?;
            }
        }
        let mine = self.layout.take(&cf, full, self.my_slice(grp));
        self.ep.mem_alloc(mat_bytes(&mine));
        drop(cf);
        self.ep.mem_free((m * m * 8) as u64);
        Ok(mine)
    }
}

// ---------------------------------------------------------------------------
// drivers
// ---------------------------------------------------------------------------

/// `A · B` executed across `net.nodes` simulated ranks with distributed
/// CAPS: fractal-layout column panels ([`Layout`]), BFS over disjoint rank
/// groups, communication-free DFS, node-local leaves, all traffic metered
/// by the transport.
///
/// Rank 0 holds the operands, scatters panels (the metered `Scatter`
/// phase), the algorithm runs under `Algo`, and the result is gathered back
/// to rank 0 under `Gather` — Eq. 8 verification reads the `Algo` counters.
pub fn dist_caps_multiply(
    a: &Matrix,
    b: &Matrix,
    cfg: &DistCapsConfig,
    net: &NetConfig,
) -> Result<DistOutcome, DistError> {
    cfg.caps
        .validate()
        .map_err(|reason| DimError::InvalidConfig {
            op: "dist-caps",
            reason,
        })?;
    if !a.is_square() || !b.is_square() || a.shape() != b.shape() {
        return Err(DistError::Dim(DimError::Mismatch {
            op: "dist-caps",
            lhs: a.shape(),
            rhs: b.shape(),
        }));
    }
    let n = a.rows();
    let target = pad::next_recursive_size(n.max(1), cfg.caps.cutoff);
    let (pa, pb);
    let (fa, fb) = if target == n {
        (a, b)
    } else {
        pa = pad::pad_to(&a.view(), target);
        pb = pad::pad_to(&b.view(), target);
        (&pa, &pb)
    };

    let p = net.nodes;
    let layout = Layout::for_target(target, cfg.caps.cutoff);
    let (mut results, report) = run_spmd::<Block, (Option<Matrix>, u64), _>(net, |ep| {
        let me = ep.rank();
        ep.set_phase(Phase::Scatter);
        // Rank 0 scatters fractal-layout panels of the (padded) operands —
        // each rank's owned columns, in increasing global order — peers
        // first, and keeps its own without a self-hop.
        let full = (0, layout.frame);
        let (t, s) = if me == 0 {
            for r in 1..p {
                for (k, f) in [fa, fb].into_iter().enumerate() {
                    let panel = layout.take(f, full, layout.slice(p, r));
                    ep.send(r, tag(0, 26, 0, r, k), Block(panel))?;
                }
            }
            let mine = layout.slice(p, 0);
            (layout.take(fa, full, mine), layout.take(fb, full, mine))
        } else {
            (
                ep.recv(0, tag(0, 26, 0, me, 0))?.0,
                ep.recv(0, tag(0, 26, 0, me, 1))?.0,
            )
        };
        ep.mem_alloc(mat_bytes(&t) + mat_bytes(&s));

        ep.set_phase(Phase::Algo);
        let mut ctx = RankCtx {
            ep,
            caps: &cfg.caps,
            layout,
            mem_limit: cfg.mem_limit_bytes,
            flops: 0,
        };
        let c_panel = ctx.rec(t, s, target, Grp { base: 0, size: p }, 1)?;
        let flops = ctx.flops;

        ep.set_phase(Phase::Gather);
        if me == 0 {
            // Rank 0's own panel needs no self-hop, and with one rank it
            // *is* the result — moved, not copied.
            let mine = layout.slice(p, 0);
            let c = if mine == full {
                c_panel
            } else {
                let mut c = Matrix::zeros(target, target);
                layout.place(&mut c, full, mine, &c_panel);
                for r in 1..p {
                    let panel = ep.recv(r, tag(0, 27, r, 0, 0))?.0;
                    layout.place(&mut c, full, layout.slice(p, r), &panel);
                }
                c
            };
            Ok((Some(c), flops))
        } else {
            ep.send(0, tag(0, 27, me, 0, 0), Block(c_panel))?;
            Ok((None, flops))
        }
    })?;

    let full = results[0].0.take().expect("rank 0 gathers the result");
    let c = if target == n {
        full
    } else {
        pad::crop(&full.view(), n, n)
    };
    Ok(DistOutcome {
        c,
        report,
        per_rank_flops: results.iter().map(|(_, f)| *f).collect(),
    })
}

/// `A · B` by measured SUMMA on a `q × q` process grid (`nodes = q²`,
/// `q | n`): at step `k` the owners broadcast `A(i,k)` along rows and
/// `B(k,j)` down columns, every rank accumulates `C(i,j) += A(i,k)·B(k,j)`.
/// Per-rank `Algo` receive volume is exactly `2 n² (q−1) / q²` words — the
/// closed form the declared [`crate::plans::summa_graph`] charges, now
/// measured off the wire.
pub fn summa_multiply(a: &Matrix, b: &Matrix, net: &NetConfig) -> Result<DistOutcome, DistError> {
    if !a.is_square() || !b.is_square() || a.shape() != b.shape() {
        return Err(DistError::Dim(DimError::Mismatch {
            op: "summa",
            lhs: a.shape(),
            rhs: b.shape(),
        }));
    }
    let p = net.nodes;
    let q = (p as f64).sqrt().round() as usize;
    if q * q != p {
        return Err(DistError::NotSquareGrid { nodes: p });
    }
    let n = a.rows();
    if !n.is_multiple_of(q) || n == 0 {
        return Err(DistError::Indivisible { n, q });
    }
    let bs = n / q;

    let (mut results, report) = run_spmd::<Block, (Option<Matrix>, u64), _>(net, |ep| {
        use powerscale_gemm::leaf::{leaf_gemm_fused, Accum, Operand};
        let me = ep.rank();
        let (gi, gj) = (me / q, me % q);
        let at = |i: usize, j: usize| i * q + j;
        // Whole `bs`-wide block rows: one run per row.
        let dense = Runs::new(1, (0, bs), (0, bs), (0, bs));
        ep.set_phase(Phase::Scatter);
        if me == 0 {
            for r in 0..p {
                let (ri, rj) = (r / q, r % q);
                for (k, m) in [a, b].into_iter().enumerate() {
                    let (r0, c0) = (ri * bs, rj * bs);
                    let blk = formed(Form::One(Win { m, r0, c0 }), bs, bs, &dense);
                    ep.send(r, tag(0, 26, 0, r, k), Block(blk))?;
                }
            }
        }
        let my_a = ep.recv(0, tag(0, 26, 0, me, 0))?.0;
        let my_b = ep.recv(0, tag(0, 26, 0, me, 1))?.0;
        let mut my_c = Matrix::zeros(bs, bs);
        ep.mem_alloc(3 * (bs * bs * 8) as u64);

        ep.set_phase(Phase::Algo);
        let mut flops = 0u64;
        for k in 0..q {
            // Owners broadcast first (sends never block), then everyone
            // receives what it lacks. Tags need no step index: a given
            // (src, dst, A/B) triple occurs at exactly one step.
            if gj == k {
                for j in 0..q {
                    if j != gj {
                        ep.send(at(gi, j), tag(1, 0, me, at(gi, j), 0), Block(my_a.clone()))?;
                    }
                }
            }
            if gi == k {
                for i in 0..q {
                    if i != gi {
                        ep.send(at(i, gj), tag(1, 1, me, at(i, gj), 0), Block(my_b.clone()))?;
                    }
                }
            }
            let a_blk = if gj == k {
                None
            } else {
                let blk = ep.recv(at(gi, k), tag(1, 0, at(gi, k), me, 0))?.0;
                ep.mem_alloc(mat_bytes(&blk));
                Some(blk)
            };
            let b_blk = if gi == k {
                None
            } else {
                let blk = ep.recv(at(k, gj), tag(1, 1, at(k, gj), me, 0))?.0;
                ep.mem_alloc(mat_bytes(&blk));
                Some(blk)
            };
            let av = a_blk.as_ref().unwrap_or(&my_a);
            let bv = b_blk.as_ref().unwrap_or(&my_b);
            leaf_gemm_fused(
                Operand::View(av.view()),
                Operand::View(bv.view()),
                &mut my_c.view_mut(),
                if k == 0 { Accum::Set } else { Accum::Add },
                None,
            )
            .expect("SUMMA block shapes agree");
            flops += 2 * (bs as u64).pow(3);
            if let Some(blk) = a_blk {
                ep.mem_free(mat_bytes(&blk));
            }
            if let Some(blk) = b_blk {
                ep.mem_free(mat_bytes(&blk));
            }
        }

        ep.set_phase(Phase::Gather);
        if me == 0 {
            let mut full = Matrix::zeros(n, n);
            for r in 0..p {
                let (ri, rj) = (r / q, r % q);
                let recvd;
                let blk = if r == 0 {
                    &my_c
                } else {
                    recvd = ep.recv(r, tag(0, 27, r, 0, 0))?.0;
                    &recvd
                };
                let at = (ri * bs, rj * bs);
                place(&mut full, at, Form::One(Win::whole(blk)), bs, &dense);
            }
            Ok((Some(full), flops))
        } else {
            ep.send(0, tag(0, 27, me, 0, 0), Block(my_c))?;
            Ok((None, flops))
        }
    })?;

    let c = results[0].0.take().expect("rank 0 gathers the result");
    Ok(DistOutcome {
        c,
        report,
        per_rank_flops: results.iter().map(|(_, f)| *f).collect(),
    })
}
