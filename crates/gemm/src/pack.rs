//! Panel packing.
//!
//! Packing rewrites a strided sub-matrix into the exact streaming order the
//! microkernel consumes, so the inner loop reads two contiguous arrays, and
//! it does so by moving **row segments**, never single elements:
//!
//! * **A panels** (`mc × kc`) are stored as a sequence of `mr`-row strips.
//!   A strip is `⌈kc / K_CHUNK⌉` *k-chunks* of `mr × K_CHUNK` elements;
//!   within a chunk each row's `K_CHUNK` consecutive k-elements are
//!   adjacent (`pa[strip][(q*mr + i)*K_CHUNK + kk]` holds `A[i][q*K_CHUNK +
//!   kk]`). A source row segment is one cache line of `f64`s, so packing A
//!   is a line copy per `(row, chunk)`, while the kernel — which broadcasts
//!   one A element per row per k-step — still walks the strip front to
//!   back, one chunk (`mr` lines) at a time. The last chunk's k-tail is
//!   zero-padded, so a strip always holds `mr * kc.next_multiple_of(K_CHUNK)`
//!   elements ([`packed_a_len`]).
//! * **B panels** (`kc × nc`) are stored as a sequence of `nr`-column
//!   strips; within a strip, the `nr` elements of each row k are adjacent
//!   (`pb[strip][k*nr + j]`) — the vector operand the kernel loads. Packing
//!   B copies one `nr`-wide row slice per `(strip, k)`.
//!
//! Ragged edges are zero-padded to full strips, which lets the microkernel
//! always run a full `mr × nr` tile; the writeback masks the padding away.
//!
//! The strip widths are runtime parameters (the dispatched kernel's tile
//! shape, see [`crate::kernel::select_kernel`]). Because each B strip is an
//! independent contiguous slice of the buffer, a panel can be packed by
//! several workers in parallel ([`pack_b_strips`]) with byte-identical
//! output regardless of how the strips are divided.
//!
//! # Element types
//!
//! Every packer is generic over [`PackScalar`] — the packed element type
//! the microkernel streams. Source matrices are always `f64`; the f32
//! dtype tier rounds each element **once** during packing (`f64 → f32`),
//! so fused combines (computed in `f64`, then rounded) are bitwise
//! identical to materialise-then-pack for that tier too. Arena buffers
//! stay `Vec<f64>`; f32 panels reinterpret the same allocation at two
//! elements per slot via [`PackScalar::cast_mut`].
//!
//! The mixed-precision tier is a packing rule on f64 panels: the packed
//! nest rounds each block it has just packed in place through f32
//! ([`round_if_mixed`]), so every element — a fused combine included,
//! summed in `f64` first — takes the one rounding an f32 pack gives it,
//! and the f64 kernel then runs on the rounded values.

use crate::kernel::{DtypeTier, KernelFn, KernelInfo, Microkernel};
use crate::leaf::Operand;
use powerscale_matrix::MatrixView;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// A packed-panel element type: `f64` (the f64 and mixed-precision dtype
/// tiers) or `f32` (the f32 tier, which loads and packs single precision).
///
/// The trait is sealed — the kernel calling convention, the arena slot
/// layout and the dispatch enum ([`KernelFn`]) all enumerate exactly these
/// two types.
pub trait PackScalar: Copy + Default + Send + Sync + sealed::Sealed + 'static {
    /// Packed elements stored per `f64` arena slot (1 for f64, 2 for f32).
    const PER_SLOT: usize;

    /// Rounds a source element into the packed precision (identity for
    /// f64; one `as f32` rounding for f32 — the only rounding the f32
    /// tier adds on the load side).
    fn from_f64(x: f64) -> Self;

    /// Rounds packed elements in place through single precision: each f64
    /// becomes the value an f32 pack would widen back to. A no-op on f32
    /// panels, which already hold single precision.
    fn round_through_f32(buf: &mut [Self]);

    /// Reinterprets an arena buffer (`f64` slots) as packed elements.
    fn cast(buf: &[f64]) -> &[Self];

    /// Mutable [`PackScalar::cast`].
    fn cast_mut(buf: &mut [f64]) -> &mut [Self];

    /// The typed microkernel entry of `kernel`. Panics when the kernel's
    /// dtype does not pack this element type — unreachable when callers
    /// dispatch on [`KernelFn`] as [`crate::dgemm`] and [`crate::leaf`] do.
    fn kernel_fn(kernel: &KernelInfo) -> Microkernel<Self>;
}

impl PackScalar for f64 {
    const PER_SLOT: usize = 1;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }

    fn round_through_f32(buf: &mut [Self]) {
        for x in buf {
            *x = f64::from(*x as f32);
        }
    }

    #[inline(always)]
    fn cast(buf: &[f64]) -> &[Self] {
        buf
    }

    #[inline(always)]
    fn cast_mut(buf: &mut [f64]) -> &mut [Self] {
        buf
    }

    fn kernel_fn(kernel: &KernelInfo) -> Microkernel<Self> {
        match kernel.func {
            KernelFn::F64(f) => f,
            KernelFn::F32(_) => panic!("kernel `{}` does not pack f64 panels", kernel.name),
        }
    }
}

impl PackScalar for f32 {
    const PER_SLOT: usize = 2;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }

    fn round_through_f32(_: &mut [Self]) {}

    #[inline(always)]
    fn cast(buf: &[f64]) -> &[Self] {
        // SAFETY: f64 slots are 8-byte aligned (≥ f32's 4), the slice
        // length doubles exactly, and every bit pattern is a valid f32.
        let (head, mid, tail) = unsafe { buf.align_to::<f32>() };
        debug_assert!(head.is_empty() && tail.is_empty());
        mid
    }

    #[inline(always)]
    fn cast_mut(buf: &mut [f64]) -> &mut [Self] {
        // SAFETY: as in `cast`.
        let (head, mid, tail) = unsafe { buf.align_to_mut::<f32>() };
        debug_assert!(head.is_empty() && tail.is_empty());
        mid
    }

    fn kernel_fn(kernel: &KernelInfo) -> Microkernel<Self> {
        match kernel.func {
            KernelFn::F32(f) => f,
            KernelFn::F64(_) => panic!("kernel `{}` does not pack f32 panels", kernel.name),
        }
    }
}

/// The mixed tier's packing rule: when `kernel` computes in
/// [`DtypeTier::Mixed`], rounds the freshly packed `buf` in place through
/// f32 ([`PackScalar::round_through_f32`]); other tiers keep their panels
/// as packed. The packed nest calls it once per packed block, on the
/// thread that packed it.
pub(crate) fn round_if_mixed<T: PackScalar>(kernel: &KernelInfo, buf: &mut [T]) {
    if kernel.dtype == DtypeTier::Mixed {
        T::round_through_f32(buf);
    }
}

/// `f64` arena slots needed to hold `elems` packed elements of type `T`.
pub fn slots_for<T: PackScalar>(elems: usize) -> usize {
    elems.div_ceil(T::PER_SLOT)
}

/// Depth of one A-strip k-chunk: the run of consecutive k-elements of one
/// row that packing copies as a unit and the kernel then broadcasts from,
/// one per k-step. Eight `f64`s are one 64-byte cache line of the source.
pub const K_CHUNK: usize = 8;

/// `dst[j] = src[r][c0 + j]`, rounded to `T` — one row segment of a plain
/// operand.
#[inline(always)]
fn copy_segment<T: PackScalar>(src: &MatrixView<'_>, r: usize, c0: usize, dst: &mut [T]) {
    let c1 = c0 + dst.len();
    for (d, &v) in dst.iter_mut().zip(&src.row(r)[c0..c1]) {
        *d = T::from_f64(v);
    }
}

/// `dst[j] = α·x[r][c0 + j] + β·y[r][c0 + j]`, combined in `f64` and
/// rounded to `T` once — one row segment of a fused operand.
#[inline(always)]
fn sum_segment<T: PackScalar>(
    (x, alpha): (&MatrixView<'_>, f64),
    (y, beta): (&MatrixView<'_>, f64),
    r: usize,
    c0: usize,
    dst: &mut [T],
) {
    let c1 = c0 + dst.len();
    let (xs, ys) = (&x.row(r)[c0..c1], &y.row(r)[c0..c1]);
    for ((d, &xv), &yv) in dst.iter_mut().zip(xs).zip(ys) {
        *d = T::from_f64(alpha * xv + beta * yv);
    }
}

/// Panics unless a fused packer's two sources have one shape.
fn assert_same_shape(who: &str, x: &MatrixView<'_>, y: &MatrixView<'_>) {
    assert_eq!(
        y.shape(),
        x.shape(),
        "{who}: operand shapes differ ({:?} vs {:?})",
        x.shape(),
        y.shape()
    );
}

/// Lays `m` rows of depth `k` out as A strips in `buf` (see the module
/// docs), asking `fill(row, k0, dst)` for the `dst.len()` elements of
/// `row` starting at depth `k0` — one call per live row segment — and
/// zero-filling padding rows and the k-tail. Returns the strip count.
fn pack_a_segments<T: PackScalar>(
    who: &str,
    (m, k): (usize, usize),
    buf: &mut [T],
    mr: usize,
    fill: impl Fn(usize, usize, &mut [T]),
) -> usize {
    let strips = m.div_ceil(mr);
    let strip_len = packed_a_len(mr, k, mr);
    assert!(
        buf.len() >= strips * strip_len,
        "{who}: buffer {} too small for {strips} strips of {k}",
        buf.len()
    );
    let (full, tail) = (k / K_CHUNK, k % K_CHUNK);
    for s in 0..strips {
        let strip = &mut buf[s * strip_len..(s + 1) * strip_len];
        let rows = (m - s * mr).min(mr);
        for i in 0..rows {
            let row = s * mr + i;
            for q in 0..full {
                fill(
                    row,
                    q * K_CHUNK,
                    &mut strip[(q * mr + i) * K_CHUNK..][..K_CHUNK],
                );
            }
            if tail != 0 {
                let seg = &mut strip[(full * mr + i) * K_CHUNK..][..K_CHUNK];
                fill(row, full * K_CHUNK, &mut seg[..tail]);
                seg[tail..].fill(T::default());
            }
        }
        for chunk in strip.chunks_exact_mut(mr * K_CHUNK) {
            chunk[rows * K_CHUNK..].fill(T::default());
        }
    }
    strips
}

/// Lays strips `[first_strip, first_strip + n_strips)` of a `k × n` B
/// panel out at the front of `buf`, asking `fill(kk, col0, dst)` for the
/// `dst.len()` elements of row `kk` starting at column `col0` — one call
/// per `(strip, row)` — and zero-filling each row's column tail.
fn pack_b_rows<T: PackScalar>(
    who: &str,
    (k, n): (usize, usize),
    buf: &mut [T],
    nr: usize,
    (first_strip, n_strips): (usize, usize),
    fill: impl Fn(usize, usize, &mut [T]),
) {
    assert!(
        buf.len() >= n_strips * nr * k,
        "{who}: buffer {} too small for {n_strips} strips of {k}",
        buf.len()
    );
    if k == 0 {
        return;
    }
    for (s, strip) in buf[..n_strips * nr * k]
        .chunks_exact_mut(nr * k)
        .enumerate()
    {
        let col0 = (first_strip + s) * nr;
        let cols = n.saturating_sub(col0).min(nr);
        for (kk, dst) in strip.chunks_exact_mut(nr).enumerate() {
            fill(kk, col0, &mut dst[..cols]);
            dst[cols..].fill(T::default());
        }
    }
}

/// Packs an `m × k` block of A (m ≤ mc, k ≤ kc) into `buf` as `mr`-row
/// strips of `K_CHUNK`-deep k-chunks, zero-padding rows up to a multiple
/// of `mr` and the depth up to a multiple of [`K_CHUNK`]. Returns the
/// number of strips written.
///
/// `buf` must hold at least [`packed_a_len`]`(m, k, mr)` elements.
pub fn pack_a<T: PackScalar>(a: &MatrixView<'_>, buf: &mut [T], mr: usize) -> usize {
    pack_a_segments("pack_a", a.shape(), buf, mr, |i, k0, dst| {
        copy_segment(a, i, k0, dst)
    })
}

/// Packs a `k × n` block of B (k ≤ kc, n ≤ nc) into `buf` as `nr`-column
/// strips, zero-padding columns up to a multiple of `nr`. Returns the
/// number of strips written.
///
/// `buf` must hold at least `ceil(n/nr) * nr * k` elements.
pub fn pack_b<T: PackScalar>(b: &MatrixView<'_>, buf: &mut [T], nr: usize) -> usize {
    let strips = b.cols().div_ceil(nr);
    pack_b_rows(
        "pack_b",
        b.shape(),
        buf,
        nr,
        (0, strips),
        |kk, col0, dst| copy_segment(b, kk, col0, dst),
    );
    strips
}

/// Packs strips `[first_strip, first_strip + n_strips)` of a B panel —
/// plain or fused ([`Operand`]) — into `buf`, which holds exactly those
/// strips (`n_strips * nr * k` elements).
///
/// This is the unit of parallel packing: disjoint strip ranges map to
/// disjoint buffer chunks, so workers can pack one panel cooperatively and
/// the result is byte-identical to a single-threaded [`pack_b`]. Each
/// worker also writes (first-touches) the chunk it packs, which places the
/// backing pages on the packing worker's NUMA node under first-touch
/// placement policies.
pub fn pack_b_strips<T: PackScalar>(
    b: &Operand<'_>,
    buf: &mut [T],
    nr: usize,
    first_strip: usize,
    n_strips: usize,
) {
    let (k, n) = b
        .shape()
        .unwrap_or_else(|e| panic!("pack_b_strips: operand shapes differ ({e})"));
    assert!(
        buf.len() == n_strips * nr * k,
        "pack_b_strips: buffer {} != {n_strips} strips of {k}",
        buf.len()
    );
    assert!(
        first_strip + n_strips <= n.div_ceil(nr),
        "pack_b_strips: strip range beyond panel"
    );
    let (who, strips) = ("pack_b_strips", (first_strip, n_strips));
    match b {
        Operand::View(v) => pack_b_rows(who, (k, n), buf, nr, strips, |kk, col0, dst| {
            copy_segment(v, kk, col0, dst)
        }),
        Operand::Add(x, y) => pack_b_rows(who, (k, n), buf, nr, strips, |kk, col0, dst| {
            sum_segment((x, 1.0), (y, 1.0), kk, col0, dst)
        }),
        Operand::Sub(x, y) => pack_b_rows(who, (k, n), buf, nr, strips, |kk, col0, dst| {
            sum_segment((x, 1.0), (y, -1.0), kk, col0, dst)
        }),
    }
}

/// Packs an `m × k` A block — plain or fused ([`Operand`]) — with the
/// [`pack_a`] layout; a fused block goes through [`pack_a_sum`] at
/// `α = 1, β = ±1`. Returns the number of strips written.
pub(crate) fn pack_operand_a<T: PackScalar>(a: &Operand<'_>, buf: &mut [T], mr: usize) -> usize {
    match a {
        Operand::View(v) => pack_a(v, buf, mr),
        Operand::Add(x, y) => pack_a_sum(x, 1.0, y, 1.0, buf, mr),
        Operand::Sub(x, y) => pack_a_sum(x, 1.0, y, -1.0, buf, mr),
    }
}

/// Packs the elementwise combine `α·X + β·Y` of two same-shape `m × k`
/// blocks into `buf` with the exact [`pack_a`] strip layout, in a single
/// pass — the combined operand is never materialised as a matrix. With
/// `α = 1, β = ±1` the packed values are bitwise identical to packing a
/// separately computed `X ± Y` (multiplication by ±1 is exact in IEEE-754
/// and `x + (−y) ≡ x − y`; the combine is computed in `f64` and rounded to
/// `T` once, matching the unfused path for every dtype tier). Returns the
/// number of strips written.
pub fn pack_a_sum<T: PackScalar>(
    x: &MatrixView<'_>,
    alpha: f64,
    y: &MatrixView<'_>,
    beta: f64,
    buf: &mut [T],
    mr: usize,
) -> usize {
    assert_same_shape("pack_a_sum", x, y);
    pack_a_segments("pack_a_sum", x.shape(), buf, mr, |i, k0, dst| {
        sum_segment((x, alpha), (y, beta), i, k0, dst)
    })
}

/// Elements written by [`pack_a`] for an `m × k` block: whole `mr`-row
/// strips of whole [`K_CHUNK`]-deep chunks (row and k-tail padding
/// included). One strip is `packed_a_len(mr, k, mr)` elements.
pub fn packed_a_len(m: usize, k: usize, mr: usize) -> usize {
    m.div_ceil(mr) * mr * k.next_multiple_of(K_CHUNK)
}

/// Elements written by [`pack_b`] for a `k × n` block (padding included).
pub fn packed_b_len(k: usize, n: usize, nr: usize) -> usize {
    n.div_ceil(nr) * nr * k
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerscale_matrix::Matrix;
    use proptest::prelude::*;

    const MR: usize = 4;
    const NR: usize = 4;

    /// Where `pack_a` puts `A[i][k]`, from the layout's definition: strip
    /// `i / mr`, k-chunk `k / K_CHUNK`, row segment `i % mr`, element
    /// `k % K_CHUNK`.
    fn a_index(i: usize, k: usize, depth: usize, mr: usize) -> usize {
        (i / mr) * packed_a_len(mr, depth, mr)
            + ((k / K_CHUNK) * mr + i % mr) * K_CHUNK
            + k % K_CHUNK
    }

    /// The whole packed image of `a` built element by element from
    /// [`a_index`]: every position no element maps to — padding rows, the
    /// k-tail — is zero.
    fn a_image<T: PackScalar>(a: &MatrixView<'_>, mr: usize) -> Vec<T> {
        let (m, k) = a.shape();
        let mut want = vec![T::default(); packed_a_len(m, k, mr)];
        for i in 0..m {
            for kk in 0..k {
                want[a_index(i, kk, k, mr)] = T::from_f64(a.get(i, kk));
            }
        }
        want
    }

    /// Every register-tile height some kernel on this host dispatches.
    fn dispatched_mrs() -> Vec<usize> {
        let mut mrs: Vec<usize> = crate::kernel::available_kernels()
            .iter()
            .map(|k| k.mr)
            .collect();
        mrs.sort_unstable();
        mrs.dedup();
        mrs
    }

    fn bits<T: PackScalar + Into<f64>>(v: &[T]) -> Vec<u64> {
        v.iter().map(|&x| x.into().to_bits()).collect()
    }

    #[test]
    fn pack_a_layout_exact_multiple() {
        // 4x3 block: one MR strip of one k-chunk. Row i's segment starts
        // at i*K_CHUNK: its three k-elements, then the zero k-tail.
        let a = Matrix::from_fn(4, 3, |i, j| (i * 10 + j + 1) as f64);
        let mut buf = vec![f64::NAN; packed_a_len(4, 3, MR)];
        assert_eq!(buf.len(), MR * K_CHUNK);
        let strips = pack_a(&a.view(), &mut buf, MR);
        assert_eq!(strips, 1);
        assert_eq!(
            &buf[2 * K_CHUNK..3 * K_CHUNK],
            &[21.0, 22.0, 23.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        );
        assert_eq!(buf, a_image::<f64>(&a.view(), MR));
    }

    #[test]
    fn pack_a_zero_pads_ragged_rows() {
        // 6x10: two strips of two k-chunks (10 → 16 deep).
        let a = Matrix::from_fn(6, 10, |i, j| (i * 100 + j + 1) as f64);
        let mut buf = vec![f64::NAN; packed_a_len(6, 10, MR)];
        assert_eq!(buf.len(), 2 * MR * 16);
        let strips = pack_a(&a.view(), &mut buf, MR);
        assert_eq!(strips, 2);
        // Second strip, second chunk: rows 4 and 5 hold k = 8, 9 then the
        // zero k-tail; rows 6 and 7 are padding.
        let chunk = &buf[MR * 16 + MR * K_CHUNK..];
        assert_eq!(&chunk[..3], &[409.0, 410.0, 0.0]);
        assert_eq!(&chunk[K_CHUNK..K_CHUNK + 3], &[509.0, 510.0, 0.0]);
        assert!(chunk[2 * K_CHUNK..].iter().all(|&v| v == 0.0));
        assert_eq!(buf, a_image::<f64>(&a.view(), MR));
    }

    #[test]
    fn pack_b_layout() {
        // 2x8 block → two NR strips.
        let b = Matrix::from_fn(2, 8, |i, j| (i * 100 + j) as f64);
        let mut buf = vec![f64::NAN; packed_b_len(2, 8, NR)];
        let strips = pack_b(&b.view(), &mut buf, NR);
        assert_eq!(strips, 2);
        // Strip 0, row k=1: b[1][0..4] at offset k*NR.
        assert_eq!(&buf[4..8], &[100.0, 101.0, 102.0, 103.0]);
        // Strip 1, row k=0: b[0][4..8].
        assert_eq!(&buf[8..12], &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn pack_b_zero_pads_ragged_cols() {
        let b = Matrix::from_fn(2, 5, |i, j| (i * 100 + j + 1) as f64);
        let mut buf = vec![f64::NAN; packed_b_len(2, 5, NR)];
        pack_b(&b.view(), &mut buf, NR);
        // Strip 1 holds column 4 then three zero columns, per row.
        let s1 = &buf[NR * 2..];
        assert_eq!(s1[0], 5.0);
        assert_eq!(s1[1], 0.0);
        assert_eq!(s1[4], 105.0);
        assert_eq!(s1[5], 0.0);
    }

    #[test]
    fn packing_views_respects_stride() {
        let big = Matrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
        let sub = big.sub_view((2, 3), (4, 2)).unwrap();
        let mut buf = vec![f64::NAN; packed_a_len(4, 2, MR)];
        pack_a(&sub, &mut buf, MR);
        // Row 1 of the strip = big[3][3..5], then the zero k-tail.
        assert_eq!(&buf[K_CHUNK..K_CHUNK + 3], &[27.0, 28.0, 0.0]);
        assert_eq!(buf, a_image::<f64>(&sub, MR));
    }

    #[test]
    fn wide_tile_layout() {
        // The SIMD tile shapes (6×32, 6×8) pack just as well.
        let a = Matrix::from_fn(8, 9, |i, j| (i * 10 + j + 1) as f64);
        let mut buf = vec![f64::NAN; packed_a_len(8, 9, 6)];
        assert_eq!(buf.len(), 2 * 6 * 16);
        assert_eq!(pack_a(&a.view(), &mut buf, 6), 2);
        // Second strip: rows 6, 7 then four zero rows per chunk; its
        // second chunk starts with A[6][8] and seven k-tail zeros.
        let s2 = &buf[6 * 16..];
        assert_eq!(&s2[..2], &[61.0, 62.0]);
        assert_eq!(&s2[K_CHUNK..K_CHUNK + 2], &[71.0, 72.0]);
        assert!(s2[2 * K_CHUNK..6 * K_CHUNK].iter().all(|&v| v == 0.0));
        assert_eq!(&s2[6 * K_CHUNK..6 * K_CHUNK + 2], &[69.0, 0.0]);
        assert_eq!(buf, a_image::<f64>(&a.view(), 6));
        let b = Matrix::from_fn(2, 33, |i, j| (i * 100 + j) as f64);
        let mut bbuf = vec![f64::NAN; packed_b_len(2, 33, 32)];
        assert_eq!(pack_b(&b.view(), &mut bbuf, 32), 2);
        // Strip 1, row 0: column 32 then thirty-one zeros.
        assert_eq!(bbuf[64], 32.0);
        assert!(bbuf[65..96].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn packed_a_len_counts_whole_chunks_of_whole_strips() {
        assert_eq!(packed_a_len(6, 64, 6), 6 * 64);
        assert_eq!(packed_a_len(7, 64, 6), 12 * 64);
        assert_eq!(packed_a_len(6, 65, 6), 6 * 72, "k-tail pads to a chunk");
        assert_eq!(packed_a_len(1, 1, 4), 4 * K_CHUNK);
        assert_eq!(packed_a_len(0, 5, 4), 0);
        assert_eq!(packed_a_len(5, 0, 4), 0);
    }

    /// `x + βy` for `β = ±1`, materialised the way an unfused caller would.
    fn combine(x: &MatrixView<'_>, y: &MatrixView<'_>, beta: f64) -> Matrix {
        Matrix::from_fn(x.rows(), x.cols(), |i, j| {
            if beta > 0.0 {
                x.get(i, j) + y.get(i, j)
            } else {
                x.get(i, j) - y.get(i, j)
            }
        })
    }

    /// `pack_a_sum(X, 1, Y, ±1)` and `pack_b_strips` of the fused operand
    /// `X ± Y` against `pack_{a,b}(X ± Y)`, bit for bit, at element type `T`.
    fn assert_fused_matches_materialised<T: PackScalar + Into<f64>>(
        x: &MatrixView<'_>,
        y: &MatrixView<'_>,
        tile: usize,
    ) {
        let (r, c) = x.shape();
        for beta in [1.0, -1.0] {
            let summed = combine(x, y, beta);
            let mut direct = vec![T::from_f64(f64::NAN); packed_a_len(r, c, tile)];
            let mut fused = direct.clone();
            pack_a(&summed.view(), &mut direct, tile);
            pack_a_sum(x, 1.0, y, beta, &mut fused, tile);
            assert_eq!(
                bits(&direct),
                bits(&fused),
                "pack_a_sum (β={beta}, tile {tile}) diverges from materialised pack"
            );
            let mut directb = vec![T::from_f64(f64::NAN); packed_b_len(r, c, tile)];
            let mut fusedb = directb.clone();
            pack_b(&summed.view(), &mut directb, tile);
            let op = if beta > 0.0 {
                Operand::Add(*x, *y)
            } else {
                Operand::Sub(*x, *y)
            };
            pack_b_strips(&op, &mut fusedb, tile, 0, c.div_ceil(tile));
            assert_eq!(
                bits(&directb),
                bits(&fusedb),
                "fused pack_b_strips (β={beta}, tile {tile}) diverges from materialised pack"
            );
        }
    }

    #[test]
    fn fused_pack_matches_materialised_pack_bitwise() {
        // pack_a_sum(X, 1, Y, ±1) must equal pack_a(X ± Y) bit for bit —
        // the fused leaves rely on this to keep Strassen results identical
        // to the materialise-then-multiply formulation — for f64 panels
        // and for f32 ones (one rounding of the f64 combine either way).
        let x = Matrix::from_fn(11, 13, |i, j| (i as f64 + 0.3) * 0.17 - j as f64 * 0.9);
        let y = Matrix::from_fn(11, 13, |i, j| 1.0 / (1.0 + (i * 7 + j) as f64));
        for tile in [4, 6, 8, 32] {
            assert_fused_matches_materialised::<f64>(&x.view(), &y.view(), tile);
            assert_fused_matches_materialised::<f32>(&x.view(), &y.view(), tile);
        }
    }

    #[test]
    fn fused_pack_scales_with_coefficients() {
        let x = Matrix::filled(4, 4, 2.0);
        let y = Matrix::filled(4, 4, 3.0);
        let mut buf = vec![f64::NAN; packed_a_len(4, 4, MR)];
        pack_a_sum(&x.view(), 0.5, &y.view(), 2.0, &mut buf, MR);
        // 0.5·2 + 2·3 = 7 in each row segment's live half, zero k-tail.
        for seg in buf.chunks_exact(K_CHUNK) {
            assert_eq!(seg, &[7.0, 7.0, 7.0, 7.0, 0.0, 0.0, 0.0, 0.0]);
        }
    }

    #[test]
    #[should_panic(expected = "operand shapes differ")]
    fn fused_pack_rejects_shape_mismatch() {
        let x = Matrix::zeros(4, 4);
        let y = Matrix::zeros(4, 5);
        let mut buf = vec![0.0; packed_a_len(4, 4, MR)];
        pack_a_sum(&x.view(), 1.0, &y.view(), 1.0, &mut buf, MR);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_buffer_rejected() {
        let a = Matrix::zeros(8, 8);
        let mut buf = vec![0.0; 4];
        pack_a(&a.view(), &mut buf, MR);
    }

    #[test]
    fn f32_cast_reinterprets_arena_slots() {
        // An f64 arena lease holds exactly two f32 elements per slot, with
        // no alignment head or tail.
        let mut buf = vec![0.0f64; slots_for::<f32>(9)];
        assert_eq!(buf.len(), 5);
        let elems = f32::cast_mut(&mut buf);
        assert_eq!(elems.len(), 10);
        for (i, e) in elems.iter_mut().enumerate() {
            *e = i as f32;
        }
        let back = f32::cast(&buf);
        assert_eq!(back[9], 9.0);
    }

    #[test]
    fn f32_pack_rounds_each_element_once() {
        // The f32 tiers round on pack: every packed element must be the
        // single `as f32` rounding of its source, and fused combines must
        // round the f64 sum once (bitwise-identical to materialise-then-
        // pack, same as the f64 argument).
        let x = Matrix::from_fn(5, 3, |i, j| 0.1 + i as f64 * 0.77 - j as f64 * 1.3);
        let y = Matrix::from_fn(5, 3, |i, j| 1.0 / (1.0 + (i + 3 * j) as f64));
        let mut slots = vec![0.0f64; slots_for::<f32>(packed_a_len(5, 3, MR))];
        let buf = f32::cast_mut(&mut slots);
        pack_a(&x.view(), buf, MR);
        assert_eq!(bits(buf), bits(&a_image::<f32>(&x.view(), MR)));
        pack_a_sum(&x.view(), 1.0, &y.view(), -1.0, buf, MR);
        let want = (x.get(0, 0) - y.get(0, 0)) as f32;
        assert_eq!(buf[0].to_bits(), want.to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pack_a_round_trips_with_zero_padding(
            m in 1usize..40, k in 1usize..40, r0 in 0usize..5, c0 in 0usize..9, seed in any::<u64>()
        ) {
            // Strided sub-views of a larger matrix, every dispatched tile
            // height, depths on both sides of a chunk boundary: the packed
            // buffer is exactly the layout's image of A — each element
            // where `a_index` says, zeros in padding rows and the k-tail
            // (the buffer starts as NaN, so nothing may be left unwritten).
            let mut gen = powerscale_matrix::MatrixGen::new(seed);
            let big = gen.uniform(m + r0 + 2, k + c0 + 3, 0.5, 2.0);
            let a = big.sub_view((r0, c0), (m, k)).unwrap();
            for mr in dispatched_mrs() {
                let mut buf = vec![f64::NAN; packed_a_len(m, k, mr)];
                prop_assert_eq!(pack_a(&a, &mut buf, mr), m.div_ceil(mr));
                prop_assert_eq!(bits(&buf), bits(&a_image::<f64>(&a, mr)), "mr={}", mr);
                let mut buf32 = vec![f32::NAN; packed_a_len(m, k, mr)];
                pack_a(&a, &mut buf32, mr);
                prop_assert_eq!(bits(&buf32), bits(&a_image::<f32>(&a, mr)), "f32 mr={}", mr);
            }
        }

        #[test]
        fn fused_packs_match_materialised_on_strided_views(
            r in 1usize..30, c in 1usize..30, off in 0usize..7, tile in 1usize..34, seed in any::<u64>()
        ) {
            let mut gen = powerscale_matrix::MatrixGen::new(seed);
            let bx = gen.uniform(r + off, c + off + 1, -1.0, 1.0);
            let by = gen.uniform(r + 1, c + off, -1.0, 1.0);
            let x = bx.sub_view((off, off), (r, c)).unwrap();
            let y = by.sub_view((1, 0), (r, c)).unwrap();
            assert_fused_matches_materialised::<f64>(&x, &y, tile);
            assert_fused_matches_materialised::<f32>(&x, &y, tile);
        }

        #[test]
        fn strip_ranges_compose_to_full_pack(
            k in 1usize..12, n in 1usize..140, nr in 1usize..34, cuts in any::<u64>()
        ) {
            // Packing any split of the strip range separately must
            // reproduce pack_b byte for byte.
            let b = Matrix::from_fn(k, n, |i, j| (i * 31 + j) as f64 * 0.5 + 1.0);
            let strips = n.div_ceil(nr);
            let mut whole = vec![f64::NAN; packed_b_len(k, n, nr)];
            prop_assert_eq!(pack_b(&b.view(), &mut whole, nr), strips);
            let mut parts = vec![f64::NAN; packed_b_len(k, n, nr)];
            let strip_len = nr * k;
            let (mut done, mut bits_left) = (0, cuts);
            while done < strips {
                // Next piece: 1–4 strips, from two bits of `cuts`.
                let take = (1 + (bits_left & 3) as usize).min(strips - done);
                bits_left = bits_left.rotate_right(2);
                let chunk = &mut parts[done * strip_len..(done + take) * strip_len];
                pack_b_strips(&Operand::View(b.view()), chunk, nr, done, take);
                done += take;
            }
            prop_assert_eq!(bits(&whole), bits(&parts));
        }
    }
}
