//! Portable SIMD microkernels: one generic tile body, per-ISA vector
//! impls.
//!
//! The microkernel is written **once** as [`tile_kernel`], generic over a
//! small vector abstraction ([`MicroVec`], the rten-style `SimdVec`
//! idiom): an `MR × CV·LANES` register tile accumulated **by rows** down a
//! packed strip pair — the B strip is the vector operand (`CV` loads per
//! k-step), each A element is broadcast, and accumulator row `i` *is* row
//! `i` of the C tile, so the merge into C is a contiguous vector
//! multiply-add per row with no transpose. Each ISA tier supplies
//! `MicroVec` impls for the two packed element types (f64 and f32) and a
//! thin `#[target_feature]` wrapper that monomorphises the body —
//! generic functions cannot carry `target_feature`, so the wrapper is
//! where the instruction set is enabled and `#[inline(always)]` carries
//! the body into it. The tile is
//! sized from the ISA's **register file** (`MR·CV` accumulators + `CV`
//! B vectors + one broadcast), not from one vector — six rows of four
//! vectors where there are 32 registers, six rows of two where there are
//! 16 — which also keeps loads per FMA low (`(MR + CV) / (MR·CV)`: 0.42
//! at 6×4, against 1.1 for the one-vector-wide 8×8 tile this replaced):
//!
//! | ISA tier  | registers | `MR × CV` | f64 tile | f32 tile | mixed | vector types |
//! |-----------|-----------|-----------|----------|----------|-------|--------------|
//! | `avx512`  | 32 × 512  | 6 × 4     | 6×32     | 6×64     | = f64 tile, f64 kernel | `__m512d` / `__m512` |
//! | `avx2`    | 16 × 256  | 6 × 2     | 6×8      | 6×16     | = f64 tile, f64 kernel | `__m256d` / `__m256` |
//! | `scalar`  | —         | 4 × 4     | 4×4      | 4×4      | = f64 tile, f64 kernel | plain `f64`/`f32` |
//!
//! The mixed dtype tier has no body of its own: it is a packing rule.
//! Each ISA's `*_MIXED` [`KernelInfo`] carries that ISA's f64 entry, and
//! the packed nest ([`crate::dgemm`]) rounds every element of a mixed
//! product's f64 panels once through f32 before the f64 kernel runs.
//!
//! [`detect`] returns the best instance for a dtype tier;
//! [`host_simd_kernels`] enumerates every SIMD instance the host can run
//! (the differential matrix iterates it). The dispatcher
//! ([`crate::kernel::select_kernel`]) falls back to the portable scalar
//! instantiations when no SIMD tier matches the host, which off x86-64 is
//! always: the only SIMD tiers are the x86 ones, the ISAs this crate is
//! built and tested on.
//!
//! # Numerics
//!
//! The x86 tiers use fused multiply-add, so individual products are not
//! rounded before accumulation: results can differ from the scalar kernel
//! in the last few ulps (they are *bitwise* identical when every product
//! and partial sum is exactly representable, e.g. small power-of-two
//! operands — the dispatch property tests exploit this). The scalar tier
//! rounds multiply and add separately. The mixed tier runs the f64
//! kernel, so its only deviation from f64 arithmetic is the single
//! f64→f32 rounding each element takes during packing; on those rounded
//! operands every product is exact in f64 (barring underflow), so its
//! scalar and FMA tiers agree bit for bit. Within
//! one kernel every C element is one accumulator lane summed over `k` in
//! order and merged as `c += alpha * acc` (multiply and add rounded
//! separately), or stored as `c = alpha * acc` on the first k-panel of a
//! product that overwrites C ([`Merge::Store`]: the same bits as adding
//! onto `+0.0` except that a zero `alpha * acc` keeps its sign, since an
//! accumulator that starts at `+0.0` is never `-0.0` under
//! round-to-nearest), so each tier is individually deterministic, pool-size
//! independent, and independent of the tile's shape or orientation — the
//! tests below hold the body to the bits of the column-accumulating body
//! it replaced.

use crate::kernel::{DtypeTier, KernelInfo, Merge};
use crate::pack::K_CHUNK;
use core::mem::MaybeUninit;
use powerscale_matrix::MatrixViewMut;

/// Upper bound on any tier's register-tile columns (the avx512 f32 tile):
/// the length of the row buffers accumulator rows are merged through.
const MAX_NR: usize = 64;

/// A SIMD vector of accumulator lanes, loading from packed elements of
/// type `Elem` and spilling to `f64`.
///
/// # Safety
///
/// Every method may compile to instructions of the impl's ISA: callers
/// must ensure the host supports that ISA before invoking anything that
/// inlines these methods (the `#[target_feature]` wrappers' safe entries
/// re-verify detection). `load`/`splat` read `LANES`/one element(s) at
/// `p`; `store_f64` writes `LANES` f64s at `out` — callers guarantee
/// those ranges are in bounds.
pub(crate) trait MicroVec: Copy {
    /// The packed element type the vector loads ([`crate::pack`]).
    type Elem: crate::pack::PackScalar;
    /// Accumulator lanes per vector (columns covered per B-vector).
    const LANES: usize;

    /// The additive identity.
    unsafe fn zero() -> Self;
    /// Loads `LANES` consecutive packed elements.
    unsafe fn load(p: *const Self::Elem) -> Self;
    /// Broadcasts the single element at `p` to all lanes.
    unsafe fn splat(p: *const Self::Elem) -> Self;
    /// `self + a·b`, fused where the ISA has FMA.
    #[must_use]
    unsafe fn mul_add(self, a: Self, b: Self) -> Self;
    /// Spills the accumulator lanes to `LANES` f64s at `out`.
    unsafe fn store_f64(self, out: *mut f64);
}

/// One k-step of the tile: `acc[i][h] += a[i] · b[h]`, with `b` the `CV`
/// vectors of one B-strip row and `a[i]` broadcast from row `i`'s segment
/// of an A-strip k-chunk (rows are `K_CHUNK` elements apart).
///
/// # Safety
///
/// As [`tile_kernel`]; `a` must be readable at `i * K_CHUNK` for every
/// `i < MR` and `b` for `CV * LANES` elements.
#[inline(always)]
unsafe fn tile_step<V: MicroVec, const MR: usize, const CV: usize>(
    acc: &mut [[V; CV]; MR],
    a: *const V::Elem,
    b: *const V::Elem,
) {
    // SAFETY: the caller guarantees both read ranges.
    unsafe {
        let mut bv = [V::zero(); CV];
        for (h, slot) in bv.iter_mut().enumerate() {
            *slot = V::load(b.add(h * V::LANES));
        }
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = V::splat(a.add(i * K_CHUNK));
            for (slot, &bh) in row.iter_mut().zip(&bv) {
                *slot = slot.mul_add(ai, bh);
            }
        }
    }
}

/// The one microkernel body every tier instantiates: accumulate an
/// `MR × (CV·LANES)` register tile down packed strips of depth `kc`, then
/// add or store `alpha * tile` into `c` at `(row0, col0)` per `merge`,
/// masking rows/columns outside `c` (packing zero-pads, so masked products
/// are zeros anyway).
///
/// Accumulator layout `acc[i][h]`: columns `h·LANES..(h+1)·LANES` of tile
/// row `i`. Each row is spilled to a contiguous row buffer and merged onto
/// the live slice of its C row, so the merge vectorises without mask
/// intrinsics and a ragged right edge is just a shorter slice.
///
/// # Safety
///
/// The host must support the ISA of `V` (see [`MicroVec`]); strip-length
/// requirements are asserted here.
#[inline(always)]
unsafe fn tile_kernel<V: MicroVec, const MR: usize, const CV: usize>(
    kc: usize,
    a_strip: &[V::Elem],
    b_strip: &[V::Elem],
    merge: Merge,
    c: &mut MatrixViewMut<'_>,
    row0: usize,
    col0: usize,
) {
    let nr = CV * V::LANES;
    assert!(nr <= MAX_NR, "register tile wider than the row buffer");
    assert!(
        a_strip.len() >= kc.next_multiple_of(K_CHUNK) * MR,
        "a_strip shorter than its k-chunks"
    );
    assert!(b_strip.len() >= kc * nr, "b_strip shorter than kc*nr");
    let ap = a_strip.as_ptr();
    let bp = b_strip.as_ptr();
    let mut acc = [[unsafe { V::zero() }; CV]; MR];
    let full = kc / K_CHUNK;
    for q in 0..full {
        for kk in 0..K_CHUNK {
            // SAFETY: chunk q is whole, so the A reads end below
            // (q+1)*MR*K_CHUNK and the B row (q*K_CHUNK + kk) < kc; both
            // within the strip lengths asserted above.
            unsafe {
                tile_step(
                    &mut acc,
                    ap.add(q * MR * K_CHUNK + kk),
                    bp.add((q * K_CHUNK + kk) * nr),
                );
            }
        }
    }
    for kk in 0..kc % K_CHUNK {
        // SAFETY: the k-tail lives in chunk `full`, which packing pads to
        // a whole chunk (asserted above); B row full*K_CHUNK + kk < kc.
        unsafe {
            tile_step(
                &mut acc,
                ap.add(full * MR * K_CHUNK + kk),
                bp.add((full * K_CHUNK + kk) * nr),
            );
        }
    }
    // Spill every accumulator row first, at constant indices, so the
    // accumulators never leave registers during the k loop; the masked
    // merge then reads the spilled rows.
    let mut tile = MaybeUninit::<[[f64; MAX_NR]; MR]>::uninit();
    let tp = tile.as_mut_ptr().cast::<f64>();
    for (i, acc_row) in acc.iter().enumerate() {
        for (h, slot) in acc_row.iter().enumerate() {
            // SAFETY: i < MR and h*LANES + LANES ≤ nr ≤ MAX_NR, so the
            // write stays inside row i of `tile`.
            unsafe { slot.store_f64(tp.add(i * MAX_NR + h * V::LANES)) };
        }
    }
    let live_rows = c.rows().saturating_sub(row0).min(MR);
    let live_cols = c.cols().saturating_sub(col0).min(nr);
    for i in 0..live_rows {
        // SAFETY: the first nr ≥ live_cols elements of row i < MR were
        // initialised by the spill above.
        let trow = unsafe { core::slice::from_raw_parts(tp.add(i * MAX_NR), live_cols) };
        let crow = &mut c.row_mut(row0 + i)[col0..][..live_cols];
        match merge {
            Merge::Add(alpha) => {
                for (cj, &t) in crow.iter_mut().zip(trow) {
                    *cj += alpha * t;
                }
            }
            Merge::Store(alpha) => {
                for (cj, &t) in crow.iter_mut().zip(trow) {
                    *cj = alpha * t;
                }
            }
        }
    }
}

/// Returns the best SIMD kernel instance of `dtype` the host supports, or
/// `None`.
pub(crate) fn detect(dtype: DtypeTier) -> Option<&'static KernelInfo> {
    #[cfg(target_arch = "x86_64")]
    {
        if x86::has_avx512() {
            return Some(match dtype {
                DtypeTier::F64 => &x86::AVX512_F64,
                DtypeTier::F32 => &x86::AVX512_F32,
                DtypeTier::Mixed => &x86::AVX512_MIXED,
            });
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Some(match dtype {
                DtypeTier::F64 => &x86::AVX2_F64,
                DtypeTier::F32 => &x86::AVX2_F32,
                DtypeTier::Mixed => &x86::AVX2_MIXED,
            });
        }
    }
    // No SIMD tier on this host (always so off x86-64).
    let _ = dtype;
    None
}

/// Every SIMD kernel instance the host can run, best ISA first — all
/// dtype tiers of every supported ISA, not just the dispatch winners
/// (the testkit differential matrix covers each one).
pub(crate) fn host_simd_kernels() -> Vec<&'static KernelInfo> {
    #[allow(unused_mut)] // off x86-64 there is nothing to add
    let mut v: Vec<&'static KernelInfo> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if x86::has_avx512() {
            v.extend([&x86::AVX512_F64, &x86::AVX512_F32, &x86::AVX512_MIXED]);
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            v.extend([&x86::AVX2_F64, &x86::AVX2_F32, &x86::AVX2_MIXED]);
        }
    }
    v
}

/// Portable scalar instantiations of the generic body: 1-lane "vectors"
/// over plain `f64`/`f32` at the 4×4 shape — the always-available tier of
/// every dtype and the run-time scalar pins. Multiply and add round
/// separately (no FMA), the numerics the scalar tier has always had.
pub(crate) mod generic {
    use super::{tile_kernel, MicroVec};
    use crate::kernel::{DtypeTier, KernelFn, KernelInfo, Merge, SCALAR_MR, SCALAR_NR};
    use powerscale_matrix::MatrixViewMut;

    #[derive(Clone, Copy)]
    struct S64(f64);

    impl MicroVec for S64 {
        type Elem = f64;
        const LANES: usize = 1;

        #[inline(always)]
        unsafe fn zero() -> Self {
            S64(0.0)
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            S64(unsafe { *p })
        }

        #[inline(always)]
        unsafe fn splat(p: *const f64) -> Self {
            S64(unsafe { *p })
        }

        #[inline(always)]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            S64(self.0 + a.0 * b.0)
        }

        #[inline(always)]
        unsafe fn store_f64(self, out: *mut f64) {
            unsafe { *out = self.0 };
        }
    }

    #[derive(Clone, Copy)]
    struct S32(f32);

    impl MicroVec for S32 {
        type Elem = f32;
        const LANES: usize = 1;

        #[inline(always)]
        unsafe fn zero() -> Self {
            S32(0.0)
        }

        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            S32(unsafe { *p })
        }

        #[inline(always)]
        unsafe fn splat(p: *const f32) -> Self {
            S32(unsafe { *p })
        }

        #[inline(always)]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            S32(self.0 + a.0 * b.0)
        }

        #[inline(always)]
        unsafe fn store_f64(self, out: *mut f64) {
            unsafe { *out = f64::from(self.0) };
        }
    }

    fn scalar_f64(
        kc: usize,
        a_strip: &[f64],
        b_strip: &[f64],
        merge: Merge,
        c: &mut MatrixViewMut<'_>,
        row0: usize,
        col0: usize,
    ) {
        // SAFETY: no ISA requirement; strip lengths asserted inside.
        unsafe {
            tile_kernel::<S64, SCALAR_MR, SCALAR_NR>(kc, a_strip, b_strip, merge, c, row0, col0)
        }
    }

    fn scalar_f32(
        kc: usize,
        a_strip: &[f32],
        b_strip: &[f32],
        merge: Merge,
        c: &mut MatrixViewMut<'_>,
        row0: usize,
        col0: usize,
    ) {
        // SAFETY: no ISA requirement; strip lengths asserted inside.
        unsafe {
            tile_kernel::<S32, SCALAR_MR, SCALAR_NR>(kc, a_strip, b_strip, merge, c, row0, col0)
        }
    }

    pub(crate) static SCALAR_F64: KernelInfo = KernelInfo {
        name: "scalar",
        isa: "scalar",
        dtype: DtypeTier::F64,
        mr: SCALAR_MR,
        nr: SCALAR_NR,
        func: KernelFn::F64(scalar_f64),
    };

    pub(crate) static SCALAR_F32: KernelInfo = KernelInfo {
        name: "scalar-f32",
        isa: "scalar",
        dtype: DtypeTier::F32,
        mr: SCALAR_MR,
        nr: SCALAR_NR,
        func: KernelFn::F32(scalar_f32),
    };

    pub(crate) static SCALAR_MIXED: KernelInfo = KernelInfo {
        name: "scalar-mixed",
        isa: "scalar",
        dtype: DtypeTier::Mixed,
        mr: SCALAR_MR,
        nr: SCALAR_NR,
        func: KernelFn::F64(scalar_f64),
    };
}

/// The x86-64 tiers: AVX2+FMA (6 rows × 2 vectors: 12 accumulators, 2 B
/// vectors and a broadcast in 16 `ymm`) and AVX-512 (6 rows × 4 vectors:
/// 24 accumulators, 4 B vectors and a broadcast in 32 `zmm`; see
/// [`x86::has_avx512`] for the features it needs).
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::{tile_kernel, MicroVec};
    use crate::kernel::{DtypeTier, KernelFn, KernelInfo, Merge};
    use core::arch::x86_64::*;
    use powerscale_matrix::MatrixViewMut;

    // ---- AVX2 vectors -------------------------------------------------

    #[derive(Clone, Copy)]
    struct V256F64(__m256d);

    impl MicroVec for V256F64 {
        type Elem = f64;
        const LANES: usize = 4;

        #[inline(always)]
        unsafe fn zero() -> Self {
            Self(unsafe { _mm256_setzero_pd() })
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            Self(unsafe { _mm256_loadu_pd(p) })
        }

        #[inline(always)]
        unsafe fn splat(p: *const f64) -> Self {
            Self(unsafe { _mm256_broadcast_sd(&*p) })
        }

        #[inline(always)]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            Self(unsafe { _mm256_fmadd_pd(a.0, b.0, self.0) })
        }

        #[inline(always)]
        unsafe fn store_f64(self, out: *mut f64) {
            unsafe { _mm256_storeu_pd(out, self.0) };
        }
    }

    #[derive(Clone, Copy)]
    struct V256F32(__m256);

    impl MicroVec for V256F32 {
        type Elem = f32;
        const LANES: usize = 8;

        #[inline(always)]
        unsafe fn zero() -> Self {
            Self(unsafe { _mm256_setzero_ps() })
        }

        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            Self(unsafe { _mm256_loadu_ps(p) })
        }

        #[inline(always)]
        unsafe fn splat(p: *const f32) -> Self {
            Self(unsafe { _mm256_broadcast_ss(&*p) })
        }

        #[inline(always)]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            Self(unsafe { _mm256_fmadd_ps(a.0, b.0, self.0) })
        }

        #[inline(always)]
        unsafe fn store_f64(self, out: *mut f64) {
            // Widen 8 f32 lanes to 8 f64s: two 4-lane converts.
            unsafe {
                let lo = _mm256_castps256_ps128(self.0);
                let hi = _mm256_extractf128_ps::<1>(self.0);
                _mm256_storeu_pd(out, _mm256_cvtps_pd(lo));
                _mm256_storeu_pd(out.add(4), _mm256_cvtps_pd(hi));
            }
        }
    }

    // ---- AVX-512 vectors ----------------------------------------------

    #[derive(Clone, Copy)]
    struct V512F64(__m512d);

    impl MicroVec for V512F64 {
        type Elem = f64;
        const LANES: usize = 8;

        #[inline(always)]
        unsafe fn zero() -> Self {
            Self(unsafe { _mm512_setzero_pd() })
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            Self(unsafe { _mm512_loadu_pd(p) })
        }

        #[inline(always)]
        unsafe fn splat(p: *const f64) -> Self {
            Self(unsafe { _mm512_set1_pd(*p) })
        }

        #[inline(always)]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            Self(unsafe { _mm512_fmadd_pd(a.0, b.0, self.0) })
        }

        #[inline(always)]
        unsafe fn store_f64(self, out: *mut f64) {
            unsafe { _mm512_storeu_pd(out, self.0) };
        }
    }

    #[derive(Clone, Copy)]
    struct V512F32(__m512);

    impl MicroVec for V512F32 {
        type Elem = f32;
        const LANES: usize = 16;

        #[inline(always)]
        unsafe fn zero() -> Self {
            Self(unsafe { _mm512_setzero_ps() })
        }

        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            Self(unsafe { _mm512_loadu_ps(p) })
        }

        #[inline(always)]
        unsafe fn splat(p: *const f32) -> Self {
            Self(unsafe { _mm512_set1_ps(*p) })
        }

        #[inline(always)]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            Self(unsafe { _mm512_fmadd_ps(a.0, b.0, self.0) })
        }

        #[inline(always)]
        unsafe fn store_f64(self, out: *mut f64) {
            // Widen 16 f32 lanes: convert the low and high 256-bit
            // halves (the half swap uses only avx512f shuffles).
            unsafe {
                let lo = _mm512_castps512_ps256(self.0);
                let hi = _mm512_castps512_ps256(_mm512_shuffle_f32x4::<0b1110>(self.0, self.0));
                _mm512_storeu_pd(out, _mm512_cvtps_pd(lo));
                _mm512_storeu_pd(out.add(8), _mm512_cvtps_pd(hi));
            }
        }
    }

    // ---- target_feature wrappers + safe entries -----------------------

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn avx2_f64_tf(
        kc: usize,
        a: &[f64],
        b: &[f64],
        merge: Merge,
        c: &mut MatrixViewMut<'_>,
        row0: usize,
        col0: usize,
    ) {
        unsafe { tile_kernel::<V256F64, 6, 2>(kc, a, b, merge, c, row0, col0) }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn avx2_f32_tf(
        kc: usize,
        a: &[f32],
        b: &[f32],
        merge: Merge,
        c: &mut MatrixViewMut<'_>,
        row0: usize,
        col0: usize,
    ) {
        unsafe { tile_kernel::<V256F32, 6, 2>(kc, a, b, merge, c, row0, col0) }
    }

    #[target_feature(enable = "avx512f", enable = "avx512vl")]
    unsafe fn avx512_f64_tf(
        kc: usize,
        a: &[f64],
        b: &[f64],
        merge: Merge,
        c: &mut MatrixViewMut<'_>,
        row0: usize,
        col0: usize,
    ) {
        unsafe { tile_kernel::<V512F64, 6, 4>(kc, a, b, merge, c, row0, col0) }
    }

    #[target_feature(enable = "avx512f", enable = "avx512vl")]
    unsafe fn avx512_f32_tf(
        kc: usize,
        a: &[f32],
        b: &[f32],
        merge: Merge,
        c: &mut MatrixViewMut<'_>,
        row0: usize,
        col0: usize,
    ) {
        unsafe { tile_kernel::<V512F32, 6, 4>(kc, a, b, merge, c, row0, col0) }
    }

    fn assert_avx2() {
        assert!(
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            "avx2 microkernel dispatched on a host without AVX2+FMA"
        );
    }

    /// The AVX-512 tier needs `avx512f` for the arithmetic and `avx512vl`
    /// so 256-bit halves (the f32 tier's widening spill) may live in any
    /// of the 32 registers — without it every accumulator a half is taken
    /// from is confined to the low 16 and the 24-accumulator tile spills
    /// inside the k loop. Every AVX-512 CPU
    /// except Knights Landing has both.
    pub(crate) fn has_avx512() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl")
    }

    fn assert_avx512() {
        assert!(
            has_avx512(),
            "avx512 microkernel dispatched on a host without AVX-512F+VL"
        );
    }

    /// Safe entry points: re-verify the (CPUID-cached) feature bits
    /// before crossing into the `target_feature` functions; strip bounds
    /// are asserted by the generic body.
    fn avx2_f64(
        kc: usize,
        a: &[f64],
        b: &[f64],
        merge: Merge,
        c: &mut MatrixViewMut<'_>,
        row0: usize,
        col0: usize,
    ) {
        assert_avx2();
        // SAFETY: feature presence asserted above.
        unsafe { avx2_f64_tf(kc, a, b, merge, c, row0, col0) }
    }

    fn avx2_f32(
        kc: usize,
        a: &[f32],
        b: &[f32],
        merge: Merge,
        c: &mut MatrixViewMut<'_>,
        row0: usize,
        col0: usize,
    ) {
        assert_avx2();
        // SAFETY: feature presence asserted above.
        unsafe { avx2_f32_tf(kc, a, b, merge, c, row0, col0) }
    }

    fn avx512_f64(
        kc: usize,
        a: &[f64],
        b: &[f64],
        merge: Merge,
        c: &mut MatrixViewMut<'_>,
        row0: usize,
        col0: usize,
    ) {
        assert_avx512();
        // SAFETY: feature presence asserted above.
        unsafe { avx512_f64_tf(kc, a, b, merge, c, row0, col0) }
    }

    fn avx512_f32(
        kc: usize,
        a: &[f32],
        b: &[f32],
        merge: Merge,
        c: &mut MatrixViewMut<'_>,
        row0: usize,
        col0: usize,
    ) {
        assert_avx512();
        // SAFETY: feature presence asserted above.
        unsafe { avx512_f32_tf(kc, a, b, merge, c, row0, col0) }
    }

    pub(crate) static AVX2_F64: KernelInfo = KernelInfo {
        name: "avx2",
        isa: "avx2",
        dtype: DtypeTier::F64,
        mr: 6,
        nr: 8,
        func: KernelFn::F64(avx2_f64),
    };

    pub(crate) static AVX2_F32: KernelInfo = KernelInfo {
        name: "avx2-f32",
        isa: "avx2",
        dtype: DtypeTier::F32,
        mr: 6,
        nr: 16,
        func: KernelFn::F32(avx2_f32),
    };

    pub(crate) static AVX2_MIXED: KernelInfo = KernelInfo {
        name: "avx2-mixed",
        isa: "avx2",
        dtype: DtypeTier::Mixed,
        mr: 6,
        nr: 8,
        func: KernelFn::F64(avx2_f64),
    };

    pub(crate) static AVX512_F64: KernelInfo = KernelInfo {
        name: "avx512",
        isa: "avx512",
        dtype: DtypeTier::F64,
        mr: 6,
        nr: 32,
        func: KernelFn::F64(avx512_f64),
    };

    pub(crate) static AVX512_F32: KernelInfo = KernelInfo {
        name: "avx512-f32",
        isa: "avx512",
        dtype: DtypeTier::F32,
        mr: 6,
        nr: 64,
        func: KernelFn::F32(avx512_f32),
    };

    pub(crate) static AVX512_MIXED: KernelInfo = KernelInfo {
        name: "avx512-mixed",
        isa: "avx512",
        dtype: DtypeTier::Mixed,
        mr: 6,
        nr: 32,
        func: KernelFn::F64(avx512_f64),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelFn, Microkernel, SCALAR_MR, SCALAR_NR};
    use crate::pack::{pack_a, pack_b, packed_a_len, packed_b_len, PackScalar};
    use powerscale_matrix::Matrix;

    // ---- references: the bodies this module's kernel replaced ---------

    /// The column-accumulating body `tile_kernel` replaced, verbatim: the
    /// A strip is the vector operand (`a_strip[k*mr + i]`, the old A
    /// layout), B elements are splatted, `acc[j][h]` is a column of the
    /// tile, and the tile is transposed through a stack buffer before a
    /// scalar merge. Kept as the bitwise reference.
    unsafe fn tile_kernel_colacc<V: MicroVec, const RV: usize, const NR: usize>(
        kc: usize,
        a_strip: &[V::Elem],
        b_strip: &[V::Elem],
        alpha: f64,
        c: &mut MatrixViewMut<'_>,
        row0: usize,
        col0: usize,
    ) {
        const MAX_MR: usize = 16;
        let mr = RV * V::LANES;
        assert!(mr <= MAX_MR, "register tile taller than the spill buffer");
        assert!(a_strip.len() >= kc * mr, "a_strip shorter than kc*mr");
        assert!(b_strip.len() >= kc * NR, "b_strip shorter than kc*nr");
        let ap = a_strip.as_ptr();
        let bp = b_strip.as_ptr();
        let zero = unsafe { V::zero() };
        let mut acc = [[zero; RV]; NR];
        for k in 0..kc {
            let mut a = [zero; RV];
            for (h, slot) in a.iter_mut().enumerate() {
                *slot = unsafe { V::load(ap.add(k * mr + h * V::LANES)) };
            }
            for (j, accj) in acc.iter_mut().enumerate() {
                let b = unsafe { V::splat(bp.add(k * NR + j)) };
                for (h, slot) in accj.iter_mut().enumerate() {
                    *slot = unsafe { slot.mul_add(a[h], b) };
                }
            }
        }
        let mut tile = [[0.0f64; NR]; MAX_MR];
        let mut col = [0.0f64; MAX_MR];
        for (j, accj) in acc.iter().enumerate() {
            for (h, slot) in accj.iter().enumerate() {
                unsafe { slot.store_f64(col.as_mut_ptr().add(h * V::LANES)) };
            }
            for (i, &v) in col.iter().enumerate().take(mr) {
                tile[i][j] = v;
            }
        }
        let live_rows = c.rows().saturating_sub(row0).min(mr);
        let live_cols = c.cols().saturating_sub(col0).min(NR);
        for (i, trow) in tile.iter().enumerate().take(live_rows) {
            let crow = c.row_mut(row0 + i);
            for j in 0..live_cols {
                crow[col0 + j] += alpha * trow[j];
            }
        }
    }

    /// The hand-written scalar 4×4 kernel the scalar f64 tier dispatched
    /// before it became an instantiation of the generic body (old A
    /// layout, `a_strip[k*MR + i]`).
    fn handwritten_scalar(
        kc: usize,
        a_strip: &[f64],
        b_strip: &[f64],
        alpha: f64,
        c: &mut MatrixViewMut<'_>,
        row0: usize,
        col0: usize,
    ) {
        const MR: usize = SCALAR_MR;
        const NR: usize = SCALAR_NR;
        let mut acc = [[0.0f64; NR]; MR];
        for k in 0..kc {
            let a = &a_strip[k * MR..k * MR + MR];
            let b = &b_strip[k * NR..k * NR + NR];
            for i in 0..MR {
                let ai = a[i];
                for j in 0..NR {
                    acc[i][j] += ai * b[j];
                }
            }
        }
        let live_rows = c.rows().saturating_sub(row0).min(MR);
        let live_cols = c.cols().saturating_sub(col0).min(NR);
        for (i, acc_row) in acc.iter().enumerate().take(live_rows) {
            let crow = c.row_mut(row0 + i);
            for j in 0..live_cols {
                crow[col0 + j] += alpha * acc_row[j];
            }
        }
    }

    /// One `mr`-row strip of `a` in the layout both references read:
    /// the `mr` elements of each column k adjacent.
    fn pack_a_colmajor<T: PackScalar>(a: &Matrix, mr: usize) -> Vec<T> {
        assert!(a.rows() <= mr);
        let mut buf = vec![T::default(); mr * a.cols()];
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                buf[k * mr + i] = T::from_f64(a.get(i, k));
            }
        }
        buf
    }

    // ---- a portable one-lane vector --------------------------------------

    /// Lane arithmetic of a [`Pv`]: packed (and accumulated) element, and
    /// whether multiply-add fuses.
    trait Arith: Copy {
        type Elem: PackScalar;
        const ZERO: Self::Elem;
        fn fma(acc: Self::Elem, a: Self::Elem, b: Self::Elem) -> Self::Elem;
        fn to_f64(acc: Self::Elem) -> f64;
    }

    macro_rules! arith {
        ($name:ident, $elem:ty, |$s:ident, $a:ident, $b:ident| $fma:expr) => {
            #[derive(Clone, Copy)]
            struct $name;
            impl Arith for $name {
                type Elem = $elem;
                const ZERO: $elem = 0.0;
                fn fma($s: $elem, $a: $elem, $b: $elem) -> $elem {
                    $fma
                }
                fn to_f64(acc: $elem) -> f64 {
                    f64::from(acc)
                }
            }
        };
    }
    // `mul_add` is the correctly rounded fused operation, the bits of a
    // hardware FMA lane; `s + a * b` rounds twice like the scalar tier.
    arith!(F64Fused, f64, |s, a, b| a.mul_add(b, s));
    arith!(F64Plain, f64, |s, a, b| s + a * b);
    arith!(F32Fused, f32, |s, a, b| a.mul_add(b, s));
    arith!(F32Plain, f32, |s, a, b| s + a * b);

    /// A portable one-lane vector: runs the replaced body with every
    /// tier's arithmetic on any host.
    #[derive(Clone, Copy)]
    struct Pv<A: Arith>(A::Elem);

    impl<A: Arith> MicroVec for Pv<A> {
        type Elem = A::Elem;
        const LANES: usize = 1;

        unsafe fn zero() -> Self {
            Pv(A::ZERO)
        }

        unsafe fn load(p: *const A::Elem) -> Self {
            Pv(unsafe { *p })
        }

        unsafe fn splat(p: *const A::Elem) -> Self {
            Pv(unsafe { *p })
        }

        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            Pv(A::fma(self.0, a.0, b.0))
        }

        unsafe fn store_f64(self, out: *mut f64) {
            unsafe { *out = A::to_f64(self.0) };
        }
    }

    /// The replaced body, one lane at a time (`RV = mr`). A store is the
    /// replaced formulation of one: zero-fill the live tile, then add.
    fn old_body<A: Arith, const MR: usize, const NR: usize>(
        kc: usize,
        a: &[A::Elem],
        b: &[A::Elem],
        merge: Merge,
        c: &mut MatrixViewMut<'_>,
        row0: usize,
        col0: usize,
    ) {
        let alpha = match merge {
            Merge::Add(alpha) => alpha,
            Merge::Store(alpha) => {
                let live_cols = c.cols().saturating_sub(col0).min(NR);
                for i in row0..c.rows().min(row0 + MR) {
                    c.row_mut(i)[col0..][..live_cols].fill(0.0);
                }
                alpha
            }
        };
        // SAFETY: `Pv` needs no ISA; strip lengths asserted inside.
        unsafe { tile_kernel_colacc::<Pv<A>, MR, NR>(kc, a, b, alpha, c, row0, col0) }
    }

    /// The replaced body at the shape and arithmetic of kernel `name`:
    /// `(mr, nr, entry)`. Every tier of every ISA is listed, so the test
    /// below also pins each tier's shape; a mixed tier runs its ISA's f64
    /// kernel, so it shares the f64 reference.
    fn reference_for(name: &str) -> (usize, usize, KernelFn) {
        use KernelFn::{F32, F64};
        match name {
            "scalar" | "scalar-mixed" => (4, 4, F64(old_body::<F64Plain, 4, 4>)),
            "scalar-f32" => (4, 4, F32(old_body::<F32Plain, 4, 4>)),
            "avx512" | "avx512-mixed" => (6, 32, F64(old_body::<F64Fused, 6, 32>)),
            "avx512-f32" => (6, 64, F32(old_body::<F32Fused, 6, 64>)),
            "avx2" | "avx2-mixed" => (6, 8, F64(old_body::<F64Fused, 6, 8>)),
            "avx2-f32" => (6, 16, F32(old_body::<F32Fused, 6, 16>)),
            other => panic!("no reference instantiation for kernel `{other}`"),
        }
    }

    /// xorshift64*: deterministic, dependency-free.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform in `(-1, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// Runs `new` and `reference` over every `(live_rows, live_cols)` a
    /// tile hanging over C's bottom-right corner can have, at a random
    /// depth each, adding and storing, and asserts equal bits everywhere —
    /// the tile, the rest of the strided C view, and the NaN canaries
    /// around it. A store must match the reference's zero-fill-then-add
    /// bit for bit (no tile here sums to zero, so no `-0.0` arises).
    fn assert_bitwise_vs_reference<T: PackScalar>(
        name: &str,
        (mr, nr): (usize, usize),
        new: Microkernel<T>,
        reference: Microkernel<T>,
    ) {
        const ALPHAS: [f64; 3] = [1.0, -1.0, 0.37];
        let (row0, col0) = (3, 5);
        let mut rng = Rng(name.bytes().fold(0x9e37_79b9_7f4a_7c15, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        }));
        let (mut chunked, mut ragged) = (0, 0);
        for live_rows in 1..=mr {
            for live_cols in 1..=nr {
                let case = (live_rows - 1) * nr + live_cols - 1;
                let mut kc = 1 + (rng.next() % 300) as usize;
                if case % 4 == 0 {
                    kc = kc.next_multiple_of(K_CHUNK).min(296);
                }
                if kc.is_multiple_of(K_CHUNK) {
                    chunked += 1;
                } else {
                    ragged += 1;
                }
                let alpha = ALPHAS[case % 3];
                // Full-height, full-width operands: the rows and columns
                // the tile must mask carry real products, not zeros.
                let a = Matrix::from_fn(mr, kc, |_, _| rng.unit());
                let b = Matrix::from_fn(kc, nr, |_, _| rng.unit());
                let mut pa = vec![T::default(); packed_a_len(mr, kc, mr)];
                let mut pb = vec![T::default(); packed_b_len(kc, nr, nr)];
                pack_a(&a.view(), &mut pa, mr);
                pack_b(&b.view(), &mut pb, nr);
                let pa_old = pack_a_colmajor::<T>(&a, mr);
                // A C view ending live_rows × live_cols past the tile
                // origin, strided inside a NaN-ringed backing matrix.
                let (rows, cols) = (row0 + live_rows, col0 + live_cols);
                let mut before = Matrix::filled(rows + 2, cols + 3, f64::NAN);
                for i in 0..rows {
                    for j in 0..cols {
                        before.set(1 + i, 1 + j, rng.unit());
                    }
                }
                let run = |f: Microkernel<T>, pa: &[T], merge: Merge| {
                    let mut m = before.clone();
                    let mut view = m.sub_view_mut((1, 1), (rows, cols)).unwrap();
                    f(kc, pa, &pb, merge, &mut view, row0, col0);
                    m
                };
                for merge in [Merge::Add(alpha), Merge::Store(alpha)] {
                    let (got, want) = (run(new, &pa, merge), run(reference, &pa_old, merge));
                    for i in 0..rows + 2 {
                        for j in 0..cols + 3 {
                            let at = format!(
                                "kernel `{name}` kc={kc} {merge:?} live {live_rows}x{live_cols} \
                             at backing ({i},{j})"
                            );
                            assert_eq!(
                                got.get(i, j).to_bits(),
                                want.get(i, j).to_bits(),
                                "diverges from the replaced body: {at}"
                            );
                            let in_tile = i > row0 && i <= rows && j > col0 && j <= cols;
                            if !in_tile {
                                assert_eq!(
                                    got.get(i, j).to_bits(),
                                    before.get(i, j).to_bits(),
                                    "wrote outside the live tile: {at}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(chunked > 0 && ragged > 0, "both k-tail classes exercised");
    }

    /// Dispatches [`assert_bitwise_vs_reference`] on the strip type and
    /// checks the shape the reference table pins.
    fn check_against_reference(name: &str, shape: (usize, usize), new: KernelFn) {
        let (mr, nr, reference) = reference_for(name);
        assert_eq!(shape, (mr, nr), "kernel `{name}` changed shape");
        match (new, reference) {
            (KernelFn::F64(n), KernelFn::F64(r)) => assert_bitwise_vs_reference(name, shape, n, r),
            (KernelFn::F32(n), KernelFn::F32(r)) => assert_bitwise_vs_reference(name, shape, n, r),
            _ => panic!("kernel `{name}` and its reference pack different element types"),
        }
    }

    #[test]
    fn every_host_tier_is_bitwise_the_replaced_body() {
        for kernel in crate::kernel::available_kernels() {
            check_against_reference(kernel.name, (kernel.mr, kernel.nr), kernel.func);
        }
    }

    #[test]
    fn generic_body_reproduces_handwritten_scalar_bitwise() {
        // The scalar f64 tier used to dispatch a hand-written 4×4 kernel;
        // it is now the generic body at that shape, which must match the
        // hand-written one bit for bit (same per-element accumulation
        // order over k) on a ragged multi-strip product.
        let kc = 17;
        let a = Matrix::from_fn(7, kc, |i, j| (i as f64 - 2.5) * 0.31 + j as f64 * 0.07);
        let b = Matrix::from_fn(kc, 6, |i, j| 1.0 / (1.0 + (i * 6 + j) as f64));
        let mut pa = vec![0.0; packed_a_len(7, kc, SCALAR_MR)];
        let mut pb = vec![0.0; packed_b_len(kc, 6, SCALAR_NR)];
        let a_strips = pack_a(&a.view(), &mut pa, SCALAR_MR);
        let b_strips = pack_b(&b.view(), &mut pb, SCALAR_NR);
        let scalar = f64::kernel_fn(crate::kernel::scalar_kernel());
        let a_len = packed_a_len(SCALAR_MR, kc, SCALAR_MR);
        let mut hand = Matrix::zeros(7, 6);
        let mut gen = Matrix::zeros(7, 6);
        for sj in 0..b_strips {
            let bs = &pb[sj * SCALAR_NR * kc..(sj + 1) * SCALAR_NR * kc];
            for si in 0..a_strips {
                let rows = (7 - si * SCALAR_MR).min(SCALAR_MR);
                let band = a.sub_view((si * SCALAR_MR, 0), (rows, kc)).unwrap();
                handwritten_scalar(
                    kc,
                    &pack_a_colmajor::<f64>(&band.to_matrix(), SCALAR_MR),
                    bs,
                    1.5,
                    &mut hand.view_mut(),
                    si * SCALAR_MR,
                    sj * SCALAR_NR,
                );
                scalar(
                    kc,
                    &pa[si * a_len..(si + 1) * a_len],
                    bs,
                    Merge::Add(1.5),
                    &mut gen.view_mut(),
                    si * SCALAR_MR,
                    sj * SCALAR_NR,
                );
            }
        }
        assert_eq!(hand, gen);
    }

    #[test]
    fn every_host_tier_computes_one_tile_correctly() {
        // One full tile per dispatchable kernel instance, against naive,
        // at the dtype's precision bound.
        let kernels = crate::kernel::available_kernels();
        for kernel in kernels {
            let (mr, nr) = (kernel.mr, kernel.nr);
            let kc = 13;
            let a = Matrix::from_fn(mr, kc, |i, j| (i * 5 + j) as f64 * 0.125 - 2.0);
            let b = Matrix::from_fn(kc, nr, |i, j| 1.5 - (i + 3 * j) as f64 * 0.25);
            let want = crate::naive::naive_mm(&a.view(), &b.view()).unwrap();
            let mut c = Matrix::zeros(mr, nr);
            match kernel.func {
                KernelFn::F64(f) => {
                    let mut pa = vec![0.0f64; packed_a_len(mr, kc, mr)];
                    let mut pb = vec![0.0f64; packed_b_len(kc, nr, nr)];
                    pack_a(&a.view(), &mut pa, mr);
                    pack_b(&b.view(), &mut pb, nr);
                    f(kc, &pa, &pb, Merge::Add(1.0), &mut c.view_mut(), 0, 0);
                }
                KernelFn::F32(f) => {
                    let mut pa = vec![0.0f32; packed_a_len(mr, kc, mr)];
                    let mut pb = vec![0.0f32; packed_b_len(kc, nr, nr)];
                    pack_a(&a.view(), &mut pa, mr);
                    pack_b(&b.view(), &mut pb, nr);
                    f(kc, &pa, &pb, Merge::Add(1.0), &mut c.view_mut(), 0, 0);
                }
            }
            // These operands are exactly representable in f32 (eighths of
            // moderate magnitude), so every tier — including f32 — is
            // exact here up to accumulator rounding.
            let tol = match kernel.dtype {
                DtypeTier::F64 | DtypeTier::Mixed => 1e-12,
                DtypeTier::F32 => 1e-5,
            };
            let err = powerscale_matrix::norms::rel_frobenius_error(&c.view(), &want.view());
            assert!(err < tol, "kernel `{}` tile err {err}", kernel.name);
        }
    }
}
