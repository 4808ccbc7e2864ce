//! Register-tile microkernels and runtime kernel dispatch.
//!
//! The crate ships one *generic* microkernel body ([`crate::simd`])
//! instantiated per ISA tier and per dtype tier, and picks an instance at
//! runtime:
//!
//! * **ISA tiers** — on x86-64, `avx512` (6×32 over 512-bit lanes) and
//!   `avx2` (6×8, AVX2+FMA); everywhere, the portable `scalar` 4×4 tier
//!   (the only tier off x86-64, and the `force-scalar` feature's pin).
//!   Each tile is sized from its ISA's register file; the per-dtype shapes
//!   are tabulated in [`crate::simd`].
//! * **dtype tiers** ([`DtypeTier`]) — `f64` (the default), `f32`
//!   (single-precision loads, multiplies and accumulation), and `mixed`
//!   (f64 arithmetic on operands rounded once through f32). Mixed is a
//!   packing rule, not a kernel: its instances carry their ISA's f64
//!   entry, and the packed nest rounds the panels it packs.
//!
//! A kernel instance is described by [`KernelInfo`]: its ISA and dtype
//! tier, its register-tile shape (`mr × nr`), and the typed entry point
//! ([`KernelFn`]). The tile shape is *not* a compile-time constant —
//! blocking, packing and the driver all consume the selected kernel's
//! `mr`/`nr` (see [`crate::BlockingParams`]).
//!
//! What gets dispatched is one explicit [`Dispatch`] value — the kernel
//! instance itself — that callers carry down to the kernels; its `Default`
//! is the host's best f64 kernel, or the scalar one under the
//! `force-scalar` feature. Every product — blocked
//! DGEMM and the Strassen/CAPS leaf alike — runs the dispatched kernel
//! through the one packed nest in [`crate::dgemm`].

use crate::pack::{packed_a_len, PackScalar};
use powerscale_matrix::MatrixViewMut;

/// Register-tile rows of the portable scalar microkernel.
pub(crate) const SCALAR_MR: usize = 4;
/// Register-tile columns of the portable scalar microkernel.
pub(crate) const SCALAR_NR: usize = 4;

/// How a microkernel call writes its finished tile `t = a_strip · b_strip`
/// into C: the epilogue's one choice, carrying the scale `alpha`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Merge {
    /// `c += alpha · t` — every k-panel of an accumulating product.
    Add(f64),
    /// `c = alpha · t`, C never read — the first k-panel of a product that
    /// overwrites C (`dgemm` at β = 0, [`crate::leaf::Accum::Set`]), so a
    /// NaN or ∞ already in C cannot leak and C needs no zero-fill.
    Store(f64),
}

impl Merge {
    /// The merge of the k-panels after the first: the same `alpha`, added.
    pub(crate) fn then_add(self) -> Merge {
        match self {
            Merge::Add(alpha) | Merge::Store(alpha) => Merge::Add(alpha),
        }
    }
}

/// The microkernel calling convention shared by every implementation:
/// merge `alpha · (a_strip · b_strip)` into `c` at `(row0, col0)` per
/// `merge` over packed strips of depth `kc`, masking rows/columns outside
/// `c`. The strip element type is the kernel's packed dtype (`f32` for
/// the f32 tier, `f64` otherwise); `c` and `alpha` are always `f64`.
pub(crate) type Microkernel<T> = fn(
    kc: usize,
    a_strip: &[T],
    b_strip: &[T],
    merge: Merge,
    c: &mut MatrixViewMut<'_>,
    row0: usize,
    col0: usize,
);

/// A typed microkernel entry point, tagged by the packed element type its
/// strips carry. The `mixed` tier packs f64 panels rounded through f32,
/// so it uses the `F64` arm; [`KernelInfo::dtype`] distinguishes the two.
#[derive(Debug, Clone, Copy)]
pub enum KernelFn {
    /// Strips of `f64` (the `f64` and `mixed` dtype tiers).
    F64(Microkernel<f64>),
    /// Strips of `f32` (the `f32` dtype tier).
    F32(Microkernel<f32>),
}

/// The numeric tier a kernel computes in — the harness scenario axis that
/// lets EP sweeps compare precision tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DtypeTier {
    /// Double precision throughout (the paper's baseline).
    #[default]
    F64,
    /// Single precision throughout: f32 packing, multiplies and
    /// accumulation. Fastest, loosest bounds (~1e-3 relative at leaf
    /// sizes; see the testkit tier tolerances).
    F32,
    /// Mixed precision: every packed operand element is rounded once
    /// through f32, then the f64 kernel multiplies and accumulates — the
    /// accumulator error of f64 plus the one f64→f32 input rounding per
    /// element (~1e-7 relative). It packs 8-byte panels and runs the f64
    /// kernel, so it costs one rounding pass per packed panel and saves
    /// no kernel time.
    Mixed,
}

impl DtypeTier {
    /// All dtype tiers, in dispatch-preference order.
    pub const ALL: [DtypeTier; 3] = [DtypeTier::F64, DtypeTier::F32, DtypeTier::Mixed];

    /// The tier's canonical lowercase name (`"f64"`, `"f32"`, `"mixed"`).
    pub fn as_str(self) -> &'static str {
        match self {
            DtypeTier::F64 => "f64",
            DtypeTier::F32 => "f32",
            DtypeTier::Mixed => "mixed",
        }
    }
}

impl std::fmt::Display for DtypeTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for DtypeTier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "f64" | "double" => Ok(DtypeTier::F64),
            "f32" | "single" => Ok(DtypeTier::F32),
            "mixed" => Ok(DtypeTier::Mixed),
            other => Err(format!(
                "unknown dtype tier `{other}` (expected f64, f32 or mixed)"
            )),
        }
    }
}

impl serde::Serialize for DtypeTier {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_string())
    }
}

impl serde::Deserialize for DtypeTier {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            // An absent field (a record from before the dtype axis): the default.
            serde::Value::Null => Ok(DtypeTier::F64),
            serde::Value::String(s) => s.parse().map_err(|e: String| serde::Error::custom(e)),
            other => Err(serde::Error::custom(format!(
                "dtype tier must be a string, got {other:?}"
            ))),
        }
    }
}

/// A microkernel instance: ISA tier × dtype tier, the register-tile shape
/// it computes, and its typed entry point.
#[derive(Debug, Clone, Copy)]
pub struct KernelInfo {
    /// Unique dispatch label. f64 tiers keep the bare ISA name (`"avx2"`,
    /// `"scalar"`, …); other dtypes append it (`"avx2-f32"`,
    /// `"scalar-mixed"`, …).
    pub name: &'static str,
    /// The ISA tier (`"scalar"`, `"avx2"`, `"avx512"`).
    pub isa: &'static str,
    /// The numeric tier the kernel computes in.
    pub dtype: DtypeTier,
    /// Register-tile rows: `a_strip` holds
    /// [`packed_a_len`](crate::pack::packed_a_len)`(mr, kc, mr)` packed
    /// elements (`kc` rounded up to whole k-chunks).
    pub mr: usize,
    /// Register-tile columns: `b_strip` holds `kc * nr` packed elements.
    pub nr: usize,
    /// The kernel entry point.
    pub func: KernelFn,
}

/// Kernel instances are identified by their unique dispatch label (entry
/// points are function pointers, whose addresses are not a stable
/// identity).
impl PartialEq for KernelInfo {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for KernelInfo {}

impl KernelInfo {
    /// Bytes per packed panel element for this kernel (8 for f64 panels,
    /// the f64 and mixed tiers; 4 for f32).
    pub(crate) fn packed_elem_bytes(&self) -> usize {
        match self.func {
            KernelFn::F64(_) => std::mem::size_of::<f64>(),
            KernelFn::F32(_) => std::mem::size_of::<f32>(),
        }
    }

    /// `f64` arena slots needed to hold `elems` packed elements (arena
    /// buffers are `Vec<f64>`; f32 panels store two elements per slot).
    pub fn slots_for(&self, elems: usize) -> usize {
        match self.func {
            KernelFn::F64(_) => crate::pack::slots_for::<f64>(elems),
            KernelFn::F32(_) => crate::pack::slots_for::<f32>(elems),
        }
    }

    /// Sweeps all `a_strips × b_strips` register tiles of a packed panel
    /// pair, merging `alpha * (A·B)` into `c` with tiles placed at
    /// `(ir*mr, jr*nr)`. `pa_slots`/`pb_slots` are arena buffers (`f64`
    /// slots) holding the packed strips in this kernel's element type —
    /// the typed view of what [`crate::pack::pack_a`]/[`pack_b`]
    /// (`crate::pack::pack_b`) produced via [`PackScalar::cast_mut`].
    ///
    /// Tiles touch disjoint `c` regions and each tile's accumulation
    /// order is internal to the kernel, so the sweep order is not
    /// observable in the result.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_tiles(
        &self,
        kc: usize,
        pa_slots: &[f64],
        pb_slots: &[f64],
        a_strips: usize,
        b_strips: usize,
        alpha: f64,
        c: &mut MatrixViewMut<'_>,
    ) {
        let merge = Merge::Add(alpha);
        match self.func {
            KernelFn::F64(_) => sweep_strips(
                self,
                kc,
                f64::cast(pa_slots),
                f64::cast(pb_slots),
                a_strips,
                b_strips,
                merge,
                c,
            ),
            KernelFn::F32(_) => sweep_strips(
                self,
                kc,
                f32::cast(pa_slots),
                f32::cast(pb_slots),
                a_strips,
                b_strips,
                merge,
                c,
            ),
        }
    }
}

/// The typed strip sweep shared by [`KernelInfo::sweep_tiles`] and the
/// row bands of the packed nest: B strip `jr` stays hot while every A
/// strip streams past it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_strips<T: PackScalar>(
    kernel: &KernelInfo,
    kc: usize,
    pa: &[T],
    pb: &[T],
    a_strips: usize,
    b_strips: usize,
    merge: Merge,
    c: &mut MatrixViewMut<'_>,
) {
    let micro = T::kernel_fn(kernel);
    let (mr, nr) = (kernel.mr, kernel.nr);
    let a_len = packed_a_len(mr, kc, mr);
    for jr in 0..b_strips {
        let pb_strip = &pb[jr * nr * kc..(jr + 1) * nr * kc];
        for ir in 0..a_strips {
            let pa_strip = &pa[ir * a_len..(ir + 1) * a_len];
            micro(kc, pa_strip, pb_strip, merge, c, ir * mr, jr * nr);
        }
    }
}

/// The portable scalar f64 kernel (always available).
pub fn scalar_kernel() -> &'static KernelInfo {
    &crate::simd::generic::SCALAR_F64
}

/// The portable scalar kernel of a dtype tier (always available — every
/// dtype degrades to a scalar instantiation of the generic body).
pub fn scalar_kernel_for(dtype: DtypeTier) -> &'static KernelInfo {
    match dtype {
        DtypeTier::F64 => &crate::simd::generic::SCALAR_F64,
        DtypeTier::F32 => &crate::simd::generic::SCALAR_F32,
        DtypeTier::Mixed => &crate::simd::generic::SCALAR_MIXED,
    }
}

/// The best SIMD f64 kernel the host supports, or `None` when only the
/// scalar path is available. Forcing this kernel (via
/// [`Dispatch::with_kernel`]) pins the SIMD tier regardless of the
/// `force-scalar` feature.
pub fn simd_kernel() -> Option<&'static KernelInfo> {
    crate::simd::detect(DtypeTier::F64)
}

/// The best SIMD kernel of a dtype tier the host supports, or `None`.
pub fn simd_kernel_for(dtype: DtypeTier) -> Option<&'static KernelInfo> {
    crate::simd::detect(dtype)
}

/// Every kernel instance dispatchable on this host: the three scalar
/// dtype tiers plus each supported SIMD ISA × dtype instance (best ISA
/// first). The testkit differential matrix iterates this.
pub fn available_kernels() -> Vec<&'static KernelInfo> {
    let mut v: Vec<&'static KernelInfo> = DtypeTier::ALL
        .iter()
        .map(|&d| scalar_kernel_for(d))
        .collect();
    v.extend(crate::simd::host_simd_kernels());
    v
}

/// Kernel selection as one explicit value: the kernel instance every
/// product under it runs.
///
/// Nothing here is process-global: a [`crate::GemmContext`] is built from
/// a `Dispatch`, the Strassen/CAPS configs hold one and hand it to every
/// leaf, and the harness and server derive one per run or per request —
/// so two threads can multiply under different kernels at the same
/// instant. The default is [`select_kernel`]: the host's best f64 kernel,
/// or the scalar one under the `force-scalar` feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    kernel: &'static KernelInfo,
}

impl Default for Dispatch {
    fn default() -> Self {
        Dispatch {
            kernel: select_kernel(),
        }
    }
}

impl Dispatch {
    /// This dispatch at another dtype tier: the same ISA's instance of
    /// `dtype`.
    pub fn with_dtype(self, dtype: DtypeTier) -> Self {
        let isa = self.kernel.isa;
        let kernel = available_kernels()
            .into_iter()
            .find(|k| k.isa == isa && k.dtype == dtype)
            .expect("every dispatchable ISA has an instance of every dtype tier");
        Dispatch { kernel }
    }

    /// This dispatch pinned to one exact kernel instance (an entry of
    /// [`available_kernels`]).
    pub fn with_kernel(self, kernel: &'static KernelInfo) -> Self {
        Dispatch { kernel }
    }

    /// The kernel instance this dispatch runs.
    pub fn kernel(&self) -> &'static KernelInfo {
        self.kernel
    }
}

/// The default kernel at a specific dtype tier: the host's best SIMD
/// instance, or the scalar one when the host has none or under the
/// `force-scalar` feature (CI's portable-path job).
pub fn select_kernel_for(dtype: DtypeTier) -> &'static KernelInfo {
    let scalar = scalar_kernel_for(dtype);
    if cfg!(feature = "force-scalar") {
        scalar
    } else {
        simd_kernel_for(dtype).unwrap_or(scalar)
    }
}

/// The default f64 kernel ([`Dispatch::default`]).
pub fn select_kernel() -> &'static KernelInfo {
    select_kernel_for(DtypeTier::F64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{pack_a, pack_b, packed_a_len, packed_b_len};
    use powerscale_matrix::Matrix;

    /// Flops performed by one microkernel call of depth `kc` for an `mr × nr`
    /// tile (full tile, padding included).
    fn microkernel_flops(kc: usize, mr: usize, nr: usize) -> u64 {
        2 * (kc * mr * nr) as u64
    }

    const MR: usize = SCALAR_MR;
    const NR: usize = SCALAR_NR;

    /// The scalar f64 tier's entry point.
    fn microkernel() -> Microkernel<f64> {
        f64::kernel_fn(scalar_kernel())
    }

    #[test]
    fn tile_matches_naive_product() {
        let kc = 6;
        let a = Matrix::from_fn(MR, kc, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(kc, NR, |i, j| (i * j + 1) as f64);
        let mut pa = vec![0.0; packed_a_len(MR, kc, MR)];
        let mut pb = vec![0.0; packed_b_len(kc, NR, NR)];
        pack_a(&a.view(), &mut pa, MR);
        pack_b(&b.view(), &mut pb, NR);
        let mut c = Matrix::zeros(MR, NR);
        microkernel()(kc, &pa, &pb, Merge::Add(1.0), &mut c.view_mut(), 0, 0);
        let expect = crate::naive::naive_mm(&a.view(), &b.view()).unwrap();
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn alpha_scales_contribution() {
        let kc = 3;
        let a = Matrix::filled(MR, kc, 1.0);
        let b = Matrix::filled(kc, NR, 1.0);
        let mut pa = vec![0.0; packed_a_len(MR, kc, MR)];
        let mut pb = vec![0.0; packed_b_len(kc, NR, NR)];
        pack_a(&a.view(), &mut pa, MR);
        pack_b(&b.view(), &mut pb, NR);
        let mut c = Matrix::filled(MR, NR, 10.0);
        microkernel()(kc, &pa, &pb, Merge::Add(0.5), &mut c.view_mut(), 0, 0);
        // 10 + 0.5 * 3 = 11.5 everywhere.
        assert!(c.approx_eq(&Matrix::filled(MR, NR, 11.5), 1e-12));
    }

    #[test]
    fn edge_masking_leaves_outside_untouched() {
        // C is 3x2: tile writes must clip.
        let kc = 2;
        let a = Matrix::filled(3, kc, 1.0);
        let b = Matrix::filled(kc, 2, 1.0);
        let mut pa = vec![0.0; packed_a_len(3, kc, MR)];
        let mut pb = vec![0.0; packed_b_len(kc, 2, NR)];
        pack_a(&a.view(), &mut pa, MR);
        pack_b(&b.view(), &mut pb, NR);
        let mut c = Matrix::zeros(3, 2);
        microkernel()(kc, &pa, &pb, Merge::Add(1.0), &mut c.view_mut(), 0, 0);
        assert!(c.approx_eq(&Matrix::filled(3, 2, 2.0), 1e-12));
    }

    #[test]
    fn offset_tile_placement() {
        let kc = 1;
        let a = Matrix::filled(MR, kc, 2.0);
        let b = Matrix::filled(kc, NR, 3.0);
        let mut pa = vec![0.0; packed_a_len(MR, kc, MR)];
        let mut pb = vec![0.0; packed_b_len(kc, NR, NR)];
        pack_a(&a.view(), &mut pa, MR);
        pack_b(&b.view(), &mut pb, NR);
        let mut c = Matrix::zeros(8, 8);
        microkernel()(kc, &pa, &pb, Merge::Add(1.0), &mut c.view_mut(), 4, 4);
        assert_eq!(c.get(4, 4), 6.0);
        assert_eq!(c.get(7, 7), 6.0);
        assert_eq!(c.get(3, 3), 0.0);
        assert_eq!(c.get(0, 0), 0.0);
    }

    #[test]
    fn flop_count() {
        assert_eq!(microkernel_flops(10, MR, NR), 2 * 10 * 16);
        assert_eq!(microkernel_flops(10, 6, 32), 2 * 10 * 192);
    }

    #[test]
    fn tier_pin_round_trips_and_drives_dispatch() {
        let scalar = Dispatch::default().with_kernel(scalar_kernel());
        assert_eq!(scalar.kernel().name, "scalar");
        let simd = scalar.with_kernel(simd_kernel().unwrap_or(scalar_kernel()));
        match simd_kernel() {
            Some(k) => {
                assert_eq!(simd.kernel().name, k.name);
                assert_ne!(simd, scalar);
            }
            None => assert_eq!(simd, scalar),
        }
        // The value round-trips through copies untouched.
        let copy = simd;
        assert_eq!(copy, simd);
    }

    #[test]
    fn dtype_pin_round_trips_and_drives_dispatch() {
        let base = Dispatch::default();
        assert_eq!(base.kernel().dtype, DtypeTier::F64);
        for dtype in DtypeTier::ALL {
            let d = base.with_dtype(dtype);
            assert_eq!(d.kernel().dtype, dtype);
            assert_eq!(d.kernel().name, select_kernel_for(dtype).name);
            assert_eq!(d.with_dtype(DtypeTier::F64), base);
        }
    }

    #[test]
    fn override_pin_wins_over_every_other_pin() {
        let target = scalar_kernel_for(DtypeTier::Mixed);
        let d = Dispatch::default()
            .with_dtype(DtypeTier::F32)
            .with_kernel(target);
        assert_eq!(d.kernel().name, target.name);
        // A pin is part of the value's identity.
        assert_ne!(d, d.with_kernel(scalar_kernel()));
    }

    #[test]
    fn with_dtype_keeps_the_pinned_kernels_isa() {
        for k in available_kernels() {
            if k.dtype != DtypeTier::F64 {
                continue;
            }
            let got = Dispatch::default()
                .with_kernel(k)
                .with_dtype(DtypeTier::F32)
                .kernel();
            assert_eq!(got.isa, k.isa, "pinned `{}`", k.name);
            assert_eq!(got.dtype, DtypeTier::F32, "pinned `{}`", k.name);
        }
    }

    #[test]
    fn dispatch_is_consistent() {
        let k = select_kernel();
        assert!(k.mr > 0 && k.nr > 0);
        if cfg!(feature = "force-scalar") {
            assert_eq!(k.name, "scalar");
        } else if let Some(simd) = simd_kernel() {
            assert_eq!(k.name, simd.name);
        } else {
            assert_eq!(k.name, "scalar");
        }
        // The scalar tier is always reachable for forcing.
        assert_eq!(scalar_kernel().name, "scalar");
        assert_eq!(scalar_kernel().mr, SCALAR_MR);
    }

    #[test]
    fn force_scalar_covers_every_dtype_tier() {
        // Under the force-scalar feature, every dtype still dispatches —
        // to the scalar instantiation of the generic body.
        for dtype in DtypeTier::ALL {
            let k = select_kernel_for(dtype);
            assert_eq!(k.dtype, dtype);
            if cfg!(feature = "force-scalar") {
                assert_eq!(k.isa, "scalar", "dtype {dtype}");
            }
        }
    }

    #[test]
    fn registry_names_are_unique_and_consistent() {
        let kernels = available_kernels();
        assert!(kernels.len() >= 3, "scalar trio always present");
        let mut names: Vec<&str> = kernels.iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kernels.len(), "duplicate kernel labels");
        for k in &kernels {
            assert!(k.mr > 0 && k.nr > 0);
            // Naming convention: f64 tiers are the bare ISA; other dtypes
            // carry a `-dtype` suffix.
            match k.dtype {
                DtypeTier::F64 => assert_eq!(k.name, k.isa),
                d => assert_eq!(k.name, format!("{}-{}", k.isa, d.as_str())),
            }
            // The typed entry matches the dtype's packed element type:
            // mixed packs f64 panels rounded through f32.
            match (k.dtype, k.func) {
                (DtypeTier::F64 | DtypeTier::Mixed, KernelFn::F64(_)) => {}
                (DtypeTier::F32, KernelFn::F32(_)) => {}
                _ => panic!("kernel `{}` has a mismatched entry type", k.name),
            }
        }
    }

    #[test]
    fn slot_accounting() {
        let k64 = scalar_kernel();
        assert_eq!(k64.slots_for(10), 10);
        assert_eq!(k64.packed_elem_bytes(), 8);
        let k32 = scalar_kernel_for(DtypeTier::F32);
        assert_eq!(k32.slots_for(10), 5);
        assert_eq!(k32.slots_for(9), 5);
        assert_eq!(k32.packed_elem_bytes(), 4);
        let kmix = scalar_kernel_for(DtypeTier::Mixed);
        assert_eq!(kmix.slots_for(10), 10);
        assert_eq!(kmix.packed_elem_bytes(), 8);
    }

    #[test]
    fn dtype_parsing_round_trips() {
        for d in DtypeTier::ALL {
            assert_eq!(d.as_str().parse::<DtypeTier>().unwrap(), d);
        }
        assert!("f16".parse::<DtypeTier>().is_err());
    }

    #[test]
    fn simd_tile_matches_scalar_on_one_tile() {
        let Some(simd) = simd_kernel() else { return };
        let kc = 9;
        let a = Matrix::from_fn(simd.mr, kc, |i, j| (i * 3 + j) as f64 * 0.25);
        let b = Matrix::from_fn(kc, simd.nr, |i, j| 1.0 - (i + 2 * j) as f64 * 0.5);
        let mut pa = vec![0.0; packed_a_len(simd.mr, kc, simd.mr)];
        let mut pb = vec![0.0; packed_b_len(kc, simd.nr, simd.nr)];
        pack_a(&a.view(), &mut pa, simd.mr);
        pack_b(&b.view(), &mut pb, simd.nr);
        let mut c = Matrix::zeros(simd.mr, simd.nr);
        simd.sweep_tiles(kc, &pa, &pb, 1, 1, 1.0, &mut c.view_mut());
        let expect = crate::naive::naive_mm(&a.view(), &b.view()).unwrap();
        assert!(c.approx_eq(&expect, 1e-12));
    }
}
