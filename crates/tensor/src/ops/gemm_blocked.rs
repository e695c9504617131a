//! Cache-blocked, panel-packed GEMM — the kernel behind every dense hot
//! loop large enough to amortize packing (conv forward/backward, linear
//! forward/backward). [`gemm_blocked`] runs any
//! [`GemmDesc`] on it;
//! [`crate::ops::dispatch::gemm`] is the routed entry that falls back to
//! the naive kernel below the profitability threshold.
//!
//! The naive kernel in [`crate::ops::matmul`] streams `B` from memory on
//! every row of `A`; once `B` no longer fits in L2 that becomes the
//! bottleneck. This module applies the standard GotoBLAS decomposition:
//!
//! ```text
//! for jc in 0..n step NC          (B panel → L3)
//!   for pc in 0..k step KC        (pack B[pc..pc+KC, jc..jc+NC] once)
//!     for ic in 0..m step MC      (prepacked A[ic..ic+MC, pc..pc+KC])
//!       macro-kernel: MC×NC += MC×KC · KC×NC  (register-tiled MR×NR)
//! ```
//!
//! Design points that differ from a textbook single-kernel implementation:
//!
//! - **One macro-kernel, many orientations.** The operand views
//!   [`PanelA`] / [`PanelB`] describe how the packing routines gather the
//!   effective `A (m×k)` and `B (k×n)` from storage: plain row-major,
//!   transposed storage (`AᵀB` / `ABᵀ`, which the backward passes need),
//!   or **virtual im2col patches** of one image packed straight from the
//!   image into the tile-major B panel, so its `K×P` patch matrix is
//!   never materialized ([`PanelB::Patches`]; benchmarked and tested,
//!   but the conv kernels materialize the batch's patch matrix and take
//!   the row-major view, which measures faster).
//! - **Precision is a pack-time type parameter** ([`PackElem`]): the
//!   panels store either `f32` (identity conversion) or [`Bf16`]
//!   (round-to-nearest-even once per element, 2× panel density — §3.5's
//!   MXU contract), and the **single** MR×NR micro-kernel widens each
//!   packed element back to f32 and accumulates in f32. The bf16
//!   instantiation is therefore bitwise-identical to quantizing both
//!   operands through bf16 and running the f32 kernel — same values,
//!   same summation order — which is exactly what the equivalence suite
//!   pins. Source operands stay `&[f32]`; conversion happens exactly once
//!   per element, at pack time, including the fused-conv patch gather.
//! - **A is packed exactly once per call** ([`pack_a_into`] into a
//!   [`crate::scratch`] buffer), not once per `jc` column block; callers
//!   with a shared `A` across many GEMMs can prepack once and call
//!   [`gemm_prepacked`] per product.
//! - **Accumulation is a flag**: the macro-kernel always merges with
//!   `+=`; an overwriting product just zeroes `C` first.
//! - **Zero steady-state allocation**: all pack buffers come from the
//!   per-thread [`crate::scratch`] arena (each element type pools
//!   separately).
//! - **Deterministic summation order**: every `C` element accumulates its
//!   `k` products in ascending `pc`-block order. Parallelism divides `C`
//!   into a static `(MC, NC)` tile grid — a pure function of `(m, n)`,
//!   never of worker count — and each tile is owned by exactly **one**
//!   executor for its entire `k` reduction, iterating `pc` ascending and
//!   packing its own B panels from per-thread scratch. No partial sums
//!   ever cross threads (the combine tree is degenerate: one leaf per
//!   tile), so the result is a pure function of the inputs, bitwise
//!   identical at any worker count under any scheduling — which the
//!   schedule-adversarial suite asserts with injected per-tile delays.
//!   This holds per precision; the two precisions differ from each other
//!   (bf16 rounds the operands), which is why kernel *selection*
//!   ([`crate::ops::dispatch`]) must itself be deterministic.
//!
//! The unit tests pin every descriptor against an f64 reference;
//! `crates/tensor/tests/kernel_equivalence.rs` sweeps adversarial shapes
//! and pins bf16 to the quantize-then-f32 oracle bitwise; `ets-bench`'s
//! `bench_kernels` bin records the throughput trajectory in
//! `BENCH_kernels.json`.

use crate::bf16::Bf16;
use crate::ops::conv::Conv2dGeom;
use crate::ops::dispatch::{GemmDesc, GemmPrecision, Orient};
use crate::ops::simd::{self, LanePath};
use crate::par;
use crate::scratch::{scratch_elems, PoolElem};

/// Row-block size (A panel height). A multiple of [`MR`].
pub const MC: usize = 64;
/// Depth-block size (shared panel depth).
pub const KC: usize = 128;
/// Column-block size (B panel width). A multiple of [`NR`].
pub const NC: usize = 256;
/// Micro-tile rows.
pub const MR: usize = 4;
/// Micro-tile columns (one 256-bit f32 vector wide).
pub const NR: usize = 8;

/// Minimum MAC count before the macro-kernel fans its tile grid out to
/// the [`crate::par`] worker pool (below this, job-dispatch latency
/// dominates any parallel win).
const PAR_FLOP_THRESHOLD: usize = 64 * 1024;

/// An element type the packing layer can store panels in. The conversion
/// pair runs exactly once per packed element ([`PackElem::from_f32`] at
/// pack time, [`PackElem::to_f32`] when the micro-kernel widens it back);
/// accumulation is always f32.
///
/// Two instances exist: `f32` (identity — the classic kernel, bitwise
/// unchanged from the pre-generic code) and [`Bf16`] (round-to-nearest-
/// even storage at 2× density — the paper's bf16-multiply/f32-accumulate
/// recipe).
pub trait PackElem: PoolElem {
    /// Human-readable precision tag ("f32" / "bf16") for benches and logs.
    const NAME: &'static str;

    /// Narrowing conversion applied once at pack time.
    fn from_f32(x: f32) -> Self;

    /// Widening conversion applied in the micro-kernel (exact for both
    /// instances: bf16 values are a subset of f32).
    fn to_f32(self) -> f32;

    /// Bulk widening — the inverse of [`PackElem::pack_from_f32`], exact
    /// for both instances and bitwise identical to mapping
    /// [`PackElem::to_f32`]. f32 overrides with a memcpy; bf16 with the
    /// vectorized [`crate::bf16::widen_slice`]. Consumers that read whole
    /// packed panel rows back as f32 (ABFT checksum absorption) route
    /// through here.
    #[inline]
    fn widen_to_f32(src: &[Self], dst: &mut [f32]) {
        debug_assert_eq!(src.len(), dst.len());
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d = s.to_f32();
        }
    }

    /// Bulk row conversion for the contiguous row-major B fast path.
    /// Overridden by `f32` with a straight `copy_from_slice`.
    #[inline]
    fn pack_from_f32(src: &[f32], dst: &mut [Self]) {
        debug_assert_eq!(src.len(), dst.len());
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d = Self::from_f32(s);
        }
    }

    /// Converts one contiguous source row and scatters its `nr`-element
    /// chunks to tile-major storage: chunk `j` lands at
    /// `dst[j * tile_stride ..]`. The default per-chunk loop is a memcpy
    /// scatter for f32; bf16 overrides it with a fused narrow-and-scatter
    /// so the conversion pipelines over the whole row with no staging.
    #[inline]
    fn pack_row_scatter(src: &[f32], dst: &mut [Self], nr: usize, tile_stride: usize) {
        debug_assert_eq!(src.len() % nr, 0);
        for (j, chunk) in src.chunks_exact(nr).enumerate() {
            Self::pack_from_f32(chunk, &mut dst[j * tile_stride..j * tile_stride + nr]);
        }
    }

    /// Packs one row-tile of row-major A: lane `ii` reads the contiguous
    /// slice `src[ii * row_stride ..][..kc]`, element `p` lands at
    /// `dst[p * MR + ii]`, lanes past `im` are zero. The default
    /// lane-by-lane loop is what f32 always did; bf16 overrides it with a
    /// SIMD narrow through stack staging buffers plus a fused four-lane
    /// interleave, so the rounding pipelines across whole rows.
    #[inline]
    fn pack_a_tile(src: &[f32], row_stride: usize, kc: usize, im: usize, dst: &mut [Self]) {
        if im < MR {
            dst.iter_mut().for_each(|v| *v = Self::default());
        }
        for ii in 0..im {
            let row = &src[ii * row_stride..ii * row_stride + kc];
            for (p, &s) in row.iter().enumerate() {
                dst[p * MR + ii] = Self::from_f32(s);
            }
        }
    }

    /// The register-tiled MR×NR inner product over a depth of `kc` on the
    /// given lane path: `acc += apanel(kc×MR)ᵀ ⊗ bpanel(kc×NR)`. Every
    /// lane path is bitwise-identical (see [`crate::ops::simd`]); each
    /// packed element widens to f32 exactly once and accumulation is f32.
    fn micro_kernel(
        path: LanePath,
        kc: usize,
        apanel: &[Self],
        bpanel: &[Self],
        acc: &mut [[f32; NR]; MR],
    );
}

impl PackElem for f32 {
    const NAME: &'static str = "f32";

    #[inline]
    fn from_f32(x: f32) -> Self {
        x
    }

    #[inline]
    fn to_f32(self) -> f32 {
        self
    }

    #[inline]
    fn pack_from_f32(src: &[f32], dst: &mut [f32]) {
        dst.copy_from_slice(src);
    }

    #[inline]
    fn widen_to_f32(src: &[f32], dst: &mut [f32]) {
        dst.copy_from_slice(src);
    }

    #[inline]
    fn pack_row_scatter(src: &[f32], dst: &mut [f32], nr: usize, tile_stride: usize) {
        simd::pack_row_scatter_f32(src, dst, nr, tile_stride);
    }

    #[inline]
    fn micro_kernel(
        path: LanePath,
        kc: usize,
        apanel: &[f32],
        bpanel: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        simd::micro_f32(path, kc, apanel, bpanel, acc);
    }
}

impl PackElem for Bf16 {
    const NAME: &'static str = "bf16";

    #[inline]
    fn from_f32(x: f32) -> Self {
        Bf16::from_f32(x)
    }

    #[inline]
    fn to_f32(self) -> f32 {
        Bf16::to_f32(self)
    }

    #[inline]
    fn pack_from_f32(src: &[f32], dst: &mut [Bf16]) {
        crate::bf16::narrow_slice(src, dst);
    }

    #[inline]
    fn widen_to_f32(src: &[Bf16], dst: &mut [f32]) {
        crate::bf16::widen_slice(src, dst);
    }

    #[inline]
    fn pack_row_scatter(src: &[f32], dst: &mut [Bf16], nr: usize, tile_stride: usize) {
        crate::bf16::narrow_row_scatter(src, dst, nr, tile_stride);
    }

    #[inline]
    fn pack_a_tile(src: &[f32], row_stride: usize, kc: usize, im: usize, dst: &mut [Bf16]) {
        crate::bf16::narrow_tile4(src, row_stride, kc, im, dst);
    }

    #[inline]
    fn micro_kernel(
        path: LanePath,
        kc: usize,
        apanel: &[Bf16],
        bpanel: &[Bf16],
        acc: &mut [[f32; NR]; MR],
    ) {
        simd::micro_bf16(path, kc, apanel, bpanel, acc);
    }
}

/// How the effective `A (m×k)` operand is stored.
#[derive(Clone, Copy, Debug)]
pub enum PanelA<'a> {
    /// `a[i*k + p]` — plain row-major `m×k`.
    RowMajor(&'a [f32]),
    /// `a[p*m + i]` — stored `k×m`; the effective A is the transpose
    /// (the `AᵀB` orientation used by weight gradients).
    Transposed(&'a [f32]),
}

/// How the effective `B (k×n)` operand is produced.
#[derive(Clone, Copy, Debug)]
pub enum PanelB<'a> {
    /// `b[p*n + j]` — plain row-major `k×n`.
    RowMajor(&'a [f32]),
    /// `b[j*k + p]` — stored `n×k`; the effective B is the transpose
    /// (the `ABᵀ` orientation used by input gradients).
    Transposed(&'a [f32]),
    /// The virtual `K×P` im2col patch matrix of one image, packed
    /// directly from `CHW` storage (`img`) into the tile-major panel —
    /// fused im2col: the patch matrix never exists in memory.
    Patches {
        geom: &'a Conv2dGeom,
        img: &'a [f32],
    },
}

/// Length of the packed-A buffer for an `m×k` operand: every row tile is
/// padded to [`MR`] rows. Element-count, not bytes — a bf16 packed A
/// holds the same count at half the bytes.
#[inline]
pub fn packed_a_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k
}

/// Packs the effective `A (m×k)` into tile-major panels of element type
/// `E`, narrowing each element once ([`PackElem::from_f32`]).
///
/// Layout: for each depth block `pc` (step [`KC`], width `kc`), a region of
/// `m_padded·kc` elements at offset `m_padded·pc` holding `m/MR` tiles of
/// `kc×MR` (column-of-tiles, row-within-tile fastest); rows past `m` are
/// zero. The macro-kernel reads both packed operands at stride 1.
pub fn pack_a_into<E: PackElem>(a: PanelA<'_>, m: usize, k: usize, ap: &mut [E]) {
    debug_assert_eq!(ap.len(), packed_a_len(m, k));
    let m_tiles = m.div_ceil(MR);
    let m_padded = m_tiles * MR;
    // Row-major A: each tile lane reads a *contiguous* `kc`-slice of one
    // source row, so the conversion runs row-at-a-time ([`PackElem::
    // pack_a_tile`] — SIMD for bf16) and only the lane interleave is
    // strided. Bitwise identical to the historical per-element order:
    // every element is a single independent conversion.
    if let PanelA::RowMajor(s) = a {
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let region = &mut ap[m_padded * pc..m_padded * (pc + kc)];
            for it in 0..m_tiles {
                let i0 = it * MR;
                let im = MR.min(m - i0);
                let tile = &mut region[it * kc * MR..(it + 1) * kc * MR];
                E::pack_a_tile(&s[i0 * k + pc..], k, kc, im, tile);
            }
        }
        return;
    }
    let at = |i: usize, p: usize| -> f32 {
        match a {
            PanelA::RowMajor(_) => unreachable!("handled by the row-major fast path above"),
            PanelA::Transposed(s) => s[p * m + i],
        }
    };
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        let region = &mut ap[m_padded * pc..m_padded * (pc + kc)];
        for it in 0..m_tiles {
            let i0 = it * MR;
            let im = MR.min(m - i0);
            let tile = &mut region[it * kc * MR..(it + 1) * kc * MR];
            for p in 0..kc {
                let dst = &mut tile[p * MR..(p + 1) * MR];
                for (ii, d) in dst.iter_mut().enumerate() {
                    *d = if ii < im {
                        E::from_f32(at(i0 + ii, pc + p))
                    } else {
                        E::default()
                    };
                }
            }
        }
    }
}

/// One im2col patch value: row `r` of the virtual `K×P` matrix at output
/// position `col`, gathered straight from `CHW` image storage (0 in the
/// padding halo).
#[inline]
fn patch_value(g: &Conv2dGeom, img: &[f32], r: usize, col: usize) -> f32 {
    let c = r / (g.kh * g.kw);
    let rem = r % (g.kh * g.kw);
    let ki = rem / g.kw;
    let kj = rem % g.kw;
    let oh = col / g.w_out;
    let ow = col % g.w_out;
    let ih = (oh * g.stride + ki) as isize - g.pad as isize;
    let iw = (ow * g.stride + kj) as isize - g.pad as isize;
    if ih < 0 || ih >= g.h as isize || iw < 0 || iw >= g.w as isize {
        0.0
    } else {
        img[(c * g.h + ih as usize) * g.w + iw as usize]
    }
}

/// Packs one `kc×nc` B panel (`pc..pc+kc` × `jc..jc+nc` of the effective
/// B) into tile-major layout: `nc/NR` tiles of `kc×NR`, columns past `n`
/// zero-padded. Narrowing to `E` happens here — for the `Patches` arm
/// that means the patch matrix goes straight from image storage to narrow
/// panels without an f32 staging copy.
///
/// Public so the bench harness can measure panel-pack throughput per
/// precision in isolation; GEMM callers never need it directly.
#[allow(clippy::too_many_arguments)] // panel geometry is irreducibly 2-D×2
pub fn pack_b_panel<E: PackElem>(
    b: PanelB<'_>,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    bp: &mut [E],
) {
    let _ = k;
    let b_tiles = nc.div_ceil(NR);
    debug_assert!(bp.len() >= b_tiles * kc * NR);
    // Row-major B is packed row-by-row (p outer, tile inner): each source
    // row `b[pc+p][jc..jc+nc]` is read *contiguously* — the stride-n
    // tile-by-tile order turns every NR-chunk read into a cold cache line
    // once n is large — and scattered into the (cache-resident) tiles.
    // Each row's full tiles go through `pack_row_scatter` — a memcpy
    // scatter for f32, a fused SIMD narrow-and-scatter for bf16 that
    // pipelines the conversion over the whole row with no staging copy.
    if let PanelB::RowMajor(s) = b {
        let full = nc / NR;
        for p in 0..kc {
            let row = &s[(pc + p) * n + jc..(pc + p) * n + jc + nc];
            E::pack_row_scatter(&row[..full * NR], &mut bp[p * NR..], NR, kc * NR);
            if full < b_tiles {
                let jn = nc - full * NR;
                let dst = &mut bp[full * kc * NR + p * NR..full * kc * NR + (p + 1) * NR];
                E::pack_from_f32(&row[full * NR..], &mut dst[..jn]);
                dst[jn..].iter_mut().for_each(|v| *v = E::default());
            }
        }
        return;
    }
    for jt in 0..b_tiles {
        let j0 = jc + jt * NR;
        let jn = NR.min(nc - jt * NR);
        let tile = &mut bp[jt * kc * NR..(jt + 1) * kc * NR];
        match b {
            PanelB::RowMajor(_) => unreachable!("handled by the row-major fast path above"),
            PanelB::Transposed(s) => {
                let kk = s.len() / n; // stored n×k ⇒ row stride k
                for p in 0..kc {
                    let dst = &mut tile[p * NR..(p + 1) * NR];
                    for (jj, d) in dst.iter_mut().enumerate() {
                        *d = if jj < jn {
                            E::from_f32(s[(j0 + jj) * kk + pc + p])
                        } else {
                            E::default()
                        };
                    }
                }
            }
            PanelB::Patches { geom, img } => {
                for p in 0..kc {
                    let dst = &mut tile[p * NR..(p + 1) * NR];
                    for (jj, d) in dst.iter_mut().enumerate() {
                        *d = if jj < jn {
                            E::from_f32(patch_value(geom, img, pc + p, j0 + jj))
                        } else {
                            E::default()
                        };
                    }
                }
            }
        }
    }
}

// The MR×NR micro-kernel itself lives in [`crate::ops::simd`]: a scalar
// reference body plus AVX2/SSE2 lane paths that are bitwise-identical to
// it (independent per-slot chains, separate mul+add, exact bf16 widen).
// [`PackElem::micro_kernel`] routes each precision to its concrete
// implementation; the lane path is resolved once per macro-block call.

/// Macro-kernel over one `(ic, jc)` tile of `C` for one packed B panel,
/// writing through a raw base pointer so disjoint tiles can run on
/// different workers despite `C` being one allocation (same-`ic`,
/// different-`jc` tiles alias any `&mut` row slicing).
///
/// # Safety
/// `c` must point to the full `m×n` C matrix (row stride `n`), valid for
/// writes, and no other thread may concurrently touch rows `ic..ic+mc` ×
/// cols `jc..jc+nc` — the tile grid guarantees exactly that (each tile
/// has a single owner and tiles are pairwise disjoint).
#[allow(clippy::too_many_arguments)]
unsafe fn macro_block<E: PackElem>(
    n: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    ic: usize,
    mc: usize,
    a_region: &[E], // packed A for this pc block: m_tiles tiles of kc×MR
    bp: &[E],
    c: *mut f32, // base of the full m×n C matrix
) {
    let b_tiles = nc.div_ceil(NR);
    let t0 = ic / MR; // MC % MR == 0, so blocks align to tile boundaries
    let tiles_in_block = mc.div_ceil(MR);
    let path = simd::lane_path();
    simd::tally_micro(path, E::NAME == Bf16::NAME);
    for dt in 0..tiles_in_block {
        let it = t0 + dt;
        let i0 = dt * MR; // row offset within the block
        let im = MR.min(mc - i0);
        let apanel = &a_region[it * kc * MR..(it + 1) * kc * MR];
        for jt in 0..b_tiles {
            let j0 = jc + jt * NR;
            let jn = NR.min(nc - jt * NR);
            let mut acc = [[0.0f32; NR]; MR];
            E::micro_kernel(
                path,
                kc,
                apanel,
                &bp[jt * kc * NR..(jt + 1) * kc * NR],
                &mut acc,
            );
            // SAFETY: this function's contract gives us exclusive
            // ownership of rows ic..ic+mc × cols jc..jc+nc; the tile at
            // (ic+i0, j0) of extent im×jn lies inside it.
            simd::tile_writeback(path, c, n, ic + i0, j0, im, jn, &acc);
        }
    }
}

/// `*mut f32` that asserts cross-thread shareability. Sound only under
/// the tile-disjointness argument in [`macro_block`]'s safety contract.
#[derive(Clone, Copy)]
struct CPtr(*mut f32);
unsafe impl Send for CPtr {}
unsafe impl Sync for CPtr {}

impl CPtr {
    /// Accessor (rather than field access) so closures capture the
    /// `Sync` wrapper, not the raw `*mut f32` field.
    #[inline]
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// Blocked GEMM with a **prepacked** A (see [`pack_a_into`]): computes
/// `C ⟵ C + A·B` when `accumulate`, else `C = A·B`. `B` is packed panel
/// by panel from its [`PanelB`] source — including the [`PanelB::Patches`]
/// view that gathers im2col patches on the fly — narrowing to `E` as it
/// goes.
/// `C` is always f32.
///
/// Callers with one `A` and many `B`s pack A once and amortize it;
/// [`gemm_packed`] is the single-shot wrapper.
pub fn gemm_prepacked<E: PackElem>(
    m: usize,
    k: usize,
    n: usize,
    ap: &[E],
    b: PanelB<'_>,
    c: &mut [f32],
    accumulate: bool,
) {
    assert_eq!(ap.len(), packed_a_len(m, k), "packed A length");
    assert_eq!(c.len(), m * n, "C dims");
    match b {
        PanelB::RowMajor(s) => assert_eq!(s.len(), k * n, "B dims"),
        PanelB::Transposed(s) => assert_eq!(s.len(), n * k, "B dims (stored n×k)"),
        PanelB::Patches { geom, img } => {
            assert_eq!(geom.k(), k, "patch rows");
            assert_eq!(geom.p(), n, "patch cols");
            assert_eq!(img.len(), geom.c_in * geom.h * geom.w, "image length");
        }
    }
    if m == 0 || n == 0 {
        return;
    }
    if !accumulate {
        c.iter_mut().for_each(|v| *v = 0.0);
    }
    if k == 0 {
        return;
    }

    let m_padded = m.div_ceil(MR) * MR;
    // The static tile grid: row blocks × column blocks, a pure function
    // of (m, n). Each tile owns rows ic..ic+mc × cols jc..jc+nc of C for
    // its entire k reduction (pc ascending), so per-element summation
    // order is fixed by shape alone — the same whether the tiles run on
    // one thread or sixteen, in any order.
    let row_blocks = m.div_ceil(MC);
    let col_blocks = n.div_ceil(NC);
    let n_tiles = row_blocks * col_blocks;
    // ABFT verify mode (and a pending compute-corruption injection)
    // forces the tile-grid path even on shapes the parallel predicate
    // would leave sequential: per-tile ownership is what makes the
    // snapshot → checksum → recompute cycle sound, and the two paths are
    // bitwise identical anyway (pinned by the schedule-adversarial
    // suite), so routing is numerics-neutral.
    let verifying = super::abft::verify_enabled();
    let tile_path = verifying || super::abft::injection_armed();
    // `effective_workers` (pool size clamped to host cores), not the raw
    // pool size: an oversubscribed pool on a small host pays per-tile
    // B-panel repacking and scheduling for zero concurrency.
    let parallel = n_tiles > 1 && par::effective_workers() > 1 && m * n * k >= PAR_FLOP_THRESHOLD;
    if parallel || tile_path {
        let cp = CPtr(c.as_mut_ptr());
        let tile_body = |tile: usize| {
            let ic = (tile / col_blocks) * MC;
            let jc = (tile % col_blocks) * NC;
            let mc = MC.min(m - ic);
            let nc = NC.min(n - jc);
            let mut ver = if verifying {
                let mut v = super::abft::TileVerifier::new(mc, nc);
                // SAFETY: this tile is exclusively owned by this closure
                // invocation (run_tiles executes each index exactly once;
                // tiles are pairwise disjoint regions of C).
                unsafe { v.snapshot_pre(cp.get(), n, ic, jc) };
                Some(v)
            } else {
                None
            };
            // Per-tile B panel from this worker's own scratch pool; the
            // packed values are identical to the sequential path's (the
            // pack is pure data movement), only the reuse pattern differs.
            let mut bp = scratch_elems::<E>(KC.min(k) * nc.div_ceil(NR) * NR);
            let compute = |bp: &mut [E], mut ver: Option<&mut super::abft::TileVerifier>| {
                for pc in (0..k).step_by(KC) {
                    let kc = KC.min(k - pc);
                    pack_b_panel(b, k, n, pc, kc, jc, nc, bp);
                    let a_pc = &ap[m_padded * pc..m_padded * (pc + kc)];
                    if let Some(v) = ver.as_deref_mut() {
                        v.absorb_panels::<E>(a_pc, bp, kc, ic);
                    }
                    // SAFETY: run_tiles executes each tile index exactly
                    // once; tiles are pairwise disjoint regions of C.
                    unsafe { macro_block(n, kc, jc, nc, ic, mc, a_pc, bp, cp.get()) };
                }
            };
            compute(&mut bp, ver.as_mut());
            // The armed compute-corruption injection fires on the first
            // tile to get here — before verification, so the checksum
            // has to *catch* it, not be spared from it.
            if let Some(bit) = super::abft::take_injection() {
                // SAFETY: same exclusive-tile-ownership argument.
                unsafe { super::abft::flip_first_element(cp.get(), n, ic, jc, bit) };
            }
            if let Some(v) = ver.as_mut() {
                super::abft::note_tile_verified();
                // SAFETY: same exclusive-tile-ownership argument.
                if !unsafe { v.verify(cp.get(), n, ic, jc, k) } {
                    super::abft::note_corruption_detected();
                    // Heal by deterministic recompute: restore the
                    // pre-GEMM tile and redo the identical reduction —
                    // bitwise equal to an uncorrupted run.
                    unsafe { v.restore_pre(cp.get(), n, ic, jc) };
                    v.reset_expected();
                    compute(&mut bp, Some(v));
                    super::abft::note_tile_recomputed();
                    if !unsafe { v.verify(cp.get(), n, ic, jc, k) } {
                        super::abft::note_unrecovered();
                    }
                }
            }
        };
        par::run_tiles(n_tiles, &tile_body);
    } else {
        // Sequential: one panel buffer reused across every (jc, pc)
        // iteration, amortizing each B pack over all row blocks. Per C
        // element this performs the identical f32 operations in the
        // identical order as the tile grid above — the equivalence the
        // schedule-adversarial suite pins bitwise.
        let max_nc_padded = NC.min(n.div_ceil(NR) * NR);
        let mut bp = scratch_elems::<E>(KC.min(k) * max_nc_padded);
        let cp = c.as_mut_ptr();
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b_panel(b, k, n, pc, kc, jc, nc, &mut bp);
                let a_pc = &ap[m_padded * pc..m_padded * (pc + kc)];
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    // SAFETY: single-threaded; `c` is exclusively
                    // borrowed by this function.
                    unsafe { macro_block(n, kc, jc, nc, ic, mc, a_pc, &bp, cp) };
                }
            }
        }
    }
}

/// Blocked GEMM over arbitrary operand orientations at pack-time
/// precision `E`: packs A into arena scratch, then runs
/// [`gemm_prepacked`].
pub fn gemm_packed<E: PackElem>(
    m: usize,
    k: usize,
    n: usize,
    a: PanelA<'_>,
    b: PanelB<'_>,
    c: &mut [f32],
    accumulate: bool,
) {
    match a {
        PanelA::RowMajor(s) => assert_eq!(s.len(), m * k, "A dims"),
        PanelA::Transposed(s) => assert_eq!(s.len(), k * m, "A dims (stored k×m)"),
    }
    let mut ap = scratch_elems::<E>(packed_a_len(m, k));
    pack_a_into::<E>(a, m, k, &mut ap);
    gemm_prepacked::<E>(m, k, n, &ap, b, c, accumulate);
}

/// `C ⟵ [C +] A·B` on the packed kernel, for any descriptor: the
/// orientation picks the panel views, the precision picks the
/// [`PackElem`] instantiation.
pub fn gemm_blocked(desc: GemmDesc, a: &[f32], b: &[f32], c: &mut [f32]) {
    let GemmDesc {
        m,
        k,
        n,
        orient,
        accumulate,
        precision,
    } = desc;
    let pa = match orient {
        Orient::AtB => PanelA::Transposed(a),
        Orient::AB | Orient::ABt => PanelA::RowMajor(a),
    };
    let pb = match orient {
        Orient::ABt => PanelB::Transposed(b),
        Orient::AB | Orient::AtB => PanelB::RowMajor(b),
    };
    match precision {
        GemmPrecision::F32 => gemm_packed::<f32>(m, k, n, pa, pb, c, accumulate),
        GemmPrecision::Bf16 => gemm_packed::<Bf16>(m, k, n, pa, pb, c, accumulate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bf16::round_f32;
    use crate::ops::conv::im2col;
    use crate::rng::Rng;
    use crate::shape::Shape;

    fn rand_vec(rng: &mut Rng, n: usize) -> Vec<f32> {
        let mut v = vec![0.0; n];
        rng.fill_uniform(&mut v, -1.0, 1.0);
        v
    }

    /// f64-accumulated reference.
    fn reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += a[i * k + p] as f64 * b[p * n + j] as f64;
                }
                c[i * n + j] = acc as f32;
            }
        }
        c
    }

    fn tol(k: usize) -> f32 {
        1e-3 * k as f32 / 16.0 + 1e-4
    }

    fn assert_close(got: &[f32], want: &[f32], k: usize, ctx: &str) {
        let max_err = got
            .iter()
            .zip(want)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < tol(k), "{ctx}: max_err {max_err}");
    }

    fn transpose(rows: usize, cols: usize, s: &[f32]) -> Vec<f32> {
        let mut t = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = s[r * cols + c];
            }
        }
        t
    }

    const F32: GemmPrecision = GemmPrecision::F32;
    const BF16: GemmPrecision = GemmPrecision::Bf16;

    /// The plain `AB` overwrite product at one precision.
    fn plain(precision: GemmPrecision, m: usize, k: usize, n: usize) -> GemmDesc {
        GemmDesc {
            precision,
            ..GemmDesc::new(m, k, n)
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every f32 orientation × accumulate at one shape vs the f64
    /// reference; accumulating products start from 1.0 everywhere.
    fn check_all_orientations(m: usize, k: usize, n: usize, seed: u64) {
        let mut rng = Rng::new(seed);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let want = reference(m, k, n, &a, &b);
        let want_acc: Vec<f32> = want.iter().map(|v| v + 1.0).collect();
        let a_t = transpose(m, k, &a); // stored k×m
        let b_t = transpose(k, n, &b); // stored n×k
        for orient in Orient::ALL {
            let (lhs, rhs) = match orient {
                Orient::AB => (&a, &b),
                Orient::AtB => (&a_t, &b),
                Orient::ABt => (&a, &b_t),
            };
            for accumulate in [false, true] {
                let desc = GemmDesc {
                    orient,
                    accumulate,
                    ..GemmDesc::new(m, k, n)
                };
                let mut c = vec![if accumulate { 1.0 } else { 7.5 }; m * n];
                gemm_blocked(desc, lhs, rhs, &mut c);
                let want = if accumulate { &want_acc } else { &want };
                assert_close(&c, want, k, &format!("{desc:?}"));
            }
        }
    }

    #[test]
    fn matches_reference_small() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 4, 4), (5, 9, 3), (17, 13, 11)] {
            check_all_orientations(m, k, n, 1);
        }
    }

    #[test]
    fn matches_reference_at_block_boundaries() {
        for &(m, k, n) in &[
            (MC, KC, NC),
            (MC - 1, KC + 1, NC - 1),
            (MC + 1, KC - 1, NC + 1),
            (2 * MC + 3, KC, NR),
            (MR, 2 * KC + 5, NC + NR + 1),
            (MR - 1, KC, NR - 1),
        ] {
            check_all_orientations(m, k, n, 2);
        }
    }

    #[test]
    fn matches_reference_large() {
        check_all_orientations(200, 300, 150, 3);
        check_all_orientations(256, 256, 256, 4);
    }

    #[test]
    fn identity_product() {
        let n = 96;
        let mut eye = vec![0.0f32; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let mut rng = Rng::new(5);
        let a = rand_vec(&mut rng, n * n);
        let mut c = vec![0.0f32; n * n];
        gemm_blocked(GemmDesc::new(n, n, n), &a, &eye, &mut c);
        for (x, y) in c.iter().zip(&a) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn prepacked_a_reused_across_b_operands() {
        let (m, k, n) = (37, 150, 61);
        let mut rng = Rng::new(6);
        let a = rand_vec(&mut rng, m * k);
        let mut ap = vec![0.0; packed_a_len(m, k)];
        pack_a_into::<f32>(PanelA::RowMajor(&a), m, k, &mut ap);
        for trial in 0..3u64 {
            let b = rand_vec(&mut rng, k * n);
            let want = reference(m, k, n, &a, &b);
            let mut c = vec![0.0; m * n];
            gemm_prepacked::<f32>(m, k, n, &ap, PanelB::RowMajor(&b), &mut c, false);
            assert_close(&c, &want, k, &format!("prepacked trial {trial}"));
        }
    }

    #[test]
    fn fused_patch_panel_matches_materialized_im2col() {
        let mut rng = Rng::new(7);
        // Stride-2, padded geometry — the adversarial case for the fused
        // packer's halo handling.
        for &(c_in, h, w, c_out, ksz, stride, pad) in &[
            (3usize, 9usize, 7usize, 5usize, 3usize, 2usize, 1usize),
            (2, 11, 11, 4, 5, 2, 2),
            (4, 8, 8, 9, 3, 1, 1),
            (1, 5, 5, 2, 1, 1, 0),
        ] {
            let x_shape = Shape::new(&[1, c_in, h, w]);
            let w_shape = Shape::new(&[c_out, c_in, ksz, ksz]);
            let g = Conv2dGeom::infer(&x_shape, &w_shape, stride, pad);
            let img = rand_vec(&mut rng, c_in * h * w);
            let wts = rand_vec(&mut rng, c_out * g.k());

            // Reference: materialized im2col then dense blocked GEMM.
            let mut patches = vec![0.0; g.k() * g.p()];
            im2col(&g, &img, &mut patches);
            let want = reference(c_out, g.k(), g.p(), &wts, &patches);

            // Fused: patches packed on the fly.
            let mut got = vec![0.0; c_out * g.p()];
            gemm_packed::<f32>(
                c_out,
                g.k(),
                g.p(),
                PanelA::RowMajor(&wts),
                PanelB::Patches {
                    geom: &g,
                    img: &img,
                },
                &mut got,
                false,
            );
            assert_close(
                &got,
                &want,
                g.k(),
                &format!("fused conv ({c_in},{h},{w},{c_out},{ksz},s{stride},p{pad})"),
            );
        }
    }

    #[test]
    fn non_finite_operands_propagate() {
        // 0·inf must be NaN, not silently dropped — the nan_guard depends
        // on gradients staying honestly non-finite. bf16 narrowing
        // preserves inf and NaN, so the same holds for both precisions.
        let (m, k, n) = (MR + 1, KC + 3, NR + 2);
        for precision in [F32, BF16] {
            let desc = plain(precision, m, k, n);
            let mut a = vec![0.0f32; m * k];
            let b = vec![1.0f32; k * n];
            a[0] = f32::INFINITY; // row 0 picks up inf·1 = inf
            let mut c = vec![0.0; m * n];
            gemm_blocked(desc, &a, &b, &mut c);
            assert!(c[0].is_infinite());
            // NaN anywhere in the depth poisons the whole row.
            let mut a2 = vec![1.0f32; m * k];
            a2[k - 1] = f32::NAN;
            gemm_blocked(desc, &a2, &b, &mut c);
            for (j, v) in c[..n].iter().enumerate() {
                assert!(v.is_nan(), "{precision:?}: c[0,{j}] must be NaN");
            }
            // …and rows without non-finite inputs stay finite (padding
            // lanes never leak into real outputs).
            for i in 1..m {
                for j in 0..n {
                    assert!(c[i * n + j].is_finite());
                }
            }
        }
    }

    #[test]
    fn deterministic_bitwise_across_repeats() {
        let (m, k, n) = (130, 270, 140);
        let mut rng = Rng::new(9);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        for precision in [F32, BF16] {
            let mut c1 = vec![0.0; m * n];
            gemm_blocked(plain(precision, m, k, n), &a, &b, &mut c1);
            let mut c2 = vec![0.0; m * n];
            gemm_blocked(plain(precision, m, k, n), &a, &b, &mut c2);
            assert_eq!(
                bits(&c1),
                bits(&c2),
                "{precision:?} blocked GEMM must be bitwise reproducible"
            );
        }
    }

    #[test]
    fn bf16_pack_equals_quantize_then_f32_pack() {
        // Packing as Bf16 then widening must give exactly the values the
        // f32 packer produces from pre-quantized operands — the structural
        // half of the bitwise-oracle argument.
        let (m, k) = (13, 150);
        let mut rng = Rng::new(21);
        let a = rand_vec(&mut rng, m * k);
        let aq: Vec<f32> = a.iter().map(|&v| round_f32(v)).collect();

        let mut ap16 = vec![Bf16::ZERO; packed_a_len(m, k)];
        pack_a_into::<Bf16>(PanelA::RowMajor(&a), m, k, &mut ap16);
        let mut apq = vec![0.0f32; packed_a_len(m, k)];
        pack_a_into::<f32>(PanelA::RowMajor(&aq), m, k, &mut apq);
        for (w, &q) in ap16.iter().zip(apq.iter()) {
            assert_eq!(w.to_f32().to_bits(), q.to_bits());
        }
    }

    #[test]
    fn bf16_blocked_equals_quantize_then_f32_blocked_bitwise() {
        // The full oracle: the bf16 family must be bitwise-identical to
        // quantizing both operands through bf16 and running the f32
        // blocked kernel (same values, same summation order).
        for &(m, k, n) in &[(5, 9, 3), (17, 13, 11), (MC + 1, KC + 5, NC + 1)] {
            let mut rng = Rng::new(22);
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            let aq: Vec<f32> = a.iter().map(|&v| round_f32(v)).collect();
            let bq: Vec<f32> = b.iter().map(|&v| round_f32(v)).collect();
            let mut got = vec![0.0; m * n];
            gemm_blocked(plain(BF16, m, k, n), &a, &b, &mut got);
            let mut want = vec![0.0; m * n];
            gemm_blocked(plain(F32, m, k, n), &aq, &bq, &mut want);
            assert_eq!(bits(&got), bits(&want), "({m},{k},{n})");
        }
    }
}
