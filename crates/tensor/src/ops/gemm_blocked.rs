//! Cache-blocked, panel-packed GEMM — the kernel behind every dense hot
//! loop large enough to amortize packing (conv forward/backward, linear
//! forward/backward). [`gemm_blocked`] runs any [`GemmDesc`] on it;
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
//!   effective `A (m×k)` and `B (k×n)` from storage: plain row-major, or
//!   transposed storage (`AᵀB` / `ABᵀ`, which the backward passes need).
//! - **Precision is rounding at pack time, and nothing else.** Panels
//!   are always `f32`. A [`GemmPrecision::Bf16`] product rounds each
//!   element through bf16 ([`crate::bf16::round_f32`]: nearest-even, NaN
//!   quieted) exactly once, as it is packed, and then runs the one f32
//!   micro-kernel — the product of two bf16 values is exact in f32, so
//!   this is §3.5's bf16-multiply / f32-accumulate contract. The bf16
//!   product is therefore *by construction* bitwise-identical to
//!   quantizing both operands and running the f32 kernel — same values,
//!   same summation order — which is what the equivalence suite pins.
//!   Panels do not store the 16-bit type at 2× density: the micro-kernel
//!   would then widen each element again on every use (up to 32 times),
//!   which costs more than the density saves.
//! - **A is packed exactly once per call**, not once per `jc` column
//!   block: whole up front for the tile grid ([`pack_a_into`]), one
//!   `KC` depth slab at a time on the sequential path, which runs `pc`
//!   outermost so a slab serves every column block before the next is
//!   packed.
//! - **Accumulation is a flag**: the macro-kernel always merges with
//!   `+=`; an overwriting product just zeroes `C` first.
//! - **Zero steady-state allocation**: all pack buffers come from the
//!   per-thread [`crate::scratch`] arena.
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
//! and pins bf16 to the quantize-then-f32 oracle bitwise. Throughput is
//! measured in the training step: perfbench's `--trace 1` rows
//! `tensor.host.peak_gflops` (the 256×1152×3136 calibration GEMM, which
//! dispatches here), `tensor.conv.gflops` and
//! `tensor.gemm.blocked_share`.

use crate::bf16::{round_f32, round_in_place};
use crate::ops::dispatch::{GemmDesc, GemmPrecision, Orient};
use crate::ops::simd;
use crate::par;
use crate::scratch::scratch_f32;

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

/// How the effective `A (m×k)` operand is stored.
#[derive(Clone, Copy, Debug)]
pub enum PanelA<'a> {
    /// `a[i*k + p]` — plain row-major `m×k`.
    RowMajor(&'a [f32]),
    /// `a[p*m + i]` — stored `k×m`; the effective A is the transpose
    /// (the `AᵀB` orientation used by weight gradients).
    Transposed(&'a [f32]),
}

/// How the effective `B (k×n)` operand is stored.
#[derive(Clone, Copy, Debug)]
pub enum PanelB<'a> {
    /// `b[p*n + j]` — plain row-major `k×n`.
    RowMajor(&'a [f32]),
    /// `b[j*k + p]` — stored `n×k`; the effective B is the transpose
    /// (the `ABᵀ` orientation used by input gradients).
    Transposed(&'a [f32]),
}

/// Length of the packed-A buffer for an `m×k` operand: every row tile is
/// padded to [`MR`] rows.
#[inline]
pub fn packed_a_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k
}

/// Packs the effective `A (m×k)` into tile-major panels, rounding each
/// element through bf16 once when `precision` is [`GemmPrecision::Bf16`].
///
/// Layout: for each depth block `pc` (step [`KC`], width `kc`), a region of
/// `m_padded·kc` elements at offset `m_padded·pc` (`pack_a_slab`); rows
/// past `m` are zero. The macro-kernel reads both packed operands at
/// stride 1.
pub fn pack_a_into(a: PanelA<'_>, m: usize, k: usize, precision: GemmPrecision, ap: &mut [f32]) {
    debug_assert_eq!(ap.len(), packed_a_len(m, k));
    let m_padded = m.div_ceil(MR) * MR;
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        let region = &mut ap[m_padded * pc..m_padded * (pc + kc)];
        pack_a_slab(a, m, k, pc, kc, precision, region);
    }
}

/// Packs depth block `pc..pc+kc` of the effective A into `region`:
/// `m/MR` tiles of `kc×MR` (column-of-tiles, row-within-tile fastest).
/// A bf16 tile is rounded in place right after it is written, while it
/// is still in L1 (`kc·MR` floats).
fn pack_a_slab(
    a: PanelA<'_>,
    m: usize,
    k: usize,
    pc: usize,
    kc: usize,
    precision: GemmPrecision,
    region: &mut [f32],
) {
    for (it, tile) in region.chunks_exact_mut(kc * MR).enumerate() {
        let i0 = it * MR;
        let im = MR.min(m - i0);
        if im < MR {
            tile.fill(0.0);
        }
        match a {
            // Each lane reads a contiguous `kc`-slice of one source row;
            // only the lane interleave is strided.
            PanelA::RowMajor(s) => {
                for ii in 0..im {
                    let row = &s[(i0 + ii) * k + pc..][..kc];
                    for (p, &v) in row.iter().enumerate() {
                        tile[p * MR + ii] = v;
                    }
                }
            }
            // Stored k×m: depth step `p` of the tile is the contiguous
            // run `s[(pc+p)*m + i0..][..im]`.
            PanelA::Transposed(s) => {
                for p in 0..kc {
                    tile[p * MR..p * MR + im].copy_from_slice(&s[(pc + p) * m + i0..][..im]);
                }
            }
        }
        if precision == GemmPrecision::Bf16 {
            round_in_place(tile);
        }
    }
}

/// Packs one `kc×nc` B panel (`pc..pc+kc` × `jc..jc+nc` of the effective
/// B) into tile-major layout: `nc/NR` tiles of `kc×NR`, columns past `n`
/// zero-padded, each element rounded through bf16 once when `precision`
/// is [`GemmPrecision::Bf16`].
///
/// Public so the bench harness can measure panel-pack throughput per
/// precision in isolation; GEMM callers never need it directly.
#[allow(clippy::too_many_arguments)] // panel geometry is irreducibly 2-D×2
pub fn pack_b_panel(
    b: PanelB<'_>,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    precision: GemmPrecision,
    bp: &mut [f32],
) {
    let b_tiles = nc.div_ceil(NR);
    debug_assert!(bp.len() >= b_tiles * kc * NR);
    let round = precision == GemmPrecision::Bf16;
    match b {
        // Row-major B is packed row-by-row (p outer, tile inner): each
        // source row `b[pc+p][jc..jc+nc]` is read *contiguously* — the
        // stride-n tile-by-tile order turns every NR-chunk read into a
        // cold cache line once n is large — and scattered into the
        // (cache-resident) tiles, rounded in-register on the way when
        // bf16 ([`simd::pack_row_scatter`]).
        PanelB::RowMajor(s) => {
            let full = nc / NR;
            for p in 0..kc {
                let row = &s[(pc + p) * n + jc..(pc + p) * n + jc + nc];
                simd::pack_row_scatter(&row[..full * NR], &mut bp[p * NR..], kc * NR, round);
                if full < b_tiles {
                    let jn = nc - full * NR;
                    let dst = &mut bp[full * kc * NR + p * NR..full * kc * NR + (p + 1) * NR];
                    for (d, &v) in dst.iter_mut().zip(&row[full * NR..]) {
                        *d = if round { round_f32(v) } else { v };
                    }
                    dst[jn..].fill(0.0);
                }
            }
        }
        // Stored n×k (row stride k): gathered tile by tile, and a bf16
        // tile rounded in place once complete (`kc·NR` floats, in L1).
        PanelB::Transposed(s) => {
            for jt in 0..b_tiles {
                let j0 = jc + jt * NR;
                let jn = NR.min(nc - jt * NR);
                let tile = &mut bp[jt * kc * NR..(jt + 1) * kc * NR];
                for p in 0..kc {
                    let dst = &mut tile[p * NR..(p + 1) * NR];
                    for (jj, d) in dst.iter_mut().enumerate() {
                        *d = if jj < jn {
                            s[(j0 + jj) * k + pc + p]
                        } else {
                            0.0
                        };
                    }
                }
                if round {
                    round_in_place(tile);
                }
            }
        }
    }
}

// The MR×NR micro-kernel itself lives in [`crate::ops::simd`]: a scalar
// reference body plus AVX2/SSE2 lane paths that are bitwise-identical to
// it (independent per-slot chains, separate mul+add). The lane path is
// resolved once per macro-block call.

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
unsafe fn macro_block(
    n: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    ic: usize,
    mc: usize,
    a_region: &[f32], // packed A for this pc block: m_tiles tiles of kc×MR
    bp: &[f32],
    c: *mut f32, // base of the full m×n C matrix
) {
    let b_tiles = nc.div_ceil(NR);
    let t0 = ic / MR; // MC % MR == 0, so blocks align to tile boundaries
    let tiles_in_block = mc.div_ceil(MR);
    let path = simd::lane_path();
    simd::tally_micro(path);
    for dt in 0..tiles_in_block {
        let it = t0 + dt;
        let i0 = dt * MR; // row offset within the block
        let im = MR.min(mc - i0);
        let apanel = &a_region[it * kc * MR..(it + 1) * kc * MR];
        for jt in 0..b_tiles {
            let j0 = jc + jt * NR;
            let jn = NR.min(nc - jt * NR);
            let mut acc = [[0.0f32; NR]; MR];
            simd::micro_f32(
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

/// `C ⟵ [C +] A·B` on the packed kernel, for any descriptor: the
/// orientation picks the panel views, the precision whether packing
/// rounds through bf16. A is packed once into arena scratch; B is packed
/// panel by panel, per tile on the parallel path.
pub fn gemm_blocked(desc: GemmDesc, a: &[f32], b: &[f32], c: &mut [f32]) {
    let GemmDesc {
        m,
        k,
        n,
        orient,
        accumulate,
        precision,
    } = desc;
    assert_eq!(a.len(), m * k, "A dims for {desc:?}");
    assert_eq!(b.len(), k * n, "B dims for {desc:?}");
    assert_eq!(c.len(), m * n, "C dims for {desc:?}");
    let pa = match orient {
        Orient::AtB => PanelA::Transposed(a),
        Orient::AB | Orient::ABt => PanelA::RowMajor(a),
    };
    let pb = match orient {
        Orient::ABt => PanelB::Transposed(b),
        Orient::AB | Orient::AtB => PanelB::RowMajor(b),
    };
    if m == 0 || n == 0 {
        return;
    }
    if !accumulate {
        c.fill(0.0);
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
        // Every tile reads every depth block of its rows of A, so A is
        // packed once, whole, and shared.
        let mut ap = scratch_f32(packed_a_len(m, k));
        pack_a_into(pa, m, k, precision, &mut ap);
        let ap = &ap[..];
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
            let mut bp = scratch_f32(KC.min(k) * nc.div_ceil(NR) * NR);
            let compute = |bp: &mut [f32], mut ver: Option<&mut super::abft::TileVerifier>| {
                for pc in (0..k).step_by(KC) {
                    let kc = KC.min(k - pc);
                    pack_b_panel(pb, k, n, pc, kc, jc, nc, precision, bp);
                    let a_pc = &ap[m_padded * pc..m_padded * (pc + kc)];
                    if let Some(v) = ver.as_deref_mut() {
                        v.absorb_panels(a_pc, bp, kc, ic);
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
        // Sequential: depth blocks outermost, so A is packed one slab at
        // a time (`m·KC` floats, not `m·k`: the weight-gradient products
        // have `k = N·P`) and reused by every column block, and each B
        // panel is packed once and reused by every row block. Per C
        // element this performs the identical f32 operations in the
        // identical order (`pc` ascending) as the tile grid above — the
        // equivalence the schedule-adversarial suite pins bitwise.
        let kc_max = KC.min(k);
        let mut ap = scratch_f32(m_padded * kc_max);
        let mut bp = scratch_f32(kc_max * NC.min(n.div_ceil(NR) * NR));
        let cp = c.as_mut_ptr();
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let a_pc = &mut ap[..m_padded * kc];
            pack_a_slab(pa, m, k, pc, kc, precision, a_pc);
            let a_pc = &*a_pc;
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                pack_b_panel(pb, k, n, pc, kc, jc, nc, precision, &mut bp);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

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
        // Packing at bf16 must give exactly the panels the f32 packer
        // produces from pre-quantized operands, in both orientations of
        // each operand — the structural half of the bitwise-oracle
        // argument.
        let (m, k, n) = (13, 150, NR + 3);
        let mut rng = Rng::new(21);
        let a = rand_vec(&mut rng, m * k);
        let aq: Vec<f32> = a.iter().map(|&v| round_f32(v)).collect();
        for (view, qview) in [
            (PanelA::RowMajor(&a), PanelA::RowMajor(&aq)),
            (PanelA::Transposed(&a), PanelA::Transposed(&aq)),
        ] {
            let mut got = vec![0.0f32; packed_a_len(m, k)];
            pack_a_into(view, m, k, BF16, &mut got);
            let mut want = vec![0.0f32; packed_a_len(m, k)];
            pack_a_into(qview, m, k, F32, &mut want);
            assert_eq!(bits(&got), bits(&want), "{view:?}");
        }
        // B: the rounded scatter, its partial last tile, and the
        // transposed gather.
        let b = &a[..k * n];
        let bq = &aq[..k * n];
        for (view, qview) in [
            (PanelB::RowMajor(b), PanelB::RowMajor(bq)),
            (PanelB::Transposed(b), PanelB::Transposed(bq)),
        ] {
            let len = KC.min(k) * n.div_ceil(NR) * NR;
            let (mut got, mut want) = (vec![0.0f32; len], vec![0.0f32; len]);
            pack_b_panel(view, k, n, 0, KC.min(k), 0, n, BF16, &mut got);
            pack_b_panel(qview, k, n, 0, KC.min(k), 0, n, F32, &mut want);
            assert_eq!(bits(&got), bits(&want), "{view:?}");
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
