//! Runtime-dispatched SIMD micro-kernels for the blocked GEMM.
//!
//! The MR×NR register tile in [`super::gemm_blocked`] used to be a scalar
//! loop; this module gives it hand-vectorized AVX2 (8-lane) and SSE2
//! (2×4-lane) bodies — one f32 micro-kernel, which both precisions run
//! because bf16 operands are rounded into f32 panels at pack time — plus
//! a vectorized `C += acc` tile writeback and a SIMD row-major B pack
//! that rounds in-register when the product is bf16.
//!
//! # Bitwise parity — the load-bearing invariant
//!
//! Every lane path produces **bit-identical** results to the scalar
//! kernel, by construction:
//!
//! - Each accumulator slot `acc[ii][jj]` is an *independent* f32 chain:
//!   the scalar kernel updates it as `acc[ii][jj] += a[p][ii] * b[p][jj]`
//!   for `p` ascending, and no slot ever reads another slot. A vector
//!   register holding one row of accumulators performs the identical
//!   per-slot multiply and add, in the identical `p` order — lane width
//!   only changes how many independent chains advance per instruction,
//!   never the order of operations *within* a chain.
//! - **No FMA.** The vector bodies use separate `mul` + `add` so every
//!   product is rounded exactly where the scalar kernel rounds it. A
//!   fused multiply-add would keep the product exact and round once,
//!   producing different (better, but *different*) bits — and bitwise
//!   SPMD fingerprints care about different, not better.
//! - The B pack's bf16 rounding is the integer recipe of
//!   [`crate::bf16::Bf16::from_f32`] on lanes: every element is rounded
//!   alone, so lane width cannot change a bit.
//!
//! Because every path agrees bitwise, lane selection is free to use
//! runtime feature detection without violating the repo's determinism
//! law: SPMD replicas on heterogeneous hosts may take different lane
//! paths and still produce identical bits. (Contrast with the
//! blocked/naive *kernel* choice, which differs bitwise and therefore
//! must stay a pure function of shape — see [`super::dispatch`].)
//!
//! # Dispatch
//!
//! [`lane_path`] resolves once per process: the `ETS_SIMD` env var
//! (`auto`/`avx2`/`sse2`/`scalar`) overrides `is_x86_feature_detected!`,
//! and tests (which cannot re-exec) override both with
//! [`force_lane_path`] / [`ForcedLaneGuard`]. Per-path call counters
//! ([`micro_block_calls`]) prove which body actually ran.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use super::gemm_blocked::{MR, NR};
use crate::bf16::round_f32;

/// Which micro-kernel body runs. Ordered narrowest to widest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LanePath {
    /// The reference scalar loop (always available, every target).
    Scalar,
    /// 2×4-lane SSE2 (part of the x86_64 baseline).
    Sse2,
    /// 8-lane AVX2 (runtime-detected).
    Avx2,
}

impl LanePath {
    /// Every path, narrowest first (the order bench probes sweep).
    pub const ALL: [LanePath; 3] = [LanePath::Scalar, LanePath::Sse2, LanePath::Avx2];

    /// Stable name used in env parsing and test messages.
    pub fn name(self) -> &'static str {
        match self {
            LanePath::Scalar => "scalar",
            LanePath::Sse2 => "sse2",
            LanePath::Avx2 => "avx2",
        }
    }

    /// Parses an `ETS_SIMD`-style choice. `Ok(None)` means `auto`
    /// (detect); `Err` carries the unrecognized value.
    pub fn parse(s: &str) -> Result<Option<LanePath>, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Ok(None),
            "scalar" => Ok(Some(LanePath::Scalar)),
            "sse2" => Ok(Some(LanePath::Sse2)),
            "avx2" => Ok(Some(LanePath::Avx2)),
            other => Err(other.to_string()),
        }
    }

    /// Can this path run on the current host?
    pub fn available(self) -> bool {
        match self {
            LanePath::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            LanePath::Sse2 => true, // x86_64 baseline
            #[cfg(target_arch = "x86_64")]
            LanePath::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    fn code(self) -> u8 {
        match self {
            LanePath::Scalar => 1,
            LanePath::Sse2 => 2,
            LanePath::Avx2 => 3,
        }
    }

    fn from_code(code: u8) -> Option<LanePath> {
        match code {
            1 => Some(LanePath::Scalar),
            2 => Some(LanePath::Sse2),
            3 => Some(LanePath::Avx2),
            _ => None,
        }
    }
}

/// Widest available path on this host (ignores env and forces).
pub fn detected_lane_path() -> LanePath {
    if LanePath::Avx2.available() {
        LanePath::Avx2
    } else if LanePath::Sse2.available() {
        LanePath::Sse2
    } else {
        LanePath::Scalar
    }
}

/// In-process override (tests / `Experiment` knob): 0 = none.
static FORCED: AtomicU8 = AtomicU8::new(0);
/// Env-or-detect default, resolved once: 0 = unresolved.
static DEFAULT: AtomicU8 = AtomicU8::new(0);

/// The lane path the micro-kernel will take right now: the forced
/// override if set, else the once-resolved `ETS_SIMD`-or-detect default.
/// Every path is bitwise-identical, so this is a pure throughput knob —
/// flipping it mid-run (the forced-lane-path tests do) never changes
/// results, which also makes the global safe under concurrent tests.
#[inline]
pub fn lane_path() -> LanePath {
    if let Some(p) = LanePath::from_code(FORCED.load(Ordering::Relaxed)) {
        return p;
    }
    default_lane_path()
}

#[inline]
fn default_lane_path() -> LanePath {
    if let Some(p) = LanePath::from_code(DEFAULT.load(Ordering::Relaxed)) {
        return p;
    }
    let resolved = match std::env::var("ETS_SIMD") {
        Ok(v) => match LanePath::parse(&v) {
            // A requested-but-unavailable width clamps down rather than
            // crashing: the paths are bitwise-identical, so honoring the
            // spirit (run *something*) beats failing the process.
            Ok(Some(p)) if p.available() => p,
            Ok(Some(_)) | Ok(None) => detected_lane_path(),
            Err(bad) => panic!("ETS_SIMD={bad:?}: expected auto|avx2|sse2|scalar"),
        },
        Err(_) => detected_lane_path(),
    };
    DEFAULT.store(resolved.code(), Ordering::Relaxed);
    resolved
}

/// Forces a lane path process-wide (tests, through [`ForcedLaneGuard`]).
/// Panics if the path cannot run on this host — callers probing
/// optional widths should check [`LanePath::available`] first.
pub fn force_lane_path(path: LanePath) {
    assert!(
        path.available(),
        "lane path {} not available on this host",
        path.name()
    );
    FORCED.store(path.code(), Ordering::Relaxed);
}

/// Clears [`force_lane_path`], returning to env-or-detect dispatch.
pub fn clear_forced_lane_path() {
    FORCED.store(0, Ordering::Relaxed);
}

/// RAII force for tests: restores auto dispatch on drop (also on panic,
/// so one failing lane sweep cannot pin the rest of the binary).
pub struct ForcedLaneGuard(());

impl ForcedLaneGuard {
    pub fn new(path: LanePath) -> Self {
        force_lane_path(path);
        ForcedLaneGuard(())
    }
}

impl Drop for ForcedLaneGuard {
    fn drop(&mut self) {
        clear_forced_lane_path();
    }
}

/// `f` compiled for 8-lane registers.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn call_avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Runs `f` on the current [`lane_path`]: on `Avx2`, inlined into a
/// function compiled with that feature, so its safe-Rust loops
/// auto-vectorize 8 wide; on `Sse2` and `Scalar`, as compiled for the
/// baseline target. For kernels that are bitwise independent of vector
/// width by construction (every output its own chain, reductions with
/// index-fixed partials): there the lanes are one source compiled
/// twice, and differ in speed only. `f` and what it calls should be
/// `#[inline(always)]`; a body that is not inlined runs at baseline
/// width on every lane.
#[inline]
pub(crate) fn on_lane<R>(f: impl FnOnce() -> R) -> R {
    match lane_path() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `lane_path()` hands out `Avx2` only on hosts that have
        // it (detected, or forced through an `available()` assert).
        LanePath::Avx2 => unsafe { call_avx2(f) },
        _ => f(),
    }
}

// ------------------------------------------------------------- counters

/// Macro blocks run per lane path, indexed by `LanePath::code() - 1`.
/// Both precisions run the one f32 body, so there is no precision axis.
static MICRO_CALLS: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];

fn micro_counter(path: LanePath) -> &'static AtomicU64 {
    &MICRO_CALLS[path.code() as usize - 1]
}

/// Tallies one macro-block's worth of micro-kernel calls on `path`
/// (per-block, not per-tile: one relaxed add per `(ic, jc, pc)` block
/// keeps the tally off the innermost loop).
#[inline]
pub(crate) fn tally_micro(path: LanePath) {
    micro_counter(path).fetch_add(1, Ordering::Relaxed);
}

/// Macro-block executions recorded on `path`, process-wide.
pub fn micro_block_calls(path: LanePath) -> u64 {
    micro_counter(path).load(Ordering::Relaxed)
}

/// Resets all per-path counters (tests; benches between phases).
pub fn reset_micro_counters() {
    for c in &MICRO_CALLS {
        c.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------- micro-kernels

/// The reference scalar body — the oracle every vector path must match
/// bitwise. Branchless, exactly the pre-SIMD kernel.
#[inline]
pub(crate) fn micro_scalar(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    for p in 0..kc {
        let arow = &apanel[p * MR..(p + 1) * MR];
        let brow = &bpanel[p * NR..(p + 1) * NR];
        for (accrow, &av) in acc.iter_mut().zip(arow) {
            for (slot, &bv) in accrow.iter_mut().zip(brow) {
                *slot += av * bv;
            }
        }
    }
}

/// The micro-kernel on the given lane path, for both precisions (a bf16
/// product's panels hold bf16-rounded f32 values).
#[inline]
pub fn micro_f32(
    path: LanePath,
    kc: usize,
    apanel: &[f32],
    bpanel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    debug_assert_eq!(apanel.len(), kc * MR);
    debug_assert_eq!(bpanel.len(), kc * NR);
    #[cfg(target_arch = "x86_64")]
    match path {
        LanePath::Scalar => micro_scalar(kc, apanel, bpanel, acc),
        // SAFETY: SSE2 is the x86_64 baseline; panel lengths asserted.
        LanePath::Sse2 => unsafe { micro_f32_sse2(kc, apanel, bpanel, acc) },
        // SAFETY: dispatch only hands out Avx2 after detection
        // (`LanePath::available`); panel lengths asserted.
        LanePath::Avx2 => unsafe { micro_f32_avx2(kc, apanel, bpanel, acc) },
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = path;
        micro_scalar(kc, apanel, bpanel, acc);
    }
}

/// AVX2 f32 body: one 8-lane register per accumulator row; per depth
/// step, broadcast each A lane and issue separate `mul` + `add` (no FMA
/// — see the module docs for why that is load-bearing).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn micro_f32_avx2(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    let mut c0 = _mm256_loadu_ps(acc[0].as_ptr());
    let mut c1 = _mm256_loadu_ps(acc[1].as_ptr());
    let mut c2 = _mm256_loadu_ps(acc[2].as_ptr());
    let mut c3 = _mm256_loadu_ps(acc[3].as_ptr());
    for p in 0..kc {
        let b = _mm256_loadu_ps(bpanel.as_ptr().add(p * NR));
        let a = apanel.as_ptr().add(p * MR);
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(*a), b));
        c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(*a.add(1)), b));
        c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(*a.add(2)), b));
        c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(*a.add(3)), b));
    }
    _mm256_storeu_ps(acc[0].as_mut_ptr(), c0);
    _mm256_storeu_ps(acc[1].as_mut_ptr(), c1);
    _mm256_storeu_ps(acc[2].as_mut_ptr(), c2);
    _mm256_storeu_ps(acc[3].as_mut_ptr(), c3);
}

/// SSE2 f32 body: each accumulator row is two 4-lane halves — the same
/// independent per-slot chains at half the width.
#[cfg(target_arch = "x86_64")]
unsafe fn micro_f32_sse2(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    let mut lo = [
        _mm_loadu_ps(acc[0].as_ptr()),
        _mm_loadu_ps(acc[1].as_ptr()),
        _mm_loadu_ps(acc[2].as_ptr()),
        _mm_loadu_ps(acc[3].as_ptr()),
    ];
    let mut hi = [
        _mm_loadu_ps(acc[0].as_ptr().add(4)),
        _mm_loadu_ps(acc[1].as_ptr().add(4)),
        _mm_loadu_ps(acc[2].as_ptr().add(4)),
        _mm_loadu_ps(acc[3].as_ptr().add(4)),
    ];
    for p in 0..kc {
        let blo = _mm_loadu_ps(bpanel.as_ptr().add(p * NR));
        let bhi = _mm_loadu_ps(bpanel.as_ptr().add(p * NR + 4));
        let a = apanel.as_ptr().add(p * MR);
        for ii in 0..MR {
            let av = _mm_set1_ps(*a.add(ii));
            lo[ii] = _mm_add_ps(lo[ii], _mm_mul_ps(av, blo));
            hi[ii] = _mm_add_ps(hi[ii], _mm_mul_ps(av, bhi));
        }
    }
    for ii in 0..MR {
        _mm_storeu_ps(acc[ii].as_mut_ptr(), lo[ii]);
        _mm_storeu_ps(acc[ii].as_mut_ptr().add(4), hi[ii]);
    }
}

// ------------------------------------------------------------- epilogue

/// Tile writeback `C[i0.., j0..] += acc`, the macro-kernel epilogue.
/// Full MR×NR tiles take a vector load-add-store per row; truncated
/// edges (`im < MR` / `jn < NR`) share the single masked scalar tail
/// below — one implementation for every lane path, so the edge logic
/// cannot fork. Each C element is touched exactly once with one f32
/// add, so the vector and scalar forms are trivially bitwise-identical.
///
/// # Safety
/// `c` must be the base of the full row-stride-`n` C matrix, valid for
/// writes to rows `i0..i0+im` × cols `j0..j0+jn`, with this tile
/// exclusively owned by the caller (the macro-kernel's tile contract).
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn tile_writeback(
    path: LanePath,
    c: *mut f32,
    n: usize,
    i0: usize,
    j0: usize,
    im: usize,
    jn: usize,
    acc: &[[f32; NR]; MR],
) {
    if im == MR && jn == NR {
        #[cfg(target_arch = "x86_64")]
        match path {
            LanePath::Avx2 => {
                // SAFETY: caller contract + AVX2 detected by dispatch.
                writeback_full_avx2(c, n, i0, j0, acc);
                return;
            }
            LanePath::Sse2 => {
                writeback_full_sse2(c, n, i0, j0, acc);
                return;
            }
            LanePath::Scalar => {}
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = path;
    }
    writeback_tail(c, n, i0, j0, im, jn, acc);
}

/// The one masked tail: every truncated tile, on every lane path, lands
/// here (and the scalar path uses it for full tiles too).
///
/// # Safety
/// Same contract as [`tile_writeback`].
unsafe fn writeback_tail(
    c: *mut f32,
    n: usize,
    i0: usize,
    j0: usize,
    im: usize,
    jn: usize,
    acc: &[[f32; NR]; MR],
) {
    for (ii, accrow) in acc.iter().enumerate().take(im) {
        let crow = c.add((i0 + ii) * n + j0);
        for (jj, &av) in accrow.iter().take(jn).enumerate() {
            *crow.add(jj) += av;
        }
    }
}

/// # Safety
/// Same contract as [`tile_writeback`]; requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn writeback_full_avx2(c: *mut f32, n: usize, i0: usize, j0: usize, acc: &[[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    for (ii, accrow) in acc.iter().enumerate() {
        let crow = c.add((i0 + ii) * n + j0);
        let sum = _mm256_add_ps(_mm256_loadu_ps(crow), _mm256_loadu_ps(accrow.as_ptr()));
        _mm256_storeu_ps(crow, sum);
    }
}

/// # Safety
/// Same contract as [`tile_writeback`].
#[cfg(target_arch = "x86_64")]
unsafe fn writeback_full_sse2(c: *mut f32, n: usize, i0: usize, j0: usize, acc: &[[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    for (ii, accrow) in acc.iter().enumerate() {
        let crow = c.add((i0 + ii) * n + j0);
        let lo = _mm_add_ps(_mm_loadu_ps(crow), _mm_loadu_ps(accrow.as_ptr()));
        let hi = _mm_add_ps(
            _mm_loadu_ps(crow.add(4)),
            _mm_loadu_ps(accrow.as_ptr().add(4)),
        );
        _mm_storeu_ps(crow, lo);
        _mm_storeu_ps(crow.add(4), hi);
    }
}

// ------------------------------------------------------------- B pack

/// The row-major B pack: copies each [`NR`]-element chunk of a
/// contiguous source row to its tile at `tile_stride` with one vector
/// load/store pair, and with `round` (a bf16 product) rounds each chunk
/// through bf16 in-register between the two — the only pass the B
/// operand's rounding costs. Bitwise equal to a memcpy scatter followed
/// by [`round_f32`] per element.
pub fn pack_row_scatter(src: &[f32], dst: &mut [f32], tile_stride: usize, round: bool) {
    debug_assert_eq!(src.len() % NR, 0);
    let chunks = src.len() / NR;
    assert!(chunks == 0 || (chunks - 1) * tile_stride + NR <= dst.len());
    #[cfg(target_arch = "x86_64")]
    match (lane_path(), round) {
        // SAFETY (all four): the lane is available (AVX2 detected by
        // dispatch, SSE2 the x86_64 baseline); bounds asserted above.
        (LanePath::Avx2, false) => return unsafe { scatter8_avx2::<false>(src, dst, tile_stride) },
        (LanePath::Avx2, true) => return unsafe { scatter8_avx2::<true>(src, dst, tile_stride) },
        (LanePath::Sse2, false) => return unsafe { scatter8_sse2::<false>(src, dst, tile_stride) },
        (LanePath::Sse2, true) => return unsafe { scatter8_sse2::<true>(src, dst, tile_stride) },
        (LanePath::Scalar, _) => {}
    }
    scatter8_scalar(src, dst, tile_stride, round);
}

fn scatter8_scalar(src: &[f32], dst: &mut [f32], stride: usize, round: bool) {
    for (j, chunk) in src.chunks_exact(NR).enumerate() {
        let d = &mut dst[j * stride..j * stride + NR];
        d.copy_from_slice(chunk);
        if round {
            d.iter_mut().for_each(|v| *v = round_f32(*v));
        }
    }
}

/// # Safety
/// Requires AVX2; `dst` must hold `(chunks-1)*stride + 8` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scatter8_avx2<const ROUND: bool>(src: &[f32], dst: &mut [f32], stride: usize) {
    use std::arch::x86_64::*;
    for (j, chunk) in src.chunks_exact(NR).enumerate() {
        let mut v = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
        if ROUND {
            v = crate::bf16::round8_avx2(v);
        }
        _mm256_storeu_si256(dst.as_mut_ptr().add(j * stride) as *mut __m256i, v);
    }
}

/// # Safety
/// `dst` must hold `(chunks-1)*stride + 8` elements.
#[cfg(target_arch = "x86_64")]
unsafe fn scatter8_sse2<const ROUND: bool>(src: &[f32], dst: &mut [f32], stride: usize) {
    use std::arch::x86_64::*;
    for (j, chunk) in src.chunks_exact(NR).enumerate() {
        let s = chunk.as_ptr() as *const __m128i;
        let (mut lo, mut hi) = (_mm_loadu_si128(s), _mm_loadu_si128(s.add(1)));
        if ROUND {
            (lo, hi) = (crate::bf16::round4_sse2(lo), crate::bf16::round4_sse2(hi));
        }
        let d = dst.as_mut_ptr().add(j * stride) as *mut __m128i;
        _mm_storeu_si128(d, lo);
        _mm_storeu_si128(d.add(1), hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Adversarial panel fill: specials and randoms, so lane parity is
    /// checked on NaN/inf/subnormal propagation too, not just normals.
    fn panel_values(len: usize, seed: u64) -> Vec<f32> {
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x0000_0001),
            f32::MIN_POSITIVE,
            1.0e-38,
            3.0e38,
        ];
        let mut rng = Rng::new(seed);
        (0..len)
            .map(|i| {
                if i % 7 == 0 {
                    specials[i / 7 % specials.len()]
                } else {
                    rng.uniform_in(-2.0, 2.0)
                }
            })
            .collect()
    }

    fn acc_bits(acc: &[[f32; NR]; MR]) -> Vec<u32> {
        acc.iter().flatten().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn micro_paths_match_scalar_bitwise_f32() {
        for &kc in &[0usize, 1, 3, 7, 17, 128, 131] {
            let ap = panel_values(kc * MR, 100 + kc as u64);
            let bp = panel_values(kc * NR, 200 + kc as u64);
            let mut want = [[0.5f32; NR]; MR];
            micro_scalar(kc, &ap, &bp, &mut want);
            for path in LanePath::ALL {
                if !path.available() {
                    continue;
                }
                let mut got = [[0.5f32; NR]; MR];
                micro_f32(path, kc, &ap, &bp, &mut got);
                // NaN bits must also agree exactly, so compare as bits —
                // the scalar chain and the lane chain perform identical
                // IEEE ops in identical order per slot.
                assert_eq!(
                    acc_bits(&got),
                    acc_bits(&want),
                    "f32 path {} diverged at kc={kc}",
                    path.name()
                );
            }
        }
    }

    #[test]
    fn writeback_paths_match_tail_bitwise() {
        let n = 13; // awkward row stride
        for path in LanePath::ALL {
            if !path.available() {
                continue;
            }
            for &(im, jn) in &[(MR, NR), (MR - 1, NR), (MR, NR - 3), (1, 1), (2, 5)] {
                let mut acc = [[0.0f32; NR]; MR];
                for (i, row) in acc.iter_mut().enumerate() {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = (i * NR + j) as f32 * 0.37 - 2.0;
                    }
                }
                acc[0][0] = f32::NAN; // specials survive the epilogue too
                let base = panel_values(MR * n + NR, 500);
                let mut got = base.clone();
                let mut want = base.clone();
                // SAFETY: buffers sized MR*n+NR cover rows 0..MR at
                // stride n from col 2; single-threaded exclusive access.
                unsafe {
                    tile_writeback(path, got.as_mut_ptr(), n, 0, 2, im, jn, &acc);
                    writeback_tail(want.as_mut_ptr(), n, 0, 2, im, jn, &acc);
                }
                let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "path {} im={im} jn={jn}", path.name());
            }
        }
    }

    /// The B-row scatter on every lane, copying and rounding, against a
    /// memcpy scatter followed by the scalar rounding oracle.
    #[test]
    fn pack_row_scatter_matches_memcpy_then_round_on_every_lane() {
        for &(chunks, stride) in &[(1usize, 8usize), (3, 40), (5, 8), (32, 1024)] {
            let src = panel_values(chunks * NR, 600 + chunks as u64);
            for round in [false, true] {
                let mut want = vec![0.0f32; (chunks - 1) * stride + NR];
                for (j, chunk) in src.chunks_exact(NR).enumerate() {
                    for (w, &v) in want[j * stride..].iter_mut().zip(chunk) {
                        *w = if round { round_f32(v) } else { v };
                    }
                }
                let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                // Each lane body called directly: forcing the process-wide
                // lane here would race the dispatch test below.
                for path in LanePath::ALL.into_iter().filter(|p| p.available()) {
                    let mut got = vec![0.0f32; want.len()];
                    match (path, round) {
                        (LanePath::Scalar, _) => scatter8_scalar(&src, &mut got, stride, round),
                        // SAFETY: available lane; `got` sized as asserted.
                        #[cfg(target_arch = "x86_64")]
                        (LanePath::Sse2, false) => unsafe {
                            scatter8_sse2::<false>(&src, &mut got, stride)
                        },
                        #[cfg(target_arch = "x86_64")]
                        (LanePath::Sse2, true) => unsafe {
                            scatter8_sse2::<true>(&src, &mut got, stride)
                        },
                        #[cfg(target_arch = "x86_64")]
                        (LanePath::Avx2, false) => unsafe {
                            scatter8_avx2::<false>(&src, &mut got, stride)
                        },
                        #[cfg(target_arch = "x86_64")]
                        (LanePath::Avx2, true) => unsafe {
                            scatter8_avx2::<true>(&src, &mut got, stride)
                        },
                        #[cfg(not(target_arch = "x86_64"))]
                        _ => unreachable!("only the scalar lane exists here"),
                    }
                    let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    let ctx = format!(
                        "{} chunks={chunks} stride={stride} round={round}",
                        path.name()
                    );
                    assert_eq!(gb, wb, "{ctx}");
                }
                let mut got = vec![0.0f32; want.len()];
                pack_row_scatter(&src, &mut got, stride, round);
                assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), wb);
            }
        }
    }

    #[test]
    fn forced_path_overrides_and_guard_restores() {
        // Scalar is available everywhere, so the force itself is safe.
        {
            let _guard = ForcedLaneGuard::new(LanePath::Scalar);
            assert_eq!(lane_path(), LanePath::Scalar);
        }
        // After the guard drops, dispatch returns to the resolved
        // default (whatever this host/env picked — just not pinned).
        assert_eq!(lane_path(), default_lane_path());
    }

    #[test]
    fn parse_accepts_the_documented_vocabulary() {
        assert_eq!(LanePath::parse("auto"), Ok(None));
        assert_eq!(LanePath::parse(""), Ok(None));
        assert_eq!(LanePath::parse("Scalar"), Ok(Some(LanePath::Scalar)));
        assert_eq!(LanePath::parse("SSE2"), Ok(Some(LanePath::Sse2)));
        assert_eq!(LanePath::parse("avx2"), Ok(Some(LanePath::Avx2)));
        assert!(LanePath::parse("avx512").is_err());
    }

    #[test]
    fn detected_path_is_available_and_widest() {
        let best = detected_lane_path();
        assert!(best.available());
        for path in LanePath::ALL {
            if path > best {
                assert!(!path.available(), "{} wider than detected", path.name());
            }
        }
    }

    #[test]
    fn counters_tally_per_path() {
        reset_micro_counters();
        tally_micro(LanePath::Scalar);
        tally_micro(LanePath::Scalar);
        tally_micro(LanePath::Sse2);
        assert_eq!(micro_block_calls(LanePath::Scalar), 2);
        assert_eq!(micro_block_calls(LanePath::Sse2), 1);
        reset_micro_counters();
        assert_eq!(micro_block_calls(LanePath::Scalar), 0);
    }
}
