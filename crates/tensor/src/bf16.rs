//! Software bfloat16 (§3.5 of the paper).
//!
//! TPUs train EfficientNet with convolutions computed in bfloat16 (truncated
//! IEEE-754 single precision: 1 sign, 8 exponent, 7 mantissa bits) while all
//! other math stays in fp32. This module reproduces those numerics in
//! software: round-to-nearest-even conversion, and a "mixed precision" path
//! that quantizes GEMM/conv operands through bf16 while accumulating in f32
//! — matching the MXU's bf16-multiply/f32-accumulate contract.

use crate::ops::dispatch::{gemm, GemmDesc, GemmPrecision};
use crate::tensor::Tensor;

/// A bfloat16 value stored as its raw 16-bit pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Bf16(pub u16);

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0);
    /// One.
    pub const ONE: Bf16 = Bf16(0x3F80);

    /// Converts from `f32` with round-to-nearest-even on the dropped 16
    /// mantissa bits (the hardware rounding mode).
    ///
    /// Branchless: both the RNE-rounded pattern and the quieted-NaN
    /// pattern are computed, then mask-selected. The panel-packing loops
    /// run this per element, and a data-dependent NaN branch there stops
    /// the compiler from vectorizing the whole pack.
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        // Round to nearest even: add 0x7FFF + LSB of the kept part.
        let lsb = (bits >> 16) & 1;
        let rounded = (bits.wrapping_add(0x7FFF + lsb) >> 16) as u16;
        // Preserve NaN; force a mantissa bit so truncation can't create
        // Inf (and the rounding add above can't carry NaN into garbage).
        let quieted = ((bits >> 16) as u16) | 0x0040;
        let nan_mask = (((bits & 0x7FFF_FFFF) > 0x7F80_0000) as u16).wrapping_neg();
        Bf16((quieted & nan_mask) | (rounded & !nan_mask))
    }

    /// Converts back to `f32` (exact: bf16 values are a subset of f32).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// True if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7F80) == 0x7F80 && (self.0 & 0x007F) != 0
    }

    /// True if the value is ±∞.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7F80
    }
}

/// Rounds an `f32` through bf16 and back (the "storage in bf16" effect).
#[inline]
pub fn round_f32(x: f32) -> f32 {
    Bf16::from_f32(x).to_f32()
}

/// Bulk narrowing `f32 → bf16` — the panel-packing hot loop. Bitwise
/// identical to mapping [`Bf16::from_f32`] over the slice.
///
/// On x86_64 the body is hand-vectorized: AVX2 (16 lanes/iter) when the
/// CPU has it — the detection macro caches in an atomic, so the check is
/// a load — falling back to SSE2 (8 lanes/iter, part of the x86_64
/// baseline). The branchless rounding maps to integer lane ops the
/// autovectorizer does not reliably find through the generic pack
/// plumbing — and the pack must not be slower than the f32 `memcpy` it
/// replaces (the bench regression gate checks).
#[inline]
pub fn narrow_slice(src: &[f32], dst: &mut [Bf16]) {
    debug_assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    {
        if src.len() >= 32 && has_avx512() {
            // SAFETY: AVX-512F/BW presence just verified.
            unsafe { narrow_slice_avx512(src, dst) }
        } else if src.len() >= 16 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence just verified.
            unsafe { narrow_slice_avx2(src, dst) }
        } else {
            // SAFETY: SSE2 is unconditionally available on x86_64.
            unsafe { narrow_slice_sse2(src, dst) }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = Bf16::from_f32(s);
    }
}

/// Bulk widening `bf16 → f32` — the mirror image of [`narrow_slice`].
/// Bitwise identical to mapping [`Bf16::to_f32`] over the slice, and
/// *exact*: the widen is the pure bit move `(u16 as u32) << 16`, so no
/// rounding happens on any path.
///
/// On x86_64 the body is hand-vectorized: AVX2 (16 lanes/iter via the
/// `cvtepu16` + `slli 16` pair) when the CPU has it, falling back to
/// SSE2 (8 lanes/iter via zero-interleave, part of the x86_64 baseline)
/// with a scalar tail. Consumers that widen whole panel rows (ABFT
/// checksum absorption, eval-time unpacking) route through here instead
/// of per-element [`Bf16::to_f32`] calls.
#[inline]
pub fn widen_slice(src: &[Bf16], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    {
        if src.len() >= 16 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence just verified.
            unsafe { widen_slice_avx2(src, dst) }
        } else {
            // SAFETY: SSE2 is unconditionally available on x86_64.
            unsafe { widen_slice_sse2(src, dst) }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = s.to_f32();
    }
}

/// 16 lanes per iteration: each 8×u16 half widens with one
/// `cvtepu16_epi32` and one 16-bit left shift — the exact
/// [`Bf16::to_f32`] bit move, vectorized.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn widen_slice_avx2(src: &[Bf16], dst: &mut [f32]) {
    use std::arch::x86_64::*;
    let chunks = src.len() / 16;
    for j in 0..chunks {
        let p = src.as_ptr().add(j * 16) as *const __m128i;
        let lo = _mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(_mm_loadu_si128(p)));
        let hi = _mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(_mm_loadu_si128(p.add(1))));
        let d = dst.as_mut_ptr().add(j * 16);
        _mm256_storeu_ps(d, _mm256_castsi256_ps(lo));
        _mm256_storeu_ps(d.add(8), _mm256_castsi256_ps(hi));
    }
    if chunks * 16 < src.len() {
        widen_slice_sse2(&src[chunks * 16..], &mut dst[chunks * 16..]);
    }
}

/// 8 lanes per iteration: interleaving 16 zero bits *below* each u16
/// (`unpacklo/hi(0, v)`) yields u32 lanes equal to `u16 << 16` with no
/// shift needed. Scalar tail for the last <8 elements.
#[cfg(target_arch = "x86_64")]
unsafe fn widen_slice_sse2(src: &[Bf16], dst: &mut [f32]) {
    use std::arch::x86_64::*;
    let chunks = src.len() / 8;
    let zero = _mm_setzero_si128();
    for j in 0..chunks {
        let v = _mm_loadu_si128(src.as_ptr().add(j * 8) as *const __m128i);
        let d = dst.as_mut_ptr().add(j * 8);
        _mm_storeu_ps(d, _mm_castsi128_ps(_mm_unpacklo_epi16(zero, v)));
        _mm_storeu_ps(d.add(4), _mm_castsi128_ps(_mm_unpackhi_epi16(zero, v)));
    }
    for (d, &s) in dst[chunks * 8..].iter_mut().zip(src[chunks * 8..].iter()) {
        *d = s.to_f32();
    }
}

/// Narrows a contiguous row and scatters it into tile-major panel
/// storage: the `j`-th `nr`-element chunk of `src` lands at
/// `dst[j * tile_stride ..]`. `src.len()` must be a multiple of `nr`.
/// Bitwise identical to calling [`narrow_slice`] per chunk, but the
/// conversion pipelines across the whole row (16 lanes per iteration
/// with AVX2, the two 8-lane halves split-stored to consecutive tiles)
/// instead of restarting every `nr` elements.
pub fn narrow_row_scatter(src: &[f32], dst: &mut [Bf16], nr: usize, tile_stride: usize) {
    debug_assert_eq!(src.len() % nr, 0);
    #[cfg(target_arch = "x86_64")]
    if nr == 8 {
        if src.len() >= 32 && has_avx512() {
            // SAFETY: AVX-512F/BW presence just verified; bounds asserted inside.
            unsafe { narrow_scatter8_avx512(src, dst, tile_stride) }
        } else if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence just verified; bounds asserted inside.
            unsafe { narrow_scatter8_avx2(src, dst, tile_stride) }
        } else {
            // SAFETY: SSE2 is unconditionally available on x86_64.
            unsafe { narrow_scatter8_sse2(src, dst, tile_stride) }
        }
        return;
    }
    for (j, chunk) in src.chunks_exact(nr).enumerate() {
        narrow_slice(chunk, &mut dst[j * tile_stride..j * tile_stride + nr]);
    }
}

/// Packs one 4-lane A row-tile: lane `ii` reads the contiguous slice
/// `src[ii * row_stride ..][..kc]`, element `p` lands at `dst[p * 4 + ii]`,
/// lanes past `im` are zero. Bitwise identical to the scalar
/// `dst[p * 4 + ii] = Bf16::from_f32(row[p])` loop: each lane is narrowed
/// with [`narrow_slice`] into a stack staging buffer, then the four lanes
/// interleave via one contiguous 64-bit store per depth index.
pub fn narrow_tile4(src: &[f32], row_stride: usize, kc: usize, im: usize, dst: &mut [Bf16]) {
    assert!(im <= 4 && dst.len() >= kc * 4);
    if im < 4 {
        dst.iter_mut().for_each(|v| *v = Bf16::ZERO);
    }
    const CHUNK: usize = 128;
    let mut rows = [[Bf16::ZERO; CHUNK]; 4];
    let mut base = 0;
    while base < kc {
        let len = CHUNK.min(kc - base);
        for (ii, row) in rows.iter_mut().enumerate().take(im) {
            let s = &src[ii * row_stride + base..ii * row_stride + base + len];
            narrow_slice(s, &mut row[..len]);
        }
        if im == 4 && cfg!(target_endian = "little") {
            // Four parallel lanes share the depth index; enumerate would
            // only cover one of them.
            #[allow(clippy::needless_range_loop)]
            for p in 0..len {
                let w = rows[0][p].0 as u64
                    | (rows[1][p].0 as u64) << 16
                    | (rows[2][p].0 as u64) << 32
                    | (rows[3][p].0 as u64) << 48;
                // SAFETY: (base + p) * 4 + 3 < kc * 4 <= dst.len(), and
                // Bf16 is a transparent u16 so the unaligned 4-element
                // store stays in bounds; lane order matches the shifts on
                // little-endian (the cfg! above).
                unsafe {
                    (dst.as_mut_ptr().add((base + p) * 4) as *mut u64).write_unaligned(w);
                }
            }
        } else {
            for (ii, row) in rows.iter().enumerate().take(im) {
                for (p, &v) in row[..len].iter().enumerate() {
                    dst[(base + p) * 4 + ii] = v;
                }
            }
        }
        base += len;
    }
}

/// True when the 512-bit narrow kernels are safe to call.
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
}

/// Lane-parallel mirror of the scalar `Bf16::from_f32` (4 lanes).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn narrow4_sse2(bits: std::arch::x86_64::__m128i) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    let kept = _mm_srli_epi32::<16>(bits);
    let lsb = _mm_and_si128(kept, _mm_set1_epi32(1));
    let rounded = _mm_srli_epi32::<16>(_mm_add_epi32(
        bits,
        _mm_add_epi32(_mm_set1_epi32(0x7FFF), lsb),
    ));
    let quieted = _mm_or_si128(kept, _mm_set1_epi32(0x0040));
    // Both magnitudes sit in [0, 0x7FFFFFFF], so the signed compare is
    // exact for the NaN test.
    let is_nan = _mm_cmpgt_epi32(
        _mm_and_si128(bits, _mm_set1_epi32(0x7FFF_FFFF)),
        _mm_set1_epi32(0x7F80_0000),
    );
    _mm_or_si128(
        _mm_and_si128(is_nan, quieted),
        _mm_andnot_si128(is_nan, rounded),
    )
}

/// Lane-parallel mirror of the scalar `Bf16::from_f32` (8 lanes).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn narrow8_avx2(bits: std::arch::x86_64::__m256i) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let kept = _mm256_srli_epi32::<16>(bits);
    let lsb = _mm256_and_si256(kept, _mm256_set1_epi32(1));
    let rounded = _mm256_srli_epi32::<16>(_mm256_add_epi32(
        bits,
        _mm256_add_epi32(_mm256_set1_epi32(0x7FFF), lsb),
    ));
    let quieted = _mm256_or_si256(kept, _mm256_set1_epi32(0x0040));
    // Both magnitudes sit in [0, 0x7FFFFFFF], so the signed compare is
    // exact for the NaN test.
    let is_nan = _mm256_cmpgt_epi32(
        _mm256_and_si256(bits, _mm256_set1_epi32(0x7FFF_FFFF)),
        _mm256_set1_epi32(0x7F80_0000),
    );
    _mm256_blendv_epi8(rounded, quieted, is_nan)
}

/// Sixteen lanes per iteration: two 8-lane RNE conversions packed into
/// one u16×16 store. The rounded values are non-negative and fit 16 bits,
/// so the unsigned-saturating `packus` is an exact u32→u16 truncation;
/// `permute4x64(0xD8)` undoes its 128-bit-lane interleave.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn narrow_slice_avx2(src: &[f32], dst: &mut [Bf16]) {
    use std::arch::x86_64::*;

    let n = src.len();
    let chunks = n / 16;
    for i in 0..chunks {
        let p = src.as_ptr().add(i * 16) as *const __m256i;
        let lo = narrow8_avx2(_mm256_loadu_si256(p));
        let hi = narrow8_avx2(_mm256_loadu_si256(p.add(1)));
        let packed = _mm256_permute4x64_epi64::<0xD8>(_mm256_packus_epi32(lo, hi));
        _mm256_storeu_si256(dst.as_mut_ptr().add(i * 16) as *mut __m256i, packed);
    }
    if chunks * 16 < n {
        narrow_slice_sse2(&src[chunks * 16..], &mut dst[chunks * 16..]);
    }
}

/// Two 8-element tiles per iteration: one 16-lane conversion whose u16×16
/// result is split-stored to `dst[2i*stride]` and `dst[(2i+1)*stride]` —
/// no staging buffer between the narrow and the panel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn narrow_scatter8_avx2(src: &[f32], dst: &mut [Bf16], stride: usize) {
    use std::arch::x86_64::*;

    let chunks = src.len() / 8;
    assert!(chunks == 0 || (chunks - 1) * stride + 8 <= dst.len());
    for i in 0..chunks / 2 {
        let p = src.as_ptr().add(i * 16) as *const __m256i;
        let lo = narrow8_avx2(_mm256_loadu_si256(p));
        let hi = narrow8_avx2(_mm256_loadu_si256(p.add(1)));
        let packed = _mm256_permute4x64_epi64::<0xD8>(_mm256_packus_epi32(lo, hi));
        let d0 = dst.as_mut_ptr().add(2 * i * stride) as *mut __m128i;
        let d1 = dst.as_mut_ptr().add((2 * i + 1) * stride) as *mut __m128i;
        _mm_storeu_si128(d0, _mm256_castsi256_si128(packed));
        _mm_storeu_si128(d1, _mm256_extracti128_si256::<1>(packed));
    }
    if chunks % 2 == 1 {
        let j = chunks - 1;
        narrow_slice_sse2(&src[j * 8..], &mut dst[j * stride..j * stride + 8]);
    }
}

/// Lane-parallel mirror of the scalar `Bf16::from_f32` (16 lanes).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn narrow16_avx512(bits: std::arch::x86_64::__m512i) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    let kept = _mm512_srli_epi32::<16>(bits);
    let lsb = _mm512_and_si512(kept, _mm512_set1_epi32(1));
    let rounded = _mm512_srli_epi32::<16>(_mm512_add_epi32(
        bits,
        _mm512_add_epi32(_mm512_set1_epi32(0x7FFF), lsb),
    ));
    let quieted = _mm512_or_si512(kept, _mm512_set1_epi32(0x0040));
    // Both magnitudes sit in [0, 0x7FFFFFFF], so the signed compare is
    // exact for the NaN test.
    let is_nan = _mm512_cmpgt_epi32_mask(
        _mm512_and_si512(bits, _mm512_set1_epi32(0x7FFF_FFFF)),
        _mm512_set1_epi32(0x7F80_0000),
    );
    _mm512_mask_blend_epi32(is_nan, rounded, quieted)
}

/// Two 16-lane RNE conversions packed into one u16×32 store. `packus` on
/// 512-bit regs interleaves per 128-bit lane; the quadword permute with
/// index [0,2,4,6,1,3,5,7] restores source order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
unsafe fn narrow32_avx512(
    lo: std::arch::x86_64::__m512i,
    hi: std::arch::x86_64::__m512i,
) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    let idx = _mm512_setr_epi64(0, 2, 4, 6, 1, 3, 5, 7);
    _mm512_permutexvar_epi64(
        idx,
        _mm512_packus_epi32(narrow16_avx512(lo), narrow16_avx512(hi)),
    )
}

/// Thirty-two lanes per iteration; tail handled by the narrower kernels.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn narrow_slice_avx512(src: &[f32], dst: &mut [Bf16]) {
    use std::arch::x86_64::*;

    let n = src.len();
    let chunks = n / 32;
    for i in 0..chunks {
        let p = src.as_ptr().add(i * 32) as *const __m512i;
        let packed = narrow32_avx512(_mm512_loadu_si512(p as *const _), {
            _mm512_loadu_si512(p.add(1) as *const _)
        });
        _mm512_storeu_si512(dst.as_mut_ptr().add(i * 32) as *mut _, packed);
    }
    if chunks * 32 < n {
        narrow_slice_avx2(&src[chunks * 32..], &mut dst[chunks * 32..]);
    }
}

/// Four 8-element tiles per iteration: one 32-lane conversion whose u16×32
/// result is split-stored to four consecutive tiles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn narrow_scatter8_avx512(src: &[f32], dst: &mut [Bf16], stride: usize) {
    use std::arch::x86_64::*;

    let chunks = src.len() / 8;
    assert!(chunks == 0 || (chunks - 1) * stride + 8 <= dst.len());
    for i in 0..chunks / 4 {
        let p = src.as_ptr().add(i * 32) as *const __m512i;
        let packed = narrow32_avx512(_mm512_loadu_si512(p as *const _), {
            _mm512_loadu_si512(p.add(1) as *const _)
        });
        let base = dst.as_mut_ptr();
        _mm_storeu_si128(
            base.add((4 * i) * stride) as *mut __m128i,
            _mm512_extracti32x4_epi32::<0>(packed),
        );
        _mm_storeu_si128(
            base.add((4 * i + 1) * stride) as *mut __m128i,
            _mm512_extracti32x4_epi32::<1>(packed),
        );
        _mm_storeu_si128(
            base.add((4 * i + 2) * stride) as *mut __m128i,
            _mm512_extracti32x4_epi32::<2>(packed),
        );
        _mm_storeu_si128(
            base.add((4 * i + 3) * stride) as *mut __m128i,
            _mm512_extracti32x4_epi32::<3>(packed),
        );
    }
    for j in (chunks / 4) * 4..chunks {
        narrow_slice_sse2(&src[j * 8..j * 8 + 8], &mut dst[j * stride..j * stride + 8]);
    }
}

/// SSE2 fallback for the tile scatter: one 8-element tile per iteration.
#[cfg(target_arch = "x86_64")]
unsafe fn narrow_scatter8_sse2(src: &[f32], dst: &mut [Bf16], stride: usize) {
    use std::arch::x86_64::*;

    let chunks = src.len() / 8;
    assert!(chunks == 0 || (chunks - 1) * stride + 8 <= dst.len());
    for j in 0..chunks {
        let p = src.as_ptr().add(j * 8) as *const __m128i;
        let lo = narrow4_sse2(_mm_loadu_si128(p));
        let hi = narrow4_sse2(_mm_loadu_si128(p.add(1)));
        let bias = _mm_set1_epi32(0x8000);
        let packed = _mm_xor_si128(
            _mm_packs_epi32(_mm_sub_epi32(lo, bias), _mm_sub_epi32(hi, bias)),
            _mm_set1_epi16(i16::MIN),
        );
        _mm_storeu_si128(dst.as_mut_ptr().add(j * stride) as *mut __m128i, packed);
    }
}

/// Eight lanes per iteration: two 4-lane RNE conversions packed into one
/// u16×8 store. The `sub 0x8000 / packs / xor 0x8000` dance turns the
/// signed-saturating pack into an exact u32→u16 truncation (the rounded
/// values already fit 16 bits).
#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn narrow_slice_sse2(src: &[f32], dst: &mut [Bf16]) {
    use std::arch::x86_64::*;

    let n = src.len();
    let chunks = n / 8;
    for i in 0..chunks {
        let p = src.as_ptr().add(i * 8) as *const __m128i;
        let lo = narrow4_sse2(_mm_loadu_si128(p));
        let hi = narrow4_sse2(_mm_loadu_si128(p.add(1)));
        let bias = _mm_set1_epi32(0x8000);
        let packed = _mm_xor_si128(
            _mm_packs_epi32(_mm_sub_epi32(lo, bias), _mm_sub_epi32(hi, bias)),
            _mm_set1_epi16(i16::MIN),
        );
        _mm_storeu_si128(dst.as_mut_ptr().add(i * 8) as *mut __m128i, packed);
    }
    for j in chunks * 8..n {
        *dst.get_unchecked_mut(j) = Bf16::from_f32(*src.get_unchecked(j));
    }
}

/// Quantizes a slice in place through bf16.
pub fn quantize_slice(xs: &mut [f32]) {
    xs.iter_mut().for_each(|v| *v = round_f32(*v));
}

/// Returns a copy of the tensor with every element rounded through bf16.
pub fn quantize_tensor(t: &Tensor) -> Tensor {
    t.map(round_f32)
}

/// Largest relative rounding error bf16 can introduce (half ULP at 7
/// mantissa bits ≈ 2^-8).
pub const MAX_REL_ERR: f32 = 1.0 / 256.0;

/// Mixed-precision matmul at the tensor level: operands are rounded
/// through bf16, products are accumulated in f32, mirroring a TPU MXU
/// pass. Routes through the shape-pure dispatcher like every other
/// product.
pub fn matmul_bf16(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "matmul_bf16 inner dims");
    let mut c = Tensor::zeros([m, n]);
    let desc = GemmDesc {
        precision: GemmPrecision::Bf16,
        ..GemmDesc::new(m, k, n)
    };
    gemm(desc, a.data(), b.data(), c.data_mut());
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul::matmul;
    use crate::rng::Rng;
    use proptest::prelude::*;

    #[test]
    fn exact_values_round_trip() {
        for &v in &[0.0f32, 1.0, -1.0, 0.5, 2.0, -0.25, 1024.0] {
            assert_eq!(round_f32(v), v, "{v} should be exactly representable");
        }
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1.0 + 2^-8 is exactly halfway between bf16(1.0) and the next
        // representable value 1.0078125; RNE keeps the even mantissa (1.0).
        let halfway = 1.0 + 1.0 / 256.0;
        assert_eq!(round_f32(halfway), 1.0);
        // Slightly above halfway rounds up.
        assert_eq!(round_f32(halfway + 1e-4), 1.0078125);
        // 1.0 + 3·2^-8 is halfway between 1.0078125 (odd) and 1.015625
        // (even): RNE picks the even one.
        assert_eq!(round_f32(1.0 + 3.0 / 256.0), 1.015625);
    }

    #[test]
    fn relative_error_bounded() {
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            let x = rng.uniform_in(-1e4, 1e4);
            if x == 0.0 {
                continue;
            }
            let r = round_f32(x);
            assert!(
                ((r - x) / x).abs() <= MAX_REL_ERR,
                "x={x} r={r} rel={}",
                ((r - x) / x).abs()
            );
        }
    }

    #[test]
    fn specials_preserved() {
        assert!(Bf16::from_f32(f32::NAN).is_nan());
        assert!(Bf16::from_f32(f32::INFINITY).is_infinite());
        assert_eq!(round_f32(f32::INFINITY), f32::INFINITY);
        assert_eq!(round_f32(f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert_eq!(round_f32(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        // Max finite bf16 is 3.3895314e38; anything that rounds past it
        // becomes infinity, matching hardware saturate-to-inf semantics of RNE.
        let max_bf16 = f32::from_bits(0x7F7F_0000);
        assert_eq!(round_f32(max_bf16), max_bf16);
        assert_eq!(round_f32(f32::MAX), f32::INFINITY);
    }

    #[test]
    fn mixed_gemm_close_to_f32() {
        let mut rng = Rng::new(2);
        let (m, k, n) = (16, 32, 16);
        let mut a = Tensor::zeros([m, k]);
        let mut b = Tensor::zeros([k, n]);
        rng.fill_uniform(a.data_mut(), -1.0, 1.0);
        rng.fill_uniform(b.data_mut(), -1.0, 1.0);
        let c32 = matmul(&a, &b);
        let c16 = matmul_bf16(&a, &b);
        // Error should be small (operand quantization only; f32 accumulate)
        // but generally nonzero.
        let max_err = c32.max_abs_diff(&c16);
        assert!(max_err < 0.15, "max_err {max_err}");
        assert!(max_err > 0.0, "bf16 path should differ from f32");
    }

    /// RNE at the overflow boundary: the halfway point between the
    /// largest finite bf16 (0x7F7F) and the value that would round to
    /// 0x7F80 (= +∞) has an ODD kept mantissa below it, so nearest-even
    /// rounds *up* — to infinity. Anything strictly below halfway stays
    /// at max-finite.
    #[test]
    fn overflow_boundary_rounds_to_even_infinity() {
        let max_finite = f32::from_bits(0x7F7F_0000);
        // Exactly halfway: kept LSB is 1 (0x7F7F is odd) → rounds away,
        // crossing into the infinity bit pattern.
        let halfway = f32::from_bits(0x7F7F_8000);
        assert_eq!(round_f32(halfway), f32::INFINITY);
        assert_eq!(round_f32(-halfway), f32::NEG_INFINITY);
        // One ULP(f32) below halfway keeps max-finite.
        assert_eq!(round_f32(f32::from_bits(0x7F7F_7FFF)), max_finite);
        // An even-mantissa halfway case for contrast: 0x7F7E is even, so
        // its upper halfway point rounds DOWN (to itself).
        assert_eq!(
            round_f32(f32::from_bits(0x7F7E_8000)).to_bits(),
            0x7F7E_0000
        );
    }

    #[test]
    fn subnormals_round_through() {
        // f32 subnormals are far below bf16's subnormal range? No —
        // bf16 shares f32's exponent width, so bf16 subnormals are
        // f32 subnormals with 7-bit mantissas. Smallest positive bf16
        // subnormal = 2^-133.
        let tiny_bf16 = f32::from_bits(0x0000_0001 << 16); // 0x0001 pattern
        assert_eq!(round_f32(tiny_bf16), tiny_bf16);
        // Smallest positive f32 subnormal underflows to zero under RNE
        // (it is far below half the smallest bf16 subnormal).
        assert_eq!(round_f32(f32::from_bits(1)).to_bits(), 0);
        // Sign of an underflowed negative subnormal is preserved (-0.0).
        assert_eq!(round_f32(-f32::from_bits(1)).to_bits(), (-0.0f32).to_bits());
        // A subnormal just above half the smallest bf16 subnormal rounds
        // up to it rather than flushing to zero (no FTZ in the software
        // path).
        let half_tiny = f32::from_bits(0x0000_8000);
        assert_eq!(round_f32(half_tiny + f32::from_bits(1)), tiny_bf16);
    }

    #[test]
    fn nan_payload_survives_narrowing() {
        // A quiet NaN with payload bits in the kept (upper) mantissa part
        // keeps them through the round trip.
        let qnan = f32::from_bits(0x7FC1_2300);
        let b = Bf16::from_f32(qnan);
        assert!(b.is_nan());
        assert_eq!(b.0, 0x7FC1 | 0x0040);
        assert!(b.to_f32().is_nan());
        // A signaling-ish NaN whose payload lives only in the DROPPED
        // bits must still be NaN after narrowing (the forced quiet bit),
        // never Inf.
        let snan = f32::from_bits(0x7F80_0001);
        let bs = Bf16::from_f32(snan);
        assert!(
            bs.is_nan(),
            "payload-only-in-dropped-bits NaN became {bs:?}"
        );
        // Negative NaN keeps its sign bit.
        let neg_nan = f32::from_bits(0xFFC0_0100);
        assert!(Bf16::from_f32(neg_nan).0 & 0x8000 != 0);
    }

    /// One rounding reaches a fixed point: checked on every one of the
    /// 65 536 bf16 bit patterns (signs, subnormals, specials) and on a
    /// seeded sample of f32s.
    #[test]
    fn round_trip_idempotent_exhaustive_sweep() {
        let mut rng = Rng::new(9);
        let mut cases: Vec<f32> = Vec::new();
        for _ in 0..4096 {
            cases.push(rng.uniform_in(-1e38, 1e38));
            cases.push(rng.uniform_in(-1.0, 1.0));
        }
        // Every bf16 bit pattern is its own fixed point (including NaNs
        // with the quiet bit, infinities, and both zeros).
        for hi in 0..=u16::MAX {
            cases.push(f32::from_bits((hi as u32) << 16));
        }
        for x in cases {
            let once = round_f32(x);
            let twice = round_f32(once);
            if once.is_nan() {
                assert!(twice.is_nan());
            } else {
                assert_eq!(once.to_bits(), twice.to_bits(), "x={x}");
            }
        }
    }

    proptest! {
        #[test]
        fn round_trip_idempotent(x in -3.4e38f32..3.4e38) {
            let once = round_f32(x);
            prop_assert_eq!(once.to_bits(), round_f32(once).to_bits());
        }
    }

    /// Adversarial value pool for the SIMD-vs-scalar bitwise checks:
    /// specials, subnormals, RNE halfway points, and random normals.
    fn simd_test_values(len: usize, seed: u64) -> Vec<f32> {
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7F80_0001), // signaling-ish NaN, low payload
            f32::from_bits(0xFFC0_1234), // negative NaN with payload
            f32::from_bits(0x0000_0001), // smallest subnormal
            f32::from_bits(0x807F_FFFF), // largest negative subnormal
            1.0 + 1.0 / 256.0,           // RNE halfway, rounds down
            1.0 + 3.0 / 256.0,           // RNE halfway, rounds up
            3.3895314e38,                // max finite bf16
            f32::from_bits(0x7F7F_FFFF), // max finite f32 (overflows to inf)
        ];
        let mut rng = Rng::new(seed);
        (0..len)
            .map(|i| {
                if i % 3 == 0 {
                    specials[i / 3 % specials.len()]
                } else {
                    rng.uniform_in(-1e6, 1e6)
                }
            })
            .collect()
    }

    fn assert_bits_eq(got: Bf16, want: Bf16, ctx: &str) {
        assert_eq!(
            got.0, want.0,
            "{ctx}: got {:#06x} want {:#06x}",
            got.0, want.0
        );
    }

    #[test]
    fn narrow_slice_matches_scalar_bitwise() {
        // Lengths straddle the AVX2 16-lane main loop, the SSE2 8-lane
        // path, and the scalar tail (0..16 leftover elements).
        for &len in &[
            0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100, 255, 256,
        ] {
            let src = simd_test_values(len, 41 + len as u64);
            let mut dst = vec![Bf16::from_f32(0.0); len];
            narrow_slice(&src, &mut dst);
            for (i, (&d, &s)) in dst.iter().zip(src.iter()).enumerate() {
                assert_bits_eq(d, Bf16::from_f32(s), &format!("len={len} i={i} x={s}"));
            }
        }
    }

    #[test]
    fn widen_slice_matches_scalar_bitwise() {
        // Same length sweep as the narrow test: straddles the AVX2
        // 16-lane loop, the SSE2 8-lane loop, and the scalar tail. The
        // widen must reproduce `to_f32` bit-for-bit — including NaN
        // payloads, which round-trip untouched through the bit move.
        for &len in &[
            0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100, 255, 256,
        ] {
            let src: Vec<Bf16> = simd_test_values(len, 53 + len as u64)
                .iter()
                .map(|&v| Bf16::from_f32(v))
                .collect();
            let mut dst = vec![0.0f32; len];
            widen_slice(&src, &mut dst);
            for (i, (&d, &s)) in dst.iter().zip(src.iter()).enumerate() {
                assert_eq!(
                    d.to_bits(),
                    s.to_f32().to_bits(),
                    "len={len} i={i} bf16={:#06x}",
                    s.0
                );
            }
        }
    }

    #[test]
    fn widen_then_narrow_round_trips_bitwise() {
        // bf16 → f32 → bf16 must be the identity on the u16 payload for
        // every non-NaN value (NaNs stay NaN but may quiet); check exact
        // round-trip on the quiet pool the packers actually produce.
        let src: Vec<Bf16> = simd_test_values(128, 97)
            .iter()
            .map(|&v| Bf16::from_f32(v))
            .collect();
        let mut wide = vec![0.0f32; src.len()];
        widen_slice(&src, &mut wide);
        let mut back = vec![Bf16::ZERO; src.len()];
        narrow_slice(&wide, &mut back);
        for (i, (&b, &s)) in back.iter().zip(src.iter()).enumerate() {
            assert_bits_eq(b, s, &format!("round-trip i={i}"));
        }
    }

    #[test]
    fn narrow_row_scatter_matches_per_chunk_narrow() {
        // nr=8 exercises the fused SIMD scatter (even + odd chunk counts,
        // including the pair-tail); nr=4 exercises the generic fallback.
        for &(nr, chunks, stride) in &[
            (8usize, 1usize, 8usize),
            (8, 2, 16),
            (8, 3, 1024),
            (8, 32, 1024), // calibration-like: NC/NR tiles at kc*NR stride
            (8, 5, 40),
            (4, 3, 12),
        ] {
            let src = simd_test_values(nr * chunks, 71 + (nr * chunks) as u64);
            let mut dst = vec![Bf16::from_f32(0.0); (chunks - 1) * stride + nr];
            let mut want = dst.clone();
            narrow_row_scatter(&src, &mut dst, nr, stride);
            for (j, chunk) in src.chunks_exact(nr).enumerate() {
                narrow_slice(chunk, &mut want[j * stride..j * stride + nr]);
            }
            for (i, (&d, &w)) in dst.iter().zip(want.iter()).enumerate() {
                assert_bits_eq(
                    d,
                    w,
                    &format!("nr={nr} chunks={chunks} stride={stride} i={i}"),
                );
            }
        }
    }

    #[test]
    fn quantize_tensor_idempotent() {
        let mut rng = Rng::new(3);
        let mut t = Tensor::zeros([64]);
        rng.fill_normal(t.data_mut(), 0.0, 1.0);
        let q1 = quantize_tensor(&t);
        let q2 = quantize_tensor(&q1);
        assert!(q1.max_abs_diff(&q2) == 0.0, "second rounding must be exact");
    }
}
