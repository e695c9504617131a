//! Software bfloat16 (§3.5 of the paper).
//!
//! TPUs train EfficientNet with convolutions computed in bfloat16 (truncated
//! IEEE-754 single precision: 1 sign, 8 exponent, 7 mantissa bits) while all
//! other math stays in fp32. This module reproduces those numerics in
//! software: round-to-nearest-even conversion, and a "mixed precision" path
//! that rounds GEMM/conv operands through bf16 ([`round_slice`]) and then
//! multiplies and accumulates in f32 — the MXU's bf16-multiply/f32-
//! accumulate contract, since the product of two bf16 values is exact in
//! f32 (barring over- and underflow).

use crate::ops::dispatch::{gemm, GemmDesc, GemmPrecision};
use crate::tensor::Tensor;

/// A bfloat16 value stored as its raw 16-bit pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Bf16(pub u16);

impl Bf16 {
    /// One.
    pub const ONE: Bf16 = Bf16(0x3F80);

    /// Converts from `f32` with round-to-nearest-even on the dropped 16
    /// mantissa bits (the hardware rounding mode).
    ///
    /// Branchless: both the RNE-rounded pattern and the quieted-NaN
    /// pattern are computed, then mask-selected — the recipe every lane
    /// of [`round_slice`] repeats on vector registers.
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

/// Rounds every element of `src` through bf16 into `dst`, keeping the
/// result as an `f32`: bitwise [`round_f32`] per element (round-to-
/// nearest-even on the 16 dropped mantissa bits, NaN quieted).
///
/// This is the one bulk rounding step of mixed precision. The packed
/// GEMM applies it to its panels at pack time, the naive GEMM to its
/// operand copies, and the depthwise layers to their input and weight
/// ([`quantize_tensor`]); every product then runs the f32 kernel, which
/// is why a bf16 product is bitwise "quantize both operands, then f32".
///
/// On x86_64 the body is hand-vectorized on the widest lane the host has
/// (run-time detected): AVX-512F (16 lanes, one masked tail), AVX2 (8)
/// or SSE2 (4, the x86_64 baseline), each finishing on the next narrower
/// one. Every lane runs the integer recipe of [`Bf16::from_f32`], so the
/// choice moves no bit; the unit tests pin each lane to the scalar one.
pub fn round_slice(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "round_slice lengths");
    // SAFETY: two distinct borrows of `len` elements each.
    unsafe { round_raw(src.as_ptr(), dst.as_mut_ptr(), src.len()) }
}

/// [`round_slice`] in place.
pub fn round_in_place(xs: &mut [f32]) {
    let p = xs.as_mut_ptr();
    // SAFETY: `len` elements; every lane loads a vector before it stores
    // that same vector back, so `src == dst` is sound.
    unsafe { round_raw(p, p, xs.len()) }
}

/// Returns a copy of the tensor with every element rounded through bf16.
pub fn quantize_tensor(t: &Tensor) -> Tensor {
    let mut q = Tensor::zeros(t.shape().clone());
    round_slice(t.data(), q.data_mut());
    q
}

/// [`round_slice`] on the widest lane this host has.
///
/// # Safety
/// `src` must be valid for `len` reads and `dst` for `len` writes, and
/// the two ranges must be disjoint or identical.
unsafe fn round_raw(src: *const f32, dst: *mut f32, len: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            round_avx512(src, dst, len)
        } else if std::arch::is_x86_feature_detected!("avx2") {
            round_avx2(src, dst, len)
        } else {
            round_sse2(src, dst, len)
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    round_scalar(src, dst, len)
}

/// The scalar lane (and every vector lane's tail): [`round_f32`] per
/// element.
///
/// # Safety
/// Same contract as [`round_raw`].
unsafe fn round_scalar(src: *const f32, dst: *mut f32, len: usize) {
    for i in 0..len {
        *dst.add(i) = round_f32(*src.add(i));
    }
}

/// [`round_f32`] on four f32 bit patterns: the [`Bf16::from_f32`] recipe
/// with the dropped half cleared in place instead of shifted out.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
pub(crate) fn round4_sse2(bits: std::arch::x86_64::__m128i) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    let lsb = _mm_and_si128(_mm_srli_epi32::<16>(bits), _mm_set1_epi32(1));
    let rounded = _mm_add_epi32(bits, _mm_add_epi32(_mm_set1_epi32(0x7FFF), lsb));
    let quieted = _mm_or_si128(bits, _mm_set1_epi32(0x0040_0000));
    // Both magnitudes sit in [0, 0x7FFFFFFF], so the signed compare is
    // exact for the NaN test.
    let is_nan = _mm_cmpgt_epi32(
        _mm_and_si128(bits, _mm_set1_epi32(0x7FFF_FFFF)),
        _mm_set1_epi32(0x7F80_0000),
    );
    let kept = _mm_or_si128(
        _mm_and_si128(is_nan, quieted),
        _mm_andnot_si128(is_nan, rounded),
    );
    _mm_and_si128(kept, _mm_set1_epi32(HIGH_HALF))
}

/// [`round4_sse2`] on eight lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) fn round8_avx2(bits: std::arch::x86_64::__m256i) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let lsb = _mm256_and_si256(_mm256_srli_epi32::<16>(bits), _mm256_set1_epi32(1));
    let rounded = _mm256_add_epi32(bits, _mm256_add_epi32(_mm256_set1_epi32(0x7FFF), lsb));
    let quieted = _mm256_or_si256(bits, _mm256_set1_epi32(0x0040_0000));
    let is_nan = _mm256_cmpgt_epi32(
        _mm256_and_si256(bits, _mm256_set1_epi32(0x7FFF_FFFF)),
        _mm256_set1_epi32(0x7F80_0000),
    );
    let kept = _mm256_blendv_epi8(rounded, quieted, is_nan);
    _mm256_and_si256(kept, _mm256_set1_epi32(HIGH_HALF))
}

/// [`round4_sse2`] on sixteen lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn round16_avx512(bits: std::arch::x86_64::__m512i) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    let lsb = _mm512_and_si512(_mm512_srli_epi32::<16>(bits), _mm512_set1_epi32(1));
    let rounded = _mm512_add_epi32(bits, _mm512_add_epi32(_mm512_set1_epi32(0x7FFF), lsb));
    let quieted = _mm512_or_si512(bits, _mm512_set1_epi32(0x0040_0000));
    let is_nan = _mm512_cmpgt_epi32_mask(
        _mm512_and_si512(bits, _mm512_set1_epi32(0x7FFF_FFFF)),
        _mm512_set1_epi32(0x7F80_0000),
    );
    let kept = _mm512_mask_blend_epi32(is_nan, rounded, quieted);
    _mm512_and_si512(kept, _mm512_set1_epi32(HIGH_HALF))
}

/// The bits a bf16 keeps of an f32, as an `i32` lane constant.
#[cfg(target_arch = "x86_64")]
const HIGH_HALF: i32 = 0xFFFF_0000u32 as i32;

/// # Safety
/// Same contract as [`round_raw`].
#[cfg(target_arch = "x86_64")]
unsafe fn round_sse2(src: *const f32, dst: *mut f32, len: usize) {
    use std::arch::x86_64::*;
    let body = len / 4 * 4;
    for i in (0..body).step_by(4) {
        let v = _mm_loadu_si128(src.add(i) as *const __m128i);
        _mm_storeu_si128(dst.add(i) as *mut __m128i, round4_sse2(v));
    }
    round_scalar(src.add(body), dst.add(body), len - body);
}

/// # Safety
/// Same contract as [`round_raw`]; requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn round_avx2(src: *const f32, dst: *mut f32, len: usize) {
    use std::arch::x86_64::*;
    let body = len / 8 * 8;
    for i in (0..body).step_by(8) {
        let v = _mm256_loadu_si256(src.add(i) as *const __m256i);
        _mm256_storeu_si256(dst.add(i) as *mut __m256i, round8_avx2(v));
    }
    round_sse2(src.add(body), dst.add(body), len - body);
}

/// Sixteen lanes per iteration; the last `len % 16` go through one
/// masked load and store (masked-off lanes neither read nor write).
///
/// # Safety
/// Same contract as [`round_raw`]; requires AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn round_avx512(src: *const f32, dst: *mut f32, len: usize) {
    use std::arch::x86_64::*;
    let body = len / 16 * 16;
    for i in (0..body).step_by(16) {
        let v = _mm512_loadu_si512(src.add(i) as *const _);
        _mm512_storeu_si512(dst.add(i) as *mut _, round16_avx512(v));
    }
    if body < len {
        let mask = ((1u32 << (len - body)) - 1) as __mmask16;
        let v = _mm512_maskz_loadu_epi32(mask, src.add(body) as *const i32);
        _mm512_mask_storeu_epi32(dst.add(body) as *mut i32, mask, round16_avx512(v));
    }
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

    /// Edge patterns for the lane checks: ±0, subnormals (including the
    /// halfway point below the smallest bf16 subnormal), ±∞, ±`f32::MAX`
    /// (rounds to ±∞), the largest f32 that rounds down (to the largest
    /// finite bf16), the tie above it (odd, so up to +∞), RNE ties that
    /// stay and that round up, quiet NaNs with payloads, and signalling
    /// NaNs whose payload sits only in the dropped bits.
    const EDGES: [u32; 21] = [
        0x0000_0000,
        0x8000_0000,
        0x0000_0001,
        0x807F_FFFF,
        0x0000_8000,
        0x0000_8001,
        0x0001_8000,
        0x7F80_0000,
        0xFF80_0000,
        0x7F7F_FFFF,
        0xFF7F_FFFF,
        0x7F7F_7FFF,
        0x7F7F_8000,
        0x3F80_8000,
        0x3F81_8000,
        0x7FC0_0000,
        0xFFC1_2345,
        0x7F80_0001,
        0xFF80_8000,
        0x7FBF_FFFF,
        0x7FA0_0000,
    ];

    /// The oracle: [`Bf16::from_f32`] then back, as bits.
    fn oracle(bits: u32) -> u32 {
        Bf16::from_f32(f32::from_bits(bits)).to_f32().to_bits()
    }

    type Lane = unsafe fn(*const f32, *mut f32, usize);

    /// Every lane body this host can run, scalar first.
    fn lanes() -> Vec<(&'static str, Lane)> {
        let mut v: Vec<(&'static str, Lane)> = vec![("scalar", round_scalar)];
        #[cfg(target_arch = "x86_64")]
        {
            v.push(("sse2", round_sse2));
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(("avx2", round_avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                v.push(("avx512", round_avx512));
            }
        }
        v
    }

    /// Every lane, every length 0..=67 at every start offset 0..16, out of
    /// place and in place: each element is the oracle's bits, and nothing
    /// outside `[off, off + len)` is written.
    #[test]
    fn round_lanes_match_the_scalar_oracle_bitwise() {
        const GUARD: u32 = 0xDEAD_BEEF;
        let mut rng = Rng::new(31);
        let pool: Vec<u32> = (0..16 + 67 + 16)
            .map(|i| {
                if i % 2 == 0 {
                    EDGES[i / 2 % EDGES.len()]
                } else {
                    rng.next_u64() as u32
                }
            })
            .collect();
        for (name, lane) in lanes() {
            for off in 0..16 {
                for len in 0..=67 {
                    let src: Vec<f32> = pool[off..off + len]
                        .iter()
                        .map(|&b| f32::from_bits(b))
                        .collect();
                    let want: Vec<u32> = pool[off..off + len].iter().map(|&b| oracle(b)).collect();
                    let mut out = vec![f32::from_bits(GUARD); off + len + 16];
                    let mut inplace = out.clone();
                    inplace[off..off + len].copy_from_slice(&src);
                    // SAFETY: `out` and `inplace` hold `off + len` elements
                    // past their base; `src` holds `len`.
                    unsafe {
                        lane(src.as_ptr(), out.as_mut_ptr().add(off), len);
                        let p = inplace.as_mut_ptr().add(off);
                        lane(p, p, len);
                    }
                    for (what, buf) in [("out of place", &out), ("in place", &inplace)] {
                        let bits: Vec<u32> = buf.iter().map(|v| v.to_bits()).collect();
                        let ctx = format!("{name} lane, {what}, off {off}, len {len}");
                        assert_eq!(&bits[off..off + len], &want[..], "{ctx}");
                        assert!(
                            bits[off + len..].iter().all(|&b| b == GUARD),
                            "{ctx}: wrote past the end"
                        );
                        if what == "out of place" {
                            assert!(bits[..off].iter().all(|&b| b == GUARD), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn round_edges_land_where_rne_says() {
        let round = |b: u32| {
            let mut v = [f32::from_bits(b)];
            round_in_place(&mut v);
            v[0].to_bits()
        };
        assert_eq!(round(0x7F7F_FFFF), 0x7F80_0000, "f32::MAX rounds to +inf");
        assert_eq!(round(0x7F7F_7FFF), 0x7F7F_0000, "largest that rounds down");
        assert_eq!(round(0x8000_0000), 0x8000_0000, "-0 keeps its sign");
        assert_eq!(round(0x0000_8000), 0x0000_0000, "subnormal tie to even");
        assert_eq!(round(0x0001_8000), 0x0002_0000, "subnormal tie, odd: up");
        assert_eq!(round(0x7F80_0001), 0x7FC0_0000, "sNaN quieted, not inf");
        assert_eq!(round(0xFFC1_2345), 0xFFC1_0000, "qNaN keeps sign, payload");
    }

    proptest! {
        #[test]
        fn round_slice_matches_scalar_on_arbitrary_bits(
            bits in proptest::collection::vec((0u64..1 << 32).prop_map(|b| b as u32), 0..80)
        ) {
            let src: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let mut dst = vec![0.0f32; src.len()];
            round_slice(&src, &mut dst);
            for (&b, d) in bits.iter().zip(&dst) {
                prop_assert_eq!(d.to_bits(), oracle(b));
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
