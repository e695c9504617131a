//! Weight initializers matching the TensorFlow EfficientNet reference.
//!
//! - Convolutions: truncated-normal "fan-out" scaling
//!   (`stddev = sqrt(2 / fan_out)`), per the original EfficientNet code.
//! - Dense layers: uniform in `±sqrt(1/fan_in)` ("VarianceScaling(1/3)"-like
//!   head init used by the reference implementation).
//!
//! A truncated-normal weight is one uniform `u` through the inverse normal
//! CDF: `x = Φ⁻¹(Φ(−2) + u·(1 − 2·Φ(−2)))` by Acklam's central-region
//! rational function in `f64` (within 3.4·10⁻⁸ of Φ⁻¹ up to |x| = 2),
//! clamped to ±2 and scaled by σ. Only the draws are sequential; the
//! transform is `mul`, `add`, `div` and a clamp under `on_lane`: the same
//! bits on every lane path, no libm, no rejection loop.

use crate::ops::simd::on_lane;
use crate::rng::Rng;
use crate::tensor::Tensor;

/// Φ(−2): the share of a standard normal below the truncation point.
const P_LO: f64 = 0.022_750_131_948_179_21;
/// Acklam's central-region numerator and denominator coefficients.
const A: [f64; 6] = [
    -3.969_683_028_665_376e1,
    2.209_460_984_245_205e2,
    -2.759_285_104_469_687e2,
    1.383_577_518_672_69e2,
    -3.066_479_806_614_716e1,
    2.506_628_277_459_239,
];
const B: [f64; 5] = [
    -5.447_609_879_822_406e1,
    1.615_858_368_580_409e2,
    -1.556_989_798_598_866e2,
    6.680_131_188_771_972e1,
    -1.328_068_155_288_572e1,
];

/// `Φ⁻¹(p)` clamped to ±2, for `p` in `[Φ(−2), Φ(2)]`.
#[inline(always)]
fn probit(p: f64) -> f32 {
    let q = p - 0.5;
    let r = q * q;
    let num = (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q;
    let den = ((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0;
    ((num / den) as f32).clamp(-2.0, 2.0)
}

/// The standard normal truncated to ±2 at the quantile `u ∈ [0, 1)`.
#[inline(always)]
fn truncated_unit(u: f32) -> f32 {
    probit(P_LO + u as f64 * (1.0 - 2.0 * P_LO))
}

/// A tensor of `shape` filled with truncated-normal draws of deviation `std`.
fn truncated_normal(rng: &mut Rng, shape: [usize; 4], std: f32) -> Tensor {
    let mut t = Tensor::zeros(shape);
    let xs = t.data_mut();
    xs.iter_mut().for_each(|v| *v = rng.uniform());
    on_lane(
        #[inline(always)]
        || xs.iter_mut().for_each(|v| *v = truncated_unit(*v) * std),
    );
    t
}

/// Conv kernel init: truncated normal with `stddev = sqrt(2 / fan_out)`
/// where `fan_out = c_out * kh * kw` (the EfficientNet convention).
pub fn conv_kernel(rng: &mut Rng, c_out: usize, c_in: usize, kh: usize, kw: usize) -> Tensor {
    let std = (2.0 / (c_out * kh * kw) as f32).sqrt();
    truncated_normal(rng, [c_out, c_in, kh, kw], std)
}

/// Depthwise kernel init: fan_out counts the single output channel per
/// group, i.e. `fan_out = kh * kw` — matching TF's depthwise initializer.
pub fn depthwise_kernel(rng: &mut Rng, c: usize, kh: usize, kw: usize) -> Tensor {
    let std = (2.0 / (kh * kw) as f32).sqrt();
    truncated_normal(rng, [c, 1, kh, kw], std)
}

/// Dense weight init: uniform `±sqrt(1/fan_in)`, stored `[out, in]`.
pub fn dense_weight(rng: &mut Rng, out_dim: usize, in_dim: usize) -> Tensor {
    let bound = (1.0 / in_dim as f32).sqrt();
    let mut t = Tensor::zeros([out_dim, in_dim]);
    rng.fill_uniform(t.data_mut(), -bound, bound);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::simd::{ForcedLaneGuard, LanePath};

    #[test]
    fn conv_init_statistics() {
        let mut rng = Rng::new(1);
        let t = conv_kernel(&mut rng, 64, 32, 3, 3);
        let expected_std = (2.0f32 / (64.0 * 9.0)).sqrt();
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / t.numel() as f32;
        assert!(mean.abs() < expected_std * 0.1, "mean {mean}");
        // Truncation at 2σ shrinks variance to ~0.774σ²; allow a wide band.
        assert!(var > 0.5 * expected_std * expected_std);
        assert!(var < 1.1 * expected_std * expected_std);
        // Truncation: nothing beyond 2σ.
        assert!(t.max() <= 2.0 * expected_std + 1e-6);
        assert!(t.min() >= -2.0 * expected_std - 1e-6);
    }

    #[test]
    fn dense_init_bounds() {
        let mut rng = Rng::new(2);
        let t = dense_weight(&mut rng, 10, 100);
        let bound = 0.1f32;
        assert!(t.max() < bound && t.min() > -bound);
        assert_eq!(t.shape().dims(), &[10, 100]);
    }

    #[test]
    fn deterministic_across_calls() {
        let a = conv_kernel(&mut Rng::new(5), 8, 4, 3, 3);
        let b = conv_kernel(&mut Rng::new(5), 8, 4, 3, 3);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    /// The standard normal CDF from the Maclaurin series of `erf`, which
    /// converges to `f64` precision for the |x| ≤ 2 met here.
    fn phi(x: f64) -> f64 {
        let z = x / std::f64::consts::SQRT_2;
        let (mut term, mut sum) = (z, z);
        for n in 1..80 {
            term *= -z * z / n as f64;
            sum += term / (2 * n + 1) as f64;
        }
        0.5 + sum / std::f64::consts::PI.sqrt()
    }

    #[test]
    fn probit_inverts_the_normal_cdf_up_to_both_ends() {
        assert!((phi(-2.0) - P_LO).abs() < 1e-15, "Φ(−2) is {}", phi(-2.0));
        let n = 200_000;
        let mut worst = 0.0f64;
        for i in 0..=n {
            let p = P_LO + (1.0 - 2.0 * P_LO) * i as f64 / n as f64;
            let err = (phi(probit(p) as f64) - p).abs();
            assert!(err < 1e-6, "Φ(x({p})) is {err:e} off");
            worst = worst.max(err);
        }
        // f32 rounding of x dominates; a coefficient typo shows here first.
        assert!(worst < 5e-8, "worst error grew to {worst:e}");
    }

    #[test]
    fn a_million_draws_have_the_truncated_normal_moments() {
        let std = (2.0f32 / (64.0 * 9.0)).sqrt();
        let mut rng = Rng::new(9);
        let t = truncated_normal(&mut rng, [1 << 20, 1, 1, 1], std);
        let max = t.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(
            max <= 2.0 * std,
            "a draw of {max} is beyond 2σ = {}",
            2.0 * std
        );
        let n = t.numel() as f64;
        let s = std as f64;
        let mean = t.data().iter().map(|&v| v as f64).sum::<f64>() / n;
        let var = t
            .data()
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        // Var of N(0, 1) truncated to ±2: 1 − 4·φ(2) / (Φ(2) − Φ(−2)).
        let want =
            1.0 - 4.0 * (-2.0f64).exp() / (2.0 * std::f64::consts::PI).sqrt() / (1.0 - 2.0 * P_LO);
        assert!((want - 0.7737).abs() < 1e-4);
        assert!(mean.abs() < 0.005 * s, "mean {:e} σ", mean / s);
        assert!(
            (var / (s * s) / want - 1.0).abs() < 0.01,
            "variance {} σ², want {want}",
            var / (s * s)
        );
    }

    #[test]
    fn every_lane_equals_the_scalar_transform() {
        let std = 0.37;
        for lane in LanePath::ALL.into_iter().filter(|l| l.available()) {
            let _lane = ForcedLaneGuard::new(lane);
            for len in [0, 1, 7, 8, 9, 33, 67] {
                let mut rng = Rng::new(3);
                let t = truncated_normal(&mut rng.clone(), [len, 1, 1, 1], std);
                for x in t.data() {
                    let want = truncated_unit(rng.uniform()) * std;
                    assert_eq!(x.to_bits(), want.to_bits(), "{lane:?}, len {len}");
                }
            }
        }
    }

    /// `(u bits, x bits)` of the unit draw, and the word-wise FNV-1a of
    /// `conv_kernel(&mut Rng::new(1), 64, 32, 3, 3)`: an edit that moves
    /// any of these changes every initial conv and depthwise weight, and
    /// is to be declared as an arithmetic change.
    const GOLDEN: [(u32, u32); 8] = [
        (0x0000_0000, 0xc000_0000), // 0 → −2, the clamped lower end
        (0x3380_0000, 0xbfff_fff7), // 2⁻²⁴, the smallest nonzero draw
        (0x3dcc_cccd, 0xbf97_8e60), // 0.1 → −1.1840324
        (0x3e80_0000, 0xbf23_9cd7), // 0.25 → −0.63911194
        (0x3f00_0000, 0x0000_0000), // 0.5 → 0
        (0x3f40_0000, 0x3f23_9cd7), // 0.75 → 0.63911194
        (0x3f66_6666, 0x3f97_8e5f), // 0.9 → 1.1840323
        (0x3f7f_ffff, 0x3fff_fff7), // 1 − 2⁻²⁴, the largest draw
    ];
    const GOLDEN_CONV_FNV: u64 = 0x6b17_0b1e_2f6d_338e;

    #[test]
    fn initializer_golden_bits() {
        for (u, want) in GOLDEN {
            let got = truncated_unit(f32::from_bits(u)).to_bits();
            assert_eq!(got, want, "x({:e})", f32::from_bits(u));
        }
        let t = conv_kernel(&mut Rng::new(1), 64, 32, 3, 3);
        let fnv = t.data().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v.to_bits() as u64).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(fnv, GOLDEN_CONV_FNV, "{fnv:#018x}");
    }
}
