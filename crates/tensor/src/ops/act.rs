//! Swish and sigmoid on one in-tree `exp`.
//!
//! [`exp`] is the Cephes `expf` scheme written with `mul`, `add` and
//! integer bit moves only, so a loop over it vectorizes and every lane
//! width computes the same bits (see `on_lane`): `n = round(x·log₂e)`
//! by adding and subtracting `1.5·2²³`, `r = x − n·ln 2` in two steps,
//! a degree-5 polynomial in `r`, and `2ⁿ` built by shifting `n + 127`
//! into the exponent field. The input is limited to
//! [[`EXP_LO`], [`EXP_HI`]] with `f32::clamp`, which passes NaN through
//! (a `max`/`min` pair would return the bound), so a NaN input gives a
//! NaN result. On [−87, 88.37] the result is within 1 ulp of the
//! correctly rounded one (pinned at 2).
//!
//! Outside it the result is never subnormal, and that is what the two
//! bounds are for. Below [`EXP_LO`] it stays at `e⁻⁸⁷`, the last normal
//! value, so `σ` of a large input is exactly 1. From 88.38 on `n` is
//! 128, `2ⁿ` is `+∞` and so is the result (the true value overflows at
//! 88.72), so `σ` of a very negative input is exactly 0 and its swish
//! `−0`, as with libm's `exp`. A `σ` that stopped at a tiny positive
//! value instead would leave activations around 10⁻³⁶ whose products in
//! the next convolution are subnormal, at some hundred cycles each:
//! evaluation with young running statistics, where `|z|` is in the
//! hundreds, went from 6 to 22 ms on the `wide_lars_2x` model that way.
//!
//! The scalar functions are what [`super::reduce`]'s batch-norm kernels
//! inline for their swish epilogue; the slice functions are the
//! stand-alone `Swish` and `Sigmoid` layers.

use crate::ops::simd::on_lane;

/// Inputs below this give `e⁻⁸⁷`, the smallest result: one more and
/// it would be subnormal.
pub const EXP_LO: f32 = -87.0;
/// Inputs above this give what this one does, `+∞`: from 88.38 on
/// `n = 128`. (`|x·log₂e|` stays far below the `2²²` that the rounding
/// by `ROUND` can take.)
pub const EXP_HI: f32 = 89.0;

/// `1.5·2²³`: adding it to `|t| < 2²²` leaves `round(t)` in the low
/// mantissa bits (round to nearest, ties to even).
const ROUND: f32 = 12_582_912.0;
/// `ln 2` in two parts: `355/512` has nine significant bits, so
/// `n·LN2_HI` is exact for every `n` [`exp`] meets, and the rest.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;

/// `eˣ`, saturating outside [[`EXP_LO`], [`EXP_HI`]]; see the module docs.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let x = x.clamp(EXP_LO, EXP_HI);
    let t = x * std::f32::consts::LOG2_E + ROUND;
    let n = t - ROUND;
    let r = x - n * LN2_HI - n * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 0.5;
    p = p * (r * r) + r + 1.0;
    let two_n = f32::from_bits(
        t.to_bits()
            .wrapping_sub(ROUND.to_bits())
            .wrapping_add(127)
            .wrapping_shl(23),
    );
    p * two_n
}

/// `σ(x) = 1 / (1 + e⁻ˣ)`.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// `swish(x) = x·σ(x)`.
#[inline(always)]
pub fn swish(x: f32) -> f32 {
    x * sigmoid(x)
}

/// `dy · swish′(x)`, with `swish′(x) = σ(x)·(1 + x·(1 − σ(x)))`.
#[inline(always)]
pub fn swish_grad(x: f32, dy: f32) -> f32 {
    let s = sigmoid(x);
    dy * s * (1.0 + x * (1.0 - s))
}

/// `y[i] = swish(x[i])`.
pub fn swish_forward(x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "swish_forward length mismatch");
    on_lane(
        #[inline(always)]
        || y.iter_mut().zip(x).for_each(|(o, &v)| *o = swish(v)),
    )
}

/// `dx[i] = dy[i] · swish′(x[i])`.
pub fn swish_backward(x: &[f32], dy: &[f32], dx: &mut [f32]) {
    assert!(
        x.len() == dx.len() && dy.len() == dx.len(),
        "swish_backward length mismatch"
    );
    on_lane(
        #[inline(always)]
        || {
            dx.iter_mut()
                .zip(x.iter().zip(dy))
                .for_each(|(o, (&v, &g))| *o = swish_grad(v, g))
        },
    )
}

/// `y[i] = σ(x[i])`.
pub fn sigmoid_forward(x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "sigmoid_forward length mismatch");
    on_lane(
        #[inline(always)]
        || y.iter_mut().zip(x).for_each(|(o, &v)| *o = sigmoid(v)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::simd::{ForcedLaneGuard, LanePath};

    #[test]
    fn exp_is_within_two_ulp_of_the_f64_exponential() {
        let mut worst = 0.0f64;
        // [−87, 88.375]: up to where the result becomes +∞.
        for i in 0..=(175 * 4096 + 1536) {
            let x = -87.0 + i as f32 / 4096.0;
            let want = (x as f64).exp();
            let near = want as f32;
            let ulp = (f32::from_bits(near.to_bits() + 1) - near) as f64;
            let err = (exp(x) as f64 - want).abs() / ulp;
            assert!(err <= 2.0, "exp({x}) is {err:.2} ulp off");
            worst = worst.max(err);
        }
        // Measured 0.97; a polynomial edit that costs accuracy shows here
        // before it reaches the bound.
        assert!(worst < 1.0, "worst error grew to {worst:.3} ulp");
    }

    /// `(input bits, result bits)`: an edit that moves any of these is an
    /// arithmetic change of every swish and sigmoid in the engine, to be
    /// declared as one.
    const GOLDEN: [(u32, u32); 20] = [
        (0x0000_0000, 0x3f80_0000), // 0 → 1
        (0x8000_0000, 0x3f80_0000), // −0 → 1
        (0x3f80_0000, 0x402d_f854), // 1 → e
        (0xbf80_0000, 0x3ebc_5ab2), // −1
        (0x3eb1_7218, 0x3fb5_04f3), // ln 2 / 2, the last input with n = 0 → √2
        (0x3eb1_7219, 0x3fb5_04f4), // its successor, the first with n = 1
        (0xbeb1_7218, 0x3f35_04f3), // −ln 2 / 2 → 1/√2
        (0xbeb1_7219, 0x3f35_04f3), // its successor, n = −1
        (0x3f85_1592, 0x4035_04f3), // 3·ln 2 / 2, the n = 1 | 2 boundary
        (0x4120_0000, 0x46ac_14ee), // 10
        (0xc120_0000, 0x383e_6bce), // −10
        (0x42ae_0000, 0x7e36_d809), // 87
        (0xc2ae_0000, 0x00b3_3687), // EXP_LO = −87: the smallest result
        (0xc2b0_0000, 0x00b3_3687), // −88 → the same
        (0xff80_0000, 0x00b3_3687), // −∞ → the same
        (0x42b0_0000, 0x7ef8_82b7), // 88
        (0x42b0_c0a5, 0x7f35_04a4), // 88.37626, the last finite result
        (0x42b0_c0a6, 0x7f80_0000), // its successor, n = 128 → +∞
        (0x7f80_0000, 0x7f80_0000), // +∞ → +∞
        (0x2edb_e6ff, 0x3f80_0000), // 1e-10 → 1
    ];

    #[test]
    fn exp_golden_bits() {
        for (x, want) in GOLDEN {
            let got = exp(f32::from_bits(x)).to_bits();
            assert_eq!(got, want, "exp({:e})", f32::from_bits(x));
        }
        assert!(exp(f32::NAN).is_nan(), "the clamp must not launder NaN");
    }

    #[test]
    fn no_result_is_subnormal_and_sigmoid_reaches_its_limits() {
        // Every 97th bit pattern, and the neighbourhood of both bounds.
        let around = |x: f32| (x.to_bits() - 64..x.to_bits() + 64).map(f32::from_bits);
        let sampled = (0..=u32::MAX / 97).map(|i| f32::from_bits(i * 97));
        for x in sampled.chain(around(-87.0)).chain(around(88.376_26)) {
            let y = exp(x);
            assert!(
                y.is_normal() || y == f32::INFINITY || (x.is_nan() && y.is_nan()),
                "exp({x:e}) = {y:e}"
            );
        }
        assert_eq!(sigmoid(-200.0), 0.0);
        assert_eq!(sigmoid(200.0), 1.0);
        assert_eq!(swish(-200.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(swish_grad(-200.0, 1.0), 0.0);
    }

    #[test]
    fn slice_kernels_equal_the_scalar_functions_on_every_lane() {
        // Lengths around the vector widths, values across the range.
        let x: Vec<f32> = (0..67).map(|i| (i as f32 - 33.0) * 0.37).collect();
        let dy: Vec<f32> = (0..67).map(|i| 1.0 - i as f32 * 0.03).collect();
        for lane in LanePath::ALL.into_iter().filter(|l| l.available()) {
            let _lane = ForcedLaneGuard::new(lane);
            for len in [0, 1, 7, 8, 9, 33, 67] {
                let (x, dy) = (&x[..len], &dy[..len]);
                let (mut y, mut s, mut dx) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
                swish_forward(x, &mut y);
                sigmoid_forward(x, &mut s);
                swish_backward(x, dy, &mut dx);
                for i in 0..len {
                    assert_eq!(y[i].to_bits(), swish(x[i]).to_bits(), "{lane:?}");
                    assert_eq!(s[i].to_bits(), sigmoid(x[i]).to_bits(), "{lane:?}");
                    assert_eq!(
                        dx[i].to_bits(),
                        swish_grad(x[i], dy[i]).to_bits(),
                        "{lane:?}"
                    );
                }
            }
        }
    }
}
