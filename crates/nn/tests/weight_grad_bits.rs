//! Golden bits of the conv and depthwise weight gradients.
//!
//! Each case runs one Train-mode forward and backward into a zeroed
//! `Param.grad` and pins the FNV-1a of the gradient's bits, in f32 and in
//! mixed bf16. The one-backward pins were recorded when the layers still
//! built a separate weight gradient and added it into `Param.grad`;
//! writing into the gradient directly must not move them. The
//! two-backward pins hold the association under gradient accumulation:
//! each backward folds its `KC` slabs (conv) or its per-image plane
//! partials (depthwise) into the running gradient one at a time.

use ets_nn::{Conv2d, DepthwiseConv2d, Layer, Mode, Precision};
use ets_tensor::{same_pad, Rng, Tensor};

/// One layer: `(name, depthwise, c_in, c_out, k, stride, n, side)`, a
/// dense conv `c_in → c_out` or a depthwise conv over `c_in = c_out`
/// channels, a square `k×k` kernel with SAME padding, `n` images of
/// `side × side`.
type Case = (&'static str, bool, usize, usize, usize, usize, usize, usize);

const CASES: [Case; 6] = [
    // dW is (4, 16, 4): k = N·P below the blocked kernel's minimum depth.
    ("conv1x1_naive", false, 4, 4, 1, 1, 1, 4),
    // dW is (16, 288, 16) on the packed kernel: three KC = 128 slabs.
    ("conv1x1_blocked", false, 16, 16, 1, 1, 2, 12),
    // The 3×3 stride-2 stem: dW is (16, 288, 27), three slabs again.
    ("stem3x3_s2", false, 3, 16, 3, 2, 2, 24),
    // Row regimes: stride 1 and the stride-2 phase split.
    ("dw3x3_rows", true, 8, 8, 3, 1, 3, 16),
    ("dw5x5_s2_rows", true, 8, 8, 5, 2, 3, 16),
    // The small-map regime: a 5×5 kernel on a 4×4 map.
    ("dw5x5_small_map", true, 8, 8, 5, 1, 3, 4),
];

fn uniform(seed: u64, dims: &[usize]) -> Tensor {
    let mut t = Tensor::zeros(dims);
    Rng::new(seed).fill_uniform(t.data_mut(), -1.0, 1.0);
    t
}

/// FNV-1a over the little-endian bytes of every element's bits.
fn fnv(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The weight gradient after `backwards` forward/backward pairs into a
/// zeroed gradient, each with its own upstream gradient (all zeros when
/// `zero_dy`).
fn weight_grad(case: &Case, precision: Precision, backwards: u64, zero_dy: bool) -> Vec<f32> {
    let &(name, depthwise, c_in, c_out, k, stride, n, side) = case;
    let (pad, mut rng) = (same_pad(k), Rng::new(11));
    let mut layer: Box<dyn Layer> = if depthwise {
        Box::new(DepthwiseConv2d::new(
            name, c_in, k, stride, pad, precision, &mut rng,
        ))
    } else {
        Box::new(Conv2d::new(
            name, c_in, c_out, k, stride, pad, precision, &mut rng,
        ))
    };
    let x = uniform(21, &[n, c_in, side, side]);
    for step in 0..backwards {
        let y = layer.forward(&x, Mode::Train, &mut rng);
        let dy = if zero_dy {
            Tensor::zeros(y.shape().dims())
        } else {
            uniform(31 + step, y.shape().dims())
        };
        layer.backward(&dy);
    }
    let mut grad = Vec::new();
    layer.visit_params(&mut |p| grad.extend_from_slice(p.grad.data()));
    let per_out = if depthwise { 1 } else { c_in };
    assert_eq!(grad.len(), c_out * per_out * k * k);
    grad
}

/// Checks every case against `pins` (`[f32, bf16]` per case, in
/// [`CASES`] order) and reports every mismatch at once.
fn check(backwards: u64, pins: [[u64; 2]; 6]) {
    let mut wrong = Vec::new();
    for (case, pin) in CASES.iter().zip(pins) {
        for (precision, want) in [Precision::F32, Precision::MixedBf16].into_iter().zip(pin) {
            let got = fnv(&weight_grad(case, precision, backwards, false));
            if got != want {
                wrong.push(format!(
                    "{} {precision:?}: {got:#018x}, pinned {want:#018x}",
                    case.0
                ));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "weight-gradient bits moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn one_backward_into_a_zeroed_gradient_keeps_its_bits() {
    check(
        1,
        [
            [0xe1180d624b8b316a, 0x4a8cff80c60a3492],
            [0xabef8816e1c81361, 0x0dd75d8c2f50b483],
            [0xaa067da5e5c61755, 0xa17c792c6f1c9201],
            [0xca9ac958107fecee, 0x7fc95fb1defb4974],
            [0xc0c7550d2e8eae86, 0x66b9a8edcdbb8f43],
            [0xd74346ce2257425f, 0x7423061d52826424],
        ],
    );
}

#[test]
fn two_backwards_accumulate_in_the_pinned_association() {
    // `conv1x1_naive` keeps the bits of the old association: its one
    // column sum per element was added into the gradient then as now.
    check(
        2,
        [
            [0xc4461b22cd655c39, 0x039fcbc67ff79175],
            [0x74a87f0fcafcdf6b, 0x276daf5ce0ed3946],
            [0x16da759ddcc08b27, 0xe73a44485af51583],
            [0xea365b7b2d5a99a1, 0x33c85f7ed0c33bc2],
            [0xcc02fe99bb8b8a57, 0x47364d4773ca7fab],
            [0xefb298c8556e00d6, 0x980d7d4eed1e79c6],
        ],
    );
}

#[test]
fn a_zero_upstream_gradient_gives_positive_zero_weight_gradients() {
    for case in &CASES {
        for precision in [Precision::F32, Precision::MixedBf16] {
            let grad = weight_grad(case, precision, 1, true);
            assert!(
                grad.iter().all(|g| g.to_bits() == 0),
                "{} {precision:?}: a weight gradient is not +0.0",
                case.0
            );
        }
    }
}
