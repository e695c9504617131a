//! The depthwise row kernels against the per-pixel loops they replaced
//! (`depthwise_*_reference`), bitwise:
//!
//! - `y`, `dx` and `dw` on geometries chosen to land in every regime and
//!   on every edge of one (non-square maps and kernels, a map narrower
//!   than the kernel, 1×1 maps, odd sizes at stride 2, pad 0 and pad
//!   beyond SAME, stride 3, a 7×7 kernel, batches of 1 and 3), plus a
//!   `proptest!` over random geometry;
//! - the same on every available SIMD lane path, and on rerun;
//! - the NaN contract: a zero `dy` against a non-finite `x` still puts
//!   NaN in `dw`, a non-finite value in one plane stays in that plane's
//!   `y` / `dx` and that channel's `dw`, and the kernels never produce
//!   fewer non-finite outputs than the reference;
//! - steady-state calls never grow the scratch arena.
//!
//! The depthwise layers of the four perfbench workloads are swept from
//! their `ModelConfig`s in the root `tests/kernel_dispatch.rs`
//! (`ets-tensor` cannot depend on `ets-efficientnet`).

mod common;

use common::{bits, rand_vec};
use ets_tensor::ops::depthwise::{
    depthwise_backward, depthwise_backward_reference, depthwise_forward,
    depthwise_forward_reference,
};
use ets_tensor::ops::simd::{ForcedLaneGuard, LanePath};
use ets_tensor::{conv_out_dim, scratch_reallocs_local, Tensor};
use proptest::prelude::*;

/// One depthwise call: `x` is `[n, c, h, w]`, the kernel `[c, 1, kh, kw]`.
#[derive(Clone, Copy, Debug)]
struct Case {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
}

impl Case {
    /// Seeded `(x, w, dy)`.
    fn operands(&self, seed: u64) -> (Tensor, Tensor, Tensor) {
        let t =
            |dims: [usize; 4], seed| Tensor::from_vec(dims, rand_vec(seed, dims.iter().product()));
        let h_out = conv_out_dim(self.h, self.kh, self.stride, self.pad);
        let w_out = conv_out_dim(self.w, self.kw, self.stride, self.pad);
        (
            t([self.n, self.c, self.h, self.w], seed),
            t([self.c, 1, self.kh, self.kw], seed + 1),
            t([self.n, self.c, h_out, w_out], seed + 2),
        )
    }
}

/// Bits of `(y, dx, dw)` from the kernels, or from the reference loops.
fn outputs(case: &Case, (x, w, dy): &(Tensor, Tensor, Tensor), reference: bool) -> [Vec<u32>; 3] {
    let (s, p) = (case.stride, case.pad);
    let (y, (dx, dw)) = if reference {
        (
            depthwise_forward_reference(x, w, s, p),
            depthwise_backward_reference(x, w, dy, s, p),
        )
    } else {
        (
            depthwise_forward(x, w, s, p),
            depthwise_backward(x, w, dy, s, p),
        )
    };
    [bits(y.data()), bits(dx.data()), bits(dw.data())]
}

#[allow(clippy::too_many_arguments)]
const fn case(
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Case {
    Case {
        n,
        c,
        h,
        w,
        kh,
        kw,
        stride,
        pad,
    }
}

/// `case(n, c, h, w, kh, kw, stride, pad)`.
const ADVERSARIAL: [Case; 30] = [
    // Row regimes: SAME padding, a wide interior.
    case(1, 2, 12, 12, 3, 3, 1, 1),
    case(3, 2, 9, 21, 3, 3, 1, 1),
    case(2, 3, 10, 40, 5, 5, 1, 2),
    case(1, 2, 33, 9, 5, 5, 1, 2),
    case(2, 2, 16, 16, 3, 3, 2, 1),
    case(1, 3, 16, 16, 5, 5, 2, 2),
    case(3, 1, 17, 17, 3, 3, 2, 1),
    case(1, 2, 15, 33, 5, 5, 2, 2),
    case(1, 2, 33, 15, 3, 3, 2, 1),
    case(2, 1, 70, 70, 3, 3, 2, 1),
    case(1, 1, 9, 140, 5, 5, 1, 2),
    // Row regimes with a non-square kernel, and pad beyond SAME at
    // stride 2 (a plane of outputs that read only padding).
    case(1, 2, 12, 20, 3, 5, 1, 2),
    case(2, 2, 12, 20, 5, 3, 2, 1),
    case(1, 2, 12, 12, 3, 3, 2, 2),
    case(1, 1, 11, 11, 3, 3, 2, 3),
    // No row regime: rows that do not line up, short interiors, stride 3.
    case(1, 2, 12, 12, 3, 3, 1, 0),
    case(2, 1, 12, 12, 3, 3, 1, 2),
    case(1, 2, 13, 13, 5, 5, 2, 0),
    case(1, 2, 14, 14, 3, 3, 3, 1),
    case(3, 2, 6, 6, 3, 3, 1, 1),
    case(1, 3, 7, 5, 5, 5, 1, 2),
    // A map narrower than the kernel, and 1×1 maps.
    case(1, 2, 5, 2, 3, 3, 1, 1),
    case(2, 2, 2, 3, 5, 5, 1, 2),
    case(3, 4, 1, 1, 3, 3, 1, 1),
    case(1, 4, 1, 1, 5, 5, 2, 2),
    // The constant-geometry small maps.
    case(3, 5, 4, 4, 5, 5, 1, 2),
    case(1, 5, 8, 8, 3, 3, 2, 1),
    case(2, 3, 2, 2, 3, 3, 2, 1),
    // Kernel 7: more taps than the row kernels hold state for.
    case(1, 2, 16, 16, 7, 7, 1, 3),
    case(3, 1, 9, 12, 7, 7, 2, 3),
];

fn adversarial() -> impl Iterator<Item = Case> {
    ADVERSARIAL.into_iter()
}

fn lanes() -> impl Iterator<Item = LanePath> {
    LanePath::ALL.into_iter().filter(|lane| lane.available())
}

#[test]
fn every_lane_equals_the_reference_loops_bitwise() {
    for (idx, case) in adversarial().enumerate() {
        let ops = case.operands(100 + idx as u64);
        let want = outputs(&case, &ops, true);
        assert_eq!(outputs(&case, &ops, false), want, "{case:?}");
        assert_eq!(outputs(&case, &ops, false), want, "{case:?}: rerun");
        for lane in lanes() {
            let _lane = ForcedLaneGuard::new(lane);
            assert_eq!(
                outputs(&case, &ops, false),
                want,
                "{case:?} on {}",
                lane.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_geometry_equals_the_reference_loops_bitwise(
        seed in 0u64..1000,
        n in 1usize..3,
        c in 1usize..4,
        h in 1usize..20,
        w in 1usize..40,
        kh in 1usize..7,
        kw in 1usize..7,
        stride in 1usize..4,
        pad in 0usize..4,
    ) {
        prop_assume!(h + 2 * pad >= kh && w + 2 * pad >= kw);
        let case = Case { n, c, h, w, kh, kw, stride, pad };
        let ops = case.operands(seed);
        let want = outputs(&case, &ops, true);
        for lane in lanes() {
            let _lane = ForcedLaneGuard::new(lane);
            prop_assert_eq!(outputs(&case, &ops, false), want.clone(), "{:?} on {}", case, lane.name());
        }
    }
}

/// Which elements are non-finite.
fn non_finite(v: &[f32]) -> Vec<bool> {
    v.iter().map(|x| !x.is_finite()).collect()
}

/// Elements of plane `p` of an `[N, C, ..]` tensor with `planes` planes.
fn plane(t: &Tensor, planes: usize, p: usize) -> &[f32] {
    let len = t.numel() / planes;
    &t.data()[p * len..(p + 1) * len]
}

/// The cases with at least two images and two channels, so that "the
/// same plane", "the same channel" and "anywhere else" differ.
fn poisonable() -> impl Iterator<Item = Case> {
    adversarial().filter(|c| c.n > 1 && c.c > 1)
}

#[test]
fn a_non_finite_input_stays_in_its_plane_and_its_channel() {
    for poison in [f32::NAN, f32::INFINITY] {
        for case in poisonable() {
            let (s, p) = (case.stride, case.pad);
            let planes = case.n * case.c;
            let bad = case.c + 1; // image 1, channel 1
            let (mut x, w, mut dy) = case.operands(7);
            // The centre input: read by some output at every geometry here.
            x.data_mut()[bad * case.h * case.w + (case.h / 2) * case.w + case.w / 2] = poison;

            let y = depthwise_forward(&x, &w, s, p);
            let y_ref = depthwise_forward_reference(&x, &w, s, p);
            for q in 0..planes {
                let got = non_finite(plane(&y, planes, q));
                assert_eq!(
                    got,
                    non_finite(plane(&y_ref, planes, q)),
                    "{case:?} y plane {q}"
                );
                assert_eq!(got.contains(&true), q == bad, "{case:?} y plane {q}");
            }

            // A zero upstream gradient for the poisoned plane must not
            // launder it out of dw (0·NaN and 0·inf are NaN); dx never
            // reads x.
            let out_len = dy.numel() / planes;
            dy.data_mut()[bad * out_len..(bad + 1) * out_len].fill(0.0);
            let (dx, dw) = depthwise_backward(&x, &w, &dy, s, p);
            let (_, dw_ref) = depthwise_backward_reference(&x, &w, &dy, s, p);
            assert!(dx.data().iter().all(|v| v.is_finite()), "{case:?} dx");
            assert_eq!(
                non_finite(dw.data()),
                non_finite(dw_ref.data()),
                "{case:?} dw"
            );
            for ch in 0..case.c {
                let hit = plane(&dw, case.c, ch).iter().any(|v| v.is_nan());
                assert_eq!(hit, ch == bad % case.c, "{case:?} dw channel {ch}");
            }
        }
    }
}

#[test]
fn a_non_finite_gradient_stays_in_its_plane_and_its_channel() {
    for case in poisonable() {
        let (s, p) = (case.stride, case.pad);
        let planes = case.n * case.c;
        let bad = case.c + 1;
        let (x, w, mut dy) = case.operands(8);
        let out_len = dy.numel() / planes;
        dy.data_mut()[bad * out_len + out_len / 2] = f32::NAN;
        let (dx, dw) = depthwise_backward(&x, &w, &dy, s, p);
        let (dx_ref, dw_ref) = depthwise_backward_reference(&x, &w, &dy, s, p);
        assert_eq!(
            non_finite(dx.data()),
            non_finite(dx_ref.data()),
            "{case:?} dx"
        );
        assert_eq!(
            non_finite(dw.data()),
            non_finite(dw_ref.data()),
            "{case:?} dw"
        );
        for q in 0..planes {
            let hit = plane(&dx, planes, q).iter().any(|v| v.is_nan());
            // pad beyond SAME can leave an output no input reads.
            assert!(!hit || q == bad, "{case:?} dx plane {q}");
        }
        for ch in 0..case.c {
            let hit = plane(&dw, case.c, ch).iter().any(|v| v.is_nan());
            assert!(!hit || ch == bad % case.c, "{case:?} dw channel {ch}");
        }
    }
}

#[test]
fn steady_state_calls_never_grow_the_scratch_arena() {
    let cases: Vec<(Case, _)> = adversarial().map(|c| (c, c.operands(9))).collect();
    let sweep = || {
        for (case, ops) in &cases {
            outputs(case, ops, false);
        }
    };
    sweep();
    let warm = scratch_reallocs_local();
    for _ in 0..3 {
        sweep();
    }
    assert_eq!(
        scratch_reallocs_local(),
        warm,
        "phase planes must be pooled"
    );
}
