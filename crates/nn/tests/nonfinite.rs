//! Non-finite values survive the elementwise layers, so `nan_guard` and
//! the loss check downstream still see them: the in-tree `exp` limits
//! its input with `f32::clamp`, which passes NaN through, where a
//! `max`/`min` pair would hand back the bound and launder a NaN into an
//! ordinary activation. Checked on every available SIMD lane path.

use ets_nn::{BatchNorm2d, Layer, Mode, Sigmoid, Swish};
use ets_tensor::ops::simd::{ForcedLaneGuard, LanePath};
use ets_tensor::{Rng, Tensor};

const POISONS: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

fn seeded(dims: &[usize], seed: u64) -> Tensor {
    let mut t = Tensor::zeros(dims);
    Rng::new(seed).fill_normal(t.data_mut(), 0.0, 1.0);
    t
}

fn on_every_lane(mut check: impl FnMut(LanePath)) {
    for lane in LanePath::ALL.into_iter().filter(|l| l.available()) {
        let _lane = ForcedLaneGuard::new(lane);
        check(lane);
    }
}

/// `(forward output, input gradient)` of a training step on `x`, `dy`.
fn step(layer: &mut dyn Layer, x: &Tensor, dy: &Tensor) -> (Tensor, Tensor) {
    let y = layer.forward(x, Mode::Train, &mut Rng::new(0));
    (y, layer.backward(dy))
}

#[test]
fn fused_batchnorm_keeps_non_finite_values_forward_and_backward() {
    // One plane regime each: 8×8 planes, and 2×2 planes image by image.
    for dims in [[2, 3, 8, 8], [2, 3, 2, 2]] {
        let (clean, dy) = (seeded(&dims, 1), seeded(&dims, 2));
        let at = clean.numel() / 2 + 1;
        on_every_lane(|lane| {
            for poison in POISONS {
                let mut bn = BatchNorm2d::new("bn", 3).with_swish();
                // In the input: the channel's statistics go with it.
                let mut x = clean.clone();
                x.data_mut()[at] = poison;
                let (y, dx) = step(&mut bn, &x, &dy);
                assert!(y.has_non_finite(), "{dims:?} {lane:?}: y lost {poison}");
                assert!(dx.has_non_finite(), "{dims:?} {lane:?}: dx lost {poison}");
                // In the upstream gradient alone.
                let mut g = dy.clone();
                g.data_mut()[at] = poison;
                let (y, dx) = step(&mut bn, &clean, &g);
                assert!(!y.has_non_finite());
                assert!(
                    dx.has_non_finite(),
                    "{dims:?} {lane:?}: dx lost a {poison} gradient"
                );
                let mut seen = false;
                bn.visit_params(&mut |p| seen |= p.grad.has_non_finite());
                assert!(seen, "{dims:?} {lane:?}: dγ/dβ lost a {poison} gradient");
            }
        });
    }
}

#[test]
fn swish_keeps_non_finite_values_forward_and_backward() {
    let (clean, dy) = (seeded(&[37], 3), seeded(&[37], 4));
    on_every_lane(|lane| {
        for poison in POISONS {
            for at in [0, 17, 36] {
                let mut x = clean.clone();
                x.data_mut()[at] = poison;
                let (y, dx) = step(&mut Swish::new(), &x, &dy);
                assert!(!y.data()[at].is_finite(), "{lane:?}: swish({poison})");
                assert!(!dx.data()[at].is_finite(), "{lane:?}: swish'({poison})");
                let finite = |t: &Tensor| t.data().iter().filter(|v| v.is_finite()).count();
                assert_eq!((finite(&y), finite(&dx)), (36, 36), "{lane:?}: it spread");
            }
        }
    });
}

#[test]
fn sigmoid_keeps_nan_and_takes_its_limits_at_infinity() {
    let (clean, dy) = (seeded(&[37], 5), seeded(&[37], 6));
    on_every_lane(|lane| {
        for at in [0, 17, 36] {
            let mut x = clean.clone();
            x.data_mut()[at] = f32::NAN;
            let (y, dx) = step(&mut Sigmoid::new(), &x, &dy);
            assert!(y.data()[at].is_nan(), "{lane:?}: σ(NaN)");
            assert!(dx.data()[at].is_nan(), "{lane:?}: σ'(NaN)");
        }
        // σ(±∞) are 1 and 0, finite by definition (as with libm's exp);
        // an infinity reaching SE's gate has already poisoned the
        // tensor the gate multiplies.
        let x = Tensor::from_vec([2], vec![f32::INFINITY, f32::NEG_INFINITY]);
        let (y, _) = step(&mut Sigmoid::new(), &x, &Tensor::ones([2]));
        assert_eq!(y.data()[0], 1.0, "{lane:?}");
        assert!((0.0..1e-37).contains(&y.data()[1]), "{lane:?}");
    });
}
