//! Property-based finite-difference gradient checks: every layer's
//! analytic backward must match the numeric derivative for randomized
//! shapes and inputs. These are the tests that keep the manual-backprop
//! design honest.

use ets_nn::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, GlobalAvgPool, Layer, Linear, Mode, Precision, Relu,
    Sigmoid, SqueezeExcite, Swish,
};
use ets_tensor::{Rng, Tensor};
use proptest::prelude::*;

/// Numeric ∂<f(x), g>/∂x_i via central differences, compared to backward.
fn check_input_gradient(
    make: &mut dyn FnMut() -> Box<dyn Layer>,
    x: &Tensor,
    indices: &[usize],
    eps: f32,
    tol: f32,
) -> Result<(), TestCaseError> {
    let mut layer = make();
    let mut rng = Rng::new(0);
    let y = layer.forward(x, Mode::Train, &mut rng);
    let mut g = Tensor::zeros(y.shape().dims());
    Rng::new(1).fill_uniform(g.data_mut(), -1.0, 1.0);
    let dx = layer.backward(&g);

    let mut loss = |x: &Tensor| -> f64 {
        let mut l = make();
        let mut r = Rng::new(0);
        let y = l.forward(x, Mode::Train, &mut r);
        y.data()
            .iter()
            .zip(g.data())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum()
    };
    for &i in indices {
        let i = i % x.numel();
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let num = ((loss(&xp) - loss(&xm)) / (2.0 * eps as f64)) as f32;
        let ana = dx.data()[i];
        prop_assert!(
            (num - ana).abs() < tol * (1.0 + num.abs()),
            "index {i}: numeric {num} vs analytic {ana}"
        );
    }
    Ok(())
}

fn rand_x(seed: u64, dims: &[usize]) -> Tensor {
    let mut t = Tensor::zeros(dims);
    Rng::new(seed).fill_uniform(t.data_mut(), -1.0, 1.0);
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn conv2d_input_gradient(
        seed in 0u64..200,
        c_in in 1usize..3,
        c_out in 1usize..3,
        stride in 1usize..3,
    ) {
        let x = rand_x(seed, &[1, c_in, 6, 6]);
        let mut make = || -> Box<dyn Layer> {
            Box::new(Conv2d::new("c", c_in, c_out, 3, stride, 1, Precision::F32, &mut Rng::new(7)))
        };
        check_input_gradient(&mut make, &x, &[0, 13, 31, 59], 1e-3, 2e-2)?;
    }

    #[test]
    fn depthwise_input_gradient(seed in 0u64..200, c in 1usize..4, stride in 1usize..3) {
        let x = rand_x(seed, &[1, c, 6, 6]);
        let mut make = || -> Box<dyn Layer> {
            Box::new(DepthwiseConv2d::new("d", c, 3, stride, 1, Precision::F32, &mut Rng::new(8)))
        };
        check_input_gradient(&mut make, &x, &[0, 17, 35], 1e-3, 2e-2)?;
    }

    #[test]
    fn linear_input_gradient(seed in 0u64..200, din in 1usize..6, dout in 1usize..6) {
        let x = rand_x(seed, &[3, din]);
        let mut make = || -> Box<dyn Layer> {
            Box::new(Linear::new("l", din, dout, true, &mut Rng::new(9)))
        };
        check_input_gradient(&mut make, &x, &[0, 1, 2], 1e-3, 1e-2)?;
    }

    #[test]
    fn batchnorm_input_gradient(seed in 0u64..200, c in 1usize..3) {
        // Enough samples per channel for stable statistics.
        let x = rand_x(seed, &[4, c, 3, 3]);
        let mut make = move || -> Box<dyn Layer> { Box::new(BatchNorm2d::new("bn", c)) };
        check_input_gradient(&mut make, &x, &[0, 7, 19, 31], 1e-2, 5e-2)?;
        let mut fused =
            move || -> Box<dyn Layer> { Box::new(BatchNorm2d::new("bn", c).with_swish()) };
        check_input_gradient(&mut fused, &x, &[0, 7, 19, 31], 1e-2, 5e-2)?;
    }

    #[test]
    fn squeeze_excite_input_gradient(seed in 0u64..200, c in 2usize..5) {
        let x = rand_x(seed, &[1, c, 3, 3]);
        let mut make = move || -> Box<dyn Layer> {
            Box::new(SqueezeExcite::new(
                "se",
                c,
                (c / 2).max(1),
                ets_nn::GemmPolicy::F32_ONLY,
                &mut Rng::new(10),
            ))
        };
        check_input_gradient(&mut make, &x, &[0, 5, 11], 1e-3, 3e-2)?;
    }

    #[test]
    fn activation_gradients(seed in 0u64..200, n in 2usize..16) {
        let x = rand_x(seed, &[n]);
        let mut mk_swish = || -> Box<dyn Layer> { Box::new(Swish::new()) };
        check_input_gradient(&mut mk_swish, &x, &[0, 1, 2, 3], 1e-3, 1e-2)?;
        let mut mk_sig = || -> Box<dyn Layer> { Box::new(Sigmoid::new()) };
        check_input_gradient(&mut mk_sig, &x, &[0, 1, 2, 3], 1e-3, 1e-2)?;
        // ReLU: avoid kinks at 0 by nudging values away from it.
        let xr = x.map(|v| if v.abs() < 0.05 { v + 0.1 } else { v });
        let mut mk_relu = || -> Box<dyn Layer> { Box::new(Relu::new()) };
        check_input_gradient(&mut mk_relu, &xr, &[0, 1, 2, 3], 1e-3, 1e-2)?;
    }

    #[test]
    fn gap_gradient(seed in 0u64..200, c in 1usize..4, hw in 1usize..5) {
        let x = rand_x(seed, &[2, c, hw, hw]);
        let mut make = || -> Box<dyn Layer> { Box::new(GlobalAvgPool::new()) };
        check_input_gradient(&mut make, &x, &[0, 3, 9], 1e-3, 1e-2)?;
    }
}
