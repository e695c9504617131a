//! LARS — Layer-wise Adaptive Rate Scaling (You et al. 2017), the paper's
//! large-batch optimizer (§3.1).
//!
//! For each *adapted* parameter (conv/dense kernels), the effective step is
//! scaled by the layer's trust ratio:
//!
//! ```text
//! ratio = η · ‖w‖ / (‖g‖ + wd·‖w‖ + ε)        (1 when ‖w‖ or ‖g‖ is 0)
//! v ← m·v + ratio·lr·(g + wd·w)
//! w ← w − v
//! ```
//!
//! Batch-norm γ/β and biases are *excluded* from both adaptation and decay
//! (they take plain momentum steps with the global LR), matching the
//! reference implementation used by the paper.

use crate::optimizer::{Optimizer, OptimizerState, Slots};
use ets_nn::Layer;
use std::ops::Range;

/// LARS configuration and state.
pub struct Lars {
    momentum: f32,
    weight_decay: f32,
    /// Trust coefficient η (0.001 in You et al.; the TF TPU implementation
    /// and this paper use η = 0.001 for ResNet and larger values for
    /// EfficientNet-style nets — configurable here).
    trust_coeff: f32,
    eps: f32,
    velocity: Slots<1>,
    /// Most recent trust ratios (diagnostics): one per adapted parameter
    /// the last step covered, so after a split step only the owned ones.
    pub last_ratios: Vec<f32>,
}

/// The trust ratio for (‖w‖, ‖g‖) (module doc); 1 when either is 0.
fn ratio(eta: f32, wd: f32, eps: f32, w: f32, g: f32) -> f32 {
    if w > 0.0 && g > 0.0 {
        eta * w / (g + wd * w + eps)
    } else {
        1.0
    }
}

impl Lars {
    pub fn new(momentum: f32, weight_decay: f32, trust_coeff: f32) -> Self {
        Lars {
            momentum,
            weight_decay,
            trust_coeff,
            eps: 1e-9,
            velocity: Slots::new(),
            last_ratios: Vec::new(),
        }
    }

    /// Configuration used for the paper's EfficientNet runs: momentum 0.9,
    /// weight decay 1e-5, trust coefficient 0.001.
    pub fn paper_default() -> Self {
        Self::new(0.9, 1e-5, 0.001)
    }

    /// The ratio [`Optimizer::step`] uses for (`w`, `g`) = (‖w‖, ‖g‖); exposed for
    /// tests and for the convergence model's calibration.
    pub fn trust_ratio(&self, w: f32, g: f32) -> f32 {
        ratio(self.trust_coeff, self.weight_decay, self.eps, w, g)
    }
}

impl Optimizer for Lars {
    fn step_params(&mut self, model: &mut dyn Layer, lr: f32, params: Range<usize>) {
        let (m, wd, eta, eps) = (self.momentum, self.weight_decay, self.trust_coeff, self.eps);
        let ratios = &mut self.last_ratios;
        ratios.clear();
        self.velocity.walk(model, params, |p, [v]| {
            let mut value = p.value.write();
            let adapted = p.kind.lars_adapted().then(|| {
                let r = ratio(eta, wd, eps, value.l2_norm(), p.grad.l2_norm());
                ratios.push(r);
                r * lr
            });
            let vw = v.iter_mut().zip(p.grad.data()).zip(value.data_mut());
            if let Some(scaled) = adapted {
                for ((v, &g), w) in vw {
                    *v = m * *v + scaled * (g + wd * *w);
                    *w -= *v;
                }
            } else {
                // Plain momentum SGD for BN params and biases.
                for ((v, &g), w) in vw {
                    *v = m * *v + lr * g;
                    *w -= *v;
                }
            }
        });
    }

    fn name(&self) -> &'static str {
        "lars"
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(usize, &mut [f32])) {
        self.velocity.visit(f);
    }

    /// Slot: `velocity`. `last_ratios` is a diagnostic recomputed every
    /// step, so it is deliberately not snapshotted.
    fn export_state_params(&self, params: Range<usize>) -> OptimizerState {
        self.velocity.export(Vec::new(), params)
    }

    fn import_state_params(
        &mut self,
        state: &OptimizerState,
        model: &mut dyn Layer,
        params: Range<usize>,
    ) {
        self.velocity.import(state, model, params);
        self.last_ratios.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_nn::{Mode, Param, ParamKind};
    use ets_tensor::{Rng, Tensor};

    struct Params(Vec<Param>);
    impl Layer for Params {
        fn forward(&mut self, x: &Tensor, _m: Mode, _r: &mut Rng) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, g: &Tensor) -> Tensor {
            g.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            for p in &mut self.0 {
                f(p);
            }
        }
    }

    #[test]
    fn trust_ratio_formula() {
        let lars = Lars::new(0.9, 0.0, 0.001);
        let r = lars.trust_ratio(10.0, 1.0);
        assert!((r - 0.01).abs() < 1e-6);
        assert_eq!(lars.trust_ratio(0.0, 1.0), 1.0);
        assert_eq!(lars.trust_ratio(1.0, 0.0), 1.0);
    }

    #[test]
    fn step_size_invariant_to_gradient_scale() {
        // The signature LARS property: multiplying the gradient by any
        // positive constant leaves the (first) update direction AND
        // magnitude unchanged for adapted params.
        let mk = || {
            Params(vec![Param::new(
                "w",
                Tensor::from_vec([2], vec![3.0, 4.0]),
                ParamKind::Weight,
            )])
        };
        let run = |gscale: f32| {
            let mut layer = mk();
            layer.0[0]
                .grad
                .data_mut()
                .copy_from_slice(&[gscale, 2.0 * gscale]);
            let mut opt = Lars::new(0.0, 0.0, 0.001);
            opt.step(&mut layer, 1.0);
            let weights = layer.0[0].value.data().to_vec();
            weights
        };
        let small = run(1e-3);
        let large = run(1e3);
        for (a, b) in small.iter().zip(&large) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    /// Two steps on a fixed three-parameter model give the bits they
    /// gave before the norms moved to `sum_sq` (golden values from the
    /// sequential-sum build): the norm's summation order changed, the
    /// `f32` it rounds to did not.
    #[test]
    fn two_steps_on_a_fixed_model_give_the_pinned_bits() {
        let mut rng = Rng::new(2022);
        let mut param = |name, dims: &[usize], kind| {
            let n = dims.iter().product();
            let (mut w, mut g) = (vec![0.0; n], vec![0.0; n]);
            rng.fill_uniform(&mut w, -1.0, 1.0);
            rng.fill_uniform(&mut g, -0.1, 0.1);
            let mut p = Param::new(name, Tensor::from_vec(dims, w), kind);
            p.grad.data_mut().copy_from_slice(&g);
            p
        };
        let mut layer = Params(vec![
            param("w0", &[40, 25], ParamKind::Weight),
            param("w1", &[2, 3], ParamKind::Weight),
            param("gamma", &[5], ParamKind::BnGamma),
        ]);
        let mut opt = Lars::new(0.9, 1e-5, 0.001);
        opt.step(&mut layer, 0.5);
        opt.step(&mut layer, 0.25);
        let ratios: Vec<u32> = opt.last_ratios.iter().map(|r| r.to_bits()).collect();
        assert_eq!(ratios, [1008958706, 1009648221], "trust ratios");
        // FNV-1a over every weight's bits.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for p in &layer.0 {
            for v in p.value.data().iter() {
                hash = (hash ^ v.to_bits() as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(hash, 3096566789508572014, "weights after two steps");
    }

    #[test]
    fn bn_params_not_adapted() {
        let mut layer = Params(vec![
            Param::new("w", Tensor::from_vec([1], vec![100.0]), ParamKind::Weight),
            Param::new(
                "gamma",
                Tensor::from_vec([1], vec![100.0]),
                ParamKind::BnGamma,
            ),
        ]);
        layer.0[0].grad.data_mut()[0] = 1.0;
        layer.0[1].grad.data_mut()[0] = 1.0;
        let mut opt = Lars::new(0.0, 0.0, 0.001);
        opt.step(&mut layer, 0.5);
        // Weight: ratio = 0.001·100/1 = 0.1 → step 0.05.
        assert!((layer.0[0].value.data()[0] - 99.95).abs() < 1e-4);
        // Gamma: plain SGD step 0.5.
        assert!((layer.0[1].value.data()[0] - 99.5).abs() < 1e-4);
        assert_eq!(opt.last_ratios.len(), 1, "only the weight is adapted");
    }

    #[test]
    fn weight_decay_enters_numerator_update() {
        // With zero gradient, decay still shrinks adapted weights.
        let mut layer = Params(vec![Param::new(
            "w",
            Tensor::from_vec([1], vec![10.0]),
            ParamKind::Weight,
        )]);
        let mut opt = Lars::new(0.0, 0.1, 1.0);
        // g = 0: ratio falls back to 1.0, update = lr·wd·w = 1·0.1·10 = 1.
        opt.step(&mut layer, 1.0);
        assert!((layer.0[0].value.data()[0] - 9.0).abs() < 1e-5);
    }

    #[test]
    fn converges_on_quadratic_with_large_gradient_scale() {
        // f(w) = ½·(1000·w)² — pathologically scaled; LARS normalizes it.
        let mut layer = Params(vec![Param::new(
            "w",
            Tensor::from_vec([1], vec![1.0]),
            ParamKind::Weight,
        )]);
        let mut opt = Lars::new(0.9, 0.0, 0.01);
        for _ in 0..200 {
            let w = layer.0[0].value.data()[0];
            layer.0[0].zero_grad();
            layer.0[0].grad.data_mut()[0] = 1e6 * w;
            opt.step(&mut layer, 0.5);
        }
        assert!(
            layer.0[0].value.data()[0].abs() < 0.05,
            "w = {}",
            layer.0[0].value.data()[0]
        );
    }
}
