//! RMSProp with TensorFlow semantics — the original EfficientNet optimizer
//! and the paper's small-batch baseline (Table 2's RMSProp rows).
//!
//! EfficientNet's configuration: decay (ρ) 0.9, momentum 0.9, ε 1e-3,
//! L2 weight decay 1e-5 folded into the gradient for kernel weights.
//!
//! Update (TF `RMSPropOptimizer` with momentum):
//! ```text
//! ms ← ρ·ms + (1−ρ)·g²
//! mom ← m·mom + lr·g / sqrt(ms + ε)
//! w  ← w − mom
//! ```

use crate::optimizer::{Optimizer, OptimizerState, Slots};
use ets_nn::Layer;
use std::ops::Range;

/// TF-style RMSProp.
pub struct RmsProp {
    rho: f32,
    momentum: f32,
    eps: f32,
    weight_decay: f32,
    /// `[ms, mom]`.
    slots: Slots<2>,
}

impl RmsProp {
    pub fn new(rho: f32, momentum: f32, eps: f32, weight_decay: f32) -> Self {
        RmsProp {
            rho,
            momentum,
            eps,
            weight_decay,
            slots: Slots::new(),
        }
    }

    /// The EfficientNet reference configuration.
    pub fn efficientnet_default() -> Self {
        Self::new(0.9, 0.9, 1e-3, 1e-5)
    }
}

impl Optimizer for RmsProp {
    fn step_params(&mut self, model: &mut dyn Layer, lr: f32, params: Range<usize>) {
        let (rho, m, eps, wd) = (self.rho, self.momentum, self.eps, self.weight_decay);
        self.slots.walk(model, params, |p, [ms, mom]| {
            let decay = if p.kind.decayed() { wd } else { 0.0 };
            for (((ms, mom), &g), w) in ms
                .iter_mut()
                .zip(mom)
                .zip(p.grad.data())
                .zip(p.value.data_mut())
            {
                let g = g + decay * *w;
                *ms = rho * *ms + (1.0 - rho) * g * g;
                *mom = m * *mom + lr * g / (*ms + eps).sqrt();
                *w -= *mom;
            }
        });
    }

    fn name(&self) -> &'static str {
        "rmsprop"
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(usize, &mut [f32])) {
        self.slots.visit(f);
    }

    /// Slots: `ms`, then `mom`.
    fn export_state(&self) -> OptimizerState {
        self.slots.export(Vec::new())
    }

    fn import_state(&mut self, state: &OptimizerState, model: &mut dyn Layer) {
        self.slots.import(state, model);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_nn::{Mode, Param, ParamKind};
    use ets_tensor::{Rng, Tensor};

    struct OneParam(Param);
    impl Layer for OneParam {
        fn forward(&mut self, x: &Tensor, _m: Mode, _r: &mut Rng) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, g: &Tensor) -> Tensor {
            g.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.0);
        }
    }

    #[test]
    fn descends_quadratic() {
        let mut layer = OneParam(Param::new("w", Tensor::scalar(5.0), ParamKind::Bias));
        let mut opt = RmsProp::new(0.9, 0.0, 1e-3, 0.0);
        for _ in 0..300 {
            let w = layer.0.value.data()[0];
            layer.0.zero_grad();
            layer.0.grad.data_mut()[0] = w;
            opt.step(&mut layer, 0.05);
        }
        assert!(
            layer.0.value.data()[0].abs() < 0.05,
            "w = {}",
            layer.0.value.data()[0]
        );
    }

    #[test]
    fn adaptive_scaling_normalizes_gradient_magnitude() {
        // Two coordinates with gradients differing by 100× should move at
        // comparable speeds once ms warms up — the defining RMSProp property.
        let mut layer = OneParam(Param::new(
            "w",
            Tensor::from_vec([2], vec![1.0, 1.0]),
            ParamKind::Bias,
        ));
        let mut opt = RmsProp::new(0.9, 0.0, 1e-8, 0.0);
        for _ in 0..50 {
            layer.0.zero_grad();
            layer.0.grad.data_mut().copy_from_slice(&[1.0, 100.0]);
            opt.step(&mut layer, 0.01);
        }
        let w = layer.0.value.data();
        let moved = [1.0 - w[0], 1.0 - w[1]];
        let ratio = moved[1] / moved[0];
        assert!(
            (0.8..1.2).contains(&ratio),
            "movement should be magnitude-normalized, ratio {ratio}"
        );
    }

    #[test]
    fn momentum_state_persists() {
        let mut layer = OneParam(Param::new("w", Tensor::scalar(1.0), ParamKind::Bias));
        let mut opt = RmsProp::efficientnet_default();
        layer.0.grad.data_mut()[0] = 1.0;
        opt.step(&mut layer, 0.1);
        let w1 = layer.0.value.data()[0];
        // Zero gradient: momentum alone keeps moving the weight.
        layer.0.zero_grad();
        opt.step(&mut layer, 0.1);
        let w2 = layer.0.value.data()[0];
        assert!(w2 < w1, "momentum should carry the update");
    }
}
