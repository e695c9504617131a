//! SGD with momentum and (coupled) L2 weight decay.

use crate::optimizer::{Optimizer, OptimizerState, Slots};
use ets_nn::Layer;
use std::ops::Range;

/// Momentum SGD: `v ← m·v + (g + wd·w)`, `w ← w − lr·v`.
pub struct Sgd {
    momentum: f32,
    weight_decay: f32,
    velocity: Slots<1>,
}

impl Sgd {
    pub fn new(momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            momentum,
            weight_decay,
            velocity: Slots::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step_params(&mut self, model: &mut dyn Layer, lr: f32, params: Range<usize>) {
        let (m, wd) = (self.momentum, self.weight_decay);
        self.velocity.walk(model, params, |p, [v]| {
            let decay = if p.kind.decayed() { wd } else { 0.0 };
            let mut value = p.value.write();
            for ((v, &g), w) in v.iter_mut().zip(p.grad.data()).zip(value.data_mut()) {
                *v = m * *v + g + decay * *w;
                *w -= lr * *v;
            }
        });
    }

    fn name(&self) -> &'static str {
        "sgd"
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(usize, &mut [f32])) {
        self.velocity.visit(f);
    }

    /// Slot: `velocity`.
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
    fn plain_sgd_descends_quadratic() {
        // Minimize f(w) = ½w² with gradient w.
        let mut layer = OneParam(Param::new("w", Tensor::scalar(10.0), ParamKind::Bias));
        let mut opt = Sgd::new(0.0, 0.0);
        for _ in 0..100 {
            let w = layer.0.value.data()[0];
            layer.0.zero_grad();
            layer.0.grad.data_mut()[0] = w;
            opt.step(&mut layer, 0.1);
        }
        assert!(layer.0.value.data()[0].abs() < 1e-3);
    }

    #[test]
    fn momentum_accelerates() {
        let run = |mom: f32| {
            let mut layer = OneParam(Param::new("w", Tensor::scalar(10.0), ParamKind::Bias));
            let mut opt = Sgd::new(mom, 0.0);
            for _ in 0..20 {
                let w = layer.0.value.data()[0];
                layer.0.zero_grad();
                layer.0.grad.data_mut()[0] = w;
                opt.step(&mut layer, 0.02);
            }
            let w = layer.0.value.data()[0];
            w
        };
        assert!(run(0.9) < run(0.0), "momentum should make faster progress");
    }

    #[test]
    fn weight_decay_respects_kind() {
        let mut w = OneParam(Param::new("w", Tensor::scalar(1.0), ParamKind::Weight));
        let mut b = OneParam(Param::new("b", Tensor::scalar(1.0), ParamKind::Bias));
        let mut opt = Sgd::new(0.0, 0.5);
        // Zero gradient: only decay moves weights.
        opt.step(&mut w, 0.1);
        opt.step(&mut b, 0.1);
        assert!((w.0.value.data()[0] - 0.95).abs() < 1e-6);
        assert_eq!(b.0.value.data()[0], 1.0);
    }
}
