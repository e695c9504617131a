//! SGD with momentum and (coupled) L2 weight decay.

use crate::optimizer::{bank_tensor, param_dims, tensor_bank, Optimizer, OptimizerState, StateVec};
use ets_nn::Layer;
use ets_tensor::Tensor;

/// Momentum SGD: `v ← m·v + (g + wd·w)`, `w ← w − lr·v`.
pub struct Sgd {
    momentum: f32,
    weight_decay: f32,
    velocity: StateVec<Tensor>,
}

impl Sgd {
    pub fn new(momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            momentum,
            weight_decay,
            velocity: StateVec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Layer, lr: f32) {
        let mut i = 0;
        let (m, wd) = (self.momentum, self.weight_decay);
        let vel = &mut self.velocity;
        model.visit_params(&mut |p| {
            let v = vel.get_or_init(i, || Tensor::zeros(p.value.shape().dims()));
            let decay = if p.kind.decayed() { wd } else { 0.0 };
            for ((vv, &g), w) in v
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(p.value.data_mut())
            {
                *vv = m * *vv + g + decay * *w;
                *w -= lr * *vv;
            }
            i += 1;
        });
    }

    fn name(&self) -> &'static str {
        "sgd"
    }

    /// Banks: `velocity[i]` per parameter, in `visit_params` order.
    fn export_state(&self) -> OptimizerState {
        OptimizerState {
            scalars: Vec::new(),
            banks: self.velocity.slots().iter().map(tensor_bank).collect(),
        }
    }

    fn import_state(&mut self, state: &OptimizerState, model: &mut dyn Layer) {
        let dims = param_dims(model);
        self.velocity.set_slots(
            state
                .banks
                .iter()
                .zip(&dims)
                .map(|(b, d)| bank_tensor(b, d))
                .collect(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_nn::{Mode, Param, ParamKind};
    use ets_tensor::Rng;

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
            layer.0.value.data()[0]
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
