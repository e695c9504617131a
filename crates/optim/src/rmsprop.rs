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

use crate::optimizer::{bank_tensor, param_dims, tensor_bank, Optimizer, OptimizerState, StateVec};
use ets_nn::Layer;
use ets_tensor::Tensor;

/// TF-style RMSProp.
pub struct RmsProp {
    rho: f32,
    momentum: f32,
    eps: f32,
    weight_decay: f32,
    ms: StateVec<Tensor>,
    mom: StateVec<Tensor>,
}

impl RmsProp {
    pub fn new(rho: f32, momentum: f32, eps: f32, weight_decay: f32) -> Self {
        RmsProp {
            rho,
            momentum,
            eps,
            weight_decay,
            ms: StateVec::new(),
            mom: StateVec::new(),
        }
    }

    /// The EfficientNet reference configuration.
    pub fn efficientnet_default() -> Self {
        Self::new(0.9, 0.9, 1e-3, 1e-5)
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, model: &mut dyn Layer, lr: f32) {
        let mut i = 0;
        let (rho, m, eps, wd) = (self.rho, self.momentum, self.eps, self.weight_decay);
        let (ms_all, mom_all) = (&mut self.ms, &mut self.mom);
        model.visit_params(&mut |p| {
            let ms = ms_all.get_or_init(i, || Tensor::zeros(p.value.shape().dims()));
            let decay = if p.kind.decayed() { wd } else { 0.0 };
            // First pass: second-moment estimate.
            for ((msv, &graw), &w) in ms
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(p.value.data())
            {
                let g = graw + decay * w;
                *msv = rho * *msv + (1.0 - rho) * g * g;
            }
            let ms_now = ms.clone();
            let mom = mom_all.get_or_init(i, || Tensor::zeros(p.value.shape().dims()));
            let momd = mom.data_mut();
            let grads = p.grad.data();
            let msd = ms_now.data();
            let vals = p.value.data_mut();
            for j in 0..vals.len() {
                let g = grads[j] + decay * vals[j];
                momd[j] = m * momd[j] + lr * g / (msd[j] + eps).sqrt();
                vals[j] -= momd[j];
            }
            i += 1;
        });
    }

    fn name(&self) -> &'static str {
        "rmsprop"
    }

    /// Banks: all `ms[i]` slots first, then all `mom[i]` slots.
    fn export_state(&self) -> OptimizerState {
        let mut banks: Vec<Vec<u32>> = self.ms.slots().iter().map(tensor_bank).collect();
        banks.extend(self.mom.slots().iter().map(tensor_bank));
        OptimizerState {
            scalars: Vec::new(),
            banks,
        }
    }

    fn import_state(&mut self, state: &OptimizerState, model: &mut dyn Layer) {
        let dims = param_dims(model);
        let k = state.banks.len() / 2;
        debug_assert_eq!(state.banks.len(), 2 * k, "ms/mom banks must pair up");
        self.ms.set_slots(
            state.banks[..k]
                .iter()
                .zip(&dims)
                .map(|(b, d)| bank_tensor(b, d))
                .collect(),
        );
        self.mom.set_slots(
            state.banks[k..]
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
