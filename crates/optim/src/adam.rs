//! Adam — the standard adaptive baseline, included so the optimizer
//! comparisons (LARS vs RMSProp vs SM3 vs LAMB) have the common reference
//! point reviewers expect. Decoupled weight decay (AdamW-style) on
//! decayed parameters.

use crate::optimizer::{Optimizer, OptimizerState, Slots};
use ets_nn::Layer;
use std::ops::Range;

/// Adam(W).
pub struct Adam {
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    /// `[m, v]`.
    moments: Slots<2>,
}

impl Adam {
    pub fn new(beta1: f32, beta2: f32, eps: f32, weight_decay: f32) -> Self {
        Adam {
            beta1,
            beta2,
            eps,
            weight_decay,
            t: 0,
            moments: Slots::new(),
        }
    }

    /// The ubiquitous defaults: β₁ 0.9, β₂ 0.999, ε 1e-8.
    pub fn default_config(weight_decay: f32) -> Self {
        Self::new(0.9, 0.999, 1e-8, weight_decay)
    }
}

impl Optimizer for Adam {
    fn step_params(&mut self, model: &mut dyn Layer, lr: f32, params: Range<usize>) {
        self.t += 1;
        let (b1, b2, eps, wd) = (self.beta1, self.beta2, self.eps, self.weight_decay);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        self.moments.walk(model, params, |p, [ms, vs]| {
            let decay = if p.kind.decayed() { wd } else { 0.0 };
            let mut value = p.value.write();
            for (((m, v), &g), w) in ms
                .iter_mut()
                .zip(vs)
                .zip(p.grad.data())
                .zip(value.data_mut())
            {
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let (mh, vh) = (*m / bc1, *v / bc2);
                *w -= lr * (mh / (vh.sqrt() + eps) + decay * *w);
            }
        });
    }

    fn name(&self) -> &'static str {
        "adam"
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(usize, &mut [f32])) {
        self.moments.visit(f);
    }

    /// Scalars: `[t]`. Slots: `m`, then `v`.
    fn export_state_params(&self, params: Range<usize>) -> OptimizerState {
        self.moments.export(vec![self.t], params)
    }

    fn import_state_params(
        &mut self,
        state: &OptimizerState,
        model: &mut dyn Layer,
        params: Range<usize>,
    ) {
        self.t = state.scalars.first().copied().unwrap_or(0);
        self.moments.import(state, model, params);
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
        let mut layer = OneParam(Param::new("w", Tensor::scalar(2.0), ParamKind::Bias));
        let mut opt = Adam::default_config(0.0);
        for _ in 0..500 {
            let w = layer.0.value.data()[0];
            layer.0.zero_grad();
            layer.0.grad.data_mut()[0] = w;
            opt.step(&mut layer, 0.05);
        }
        assert!(layer.0.value.data()[0].abs() < 0.05);
    }

    #[test]
    fn first_step_size_is_lr() {
        // With bias correction, the very first Adam step is ≈ lr·sign(g).
        let mut layer = OneParam(Param::new("w", Tensor::scalar(0.0), ParamKind::Bias));
        let mut opt = Adam::default_config(0.0);
        layer.0.grad.data_mut()[0] = 0.3;
        opt.step(&mut layer, 0.1);
        assert!((layer.0.value.data()[0] + 0.1).abs() < 1e-4);
    }

    #[test]
    fn decoupled_decay_skips_bias() {
        let mut w = OneParam(Param::new("w", Tensor::scalar(1.0), ParamKind::Weight));
        let mut b = OneParam(Param::new("b", Tensor::scalar(1.0), ParamKind::Bias));
        let mut ow = Adam::default_config(0.5);
        let mut ob = Adam::default_config(0.5);
        ow.step(&mut w, 0.1);
        ob.step(&mut b, 0.1);
        assert!(w.0.value.data()[0] < 1.0);
        assert_eq!(b.0.value.data()[0], 1.0);
    }
}
