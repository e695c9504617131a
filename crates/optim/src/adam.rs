//! Adam — the standard adaptive baseline, included so the optimizer
//! comparisons (LARS vs RMSProp vs SM3 vs LAMB) have the common reference
//! point reviewers expect. Decoupled weight decay (AdamW-style) on
//! decayed parameters.

use crate::optimizer::{bank_tensor, param_dims, tensor_bank, Optimizer, OptimizerState, StateVec};
use ets_nn::Layer;
use ets_tensor::Tensor;

/// Adam(W).
pub struct Adam {
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: StateVec<Tensor>,
    v: StateVec<Tensor>,
}

impl Adam {
    pub fn new(beta1: f32, beta2: f32, eps: f32, weight_decay: f32) -> Self {
        Adam {
            beta1,
            beta2,
            eps,
            weight_decay,
            t: 0,
            m: StateVec::new(),
            v: StateVec::new(),
        }
    }

    /// The ubiquitous defaults: β₁ 0.9, β₂ 0.999, ε 1e-8.
    pub fn default_config(weight_decay: f32) -> Self {
        Self::new(0.9, 0.999, 1e-8, weight_decay)
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut dyn Layer, lr: f32) {
        self.t += 1;
        let (b1, b2, eps, wd) = (self.beta1, self.beta2, self.eps, self.weight_decay);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut i = 0;
        model.visit_params(&mut |p| {
            let mstate = ms.get_or_init(i, || Tensor::zeros(p.value.shape().dims()));
            for (mv, &g) in mstate.data_mut().iter_mut().zip(p.grad.data()) {
                *mv = b1 * *mv + (1.0 - b1) * g;
            }
            let m_now = mstate.clone();
            let vstate = vs.get_or_init(i, || Tensor::zeros(p.value.shape().dims()));
            for (vv, &g) in vstate.data_mut().iter_mut().zip(p.grad.data()) {
                *vv = b2 * *vv + (1.0 - b2) * g * g;
            }
            let decay = if p.kind.decayed() { wd } else { 0.0 };
            let md = m_now.data();
            let vd = vstate.data();
            for (j, w) in p.value.data_mut().iter_mut().enumerate() {
                let mh = md[j] / bc1;
                let vh = vd[j] / bc2;
                *w -= lr * (mh / (vh.sqrt() + eps) + decay * *w);
            }
            i += 1;
        });
    }

    fn name(&self) -> &'static str {
        "adam"
    }

    /// Scalars: `[t]`. Banks: all `m[i]` slots, then all `v[i]` slots.
    fn export_state(&self) -> OptimizerState {
        let mut banks: Vec<Vec<u32>> = self.m.slots().iter().map(tensor_bank).collect();
        banks.extend(self.v.slots().iter().map(tensor_bank));
        OptimizerState {
            scalars: vec![self.t],
            banks,
        }
    }

    fn import_state(&mut self, state: &OptimizerState, model: &mut dyn Layer) {
        self.t = state.scalars.first().copied().unwrap_or(0);
        let dims = param_dims(model);
        let k = state.banks.len() / 2;
        self.m.set_slots(
            state.banks[..k]
                .iter()
                .zip(&dims)
                .map(|(b, d)| bank_tensor(b, d))
                .collect(),
        );
        self.v.set_slots(
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
