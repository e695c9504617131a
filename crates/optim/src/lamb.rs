//! LAMB — layer-wise adaptation on top of Adam (You et al. 2019).
//!
//! Included as a comparison optimizer: LAMB is LARS's successor used for
//! BERT-in-76-minutes (the paper's reference \[21\]). Update:
//!
//! ```text
//! m ← β₁·m + (1−β₁)·g         v ← β₂·v + (1−β₂)·g²
//! m̂ = m/(1−β₁ᵗ)               v̂ = v/(1−β₂ᵗ)
//! u = m̂/(√v̂ + ε) + wd·w
//! w ← w − lr · (‖w‖/‖u‖) · u   (trust ratio 1 when either norm is 0)
//! ```

use crate::optimizer::{bank_tensor, param_dims, tensor_bank, Optimizer, OptimizerState, StateVec};
use ets_nn::Layer;
use ets_tensor::ops::reduce::sum_sq;
use ets_tensor::Tensor;

/// LAMB optimizer.
pub struct Lamb {
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: StateVec<Tensor>,
    v: StateVec<Tensor>,
}

impl Lamb {
    pub fn new(beta1: f32, beta2: f32, eps: f32, weight_decay: f32) -> Self {
        Lamb {
            beta1,
            beta2,
            eps,
            weight_decay,
            t: 0,
            m: StateVec::new(),
            v: StateVec::new(),
        }
    }

    /// The configuration from You et al.: β₁ 0.9, β₂ 0.999, ε 1e-6.
    pub fn paper_default(weight_decay: f32) -> Self {
        Self::new(0.9, 0.999, 1e-6, weight_decay)
    }
}

impl Optimizer for Lamb {
    fn step(&mut self, model: &mut dyn Layer, lr: f32) {
        self.t += 1;
        let t = self.t as i32;
        let (b1, b2, eps) = (self.beta1, self.beta2, self.eps);
        let bc1 = 1.0 - b1.powi(t);
        let bc2 = 1.0 - b2.powi(t);
        let wd = self.weight_decay;
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut i = 0;
        model.visit_params(&mut |p| {
            let n = p.value.numel();
            let mstate = ms.get_or_init(i, || Tensor::zeros(p.value.shape().dims()));
            // Moment updates.
            for (mv, &g) in mstate.data_mut().iter_mut().zip(p.grad.data()) {
                *mv = b1 * *mv + (1.0 - b1) * g;
            }
            let m_now = mstate.clone();
            let vstate = vs.get_or_init(i, || Tensor::zeros(p.value.shape().dims()));
            for (vv, &g) in vstate.data_mut().iter_mut().zip(p.grad.data()) {
                *vv = b2 * *vv + (1.0 - b2) * g * g;
            }
            // Adam direction + decoupled decay.
            let decay = if p.kind.decayed() { wd } else { 0.0 };
            let mut u = vec![0.0f32; n];
            for (j, uj) in u.iter_mut().enumerate() {
                let mh = m_now.data()[j] / bc1;
                let vh = vstate.data()[j] / bc2;
                *uj = mh / (vh.sqrt() + eps) + decay * p.value.data()[j];
            }
            let ratio = if p.kind.lars_adapted() {
                let wn = p.value.l2_norm();
                let un = sum_sq(&u).sqrt() as f32;
                if wn > 0.0 && un > 0.0 {
                    wn / un
                } else {
                    1.0
                }
            } else {
                1.0
            };
            for (w, &uv) in p.value.data_mut().iter_mut().zip(&u) {
                *w -= lr * ratio * uv;
            }
            i += 1;
        });
    }

    fn name(&self) -> &'static str {
        "lamb"
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
        let mut layer = OneParam(Param::new("w", Tensor::scalar(3.0), ParamKind::Weight));
        let mut opt = Lamb::paper_default(0.0);
        for _ in 0..400 {
            let w = layer.0.value.data()[0];
            layer.0.zero_grad();
            layer.0.grad.data_mut()[0] = w;
            opt.step(&mut layer, 0.05);
        }
        assert!(
            layer.0.value.data()[0].abs() < 0.3,
            "w = {}",
            layer.0.value.data()[0]
        );
    }

    #[test]
    fn gradient_scale_invariance_like_lars() {
        let run = |s: f32| {
            let mut layer = OneParam(Param::new(
                "w",
                Tensor::from_vec([2], vec![3.0, 4.0]),
                ParamKind::Weight,
            ));
            layer.0.grad.data_mut().copy_from_slice(&[s, 2.0 * s]);
            let mut opt = Lamb::paper_default(0.0);
            opt.step(&mut layer, 0.1);
            layer.0.value.data().to_vec()
        };
        // ε in the denominator breaks *exact* invariance at tiny gradient
        // scales, so allow a small relative band.
        let a = run(1e-4);
        let b = run(1e4);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 2e-3 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }
}
