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

use crate::optimizer::{Optimizer, OptimizerState, Slots};
use ets_nn::Layer;
use std::ops::Range;

/// LAMB optimizer.
pub struct Lamb {
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    /// `[m, v]`.
    moments: Slots<2>,
}

impl Lamb {
    pub fn new(beta1: f32, beta2: f32, eps: f32, weight_decay: f32) -> Self {
        Lamb {
            beta1,
            beta2,
            eps,
            weight_decay,
            t: 0,
            moments: Slots::new(),
        }
    }

    /// The configuration from You et al.: β₁ 0.9, β₂ 0.999, ε 1e-6.
    pub fn paper_default(weight_decay: f32) -> Self {
        Self::new(0.9, 0.999, 1e-6, weight_decay)
    }
}

/// `ets_tensor`'s `sum_sq` of `[u(0), …, u(n−1)]` without storing it:
/// the same eight partials (partial `j mod 8`, `j` ascending) folded in
/// the same tree, so the bits are `sum_sq`'s.
fn sum_sq_of(n: usize, u: impl Fn(usize) -> f32) -> f64 {
    let mut s = [0.0f64; 8];
    for j in 0..n {
        let d = u(j) as f64;
        s[j % 8] += d * d;
    }
    ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
}

impl Optimizer for Lamb {
    fn step_params(&mut self, model: &mut dyn Layer, lr: f32, params: Range<usize>) {
        self.t += 1;
        let t = self.t as i32;
        let (b1, b2, eps) = (self.beta1, self.beta2, self.eps);
        let bc1 = 1.0 - b1.powi(t);
        let bc2 = 1.0 - b2.powi(t);
        let wd = self.weight_decay;
        self.moments.walk(model, params, |p, [ms, vs]| {
            for ((m, v), &g) in ms.iter_mut().zip(vs.iter_mut()).zip(p.grad.data()) {
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
            }
            // Adam direction + decoupled decay, computed where it is read.
            let decay = if p.kind.decayed() { wd } else { 0.0 };
            let u = |m: f32, v: f32, w: f32| (m / bc1) / ((v / bc2).sqrt() + eps) + decay * w;
            let mut value = p.value.write();
            let ratio = if p.kind.lars_adapted() {
                let (wn, w) = (value.l2_norm(), value.data());
                let un = sum_sq_of(w.len(), |j| u(ms[j], vs[j], w[j])).sqrt() as f32;
                if wn > 0.0 && un > 0.0 {
                    wn / un
                } else {
                    1.0
                }
            } else {
                1.0
            };
            for ((&m, &v), w) in ms.iter().zip(vs.iter()).zip(value.data_mut()) {
                *w -= lr * ratio * u(m, v, *w);
            }
        });
    }

    fn name(&self) -> &'static str {
        "lamb"
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
    use ets_tensor::ops::reduce::sum_sq;
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
            let weights = layer.0.value.data().to_vec();
            weights
        };
        // ε in the denominator breaks *exact* invariance at tiny gradient
        // scales, so allow a small relative band.
        let a = run(1e-4);
        let b = run(1e4);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 2e-3 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn streamed_norm_has_the_bits_of_sum_sq() {
        let mut rng = Rng::new(7);
        for n in 0..=67 {
            let mut u = vec![0.0; n];
            rng.fill_uniform(&mut u, -3.0, 3.0);
            let bits = sum_sq_of(n, |j| u[j]).to_bits();
            assert_eq!(bits, sum_sq(&u).to_bits(), "length {n}");
        }
    }
}
