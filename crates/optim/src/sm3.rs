//! SM3 — memory-efficient adaptive optimization (Anil et al. 2019).
//!
//! The paper's §5 names SM3 as the next large-batch optimizer to study for
//! EfficientNet; we implement it as the promised extension. Instead of a
//! full second-moment tensor (AdaGrad), SM3 keeps one accumulator *per
//! index along each axis* — O(Σ dims) memory instead of O(Π dims):
//!
//! ```text
//! ν_j   = min_i a_i[j_i]            (cover minimum for coordinate j)
//! ν_j  += g_j²
//! w_j  −= lr · g_j / √ν_j
//! a_i[j_i] = max(a_i[j_i], ν_j)     (push the new value back to covers)
//! ```

use crate::optimizer::{Optimizer, OptimizerState, Slots};
use ets_nn::Layer;
use std::ops::Range;

/// The SM3-II variant (update rule above), with optional momentum.
pub struct Sm3 {
    momentum: f32,
    weight_decay: f32,
    eps: f32,
    /// `[covers, velocity]`: a parameter's covers are its per-axis
    /// accumulators concatenated axis by axis (Σ dims long), its velocity
    /// is parameter-sized.
    slots: Slots<2>,
}

/// A parameter's shape as SM3 covers it: a scalar gets a single 1-length
/// axis so the cover is well-defined.
fn axes(dims: &[usize]) -> &[usize] {
    if dims.is_empty() {
        &[1]
    } else {
        dims
    }
}

impl Sm3 {
    pub fn new(momentum: f32, weight_decay: f32) -> Self {
        Sm3 {
            momentum,
            weight_decay,
            eps: 1e-12,
            slots: Slots::with_lens(|dims| [axes(dims).iter().sum(), dims.iter().product()]),
        }
    }
}

impl Optimizer for Sm3 {
    fn step_params(&mut self, model: &mut dyn Layer, lr: f32, params: Range<usize>) {
        let (m, wd, eps) = (self.momentum, self.weight_decay, self.eps);
        self.slots.walk(model, params, |p, [covers, v]| {
            let dims = axes(p.value.shape().dims());
            // Stride of each axis, and where its accumulators start.
            let (mut strides, mut starts) = (vec![1; dims.len()], vec![0; dims.len()]);
            for a in (1..dims.len()).rev() {
                strides[a - 1] = strides[a] * dims[a];
            }
            for a in 1..dims.len() {
                starts[a] = starts[a - 1] + dims[a - 1];
            }
            let mut idx = vec![0; dims.len()];
            let decay = if p.kind.decayed() { wd } else { 0.0 };
            let grads = p.grad.data();
            let vals = p.value.data_mut();
            for j in 0..vals.len() {
                // Flat index → the cover accumulator of each axis.
                let mut rem = j;
                for ((c, &stride), &start) in idx.iter_mut().zip(&strides).zip(&starts) {
                    *c = start + rem / stride;
                    rem %= stride;
                }
                let g = grads[j] + decay * vals[j];
                let mut nu = f32::INFINITY;
                for &c in &idx {
                    nu = nu.min(covers[c]);
                }
                nu += g * g;
                for &c in &idx {
                    covers[c] = covers[c].max(nu);
                }
                let upd = lr * g / (nu.sqrt() + eps);
                v[j] = m * v[j] + upd;
                vals[j] -= v[j];
            }
        });
    }

    fn name(&self) -> &'static str {
        "sm3"
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(usize, &mut [f32])) {
        self.slots.visit(f);
    }

    /// Slots: `covers`, then `velocity`.
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
        let mut layer = OneParam(Param::new("w", Tensor::scalar(4.0), ParamKind::Bias));
        let mut opt = Sm3::new(0.0, 0.0);
        for _ in 0..200 {
            let w = layer.0.value.data()[0];
            layer.0.zero_grad();
            layer.0.grad.data_mut()[0] = w;
            opt.step(&mut layer, 0.3);
        }
        assert!(layer.0.value.data()[0].abs() < 0.1);
    }

    #[test]
    fn memory_is_sum_of_dims() {
        let mut layer = OneParam(Param::new(
            "w",
            Tensor::zeros([8, 16, 3, 3]),
            ParamKind::Weight,
        ));
        let mut opt = Sm3::new(0.0, 0.0);
        opt.step(&mut layer, 0.1);
        let covers = &opt.export_state().banks[0];
        assert_eq!(covers.len(), 8 + 16 + 3 + 3);
    }

    #[test]
    fn cover_min_bounds_full_adagrad() {
        // For a matrix with a single hot row, SM3's ν must upper-bound the
        // true per-coordinate accumulator (axes take maxima), so steps are
        // no larger than AdaGrad's.
        let mut layer = OneParam(Param::new("w", Tensor::zeros([2, 2]), ParamKind::Bias));
        let mut opt = Sm3::new(0.0, 0.0);
        // Gradient concentrated on coordinate (0,0).
        for _ in 0..10 {
            layer.0.zero_grad();
            layer.0.grad.data_mut()[0] = 1.0;
            opt.step(&mut layer, 0.1);
        }
        // AdaGrad step sum for g=1 repeated: Σ 1/√t = harmonic-ish;
        // coordinate moved but stayed finite.
        let w00 = layer.0.value.data()[0];
        assert!(w00 < 0.0 && w00 > -2.0, "w00 {w00}");
        // Untouched coordinate unmoved.
        assert_eq!(layer.0.value.data()[3], 0.0);
    }

    #[test]
    fn scalar_params_work() {
        let mut layer = OneParam(Param::new("s", Tensor::scalar(1.0), ParamKind::Bias));
        let mut opt = Sm3::new(0.9, 0.0);
        layer.0.grad.data_mut()[0] = 2.0;
        opt.step(&mut layer, 0.1);
        assert!(layer.0.value.data()[0] < 1.0);
    }
}
