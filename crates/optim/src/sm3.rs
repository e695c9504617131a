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

use crate::optimizer::{bank_slice, param_dims, slice_bank, Optimizer, OptimizerState, StateVec};
use ets_nn::Layer;

/// Per-parameter SM3 state: one accumulator vector per axis.
struct Sm3State {
    axes: Vec<Vec<f32>>,
    dims: Vec<usize>,
    strides: Vec<usize>,
}

impl Sm3State {
    fn new(dims: &[usize]) -> Self {
        // Scalars get a single 1-length axis so the cover is well-defined.
        let dims: Vec<usize> = if dims.is_empty() {
            vec![1]
        } else {
            dims.to_vec()
        };
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        Sm3State {
            axes: dims.iter().map(|&d| vec![0.0f32; d]).collect(),
            dims,
            strides,
        }
    }
}

/// The SM3-II variant (update rule above), with optional momentum.
pub struct Sm3 {
    momentum: f32,
    weight_decay: f32,
    eps: f32,
    state: StateVec<Sm3State>,
    velocity: StateVec<Vec<f32>>,
}

impl Sm3 {
    pub fn new(momentum: f32, weight_decay: f32) -> Self {
        Sm3 {
            momentum,
            weight_decay,
            eps: 1e-12,
            state: StateVec::new(),
            velocity: StateVec::new(),
        }
    }
}

impl Optimizer for Sm3 {
    fn step(&mut self, model: &mut dyn Layer, lr: f32) {
        let mut i = 0;
        let (m, wd, eps) = (self.momentum, self.weight_decay, self.eps);
        let states = &mut self.state;
        let vels = &mut self.velocity;
        model.visit_params(&mut |p| {
            let st = states.get_or_init(i, || Sm3State::new(p.value.shape().dims()));
            let n = p.value.numel();
            let v = vels.get_or_init(i, || vec![0.0f32; n]);
            let decay = if p.kind.decayed() { wd } else { 0.0 };
            let grads = p.grad.data();
            let vals = p.value.data_mut();
            let rank = st.dims.len();
            let mut idx = vec![0usize; rank];
            for j in 0..n {
                // Decompose flat index → per-axis indices.
                let mut rem = j;
                for (slot, &stride) in idx.iter_mut().zip(&st.strides) {
                    *slot = rem / stride;
                    rem %= stride;
                }
                let g = grads[j] + decay * vals[j];
                let mut nu = f32::INFINITY;
                for (axis, &i) in st.axes.iter().zip(&idx) {
                    nu = nu.min(axis[i]);
                }
                nu += g * g;
                for (axis, &i) in st.axes.iter_mut().zip(&idx) {
                    let slot = &mut axis[i];
                    *slot = slot.max(nu);
                }
                let upd = lr * g / (nu.sqrt() + eps);
                v[j] = m * v[j] + upd;
                vals[j] -= v[j];
            }
            i += 1;
        });
    }

    fn name(&self) -> &'static str {
        "sm3"
    }

    /// Banks, per parameter `i` in order: bank `2i` holds the per-axis
    /// cover accumulators concatenated axis-by-axis (lengths derivable
    /// from the parameter's shape), bank `2i+1` the momentum velocity.
    fn export_state(&self) -> OptimizerState {
        let mut banks = Vec::with_capacity(2 * self.state.slots().len());
        for (st, vel) in self.state.slots().iter().zip(self.velocity.slots()) {
            let mut axes_flat = Vec::new();
            for axis in &st.axes {
                axes_flat.extend_from_slice(axis);
            }
            banks.push(slice_bank(&axes_flat));
            banks.push(slice_bank(vel));
        }
        OptimizerState {
            scalars: Vec::new(),
            banks,
        }
    }

    fn import_state(&mut self, state: &OptimizerState, model: &mut dyn Layer) {
        let dims = param_dims(model);
        let mut states = Vec::new();
        let mut vels = Vec::new();
        for (i, pair) in state.banks.chunks(2).enumerate() {
            let mut st = Sm3State::new(&dims[i]);
            let axes_flat = bank_slice(&pair[0]);
            let mut off = 0;
            for axis in &mut st.axes {
                let len = axis.len();
                axis.copy_from_slice(&axes_flat[off..off + len]);
                off += len;
            }
            states.push(st);
            vels.push(bank_slice(&pair[1]));
        }
        self.state.set_slots(states);
        self.velocity.set_slots(vels);
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
        let st = Sm3State::new(&[8, 16, 3, 3]);
        let total: usize = st.axes.iter().map(|a| a.len()).sum();
        assert_eq!(total, 8 + 16 + 3 + 3);
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
