//! Gradient utilities: global norms and clipping.

use ets_nn::Layer;
use ets_tensor::ops::reduce::sum_sq;

/// Global L2 norm over all parameter gradients.
pub fn global_grad_norm(model: &mut dyn Layer) -> f32 {
    let mut acc = 0.0f64;
    model.visit_params(&mut |p| acc += sum_sq(p.grad.data()));
    acc.sqrt() as f32
}

/// Clips gradients so the global norm is at most `max_norm`; returns the
/// pre-clip norm.
pub fn clip_global_norm(model: &mut dyn Layer, max_norm: f32) -> f32 {
    let norm = global_grad_norm(model);
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        model.visit_params(&mut |p| p.grad.scale(scale));
    }
    norm
}

/// Scales all gradients by `s` (e.g. 1/replica-count after a summing
/// all-reduce).
pub fn scale_grads(model: &mut dyn Layer, s: f32) {
    model.visit_params(&mut |p| p.grad.scale(s));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_nn::{Mode, Param, ParamKind};
    use ets_tensor::{Rng, Tensor};

    struct Two(Param, Param);
    impl Layer for Two {
        fn forward(&mut self, x: &Tensor, _m: Mode, _r: &mut Rng) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, g: &Tensor) -> Tensor {
            g.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.0);
            f(&mut self.1);
        }
    }

    fn model_with_grads(g1: f32, g2: f32) -> Two {
        let mut a = Param::new("a", Tensor::scalar(0.0), ParamKind::Weight);
        let mut b = Param::new("b", Tensor::scalar(0.0), ParamKind::Weight);
        a.grad.data_mut()[0] = g1;
        b.grad.data_mut()[0] = g2;
        Two(a, b)
    }

    #[test]
    fn norm_is_euclidean_across_params() {
        let mut m = model_with_grads(3.0, 4.0);
        assert!((global_grad_norm(&mut m) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn clip_rescales_only_when_needed() {
        let mut m = model_with_grads(3.0, 4.0);
        let pre = clip_global_norm(&mut m, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((global_grad_norm(&mut m) - 1.0).abs() < 1e-5);

        let mut m2 = model_with_grads(0.3, 0.4);
        clip_global_norm(&mut m2, 1.0);
        assert!(
            (m2.0.grad.data()[0] - 0.3).abs() < 1e-7,
            "under-norm untouched"
        );
    }

    #[test]
    fn scaling_averages() {
        let mut m = model_with_grads(8.0, -4.0);
        scale_grads(&mut m, 0.25);
        assert_eq!(m.0.grad.data()[0], 2.0);
        assert_eq!(m.1.grad.data()[0], -1.0);
    }
}
