//! Activation layers: swish/SiLU (EfficientNet's default), ReLU, sigmoid.

use crate::layer::{Layer, Mode};
use crate::param::Param;
use ets_tensor::ops::act::{sigmoid_forward, swish_backward, swish_forward};
use ets_tensor::{Rng, Tensor};

/// Swish / SiLU: `y = x · σ(x)`. After a batch norm, prefer
/// [`crate::BatchNorm2d::with_swish`], which computes the same bits
/// without this layer's input cache.
#[derive(Clone)]
pub struct Swish {
    cache_x: Option<Tensor>,
}

impl Swish {
    pub fn new() -> Self {
        Swish { cache_x: None }
    }
}

impl Default for Swish {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Swish {
    fn forward(&mut self, x: &Tensor, _m: Mode, _r: &mut Rng) -> Tensor {
        let mut y = Tensor::zeros(x.shape().clone());
        swish_forward(x.data(), y.data_mut());
        self.cache_x = Some(x.clone());
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("Swish: forward before backward");
        assert!(
            x.shape().same_as(grad.shape()),
            "Swish: gradient shape {} vs input {}",
            grad.shape(),
            x.shape()
        );
        let mut dx = Tensor::zeros(x.shape().clone());
        swish_backward(x.data(), grad.data(), dx.data_mut());
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> String {
        "swish".into()
    }

    fn cached_elems(&self) -> usize {
        self.cache_x.as_ref().map_or(0, Tensor::numel)
    }
}

/// ReLU: `y = max(x, 0)`.
pub struct Relu {
    cache_mask: Option<Tensor>,
}

impl Relu {
    pub fn new() -> Self {
        Relu { cache_mask: None }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, _m: Mode, _r: &mut Rng) -> Tensor {
        self.cache_mask = Some(x.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let m = self
            .cache_mask
            .take()
            .expect("Relu: forward before backward");
        grad.zip(&m, |g, mask| g * mask)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> String {
        "relu".into()
    }

    fn cached_elems(&self) -> usize {
        self.cache_mask.as_ref().map_or(0, Tensor::numel)
    }
}

/// Sigmoid: `y = σ(x)`.
#[derive(Clone)]
pub struct Sigmoid {
    cache_y: Option<Tensor>,
}

impl Sigmoid {
    pub fn new() -> Self {
        Sigmoid { cache_y: None }
    }
}

impl Default for Sigmoid {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, x: &Tensor, _m: Mode, _r: &mut Rng) -> Tensor {
        let mut y = Tensor::zeros(x.shape().clone());
        sigmoid_forward(x.data(), y.data_mut());
        self.cache_y = Some(y.clone());
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let y = self
            .cache_y
            .take()
            .expect("Sigmoid: forward before backward");
        grad.zip(&y, |g, yv| g * yv * (1.0 - yv))
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> String {
        "sigmoid".into()
    }

    fn cached_elems(&self) -> usize {
        self.cache_y.as_ref().map_or(0, Tensor::numel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;

    fn fd_check(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        let mut rng = Rng::new(0);
        let y = layer.forward(x, Mode::Train, &mut rng);
        let mut g = Tensor::zeros(y.shape().dims());
        let mut grng = Rng::new(1);
        grng.fill_uniform(g.data_mut(), -1.0, 1.0);
        let dx = layer.backward(&g);
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = layer.forward(&xp, Mode::Train, &mut rng);
            let _ = layer.backward(&g); // clear cache
            let ym = layer.forward(&xm, Mode::Train, &mut rng);
            let _ = layer.backward(&g);
            let num: f32 = yp
                .data()
                .iter()
                .zip(ym.data())
                .zip(g.data())
                .map(|((&a, &b), &gv)| (a - b) / (2.0 * eps) * gv)
                .sum();
            assert!(
                (num - dx.data()[i]).abs() < tol * (1.0 + num.abs()),
                "idx {i}: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn swish_values() {
        let mut s = Swish::new();
        let mut rng = Rng::new(0);
        let x = Tensor::from_vec([3], vec![0.0, 10.0, -10.0]);
        let y = s.forward(&x, Mode::Train, &mut rng);
        assert!(y.data()[0].abs() < 1e-6);
        assert!((y.data()[1] - 10.0).abs() < 1e-3); // ≈ identity for large x
        assert!(y.data()[2].abs() < 1e-3); // ≈ 0 for very negative x
    }

    #[test]
    fn swish_gradient() {
        let x = Tensor::from_vec([5], vec![-2.0, -0.5, 0.0, 0.7, 2.0]);
        fd_check(&mut Swish::new(), &x, 1e-2);
    }

    #[test]
    fn relu_gradient_and_mask() {
        let x = Tensor::from_vec([4], vec![-1.0, 0.5, 2.0, -0.1]);
        let mut r = Relu::new();
        let mut rng = Rng::new(0);
        let y = r.forward(&x, Mode::Train, &mut rng);
        assert_eq!(y.data(), &[0.0, 0.5, 2.0, 0.0]);
        let dx = r.backward(&Tensor::ones([4]));
        assert_eq!(dx.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn sigmoid_gradient() {
        let x = Tensor::from_vec([4], vec![-3.0, -0.2, 0.9, 3.0]);
        fd_check(&mut Sigmoid::new(), &x, 1e-2);
    }

    #[test]
    fn sigmoid_range() {
        let mut s = Sigmoid::new();
        let mut rng = Rng::new(0);
        let x = Tensor::from_vec([2], vec![-100.0, 100.0]);
        let y = s.forward(&x, Mode::Train, &mut rng);
        assert!(y.data()[0] >= 0.0 && y.data()[0] < 1e-6);
        assert!(y.data()[1] <= 1.0 && y.data()[1] > 1.0 - 1e-6);
    }
}
