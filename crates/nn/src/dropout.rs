//! Stochastic regularizers: inverted dropout and per-sample stochastic
//! depth ("drop connect" in the EfficientNet code).

use crate::layer::{Layer, Mode};
use crate::param::Param;
use ets_tensor::{Rng, Tensor};

/// Inverted dropout: in training, zeroes each element with probability
/// `rate` and scales survivors by `1/(1-rate)`; identity in eval.
#[derive(Clone)]
pub struct Dropout {
    rate: f32,
    cache_mask: Option<Tensor>,
}

impl Dropout {
    pub fn new(rate: f32) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0,1)");
        Dropout {
            rate,
            cache_mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, mode: Mode, rng: &mut Rng) -> Tensor {
        if mode == Mode::Eval || self.rate == 0.0 {
            self.cache_mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        let mut mask = Tensor::zeros(x.shape().dims());
        for m in mask.data_mut() {
            *m = if rng.coin(keep) { scale } else { 0.0 };
        }
        let y = x.zip(&mask, |v, m| v * m);
        self.cache_mask = Some(mask);
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        match self.cache_mask.take() {
            Some(mask) => grad.zip(&mask, |g, m| g * m),
            None => grad.clone(),
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> String {
        format!("dropout({})", self.rate)
    }

    fn cached_elems(&self) -> usize {
        self.cache_mask.as_ref().map_or(0, Tensor::numel)
    }
}

/// Stochastic depth: drops the *entire* residual branch per sample with
/// probability `rate`, scaling survivors by `1/(1-rate)`.
///
/// EfficientNet applies this to each MBConv block's output before the
/// identity add, with the rate growing linearly with block depth.
#[derive(Clone)]
pub struct DropPath {
    rate: f32,
    cache_mask: Option<Vec<f32>>,
}

impl DropPath {
    pub fn new(rate: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "drop path rate must be in [0,1)"
        );
        DropPath {
            rate,
            cache_mask: None,
        }
    }

    /// The drop rate.
    pub fn rate(&self) -> f32 {
        self.rate
    }
}

impl Layer for DropPath {
    fn forward(&mut self, x: &Tensor, mode: Mode, rng: &mut Rng) -> Tensor {
        if mode == Mode::Eval || self.rate == 0.0 {
            self.cache_mask = None;
            return x.clone();
        }
        let n = x.shape().dim(0);
        let per_img = x.numel() / n;
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        let mask: Vec<f32> = (0..n)
            .map(|_| if rng.coin(keep) { scale } else { 0.0 })
            .collect();
        let mut y = x.clone();
        for (i, chunk) in y.data_mut().chunks_mut(per_img).enumerate() {
            let m = mask[i];
            chunk.iter_mut().for_each(|v| *v *= m);
        }
        self.cache_mask = Some(mask);
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        match self.cache_mask.take() {
            Some(mask) => {
                let n = grad.shape().dim(0);
                let per_img = grad.numel() / n;
                let mut dx = grad.clone();
                for (i, chunk) in dx.data_mut().chunks_mut(per_img).enumerate() {
                    let m = mask[i];
                    chunk.iter_mut().for_each(|v| *v *= m);
                }
                dx
            }
            None => grad.clone(),
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> String {
        format!("drop_path({})", self.rate)
    }

    fn cached_elems(&self) -> usize {
        self.cache_mask.as_ref().map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropout_eval_is_identity() {
        let mut d = Dropout::new(0.5);
        let mut rng = Rng::new(0);
        let x = Tensor::ones([100]);
        let y = d.forward(&x, Mode::Eval, &mut rng);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut d = Dropout::new(0.3);
        let mut rng = Rng::new(1);
        let x = Tensor::ones([20_000]);
        let y = d.forward(&x, Mode::Train, &mut rng);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.03, "mean {mean}");
        // Survivors are scaled by 1/keep.
        let keep = 1.0 / 0.7;
        assert!(y
            .data()
            .iter()
            .all(|&v| v == 0.0 || (v - keep).abs() < 1e-6));
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5);
        let mut rng = Rng::new(2);
        let x = Tensor::ones([64]);
        let y = d.forward(&x, Mode::Train, &mut rng);
        let dx = d.backward(&Tensor::ones([64]));
        for (yv, dv) in y.data().iter().zip(dx.data()) {
            assert_eq!(yv, dv, "mask must match between passes");
        }
    }

    #[test]
    fn drop_path_is_per_sample() {
        let mut d = DropPath::new(0.5);
        let mut rng = Rng::new(3);
        let x = Tensor::ones([8, 2, 2, 2]);
        let y = d.forward(&x, Mode::Train, &mut rng);
        for img in y.data().chunks(8) {
            let first = img[0];
            assert!(img.iter().all(|&v| v == first), "whole image same fate");
            assert!(first == 0.0 || (first - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_rate_is_identity_even_in_train() {
        let mut d = DropPath::new(0.0);
        let mut rng = Rng::new(4);
        let x = Tensor::ones([4, 1, 2, 2]);
        let y = d.forward(&x, Mode::Train, &mut rng);
        assert_eq!(y.data(), x.data());
        let g = d.backward(&x);
        assert_eq!(g.data(), x.data());
    }
}
