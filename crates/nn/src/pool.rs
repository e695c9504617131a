//! Pooling layers.

use crate::layer::{Layer, Mode};
use crate::param::Param;
use ets_tensor::ops::pool::{global_avg_pool, global_avg_pool_backward};
use ets_tensor::{Rng, Tensor};

/// Global average pooling: `NCHW -> NC`.
#[derive(Clone)]
pub struct GlobalAvgPool {
    cache_hw: Option<(usize, usize)>,
}

impl GlobalAvgPool {
    pub fn new() -> Self {
        GlobalAvgPool { cache_hw: None }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, _m: Mode, _r: &mut Rng) -> Tensor {
        self.cache_hw = Some((x.shape().h(), x.shape().w()));
        global_avg_pool(x)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (h, w) = self
            .cache_hw
            .take()
            .expect("GlobalAvgPool: forward before backward");
        global_avg_pool_backward(grad, h, w)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> String {
        "global_avg_pool".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_backward_shapes() {
        let mut gap = GlobalAvgPool::new();
        let mut rng = Rng::new(0);
        let x = Tensor::ones([2, 3, 4, 4]);
        let y = gap.forward(&x, Mode::Train, &mut rng);
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert!((y.data()[0] - 1.0).abs() < 1e-6);
        let dx = gap.backward(&Tensor::ones([2, 3]));
        assert_eq!(dx.shape().dims(), &[2, 3, 4, 4]);
        assert!((dx.data()[0] - 1.0 / 16.0).abs() < 1e-6);
    }
}
