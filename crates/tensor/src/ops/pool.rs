//! Pooling kernels: global average pooling (EfficientNet's head and its
//! squeeze-and-excite blocks both reduce over the full spatial extent).

use crate::tensor::Tensor;

/// Global average pool: `NCHW -> NC` (spatial mean per channel).
pub fn global_avg_pool(x: &Tensor) -> Tensor {
    let (n, c, h, w) = (x.shape().n(), x.shape().c(), x.shape().h(), x.shape().w());
    let plane = h * w;
    let mut y = Tensor::zeros([n, c]);
    let xs = x.data();
    y.data_mut().iter_mut().enumerate().for_each(|(i, out)| {
        let src = &xs[i * plane..(i + 1) * plane];
        let sum: f64 = src.iter().map(|&v| v as f64).sum();
        *out = (sum / plane as f64) as f32;
    });
    y
}

/// Gradient of [`global_avg_pool`]: spreads `dy (N×C)` uniformly over the
/// spatial plane of each channel.
pub fn global_avg_pool_backward(dy: &Tensor, h: usize, w: usize) -> Tensor {
    assert_eq!(dy.shape().rank(), 2, "dy must be N×C");
    let (n, c) = (dy.shape().dim(0), dy.shape().dim(1));
    let plane = h * w;
    let scale = 1.0 / plane as f32;
    let mut dx = Tensor::zeros([n, c, h, w]);
    let dys = dy.data();
    dx.data_mut()
        .chunks_mut(plane)
        .enumerate()
        .for_each(|(i, dst)| {
            let g = dys[i] * scale;
            dst.iter_mut().for_each(|v| *v = g);
        });
    dx
}

/// Broadcast-multiplies an `NCHW` tensor by per-(image,channel) scalars
/// (`NC`). Used by squeeze-and-excite's channel gating.
pub fn scale_channels(x: &Tensor, s: &Tensor) -> Tensor {
    let (n, c, h, w) = (x.shape().n(), x.shape().c(), x.shape().h(), x.shape().w());
    assert_eq!(s.shape().dims(), &[n, c], "scale must be N×C");
    let plane = h * w;
    let mut y = x.clone();
    let ss = s.data();
    y.data_mut()
        .chunks_mut(plane)
        .enumerate()
        .for_each(|(i, dst)| {
            let f = ss[i];
            dst.iter_mut().for_each(|v| *v *= f);
        });
    y
}

/// Per-(image,channel) inner product of two `NCHW` tensors over the spatial
/// plane: returns `NC`. This is the gradient of [`scale_channels`] w.r.t.
/// the scalars.
pub fn channel_dot(a: &Tensor, b: &Tensor) -> Tensor {
    assert!(a.shape().same_as(b.shape()), "channel_dot shape mismatch");
    let (n, c, h, w) = (a.shape().n(), a.shape().c(), a.shape().h(), a.shape().w());
    let plane = h * w;
    let mut y = Tensor::zeros([n, c]);
    let as_ = a.data();
    let bs = b.data();
    y.data_mut().iter_mut().enumerate().for_each(|(i, out)| {
        let ap = &as_[i * plane..(i + 1) * plane];
        let bp = &bs[i * plane..(i + 1) * plane];
        let sum: f64 = ap.iter().zip(bp).map(|(&x, &y)| x as f64 * y as f64).sum();
        *out = sum as f32;
    });
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn gap_means() {
        let mut x = Tensor::zeros([1, 2, 2, 2]);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            *v = i as f32;
        }
        let y = global_avg_pool(&x);
        assert_eq!(y.data(), &[1.5, 5.5]);
    }

    #[test]
    fn gap_backward_uniform() {
        let dy = Tensor::from_vec([1, 2], vec![4.0, 8.0]);
        let dx = global_avg_pool_backward(&dy, 2, 2);
        assert_eq!(dx.data()[..4], [1.0, 1.0, 1.0, 1.0]);
        assert_eq!(dx.data()[4..], [2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn gap_adjoint_property() {
        let mut rng = Rng::new(1);
        let mut x = Tensor::zeros([2, 3, 4, 4]);
        rng.fill_uniform(x.data_mut(), -1.0, 1.0);
        let mut g = Tensor::zeros([2, 3]);
        rng.fill_uniform(g.data_mut(), -1.0, 1.0);
        let y = global_avg_pool(&x);
        let lhs: f64 = y
            .data()
            .iter()
            .zip(g.data())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let dx = global_avg_pool_backward(&g, 4, 4);
        let rhs: f64 = x
            .data()
            .iter()
            .zip(dx.data())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn scale_and_dot() {
        let mut rng = Rng::new(2);
        let mut x = Tensor::zeros([2, 2, 3, 3]);
        rng.fill_uniform(x.data_mut(), -1.0, 1.0);
        let s = Tensor::from_vec([2, 2], vec![1.0, 2.0, 0.5, -1.0]);
        let y = scale_channels(&x, &s);
        assert!((y.at(&[0, 1, 2, 2]) - 2.0 * x.at(&[0, 1, 2, 2])).abs() < 1e-6);
        assert!((y.at(&[1, 1, 0, 0]) + x.at(&[1, 1, 0, 0])).abs() < 1e-6);
        // d(sum(y))/ds == channel sums of x.
        let ones = Tensor::ones(x.shape().dims());
        let d = channel_dot(&ones, &x);
        let manual: f32 = (0..9).map(|i| x.data()[i]).sum();
        assert!((d.data()[0] - manual).abs() < 1e-4);
    }
}
