//! Convolution layers (dense and depthwise) with optional bfloat16
//! mixed-precision execution (§3.5).
//!
//! EfficientNet's convolutions carry no bias — batch norm supplies the
//! shift — so neither layer has one. With [`Precision::MixedBf16`], the
//! operands of every conv product (activations and kernels, forward and
//! backward) are rounded through bf16 while accumulation stays in f32,
//! matching the TPU execution the paper describes.

use crate::layer::{Layer, Mode};
use crate::param::{Param, ParamKind};
use ets_tensor::bf16::quantize_tensor;
use ets_tensor::ops::conv::{
    conv2d_backward_patches, conv2d_forward_patches, depthwise_backward, depthwise_forward,
    patch_matrix, Conv2dGeom,
};
use ets_tensor::ops::dispatch::{GemmPolicy, GemmPrecision};
use ets_tensor::{init, Rng, Tensor};
use std::borrow::Cow;

/// Numeric policy for conv products.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// Pure f32 (the paper's baseline comparison point).
    F32,
    /// bf16 multiplies with f32 accumulation (the paper's policy).
    MixedBf16,
}

impl Precision {
    /// The shape-pure dispatch policy this config knob maps to — used by
    /// the *non-conv* GEMMs (head [`crate::Linear`], squeeze-excite),
    /// whose MAC gate keeps paper-§3.5's "everything but convolutions
    /// stays f32" at proxy scale while still being a pure function of
    /// shape + config.
    pub fn policy(&self) -> GemmPolicy {
        match self {
            Precision::F32 => GemmPolicy::F32_ONLY,
            Precision::MixedBf16 => GemmPolicy::MIXED_BF16,
        }
    }

    /// Pack-time element type for *convolution* GEMMs: the paper runs
    /// every convolution in bf16 when mixed precision is on, with no
    /// size exception, so this maps the knob directly.
    pub fn gemm(&self) -> GemmPrecision {
        match self {
            Precision::F32 => GemmPrecision::F32,
            Precision::MixedBf16 => GemmPrecision::Bf16,
        }
    }

    /// The operand a depthwise kernel reads: `t` itself in f32, `t`
    /// rounded through bf16 when mixed (the depthwise kernels have no
    /// GEMM pack to narrow in).
    fn prep<'a>(&self, t: &'a Tensor) -> Cow<'a, Tensor> {
        match self {
            Precision::F32 => Cow::Borrowed(t),
            Precision::MixedBf16 => Cow::Owned(quantize_tensor(t)),
        }
    }
}

/// Dense 2-D convolution, no bias.
pub struct Conv2d {
    weight: Param,
    stride: usize,
    pad: usize,
    precision: Precision,
    /// What backward needs from forward: the call's geometry, the
    /// batch's patch matrix (`[K, N·P]`, the B operand of all three conv
    /// products, built once) and the pack-time precision (reused
    /// verbatim so both passes agree).
    cache: Option<(Conv2dGeom, Vec<f32>, GemmPrecision)>,
    label: String,
}

impl Conv2d {
    /// Builds a conv layer with EfficientNet's fan-out truncated-normal
    /// initialization.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        label: impl Into<String>,
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        precision: Precision,
        rng: &mut Rng,
    ) -> Self {
        let label = label.into();
        let w = init::conv_kernel(rng, c_out, c_in, kernel, kernel);
        Conv2d {
            weight: Param::new(format!("{label}.w"), w, ParamKind::Weight),
            stride,
            pad,
            precision,
            cache: None,
            label,
        }
    }

    /// Direct access to the kernel parameter (tests, FLOPs accounting).
    pub fn weight(&self) -> &Param {
        &self.weight
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _mode: Mode, _rng: &mut Rng) -> Tensor {
        // The kernels narrow operands at pack time, so the patch matrix
        // stays f32 and serves both precisions.
        let prec = self.precision.gemm();
        let w = &self.weight.value;
        let g = Conv2dGeom::infer(x.shape(), w.shape(), self.stride, self.pad);
        let mut patches = vec![0.0; g.k() * g.cols()];
        patch_matrix(&g, x.data(), &mut patches);
        let y = conv2d_forward_patches(&g, w, &patches, prec);
        self.cache = Some((g, patches, prec));
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (g, patches, prec) = self.cache.take().expect("Conv2d: forward before backward");
        let (dx, dw) = conv2d_backward_patches(&g, &self.weight.value, &patches, grad, prec);
        self.weight.grad.add_assign(&dw);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
    }

    fn cached_elems(&self) -> usize {
        self.cache
            .as_ref()
            .map_or(0, |(_, patches, _)| patches.len())
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// Depthwise 2-D convolution (channel multiplier 1), no bias.
pub struct DepthwiseConv2d {
    weight: Param,
    stride: usize,
    pad: usize,
    precision: Precision,
    cache_x: Option<Tensor>,
    label: String,
}

impl DepthwiseConv2d {
    /// Builds a depthwise conv with TF's depthwise initializer.
    pub fn new(
        label: impl Into<String>,
        channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        precision: Precision,
        rng: &mut Rng,
    ) -> Self {
        let label = label.into();
        let w = init::depthwise_kernel(rng, channels, kernel, kernel);
        DepthwiseConv2d {
            weight: Param::new(format!("{label}.dw"), w, ParamKind::Weight),
            stride,
            pad,
            precision,
            cache_x: None,
            label,
        }
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&mut self, x: &Tensor, _mode: Mode, _rng: &mut Rng) -> Tensor {
        let xq = self.precision.prep(x);
        let wq = self.precision.prep(&self.weight.value);
        let y = depthwise_forward(&xq, &wq, self.stride, self.pad);
        self.cache_x = Some(xq.into_owned());
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let xq = self
            .cache_x
            .take()
            .expect("DepthwiseConv2d: forward before backward");
        let wq = self.precision.prep(&self.weight.value);
        let (dx, dw) = depthwise_backward(&xq, &wq, grad, self.stride, self.pad);
        self.weight.grad.add_assign(&dw);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
    }

    fn cached_elems(&self) -> usize {
        self.cache_x.as_ref().map_or(0, Tensor::numel)
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_tensor::same_pad;

    fn rand_input(rng: &mut Rng, shape: &[usize]) -> Tensor {
        let mut t = Tensor::zeros(shape);
        rng.fill_uniform(t.data_mut(), -1.0, 1.0);
        t
    }

    #[test]
    fn conv_shapes() {
        let mut rng = Rng::new(1);
        let mut conv = Conv2d::new("c", 3, 8, 3, 2, same_pad(3), Precision::F32, &mut rng);
        let x = rand_input(&mut rng, &[2, 3, 16, 16]);
        let y = conv.forward(&x, Mode::Train, &mut rng);
        assert_eq!(y.shape().dims(), &[2, 8, 8, 8]);
        let dx = conv.backward(&Tensor::ones(y.shape().dims()));
        assert_eq!(dx.shape().dims(), x.shape().dims());
        assert!(conv.weight().grad.l2_norm() > 0.0);
    }

    #[test]
    fn depthwise_shapes() {
        let mut rng = Rng::new(2);
        let mut dw = DepthwiseConv2d::new("d", 6, 5, 1, same_pad(5), Precision::F32, &mut rng);
        let x = rand_input(&mut rng, &[1, 6, 9, 9]);
        let y = dw.forward(&x, Mode::Train, &mut rng);
        assert_eq!(y.shape().dims(), &[1, 6, 9, 9]);
        let dx = dw.backward(&y);
        assert_eq!(dx.shape().dims(), x.shape().dims());
    }

    #[test]
    fn bf16_path_close_but_not_identical() {
        let mut rng = Rng::new(3);
        let mut c32 = Conv2d::new("a", 4, 4, 3, 1, 1, Precision::F32, &mut rng);
        // Same weights for both precisions.
        let mut c16 = Conv2d::new("b", 4, 4, 3, 1, 1, Precision::MixedBf16, &mut rng);
        c16.weight.value = c32.weight.value.clone();
        let x = rand_input(&mut rng, &[1, 4, 8, 8]);
        let y32 = c32.forward(&x, Mode::Train, &mut rng);
        let y16 = c16.forward(&x, Mode::Train, &mut rng);
        let diff = y32.max_abs_diff(&y16);
        assert!(diff > 0.0, "bf16 must differ");
        assert!(diff < 0.05, "bf16 error too large: {diff}");
    }

    #[test]
    fn gradient_accumulates_across_steps() {
        let mut rng = Rng::new(4);
        let mut conv = Conv2d::new("c", 2, 2, 1, 1, 0, Precision::F32, &mut rng);
        let x = rand_input(&mut rng, &[1, 2, 4, 4]);
        let y = conv.forward(&x, Mode::Train, &mut rng);
        let g = Tensor::ones(y.shape().dims());
        conv.backward(&g);
        let g1 = conv.weight().grad.clone();
        let _ = conv.forward(&x, Mode::Train, &mut rng);
        conv.backward(&g);
        let g2 = conv.weight().grad.clone();
        assert!(g2.max_abs_diff(&g1.map(|v| v * 2.0)) < 1e-5);
    }
}
