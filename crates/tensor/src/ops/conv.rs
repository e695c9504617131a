//! Dense 2-D convolution kernels: one batch-wide GEMM per conv product.
//! (Depthwise convs are [`super::depthwise`]; its two entry points are
//! re-exported here.)
//!
//! Layouts (all contiguous row-major):
//! - input  `x`: `NCHW`
//! - weight `w`: `[C_out, C_in, KH, KW]` (depthwise: `[C, 1, KH, KW]`)
//! - output `y`: `[N, C_out, H_out, W_out]`
//!
//! A dense conv is three products over the **whole batch**. With
//! `K = C_in·KH·KW`, `P = H_out·W_out` and the batch's patch matrix `B`
//! in `[K, N·P]` layout (image `i` owns columns `i·P..(i+1)·P`):
//!
//! - forward `Y = W·B`, shape `(C_out, K, N·P)`;
//! - backward `dB = Wᵀ·dY`, shape `(K, C_out, N·P)`, scattered back to
//!   `dx` per image;
//! - backward `dW = dY·Bᵀ`, shape `(C_out, N·P, K)`, written straight
//!   into `dw`.
//!
//! Folding the batch into the GEMM's column dimension is what lets the
//! late stages (4×4 and 2×2 maps, `P` of 16 and 4) reach the packed
//! kernel at all; the paper runs every convolution as one matmul over
//! batch × spatial positions for the same reason (§3.5).
//!
//! [`patch_matrix`] builds `B`: for 1×1 / stride 1 / pad 0 convs it is a
//! segment copy of `NCHW` (`[N, C, P] → [C, N·P]`, no im2col), for k×k
//! convs each image's [`im2col`] writes into its column range, and for
//! `N = 1` pointwise convs the layouts coincide and `x` is used as is.
//! `Y` and `dY` cross between `[N, C_out, P]` and `[C_out, N·P]` by the
//! same segment copy. All three products go through [`dispatch::gemm`],
//! so kernel choice is a pure function of `(m, k, n)` and one dispatch is
//! tallied per product: three per conv layer per step whatever `N` is.
//! Fold, unfold and patch buffers come from the thread-local scratch
//! arena, so steady-state calls never touch the allocator.
//!
//! Determinism: a column of `Y` or `dB` depends only on its own column of
//! `B` or `dY`, and `dW` sums over the `N·P` columns in one chain whose
//! association (ascending columns on the streaming kernel, ascending `KC`
//! slabs on the packed one) is fixed by the shape alone.

use crate::ops::dispatch::{self, GemmDesc, GemmPrecision, Orient};
use crate::scratch::scratch_f32;
use crate::shape::{conv_out_dim, Shape};
use crate::tensor::Tensor;

pub use super::depthwise::{depthwise_backward, depthwise_forward};

/// Geometry of a conv2d call, shared by forward and backward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dGeom {
    pub n: usize,
    pub c_in: usize,
    pub h: usize,
    pub w: usize,
    pub c_out: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
    pub h_out: usize,
    pub w_out: usize,
}

impl Conv2dGeom {
    /// Derives the geometry from input/weight shapes plus stride/padding.
    pub fn infer(x: &Shape, w: &Shape, stride: usize, pad: usize) -> Self {
        assert_eq!(x.rank(), 4, "conv input must be NCHW, got {x}");
        assert_eq!(w.rank(), 4, "conv weight must be [Cout,Cin,KH,KW], got {w}");
        let (n, c_in, h, wid) = (x.n(), x.c(), x.h(), x.w());
        let (c_out, wc_in, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
        assert_eq!(
            c_in, wc_in,
            "conv channel mismatch: input C={c_in}, weight expects {wc_in}"
        );
        let h_out = conv_out_dim(h, kh, stride, pad);
        let w_out = conv_out_dim(wid, kw, stride, pad);
        Conv2dGeom {
            n,
            c_in,
            h,
            w: wid,
            c_out,
            kh,
            kw,
            stride,
            pad,
            h_out,
            w_out,
        }
    }

    /// Patch-matrix row count `K = C_in·KH·KW`.
    #[inline]
    pub fn k(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    /// Patch-matrix column count of one image, `P = H_out·W_out`.
    #[inline]
    pub fn p(&self) -> usize {
        self.h_out * self.w_out
    }

    /// Patch-matrix column count of the batch, `N·P`.
    #[inline]
    pub fn cols(&self) -> usize {
        self.n * self.p()
    }

    /// 1×1 / stride 1 / pad 0: an image's patch matrix is the image.
    #[inline]
    fn pointwise(&self) -> bool {
        self.kh == 1 && self.kw == 1 && self.stride == 1 && self.pad == 0
    }

    /// Input shape.
    pub fn in_shape(&self) -> Shape {
        Shape::new(&[self.n, self.c_in, self.h, self.w])
    }

    /// Output shape.
    pub fn out_shape(&self) -> Shape {
        Shape::new(&[self.n, self.c_out, self.h_out, self.w_out])
    }

    /// Multiply–add count for a full forward pass over the batch.
    pub fn forward_macs(&self) -> u64 {
        (self.n * self.c_out * self.h_out * self.w_out) as u64 * self.k() as u64
    }
}

/// Expands one image (`CHW` slice) into its `K×P` patch matrix.
pub fn im2col(g: &Conv2dGeom, img: &[f32], patches: &mut [f32]) {
    debug_assert_eq!(patches.len(), g.k() * g.p());
    im2col_cols(g, img, patches, g.p(), 0);
}

/// [`im2col`] into columns `col0..col0 + P` of a patch matrix whose rows
/// are `ld` floats apart (the batch's `[K, N·P]` matrix: `ld = N·P`,
/// `col0 = i·P`).
fn im2col_cols(g: &Conv2dGeom, img: &[f32], patches: &mut [f32], ld: usize, col0: usize) {
    debug_assert_eq!(img.len(), g.c_in * g.h * g.w);
    let p = g.p();
    for c in 0..g.c_in {
        let chan = &img[c * g.h * g.w..(c + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = (c * g.kh + ki) * g.kw + kj;
                let dst = &mut patches[row * ld + col0..row * ld + col0 + p];
                let mut col = 0;
                for oh in 0..g.h_out {
                    let ih = (oh * g.stride + ki) as isize - g.pad as isize;
                    if ih < 0 || ih >= g.h as isize {
                        dst[col..col + g.w_out].iter_mut().for_each(|v| *v = 0.0);
                        col += g.w_out;
                        continue;
                    }
                    let src_row = &chan[ih as usize * g.w..(ih as usize + 1) * g.w];
                    for ow in 0..g.w_out {
                        let iw = (ow * g.stride + kj) as isize - g.pad as isize;
                        dst[col] = if iw < 0 || iw >= g.w as isize {
                            0.0
                        } else {
                            src_row[iw as usize]
                        };
                        col += 1;
                    }
                }
            }
        }
    }
}

/// Scatter-adds a `K×P` patch-gradient matrix back into one image gradient
/// (`CHW` slice). Inverse of [`im2col`] under summation.
pub fn col2im(g: &Conv2dGeom, patches: &[f32], dimg: &mut [f32]) {
    debug_assert_eq!(patches.len(), g.k() * g.p());
    col2im_cols(g, patches, g.p(), 0, dimg);
}

/// [`col2im`] from columns `col0..col0 + P` of a matrix with row stride
/// `ld`; see [`im2col_cols`].
fn col2im_cols(g: &Conv2dGeom, patches: &[f32], ld: usize, col0: usize, dimg: &mut [f32]) {
    debug_assert_eq!(dimg.len(), g.c_in * g.h * g.w);
    let p = g.p();
    for c in 0..g.c_in {
        let chan = &mut dimg[c * g.h * g.w..(c + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = (c * g.kh + ki) * g.kw + kj;
                let src = &patches[row * ld + col0..row * ld + col0 + p];
                let mut col = 0;
                for oh in 0..g.h_out {
                    let ih = (oh * g.stride + ki) as isize - g.pad as isize;
                    if ih < 0 || ih >= g.h as isize {
                        col += g.w_out;
                        continue;
                    }
                    let dst_row = &mut chan[ih as usize * g.w..(ih as usize + 1) * g.w];
                    for ow in 0..g.w_out {
                        let iw = (ow * g.stride + kj) as isize - g.pad as isize;
                        if iw >= 0 && iw < g.w as isize {
                            dst_row[iw as usize] += src[col];
                        }
                        col += 1;
                    }
                }
            }
        }
    }
}

/// Segment copy `[N, C, P] → [C, N·P]`: channel `c` of image `i` becomes
/// columns `i·P..(i+1)·P` of row `c`.
fn fold(n: usize, c: usize, p: usize, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), n * c * p);
    debug_assert_eq!(dst.len(), n * c * p);
    for (ch, row) in dst.chunks_exact_mut(n * p).enumerate() {
        for (i, seg) in row.chunks_exact_mut(p).enumerate() {
            seg.copy_from_slice(&src[(i * c + ch) * p..(i * c + ch + 1) * p]);
        }
    }
}

/// Segment copy `[C, N·P] → [N, C, P]`, the inverse of [`fold`].
fn unfold(n: usize, c: usize, p: usize, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), n * c * p);
    debug_assert_eq!(dst.len(), n * c * p);
    for (ch, row) in src.chunks_exact(n * p).enumerate() {
        for (i, seg) in row.chunks_exact(p).enumerate() {
            dst[(i * c + ch) * p..(i * c + ch + 1) * p].copy_from_slice(seg);
        }
    }
}

/// Writes the batch's patch matrix `B` (`[K, N·P]`, see the module docs)
/// for the `NCHW` input `xs` into `b`.
pub fn patch_matrix(g: &Conv2dGeom, xs: &[f32], b: &mut [f32]) {
    assert_eq!(xs.len(), g.n * g.c_in * g.h * g.w, "conv input length");
    assert_eq!(b.len(), g.k() * g.cols(), "patch matrix length");
    if g.pointwise() {
        fold(g.n, g.c_in, g.p(), xs, b);
    } else {
        let img_len = g.c_in * g.h * g.w;
        for (i, img) in xs.chunks_exact(img_len).enumerate() {
            im2col_cols(g, img, b, g.cols(), i * g.p());
        }
    }
}

/// Runs `f` on the batch's patch matrix: `xs` itself when the layouts
/// coincide (one pointwise image), else a scratch [`patch_matrix`].
fn with_patch_matrix<R>(g: &Conv2dGeom, xs: &[f32], f: impl FnOnce(&[f32]) -> R) -> R {
    if g.n == 1 && g.pointwise() {
        return f(xs);
    }
    let mut b = scratch_f32(g.k() * g.cols());
    patch_matrix(g, xs, &mut b);
    f(&b)
}

/// Dense conv2d forward: `y = conv(x, w)`, no bias (EfficientNet convs are
/// bias-free; batch norm provides the shift).
pub fn conv2d_forward(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Tensor {
    conv2d_forward_p(x, w, stride, pad, GemmPrecision::F32)
}

/// Precision-aware dense conv2d forward. Kernel choice (blocked vs
/// naive) stays a pure function of the product's shape; `precision`
/// independently selects the operand rounding, so bf16 numerics are
/// honored on both sides of the dispatch threshold.
pub fn conv2d_forward_p(
    x: &Tensor,
    w: &Tensor,
    stride: usize,
    pad: usize,
    precision: GemmPrecision,
) -> Tensor {
    let g = Conv2dGeom::infer(x.shape(), w.shape(), stride, pad);
    with_patch_matrix(&g, x.data(), |b| {
        conv2d_forward_patches(&g, w, b, precision)
    })
}

/// Forward from a prebuilt [`patch_matrix`]: `Y = W·B` as one
/// `(C_out, K, N·P)` product, unfolded into `[N, C_out, H_out, W_out]`.
/// Layers that run backward next build `B` once and hand it to both
/// passes.
pub fn conv2d_forward_patches(
    g: &Conv2dGeom,
    w: &Tensor,
    patches: &[f32],
    precision: GemmPrecision,
) -> Tensor {
    let desc = GemmDesc {
        precision,
        ..GemmDesc::new(g.c_out, g.k(), g.cols())
    };
    let mut y = Tensor::zeros(g.out_shape());
    if g.n == 1 {
        dispatch::gemm(desc, w.data(), patches, y.data_mut());
    } else {
        let mut yf = scratch_f32(g.c_out * g.cols());
        dispatch::gemm(desc, w.data(), patches, &mut yf);
        unfold(g.n, g.c_out, g.p(), &yf, y.data_mut());
    }
    y
}

/// Gradients of dense conv2d.
///
/// Returns `(dx, dw)` given upstream gradient `dy`. `dw` is freshly
/// allocated (callers accumulate into their parameter grads with `axpy`).
pub fn conv2d_backward(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    stride: usize,
    pad: usize,
) -> (Tensor, Tensor) {
    conv2d_backward_p(x, w, dy, stride, pad, GemmPrecision::F32)
}

/// Precision-aware gradients of dense conv2d. Under bf16 both backward
/// GEMMs (`Wᵀ·dY` and `dY·Bᵀ`) narrow their operands once per call —
/// including the upstream gradient `dY`, matching the paper's setup where
/// activations *and* their gradients travel in bf16 while every
/// accumulation (the GEMM reductions, the parameter update) stays f32.
pub fn conv2d_backward_p(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    stride: usize,
    pad: usize,
    precision: GemmPrecision,
) -> (Tensor, Tensor) {
    let g = Conv2dGeom::infer(x.shape(), w.shape(), stride, pad);
    with_patch_matrix(&g, x.data(), |b| {
        conv2d_backward_patches(&g, w, b, dy, precision)
    })
}

/// Backward from the [`patch_matrix`] the forward pass used: returns
/// `(dx, dw)` with `dW = dY·Bᵀ` and `dx` scattered from `dB = Wᵀ·dY`,
/// each one product over all `N·P` columns.
pub fn conv2d_backward_patches(
    g: &Conv2dGeom,
    w: &Tensor,
    patches: &[f32],
    dy: &Tensor,
    precision: GemmPrecision,
) -> (Tensor, Tensor) {
    assert!(
        dy.shape().same_as(&g.out_shape()),
        "dy shape {} != expected {}",
        dy.shape(),
        g.out_shape()
    );
    let (kk, p, cols) = (g.k(), g.p(), g.cols());
    let folded;
    let dyf: &[f32] = if g.n == 1 {
        dy.data()
    } else {
        let mut f = scratch_f32(g.c_out * cols);
        fold(g.n, g.c_out, p, dy.data(), &mut f);
        folded = f;
        &folded
    };

    // dW = dY·Bᵀ: B is stored K×(N·P), the `n×k` operand of ABᵀ.
    let mut dw = Tensor::zeros(w.shape().clone());
    let dw_desc = GemmDesc {
        orient: Orient::ABt,
        precision,
        ..GemmDesc::new(g.c_out, cols, kk)
    };
    dispatch::gemm(dw_desc, dyf, patches, dw.data_mut());

    // dB = Wᵀ·dY (W stored C_out×K), then back to NCHW per image.
    let mut dx = Tensor::zeros(g.in_shape());
    let db_desc = GemmDesc {
        orient: Orient::AtB,
        precision,
        ..GemmDesc::new(kk, g.c_out, cols)
    };
    if g.n == 1 && g.pointwise() {
        dispatch::gemm(db_desc, w.data(), dyf, dx.data_mut());
    } else {
        let mut db = scratch_f32(kk * cols);
        dispatch::gemm(db_desc, w.data(), dyf, &mut db);
        if g.pointwise() {
            unfold(g.n, g.c_in, p, &db, dx.data_mut());
        } else {
            let img_len = g.c_in * g.h * g.w;
            for (i, dximg) in dx.data_mut().chunks_exact_mut(img_len).enumerate() {
                col2im_cols(g, &db, cols, i * p, dximg);
            }
        }
    }
    (dx, dw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn rand_tensor(rng: &mut Rng, shape: &[usize]) -> Tensor {
        let mut t = Tensor::zeros(shape);
        rng.fill_uniform(t.data_mut(), -1.0, 1.0);
        t
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), p> == <x, col2im(p)> — the defining adjoint property.
        let mut rng = Rng::new(5);
        let x = rand_tensor(&mut rng, &[1, 2, 5, 5]);
        let wshape = Shape::new(&[1, 2, 3, 3]);
        let g = Conv2dGeom::infer(x.shape(), &wshape, 2, 1);
        let mut patches = vec![0.0; g.k() * g.p()];
        im2col(&g, x.data(), &mut patches);
        let mut p = vec![0.0; g.k() * g.p()];
        let mut rr = Rng::new(6);
        rr.fill_uniform(&mut p, -1.0, 1.0);
        let lhs: f64 = patches
            .iter()
            .zip(&p)
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let mut back = vec![0.0; x.numel()];
        col2im(&g, &p, &mut back);
        let rhs: f64 = x
            .data()
            .iter()
            .zip(&back)
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn macs_counting() {
        let x = Shape::new(&[1, 3, 8, 8]);
        let w = Shape::new(&[16, 3, 3, 3]);
        let g = Conv2dGeom::infer(&x, &w, 1, 1);
        assert_eq!(g.forward_macs(), (16 * 8 * 8) as u64 * (3 * 3 * 3) as u64);
    }
}
