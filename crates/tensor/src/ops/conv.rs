//! 2-D convolution kernels: im2col + GEMM for dense convs, direct loops for
//! depthwise convs.
//!
//! Layouts (all contiguous row-major):
//! - input  `x`: `NCHW`
//! - weight `w`: `[C_out, C_in, KH, KW]` (depthwise: `[C, 1, KH, KW]`)
//! - output `y`: `[N, C_out, H_out, W_out]`
//!
//! The im2col patch matrix for one image is `K×P` with `K = C_in·KH·KW` and
//! `P = H_out·W_out`, so the forward pass is a single `C_out×K · K×P` GEMM
//! per image. Batch images run in parallel on rayon workers.
//!
//! Kernel routing: shapes past the [`dispatch::blocked_profitable`]
//! threshold take the packed blocked kernels — forward additionally
//! **fuses** im2col with panel packing ([`PanelB::Patches`]): the weight
//! matrix is packed once per call and each image's patch matrix is
//! gathered straight into the kernel's tile-major B panels, so the `K×P`
//! patch matrix is never materialized. Small shapes keep the naive
//! streaming kernels with an arena-scratch patch buffer. All short-lived
//! buffers (patches, packed panels, per-image `dw` partials) come from
//! the thread-local scratch arena, so steady-state calls never touch the
//! allocator.
//!
//! Determinism: every reduction has a fixed association. The per-image
//! `dw` partial for image `i` is always exactly `dY_i · patches_iᵀ`
//! (never a rayon fold grouping, which work stealing would make
//! nondeterministic), and partials are combined by a stride-doubling
//! pairwise tree whose shape depends only on the batch size.

use crate::bf16::Bf16;
use crate::ops::dispatch::{self, GemmDesc, GemmPrecision, Orient};
use crate::ops::gemm_blocked::{
    gemm_prepacked, pack_a_into, packed_a_len, PackElem, PanelA, PanelB,
};
use crate::ops::matmul::gemm_naive;
use crate::scratch::{scratch_elems, scratch_f32, scratch_f32_zeroed};
use crate::shape::{conv_out_dim, Shape};
use crate::tensor::Tensor;
use rayon::prelude::*;

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

    /// Patch-matrix column count `P = H_out·W_out`.
    #[inline]
    pub fn p(&self) -> usize {
        self.h_out * self.w_out
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

/// Expands one image (`CHW` slice) into the `K×P` patch matrix.
pub fn im2col(g: &Conv2dGeom, img: &[f32], patches: &mut [f32]) {
    debug_assert_eq!(img.len(), g.c_in * g.h * g.w);
    debug_assert_eq!(patches.len(), g.k() * g.p());
    let p = g.p();
    for c in 0..g.c_in {
        let chan = &img[c * g.h * g.w..(c + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = (c * g.kh + ki) * g.kw + kj;
                let dst = &mut patches[row * p..(row + 1) * p];
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
    debug_assert_eq!(dimg.len(), g.c_in * g.h * g.w);
    debug_assert_eq!(patches.len(), g.k() * g.p());
    let p = g.p();
    for c in 0..g.c_in {
        let chan = &mut dimg[c * g.h * g.w..(c + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = (c * g.kh + ki) * g.kw + kj;
                let src = &patches[row * p..(row + 1) * p];
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

/// Dense conv2d forward: `y = conv(x, w)`, no bias (EfficientNet convs are
/// bias-free; batch norm provides the shift).
pub fn conv2d_forward(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Tensor {
    conv2d_forward_p(x, w, stride, pad, GemmPrecision::F32)
}

/// Fused-path worker, generic over the pack-time element type: weights
/// packed once (shared read-only across workers), each image's virtual
/// patch matrix gathered straight into the kernel's B panels — no K×P
/// materialization, one memory pass. With `E = Bf16` both operands are
/// narrowed exactly once at pack/gather time and the MR×NR micro-kernel
/// accumulates in f32 (§3.5's multiply-bf16 / accumulate-f32 contract).
fn forward_fused<E: PackElem>(g: &Conv2dGeom, xs: &[f32], ws: &[f32], y: &mut [f32]) {
    let (kk, p) = (g.k(), g.p());
    let img_len = g.c_in * g.h * g.w;
    let out_len = g.c_out * p;
    let mut ap = scratch_elems::<E>(packed_a_len(g.c_out, kk));
    pack_a_into::<E>(PanelA::RowMajor(ws), g.c_out, kk, &mut ap);
    let ap = &*ap;
    y.par_chunks_mut(out_len).enumerate().for_each(|(i, yout)| {
        let img = &xs[i * img_len..(i + 1) * img_len];
        gemm_prepacked::<E>(
            g.c_out,
            kk,
            p,
            ap,
            PanelB::Patches { geom: g, img },
            yout,
            false,
        );
    });
}

/// Precision-aware dense conv2d forward. Kernel choice (blocked vs
/// naive) stays a pure function of shape, made and tallied once per
/// call; `precision` independently selects the operand rounding, so
/// bf16 numerics are honored on both sides of the dispatch threshold.
pub fn conv2d_forward_p(
    x: &Tensor,
    w: &Tensor,
    stride: usize,
    pad: usize,
    precision: GemmPrecision,
) -> Tensor {
    let g = Conv2dGeom::infer(x.shape(), w.shape(), stride, pad);
    let mut y = Tensor::zeros(g.out_shape());
    let (kk, p) = (g.k(), g.p());
    let img_len = g.c_in * g.h * g.w;
    let out_len = g.c_out * p;
    let xs = x.data();
    let ws = w.data();
    if dispatch::blocked_profitable(g.c_out, kk, p) {
        dispatch::record_dispatch(precision, true);
        match precision {
            GemmPrecision::F32 => forward_fused::<f32>(&g, xs, ws, y.data_mut()),
            GemmPrecision::Bf16 => forward_fused::<Bf16>(&g, xs, ws, y.data_mut()),
        }
    } else {
        dispatch::record_dispatch(precision, false);
        let desc = GemmDesc {
            precision,
            ..GemmDesc::new(g.c_out, kk, p)
        };
        y.data_mut()
            .par_chunks_mut(out_len)
            .enumerate()
            .for_each(|(i, yout)| {
                let mut patches = scratch_f32(kk * p);
                im2col(&g, &xs[i * img_len..(i + 1) * img_len], &mut patches);
                gemm_naive(desc, ws, &patches, yout);
            });
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
/// GEMMs (`Wᵀ·dY` and `dY·patchesᵀ`) narrow their operands at pack time
/// — including the upstream gradient `dY`, matching the paper's setup
/// where activations *and* their gradients travel in bf16 while every
/// accumulation (the GEMM reductions, the pairwise partial tree, the
/// parameter update) stays f32.
pub fn conv2d_backward_p(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    stride: usize,
    pad: usize,
    precision: GemmPrecision,
) -> (Tensor, Tensor) {
    let g = Conv2dGeom::infer(x.shape(), w.shape(), stride, pad);
    assert!(
        dy.shape().same_as(&g.out_shape()),
        "dy shape {} != expected {}",
        dy.shape(),
        g.out_shape()
    );
    let (kk, p) = (g.k(), g.p());
    let img_len = g.c_in * g.h * g.w;
    let out_len = g.c_out * p;
    let xs = x.data();
    let ws = w.data();
    let dys = dy.data();
    let wlen = w.numel();

    let dx_desc = GemmDesc {
        orient: Orient::AtB,
        precision,
        ..GemmDesc::new(kk, g.c_out, p)
    };
    let dw_desc = GemmDesc {
        orient: Orient::ABt,
        accumulate: true,
        precision,
        ..GemmDesc::new(g.c_out, p, kk)
    };

    let mut dx = Tensor::zeros(x.shape().clone());

    // Pass 1 — input gradient, parallel over images (disjoint dx slices):
    // dPatches = Wᵀ · dY_i (W stored Cout×K), scattered back by col2im.
    dx.data_mut()
        .par_chunks_mut(img_len)
        .enumerate()
        .for_each(|(i, dximg)| {
            let dyi = &dys[i * out_len..(i + 1) * out_len];
            let mut dpatches = scratch_f32(kk * p);
            dispatch::gemm(dx_desc, ws, dyi, &mut dpatches);
            dximg.iter_mut().for_each(|v| *v = 0.0);
            col2im(&g, &dpatches, dximg);
        });

    // Pass 2 — weight gradient: one partial slot per image, parallel over
    // slots. Slot i holds exactly dY_i · patches_iᵀ (dY_i: Cout×P,
    // patches: K×P stored row-major = the `n×k` ABᵀ operand), on the
    // packed accumulating kernel when the shape clears the threshold.
    // Fixed per-image slots keep the result independent of rayon's work
    // distribution.
    let mut partials = scratch_f32_zeroed(g.n * wlen);
    partials
        .par_chunks_mut(wlen)
        .enumerate()
        .for_each(|(i, slot)| {
            let dyi = &dys[i * out_len..(i + 1) * out_len];
            let mut patches = scratch_f32(kk * p);
            im2col(&g, &xs[i * img_len..(i + 1) * img_len], &mut patches);
            dispatch::gemm(dw_desc, dyi, &patches, slot);
        });

    // Pass 3 — stride-doubling pairwise tree over the image slots; the
    // association depends only on the batch size, never on scheduling.
    reduce_partials_pairwise(&mut partials, g.n, wlen);
    let mut dw = Tensor::zeros(w.shape().clone());
    dw.data_mut().copy_from_slice(&partials[..wlen]);
    (dx, dw)
}

/// Reduces `count` partials of `len` floats laid out contiguously in
/// `buf` into `buf[..len]` with a fixed pairwise (stride-doubling) tree:
/// round `r` adds slot `i + 2^r` into slot `i` for every `i` that is a
/// multiple of `2^(r+1)`, rounds run in parallel over disjoint pairs.
/// The association is a pure function of `count`, so the f32 result is
/// bitwise-reproducible regardless of thread scheduling.
fn reduce_partials_pairwise(buf: &mut [f32], count: usize, len: usize) {
    debug_assert!(buf.len() >= count * len);
    let mut stride = 1;
    while stride < count {
        buf[..count * len]
            .par_chunks_mut(2 * stride * len)
            .for_each(|chunk| {
                if chunk.len() > stride * len {
                    let (dst, src) = chunk.split_at_mut(stride * len);
                    for (d, &s) in dst[..len].iter_mut().zip(&src[..len]) {
                        *d += s;
                    }
                }
            });
        stride *= 2;
    }
}

/// Depthwise conv2d forward (`groups == channels`, multiplier 1).
///
/// Weight shape `[C, 1, KH, KW]`. Direct loops — the arithmetic intensity is
/// too low for im2col+GEMM to pay off.
pub fn depthwise_forward(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Tensor {
    let (n, c, h, wid) = (x.shape().n(), x.shape().c(), x.shape().h(), x.shape().w());
    assert_eq!(w.shape().dim(0), c, "depthwise weight C mismatch");
    assert_eq!(w.shape().dim(1), 1, "depthwise weight multiplier must be 1");
    let (kh, kw) = (w.shape().dim(2), w.shape().dim(3));
    let h_out = conv_out_dim(h, kh, stride, pad);
    let w_out = conv_out_dim(wid, kw, stride, pad);
    let mut y = Tensor::zeros([n, c, h_out, w_out]);
    let xs = x.data();
    let ws = w.data();
    let in_plane = h * wid;
    let out_plane = h_out * w_out;
    y.data_mut()
        .par_chunks_mut(out_plane)
        .enumerate()
        .for_each(|(plane_idx, yout)| {
            let img = plane_idx / c;
            let ch = plane_idx % c;
            let xin = &xs[(img * c + ch) * in_plane..(img * c + ch + 1) * in_plane];
            let ker = &ws[ch * kh * kw..(ch + 1) * kh * kw];
            for oh in 0..h_out {
                for ow in 0..w_out {
                    let mut acc = 0.0f32;
                    for ki in 0..kh {
                        let ih = (oh * stride + ki) as isize - pad as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for kj in 0..kw {
                            let iw = (ow * stride + kj) as isize - pad as isize;
                            if iw < 0 || iw >= wid as isize {
                                continue;
                            }
                            acc += ker[ki * kw + kj] * xin[ih as usize * wid + iw as usize];
                        }
                    }
                    yout[oh * w_out + ow] = acc;
                }
            }
        });
    y
}

/// Gradients of depthwise conv2d. Returns `(dx, dw)`.
pub fn depthwise_backward(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    stride: usize,
    pad: usize,
) -> (Tensor, Tensor) {
    let (n, c, h, wid) = (x.shape().n(), x.shape().c(), x.shape().h(), x.shape().w());
    let (kh, kw) = (w.shape().dim(2), w.shape().dim(3));
    let h_out = dy.shape().h();
    let w_out = dy.shape().w();
    assert_eq!(dy.shape().n(), n);
    assert_eq!(dy.shape().c(), c);
    let in_plane = h * wid;
    let out_plane = h_out * w_out;
    let xs = x.data();
    let ws = w.data();
    let dys = dy.data();

    let mut dx = Tensor::zeros(x.shape().clone());
    let klen = kh * kw;

    // Pass 1 — input gradient, parallel over (image, channel) planes.
    // No `g == 0.0` skip: a zero upstream gradient against a non-finite
    // activation must still produce NaN (nan_guard contract; see the
    // branchless-accumulation note in `matmul`).
    dx.data_mut()
        .par_chunks_mut(in_plane)
        .enumerate()
        .for_each(|(plane_idx, dximg)| {
            let ch = plane_idx % c;
            let dyp = &dys[plane_idx * out_plane..(plane_idx + 1) * out_plane];
            let ker = &ws[ch * klen..(ch + 1) * klen];
            for oh in 0..h_out {
                for ow in 0..w_out {
                    let g = dyp[oh * w_out + ow];
                    for ki in 0..kh {
                        let ih = (oh * stride + ki) as isize - pad as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for kj in 0..kw {
                            let iw = (ow * stride + kj) as isize - pad as isize;
                            if iw < 0 || iw >= wid as isize {
                                continue;
                            }
                            dximg[ih as usize * wid + iw as usize] += g * ker[ki * kw + kj];
                        }
                    }
                }
            }
        });

    // Pass 2 — weight gradient: one arena-backed partial slot per plane
    // (image, channel), parallel over slots; slot contents depend only on
    // that plane, never on rayon's work distribution.
    let mut partials = scratch_f32_zeroed(n * c * klen);
    partials
        .par_chunks_mut(klen)
        .enumerate()
        .for_each(|(plane_idx, dker)| {
            let xin = &xs[plane_idx * in_plane..(plane_idx + 1) * in_plane];
            let dyp = &dys[plane_idx * out_plane..(plane_idx + 1) * out_plane];
            for oh in 0..h_out {
                for ow in 0..w_out {
                    let g = dyp[oh * w_out + ow];
                    for ki in 0..kh {
                        let ih = (oh * stride + ki) as isize - pad as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for kj in 0..kw {
                            let iw = (ow * stride + kj) as isize - pad as isize;
                            if iw < 0 || iw >= wid as isize {
                                continue;
                            }
                            dker[ki * kw + kj] += g * xin[ih as usize * wid + iw as usize];
                        }
                    }
                }
            }
        });

    // Pass 3 — fold image partials per channel in fixed ascending-image
    // order (deterministic association; the per-channel vectors are tiny).
    let mut dw = Tensor::zeros(w.shape().clone());
    let dws = dw.data_mut();
    for img in 0..n {
        let base = img * c * klen;
        for (d, &s) in dws.iter_mut().zip(&partials[base..base + c * klen]) {
            *d += s;
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

    /// Naive direct convolution reference.
    fn conv_ref(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Tensor {
        let g = Conv2dGeom::infer(x.shape(), w.shape(), stride, pad);
        let mut y = Tensor::zeros(g.out_shape());
        for n in 0..g.n {
            for co in 0..g.c_out {
                for oh in 0..g.h_out {
                    for ow in 0..g.w_out {
                        let mut acc = 0.0;
                        for ci in 0..g.c_in {
                            for ki in 0..g.kh {
                                for kj in 0..g.kw {
                                    let ih = (oh * stride + ki) as isize - pad as isize;
                                    let iw = (ow * stride + kj) as isize - pad as isize;
                                    if ih < 0 || iw < 0 || ih >= g.h as isize || iw >= g.w as isize
                                    {
                                        continue;
                                    }
                                    acc += x.at(&[n, ci, ih as usize, iw as usize])
                                        * w.at(&[co, ci, ki, kj]);
                                }
                            }
                        }
                        *y.at_mut(&[n, co, oh, ow]) = acc;
                    }
                }
            }
        }
        y
    }

    #[test]
    fn forward_matches_reference() {
        let mut rng = Rng::new(1);
        for &(n, ci, h, w, co, k, s, p) in &[
            (1, 1, 5, 5, 1, 3, 1, 1),
            (2, 3, 8, 8, 4, 3, 1, 1),
            (2, 3, 9, 7, 5, 3, 2, 1),
            (1, 4, 6, 6, 2, 1, 1, 0),
            (2, 2, 11, 11, 3, 5, 2, 2),
            // Past the blocked-dispatch threshold: exercises the fused
            // patch-packing path (stride 1 and stride 2, both padded).
            (1, 8, 12, 12, 8, 3, 1, 1),
            (1, 8, 13, 13, 32, 3, 2, 1),
        ] {
            let x = rand_tensor(&mut rng, &[n, ci, h, w]);
            let wt = rand_tensor(&mut rng, &[co, ci, k, k]);
            let y = conv2d_forward(&x, &wt, s, p);
            let yr = conv_ref(&x, &wt, s, p);
            assert!(
                y.max_abs_diff(&yr) < 1e-4,
                "cfg ({n},{ci},{h},{w},{co},{k},{s},{p})"
            );
        }
    }

    /// Finite-difference check of conv2d gradients.
    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = Rng::new(2);
        let x = rand_tensor(&mut rng, &[2, 2, 5, 5]);
        let wt = rand_tensor(&mut rng, &[3, 2, 3, 3]);
        let (s, p) = (2, 1);
        // Loss = sum(conv(x, w) * g) for a fixed random g.
        let y0 = conv2d_forward(&x, &wt, s, p);
        let gout = rand_tensor(&mut rng, y0.shape().dims());
        let (dx, dw) = conv2d_backward(&x, &wt, &gout, s, p);

        let loss = |x: &Tensor, w: &Tensor| -> f64 {
            let y = conv2d_forward(x, w, s, p);
            y.data()
                .iter()
                .zip(gout.data())
                .map(|(&a, &b)| (a as f64) * (b as f64))
                .sum()
        };
        let eps = 1e-3f32;
        // Spot-check a sample of coordinates in x and w.
        for &i in &[0usize, 7, 23, 49, x.numel() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((loss(&xp, &wt) - loss(&xm, &wt)) / (2.0 * eps as f64)) as f32;
            let ana = dx.data()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "dx[{i}]: numeric {num} vs analytic {ana}"
            );
        }
        for &i in &[0usize, 5, 17, wt.numel() - 1] {
            let mut wp = wt.clone();
            wp.data_mut()[i] += eps;
            let mut wm = wt.clone();
            wm.data_mut()[i] -= eps;
            let num = ((loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps as f64)) as f32;
            let ana = dw.data()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "dw[{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn depthwise_matches_grouped_reference() {
        let mut rng = Rng::new(3);
        let (n, c, h, w, k, s, p) = (2, 4, 7, 7, 3, 1, 1);
        let x = rand_tensor(&mut rng, &[n, c, h, w]);
        let wt = rand_tensor(&mut rng, &[c, 1, k, k]);
        let y = depthwise_forward(&x, &wt, s, p);
        // Reference: per-channel dense conv with a 1-channel kernel.
        for ch in 0..c {
            let mut xc = Tensor::zeros([n, 1, h, w]);
            let mut wc = Tensor::zeros([1, 1, k, k]);
            for i in 0..n {
                for a in 0..h {
                    for b in 0..w {
                        *xc.at_mut(&[i, 0, a, b]) = x.at(&[i, ch, a, b]);
                    }
                }
            }
            for a in 0..k {
                for b in 0..k {
                    *wc.at_mut(&[0, 0, a, b]) = wt.at(&[ch, 0, a, b]);
                }
            }
            let yc = conv2d_forward(&xc, &wc, s, p);
            for i in 0..n {
                for a in 0..y.shape().h() {
                    for b in 0..y.shape().w() {
                        let d = (y.at(&[i, ch, a, b]) - yc.at(&[i, 0, a, b])).abs();
                        assert!(d < 1e-5, "channel {ch} mismatch {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn depthwise_backward_finite_difference() {
        let mut rng = Rng::new(4);
        let x = rand_tensor(&mut rng, &[1, 3, 6, 6]);
        let wt = rand_tensor(&mut rng, &[3, 1, 3, 3]);
        let (s, p) = (2, 1);
        let y0 = depthwise_forward(&x, &wt, s, p);
        let gout = rand_tensor(&mut rng, y0.shape().dims());
        let (dx, dw) = depthwise_backward(&x, &wt, &gout, s, p);
        let loss = |x: &Tensor, w: &Tensor| -> f64 {
            depthwise_forward(x, w, s, p)
                .data()
                .iter()
                .zip(gout.data())
                .map(|(&a, &b)| (a as f64) * (b as f64))
                .sum()
        };
        let eps = 1e-3f32;
        for &i in &[0usize, 31, 71, x.numel() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((loss(&xp, &wt) - loss(&xm, &wt)) / (2.0 * eps as f64)) as f32;
            assert!((num - dx.data()[i]).abs() < 2e-2 * (1.0 + num.abs()));
        }
        for &i in &[0usize, 13, wt.numel() - 1] {
            let mut wp = wt.clone();
            wp.data_mut()[i] += eps;
            let mut wm = wt.clone();
            wm.data_mut()[i] -= eps;
            let num = ((loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps as f64)) as f32;
            assert!((num - dw.data()[i]).abs() < 2e-2 * (1.0 + num.abs()));
        }
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
    fn pairwise_partial_reduction_matches_serial_sum() {
        let len = 7;
        for &count in &[1usize, 2, 3, 5, 8, 13] {
            let orig: Vec<f32> = (0..count * len).map(|i| (i as f32 * 0.37).sin()).collect();
            let mut buf = orig.clone();
            reduce_partials_pairwise(&mut buf, count, len);
            for j in 0..len {
                let want: f64 = (0..count).map(|i| orig[i * len + j] as f64).sum();
                assert!(
                    (buf[j] as f64 - want).abs() < 1e-4,
                    "count={count} j={j}: {} vs {want}",
                    buf[j]
                );
            }
            // Rerun: bitwise identical (fixed association).
            let mut buf2 = orig.clone();
            reduce_partials_pairwise(&mut buf2, count, len);
            assert_eq!(
                buf[..len].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                buf2[..len].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    /// Backward at a shape past the blocked threshold still matches the
    /// finite-difference reference (packed accumulating kernels + fixed
    /// per-image partial slots).
    #[test]
    fn backward_blocked_shape_finite_difference() {
        let mut rng = Rng::new(7);
        let x = rand_tensor(&mut rng, &[2, 8, 10, 10]);
        let wt = rand_tensor(&mut rng, &[16, 8, 3, 3]);
        let (s, p) = (1, 1);
        let y0 = conv2d_forward(&x, &wt, s, p);
        let gout = rand_tensor(&mut rng, y0.shape().dims());
        let (dx, dw) = conv2d_backward(&x, &wt, &gout, s, p);
        let loss = |x: &Tensor, w: &Tensor| -> f64 {
            conv2d_forward(x, w, s, p)
                .data()
                .iter()
                .zip(gout.data())
                .map(|(&a, &b)| (a as f64) * (b as f64))
                .sum()
        };
        let eps = 1e-3f32;
        for &i in &[0usize, 101, x.numel() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((loss(&xp, &wt) - loss(&xm, &wt)) / (2.0 * eps as f64)) as f32;
            let ana = dx.data()[i];
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + num.abs()),
                "dx[{i}]: numeric {num} vs analytic {ana}"
            );
        }
        for &i in &[0usize, 77, wt.numel() - 1] {
            let mut wp = wt.clone();
            wp.data_mut()[i] += eps;
            let mut wm = wt.clone();
            wm.data_mut()[i] -= eps;
            let num = ((loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps as f64)) as f32;
            let ana = dw.data()[i];
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + num.abs()),
                "dw[{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    /// The bf16 forward narrows each gathered patch value and weight
    /// exactly once, so it must be *bitwise* identical to quantizing the
    /// whole input and weight tensors up front and running the f32 path
    /// — on both sides of the dispatch threshold (fused patch-packing
    /// with stride 2 + padding, and the naive streaming kernel).
    #[test]
    fn bf16_forward_equals_quantize_then_f32_bitwise() {
        let mut rng = Rng::new(11);
        for &(n, ci, h, w, co, k, s, p) in &[
            (1, 8, 13, 13, 32, 3, 2, 1), // blocked: fused patches, stride 2
            (1, 8, 12, 12, 32, 3, 1, 1), // blocked: fused patches, stride 1
            (2, 3, 8, 8, 4, 3, 1, 1),    // naive: quantize-into-scratch
        ] {
            let x = rand_tensor(&mut rng, &[n, ci, h, w]);
            let wt = rand_tensor(&mut rng, &[co, ci, k, k]);
            let y16 = conv2d_forward_p(&x, &wt, s, p, GemmPrecision::Bf16);
            let mut xq = x.clone();
            crate::bf16::quantize_slice(xq.data_mut());
            let mut wq = wt.clone();
            crate::bf16::quantize_slice(wq.data_mut());
            let yref = conv2d_forward(&xq, &wq, s, p);
            assert_eq!(
                y16.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                yref.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "cfg ({n},{ci},{h},{w},{co},{k},{s},{p})"
            );
        }
    }

    /// bf16 backward still passes the finite-difference check (looser
    /// tolerance: operands carry 8 mantissa bits).
    #[test]
    fn bf16_backward_finite_difference() {
        let mut rng = Rng::new(12);
        let x = rand_tensor(&mut rng, &[2, 8, 10, 10]);
        let wt = rand_tensor(&mut rng, &[16, 8, 3, 3]);
        let (s, p) = (1, 1);
        let y0 = conv2d_forward_p(&x, &wt, s, p, GemmPrecision::Bf16);
        let gout = rand_tensor(&mut rng, y0.shape().dims());
        let (dx, dw) = conv2d_backward_p(&x, &wt, &gout, s, p, GemmPrecision::Bf16);
        let loss = |x: &Tensor, w: &Tensor| -> f64 {
            conv2d_forward_p(x, w, s, p, GemmPrecision::Bf16)
                .data()
                .iter()
                .zip(gout.data())
                .map(|(&a, &b)| (a as f64) * (b as f64))
                .sum()
        };
        let eps = 2e-2f32;
        for &i in &[0usize, 101, x.numel() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((loss(&xp, &wt) - loss(&xm, &wt)) / (2.0 * eps as f64)) as f32;
            let ana = dx.data()[i];
            assert!(
                (num - ana).abs() < 0.15 * (1.0 + num.abs()),
                "dx[{i}]: numeric {num} vs analytic {ana}"
            );
        }
        for &i in &[0usize, 77, wt.numel() - 1] {
            let mut wp = wt.clone();
            wp.data_mut()[i] += eps;
            let mut wm = wt.clone();
            wm.data_mut()[i] -= eps;
            let num = ((loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps as f64)) as f32;
            let ana = dw.data()[i];
            assert!(
                (num - ana).abs() < 0.15 * (1.0 + num.abs()),
                "dw[{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn macs_counting() {
        let x = Shape::new(&[1, 3, 8, 8]);
        let w = Shape::new(&[16, 3, 3, 3]);
        let g = Conv2dGeom::infer(&x, &w, 1, 1);
        assert_eq!(g.forward_macs(), (16 * 8 * 8) as u64 * (3 * 3 * 3) as u64);
    }
}
