//! Batch-norm kernels for `NCHW` tensors: one pass for the per-channel
//! moments over `(N, H, W)`, one that normalizes, scales, shifts and
//! activates, and the two passes of the backward.
//!
//! A *plane* is one `(image, channel)` pair of `h·w` elements. With
//! `x̂ = (x − μ)·inv_std`, `z = γ·x̂ + β` and `y = act(z)`:
//!
//! - [`bn_moments`]: `Σx` and `Σx²` per channel;
//! - [`bn_apply`]: `x̂` (kept for the backward) and `y`;
//! - [`bn_backward_reduce`]: `g = dy·act′(z)` written to the `dx`
//!   buffer, and `Σg`, `Σg·x̂` per channel (they are `dβ` and `dγ`);
//! - [`bn_backward_apply`]: `dx = γ·inv_std·(g − Σg/m − x̂·Σg·x̂/m)`
//!   in place.
//!
//! Between the two passes of each direction the caller reduces the pair
//! of sums over its batch-norm group (paper §3.4).
//!
//! # Order contract
//!
//! Every output element is its own `f32` chain of separate `mul`s and
//! `add`s (and [`super::act`]'s `exp`, which is built from the same).
//! A per-channel sum is accumulated in `f64` as [`PARTIALS`] partial
//! sums: partial `j` takes the elements `k ≡ j (mod 8)` of each of the
//! channel's planes, images ascending and `k` ascending within a plane,
//! `g·x̂` multiplied in `f64`; the eight fold as
//! `((p₀+p₄) + (p₂+p₆)) + ((p₁+p₅) + (p₃+p₇))` and the result is
//! rounded to `f32` once. None of this names a vector width, so the
//! kernels run as one source on every [`LanePath`](super::simd::LanePath)
//! (see [`on_lane`]) and agree bitwise.
//!
//! # Regimes
//!
//! The elementwise passes walk plane by plane with the channel's
//! parameters in registers. Planes below [`SMALL_PLANE`] elements (the
//! 4², 2² and 1² maps of an EfficientNet's late stages) are too short
//! to loop over: there the per-channel parameters are expanded once to
//! one value per element of an image, and each image is one flat span
//! of `c·h·w` elements. Which one runs is a pure function of `(h, w)`,
//! and both compute the same chains; the sums above are the same code
//! in both.

use crate::ops::act::{swish, swish_grad};
use crate::ops::simd::on_lane;
use crate::scratch::{scratch_f32, ScratchVec};
use crate::tensor::Tensor;

/// What follows the affine step of a batch-norm layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Act {
    /// `y = z`.
    Identity,
    /// `y = z·σ(z)`.
    Swish,
}

/// Partial sums per channel reduction; see the order contract.
const PARTIALS: usize = 8;
/// Planes with fewer elements run image by image; see "Regimes".
pub const SMALL_PLANE: usize = 16;
/// Elements of a plane [`bn_backward_reduce`] writes before it sums
/// them, so the sums read L1. A multiple of [`PARTIALS`], so a block
/// boundary does not move an element to another partial.
const BLOCK: usize = 512;

type Partials = [f64; PARTIALS];

/// `(n, c, h·w)` of an `NCHW` tensor.
fn nc_plane(x: &Tensor) -> (usize, usize, usize) {
    let s = x.shape();
    (s.n(), s.c(), s.h() * s.w())
}

/// Adds one plane (or a [`PARTIALS`]-aligned part of one) to the
/// partials of `Σa` and `Σa·b`.
#[inline(always)]
fn pair_sums(a: &[f32], b: &[f32], s: &mut Partials, q: &mut Partials) {
    let ((a8, a_rest), (b8, b_rest)) = (a.as_chunks::<PARTIALS>(), b.as_chunks::<PARTIALS>());
    for (va, vb) in a8.iter().zip(b8) {
        for j in 0..PARTIALS {
            let v = va[j] as f64;
            s[j] += v;
            q[j] += v * vb[j] as f64;
        }
    }
    for (j, (&va, &vb)) in a_rest.iter().zip(b_rest).enumerate() {
        let v = va as f64;
        s[j] += v;
        q[j] += v * vb as f64;
    }
}

#[inline(always)]
fn fold64(p: &Partials) -> f64 {
    ((p[0] + p[4]) + (p[2] + p[6])) + ((p[1] + p[5]) + (p[3] + p[7]))
}

#[inline(always)]
fn fold(p: &Partials) -> f32 {
    fold64(p) as f32
}

/// `Σx²` of a flat slice in `f64`, by the order contract's rule for one
/// plane: partial `j` takes the elements `k ≡ j (mod 8)`, `k` ascending,
/// and the eight fold in the fixed tree. Eight independent chains where
/// a sequential sum is one, so a parameter-sized norm (LARS, LAMB,
/// gradient clipping) runs at memory speed instead of add latency.
/// Compiled for the baseline target on every lane: LLVM vectorizes the
/// `f64` partials there, and no vector width is named.
pub fn sum_sq(x: &[f32]) -> f64 {
    let mut s = [0.0; PARTIALS];
    let (x8, rest) = x.as_chunks::<PARTIALS>();
    for v in x8 {
        for j in 0..PARTIALS {
            let d = v[j] as f64;
            s[j] += d * d;
        }
    }
    for (j, &v) in rest.iter().enumerate() {
        let d = v as f64;
        s[j] += d * d;
    }
    fold64(&s)
}

/// `sum[ch] = Σa`, `sum_ab[ch] = Σa·b` over the planes of channel `ch`.
fn channel_pair_sums(
    (n, c, plane): (usize, usize, usize),
    a: &[f32],
    b: &[f32],
    sum: &mut [f32],
    sum_ab: &mut [f32],
) {
    for ch in 0..c {
        let (mut s, mut q) = ([0.0; PARTIALS], [0.0; PARTIALS]);
        for img in 0..n {
            let at = (img * c + ch) * plane;
            pair_sums(&a[at..][..plane], &b[at..][..plane], &mut s, &mut q);
        }
        sum[ch] = fold(&s);
        sum_ab[ch] = fold(&q);
    }
}

/// A per-channel parameter as a span of elements sees it: one value for
/// a whole plane, or one value per element of an image.
trait Chan: Copy {
    fn at(self, i: usize) -> f32;
    /// `self` for a span of `len` elements (lets the loop drop the
    /// bounds check of [`Chan::at`]).
    fn cut(self, len: usize) -> Self;
}

impl Chan for f32 {
    #[inline(always)]
    fn at(self, _: usize) -> f32 {
        self
    }
    #[inline(always)]
    fn cut(self, _: usize) -> f32 {
        self
    }
}

impl Chan for &[f32] {
    #[inline(always)]
    fn at(self, i: usize) -> f32 {
        self[i]
    }
    #[inline(always)]
    fn cut(self, len: usize) -> Self {
        &self[..len]
    }
}

/// `buf` as `K` consecutive runs of `len` elements.
#[inline(always)]
fn runs<const K: usize>(buf: &[f32], len: usize) -> [&[f32]; K] {
    std::array::from_fn(|k| &buf[k * len..][..len])
}

/// `K` per-channel parameter vectors, each expanded to one value per
/// element of an image ([`runs`] of `c·plane`).
fn expand<const K: usize>(params: [&[f32]; K], plane: usize) -> ScratchVec {
    let len = params[0].len() * plane;
    let mut e = scratch_f32(K * len);
    for (p, dst) in params.iter().zip(e.chunks_exact_mut(len.max(1))) {
        for (&v, d) in p.iter().zip(dst.chunks_exact_mut(plane.max(1))) {
            d.fill(v);
        }
    }
    e
}

/// The spans the elementwise passes walk: `(first element, length,
/// channel)` per plane, or per image with no channel when the planes
/// are small.
#[inline(always)]
fn spans((n, c, plane): (usize, usize, usize)) -> impl Iterator<Item = (usize, usize, usize)> {
    let (count, len) = if plane >= SMALL_PLANE {
        (n * c, plane)
    } else {
        (n, c * plane)
    };
    (0..count).map(move |i| (i * len, len, i % c.max(1)))
}

#[allow(clippy::needless_range_loop)] // `Chan::at` takes the index
#[inline(always)]
fn apply_span<P: Chan>(
    x: &[f32],
    xhat: Option<&mut [f32]>,
    y: &mut [f32],
    params: [P; 4],
    act: impl Fn(f32) -> f32,
) {
    let len = x.len();
    let [mean, inv_std, gamma, beta] = params.map(|p| p.cut(len));
    let y = &mut y[..len];
    let xhat_at = |i: usize| (x[i] - mean.at(i)) * inv_std.at(i);
    match xhat {
        Some(xhat) => {
            let xhat = &mut xhat[..len];
            for i in 0..len {
                xhat[i] = xhat_at(i);
                y[i] = act(gamma.at(i) * xhat[i] + beta.at(i));
            }
        }
        None => {
            for i in 0..len {
                y[i] = act(gamma.at(i) * xhat_at(i) + beta.at(i));
            }
        }
    }
}

#[inline(always)]
fn apply(
    dims: (usize, usize, usize),
    x: &[f32],
    mut xhat: Option<&mut [f32]>,
    y: &mut [f32],
    params: [&[f32]; 4],
    act: impl Fn(f32) -> f32 + Copy,
) {
    let plane = dims.2;
    let expanded = (plane < SMALL_PLANE).then(|| expand(params, plane));
    for (at, len, ch) in spans(dims) {
        let (x, y) = (&x[at..][..len], &mut y[at..][..len]);
        let xhat = xhat.as_deref_mut().map(|h| &mut h[at..][..len]);
        match &expanded {
            None => apply_span(x, xhat, y, params.map(|p| p[ch]), act),
            Some(e) => apply_span(x, xhat, y, runs(e, len), act),
        }
    }
}

#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn grad_span<P: Chan>(
    dy: &[f32],
    xhat: &[f32],
    g: &mut [f32],
    params: [P; 2],
    grad: impl Fn(f32, f32) -> f32,
) {
    let len = dy.len();
    let [gamma, beta] = params.map(|p| p.cut(len));
    let (xhat, g) = (&xhat[..len], &mut g[..len]);
    for i in 0..len {
        g[i] = grad(gamma.at(i) * xhat[i] + beta.at(i), dy[i]);
    }
}

#[allow(clippy::too_many_arguments)]
fn backward_reduce(
    dims: (usize, usize, usize),
    dy: &[f32],
    xhat: &[f32],
    g: &mut [f32],
    params: [&[f32]; 2],
    sum_g: &mut [f32],
    sum_gx: &mut [f32],
    grad: impl Fn(f32, f32) -> f32 + Copy,
) {
    let (n, c, plane) = dims;
    if plane < SMALL_PLANE {
        let e = expand(params, plane);
        on_lane(
            #[inline(always)]
            || {
                for (at, len, _) in spans(dims) {
                    let (dy, e) = (&dy[at..][..len], runs(&e, len));
                    grad_span(dy, &xhat[at..], &mut g[at..], e, grad);
                }
            },
        );
        return channel_pair_sums(dims, g, xhat, sum_g, sum_gx);
    }
    for ch in 0..c {
        let (mut s, mut q) = ([0.0; PARTIALS], [0.0; PARTIALS]);
        let params = params.map(|p| p[ch]);
        for img in 0..n {
            let first = (img * c + ch) * plane;
            for at in (first..first + plane).step_by(BLOCK) {
                let len = BLOCK.min(first + plane - at);
                let (dy, xhat, g) = (&dy[at..][..len], &xhat[at..][..len], &mut g[at..][..len]);
                on_lane(
                    #[inline(always)]
                    || grad_span(dy, xhat, g, params, grad),
                );
                pair_sums(g, xhat, &mut s, &mut q);
            }
        }
        sum_g[ch] = fold(&s);
        sum_gx[ch] = fold(&q);
    }
}

#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn dx_span<P: Chan>(dx: &mut [f32], xhat: &[f32], params: [P; 3]) {
    let len = dx.len();
    let [a, mean_g, mean_gx] = params.map(|p| p.cut(len));
    let xhat = &xhat[..len];
    for i in 0..len {
        dx[i] = a.at(i) * (dx[i] - mean_g.at(i) - xhat[i] * mean_gx.at(i));
    }
}

fn check_channels(c: usize, per_channel: &[&[f32]]) {
    assert!(
        per_channel.iter().all(|p| p.len() == c),
        "batch-norm kernel: per-channel slices must have {c} elements"
    );
}

/// Per-channel `sum = Σx` and `sum_sq = Σx²` over `(N, H, W)`.
pub fn bn_moments(x: &Tensor, sum: &mut [f32], sum_sq: &mut [f32]) {
    let dims = nc_plane(x);
    check_channels(dims.1, &[sum, sum_sq]);
    channel_pair_sums(dims, x.data(), x.data(), sum, sum_sq)
}

/// `y = act(γ·x̂ + β)` with `x̂ = (x − mean)·inv_std`, per channel;
/// `x̂` is also written to `xhat` when given (training keeps it for the
/// backward). `xhat` and `y` must have the shape of `x`.
#[allow(clippy::too_many_arguments)]
pub fn bn_apply(
    x: &Tensor,
    mean: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    beta: &[f32],
    act: Act,
    xhat: Option<&mut Tensor>,
    y: &mut Tensor,
) {
    let dims = nc_plane(x);
    let params = [mean, inv_std, gamma, beta];
    check_channels(dims.1, &params);
    assert!(
        y.shape().same_as(x.shape()) && xhat.as_ref().is_none_or(|h| h.shape().same_as(x.shape())),
        "bn_apply shape mismatch"
    );
    let (x, xhat, y) = (x.data(), xhat.map(Tensor::data_mut), y.data_mut());
    on_lane(
        #[inline(always)]
        || match act {
            Act::Identity => apply(dims, x, xhat, y, params, |z| z),
            Act::Swish => apply(dims, x, xhat, y, params, swish),
        },
    )
}

/// Writes `g = dy·act′(γ·x̂ + β)` to `dx` and reduces `sum_g = Σg`,
/// `sum_gx = Σg·x̂` per channel over `(N, H, W)`.
#[allow(clippy::too_many_arguments)]
pub fn bn_backward_reduce(
    dy: &Tensor,
    xhat: &Tensor,
    gamma: &[f32],
    beta: &[f32],
    act: Act,
    dx: &mut Tensor,
    sum_g: &mut [f32],
    sum_gx: &mut [f32],
) {
    let dims = nc_plane(dy);
    check_channels(dims.1, &[gamma, beta, sum_g, sum_gx]);
    assert!(
        dy.shape().same_as(xhat.shape()) && dx.shape().same_as(dy.shape()),
        "bn_backward_reduce shape mismatch"
    );
    let (dy, xhat, g, params) = (dy.data(), xhat.data(), dx.data_mut(), [gamma, beta]);
    match act {
        Act::Identity => backward_reduce(dims, dy, xhat, g, params, sum_g, sum_gx, |_, dy| dy),
        Act::Swish => backward_reduce(dims, dy, xhat, g, params, sum_g, sum_gx, swish_grad),
    }
}

/// Turns the `g` that [`bn_backward_reduce`] left in `dx` into the input
/// gradient, in place: `dx = γ·inv_std·(g − sum_g/count −
/// x̂·sum_gx/count)`, with the sums reduced over the batch-norm group
/// and `count` its elements per channel.
pub fn bn_backward_apply(
    dx: &mut Tensor,
    xhat: &Tensor,
    gamma: &[f32],
    inv_std: &[f32],
    sum_g: &[f32],
    sum_gx: &[f32],
    count: f32,
) {
    let dims = nc_plane(dx);
    let (c, plane) = (dims.1, dims.2);
    check_channels(c, &[gamma, inv_std, sum_g, sum_gx]);
    assert!(
        dx.shape().same_as(xhat.shape()),
        "bn_backward_apply shape mismatch"
    );
    let inv_count = 1.0 / count;
    let mut coef = scratch_f32(3 * c);
    for ch in 0..c {
        coef[ch] = gamma[ch] * inv_std[ch];
        coef[c + ch] = sum_g[ch] * inv_count;
        coef[2 * c + ch] = sum_gx[ch] * inv_count;
    }
    let coef: [&[f32]; 3] = runs(&coef, c);
    let (dx, xhat) = (dx.data_mut(), xhat.data());
    on_lane(
        #[inline(always)]
        || {
            let expanded = (plane < SMALL_PLANE).then(|| expand(coef, plane));
            for (at, len, ch) in spans(dims) {
                let (dx, xhat) = (&mut dx[at..][..len], &xhat[at..]);
                match &expanded {
                    None => dx_span(dx, xhat, coef.map(|p| p[ch])),
                    Some(e) => dx_span(dx, xhat, runs(e, len)),
                }
            }
        },
    )
}
