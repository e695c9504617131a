//! The dense conv as three batch-wide GEMMs (`Y = W·B`, `dB = Wᵀ·dY`,
//! `dW = dY·Bᵀ` over all `N·P` columns), checked from outside over a
//! grid of batch sizes, map sizes and kernel geometries that lands on
//! both sides of the dispatch threshold and includes `c_out < MR` and
//! `K < BLOCKED_MIN_K`:
//!
//! - forward against an f64 direct convolution, backward against finite
//!   differences of that reference (exact up to f64 rounding: the conv is
//!   linear in `x` and in `w`);
//! - bf16 ≡ quantize-the-operands-then-f32, bitwise, forward and backward;
//! - reruns and every SIMD lane path agree bitwise;
//! - a NaN in image `i` reaches only image `i`'s outputs in forward and
//!   reaches `dw` in backward, even against a zero upstream gradient (the
//!   trainer's nan_guard contract);
//! - steady-state calls never grow the scratch arena.

mod common;

use common::{bits, rand_vec};
use ets_tensor::bf16::quantize_tensor;
use ets_tensor::ops::conv::{
    conv2d_backward, conv2d_backward_p, conv2d_forward, conv2d_forward_p, Conv2dGeom,
};
use ets_tensor::ops::dispatch::{blocked_profitable, GemmPrecision, BLOCKED_MIN_K};
use ets_tensor::ops::gemm_blocked::MR;
use ets_tensor::ops::simd::{ForcedLaneGuard, LanePath};
use ets_tensor::{scratch_reallocs_local, Tensor};

/// One conv call: `x` is `[n, c_in, h, w]`, `wt` is `[c_out, c_in, k, k]`.
#[derive(Clone, Copy, Debug)]
struct Case {
    n: usize,
    c_in: usize,
    h: usize,
    w: usize,
    c_out: usize,
    k: usize,
    stride: usize,
    pad: usize,
}

impl Case {
    fn geom(&self) -> Conv2dGeom {
        let x = [self.n, self.c_in, self.h, self.w];
        let wt = [self.c_out, self.c_in, self.k, self.k];
        Conv2dGeom::infer(&x.into(), &wt.into(), self.stride, self.pad)
    }

    /// Seeded `(x, w, dy)` for this case.
    fn operands(&self, seed: u64) -> (Tensor, Tensor, Tensor) {
        let g = self.geom();
        let t = |shape: ets_tensor::Shape, seed| {
            let data = rand_vec(seed, shape.numel());
            Tensor::from_vec(shape, data)
        };
        (
            t(g.in_shape(), seed),
            t([self.c_out, self.c_in, self.k, self.k].into(), seed + 1),
            t(g.out_shape(), seed + 2),
        )
    }

    /// Does the forward product `(c_out, K, N·P)` take the packed kernel?
    fn forward_blocked(&self) -> bool {
        let g = self.geom();
        blocked_profitable(g.c_out, g.k(), g.cols())
    }
}

/// (kernel, stride, pad, [(c_in, c_out); 2]).
type Kind = (usize, usize, usize, [(usize, usize); 2]);

/// Per kernel geometry one channel pair that can never leave the naive
/// kernel (`c_out < MR`, and `K < BLOCKED_MIN_K` where the kernel size
/// allows it) and one that goes blocked as soon as `N·P` is large enough.
const KINDS: [Kind; 3] = [
    (1, 1, 0, [(8, 3), (32, 16)]),
    (3, 2, 1, [(2, 3), (8, 16)]),
    (5, 2, 2, [(1, 3), (4, 8)]),
];

/// N ∈ {1, 2, 3, 8} × P ∈ {1, 4, 16, 49} × [`KINDS`], plus one
/// rectangular map and one stride-1 3×3 (overlapping patches).
fn grid() -> Vec<Case> {
    let mut cases = Vec::new();
    for n in [1, 2, 3, 8] {
        for side_out in [1, 2, 4, 7] {
            for (k, stride, pad, channels) in KINDS {
                for (c_in, c_out) in channels {
                    let side = side_out * stride;
                    cases.push(Case {
                        n,
                        c_in,
                        h: side,
                        w: side,
                        c_out,
                        k,
                        stride,
                        pad,
                    });
                }
            }
        }
    }
    let extra = |(n, c_in, h, w, c_out, k, stride, pad)| Case {
        n,
        c_in,
        h,
        w,
        c_out,
        k,
        stride,
        pad,
    };
    cases.push(extra((2, 3, 9, 7, 5, 3, 2, 1)));
    cases.push(extra((2, 8, 12, 12, 8, 3, 1, 1)));
    cases
}

#[test]
fn grid_covers_what_it_claims() {
    let cases = grid();
    for (k, ..) in KINDS {
        let of_kind = || cases.iter().filter(move |c| c.k == k);
        assert!(
            of_kind().any(|c| c.forward_blocked()),
            "{k}×{k}: no blocked case"
        );
        assert!(
            of_kind().any(|c| !c.forward_blocked()),
            "{k}×{k}: no naive case"
        );
        for p in [1, 4, 16, 49] {
            assert!(of_kind().any(|c| c.geom().p() == p), "{k}×{k}: no P = {p}");
        }
    }
    assert!(cases.iter().any(|c| c.c_out < MR));
    assert!(cases.iter().any(|c| c.geom().k() < BLOCKED_MIN_K));
}

/// `Σ conv(x, w) · dy` by direct loops in f64.
fn loss64(g: &Conv2dGeom, x: &[f64], w: &[f64], dy: &[f32]) -> f64 {
    let mut loss = 0.0;
    for i in 0..g.n {
        for co in 0..g.c_out {
            for oh in 0..g.h_out {
                for ow in 0..g.w_out {
                    let out = ((i * g.c_out + co) * g.h_out + oh) * g.w_out + ow;
                    loss += conv64_at(g, x, w, i, co, oh, ow) * dy[out] as f64;
                }
            }
        }
    }
    loss
}

/// One output element of the direct convolution, in f64.
fn conv64_at(
    g: &Conv2dGeom,
    x: &[f64],
    w: &[f64],
    i: usize,
    co: usize,
    oh: usize,
    ow: usize,
) -> f64 {
    let mut acc = 0.0;
    for ci in 0..g.c_in {
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let ih = (oh * g.stride + ki) as isize - g.pad as isize;
                let iw = (ow * g.stride + kj) as isize - g.pad as isize;
                if ih < 0 || iw < 0 || ih >= g.h as isize || iw >= g.w as isize {
                    continue;
                }
                let xi = ((i * g.c_in + ci) * g.h + ih as usize) * g.w + iw as usize;
                let wi = ((co * g.c_in + ci) * g.kh + ki) * g.kw + kj;
                acc += x[xi] * w[wi];
            }
        }
    }
    acc
}

fn widen(v: &[f32]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

#[test]
fn forward_matches_f64_direct_convolution() {
    for (idx, case) in grid().iter().enumerate() {
        let g = case.geom();
        let (x, wt, _) = case.operands(1000 + idx as u64);
        let y = conv2d_forward(&x, &wt, case.stride, case.pad);
        assert_eq!(y.shape().dims(), g.out_shape().dims(), "{case:?}");
        let (x64, w64) = (widen(x.data()), widen(wt.data()));
        let mut out = 0;
        for i in 0..g.n {
            for co in 0..g.c_out {
                for oh in 0..g.h_out {
                    for ow in 0..g.w_out {
                        let want = conv64_at(&g, &x64, &w64, i, co, oh, ow);
                        let got = y.data()[out] as f64;
                        assert!(
                            (got - want).abs() < 1e-4,
                            "{case:?} y[{out}]: {got} vs {want}"
                        );
                        out += 1;
                    }
                }
            }
        }
    }
}

/// Central difference of `loss` along `dir` from `at`; exact for a
/// function linear in that argument, whatever the step.
fn slope(at: &[f64], dir: &[f64], loss: impl Fn(&[f64]) -> f64) -> f64 {
    let moved = |s: f64| -> Vec<f64> { at.iter().zip(dir).map(|(a, d)| a + s * d).collect() };
    (loss(&moved(0.5)) - loss(&moved(-0.5))) / (2.0 * 0.5)
}

/// `grad` against finite differences along one random direction (every
/// coordinate at once) and along three single coordinates.
fn check_gradient(grad: &[f32], at: &[f64], seed: u64, loss: impl Fn(&[f64]) -> f64, ctx: &str) {
    let len = grad.len();
    let mut dirs = vec![widen(&rand_vec(seed, len))];
    for coord in [0, len / 2, len - 1] {
        let mut e = vec![0.0; len];
        e[coord] = 1.0;
        dirs.push(e);
    }
    for dir in dirs {
        let analytic: f64 = grad.iter().zip(&dir).map(|(&g, d)| g as f64 * d).sum();
        let numeric = slope(at, &dir, &loss);
        assert!(
            (analytic - numeric).abs() < 1e-3 * (1.0 + numeric.abs()),
            "{ctx}: analytic {analytic} vs finite difference {numeric}"
        );
    }
}

#[test]
fn backward_matches_finite_differences_of_the_reference() {
    for (idx, case) in grid().iter().enumerate() {
        let g = case.geom();
        let seed = 2000 + 10 * idx as u64;
        let (x, wt, dy) = case.operands(seed);
        let (dx, dw) = conv2d_backward(&x, &wt, &dy, case.stride, case.pad);
        let (x64, w64) = (widen(x.data()), widen(wt.data()));
        check_gradient(
            dx.data(),
            &x64,
            seed + 3,
            |xs| loss64(&g, xs, &w64, dy.data()),
            &format!("{case:?} dx"),
        );
        check_gradient(
            dw.data(),
            &w64,
            seed + 4,
            |ws| loss64(&g, &x64, ws, dy.data()),
            &format!("{case:?} dw"),
        );
    }
}

/// Both bf16 kernels round each operand element once and then run the
/// f32 arithmetic of the same route, so they must equal quantizing `x`,
/// `w` and `dy` up front — on the naive and on the packed side.
#[test]
fn bf16_equals_quantize_operands_then_f32_bitwise() {
    let bf16 = GemmPrecision::Bf16;
    for (idx, case) in grid().iter().enumerate() {
        let (x, wt, dy) = case.operands(3000 + idx as u64);
        let (xq, wq, dyq) = (
            quantize_tensor(&x),
            quantize_tensor(&wt),
            quantize_tensor(&dy),
        );
        let (s, p) = (case.stride, case.pad);
        let y = conv2d_forward_p(&x, &wt, s, p, bf16);
        assert_eq!(
            bits(y.data()),
            bits(conv2d_forward(&xq, &wq, s, p).data()),
            "{case:?} y"
        );
        let (dx, dw) = conv2d_backward_p(&x, &wt, &dy, s, p, bf16);
        let (dxq, dwq) = conv2d_backward(&xq, &wq, &dyq, s, p);
        assert_eq!(bits(dx.data()), bits(dxq.data()), "{case:?} dx");
        assert_eq!(bits(dw.data()), bits(dwq.data()), "{case:?} dw");
    }
}

/// Bits of `(y, dx, dw)` in both precisions.
fn all_outputs(case: &Case, seed: u64) -> Vec<Vec<u32>> {
    let (x, wt, dy) = case.operands(seed);
    let mut out = Vec::new();
    for precision in common::PRECISIONS {
        let y = conv2d_forward_p(&x, &wt, case.stride, case.pad, precision);
        let (dx, dw) = conv2d_backward_p(&x, &wt, &dy, case.stride, case.pad, precision);
        out.extend([bits(y.data()), bits(dx.data()), bits(dw.data())]);
    }
    out
}

#[test]
fn reruns_and_lane_paths_agree_bitwise() {
    for (idx, case) in grid().iter().enumerate() {
        let seed = 4000 + idx as u64;
        let oracle = {
            let _lane = ForcedLaneGuard::new(LanePath::Scalar);
            all_outputs(case, seed)
        };
        assert_eq!(all_outputs(case, seed), oracle, "{case:?}: rerun diverged");
        for path in LanePath::ALL {
            if path.available() {
                let _lane = ForcedLaneGuard::new(path);
                assert_eq!(
                    all_outputs(case, seed),
                    oracle,
                    "{case:?} on {}",
                    path.name()
                );
            }
        }
    }
}

/// Elements of image `i` in an `[N, ...]` tensor.
fn image(t: &Tensor, i: usize) -> &[f32] {
    let len = t.numel() / t.shape().dim(0);
    &t.data()[i * len..(i + 1) * len]
}

#[test]
fn nan_stays_in_its_image_and_reaches_dw() {
    let poisoned = 1;
    for case in grid().iter().filter(|c| c.n > 1) {
        for precision in common::PRECISIONS {
            let (s, p) = (case.stride, case.pad);
            let (mut x, wt, mut dy) = case.operands(5000);
            let img_len = x.numel() / case.n;
            // Centre pixel of channel 0: inside every kernel's reach.
            let centre = (case.h / 2) * case.w + case.w / 2;
            x.data_mut()[poisoned * img_len + centre] = f32::NAN;

            let y = conv2d_forward_p(&x, &wt, s, p, precision);
            for i in 0..case.n {
                let nans = image(&y, i).iter().filter(|v| v.is_nan()).count();
                if i == poisoned {
                    assert!(
                        nans >= case.c_out,
                        "{case:?} {precision:?}: NaN lost in forward"
                    );
                } else {
                    assert_eq!(nans, 0, "{case:?} {precision:?}: NaN leaked into image {i}");
                }
            }

            // A zero upstream gradient for the poisoned image must not
            // launder its NaN out of dw (0·NaN = NaN); dx never reads x.
            let out_len = dy.numel() / case.n;
            dy.data_mut()[poisoned * out_len..(poisoned + 1) * out_len].fill(0.0);
            let (dx, dw) = conv2d_backward_p(&x, &wt, &dy, s, p, precision);
            assert!(
                dw.data().iter().any(|v| v.is_nan()),
                "{case:?} {precision:?}: dw"
            );
            assert!(
                dx.data().iter().all(|v| v.is_finite()),
                "{case:?} {precision:?}: dx"
            );

            // A NaN in dy of one image reaches that image's dx only.
            let (x, wt, mut dy) = case.operands(5000);
            dy.data_mut()[poisoned * out_len] = f32::NAN;
            let (dx, dw) = conv2d_backward_p(&x, &wt, &dy, s, p, precision);
            assert!(
                dw.data().iter().any(|v| v.is_nan()),
                "{case:?} {precision:?}: dw from dy"
            );
            for i in 0..case.n {
                let has_nan = image(&dx, i).iter().any(|v| v.is_nan());
                assert_eq!(
                    has_nan,
                    i == poisoned,
                    "{case:?} {precision:?}: dx image {i}"
                );
            }
        }
    }
}

#[test]
fn steady_state_calls_never_grow_the_scratch_arena() {
    let cases = grid();
    let sweep = || {
        for (idx, case) in cases.iter().enumerate() {
            all_outputs(case, 6000 + idx as u64);
        }
    };
    sweep();
    let warm = scratch_reallocs_local();
    sweep();
    sweep();
    assert_eq!(
        scratch_reallocs_local(),
        warm,
        "fold/unfold/patch buffers must be pooled"
    );
}
