//! The batch-norm kernels of `ops::reduce` against their order contract,
//! bitwise:
//!
//! - moments, `x̂`, `y`, `dβ = Σg`, `dγ = Σg·x̂` and `dx` equal a
//!   reference written from the module's docs (one scalar chain per
//!   element; eight `f64` partials by `k mod 8`, folded in the stated
//!   tree), for both epilogues, on shapes at every edge of the two
//!   regimes (planes of 1, 4, 15, 16, 17, 255, 257 and 1024 elements,
//!   one image, one channel, channel counts that are no multiple of 8);
//! - the same on every available SIMD lane path;
//! - the moments agree with the sequential `f64` loops they replaced
//!   (`channel_sum`, `channel_sum_sq`, kept here as the reference) to
//!   1e-6 relative;
//! - steady-state calls never grow the scratch arena.

mod common;

use common::{bits, rand_vec};
use ets_tensor::ops::act::{swish, swish_grad};
use ets_tensor::ops::reduce::{
    bn_apply, bn_backward_apply, bn_backward_reduce, bn_moments, sum_sq, Act, SMALL_PLANE,
};
use ets_tensor::ops::simd::{ForcedLaneGuard, LanePath};
use ets_tensor::{scratch_reallocs_local, Tensor};

const EPS: f32 = 1e-3;

/// `[n, c, h, w]`.
type Dims = [usize; 4];

const CASES: [Dims; 14] = [
    [3, 5, 1, 1],
    [1, 13, 1, 1],
    [3, 8, 2, 2],
    [2, 5, 3, 5],
    [3, 5, 4, 4],
    [1, 1, 4, 4],
    [2, 3, 1, 17],
    [2, 3, 15, 17],
    [1, 2, 1, 257],
    [3, 1, 16, 16],
    [2, 13, 8, 8],
    [1, 1, 1, 1],
    [2, 2, 32, 32],
    [1, 3, 24, 32],
];

struct Operands {
    x: Tensor,
    dy: Tensor,
    gamma: Vec<f32>,
    beta: Vec<f32>,
}

fn operands(dims: Dims, seed: u64) -> Operands {
    let len = dims.iter().product();
    // Off-centre so the sums do not cancel.
    let x = rand_vec(seed, len).iter().map(|v| 2.0 * v + 0.75).collect();
    Operands {
        x: Tensor::from_vec(dims, x),
        dy: Tensor::from_vec(dims, rand_vec(seed + 1, len)),
        gamma: rand_vec(seed + 2, dims[1])
            .iter()
            .map(|v| 1.0 + 0.5 * v)
            .collect(),
        beta: rand_vec(seed + 3, dims[1]),
    }
}

/// Everything a training step takes from the four kernels, in order:
/// `Σx`, `Σx²`, `x̂`, `y`, `Σg`, `Σg·x̂`, `dx`.
type Outputs = [Vec<u32>; 7];

/// Mean and `1/σ` from the moments, as `BatchNorm2d` derives them.
fn statistics(sum: &[f32], sum_sq: &[f32], count: f32) -> (Vec<f32>, Vec<f32>) {
    sum.iter()
        .zip(sum_sq)
        .map(|(&s, &q)| {
            let mean = s / count;
            let var = (q / count - mean * mean).max(0.0);
            (mean, 1.0 / (var + EPS).sqrt())
        })
        .unzip()
}

fn kernels(dims: Dims, ops: &Operands, act: Act) -> Outputs {
    let [n, c, h, w] = dims;
    let count = (n * h * w) as f32;
    let (mut sum, mut sum_sq) = (vec![0.0; c], vec![0.0; c]);
    bn_moments(&ops.x, &mut sum, &mut sum_sq);
    let (mean, inv_std) = statistics(&sum, &sum_sq, count);
    let (mut xhat, mut y) = (Tensor::zeros(dims), Tensor::zeros(dims));
    bn_apply(
        &ops.x,
        &mean,
        &inv_std,
        &ops.gamma,
        &ops.beta,
        act,
        Some(&mut xhat),
        &mut y,
    );
    // The same pass without keeping x̂ (the eval route) must agree.
    let mut y_only = Tensor::zeros(dims);
    bn_apply(
        &ops.x,
        &mean,
        &inv_std,
        &ops.gamma,
        &ops.beta,
        act,
        None,
        &mut y_only,
    );
    assert_eq!(bits(y.data()), bits(y_only.data()), "{dims:?} {act:?}");
    let (mut sum_g, mut sum_gx) = (vec![0.0; c], vec![0.0; c]);
    let mut dx = Tensor::zeros(dims);
    bn_backward_reduce(
        &ops.dy,
        &xhat,
        &ops.gamma,
        &ops.beta,
        act,
        &mut dx,
        &mut sum_g,
        &mut sum_gx,
    );
    bn_backward_apply(&mut dx, &xhat, &ops.gamma, &inv_std, &sum_g, &sum_gx, count);
    [
        bits(&sum),
        bits(&sum_sq),
        bits(xhat.data()),
        bits(y.data()),
        bits(&sum_g),
        bits(&sum_gx),
        bits(dx.data()),
    ]
}

/// `(Σa, Σa·b)` per channel by the order contract: partial `k mod 8`,
/// images then `k` ascending, one fixed fold, one rounding.
fn contract_sums(dims: Dims, a: &[f32], b: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let [n, c, h, w] = dims;
    let plane = h * w;
    let fold = |p: [f64; 8]| ((p[0] + p[4]) + (p[2] + p[6])) + ((p[1] + p[5]) + (p[3] + p[7]));
    (0..c)
        .map(|ch| {
            let (mut s, mut q) = ([0.0f64; 8], [0.0f64; 8]);
            for img in 0..n {
                for k in 0..plane {
                    let i = (img * c + ch) * plane + k;
                    s[k % 8] += a[i] as f64;
                    q[k % 8] += a[i] as f64 * b[i] as f64;
                }
            }
            (fold(s) as f32, fold(q) as f32)
        })
        .unzip()
}

fn reference(dims: Dims, ops: &Operands, act: Act) -> Outputs {
    let [n, c, h, w] = dims;
    let (plane, count) = (h * w, (n * h * w) as f32);
    let channel = |i: usize| (i / plane) % c;
    let x = ops.x.data();
    let (sum, sum_sq) = contract_sums(dims, x, x);
    let (mean, inv_std) = statistics(&sum, &sum_sq, count);
    let xhat: Vec<f32> = (0..x.len())
        .map(|i| (x[i] - mean[channel(i)]) * inv_std[channel(i)])
        .collect();
    let z = |i: usize| ops.gamma[channel(i)] * xhat[i] + ops.beta[channel(i)];
    let y: Vec<f32> = (0..x.len())
        .map(|i| match act {
            Act::Identity => z(i),
            Act::Swish => swish(z(i)),
        })
        .collect();
    let g: Vec<f32> = (0..x.len())
        .map(|i| match act {
            Act::Identity => ops.dy.data()[i],
            Act::Swish => swish_grad(z(i), ops.dy.data()[i]),
        })
        .collect();
    let (sum_g, sum_gx) = contract_sums(dims, &g, &xhat);
    let inv_count = 1.0 / count;
    let dx: Vec<f32> = (0..x.len())
        .map(|i| {
            let ch = channel(i);
            let a = ops.gamma[ch] * inv_std[ch];
            a * (g[i] - sum_g[ch] * inv_count - xhat[i] * (sum_gx[ch] * inv_count))
        })
        .collect();
    [
        bits(&sum),
        bits(&sum_sq),
        bits(&xhat),
        bits(&y),
        bits(&sum_g),
        bits(&sum_gx),
        bits(&dx),
    ]
}

const NAMES: [&str; 7] = ["sum", "sum_sq", "xhat", "y", "dbeta", "dgamma", "dx"];

fn assert_same(got: &Outputs, want: &Outputs, what: &str) {
    for ((g, w), name) in got.iter().zip(want).zip(NAMES) {
        let first = g.iter().zip(w).position(|(a, b)| a != b);
        assert!(first.is_none(), "{what}: {name} differs at {first:?}");
    }
}

#[test]
fn the_cases_cover_both_regimes_and_their_edge() {
    let planes: Vec<usize> = CASES.iter().map(|d| d[2] * d[3]).collect();
    for plane in [1, 4, 15, 16, 17, 255, 257, 1024] {
        assert!(planes.contains(&plane), "no case with a plane of {plane}");
    }
    assert!(planes.contains(&(SMALL_PLANE - 1)) && planes.contains(&SMALL_PLANE));
    assert!(CASES.iter().any(|d| d[0] == 1) && CASES.iter().any(|d| d[1] == 1));
    assert!(CASES.iter().any(|d| d[1] % 8 != 0 && d[1] > 8));
}

#[test]
fn kernels_equal_the_order_contract_on_every_lane() {
    for (i, &dims) in CASES.iter().enumerate() {
        let ops = operands(dims, 100 + 10 * i as u64);
        for act in [Act::Identity, Act::Swish] {
            let want = reference(dims, &ops, act);
            for lane in LanePath::ALL.into_iter().filter(|l| l.available()) {
                let _lane = ForcedLaneGuard::new(lane);
                let got = kernels(dims, &ops, act);
                assert_same(&got, &want, &format!("{dims:?} {act:?} {lane:?}"));
            }
        }
    }
}

#[test]
fn results_repeat_bitwise() {
    let dims = [2, 13, 8, 8];
    let ops = operands(dims, 7);
    let first = kernels(dims, &ops, Act::Swish);
    assert_same(&kernels(dims, &ops, Act::Swish), &first, "rerun");
}

/// The loops `bn_moments` replaced: one sequential `f64` chain per
/// channel, for the sum and for the sum of squares.
fn sequential_moments(dims: Dims, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let [n, c, h, w] = dims;
    let plane = h * w;
    (0..c)
        .map(|ch| {
            let (mut s, mut q) = (0.0f64, 0.0f64);
            for img in 0..n {
                for &v in &x[(img * c + ch) * plane..][..plane] {
                    s += v as f64;
                    q += (v as f64) * (v as f64);
                }
            }
            (s as f32, q as f32)
        })
        .unzip()
}

#[test]
fn moments_agree_with_the_sequential_loops_they_replaced() {
    for (i, &dims) in CASES.iter().enumerate() {
        let ops = operands(dims, 500 + i as u64);
        let (want_s, want_q) = sequential_moments(dims, ops.x.data());
        let (mut s, mut q) = (vec![0.0; dims[1]], vec![0.0; dims[1]]);
        bn_moments(&ops.x, &mut s, &mut q);
        for (got, want) in s.iter().zip(&want_s).chain(q.iter().zip(&want_q)) {
            assert!(
                (got - want).abs() <= 1e-6 * want.abs(),
                "{dims:?}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn steady_state_calls_do_not_grow_the_scratch_arena() {
    let cases: Vec<(Dims, Operands)> = CASES.iter().map(|&d| (d, operands(d, 9))).collect();
    let sweep = || {
        for (dims, ops) in &cases {
            kernels(*dims, ops, Act::Swish);
        }
    };
    sweep();
    let warm = scratch_reallocs_local();
    for _ in 0..3 {
        sweep();
    }
    assert_eq!(
        scratch_reallocs_local(),
        warm,
        "expanded parameters must be pooled"
    );
}

/// `sum_sq` (the norm behind `Tensor::l2_norm`): bitwise the order
/// contract's eight partials on every lane, and as close to the exact
/// sum as the sequential `f64` loop it replaced.
#[test]
fn sum_sq_follows_the_order_contract_on_every_lane() {
    for (i, len) in [0usize, 1, 7, 8, 9, 4099, 3_500_000]
        .into_iter()
        .enumerate()
    {
        let x = rand_vec(900 + i as u64, len);
        let mut p = [0.0f64; 8];
        for (k, &v) in x.iter().enumerate() {
            p[k % 8] += v as f64 * v as f64;
        }
        let want = ((p[0] + p[4]) + (p[2] + p[6])) + ((p[1] + p[5]) + (p[3] + p[7]));
        for path in LanePath::ALL.into_iter().filter(|p| p.available()) {
            let _guard = ForcedLaneGuard::new(path);
            assert_eq!(
                sum_sq(&x).to_bits(),
                want.to_bits(),
                "len {len} on {}",
                path.name()
            );
            let norm = Tensor::from_vec([len], x.clone()).l2_norm();
            assert_eq!(norm.to_bits(), (want.sqrt() as f32).to_bits(), "len {len}");
        }
        // Squares of `f32` are exact in `f64`, so Neumaier's compensated
        // sum of them is the exact sum to an ulp. The eight short chains
        // must land no farther from it than the one long chain they
        // replaced (measured: 22 against 73 ulps at 4099 elements, 1980
        // against 6063 at 3.5 M), or within the 4 ulps either is off by
        // on a handful of elements.
        let (mut exact, mut comp, mut sequential) = (0.0f64, 0.0f64, 0.0f64);
        for &v in &x {
            let sq = v as f64 * v as f64;
            sequential += sq;
            let t = exact + sq;
            comp += if exact >= sq {
                (exact - t) + sq
            } else {
                (sq - t) + exact
            };
            exact = t;
        }
        exact += comp;
        let ulp = (exact * f64::EPSILON).max(f64::MIN_POSITIVE);
        let (got, old) = ((want - exact).abs() / ulp, (sequential - exact).abs() / ulp);
        assert!(
            got <= old.max(4.0),
            "len {len}: {got} ulps from the exact sum, the sequential loop {old}"
        );
    }
}
