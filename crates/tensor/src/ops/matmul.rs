//! The naive streaming GEMM kernel: the small-shape tail of
//! [`super::dispatch::gemm`] and the reference semantics the packed
//! kernel in [`super::gemm_blocked`] is tested against.
//!
//! One kernel, [`gemm_naive`], serves every [`GemmDesc`]. It walks the
//! rows of `C` sequentially with f32 accumulation (matching the
//! systolic-array semantics modeled in the pod simulator: bf16 or f32
//! multiplies, f32 accumulate); the transposed orientations read their
//! operand in place because materializing transposes would blow the
//! memory budget of the backward hot loops. [`matmul`] is the
//! tensor-level wrapper and routes through the dispatcher, so large
//! products take the blocked path automatically.
//!
//! **Association is part of the contract** — every trained loss bit
//! depends on it — and differs per orientation:
//!
//! - `AB` / `AᵀB` stream `B` row-wise (ikj order) and add each product
//!   into `C` in place: `c_old + a₀b₀ + a₁b₁ + …` (with `c_old = 0.0`
//!   when overwriting).
//! - `ABᵀ` is a row-by-row dot product: it sums `a₀b₀ + a₁b₁ + …` into
//!   a register starting from `0.0` and touches `C` once, so an
//!   accumulating product is `c_old + (a₀b₀ + a₁b₁ + …)`.
//!
//! **bf16** ([`GemmPrecision::Bf16`]) quantizes both operands through
//! bf16 into arena scratch and streams them through the same loops —
//! bitwise what the packed kernel's narrow-at-pack-time computes on the
//! same summation order, with zero steady-state allocation.
//!
//! Accumulation is **branchless**: there is deliberately no
//! `if apv == 0.0 { continue; }` skip. Such a skip maps `0·∞` and `0·NaN`
//! to `0` instead of `NaN`, which silently launders non-finite values and
//! defeats the trainer's nan_guard. For finite inputs the skip was also
//! bitwise-neutral (`0.0 * x` is `±0.0` and `c + ±0.0 == c` for any
//! finite or zero `c` under round-to-nearest), so removing it changes no
//! pinned history.

use super::dispatch::{GemmDesc, GemmPrecision, Orient};
use crate::bf16::round_f32;
use crate::scratch::{scratch_f32, ScratchVec};
use crate::tensor::Tensor;

/// Widest `C` row the `AB` / `AᵀB` loop accumulates in local arrays
/// ([`narrow_row`]).
const NARROW_N: usize = 16;

/// `crow += a_row · B` for a `C` row of at most [`NARROW_N`] columns
/// (late-stage 2×2 and 4×4 maps at batch 1): the row is cut into
/// power-of-two pieces and each piece stays in a fixed-size local array
/// across the whole k loop, instead of a load–add–store per product.
/// Per element it is the same `c_old + a₀b₀ + a₁b₁ + …` chain.
fn narrow_row(a: &[f32], a0: usize, a_stride: usize, k: usize, b: &[f32], crow: &mut [f32]) {
    debug_assert!(crow.len() <= NARROW_N);
    let j = narrow_piece::<16>(a, a0, a_stride, k, b, crow, 0);
    let j = narrow_piece::<8>(a, a0, a_stride, k, b, crow, j);
    let j = narrow_piece::<4>(a, a0, a_stride, k, b, crow, j);
    let j = narrow_piece::<2>(a, a0, a_stride, k, b, crow, j);
    narrow_piece::<1>(a, a0, a_stride, k, b, crow, j);
}

/// Columns `j0..j0 + W` of [`narrow_row`] when the row's width has the
/// `W` bit set; returns the first column not yet done.
fn narrow_piece<const W: usize>(
    a: &[f32],
    a0: usize,
    a_stride: usize,
    k: usize,
    b: &[f32],
    crow: &mut [f32],
    j0: usize,
) -> usize {
    let n = crow.len();
    if n & W == 0 {
        return j0;
    }
    let mut acc = [0.0f32; W];
    acc.copy_from_slice(&crow[j0..j0 + W]);
    for p in 0..k {
        let apv = a[a0 + p * a_stride];
        let brow = &b[p * n + j0..p * n + j0 + W];
        for (cv, &bv) in acc.iter_mut().zip(brow) {
            *cv += apv * bv;
        }
    }
    crow[j0..j0 + W].copy_from_slice(&acc);
    j0 + W
}

/// A copy of `src` rounded through bf16, in arena scratch.
fn quantized(src: &[f32]) -> ScratchVec<f32> {
    let mut q = scratch_f32(src.len());
    for (d, &s) in q.iter_mut().zip(src) {
        *d = round_f32(s);
    }
    q
}

/// `C ⟵ [C +] A·B` on raw slices with the streaming kernel, for any
/// descriptor. See the module docs for the per-orientation association.
pub fn gemm_naive(desc: GemmDesc, a: &[f32], b: &[f32], c: &mut [f32]) {
    let GemmDesc {
        m,
        k,
        n,
        orient,
        accumulate,
        precision,
    } = desc;
    assert_eq!(a.len(), m * k, "A dims for {desc:?}");
    assert_eq!(b.len(), k * n, "B dims for {desc:?}");
    assert_eq!(c.len(), m * n, "C dims for {desc:?}");
    if precision == GemmPrecision::Bf16 {
        let f32_desc = GemmDesc {
            precision: GemmPrecision::F32,
            ..desc
        };
        return gemm_naive(f32_desc, &quantized(a), &quantized(b), c);
    }
    for i in 0..m {
        let crow = &mut c[i * n..(i + 1) * n];
        // Row i of the effective A: contiguous unless `a` is stored k×m,
        // where it is column i (stride m).
        let (a0, a_stride) = match orient {
            Orient::AtB => (i, m),
            Orient::AB | Orient::ABt => (i * k, 1),
        };
        match orient {
            Orient::AB | Orient::AtB => {
                if !accumulate {
                    crow.iter_mut().for_each(|v| *v = 0.0);
                }
                if n <= NARROW_N {
                    narrow_row(a, a0, a_stride, k, b, crow);
                } else {
                    for p in 0..k {
                        let apv = a[a0 + p * a_stride];
                        let brow = &b[p * n..(p + 1) * n];
                        for (cv, &bv) in crow.iter_mut().zip(brow) {
                            *cv += apv * bv;
                        }
                    }
                }
            }
            // b stored n×k: one dot product per output element.
            Orient::ABt => {
                let arow = &a[a0..a0 + k];
                for (j, cv) in crow.iter_mut().enumerate() {
                    let brow = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    for (&av, &bv) in arow.iter().zip(brow) {
                        acc += av * bv;
                    }
                    *cv = if accumulate { *cv + acc } else { acc };
                }
            }
        }
    }
}

/// Tensor-level `A(m×k) · B(k×n)`. Dispatches via [`super::dispatch`].
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = mat_dims(a, "A");
    let (k2, n) = mat_dims(b, "B");
    assert_eq!(k, k2, "matmul inner dims: A is {m}x{k}, B is {k2}x{n}");
    let mut c = Tensor::zeros([m, n]);
    super::dispatch::gemm_auto(m, k, n, a.data(), b.data(), c.data_mut());
    c
}

fn mat_dims(t: &Tensor, name: &str) -> (usize, usize) {
    assert_eq!(
        t.shape().rank(),
        2,
        "{name} must be a matrix, got {}",
        t.shape()
    );
    (t.shape().dim(0), t.shape().dim(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Naive reference for validation.
    fn reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn rand_vec(rng: &mut Rng, n: usize) -> Vec<f32> {
        let mut v = vec![0.0; n];
        rng.fill_uniform(&mut v, -1.0, 1.0);
        v
    }

    fn transpose(rows: usize, cols: usize, s: &[f32]) -> Vec<f32> {
        let mut t = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = s[r * cols + c];
            }
        }
        t
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    /// Every orientation × accumulate against the textbook loop, from
    /// 1×1×1 up to a shape past the dispatcher's blocked threshold.
    #[test]
    fn every_orientation_matches_reference_various_sizes() {
        let mut rng = Rng::new(1);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (13, 21, 9),
            (16, 16, 16),
            (33, 17, 29),
            (64, 128, 32),
            (128, 64, 96),
        ] {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            let r = reference(m, k, n, &a, &b);
            let (a_t, b_t) = (transpose(m, k, &a), transpose(k, n, &b));
            for orient in Orient::ALL {
                let (lhs, rhs) = match orient {
                    Orient::AB => (&a, &b),
                    Orient::AtB => (&a_t, &b),
                    Orient::ABt => (&a, &b_t),
                };
                for (accumulate, init) in [(false, 7.5f32), (true, 2.5)] {
                    let desc = GemmDesc {
                        orient,
                        accumulate,
                        ..GemmDesc::new(m, k, n)
                    };
                    let mut c = vec![init; m * n];
                    gemm_naive(desc, lhs, rhs, &mut c);
                    let bias = if accumulate { init } else { 0.0 };
                    for (x, y) in c.iter().zip(&r) {
                        assert!((x - (y + bias)).abs() < 1e-4, "{desc:?}: {x} vs {y}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn inner_dim_mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        let _ = matmul(&a, &b);
    }

    /// The old kernels skipped `apv == 0.0` terms, silently mapping
    /// `0·∞` and `0·NaN` to `0` and hiding non-finite values from the
    /// nan_guard. Accumulation is branchless now: NaN and ∞ must
    /// propagate through every descriptor even when the matching
    /// multiplier is zero.
    #[test]
    fn non_finite_values_propagate_through_zero_multipliers() {
        let (m, k, n) = (2, 3, 2);
        // A row 0 = [0, 1, 0]; B has a NaN in row 0 and an inf in row 2,
        // both multiplied by A's zeros.
        let a = vec![0.0, 1.0, 0.0, 1.0, 1.0, 1.0];
        let b = vec![f32::NAN, 2.0, 3.0, 4.0, f32::INFINITY, 6.0];
        let (a_t, b_t) = (transpose(m, k, &a), transpose(k, n, &b));
        for orient in Orient::ALL {
            let (lhs, rhs) = match orient {
                Orient::AB => (&a, &b),
                Orient::AtB => (&a_t, &b),
                Orient::ABt => (&a, &b_t),
            };
            for accumulate in [false, true] {
                for precision in [GemmPrecision::F32, GemmPrecision::Bf16] {
                    let desc = GemmDesc {
                        m,
                        k,
                        n,
                        orient,
                        accumulate,
                        precision,
                    };
                    let mut c = vec![0.0; m * n];
                    gemm_naive(desc, lhs, rhs, &mut c);
                    assert!(c[0].is_nan(), "{desc:?}: 0·NaN gave {}", c[0]);
                }
            }
        }
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::new(5);
        let a = Tensor::from_vec([4, 4], rand_vec(&mut rng, 16));
        let mut eye = Tensor::zeros([4, 4]);
        for i in 0..4 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        let c = matmul(&a, &eye);
        assert!(a.max_abs_diff(&c) < 1e-6);
    }
}
