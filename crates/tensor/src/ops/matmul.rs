//! The naive streaming GEMM kernel: the small-shape tail of
//! [`super::dispatch::gemm`] and the reference semantics the packed
//! kernel in [`super::gemm_blocked`] is tested against.
//!
//! One kernel, [`gemm_naive`], serves every [`GemmDesc`]. It walks the
//! rows of `C` with f32 accumulation (matching the systolic-array
//! semantics modeled in the pod simulator: bf16 or f32 multiplies, f32
//! accumulate); the transposed orientations read their operand in place
//! because materializing transposes would blow the memory budget of the
//! backward hot loops (the narrow `ABᵀ` route below copies a `B` of at
//! most 16 columns, nothing weight-sized). [`matmul`] is the
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
//! # Narrow routes
//!
//! With one image per replica on a late-stage map the batch-folded conv
//! products have 1–16 columns and are bound by the weights they read,
//! not by FLOPs. Inside [`gemm_naive`], as a pure function of shape,
//! such products change their loop order and nothing else:
//!
//! - `AB`, n ≤ 16: four or eight rows of `C` at a time in local
//!   arrays. A single row is one latency-bound add chain per element;
//!   several rows are independent chains, and `A` streams once.
//! - `AᵀB`, n ≤ 16: `p` outer, `i` inner. The stored `k×m` operand is
//!   read row by row (contiguous) as axpys into `C`, four rows per pass
//!   over `C`, instead of column by column at stride `m`.
//! - `ABᵀ`, k ≤ 16: `B` is transposed once into `k×n` scratch and each
//!   row of `C` is `k` axpys of contiguous rows rather than `n` dot
//!   products of length `k`; the sum still starts from `0.0` in a
//!   register tile and touches `C` once.
//!
//! Every element of `C` keeps the chain stated above, `p` ascending, so
//! the routes are bitwise equal to the plain loops (the test oracle in
//! `tests/kernel_equivalence.rs` is that association written as a
//! triple loop) and run on every [`LanePath`](super::simd::LanePath).
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
use super::simd::on_lane;
use crate::bf16::round_f32;
use crate::scratch::{scratch_f32, ScratchVec};
use crate::tensor::Tensor;

/// Widest narrow dimension: `AB` / `AᵀB` products with `n ≤ NARROW_N`
/// columns and `ABᵀ` products with `k ≤ NARROW_N` take the
/// weight-streaming routes (module docs, "Narrow routes").
const NARROW_N: usize = 16;

/// Rows of `C` that [`ab_narrow`] advances together for pieces `w`
/// columns wide: at most 64 accumulators, at most 8 rows.
const fn ab_block_rows(w: usize) -> usize {
    if w >= 16 {
        4
    } else {
        8
    }
}

/// Rows of the stored operand [`atb_narrow`] folds into `C` per pass.
const ATB_ROWS: usize = 4;

/// Columns of a `C` row [`abt_narrow`] keeps in a local array at a time.
const ABT_TILE: usize = 32;

/// Runs `piece(W, j0)` for the power-of-two pieces `j0..j0 + W` that a
/// row of `n ≤ NARROW_N` columns is cut into, widest first. Every
/// element of `C` is its own chain, so cutting a row by columns moves
/// no bit.
macro_rules! for_pieces {
    ($n:expr, |$w:ident, $j0:ident| $body:expr) => {{
        let mut $j0 = 0;
        for_pieces!(@one $n, $w, $j0, $body, 16, 8, 4, 2, 1);
    }};
    (@one $n:expr, $w:ident, $j0:ident, $body:expr, $($width:literal),+) => {$(
        if $n & $width != 0 {
            const $w: usize = $width;
            $body;
            $j0 += $width;
        }
    )+};
}

/// Columns `j0..j0 + W` of `R` consecutive rows of `C += A·B`, with `A`
/// the `R` rows at `a` (row-major, `k` wide) and `c` the `R` rows of
/// `C` (`n` wide). The `R·W` accumulators stay in local arrays across
/// the whole `k` loop, so `A` streams once and the `R` rows are
/// independent chains that hide the add latency a single row is bound
/// by. Per element it is `c_old + a₀b₀ + a₁b₁ + …`.
#[inline(always)]
fn ab_rows<const W: usize, const R: usize>(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    c: &mut [f32],
    j0: usize,
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..][..k]);
    let mut acc = [[0.0f32; W]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[r * n + j0..][..W]);
    }
    for p in 0..k {
        let brow: &[f32; W] = b[p * n + j0..][..W].try_into().expect("W columns");
        for (row, arow) in acc.iter_mut().zip(arows) {
            let apv = arow[p];
            for (cv, &bv) in row.iter_mut().zip(brow) {
                *cv += apv * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[r * n + j0..][..W].copy_from_slice(row);
    }
}

/// `C += A·B` for `n ≤ NARROW_N`: [`ab_rows`] over blocks of
/// [`ab_block_rows`] rows, then row by row for the tail.
#[inline(always)]
fn ab_narrow(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    #[inline(always)]
    fn piece<const W: usize, const R: usize>(
        (m, k, n): (usize, usize, usize),
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        j0: usize,
    ) {
        let blocks = m / R;
        for i in 0..blocks {
            ab_rows::<W, R>(&a[i * R * k..], k, b, n, &mut c[i * R * n..], j0);
        }
        for i in blocks * R..m {
            ab_rows::<W, 1>(&a[i * k..], k, b, n, &mut c[i * n..], j0);
        }
    }
    let dims = (m, k, n);
    for_pieces!(n, |W, j0| piece::<W, { ab_block_rows(W) }>(
        dims, a, b, c, j0
    ));
}

/// `C += AᵀB` for `n ≤ NARROW_N`, with `a` stored `k×m`: the loops are
/// interchanged to `p` outer / `i` inner, so each contiguous row of the
/// stored operand is read once, as the multipliers of one axpy of `B`'s
/// row `p` into every row of `C` (which is `m·n` floats and stays in
/// cache). Element `(i, j)` still sees `p` ascending:
/// `c_old + a₀b₀ + a₁b₁ + …`.
#[inline(always)]
fn atb_narrow(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    /// Rows `p0..p0 + P` of the stored operand into `cols`, which are
    /// columns `j0..j0 + W` of every row of `C`; `p` ascending per
    /// element.
    #[inline(always)]
    fn rows<'c, const W: usize, const P: usize>(
        (m, n): (usize, usize),
        a: &[f32],
        b: &[f32],
        cols: impl Iterator<Item = &'c mut [f32; W]>,
        (p0, j0): (usize, usize),
    ) {
        let arows: [&[f32]; P] = std::array::from_fn(|q| &a[(p0 + q) * m..][..m]);
        let brows: [&[f32; W]; P] =
            std::array::from_fn(|q| b[(p0 + q) * n + j0..][..W].try_into().expect("W columns"));
        for (i, cw) in cols.enumerate() {
            let mut acc = *cw;
            for (arow, brow) in arows.iter().zip(brows) {
                let apv = arow[i];
                for (cv, &bv) in acc.iter_mut().zip(brow) {
                    *cv += apv * bv;
                }
            }
            *cw = acc;
        }
    }
    #[inline(always)]
    fn pass<const W: usize, const P: usize>(
        dims: (usize, usize),
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        at: (usize, usize),
    ) {
        let (n, j0) = (dims.1, at.1);
        if n == W {
            // The row is one piece: `c` is `m` arrays of `W`.
            rows::<W, P>(dims, a, b, c.as_chunks_mut::<W>().0.iter_mut(), at)
        } else {
            let cols = c
                .chunks_exact_mut(n)
                .map(|row| <&mut [f32; W]>::try_from(&mut row[j0..j0 + W]).expect("W columns"));
            rows::<W, P>(dims, a, b, cols, at)
        }
    }
    let dims = (m, n);
    for_pieces!(n, |W, j0| {
        let blocks = k / ATB_ROWS;
        for blk in 0..blocks {
            pass::<W, ATB_ROWS>(dims, a, b, c, (blk * ATB_ROWS, j0));
        }
        for p in blocks * ATB_ROWS..k {
            pass::<W, 1>(dims, a, b, c, (p, j0));
        }
    });
}

/// `C ⟵ [C +] A·Bᵀ` for `k ≤ NARROW_N`, with `b` stored `n×k`: `B` is
/// transposed once into `k×n` scratch, and each row of `C` is then `k`
/// axpys of contiguous rows instead of `n` dot products of length `k`.
/// [`ABT_TILE`] columns at a time sum `0.0 + a₀b₀ + a₁b₁ + …` in a
/// local array and touch `C` once.
#[inline(always)]
fn abt_narrow(desc: GemmDesc, a: &[f32], b: &[f32], c: &mut [f32]) {
    let GemmDesc { m, k, n, .. } = desc;
    let transposed;
    let bt: &[f32] = if k == 1 {
        b
    } else {
        let mut t = scratch_f32(k * n);
        for j in 0..n {
            for p in 0..k {
                t[p * n + j] = b[j * k + p];
            }
        }
        transposed = t;
        &transposed
    };
    for i in 0..m {
        let arow = &a[i * k..][..k];
        for (t, ctile) in c[i * n..][..n].chunks_mut(ABT_TILE).enumerate() {
            let len = ctile.len();
            let mut acc = [0.0f32; ABT_TILE];
            for (p, &apv) in arow.iter().enumerate() {
                let brow = &bt[p * n + t * ABT_TILE..][..len];
                for (x, &bv) in acc[..len].iter_mut().zip(brow) {
                    *x += apv * bv;
                }
            }
            for (cv, &x) in ctile.iter_mut().zip(&acc) {
                *cv = if desc.accumulate { *cv + x } else { x };
            }
        }
    }
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
    if orient != Orient::ABt && !accumulate {
        c.fill(0.0);
    }
    match orient {
        Orient::AB if n <= NARROW_N => on_lane(
            #[inline(always)]
            || ab_narrow(m, k, n, a, b, c),
        ),
        Orient::AtB if n <= NARROW_N => on_lane(
            #[inline(always)]
            || atb_narrow(m, k, n, a, b, c),
        ),
        Orient::ABt if k <= NARROW_N => on_lane(
            #[inline(always)]
            || abt_narrow(desc, a, b, c),
        ),
        Orient::AB | Orient::AtB => {
            for (i, crow) in c.chunks_exact_mut(n).enumerate() {
                // Row i of the effective A: contiguous unless `a` is
                // stored k×m, where it is column i (stride m).
                let (a0, a_stride) = match orient {
                    Orient::AtB => (i, m),
                    _ => (i * k, 1),
                };
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
            for i in 0..m {
                let arow = &a[i * k..][..k];
                for (j, cv) in c[i * n..][..n].iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for (&av, &bv) in arow.iter().zip(&b[j * k..][..k]) {
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
    /// multiplier is zero, on the narrow routes (a row inside a row
    /// block and one in its tail) and the general ones alike.
    #[test]
    fn non_finite_values_propagate_through_zero_multipliers() {
        for (m, k, n) in [(2, 3, 2), (9, 3, 1), (9, 5, 16), (10, 16, 40), (3, 20, 20)] {
            // B has a NaN in row 0 and an inf in row 2, both in column 0.
            let mut b = vec![2.0; k * n];
            (b[0], b[2 * n]) = (f32::NAN, f32::INFINITY);
            for zero_row in [0, m - 1] {
                // That row of A is [0, 1, 0, 0, …]: zeros meet both.
                let mut a = vec![1.0; m * k];
                a[zero_row * k..][..k].fill(0.0);
                a[zero_row * k + 1] = 1.0;
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
                            let got = c[zero_row * n];
                            assert!(got.is_nan(), "{desc:?} row {zero_row}: 0·NaN gave {got}");
                        }
                    }
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
