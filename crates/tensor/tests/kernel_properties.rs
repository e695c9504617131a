//! Property-based tests of the tensor kernels: algebraic identities that
//! must hold for arbitrary shapes and data — linearity of convolution,
//! adjointness of im2col/col2im and pooling, GEMM distributivity, and the
//! transposed-kernel equivalences the backward passes rely on.

use ets_tensor::ops::conv::{conv2d_forward, Conv2dGeom};
use ets_tensor::ops::dispatch::{GemmDesc, Orient};
use ets_tensor::ops::matmul::{gemm_naive, matmul};
use ets_tensor::ops::pool::{global_avg_pool, global_avg_pool_backward};
use ets_tensor::{Rng, Shape, Tensor};
use proptest::prelude::*;

fn rand_tensor(seed: u64, dims: &[usize]) -> Tensor {
    let mut rng = Rng::new(seed);
    let mut t = Tensor::zeros(dims);
    rng.fill_uniform(t.data_mut(), -1.0, 1.0);
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// conv(a·x + b·y, w) == a·conv(x, w) + b·conv(y, w).
    #[test]
    fn convolution_is_linear_in_input(
        seed in 0u64..500,
        c_in in 1usize..4,
        c_out in 1usize..4,
        hw in 4usize..8,
        stride in 1usize..3,
        a in -2.0f32..2.0,
        b in -2.0f32..2.0,
    ) {
        let x = rand_tensor(seed, &[1, c_in, hw, hw]);
        let y = rand_tensor(seed + 1, &[1, c_in, hw, hw]);
        let w = rand_tensor(seed + 2, &[c_out, c_in, 3, 3]);
        let mixed = x.zip(&y, |xv, yv| a * xv + b * yv);
        let lhs = conv2d_forward(&mixed, &w, stride, 1);
        let mut rhs = conv2d_forward(&x, &w, stride, 1);
        rhs.scale(a);
        rhs.axpy(b, &conv2d_forward(&y, &w, stride, 1));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    /// conv(x, w) at stride 1 with a 1×1 kernel is a per-pixel matmul.
    #[test]
    fn one_by_one_conv_is_channel_matmul(
        seed in 0u64..500,
        c_in in 1usize..5,
        c_out in 1usize..5,
        hw in 2usize..6,
    ) {
        let x = rand_tensor(seed, &[1, c_in, hw, hw]);
        let w = rand_tensor(seed + 9, &[c_out, c_in, 1, 1]);
        let y = conv2d_forward(&x, &w, 1, 0);
        for i in 0..hw {
            for j in 0..hw {
                for co in 0..c_out {
                    let mut acc = 0.0f32;
                    for ci in 0..c_in {
                        acc += w.at(&[co, ci, 0, 0]) * x.at(&[0, ci, i, j]);
                    }
                    prop_assert!((y.at(&[0, co, i, j]) - acc).abs() < 1e-4);
                }
            }
        }
    }

    /// <im2col(x), p> == <x, col2im(p)> for arbitrary geometry.
    #[test]
    fn im2col_col2im_adjoint(
        seed in 0u64..500,
        c in 1usize..4,
        hw in 4usize..9,
        k in 1usize..4,
        stride in 1usize..3,
    ) {
        use ets_tensor::ops::conv::{col2im, im2col};
        let k = 2 * k - 1; // odd kernel
        prop_assume!(k <= hw);
        let pad = (k - 1) / 2;
        let x = rand_tensor(seed, &[1, c, hw, hw]);
        let wshape = Shape::new(&[1, c, k, k]);
        let g = Conv2dGeom::infer(x.shape(), &wshape, stride, pad);
        let mut patches = vec![0.0; g.k() * g.p()];
        im2col(&g, x.data(), &mut patches);
        let mut p = vec![0.0; g.k() * g.p()];
        Rng::new(seed + 77).fill_uniform(&mut p, -1.0, 1.0);
        let lhs: f64 = patches.iter().zip(&p).map(|(&a, &b)| a as f64 * b as f64).sum();
        let mut back = vec![0.0; x.numel()];
        col2im(&g, &p, &mut back);
        let rhs: f64 = x.data().iter().zip(&back).map(|(&a, &b)| a as f64 * b as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    /// A(B + C) == AB + AC.
    #[test]
    fn gemm_distributes(
        seed in 0u64..500,
        m in 1usize..8,
        k in 1usize..8,
        n in 1usize..8,
    ) {
        let a = rand_tensor(seed, &[m, k]);
        let b = rand_tensor(seed + 1, &[k, n]);
        let c = rand_tensor(seed + 2, &[k, n]);
        let bc = b.zip(&c, |x, y| x + y);
        let lhs = matmul(&a, &bc);
        let mut rhs = matmul(&a, &b);
        rhs.add_assign(&matmul(&a, &c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    /// The transposed-layout kernels agree with explicit transposition.
    #[test]
    fn transposed_kernels_equal_explicit_transpose(
        seed in 0u64..500,
        m in 1usize..7,
        k in 1usize..7,
        n in 1usize..7,
    ) {
        let mut rng = Rng::new(seed);
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        rng.fill_uniform(&mut a, -1.0, 1.0);
        rng.fill_uniform(&mut b, -1.0, 1.0);
        let mut want = vec![0.0f32; m * n];
        gemm_naive(GemmDesc::new(m, k, n), &a, &b, &mut want);

        // Aᵀ stored as k×m.
        let mut a_t = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                a_t[p * m + i] = a[i * k + p];
            }
        }
        let mut got = vec![0.0f32; m * n];
        let at_b = GemmDesc { orient: Orient::AtB, ..GemmDesc::new(m, k, n) };
        gemm_naive(at_b, &a_t, &b, &mut got);
        for (x, y) in got.iter().zip(&want) {
            prop_assert!((x - y).abs() < 1e-4);
        }

        // Bᵀ stored as n×k.
        let mut b_t = vec![0.0f32; n * k];
        for p in 0..k {
            for j in 0..n {
                b_t[j * k + p] = b[p * n + j];
            }
        }
        let mut got2 = vec![0.0f32; m * n];
        let a_bt = GemmDesc { orient: Orient::ABt, ..GemmDesc::new(m, k, n) };
        gemm_naive(a_bt, &a, &b_t, &mut got2);
        for (x, y) in got2.iter().zip(&want) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Global average pooling and its backward are adjoint.
    #[test]
    fn gap_adjoint(
        seed in 0u64..500,
        n in 1usize..4,
        c in 1usize..4,
        hw in 1usize..6,
    ) {
        let x = rand_tensor(seed, &[n, c, hw, hw]);
        let g = rand_tensor(seed + 5, &[n, c]);
        let y = global_avg_pool(&x);
        let lhs: f64 = y.data().iter().zip(g.data()).map(|(&a, &b)| a as f64 * b as f64).sum();
        let dx = global_avg_pool_backward(&g, hw, hw);
        let rhs: f64 = x.data().iter().zip(dx.data()).map(|(&a, &b)| a as f64 * b as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()));
    }

    /// Strided conv output matches the stride-1 output subsampled.
    #[test]
    fn strided_conv_subsamples_stride1(
        seed in 0u64..500,
        c in 1usize..3,
        hw in 5usize..9,
    ) {
        prop_assume!(hw % 2 == 1); // odd extent keeps SAME grids aligned
        let x = rand_tensor(seed, &[1, c, hw, hw]);
        let w = rand_tensor(seed + 3, &[2, c, 3, 3]);
        let full = conv2d_forward(&x, &w, 1, 1);
        let strided = conv2d_forward(&x, &w, 2, 1);
        for co in 0..2 {
            for i in 0..strided.shape().h() {
                for j in 0..strided.shape().w() {
                    let a = strided.at(&[0, co, i, j]);
                    let b = full.at(&[0, co, 2 * i, 2 * j]);
                    prop_assert!((a - b).abs() < 1e-5);
                }
            }
        }
    }
}
