//! Micro-benchmarks of the compute kernels that dominate training:
//! GEMM (f32 and bf16-mixed), dense convolution and depthwise convolution
//! (forward and backward per regime).
//!
//! `Criterion::default()` is the canonical constructor; the offline stub
//! models `Criterion` as a unit struct, which would otherwise trip
//! clippy's `default_constructed_unit_structs` under `-D warnings`.
#![allow(clippy::default_constructed_unit_structs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ets_tensor::ops::conv::{conv2d_backward, conv2d_forward, im2col, Conv2dGeom};
use ets_tensor::ops::depthwise::{depthwise_backward, depthwise_forward};
use ets_tensor::ops::dispatch::{gemm, GemmDesc, GemmPrecision, Orient};
use ets_tensor::ops::gemm_blocked::{
    gemm_blocked, gemm_prepacked, pack_a_into, packed_a_len, PanelA, PanelB,
};
use ets_tensor::ops::matmul::gemm_naive;
use ets_tensor::{same_pad, scratch_f32, Rng, Shape, Tensor};

fn rand_vec(rng: &mut Rng, n: usize) -> Vec<f32> {
    let mut v = vec![0.0; n];
    rng.fill_uniform(&mut v, -1.0, 1.0);
    v
}

fn rand_tensor(rng: &mut Rng, dims: &[usize]) -> Tensor {
    let mut t = Tensor::zeros(dims);
    rng.fill_uniform(t.data_mut(), -1.0, 1.0);
    t
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    let mut rng = Rng::new(1);
    for &n in &[64usize, 128, 256] {
        let a = rand_vec(&mut rng, n * n);
        let b = rand_vec(&mut rng, n * n);
        let mut out = vec![0.0; n * n];
        group.throughput(Throughput::Elements((n * n * n) as u64));
        let plain = GemmDesc::new(n, n, n);
        let bf16 = GemmDesc {
            precision: GemmPrecision::Bf16,
            ..plain
        };
        group.bench_function(BenchmarkId::new("f32", n), |bench| {
            bench.iter(|| gemm_naive(plain, &a, &b, &mut out));
        });
        group.bench_function(BenchmarkId::new("bf16_mixed", n), |bench| {
            bench.iter(|| gemm(bf16, &a, &b, &mut out));
        });
        group.bench_function(BenchmarkId::new("blocked", n), |bench| {
            bench.iter(|| gemm_blocked(plain, &a, &b, &mut out));
        });
        for (tag, orient) in [("at_b", Orient::AtB), ("a_bt", Orient::ABt)] {
            let desc = GemmDesc { orient, ..plain };
            group.bench_function(BenchmarkId::new(format!("{tag}_naive"), n), |bench| {
                bench.iter(|| gemm_naive(desc, &a, &b, &mut out));
            });
            group.bench_function(BenchmarkId::new(format!("{tag}_blocked"), n), |bench| {
                bench.iter(|| gemm_blocked(desc, &a, &b, &mut out));
            });
        }
    }
    group.finish();
}

/// The three conv-GEMM strategies head-to-head on one image of a
/// stage-5-sized 3×3 conv (the `BENCH_kernels.json` calibration shape).
fn bench_conv_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_gemm_strategy");
    group.sample_size(10);
    let mut rng = Rng::new(9);
    let xs = Shape::new(&[1, 128, 56, 56]);
    let wsh = Shape::new(&[256, 128, 3, 3]);
    let g = Conv2dGeom::infer(&xs, &wsh, 1, 1);
    let (m, k, n) = (g.c_out, g.k(), g.p());
    let mut img = vec![0.0f32; 128 * 56 * 56];
    rng.fill_uniform(&mut img, -1.0, 1.0);
    let mut w = vec![0.0f32; m * k];
    rng.fill_uniform(&mut w, -0.5, 0.5);
    let mut y = vec![0.0f32; m * n];
    let mut patches = vec![0.0f32; k * n];
    group.bench_function("im2col_naive", |bench| {
        bench.iter(|| {
            im2col(&g, &img, &mut patches);
            gemm_naive(GemmDesc::new(m, k, n), &w, &patches, &mut y);
        });
    });
    group.bench_function("im2col_blocked", |bench| {
        bench.iter(|| {
            im2col(&g, &img, &mut patches);
            gemm_blocked(GemmDesc::new(m, k, n), &w, &patches, &mut y);
        });
    });
    let mut ap = scratch_f32(packed_a_len(m, k));
    pack_a_into::<f32>(PanelA::RowMajor(&w), m, k, &mut ap);
    group.bench_function("fused_patches", |bench| {
        bench.iter(|| {
            gemm_prepacked::<f32>(
                m,
                k,
                n,
                &ap,
                PanelB::Patches {
                    geom: &g,
                    img: &img,
                },
                &mut y,
                false,
            );
        });
    });
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d");
    let mut rng = Rng::new(2);
    // A stem-like conv and an MBConv-projection-like 1×1.
    let x = rand_tensor(&mut rng, &[4, 16, 32, 32]);
    let w3 = rand_tensor(&mut rng, &[32, 16, 3, 3]);
    let w1 = rand_tensor(&mut rng, &[64, 16, 1, 1]);
    group.bench_function("3x3_s1_16to32_b4_32px", |b| {
        b.iter(|| conv2d_forward(&x, &w3, 1, 1));
    });
    group.bench_function("1x1_16to64_b4_32px", |b| {
        b.iter(|| conv2d_forward(&x, &w1, 1, 0));
    });
    let y = conv2d_forward(&x, &w3, 1, 1);
    group.bench_function("backward_3x3", |b| {
        b.iter(|| conv2d_backward(&x, &w3, &y, 1, 1));
    });
    group.finish();
}

/// One forward and one backward bench per depthwise regime, at the
/// b0half shapes (batch 8) that land in it: rows at stride 1, rows at
/// stride 2 on a wide and on a narrow map, and the constant-geometry
/// small maps where most 5×5 taps are padding.
fn bench_depthwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("depthwise");
    let mut rng = Rng::new(4);
    for (name, ch, side, k, stride) in [
        ("3x3_s1_32px", 16, 32, 3, 1),
        ("3x3_s2_32px", 48, 32, 3, 2),
        ("5x5_s2_16px", 96, 16, 5, 2),
        ("5x5_s1_4px", 336, 4, 5, 1),
        ("5x5_s1_2px", 576, 2, 5, 1),
    ] {
        let x = rand_tensor(&mut rng, &[8, ch, side, side]);
        let w = rand_tensor(&mut rng, &[ch, 1, k, k]);
        let dy = depthwise_forward(&x, &w, stride, same_pad(k));
        group.bench_function(BenchmarkId::new("forward", name), |b| {
            b.iter(|| depthwise_forward(&x, &w, stride, same_pad(k)));
        });
        group.bench_function(BenchmarkId::new("backward", name), |b| {
            b.iter(|| depthwise_backward(&x, &w, &dy, stride, same_pad(k)));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm, bench_conv_strategies, bench_conv, bench_depthwise
}
criterion_main!(benches);
