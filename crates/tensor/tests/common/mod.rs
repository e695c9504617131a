//! Helpers shared by the GEMM integration suites: seeded operands in
//! every storage orientation and the full descriptor table.
#![allow(dead_code)] // each suite uses its own subset

use ets_tensor::ops::dispatch::{GemmDesc, GemmPrecision, Orient};
use ets_tensor::Rng;

pub const PRECISIONS: [GemmPrecision; 2] = [GemmPrecision::F32, GemmPrecision::Bf16];

pub fn rand_vec(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    let mut v = vec![0.0; n];
    rng.fill_uniform(&mut v, -1.0, 1.0);
    v
}

pub fn transpose(rows: usize, cols: usize, x: &[f32]) -> Vec<f32> {
    let mut t = vec![0.0; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = x[r * cols + c];
        }
    }
    t
}

/// A copy of `v` rounded to nearest-even through bf16 — the operand
/// preparation the bf16 oracle uses.
pub fn quantized(v: &[f32]) -> Vec<f32> {
    let mut q = v.to_vec();
    ets_tensor::bf16::round_in_place(&mut q);
    q
}

pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every descriptor at one shape: orient × accumulate × precision.
pub fn all_descs(m: usize, k: usize, n: usize) -> Vec<GemmDesc> {
    let mut out = Vec::new();
    for orient in Orient::ALL {
        for accumulate in [false, true] {
            for precision in PRECISIONS {
                out.push(GemmDesc {
                    m,
                    k,
                    n,
                    orient,
                    accumulate,
                    precision,
                });
            }
        }
    }
    out
}

/// One random `A(m×k)`, `B(k×n)` pair, also stored transposed, so every
/// orientation computes the same effective product.
pub struct Operands {
    pub a: Vec<f32>,
    pub b: Vec<f32>,
    a_t: Vec<f32>, // stored k×m
    b_t: Vec<f32>, // stored n×k
}

impl Operands {
    pub fn new(seed: u64, m: usize, k: usize, n: usize) -> Operands {
        let a = rand_vec(seed, m * k);
        let b = rand_vec(seed + 1, k * n);
        let (a_t, b_t) = (transpose(m, k, &a), transpose(k, n, &b));
        Operands { a, b, a_t, b_t }
    }

    /// The `(a, b)` slices as `orient` expects them stored.
    pub fn stored(&self, orient: Orient) -> (&[f32], &[f32]) {
        match orient {
            Orient::AB => (&self.a, &self.b),
            Orient::AtB => (&self.a_t, &self.b),
            Orient::ABt => (&self.a, &self.b_t),
        }
    }

    /// The same operands rounded through bf16 (the bf16 oracle's input).
    pub fn quantized(&self) -> Operands {
        Operands {
            a: quantized(&self.a),
            b: quantized(&self.b),
            a_t: quantized(&self.a_t),
            b_t: quantized(&self.b_t),
        }
    }
}

/// Runs `desc` on `kernel` from a `C` prefilled with a value that an
/// overwriting product must erase and an accumulating one must keep
/// (0.625 is bf16-exact), returning the result.
pub fn run(kernel: Kernel, desc: GemmDesc, ops: &Operands) -> Vec<f32> {
    let (a, b) = ops.stored(desc.orient);
    let mut c = vec![if desc.accumulate { 0.625 } else { 7.5 }; desc.m * desc.n];
    kernel(desc, a, b, &mut c);
    c
}

pub type Kernel = fn(GemmDesc, &[f32], &[f32], &mut [f32]);
