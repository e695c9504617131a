//! Fully-connected layer (`y = x·Wᵀ + b`).
//!
//! Used by EfficientNet's classification head and the squeeze-and-excite
//! bottleneck (whose 1×1 convs on a 1×1 spatial map are exactly dense
//! layers, which is how we implement them).
//!
//! All three GEMMs (forward `x·Wᵀ`, weight gradient `gradᵀ·x`, input
//! gradient `grad·W`) route through the shape-pure `gemm`
//! dispatcher, so head-sized products take the blocked packed kernels
//! while SE-bottleneck-sized ones keep the naive streaming path. A
//! [`GemmPolicy`] (see [`Linear::with_precision`]) additionally selects
//! the pack-time element type per shape: under the mixed policy, GEMMs
//! past the MAC gate store their panels as bf16 and accumulate in f32,
//! while bottleneck-sized ones stay f32 — the same pure
//! shape-plus-config rule the kernel dispatch uses.

use crate::layer::{Layer, Mode};
use crate::param::{Param, ParamKind};
use ets_tensor::ops::dispatch::{gemm, GemmDesc, GemmPolicy, Orient};
use ets_tensor::{init, Rng, Tensor};

/// Dense layer with weight stored `[out, in]` and optional bias.
#[derive(Clone)]
pub struct Linear {
    weight: Param,
    bias: Option<Param>,
    cache_x: Option<Tensor>,
    label: String,
    in_dim: usize,
    out_dim: usize,
    policy: GemmPolicy,
}

impl Linear {
    /// Creates a dense layer with uniform ±sqrt(1/fan_in) init and a zero
    /// bias (when `with_bias`). Pure-f32 GEMMs; see
    /// [`Linear::with_precision`] for the mixed-precision variant.
    pub fn new(
        label: impl Into<String>,
        in_dim: usize,
        out_dim: usize,
        with_bias: bool,
        rng: &mut Rng,
    ) -> Self {
        Self::with_precision(label, in_dim, out_dim, with_bias, GemmPolicy::F32_ONLY, rng)
    }

    /// Creates a dense layer whose GEMMs narrow their packed panels to
    /// bf16 when `policy` is mixed and the product clears the MAC gate
    /// (accumulation always stays f32).
    pub fn with_precision(
        label: impl Into<String>,
        in_dim: usize,
        out_dim: usize,
        with_bias: bool,
        policy: GemmPolicy,
        rng: &mut Rng,
    ) -> Self {
        let label = label.into();
        let w = init::dense_weight(rng, out_dim, in_dim);
        let bias = with_bias.then(|| {
            Param::new(
                format!("{label}.b"),
                Tensor::zeros([out_dim]),
                ParamKind::Bias,
            )
        });
        Linear {
            weight: Param::new(format!("{label}.w"), w, ParamKind::Weight),
            bias,
            cache_x: None,
            label,
            in_dim,
            out_dim,
            policy,
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, _m: Mode, _r: &mut Rng) -> Tensor {
        assert_eq!(
            x.shape().rank(),
            2,
            "Linear expects N×in, got {}",
            x.shape()
        );
        let n = x.shape().dim(0);
        assert_eq!(x.shape().dim(1), self.in_dim, "Linear in_dim mismatch");
        let mut y = Tensor::zeros([n, self.out_dim]);
        // All three GEMMs of this layer share one MAC volume
        // (N·in·out), so one policy evaluation covers forward and both
        // backward products consistently.
        let precision = self.policy.precision(n, self.in_dim, self.out_dim);
        // y = x (N×in) · Wᵀ — W stored out×in.
        let desc = GemmDesc {
            orient: Orient::ABt,
            precision,
            ..GemmDesc::new(n, self.in_dim, self.out_dim)
        };
        gemm(desc, x.data(), &self.weight.value.data(), y.data_mut());
        if let Some(b) = &self.bias {
            let bs = b.value.data();
            for row in y.data_mut().chunks_mut(self.out_dim) {
                for (v, &bv) in row.iter_mut().zip(bs.iter()) {
                    *v += bv;
                }
            }
        }
        self.cache_x = Some(x.clone());
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self
            .cache_x
            .take()
            .expect("Linear: forward before backward");
        let n = x.shape().dim(0);
        assert_eq!(grad.shape().dims(), &[n, self.out_dim], "Linear grad shape");
        let precision = self.policy.precision(n, self.in_dim, self.out_dim);
        // dW (out×in) += gradᵀ (out×N) · x (N×in)
        let dw = GemmDesc {
            orient: Orient::AtB,
            accumulate: true,
            precision,
            ..GemmDesc::new(self.out_dim, n, self.in_dim)
        };
        gemm(dw, grad.data(), x.data(), self.weight.grad.data_mut());
        if let Some(b) = &mut self.bias {
            let db = b.grad.data_mut();
            for row in grad.data().chunks(self.out_dim) {
                for (d, &g) in db.iter_mut().zip(row) {
                    *d += g;
                }
            }
        }
        // dx (N×in) = grad (N×out) · W (out×in)
        let mut dx = Tensor::zeros([n, self.in_dim]);
        let dx_desc = GemmDesc {
            precision,
            ..GemmDesc::new(n, self.out_dim, self.in_dim)
        };
        gemm(
            dx_desc,
            grad.data(),
            &self.weight.value.data(),
            dx.data_mut(),
        );
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn cached_elems(&self) -> usize {
        self.cache_x.as_ref().map_or(0, Tensor::numel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Weight;

    #[test]
    fn forward_matches_manual() {
        let mut rng = Rng::new(1);
        let mut lin = Linear::new("fc", 3, 2, true, &mut rng);
        lin.weight.value = Weight::new(Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]));
        if let Some(b) = &mut lin.bias {
            b.value = Weight::new(Tensor::from_vec([2], vec![0.5, -0.5]));
        }
        let x = Tensor::from_vec([1, 3], vec![1.0, 0.0, -1.0]);
        let y = lin.forward(&x, Mode::Train, &mut rng);
        assert_eq!(y.data(), &[1.0 - 3.0 + 0.5, 4.0 - 6.0 - 0.5]);
    }

    #[test]
    fn backward_finite_difference() {
        let mut rng = Rng::new(2);
        let mut lin = Linear::new("fc", 4, 3, true, &mut rng);
        let mut x = Tensor::zeros([2, 4]);
        rng.fill_uniform(x.data_mut(), -1.0, 1.0);
        let mut g = Tensor::zeros([2, 3]);
        rng.fill_uniform(g.data_mut(), -1.0, 1.0);

        let _y = lin.forward(&x, Mode::Train, &mut rng);
        let dx = lin.backward(&g);

        let w0 = lin.weight.value.clone();
        let loss = |lin: &mut Linear, x: &Tensor| -> f64 {
            let mut r = Rng::new(0);
            let y = lin.forward(x, Mode::Train, &mut r);
            lin.cache_x = None;
            y.data()
                .iter()
                .zip(g.data())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum()
        };
        let eps = 1e-3f32;
        // Check dx.
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((loss(&mut lin, &xp) - loss(&mut lin, &xm)) / (2.0 * eps as f64)) as f32;
            assert!((num - dx.data()[i]).abs() < 1e-2 * (1.0 + num.abs()));
        }
        // Check dW on a sample.
        for &i in &[0usize, 5, 11] {
            let mut lp = Linear::new("fc", 4, 3, true, &mut Rng::new(2));
            lp.weight.value = w0.clone();
            lp.weight.value.write().data_mut()[i] += eps;
            let up = loss(&mut lp, &x);
            lp.weight.value.write().data_mut()[i] -= 2.0 * eps;
            let down = loss(&mut lp, &x);
            let num = ((up - down) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - lin.weight.grad.data()[i]).abs() < 1e-2 * (1.0 + num.abs()),
                "dW[{i}]"
            );
        }
        // dBias is column sums of g.
        let bias_grad: Vec<f32> = {
            let mut v = vec![0.0; 3];
            for row in g.data().chunks(3) {
                for (d, &x) in v.iter_mut().zip(row) {
                    *d += x;
                }
            }
            v
        };
        lin.visit_params(&mut |p| {
            if p.name.ends_with(".b") {
                for (a, b) in p.grad.data().iter().zip(&bias_grad) {
                    assert!((a - b).abs() < 1e-5);
                }
            }
        });
    }

    #[test]
    fn no_bias_variant() {
        let mut rng = Rng::new(3);
        let mut lin = Linear::new("fc", 2, 2, false, &mut rng);
        let mut count = 0;
        lin.visit_params(&mut |_| count += 1);
        assert_eq!(count, 1);
    }
}
