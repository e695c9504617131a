//! Squeeze-and-excite block: channel attention used in every MBConv.
//!
//! `s = σ(W₂ · swish(W₁ · GAP(x)))`, `y = x ⊙ s` (per-channel gate).
//! The two 1×1 "convs" of the reference implementation operate on a 1×1
//! spatial map, so they are implemented as dense layers (with bias, as in
//! the TF code). Their GEMMs route through `gemm` via [`Linear`]:
//! SE bottlenecks are usually below the blocked-dispatch threshold and
//! keep the naive streaming kernels, by design — the dispatcher decides
//! per shape, not per layer type. The same shape-plus-config rule
//! governs the pack-time precision: the block takes a [`GemmPolicy`],
//! and under the mixed policy the MAC gate keeps these bottleneck-sized
//! products in f32 (the paper's "everything but convolutions stays
//! f32") without a special case.

use crate::activations::{Sigmoid, Swish};
use crate::layer::{Layer, Mode};
use crate::linear::Linear;
use crate::param::Param;
use ets_tensor::ops::dispatch::GemmPolicy;
use ets_tensor::ops::pool::{
    channel_dot, global_avg_pool, global_avg_pool_backward, scale_channels,
};
use ets_tensor::{Rng, Tensor};

/// Squeeze-and-excite with reduction to `se_dim` hidden units.
pub struct SqueezeExcite {
    reduce: Linear,
    expand: Linear,
    act: Swish,
    gate: Sigmoid,
    cache: Option<SeCache>,
    label: String,
}

struct SeCache {
    x: Tensor,
    s: Tensor,
    hw: (usize, usize),
}

impl SqueezeExcite {
    /// `channels` is the gated channel count; `se_dim` the bottleneck width
    /// (EfficientNet uses `max(1, input_filters/4)` computed by the caller).
    /// `policy` governs the pack-time precision of the two FC GEMMs.
    pub fn new(
        label: impl Into<String>,
        channels: usize,
        se_dim: usize,
        policy: GemmPolicy,
        rng: &mut Rng,
    ) -> Self {
        let label = label.into();
        SqueezeExcite {
            reduce: Linear::with_precision(
                format!("{label}.se_reduce"),
                channels,
                se_dim,
                true,
                policy,
                rng,
            ),
            expand: Linear::with_precision(
                format!("{label}.se_expand"),
                se_dim,
                channels,
                true,
                policy,
                rng,
            ),
            act: Swish::new(),
            gate: Sigmoid::new(),
            cache: None,
            label,
        }
    }
}

impl Layer for SqueezeExcite {
    fn forward(&mut self, x: &Tensor, mode: Mode, rng: &mut Rng) -> Tensor {
        let pooled = global_avg_pool(x); // N×C
        let hidden = self
            .act
            .forward(&self.reduce.forward(&pooled, mode, rng), mode, rng);
        let s = self
            .gate
            .forward(&self.expand.forward(&hidden, mode, rng), mode, rng); // N×C
        let y = scale_channels(x, &s);
        self.cache = Some(SeCache {
            x: x.clone(),
            s,
            hw: (x.shape().h(), x.shape().w()),
        });
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let SeCache { x, s, hw } = self.cache.take().expect("SE: forward before backward");
        // y = x ⊙ broadcast(s):
        //   ds (N×C) = <grad, x> over spatial; dx₁ = grad ⊙ broadcast(s).
        let ds = channel_dot(grad, &x);
        let mut dx = scale_channels(grad, &s);
        // Backprop ds through gate → expand → act → reduce → GAP.
        let d_expand = self.gate.backward(&ds);
        let d_hidden = self.expand.backward(&d_expand);
        let d_reduce = self.act.backward(&d_hidden);
        let d_pool = self.reduce.backward(&d_reduce);
        let dx2 = global_avg_pool_backward(&d_pool, hw.0, hw.1);
        dx.add_assign(&dx2);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.reduce.visit_params(f);
        self.expand.visit_params(f);
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn cached_elems(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.x.numel() + c.s.numel())
            + self.reduce.cached_elems()
            + self.expand.cached_elems()
            + self.act.cached_elems()
            + self.gate.cached_elems()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_bounded_and_shapes_preserved() {
        let mut rng = Rng::new(1);
        let mut se = SqueezeExcite::new("se", 8, 2, GemmPolicy::F32_ONLY, &mut rng);
        let mut x = Tensor::zeros([2, 8, 4, 4]);
        rng.fill_normal(x.data_mut(), 0.0, 1.0);
        let y = se.forward(&x, Mode::Train, &mut rng);
        assert_eq!(y.shape().dims(), x.shape().dims());
        // With zero-init expand bias, the gate starts near σ(0)=0.5 but
        // weights perturb it; output magnitude can't exceed input magnitude
        // by more than the gate bound of 1.
        for (yv, xv) in y.data().iter().zip(x.data()) {
            assert!(yv.abs() <= xv.abs() + 1e-6);
        }
    }

    #[test]
    fn backward_finite_difference() {
        let mut rng = Rng::new(2);
        let mut se = SqueezeExcite::new("se", 4, 2, GemmPolicy::F32_ONLY, &mut rng);
        let mut x = Tensor::zeros([1, 4, 3, 3]);
        rng.fill_uniform(x.data_mut(), -1.0, 1.0);
        let mut g = Tensor::zeros(x.shape().dims());
        rng.fill_uniform(g.data_mut(), -1.0, 1.0);

        let _y = se.forward(&x, Mode::Train, &mut rng);
        let dx = se.backward(&g);

        let loss = |se: &mut SqueezeExcite, x: &Tensor| -> f64 {
            let mut r = Rng::new(0);
            let y = se.forward(x, Mode::Train, &mut r);
            se.cache = None;
            y.data()
                .iter()
                .zip(g.data())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum()
        };
        let eps = 1e-3f32;
        for &i in &[0usize, 9, 17, 35] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((loss(&mut se, &xp) - loss(&mut se, &xm)) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - dx.data()[i]).abs() < 2e-2 * (1.0 + num.abs()),
                "dx[{i}] numeric {num} analytic {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn param_inventory() {
        let mut rng = Rng::new(3);
        let mut se = SqueezeExcite::new("se", 16, 4, GemmPolicy::F32_ONLY, &mut rng);
        let mut names = Vec::new();
        se.visit_params(&mut |p| names.push(p.name.clone()));
        assert_eq!(
            names,
            vec![
                "se.se_reduce.w",
                "se.se_reduce.b",
                "se.se_expand.w",
                "se.se_expand.b"
            ]
        );
    }
}
