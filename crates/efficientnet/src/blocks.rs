//! The MBConv block — EfficientNet's building unit.
//!
//! `x → [1×1 expand → BN → swish] → k×k depthwise → BN → swish → SE →
//! 1×1 project → BN → (+ drop-path residual when stride 1 and C_in = C_out)`
//!
//! Each BN → swish pair is one layer ([`BatchNorm2d::with_swish`]).
//! The expansion stage is skipped when `expand_ratio == 1` (stage 1).
//! SE's bottleneck width is `max(1, se_ratio · in_filters)` — based on the
//! block's *input* filters, matching the reference implementation.

use ets_nn::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, DropPath, Layer, Mode, Param, Precision, SqueezeExcite,
    StatSync,
};
use ets_tensor::{same_pad, Rng, Tensor};
use std::sync::Arc;

/// One MBConv block.
#[derive(Clone)]
pub struct MbConvBlock {
    expand: Option<(Conv2d, BatchNorm2d)>,
    depthwise: DepthwiseConv2d,
    dw_bn: BatchNorm2d,
    se: SqueezeExcite,
    project: Conv2d,
    proj_bn: BatchNorm2d,
    drop_path: DropPath,
    residual: bool,
    label: String,
}

impl MbConvBlock {
    /// Builds a block.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        label: impl Into<String>,
        in_filters: usize,
        out_filters: usize,
        kernel: usize,
        stride: usize,
        expand_ratio: usize,
        se_ratio: f32,
        drop_connect: f32,
        precision: Precision,
        rng: &mut Rng,
    ) -> Self {
        let label = label.into();
        let expanded = in_filters * expand_ratio;
        let expand = (expand_ratio != 1).then(|| {
            (
                Conv2d::new(
                    format!("{label}.expand"),
                    in_filters,
                    expanded,
                    1,
                    1,
                    0,
                    precision,
                    rng,
                ),
                BatchNorm2d::new(format!("{label}.expand_bn"), expanded).with_swish(),
            )
        });
        let se_dim = ((in_filters as f32 * se_ratio) as usize).max(1);
        MbConvBlock {
            expand,
            depthwise: DepthwiseConv2d::new(
                format!("{label}.dw"),
                expanded,
                kernel,
                stride,
                same_pad(kernel),
                precision,
                rng,
            ),
            dw_bn: BatchNorm2d::new(format!("{label}.dw_bn"), expanded).with_swish(),
            se: SqueezeExcite::new(
                format!("{label}.se"),
                expanded,
                se_dim,
                precision.policy(),
                rng,
            ),
            project: Conv2d::new(
                format!("{label}.project"),
                expanded,
                out_filters,
                1,
                1,
                0,
                precision,
                rng,
            ),
            proj_bn: BatchNorm2d::new(format!("{label}.proj_bn"), out_filters),
            drop_path: DropPath::new(drop_connect),
            residual: stride == 1 && in_filters == out_filters,
            label,
        }
    }

    /// Whether the block carries an identity skip connection.
    pub fn has_residual(&self) -> bool {
        self.residual
    }

    /// Visits every batch-norm layer (for distributed-BN wiring).
    pub fn visit_bns(&mut self, f: &mut dyn FnMut(&mut BatchNorm2d)) {
        if let Some((_, bn)) = &mut self.expand {
            f(bn);
        }
        f(&mut self.dw_bn);
        f(&mut self.proj_bn);
    }

    /// Replaces the stat-sync on all BN layers in the block.
    pub fn set_bn_sync(&mut self, sync: Arc<dyn StatSync>) {
        self.visit_bns(&mut |bn| bn.set_sync(Arc::clone(&sync)));
    }
}

impl Layer for MbConvBlock {
    fn forward(&mut self, x: &Tensor, mode: Mode, rng: &mut Rng) -> Tensor {
        let expanded = self.expand.as_mut().map(|(conv, bn)| {
            let cur = conv.forward(x, mode, rng);
            bn.forward(&cur, mode, rng)
        });
        let mut cur = self
            .depthwise
            .forward(expanded.as_ref().unwrap_or(x), mode, rng);
        cur = self.dw_bn.forward(&cur, mode, rng);
        cur = self.se.forward(&cur, mode, rng);
        cur = self.project.forward(&cur, mode, rng);
        cur = self.proj_bn.forward(&cur, mode, rng);
        if self.residual {
            cur = self.drop_path.forward(&cur, mode, rng);
            cur.add_assign(x);
        }
        cur
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let dropped = self.residual.then(|| self.drop_path.backward(grad));
        let mut g = self.proj_bn.backward(dropped.as_ref().unwrap_or(grad));
        g = self.project.backward(&g);
        g = self.se.backward(&g);
        g = self.dw_bn.backward(&g);
        g = self.depthwise.backward(&g);
        if let Some((conv, bn)) = &mut self.expand {
            g = bn.backward(&g);
            g = conv.backward(&g);
        }
        if self.residual {
            g.add_assign(grad);
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        if let Some((conv, bn)) = &mut self.expand {
            conv.visit_params(f);
            bn.visit_params(f);
        }
        self.depthwise.visit_params(f);
        self.dw_bn.visit_params(f);
        self.se.visit_params(f);
        self.project.visit_params(f);
        self.proj_bn.visit_params(f);
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn cached_elems(&self) -> usize {
        let expand = self.expand.as_ref();
        expand.map_or(0, |(conv, bn)| conv.cached_elems() + bn.cached_elems())
            + self.depthwise.cached_elems()
            + self.dw_bn.cached_elems()
            + self.se.cached_elems()
            + self.project.cached_elems()
            + self.proj_bn.cached_elems()
            + self.drop_path.cached_elems()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_nn::zero_grads;

    fn block(in_f: usize, out_f: usize, stride: usize, expand: usize) -> MbConvBlock {
        let mut rng = Rng::new(7);
        MbConvBlock::new(
            "b",
            in_f,
            out_f,
            3,
            stride,
            expand,
            0.25,
            0.0,
            Precision::F32,
            &mut rng,
        )
    }

    #[test]
    fn shapes_stride1_residual() {
        let mut b = block(8, 8, 1, 6);
        assert!(b.has_residual());
        let mut rng = Rng::new(0);
        let mut x = Tensor::zeros([2, 8, 8, 8]);
        rng.fill_normal(x.data_mut(), 0.0, 1.0);
        let y = b.forward(&x, Mode::Train, &mut rng);
        assert_eq!(y.shape().dims(), x.shape().dims());
        let dx = b.backward(&Tensor::ones(y.shape().dims()));
        assert_eq!(dx.shape().dims(), x.shape().dims());
    }

    #[test]
    fn shapes_stride2_no_residual() {
        let mut b = block(8, 16, 2, 6);
        assert!(!b.has_residual());
        let mut rng = Rng::new(0);
        let x = Tensor::ones([1, 8, 8, 8]);
        let y = b.forward(&x, Mode::Train, &mut rng);
        assert_eq!(y.shape().dims(), &[1, 16, 4, 4]);
    }

    #[test]
    fn expand_ratio_one_skips_expansion() {
        let mut b = block(8, 8, 1, 1);
        let mut names = Vec::new();
        b.visit_params(&mut |p| names.push(p.name.clone()));
        // SE's `se_expand` is expected; the 1×1 channel-expansion conv is not.
        assert!(
            !names.iter().any(|n| n.starts_with("b.expand")),
            "no expansion params expected: {names:?}"
        );
    }

    #[test]
    fn bn_count() {
        let mut b = block(8, 16, 1, 6);
        let mut count = 0;
        b.visit_bns(&mut |_| count += 1);
        assert_eq!(count, 3);
        let mut b1 = block(8, 8, 1, 1);
        let mut count1 = 0;
        b1.visit_bns(&mut |_| count1 += 1);
        assert_eq!(count1, 2);
    }

    #[test]
    fn residual_gradient_includes_identity_path() {
        // With the branch effectively silenced (γ of proj BN at 0 makes the
        // branch output 0 and its input-gradient contribution 0 only through
        // BN's affine... simpler: numerically check total gradient flows).
        let mut b = block(4, 4, 1, 6);
        let mut rng = Rng::new(1);
        let mut x = Tensor::zeros([1, 4, 5, 5]);
        rng.fill_normal(x.data_mut(), 0.0, 1.0);
        let y = b.forward(&x, Mode::Train, &mut rng);
        // A constant upstream gradient dies in BN's backward (its centered
        // form annihilates constants), so perturb it.
        let mut g = Tensor::ones(y.shape().dims());
        rng.fill_uniform(g.data_mut(), 0.5, 1.5);
        let dx = b.backward(&g);
        // The identity path guarantees dx ⊇ grad: subtracting it leaves the
        // branch gradient, which must be much smaller than 1 in L∞ for a
        // freshly-initialized block but not exactly zero.
        let mut branch = dx.clone();
        branch.sub_assign(&g);
        assert!(branch.l2_norm() > 0.0);
    }

    #[test]
    fn finite_difference_through_whole_block() {
        let mut rng = Rng::new(2);
        let mut b = block(4, 4, 1, 2);
        let mut x = Tensor::zeros([1, 4, 4, 4]);
        rng.fill_uniform(x.data_mut(), -1.0, 1.0);
        let mut g = Tensor::zeros(x.shape().dims());
        rng.fill_uniform(g.data_mut(), -1.0, 1.0);
        let _y = b.forward(&x, Mode::Train, &mut rng);
        let dx = b.backward(&g);
        let loss = |b: &mut MbConvBlock, x: &Tensor| -> f64 {
            let mut r = Rng::new(0);
            let y = b.forward(x, Mode::Train, &mut r);
            zero_grads(b);
            // Drain caches so repeated forwards don't leak.
            let _ = b.backward(&Tensor::zeros(y.shape().dims()));
            y.data()
                .iter()
                .zip(g.data())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum()
        };
        let eps = 1e-2f32;
        for &i in &[0usize, 15, 33, 63] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((loss(&mut b, &xp) - loss(&mut b, &xm)) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - dx.data()[i]).abs() < 5e-2 * (1.0 + num.abs()),
                "dx[{i}] numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
    }
}
