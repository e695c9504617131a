//! The EfficientNet model: stem → MBConv stages → head. The swish after
//! the stem's and the head's batch norm is that layer's own epilogue
//! ([`BatchNorm2d::with_swish`]).

use crate::blocks::MbConvBlock;
use crate::config::ModelConfig;
use ets_nn::{
    BatchNorm2d, Conv2d, Dropout, GlobalAvgPool, HookedBackward, Layer, Linear, Mode, Param,
    Precision, StatSync,
};
use ets_tensor::{same_pad, Rng, Tensor};
use std::sync::Arc;

/// A full EfficientNet classifier.
pub struct EfficientNet {
    stem_conv: Conv2d,
    stem_bn: BatchNorm2d,
    blocks: Vec<MbConvBlock>,
    head_conv: Conv2d,
    head_bn: BatchNorm2d,
    gap: GlobalAvgPool,
    dropout: Dropout,
    fc: Linear,
    config: ModelConfig,
}

impl EfficientNet {
    /// Builds the model from a resolved configuration.
    pub fn new(config: ModelConfig, precision: Precision, rng: &mut Rng) -> Self {
        let stem_f = config.stem_filters();
        let head_f = config.head_filters();
        let total_blocks = config.total_blocks();

        let mut blocks = Vec::with_capacity(total_blocks);
        let mut block_idx = 0usize;
        for (stage, args) in config.blocks.iter().enumerate() {
            let in_f = config.round_filters(args.in_filters);
            let out_f = config.round_filters(args.out_filters);
            let repeats = config.round_repeats(args.repeats);
            for rep in 0..repeats {
                // Stochastic depth grows linearly with depth.
                let dc = config.drop_connect * block_idx as f32 / total_blocks as f32;
                let (bin, stride) = if rep == 0 {
                    (in_f, args.stride)
                } else {
                    (out_f, 1)
                };
                blocks.push(MbConvBlock::new(
                    format!("blocks.{stage}.{rep}"),
                    bin,
                    out_f,
                    args.kernel,
                    stride,
                    args.expand_ratio,
                    args.se_ratio,
                    dc,
                    precision,
                    rng,
                ));
                block_idx += 1;
            }
        }

        let last_f = config.round_filters(config.blocks.last().unwrap().out_filters);
        EfficientNet {
            stem_conv: Conv2d::new("stem.conv", 3, stem_f, 3, 2, same_pad(3), precision, rng),
            stem_bn: BatchNorm2d::new("stem.bn", stem_f).with_swish(),
            blocks,
            head_conv: Conv2d::new("head.conv", last_f, head_f, 1, 1, 0, precision, rng),
            head_bn: BatchNorm2d::new("head.bn", head_f).with_swish(),
            gap: GlobalAvgPool::new(),
            dropout: Dropout::new(config.dropout),
            // The head receives the experiment policy; its MAC gate keeps
            // proxy-scale classifier GEMMs in f32 (§3.5 runs only the
            // convolutions in bf16 at small sizes) while letting genuinely
            // large head products use the narrow packed panels.
            fc: Linear::with_precision(
                "head.fc",
                head_f,
                config.num_classes,
                true,
                precision.policy(),
                rng,
            ),
            config,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of MBConv blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Visits every batch-norm layer in network order.
    pub fn visit_bns(&mut self, f: &mut dyn FnMut(&mut BatchNorm2d)) {
        f(&mut self.stem_bn);
        for b in &mut self.blocks {
            b.visit_bns(f);
        }
        f(&mut self.head_bn);
    }

    /// Wires a cross-replica statistics reducer into every BN layer —
    /// how the distributed trainer enables §3.4's distributed batch norm.
    pub fn set_bn_sync(&mut self, sync: Arc<dyn StatSync>) {
        self.visit_bns(&mut |bn| bn.set_sync(Arc::clone(&sync)));
    }
}

impl Layer for EfficientNet {
    fn forward(&mut self, x: &Tensor, mode: Mode, rng: &mut Rng) -> Tensor {
        assert_eq!(x.shape().c(), 3, "EfficientNet expects RGB input");
        let mut cur = self.stem_conv.forward(x, mode, rng);
        cur = self.stem_bn.forward(&cur, mode, rng);
        for b in &mut self.blocks {
            cur = b.forward(&cur, mode, rng);
        }
        cur = self.head_conv.forward(&cur, mode, rng);
        cur = self.head_bn.forward(&cur, mode, rng);
        cur = self.gap.forward(&cur, mode, rng);
        cur = self.dropout.forward(&cur, mode, rng);
        self.fc.forward(&cur, mode, rng)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut g = self.fc.backward(grad);
        g = self.dropout.backward(&g);
        g = self.gap.backward(&g);
        g = self.head_bn.backward(&g);
        g = self.head_conv.backward(&g);
        for b in self.blocks.iter_mut().rev() {
            g = b.backward(&g);
        }
        g = self.stem_bn.backward(&g);
        self.stem_conv.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.stem_conv.visit_params(f);
        self.stem_bn.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.head_conv.visit_params(f);
        self.head_bn.visit_params(f);
        self.fc.visit_params(f);
    }

    fn name(&self) -> String {
        format!(
            "efficientnet(w={},d={},r={})",
            self.config.width_mult, self.config.depth_mult, self.config.resolution
        )
    }

    fn cached_elems(&self) -> usize {
        self.stem_conv.cached_elems()
            + self.stem_bn.cached_elems()
            + self.blocks.iter().map(|b| b.cached_elems()).sum::<usize>()
            + self.head_conv.cached_elems()
            + self.head_bn.cached_elems()
            + self.dropout.cached_elems()
            + self.fc.cached_elems()
    }
}

impl HookedBackward for EfficientNet {
    /// Same chain as [`Layer::backward`] — bitwise identical — with
    /// `ready` fired as each parameter-bearing unit finishes. Backward
    /// runs head→stem while `visit_params` walks stem→head, so the
    /// announcements cover the parameter list as strictly descending
    /// suffix segments: fc, head_bn, head_conv, blocks in reverse,
    /// stem_bn, stem_conv.
    fn backward_hooked(&mut self, grad: &Tensor, ready: &mut dyn FnMut(&mut dyn Layer)) -> Tensor {
        let mut g = self.fc.backward(grad);
        ready(&mut self.fc);
        g = self.dropout.backward(&g);
        g = self.gap.backward(&g);
        g = self.head_bn.backward(&g);
        ready(&mut self.head_bn);
        g = self.head_conv.backward(&g);
        ready(&mut self.head_conv);
        for b in self.blocks.iter_mut().rev() {
            g = b.backward(&g);
            ready(b);
        }
        g = self.stem_bn.backward(&g);
        ready(&mut self.stem_bn);
        let dx = self.stem_conv.backward(&g);
        ready(&mut self.stem_conv);
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use ets_nn::{cross_entropy, param_count, zero_grads};

    fn tiny() -> (EfficientNet, Rng) {
        let mut rng = Rng::new(42);
        let cfg = ModelConfig::tiny(32, 10);
        let m = EfficientNet::new(cfg, Precision::F32, &mut rng);
        (m, rng)
    }

    #[test]
    fn tiny_forward_shapes() {
        let (mut m, mut rng) = tiny();
        let mut x = Tensor::zeros([2, 3, 32, 32]);
        rng.fill_normal(x.data_mut(), 0.0, 1.0);
        let y = m.forward(&x, Mode::Eval, &mut rng);
        assert_eq!(y.shape().dims(), &[2, 10]);
        assert!(!y.has_non_finite());
    }

    #[test]
    fn tiny_backward_produces_gradients() {
        let (mut m, mut rng) = tiny();
        let mut x = Tensor::zeros([2, 3, 32, 32]);
        rng.fill_normal(x.data_mut(), 0.0, 1.0);
        zero_grads(&mut m);
        let y = m.forward(&x, Mode::Train, &mut rng);
        let out = cross_entropy(&y, &[1, 7], 0.1);
        let dx = m.backward(&out.dlogits);
        assert_eq!(dx.shape().dims(), x.shape().dims());
        let mut nonzero = 0usize;
        let mut total = 0usize;
        m.visit_params(&mut |p| {
            total += 1;
            if p.grad.l2_norm() > 0.0 {
                nonzero += 1;
            }
        });
        assert!(
            nonzero as f32 > 0.95 * total as f32,
            "{nonzero}/{total} params received gradient"
        );
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        let (mut m, mut rng) = tiny();
        let mut x = Tensor::zeros([4, 3, 32, 32]);
        rng.fill_normal(x.data_mut(), 0.0, 1.0);
        let labels = [0usize, 1, 2, 3];
        let mut eval_rng = Rng::new(5);
        // Repeated small steps on one batch must reduce the training loss.
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..8 {
            zero_grads(&mut m);
            let y = m.forward(&x, Mode::Train, &mut eval_rng);
            let out = cross_entropy(&y, &labels, 0.0);
            m.backward(&out.dlogits);
            m.visit_params(&mut |p| {
                let g = p.grad.clone();
                p.value.axpy(-0.01, &g);
            });
            first.get_or_insert(out.loss);
            last = out.loss;
        }
        assert!(
            last < first.unwrap(),
            "loss should fall: {first:?} → {last}"
        );
    }

    #[test]
    fn hooked_backward_is_bitwise_identical_and_covers_all_params() {
        // Two identically-seeded models, identical forward, then plain vs
        // hooked backward: gradients and dx must match bit for bit, and
        // the hook's suffix segments must tile visit_params exactly, in
        // strictly descending order.
        let run = |hooked: bool| -> (Vec<u32>, Vec<u32>, Vec<usize>) {
            let (mut m, mut rng) = tiny();
            let mut x = Tensor::zeros([2, 3, 32, 32]);
            rng.fill_normal(x.data_mut(), 0.0, 1.0);
            zero_grads(&mut m);
            let mut lrng = Rng::new(9);
            let y = m.forward(&x, Mode::Train, &mut lrng);
            let out = cross_entropy(&y, &[1, 7], 0.1);
            let mut seg_counts = Vec::new();
            let dx = if hooked {
                m.backward_hooked(&out.dlogits, &mut |seg| {
                    let mut n = 0usize;
                    seg.visit_params(&mut |_| n += 1);
                    seg_counts.push(n);
                })
            } else {
                m.backward(&out.dlogits)
            };
            let mut grads = Vec::new();
            m.visit_params(&mut |p| grads.extend(p.grad.data().iter().map(|v| v.to_bits())));
            let dxb = dx.data().iter().map(|v| v.to_bits()).collect();
            (grads, dxb, seg_counts)
        };
        let (g_plain, dx_plain, _) = run(false);
        let (g_hooked, dx_hooked, segs) = run(true);
        assert_eq!(g_plain, g_hooked, "parameter gradients diverged");
        assert_eq!(dx_plain, dx_hooked, "input gradient diverged");
        // Coverage: segment param counts sum to the total param count.
        let (mut m, _) = tiny();
        let mut total = 0usize;
        m.visit_params(&mut |_| total += 1);
        assert_eq!(segs.iter().sum::<usize>(), total);
        // fc + head_bn + head_conv + blocks + stem_bn + stem_conv.
        assert_eq!(segs.len(), 5 + m.num_blocks());
        assert!(segs.iter().all(|&n| n >= 1));
    }

    #[test]
    fn block_count_matches_config() {
        let (m, _) = tiny();
        assert_eq!(m.num_blocks(), m.config().total_blocks());
        // tiny depth 0.35: [1,1,1,2,2,2,1] = 10 blocks.
        assert_eq!(m.num_blocks(), 10);
    }

    #[test]
    fn bn_layer_count() {
        let (mut m, _) = tiny();
        let mut bns = 0;
        m.visit_bns(&mut |_| bns += 1);
        // stem + head + per-block (2 when expand==1, else 3).
        let expected = 2 + m
            .blocks
            .iter_mut()
            .map(|b| {
                let mut c = 0;
                b.visit_bns(&mut |_| c += 1);
                c
            })
            .sum::<usize>();
        assert_eq!(bns, expected);
    }

    #[test]
    fn full_b0_param_count_close_to_reference() {
        // Build the real B0 (no tensor allocation concern: params only
        // ~5.3M floats ≈ 21 MB plus grads).
        let mut rng = Rng::new(1);
        let cfg = ModelConfig::variant(Variant::B0);
        let mut m = EfficientNet::new(cfg, Precision::F32, &mut rng);
        let n = param_count(&mut m);
        let reference = 5_288_548usize; // TF reference B0 trainable params
        let rel = (n as f64 - reference as f64).abs() / reference as f64;
        assert!(rel < 0.02, "B0 params {n} vs reference {reference}");
    }
}
