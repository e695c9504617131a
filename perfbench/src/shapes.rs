//! Walks a `ModelConfig` into the list of layer shapes one forward pass
//! touches, with the same rounding as `ets_efficientnet::model_stats`, so
//! the per-layer replay provably covers the model (the tests below compare
//! the walk's parameter and MAC totals with `model_stats` exactly).

use ets_efficientnet::ModelConfig;

/// One layer call of a forward pass, per sample (`hw` is the square input
/// map's side).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    Conv {
        c_in: usize,
        c_out: usize,
        k: usize,
        stride: usize,
        hw: usize,
    },
    Depthwise {
        c: usize,
        k: usize,
        stride: usize,
        hw: usize,
    },
    BatchNorm {
        c: usize,
        hw: usize,
    },
    Swish {
        c: usize,
        hw: usize,
    },
    Se {
        c: usize,
        se_dim: usize,
        hw: usize,
    },
    Pool {
        c: usize,
        hw: usize,
    },
    Linear {
        d_in: usize,
        d_out: usize,
    },
}

/// SAME-padding output extent, as `model_stats` computes it.
pub fn same_out(extent: usize, stride: usize) -> usize {
    extent.div_ceil(stride)
}

impl Op {
    pub fn params(&self) -> u64 {
        (match *self {
            Op::Conv { c_in, c_out, k, .. } => c_out * c_in * k * k,
            Op::Depthwise { c, k, .. } => c * k * k,
            Op::BatchNorm { c, .. } => 2 * c,
            Op::Se { c, se_dim, .. } => (c * se_dim + se_dim) + (se_dim * c + c),
            Op::Linear { d_in, d_out } => d_in * d_out + d_out,
            Op::Swish { .. } | Op::Pool { .. } => 0,
        }) as u64
    }

    /// Multiply-accumulates of one forward pass over one sample.
    pub fn macs(&self) -> u64 {
        match *self {
            Op::Conv {
                c_in,
                c_out,
                k,
                stride,
                hw,
            } => {
                let out = same_out(hw, stride);
                (c_out * out * out) as u64 * (c_in * k * k) as u64
            }
            Op::Depthwise { c, k, stride, hw } => {
                let out = same_out(hw, stride);
                (c * out * out) as u64 * (k * k) as u64
            }
            Op::Se { c, se_dim, .. } => 2 * (c * se_dim) as u64,
            Op::Linear { d_in, d_out } => (d_in * d_out) as u64,
            Op::BatchNorm { .. } | Op::Swish { .. } | Op::Pool { .. } => 0,
        }
    }

    /// Elements of the input activation, per sample.
    pub fn in_elems(&self) -> usize {
        match *self {
            Op::Conv { c_in, hw, .. } => c_in * hw * hw,
            Op::Depthwise { c, hw, .. }
            | Op::BatchNorm { c, hw }
            | Op::Swish { c, hw }
            | Op::Se { c, hw, .. }
            | Op::Pool { c, hw } => c * hw * hw,
            Op::Linear { d_in, .. } => d_in,
        }
    }

    /// Elements of the output activation, per sample.
    pub fn out_elems(&self) -> usize {
        match *self {
            Op::Conv {
                c_out, stride, hw, ..
            } => c_out * same_out(hw, stride).pow(2),
            Op::Depthwise { c, stride, hw, .. } => c * same_out(hw, stride).pow(2),
            Op::BatchNorm { .. } | Op::Swish { .. } | Op::Se { .. } => self.in_elems(),
            Op::Pool { c, .. } => c,
            Op::Linear { d_out, .. } => d_out,
        }
    }

    /// The `nn.<kind>` this op is reported under.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Conv { k: 1, .. } => "conv1x1",
            Op::Conv { .. } => "convkxk",
            Op::Depthwise { .. } => "depthwise",
            Op::BatchNorm { .. } => "batchnorm",
            Op::Swish { .. } => "swish",
            Op::Se { .. } => "se",
            Op::Pool { .. } => "pool",
            Op::Linear { .. } => "linear",
        }
    }
}

/// One MBConv block as `EfficientNet::new` builds it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockShape {
    pub stage: usize,
    pub in_f: usize,
    pub out_f: usize,
    pub kernel: usize,
    pub stride: usize,
    pub expand_ratio: usize,
    pub se_ratio: f32,
    pub drop_connect: f32,
    /// Input map side.
    pub hw: usize,
}

pub struct Walk {
    pub ops: Vec<Op>,
    pub blocks: Vec<BlockShape>,
    /// Input side and channels of the head conv.
    pub head_hw: usize,
    pub head_in: usize,
}

pub fn walk(cfg: &ModelConfig) -> Walk {
    let mut ops = Vec::new();
    let mut blocks = Vec::new();
    let mut hw = cfg.resolution;
    let conv_bn = |ops: &mut Vec<Op>, c_in, c_out, k, stride, hw: usize| {
        ops.push(Op::Conv {
            c_in,
            c_out,
            k,
            stride,
            hw,
        });
        let out = same_out(hw, stride);
        ops.push(Op::BatchNorm { c: c_out, hw: out });
        out
    };

    let stem_f = cfg.stem_filters();
    hw = conv_bn(&mut ops, 3, stem_f, 3, 2, hw);
    ops.push(Op::Swish { c: stem_f, hw });

    let total_blocks = cfg.total_blocks();
    for (stage, args) in cfg.blocks.iter().enumerate() {
        let in_f0 = cfg.round_filters(args.in_filters);
        let out_f = cfg.round_filters(args.out_filters);
        for rep in 0..cfg.round_repeats(args.repeats) {
            let (in_f, stride) = if rep == 0 {
                (in_f0, args.stride)
            } else {
                (out_f, 1)
            };
            blocks.push(BlockShape {
                stage,
                in_f,
                out_f,
                kernel: args.kernel,
                stride,
                expand_ratio: args.expand_ratio,
                se_ratio: args.se_ratio,
                drop_connect: cfg.drop_connect * blocks.len() as f32 / total_blocks as f32,
                hw,
            });
            let c = in_f * args.expand_ratio;
            if args.expand_ratio != 1 {
                conv_bn(&mut ops, in_f, c, 1, 1, hw);
                ops.push(Op::Swish { c, hw });
            }
            ops.push(Op::Depthwise {
                c,
                k: args.kernel,
                stride,
                hw,
            });
            hw = same_out(hw, stride);
            ops.push(Op::BatchNorm { c, hw });
            ops.push(Op::Swish { c, hw });
            let se_dim = ((in_f as f32 * args.se_ratio) as usize).max(1);
            ops.push(Op::Se { c, se_dim, hw });
            conv_bn(&mut ops, c, out_f, 1, 1, hw);
        }
    }

    let head_in = cfg.round_filters(cfg.blocks.last().expect("stages").out_filters);
    let head_f = cfg.head_filters();
    let head_hw = hw;
    conv_bn(&mut ops, head_in, head_f, 1, 1, hw);
    ops.push(Op::Swish { c: head_f, hw });
    ops.push(Op::Pool { c: head_f, hw });
    ops.push(Op::Linear {
        d_in: head_f,
        d_out: cfg.num_classes,
    });
    Walk {
        ops,
        blocks,
        head_hw,
        head_in,
    }
}

impl Walk {
    pub fn params(&self) -> u64 {
        self.ops.iter().map(Op::params).sum()
    }

    pub fn macs(&self) -> u64 {
        self.ops.iter().map(Op::macs).sum()
    }

    /// Distinct op shapes with how often each occurs in one forward pass,
    /// in first-occurrence order.
    pub fn distinct(&self) -> Vec<(Op, usize)> {
        let mut out: Vec<(Op, usize)> = Vec::new();
        for op in &self.ops {
            match out.iter_mut().find(|(o, _)| o == op) {
                Some((_, n)) => *n += 1,
                None => out.push((*op, 1)),
            }
        }
        out
    }

    /// Mean channel count of the batch-norm layers (the payload of one
    /// cross-replica statistics exchange is twice this many floats).
    pub fn mean_bn_channels(&self) -> usize {
        let cs: Vec<usize> = self
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::BatchNorm { c, .. } => Some(*c),
                _ => None,
            })
            .collect();
        cs.iter().sum::<usize>() / cs.len().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{round_experiment, WORKLOADS};
    use ets_efficientnet::{model_stats, EfficientNet, Variant};
    use ets_nn::{param_count, Precision};
    use ets_tensor::Rng;

    #[test]
    fn walk_reproduces_model_stats_exactly() {
        let mut cfgs: Vec<ModelConfig> = WORKLOADS
            .iter()
            .map(|w| round_experiment(w.name, 1, std::path::Path::new("unused")).model)
            .collect();
        cfgs.push(ModelConfig::variant(Variant::B0));
        cfgs.push(ModelConfig::variant(Variant::B5));
        for cfg in cfgs {
            let w = walk(&cfg);
            let s = model_stats(&cfg);
            assert_eq!((w.params(), w.macs()), (s.params, s.macs), "{cfg:?}");
            assert_eq!(w.blocks.len(), cfg.total_blocks());
        }
    }

    #[test]
    fn walk_matches_the_instantiated_models() {
        for name in ["b0half_f32_1x", "wide_lars_2x"] {
            let cfg = round_experiment(name, 1, std::path::Path::new("unused")).model;
            let w = walk(&cfg);
            let mut m = EfficientNet::new(cfg, Precision::F32, &mut Rng::new(0));
            assert_eq!(w.params(), param_count(&mut m) as u64, "{name}");
        }
    }

    #[test]
    fn distinct_counts_cover_every_op() {
        let cfg = round_experiment("b0half_f32_1x", 1, std::path::Path::new("unused")).model;
        let w = walk(&cfg);
        let d = w.distinct();
        assert_eq!(d.iter().map(|(_, n)| n).sum::<usize>(), w.ops.len());
        assert!(d.len() < w.ops.len(), "repeated blocks share shapes");
        assert_eq!(
            d.iter().map(|(op, n)| op.macs() * *n as u64).sum::<u64>(),
            w.macs()
        );
    }
}
