//! Analytic parameter and FLOP counts for any [`ModelConfig`].
//!
//! The pod simulator prices compute from these numbers, so they must track
//! the real architecture: the walk below mirrors `model.rs` layer-for-layer
//! and a unit test pins the two against each other on an instantiable
//! configuration.
//!
//! Conventions: `macs` counts multiply–accumulates of the *forward* pass at
//! the config's native resolution (Tan & Le's "FLOPs" column is MACs);
//! `flops_forward = 2·macs`; the backward pass costs ≈ 2× forward.

use crate::config::ModelConfig;

/// Aggregate cost statistics for one model at its native resolution.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModelStats {
    /// Trainable scalar count.
    pub params: u64,
    /// Forward multiply–accumulates per image.
    pub macs: u64,
}

impl ModelStats {
    /// Forward FLOPs per image (2 per MAC).
    pub fn flops_forward(&self) -> f64 {
        2.0 * self.macs as f64
    }

    /// Training-step FLOPs per image: forward + backward (≈ 2× forward).
    pub fn flops_train(&self) -> f64 {
        3.0 * self.flops_forward()
    }

    /// Gradient payload in bytes (f32).
    pub fn gradient_bytes(&self) -> f64 {
        self.params as f64 * 4.0
    }
}

/// "SAME"-padded output extent: `ceil(in / stride)`.
fn same_out(extent: usize, stride: usize) -> usize {
    extent.div_ceil(stride)
}

/// Computes parameter and MAC counts for `cfg`.
pub fn model_stats(cfg: &ModelConfig) -> ModelStats {
    let mut params = 0u64;
    let mut macs = 0u64;
    let mut r = cfg.resolution;

    let conv =
        |params: &mut u64, macs: &mut u64, cin: usize, cout: usize, k: usize, out_hw: usize| {
            *params += (cout * cin * k * k) as u64;
            *macs += (cout * out_hw * out_hw) as u64 * (cin * k * k) as u64;
        };
    let bn = |params: &mut u64, c: usize| *params += 2 * c as u64;

    // Stem: 3×3 stride-2 conv to stem_filters + BN.
    let stem_f = cfg.stem_filters();
    r = same_out(r, 2);
    conv(&mut params, &mut macs, 3, stem_f, 3, r);
    bn(&mut params, stem_f);

    // Blocks.
    for args in &cfg.blocks {
        let in_f0 = cfg.round_filters(args.in_filters);
        let out_f = cfg.round_filters(args.out_filters);
        let repeats = cfg.round_repeats(args.repeats);
        for rep in 0..repeats {
            let (in_f, stride) = if rep == 0 {
                (in_f0, args.stride)
            } else {
                (out_f, 1)
            };
            let expanded = in_f * args.expand_ratio;
            // Expansion 1×1 (skipped when ratio is 1) at input resolution.
            if args.expand_ratio != 1 {
                conv(&mut params, &mut macs, in_f, expanded, 1, r);
                bn(&mut params, expanded);
            }
            // Depthwise k×k at output resolution.
            let r_out = same_out(r, stride);
            params += (expanded * args.kernel * args.kernel) as u64;
            macs += (expanded * r_out * r_out) as u64 * (args.kernel * args.kernel) as u64;
            bn(&mut params, expanded);
            // Squeeze-excite: two dense layers on pooled features.
            let se_dim = ((in_f as f32 * args.se_ratio) as usize).max(1);
            params += (expanded * se_dim + se_dim) as u64; // reduce (w + b)
            params += (se_dim * expanded + expanded) as u64; // expand (w + b)
            macs += 2 * (expanded * se_dim) as u64;
            // Projection 1×1 at output resolution.
            conv(&mut params, &mut macs, expanded, out_f, 1, r_out);
            bn(&mut params, out_f);
            r = r_out;
        }
    }

    // Head: 1×1 conv + BN + FC.
    let last_f = cfg.round_filters(cfg.blocks.last().unwrap().out_filters);
    let head_f = cfg.head_filters();
    conv(&mut params, &mut macs, last_f, head_f, 1, r);
    bn(&mut params, head_f);
    params += (head_f * cfg.num_classes + cfg.num_classes) as u64;
    macs += (head_f * cfg.num_classes) as u64;

    ModelStats { params, macs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::model::EfficientNet;
    use ets_nn::{param_count, Precision};
    use ets_tensor::Rng;

    fn stats_for(v: Variant) -> ModelStats {
        model_stats(&ModelConfig::variant(v))
    }

    #[test]
    fn b0_matches_published_numbers() {
        let s = stats_for(Variant::B0);
        // Reference: 5.29 M params, 0.39 B MACs at 224².
        let p_rel = (s.params as f64 - 5.29e6).abs() / 5.29e6;
        assert!(p_rel < 0.02, "B0 params {}", s.params);
        let m_rel = (s.macs as f64 - 0.39e9).abs() / 0.39e9;
        assert!(m_rel < 0.08, "B0 MACs {}", s.macs);
    }

    #[test]
    fn b2_matches_published_numbers() {
        let s = stats_for(Variant::B2);
        // Reference: 9.2 M params, 1.0 B MACs at 260².
        let p_rel = (s.params as f64 - 9.2e6).abs() / 9.2e6;
        assert!(p_rel < 0.03, "B2 params {}", s.params);
        let m_rel = (s.macs as f64 - 1.0e9).abs() / 1.0e9;
        assert!(m_rel < 0.12, "B2 MACs {}", s.macs);
    }

    #[test]
    fn b5_matches_published_numbers() {
        let s = stats_for(Variant::B5);
        // Reference: 30 M params, 9.9 B MACs at 456².
        let p_rel = (s.params as f64 - 30.0e6).abs() / 30.0e6;
        assert!(p_rel < 0.04, "B5 params {}", s.params);
        let m_rel = (s.macs as f64 - 9.9e9).abs() / 9.9e9;
        assert!(m_rel < 0.12, "B5 MACs {}", s.macs);
    }

    #[test]
    fn analytic_params_match_instantiated_model() {
        let cfg = ModelConfig::tiny(32, 10);
        let analytic = model_stats(&cfg).params;
        let mut rng = Rng::new(0);
        let mut m = EfficientNet::new(cfg, Precision::F32, &mut rng);
        let actual = param_count(&mut m) as u64;
        assert_eq!(analytic, actual, "flops.rs walk diverged from model.rs");
    }

    #[test]
    fn scaling_monotone() {
        let variants = [
            Variant::B0,
            Variant::B1,
            Variant::B2,
            Variant::B3,
            Variant::B4,
            Variant::B5,
            Variant::B6,
            Variant::B7,
        ];
        let mut prev = ModelStats::default();
        for v in variants {
            let s = stats_for(v);
            assert!(s.params > prev.params, "{v:?} params must grow");
            assert!(s.macs > prev.macs, "{v:?} MACs must grow");
            prev = s;
        }
    }

    #[test]
    fn derived_quantities() {
        let s = ModelStats {
            params: 10,
            macs: 100,
        };
        assert_eq!(s.flops_forward(), 200.0);
        assert_eq!(s.flops_train(), 600.0);
        assert_eq!(s.gradient_bytes(), 40.0);
    }
}
