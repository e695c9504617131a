//! Activation-memory accounting.
//!
//! Training memory per core is what actually caps the per-core batch on
//! TPUs: B5 at 456² with batch 64/core (the paper's 65536 run) sits near
//! the 16 GiB-per-core HBM limit. This walk mirrors `model.rs` and counts
//! the activations a training step must keep alive for the backward pass.

use crate::config::ModelConfig;

/// Per-image memory footprint estimate, in f32 elements.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryStats {
    /// Activations cached for backward, per image (elements).
    pub activation_elems: u64,
}

/// XLA's effect on live activation memory: operator fusion (BN + swish
/// fold into the conv epilogue, so their "cached inputs" share one buffer)
/// and rematerialization of cheap elementwise ops shrink the naive
/// keep-everything estimate on TPU. The constant sizes the simulator's
/// per-core batch and is calibrated there (B5 at batch 64/core fits
/// 16 GiB, see the tests below), not measured on this engine.
///
/// What this engine keeps, for scale: per image of `b0half` at 64 px the
/// naive walk below counts 2 618 752 B (f32). The layers' caches held
/// 2 681 292 B (factor 0.98; the stem's 3×3 patch matrix is nine times
/// its input) while every BN → swish site kept x̂, BN's output inside
/// `Swish`, and the next layer's own cache; with the swish folded into
/// `BatchNorm2d` they hold 1 957 068 B, two per site, a factor of 1.34
/// (test `engine_cached_activations_per_image_of_b0half`). At batch 8
/// that is 5.5 MiB, and perfbench's `peak_rss_mb` on the `b0half_*`
/// workloads went 42.0 → 36.4 MiB. The distance from 1.34 to 3 is
/// rematerialization: the engine recomputes σ(z) in the backward pass
/// and nothing else.
pub const XLA_REMAT_FACTOR: f64 = 3.0;

impl MemoryStats {
    /// Naive activation bytes per image (every backward input kept).
    pub fn activation_bytes(&self, bytes_per_elem: f64) -> f64 {
        self.activation_elems as f64 * bytes_per_elem
    }

    /// Activation bytes per image after XLA fusion/rematerialization.
    pub fn effective_activation_bytes(&self, bytes_per_elem: f64) -> f64 {
        self.activation_bytes(bytes_per_elem) / XLA_REMAT_FACTOR
    }
}

fn same_out(extent: usize, stride: usize) -> usize {
    extent.div_ceil(stride)
}

/// Estimates activations cached per image for a training step.
///
/// Counts each layer's *input* (what its backward consumes) once: convs
/// and BNs cache full feature maps; activations cache masks/inputs of the
/// same size; SE adds only pooled vectors (negligible but counted).
pub fn memory_stats(cfg: &ModelConfig) -> MemoryStats {
    let mut elems = 0u64;
    let mut r = cfg.resolution;

    // Stem conv input (3×r²) + BN/act caches at stem resolution.
    elems += (3 * r * r) as u64;
    r = same_out(r, 2);
    let stem_f = cfg.stem_filters();
    elems += 3 * (stem_f * r * r) as u64; // conv out cached by BN, act, next layer

    for args in &cfg.blocks {
        let in_f0 = cfg.round_filters(args.in_filters);
        let out_f = cfg.round_filters(args.out_filters);
        for rep in 0..cfg.round_repeats(args.repeats) {
            let (in_f, stride) = if rep == 0 {
                (in_f0, args.stride)
            } else {
                (out_f, 1)
            };
            let expanded = in_f * args.expand_ratio;
            let r_out = same_out(r, stride);
            // Expansion stage caches at input resolution.
            if args.expand_ratio != 1 {
                elems += 3 * (expanded * r * r) as u64;
            }
            // Depthwise + BN + act at output resolution.
            elems += 3 * (expanded * r_out * r_out) as u64;
            // SE: cached gated input + pooled vectors.
            elems += (expanded * r_out * r_out) as u64;
            elems += 2 * expanded as u64;
            // Projection + BN.
            elems += 2 * (out_f * r_out * r_out) as u64;
            r = r_out;
        }
    }

    let head_f = cfg.head_filters();
    elems += 3 * (head_f * r * r) as u64;
    elems += 2 * head_f as u64; // pooled features + dropout mask

    MemoryStats {
        activation_elems: elems,
    }
}

/// Maximum per-core batch that fits in `hbm_bytes`, given the model's
/// parameters/gradients/optimizer state (3× params, f32) and activations
/// (stored at `act_bytes_per_elem` — 2.0 when convs keep bf16 copies).
pub fn max_per_core_batch(
    cfg: &ModelConfig,
    params: u64,
    hbm_bytes: f64,
    act_bytes_per_elem: f64,
) -> usize {
    let fixed = 3.0 * params as f64 * 4.0; // weights + grads + optimizer slot
    let per_image = memory_stats(cfg).effective_activation_bytes(act_bytes_per_elem);
    if fixed >= hbm_bytes {
        return 0;
    }
    ((hbm_bytes - fixed) / per_image) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::flops::model_stats;

    const HBM_PER_CORE: f64 = 16.0 * 1024.0 * 1024.0 * 1024.0;

    #[test]
    fn b5_activation_memory_is_large() {
        let cfg = ModelConfig::variant(Variant::B5);
        let m = memory_stats(&cfg);
        let bytes_per_img = m.activation_bytes(2.0); // bf16 activations
                                                     // B5 at 456² runs hundreds of MB of activations per image.
        assert!(
            bytes_per_img > 100e6 && bytes_per_img < 2e9,
            "B5 activations {bytes_per_img:.2e} B/img"
        );
    }

    #[test]
    fn paper_batch_64_per_core_is_near_the_limit() {
        // The paper pushed B5 to 64 images/core; the estimate should say
        // that's within HBM for bf16 activations but within ~4× of the
        // ceiling (i.e., genuinely "large" for this chip).
        let cfg = ModelConfig::variant(Variant::B5);
        let params = model_stats(&cfg).params;
        let max = max_per_core_batch(&cfg, params, HBM_PER_CORE, 2.0);
        assert!(max >= 64, "batch 64 must fit, got max {max}");
        assert!(max < 64 * 4, "but not by miles: max {max}");
    }

    #[test]
    fn smaller_models_fit_bigger_batches() {
        let b2 = ModelConfig::variant(Variant::B2);
        let b5 = ModelConfig::variant(Variant::B5);
        let m2 = max_per_core_batch(&b2, model_stats(&b2).params, HBM_PER_CORE, 2.0);
        let m5 = max_per_core_batch(&b5, model_stats(&b5).params, HBM_PER_CORE, 2.0);
        assert!(m2 > 2 * m5, "B2 max {m2} vs B5 max {m5}");
    }

    #[test]
    fn higher_resolution_costs_memory() {
        let lo = ModelConfig::tiny(16, 10);
        let mut hi = ModelConfig::tiny(16, 10);
        hi.resolution = 32;
        assert!(
            memory_stats(&hi).activation_elems > 3 * memory_stats(&lo).activation_elems,
            "4× pixels should cost ~4× activations"
        );
    }

    /// What the engine keeps per image of `b0half` at 64 px (the model of
    /// the `b0half_*` perfbench workloads) between forward and backward,
    /// read from the layers' caches, beside this module's naive walk.
    /// The numbers are quoted at [`XLA_REMAT_FACTOR`].
    #[test]
    fn engine_cached_activations_per_image_of_b0half() {
        use crate::EfficientNet;
        use ets_nn::{Layer, Mode, Precision};
        use ets_tensor::{Rng, Tensor};

        let cfg = ModelConfig {
            width_mult: 0.5,
            depth_mult: 0.5,
            ..ModelConfig::tiny(64, 8)
        };
        let mut rng = Rng::new(1);
        let mut model = EfficientNet::new(cfg.clone(), Precision::F32, &mut rng);
        assert_eq!(model.cached_elems(), 0);
        let x = Tensor::zeros([1, 3, 64, 64]);
        let y = model.forward(&x, Mode::Train, &mut rng);
        let kept = model.cached_elems() as u64;

        // Every BN → swish site kept a second copy (the BN output, inside
        // `Swish`) before the two became one layer: the stem, each
        // expansion and depthwise stage, and the head.
        let mut r = cfg.resolution.div_ceil(2);
        let mut swish_inputs = (cfg.stem_filters() * r * r) as u64;
        for args in &cfg.blocks {
            let out_f = cfg.round_filters(args.out_filters);
            for rep in 0..cfg.round_repeats(args.repeats) {
                let (in_f, stride) = if rep == 0 {
                    (cfg.round_filters(args.in_filters), args.stride)
                } else {
                    (out_f, 1)
                };
                let expanded = in_f * args.expand_ratio;
                if args.expand_ratio != 1 {
                    swish_inputs += (expanded * r * r) as u64;
                }
                r = r.div_ceil(stride);
                swish_inputs += (expanded * r * r) as u64;
            }
        }
        swish_inputs += (cfg.head_filters() * r * r) as u64;

        assert_eq!(4 * kept, 1_957_068, "cached bytes per image");
        assert_eq!(
            4 * (kept + swish_inputs),
            2_681_292,
            "and before the fusion"
        );
        assert_eq!(4 * memory_stats(&cfg).activation_elems, 2_618_752);

        model.backward(&Tensor::zeros(y.shape().clone()));
        assert_eq!(model.cached_elems(), 0, "backward drains every cache");
    }

    #[test]
    fn zero_when_params_alone_overflow() {
        let cfg = ModelConfig::variant(Variant::B0);
        assert_eq!(max_per_core_batch(&cfg, 1 << 40, HBM_PER_CORE, 2.0), 0);
    }
}
