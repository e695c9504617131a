//! The training-step time model — the generator of Table 1.
//!
//! `step = compute + all_reduce + bn_sync`, where compute is a roofline on
//! the calibrated MXU efficiency, all-reduce is the 2-D torus model on the
//! calibrated link, and BN sync prices §3.4's per-layer group reductions.
//! (TPU implementations partially overlap the gradient all-reduce with the
//! tail of the backward pass; the calibrated link bandwidth is *achieved*
//! bandwidth, which absorbs that overlap.)

use crate::calibration::{calibrated_link, core_spec, mxu_efficiency};
use crate::xla::{padded_per_core_batch, per_core_batch};
use ets_collective::{
    bn_sync_time, canonical_grid, grid_all_reduce_time, ring_all_reduce_time,
    torus_all_reduce_time, tree_all_reduce_time, Backend, GroupSpec, LinkSpec, SliceShape,
};
use ets_efficientnet::{model_stats, ModelConfig, ModelStats, Variant};

/// A training configuration to be priced.
#[derive(Clone, Debug)]
pub struct StepConfig {
    pub variant: Variant,
    pub cores: usize,
    pub global_batch: usize,
    /// BN grouping (affects the bn-sync term only).
    pub bn_group: GroupSpec,
}

impl StepConfig {
    /// Standard configuration: per Table 1, with 16-replica BN groups.
    pub fn new(variant: Variant, cores: usize, global_batch: usize) -> Self {
        StepConfig {
            variant,
            cores,
            global_batch,
            bn_group: GroupSpec::Contiguous(16),
        }
    }
}

/// Breakdown of one step's simulated time.
#[derive(Clone, Copy, Debug)]
pub struct StepTime {
    /// Forward+backward compute, seconds.
    pub compute: f64,
    /// Gradient all-reduce, seconds.
    pub all_reduce: f64,
    /// The portion of `all_reduce` the bucketed exchange can hide behind
    /// backward compute (informational decomposition — see
    /// [`hidden_all_reduce`]). Not subtracted from [`Self::total`]: the
    /// model conservatively charges the full exchange, matching Table 1's
    /// serialized all-reduce shares.
    pub all_reduce_hidden: f64,
    /// Distributed-BN statistic reductions, seconds.
    pub bn_sync: f64,
}

impl StepTime {
    /// Total step seconds.
    pub fn total(&self) -> f64 {
        self.compute + self.all_reduce + self.bn_sync
    }

    /// Fraction of the step spent in the gradient all-reduce — Table 1's
    /// last column.
    pub fn all_reduce_share(&self) -> f64 {
        self.all_reduce / self.total()
    }

    /// Percent of the gradient all-reduce hidden behind backward compute
    /// by per-bucket overlap (0 when there is no all-reduce at all).
    pub fn overlap_pct(&self) -> f64 {
        if self.all_reduce > 0.0 {
            100.0 * self.all_reduce_hidden / self.all_reduce
        } else {
            0.0
        }
    }

    /// Throughput in images/ms for a given global batch.
    pub fn throughput_img_per_ms(&self, global_batch: usize) -> f64 {
        global_batch as f64 / (self.total() * 1000.0)
    }
}

/// Approximate total BN channels across the network (sum of per-BN-layer
/// channel counts) — what the per-step BN sync actually reduces.
pub fn total_bn_channels(cfg: &ModelConfig) -> usize {
    let mut channels = cfg.stem_filters();
    for args in &cfg.blocks {
        let in_f0 = cfg.round_filters(args.in_filters);
        let out_f = cfg.round_filters(args.out_filters);
        for rep in 0..cfg.round_repeats(args.repeats) {
            let in_f = if rep == 0 { in_f0 } else { out_f };
            let expanded = in_f * args.expand_ratio;
            if args.expand_ratio != 1 {
                channels += expanded; // expand BN
            }
            channels += expanded; // depthwise BN
            channels += out_f; // projection BN
        }
    }
    channels + cfg.head_filters()
}

/// Exponent of MXU-efficiency growth with per-core batch, anchored at 1.0
/// for batch 32 (all of Table 1's rows). Bigger per-core batches give the
/// MXUs denser GEMMs; this constant is calibrated so the B5 @ 65536 run
/// lands near Figure 1's 64-minute point (see EXPERIMENTS.md).
pub const BATCH_EFF_EXPONENT: f64 = 0.5;

/// Relative MXU efficiency at a padded per-core batch vs the batch-32
/// anchor.
pub fn batch_eff_factor(padded_per_core: usize) -> f64 {
    (padded_per_core as f64 / 32.0).powf(BATCH_EFF_EXPONENT)
}

/// Gradient elements per all-reduce bucket, mirroring the trainer's
/// default bucket size (`ets-train`'s `DEFAULT_BUCKET_ELEMS`).
pub const OVERLAP_BUCKET_ELEMS: f64 = (1 << 20) as f64;

/// Exposed-vs-hidden decomposition of the gradient all-reduce: with the
/// gradient split into `⌈elems / OVERLAP_BUCKET_ELEMS⌉` buckets, every
/// bucket except the last can exchange while later layers' backward
/// still computes, so up to `(1 − 1/buckets)` of the exchange hides —
/// capped at two-thirds of backward-dominated compute (the bucketed
/// exchange cannot start before its bucket's gradients exist).
pub fn hidden_all_reduce(all_reduce: f64, compute: f64, gradient_elems: f64) -> f64 {
    let buckets = (gradient_elems / OVERLAP_BUCKET_ELEMS).ceil().max(1.0);
    (all_reduce * (1.0 - 1.0 / buckets)).min(compute * 2.0 / 3.0)
}

/// Prices one training step.
pub fn step_time(cfg: &StepConfig) -> StepTime {
    let model_cfg = ModelConfig::variant(cfg.variant);
    let stats: ModelStats = model_stats(&model_cfg);
    let slice = SliceShape::for_cores(cfg.cores);
    let link = calibrated_link();

    let per_core = per_core_batch(cfg.global_batch, cfg.cores);
    let padded = padded_per_core_batch(per_core);
    let eff = mxu_efficiency(cfg.variant) * batch_eff_factor(padded);
    let compute = padded as f64 * stats.flops_train() / (eff * core_spec().peak_flops);

    let all_reduce = torus_all_reduce_time(stats.gradient_bytes(), slice, link);
    let all_reduce_hidden = hidden_all_reduce(all_reduce, compute, stats.gradient_bytes() / 4.0);

    let group = cfg.bn_group.group_size(slice);
    let bn_sync = bn_sync_time(total_bn_channels(&model_cfg), group, link);

    StepTime {
        compute,
        all_reduce,
        all_reduce_hidden,
        bn_sync,
    }
}

/// All-reduce seconds for one step's gradient exchange under an explicit
/// collective backend over `cores` replicas — the per-backend pricing
/// behind the scaling bench's flat-ring vs torus-2d rows. The torus
/// prices [`grid_all_reduce_time`] on [`canonical_grid`]`(cores)`: the
/// member grid the executed `Torus2d` backend actually routes over (not
/// the chip slice), so the analytic rows and the executed path agree.
pub fn backend_all_reduce_time(backend: Backend, bytes: f64, cores: usize, link: LinkSpec) -> f64 {
    match backend {
        Backend::Tree => tree_all_reduce_time(bytes, cores, link),
        Backend::Ring => ring_all_reduce_time(bytes, cores, link),
        Backend::Torus2d => {
            let (rows, cols) = canonical_grid(cores);
            grid_all_reduce_time(bytes, rows, cols, link)
        }
        Backend::Auto => backend_all_reduce_time(
            ets_collective::auto_backend_choice(bytes, cores, link),
            bytes,
            cores,
            link,
        ),
    }
}

/// The concrete backend [`Backend::Auto`] resolves to for `cfg`'s
/// gradient exchange: the α–β cost models priced at the run's gradient
/// volume and world size over the calibrated link. Figure 1's e2e rows
/// record this so the committed figure names the transport the executed
/// `Auto` path would actually route over.
pub fn auto_backend_for(cfg: &StepConfig) -> Backend {
    let stats = model_stats(&ModelConfig::variant(cfg.variant));
    ets_collective::auto_backend_choice(stats.gradient_bytes(), cfg.cores, calibrated_link())
}

/// Prices one training step with the gradient all-reduce charged to an
/// explicit collective backend instead of the chip-slice torus model.
/// Everything else (compute roofline, BN sync) matches [`step_time`].
pub fn step_time_for_backend(cfg: &StepConfig, backend: Backend) -> StepTime {
    let base = step_time(cfg);
    let stats = model_stats(&ModelConfig::variant(cfg.variant));
    let link = calibrated_link();
    let all_reduce = backend_all_reduce_time(backend, stats.gradient_bytes(), cfg.cores, link);
    StepTime {
        all_reduce,
        all_reduce_hidden: hidden_all_reduce(
            all_reduce,
            base.compute,
            stats.gradient_bytes() / 4.0,
        ),
        ..base
    }
}

/// Prices one step on a *degraded* sub-torus after an elastic shrink:
/// `surviving_cores` (possibly odd — the torus uses the even floor, see
/// [`SliceShape::surviving`]) absorb `cfg`'s full global batch. The
/// residual shards are uneven, and the synchronous step gates on the
/// most-loaded core, so the per-core batch is the ceiling split. BN
/// groups are deterministically [`GroupSpec::regroup`]ed to the
/// surviving world, mirroring the trainer's resize protocol.
///
/// On a healthy world (`surviving_cores == cfg.cores`, batch divisible)
/// this agrees with [`step_time`] exactly.
pub fn step_time_elastic(cfg: &StepConfig, surviving_cores: usize) -> StepTime {
    let model_cfg = ModelConfig::variant(cfg.variant);
    let stats: ModelStats = model_stats(&model_cfg);
    let slice = SliceShape::surviving(surviving_cores);
    let active = slice.cores();
    let link = calibrated_link();

    // Most-loaded survivor: ceiling split of the (unchanged) global batch.
    let per_core = cfg.global_batch.div_ceil(active);
    let padded = padded_per_core_batch(per_core);
    let eff = mxu_efficiency(cfg.variant) * batch_eff_factor(padded);
    let compute = padded as f64 * stats.flops_train() / (eff * core_spec().peak_flops);

    let all_reduce = torus_all_reduce_time(stats.gradient_bytes(), slice, link);
    let all_reduce_hidden = hidden_all_reduce(all_reduce, compute, stats.gradient_bytes() / 4.0);

    let group = cfg.bn_group.regroup(active).group_size(slice);
    let bn_sync = bn_sync_time(total_bn_channels(&model_cfg), group, link);

    StepTime {
        compute,
        all_reduce,
        all_reduce_hidden,
        bn_sync,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_row(v: Variant, cores: usize, gbs: usize) -> (f64, f64) {
        let st = step_time(&StepConfig::new(v, cores, gbs));
        (st.throughput_img_per_ms(gbs), st.all_reduce_share() * 100.0)
    }

    #[test]
    fn anchors_reproduce_exactly() {
        let (thr, share) = table1_row(Variant::B2, 128, 4096);
        assert!(
            (thr - 57.57).abs() / 57.57 < 0.05,
            "B2@128 throughput {thr}"
        );
        assert!((share - 2.1).abs() < 0.5, "B2@128 AR share {share}");
        let (thr5, _) = table1_row(Variant::B5, 128, 4096);
        assert!(
            (thr5 - 9.76).abs() / 9.76 < 0.05,
            "B5@128 throughput {thr5}"
        );
    }

    #[test]
    fn throughput_scales_linearly_with_cores() {
        // Table 1's headline shape: doubling cores (at fixed per-core
        // batch) doubles throughput to within a few percent.
        for v in [Variant::B2, Variant::B5] {
            let (t128, _) = table1_row(v, 128, 4096);
            let (t256, _) = table1_row(v, 256, 8192);
            let (t512, _) = table1_row(v, 512, 16384);
            let (t1024, _) = table1_row(v, 1024, 32768);
            assert!(
                (t256 / t128 - 2.0).abs() < 0.1,
                "{v:?} 256/128 {}",
                t256 / t128
            );
            assert!((t512 / t128 - 4.0).abs() < 0.2, "{v:?}");
            assert!((t1024 / t128 - 8.0).abs() < 0.4, "{v:?}");
        }
    }

    #[test]
    fn b5_allreduce_share_below_b2() {
        // B5 computes ~10× more per parameter: its all-reduce share must be
        // well under B2's at every scale (Table 1: ~1% vs ~2.5%).
        for &(cores, gbs) in &[(128usize, 4096usize), (512, 16384), (1024, 32768)] {
            let (_, s2) = table1_row(Variant::B2, cores, gbs);
            let (_, s5) = table1_row(Variant::B5, cores, gbs);
            assert!(s5 < s2, "cores {cores}: B5 {s5} vs B2 {s2}");
            assert!(s5 > 0.2 && s5 < 2.0, "B5 share {s5} out of band");
            assert!(s2 > 1.0 && s2 < 4.0, "B2 share {s2} out of band");
        }
    }

    #[test]
    fn step_time_constant_across_scale() {
        // "step time remains approximately the same at scale" (§4).
        let t128 = step_time(&StepConfig::new(Variant::B2, 128, 4096)).total();
        let t1024 = step_time(&StepConfig::new(Variant::B2, 1024, 32768)).total();
        assert!((t1024 / t128 - 1.0).abs() < 0.05, "ratio {}", t1024 / t128);
    }

    #[test]
    fn doubling_per_core_batch_scales_compute_sublinearly() {
        // Twice the samples, but √2× the efficiency: compute grows √2×.
        let a = step_time(&StepConfig::new(Variant::B5, 1024, 32768));
        let b = step_time(&StepConfig::new(Variant::B5, 1024, 65536));
        let expect = 2.0 / 2.0f64.powf(BATCH_EFF_EXPONENT);
        assert!((b.compute / a.compute - expect).abs() < 0.01);
        assert!(
            (b.all_reduce - a.all_reduce).abs() < 1e-9,
            "AR independent of batch"
        );
    }

    #[test]
    fn small_per_core_batches_waste_padding() {
        // 2048 cores at global batch 8192 → 4/core → padded to 8: the same
        // total compute as 16384 would do useful work.
        let wasteful = step_time(&StepConfig::new(Variant::B2, 2048, 8192));
        let efficient = step_time(&StepConfig::new(Variant::B2, 2048, 16384));
        assert!((wasteful.compute / efficient.compute - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bn_sync_grows_with_group_but_stays_minor() {
        let mut small = StepConfig::new(Variant::B2, 1024, 32768);
        small.bn_group = GroupSpec::Contiguous(2);
        let mut large = StepConfig::new(Variant::B2, 1024, 32768);
        large.bn_group = GroupSpec::Contiguous(64);
        let ts = step_time(&small);
        let tl = step_time(&large);
        assert!(tl.bn_sync > ts.bn_sync);
        assert!(tl.bn_sync / tl.total() < 0.05, "BN sync must stay minor");
    }

    #[test]
    fn elastic_pricing_agrees_with_healthy_step() {
        let cfg = StepConfig::new(Variant::B2, 128, 4096);
        let a = step_time(&cfg);
        let b = step_time_elastic(&cfg, 128);
        assert!((a.total() - b.total()).abs() < 1e-15);
        assert!((a.all_reduce - b.all_reduce).abs() < 1e-15);
    }

    #[test]
    fn elastic_pricing_charges_the_most_loaded_survivor() {
        let cfg = StepConfig::new(Variant::B2, 128, 4096);
        let healthy = step_time(&cfg).total();
        // 127 survivors → even floor 126 → 33/core padded to 40.
        let degraded = step_time_elastic(&cfg, 127);
        assert!(degraded.total() > healthy, "shrunken torus must be slower");
        // Still fewer survivors: strictly more compute per core.
        let worse = step_time_elastic(&cfg, 100);
        assert!(worse.compute > degraded.compute);
    }

    #[test]
    fn overlap_decomposition_is_informational() {
        // The hidden portion is reported but never subtracted: totals,
        // shares, and the Table-1 anchors are untouched by satellite
        // instrumentation.
        let st = step_time(&StepConfig::new(Variant::B2, 128, 4096));
        assert_eq!(st.total(), st.compute + st.all_reduce + st.bn_sync);
        assert!(st.all_reduce_hidden > 0.0, "B2 has multiple buckets");
        assert!(st.all_reduce_hidden < st.all_reduce, "never fully hidden");
        assert!(st.overlap_pct() > 0.0 && st.overlap_pct() < 100.0);
        // B2 has ~9.1M gradient elements → 9 buckets → 8/9 hideable
        // (compute dwarfs the exchange, so the ⅔·compute cap is slack).
        assert!(
            (st.overlap_pct() - 100.0 * (1.0 - 1.0 / 9.0)).abs() < 1e-6,
            "overlap {}",
            st.overlap_pct()
        );
    }

    #[test]
    fn hidden_never_exceeds_caps() {
        // Single bucket: nothing to overlap with.
        assert_eq!(hidden_all_reduce(1.0, 10.0, 1000.0), 0.0);
        // Many buckets but tiny compute: the ⅔·compute cap binds.
        let h = hidden_all_reduce(10.0, 0.3, 1e9);
        assert!((h - 0.2).abs() < 1e-12, "cap {h}");
    }

    #[test]
    fn backend_pricing_orders_torus_under_flat_ring_at_scale() {
        // The growth law the scaling bench gates on: at 1024→4096 cores
        // the flat ring pays 2(p−1) latency hops while the canonical
        // grid pays 2(rows+cols−2), so the ring's all-reduce share grows
        // strictly faster.
        let link = calibrated_link();
        let bytes = 36.4e6;
        for cores in [1024usize, 2048, 4096] {
            let ring = backend_all_reduce_time(Backend::Ring, bytes, cores, link);
            let torus = backend_all_reduce_time(Backend::Torus2d, bytes, cores, link);
            assert!(torus < ring, "cores={cores}: torus {torus} vs ring {ring}");
        }
        let r_growth = backend_all_reduce_time(Backend::Ring, bytes, 4096, link)
            / backend_all_reduce_time(Backend::Ring, bytes, 1024, link);
        let t_growth = backend_all_reduce_time(Backend::Torus2d, bytes, 4096, link)
            / backend_all_reduce_time(Backend::Torus2d, bytes, 1024, link);
        assert!(
            t_growth < r_growth,
            "torus growth {t_growth} must trail ring growth {r_growth}"
        );
    }

    #[test]
    fn step_time_for_backend_only_touches_all_reduce() {
        let cfg = StepConfig::new(Variant::B2, 1024, 32768);
        let base = step_time(&cfg);
        for backend in Backend::ALL {
            let st = step_time_for_backend(&cfg, backend);
            assert_eq!(st.compute, base.compute, "{backend}");
            assert_eq!(st.bn_sync, base.bn_sync, "{backend}");
            assert!(st.all_reduce > 0.0, "{backend}");
        }
        // Auto never prices worse than its cheapest member.
        let auto = step_time_for_backend(&cfg, Backend::Auto).all_reduce;
        for backend in [Backend::Tree, Backend::Ring, Backend::Torus2d] {
            assert!(auto <= step_time_for_backend(&cfg, backend).all_reduce + 1e-18);
        }
    }

    #[test]
    fn bn_channel_count_sane() {
        let c = total_bn_channels(&ModelConfig::variant(Variant::B0));
        // B0 has ~12k BN features across 49 BN layers.
        assert!(c > 5_000 && c < 30_000, "B0 BN channels {c}");
    }
}
