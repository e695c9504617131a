//! Property tests of the performance and convergence models: physical
//! sanity (monotonicity, positivity), conservation across the composite
//! time-to-accuracy pipeline, and eval-loop simulation invariants.

use ets_efficientnet::Variant;
use ets_tpu_sim::{
    accuracy_at_epoch, batch_eff_factor, eval_pass_seconds, predict_peak_accuracy,
    simulate_eval_loop, step_time, time_to_accuracy, EvalMode, OptimizerKind, RunConfig,
    StepConfig,
};
use proptest::prelude::*;

const VARIANTS: [Variant; 4] = [Variant::B0, Variant::B2, Variant::B5, Variant::B7];

fn variant(i: usize) -> Variant {
    VARIANTS[i % VARIANTS.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn step_time_components_positive_and_finite(
        vi in 0usize..4,
        cores_pow in 6u32..11, // 64..1024
        per_core_pow in 1u32..7, // 2..64
    ) {
        let cores = 2usize.pow(cores_pow);
        let gbs = cores * 2usize.pow(per_core_pow);
        let st = step_time(&StepConfig::new(variant(vi), cores, gbs));
        prop_assert!(st.compute > 0.0 && st.compute.is_finite());
        prop_assert!(st.all_reduce >= 0.0 && st.all_reduce.is_finite());
        prop_assert!(st.bn_sync >= 0.0);
        prop_assert!(st.all_reduce_share() < 0.5, "AR share must stay minor");
    }

    #[test]
    fn throughput_monotone_in_cores(
        vi in 0usize..4,
        per_core_pow in 3u32..7,
    ) {
        let per_core = 2usize.pow(per_core_pow);
        let mut prev = 0.0;
        for cores in [128usize, 256, 512, 1024] {
            let gbs = cores * per_core;
            let st = step_time(&StepConfig::new(variant(vi), cores, gbs));
            let thr = st.throughput_img_per_ms(gbs);
            prop_assert!(thr > prev, "throughput must grow with cores");
            prev = thr;
        }
    }

    #[test]
    fn bigger_models_are_slower(
        cores_pow in 7u32..11,
    ) {
        let cores = 2usize.pow(cores_pow);
        let gbs = cores * 32;
        let mut prev = f64::INFINITY;
        for v in [Variant::B0, Variant::B2, Variant::B5, Variant::B7] {
            let thr = step_time(&StepConfig::new(v, cores, gbs)).throughput_img_per_ms(gbs);
            prop_assert!(thr > 0.0);
            prop_assert!(thr < prev, "{v:?} must be slower than the smaller model");
            prev = thr;
        }
    }

    #[test]
    fn batch_efficiency_factor_monotone(p in 0u32..8) {
        let small = batch_eff_factor(2usize.pow(p));
        let large = batch_eff_factor(2usize.pow(p + 1));
        prop_assert!(large > small);
        prop_assert!((batch_eff_factor(32) - 1.0).abs() < 1e-12, "anchored at 32");
    }

    #[test]
    fn accuracy_model_monotone_decreasing_in_batch(
        vi in 0usize..4,
        opt_is_lars in any::<bool>(),
        batch_pow in 12u32..17,
    ) {
        let v = variant(vi);
        let opt = if opt_is_lars { OptimizerKind::Lars } else { OptimizerKind::RmsProp };
        let b = 2usize.pow(batch_pow);
        let acc_small = predict_peak_accuracy(v, opt, b);
        let acc_large = predict_peak_accuracy(v, opt, b * 2);
        prop_assert!(acc_large <= acc_small + 0.003, "batch {b}: {acc_small} → {acc_large}");
        prop_assert!((0.0..=1.0).contains(&acc_large));
    }

    #[test]
    fn lars_dominates_rmsprop_beyond_16k(
        vi in 0usize..4,
        batch_pow in 15u32..18, // 32768..131072
    ) {
        let v = variant(vi);
        let b = 2usize.pow(batch_pow);
        let lars = predict_peak_accuracy(v, OptimizerKind::Lars, b);
        let rms = predict_peak_accuracy(v, OptimizerKind::RmsProp, b);
        prop_assert!(lars > rms, "{v:?}@{b}: LARS {lars} vs RMSProp {rms}");
    }

    #[test]
    fn learning_curve_bounded_and_peaks_at_peak(
        peak_frac in 0.5f64..0.99,
        warmup_frac in 0.01f64..0.3,
        peak_acc in 0.5f64..0.9,
    ) {
        let total = 350.0;
        let peak_epoch = peak_frac * total;
        let warmup = warmup_frac * peak_epoch;
        let mut best: (f64, f64) = (0.0, -1.0);
        for e in 0..=350 {
            let a = accuracy_at_epoch(peak_acc, peak_epoch, warmup, e as f64);
            prop_assert!((0.0..=peak_acc + 1e-12).contains(&a));
            if a > best.1 {
                best = (e as f64, a);
            }
        }
        // Sampling on integer epochs lands within one epoch of the model's
        // continuous peak; the post-peak decay is ~2e-3/epoch-fraction.
        prop_assert!((best.1 - peak_acc).abs() < 1e-4);
        prop_assert!((best.0 - peak_epoch).abs() <= 1.0, "argmax {} vs {peak_epoch}", best.0);
    }

    /// In the *fast-training* regime (epochs shorter than one separate-
    /// evaluator pass — exactly the regime the paper's 1024-core runs live
    /// in), distributed eval wins. With slow epochs the separate evaluator
    /// pipelines in parallel with training and can be fine, which is why
    /// the claim is scoped.
    #[test]
    fn distributed_eval_never_slower_than_separate_at_scale(
        epoch_secs in 1.0f64..20.0,
        peak_epoch in 10u32..350,
    ) {
        let sep = simulate_eval_loop(
            Variant::B2, 1024, epoch_secs, 350, peak_epoch,
            EvalMode::SeparateEvaluator { eval_cores: 8 },
        );
        let dist = simulate_eval_loop(
            Variant::B2, 1024, epoch_secs, 350, peak_epoch,
            EvalMode::Distributed,
        );
        prop_assert!(dist.time_to_peak_observed <= sep.time_to_peak_observed * 1.001);
        // Both must have actually observed the peak at or after training it.
        prop_assert!(sep.time_to_peak_observed >= sep.train_time_to_peak);
        prop_assert!(dist.time_to_peak_observed >= dist.train_time_to_peak);
    }

    #[test]
    fn eval_pass_time_inversely_proportional_to_cores(
        vi in 0usize..4,
        cores_pow in 3u32..11,
    ) {
        let v = variant(vi);
        let c = 2usize.pow(cores_pow);
        let t1 = eval_pass_seconds(v, c, 0.0);
        let t2 = eval_pass_seconds(v, 2 * c, 0.0);
        prop_assert!((t1 / t2 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn time_to_accuracy_decreases_with_cores(
        vi in 0usize..4,
    ) {
        let v = variant(vi);
        let mut prev = f64::INFINITY;
        for cores in [128usize, 256, 512, 1024] {
            let out = time_to_accuracy(&RunConfig::paper(v, cores, cores * 32, OptimizerKind::Lars));
            prop_assert!(out.seconds_to_peak < prev);
            prop_assert!(out.seconds_to_peak > 0.0);
            prev = out.seconds_to_peak;
        }
    }
}
