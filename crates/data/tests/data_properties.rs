//! Property tests of the data substrate: dataset purity, shard exactness
//! under arbitrary replica/batch geometry, and augmentation invariants.

use ets_data::{load_batch, materialize_batch, AugmentConfig, Dataset, EpochPlan, SynthNet};
use ets_tensor::Rng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn synthnet_labels_cycle_through_classes(
        seed in 0u64..100,
        classes in 2usize..12,
        len_mult in 1usize..10,
    ) {
        let len = classes * len_mult;
        let ds = SynthNet::new(seed, classes, len, 8, 0.5);
        let mut buf = vec![0.0f32; 3 * 64];
        let mut counts = vec![0usize; classes];
        for i in 0..len {
            counts[ds.sample_into(i, &mut buf)] += 1;
        }
        prop_assert!(counts.iter().all(|&c| c == len_mult), "balanced classes");
    }

    #[test]
    fn noise_zero_makes_same_class_samples_identical_templates(
        seed in 0u64..100,
        classes in 2usize..6,
    ) {
        let ds = SynthNet::new(seed, classes, 4 * classes, 8, 0.0);
        let img = |i: usize| {
            let mut v = vec![0.0f32; 3 * 64];
            ds.sample_into(i, &mut v);
            v
        };
        // With noise 0, samples of the same class are pure templates.
        let a = img(0);
        let b = img(classes); // same class, different index
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn epoch_plans_differ_between_epochs_but_not_replicas(
        seed in 0u64..100,
        len_mult in 2usize..8,
    ) {
        let len = len_mult * 8;
        let e0 = EpochPlan::new(seed, 0, len);
        let e1 = EpochPlan::new(seed, 1, len);
        // Same epoch, independently constructed: identical batches.
        let e0b = EpochPlan::new(seed, 0, len);
        prop_assert_eq!(
            e0.replica_batch(0, 0, 2, 4),
            e0b.replica_batch(0, 0, 2, 4)
        );
        // Different epochs shuffle differently (overwhelmingly likely).
        let all0: Vec<usize> = (0..e0.steps(1, 8)).flat_map(|s| e0.replica_batch(s, 0, 1, 8)).collect();
        let all1: Vec<usize> = (0..e1.steps(1, 8)).flat_map(|s| e1.replica_batch(s, 0, 1, 8)).collect();
        prop_assert_ne!(all0, all1);
    }

    #[test]
    fn eval_pipeline_pure_under_any_rng(
        seed in 0u64..100,
        rng_seed_a in 0u64..1000,
        rng_seed_b in 0u64..1000,
    ) {
        let ds = SynthNet::new(seed, 4, 32, 8, 0.4);
        let (a, la) = load_batch(&ds, &[1, 5, 9], AugmentConfig::eval(), &mut Rng::new(rng_seed_a));
        let (b, lb) = load_batch(&ds, &[1, 5, 9], AugmentConfig::eval(), &mut Rng::new(rng_seed_b));
        prop_assert_eq!(la, lb);
        prop_assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn train_pipeline_preserves_labels_and_shape(
        seed in 0u64..100,
        batch in 1usize..12,
    ) {
        let ds = SynthNet::new(seed, 4, 64, 8, 0.4);
        let indices: Vec<usize> = (0..batch).map(|i| (i * 7) % 64).collect();
        let expected: Vec<usize> = indices.iter().map(|&i| i % 4).collect();
        let (x, labels) = load_batch(&ds, &indices, AugmentConfig::train(), &mut Rng::new(seed));
        prop_assert_eq!(labels, expected, "augmentation must not touch labels");
        prop_assert_eq!(x.shape().dims(), &[batch, 3, 8, 8]);
        prop_assert!(!x.has_non_finite());
    }

    #[test]
    fn materialize_matches_sample_into(
        seed in 0u64..100,
        idx in 0usize..64,
    ) {
        let ds = SynthNet::new(seed, 4, 64, 8, 0.4);
        let (batch, labels) = materialize_batch(&ds, &[idx]);
        let mut direct = vec![0.0f32; 3 * 64];
        let label = ds.sample_into(idx, &mut direct);
        prop_assert_eq!(labels[0], label);
        prop_assert_eq!(batch.data(), &direct[..]);
    }
}
