//! Property-based tests (proptest) over the workspace's core invariants:
//! kernels match references on arbitrary shapes, collectives are exact and
//! order-deterministic, schedules respect their contracts, grouping is a
//! partition, and bf16 honours its error bound.

use efficientnet_at_scale::collective::{GroupSpec, SliceShape};
use efficientnet_at_scale::data::{Dataset, EpochPlan, SynthNet};
use efficientnet_at_scale::nn::{cross_entropy, softmax};
use efficientnet_at_scale::optim::{linear_scaled_lr, LrSchedule, PolynomialDecay, Warmup};
use efficientnet_at_scale::tensor::bf16::{round_f32, MAX_REL_ERR};
use efficientnet_at_scale::tensor::ops::dispatch::GemmDesc;
use efficientnet_at_scale::tensor::ops::matmul::gemm_naive;
use efficientnet_at_scale::tensor::{Shape, Tensor};
use proptest::prelude::*;

fn small_f32() -> impl Strategy<Value = f32> {
    (-100.0f32..100.0).prop_filter("finite", |v| v.is_finite())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_matches_naive_reference(
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        let mut rng = efficientnet_at_scale::tensor::Rng::new(seed);
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        rng.fill_uniform(&mut a, -2.0, 2.0);
        rng.fill_uniform(&mut b, -2.0, 2.0);
        let mut c = vec![0.0f32; m * n];
        gemm_naive(GemmDesc::new(m, k, n), &a, &b, &mut c);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                prop_assert!((c[i * n + j] - acc).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn shape_offset_bijective(dims in proptest::collection::vec(1usize..5, 1..4)) {
        let shape = Shape::new(&dims);
        let mut seen = vec![false; shape.numel()];
        let mut idx = vec![0usize; dims.len()];
        loop {
            let off = shape.offset(&idx);
            prop_assert!(!seen[off], "offset collision");
            seen[off] = true;
            // Increment multi-index.
            let mut d = dims.len();
            loop {
                if d == 0 { break; }
                d -= 1;
                idx[d] += 1;
                if idx[d] < dims[d] { break; }
                idx[d] = 0;
                if d == 0 {
                    prop_assert!(seen.iter().all(|&s| s));
                    return Ok(());
                }
            }
            if idx.iter().all(|&i| i == 0) { break; }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bf16_error_bound_holds(x in small_f32()) {
        let r = round_f32(x);
        if x != 0.0 {
            prop_assert!(((r - x) / x).abs() <= MAX_REL_ERR);
        } else {
            prop_assert_eq!(r, 0.0);
        }
        // Idempotent.
        prop_assert_eq!(round_f32(r), r);
    }

    #[test]
    fn softmax_is_a_distribution(
        vals in proptest::collection::vec(small_f32(), 2..20),
    ) {
        let n = vals.len();
        let logits = Tensor::from_vec([1, n], vals);
        let p = softmax(&logits);
        let sum: f32 = p.data().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero(
        seed in 0u64..1000,
        classes in 2usize..10,
        batch in 1usize..5,
        smoothing in 0.0f32..0.5,
    ) {
        let mut rng = efficientnet_at_scale::tensor::Rng::new(seed);
        let mut logits = Tensor::zeros([batch, classes]);
        rng.fill_uniform(logits.data_mut(), -3.0, 3.0);
        let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();
        let out = cross_entropy(&logits, &labels, smoothing);
        prop_assert!(out.loss >= 0.0);
        for row in out.dlogits.data().chunks(classes) {
            let s: f32 = row.iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn linear_scaling_is_linear(base in 0.001f32..1.0, mult in 1usize..64) {
        let small = linear_scaled_lr(base, 256);
        let big = linear_scaled_lr(base, 256 * mult);
        prop_assert!((big - small * mult as f32).abs() < 1e-3 * big.abs().max(1.0));
    }

    #[test]
    fn warmup_never_overshoots_and_decay_is_monotone(
        warmup in 1u64..50,
        total in 50u64..500,
        peak in 0.01f32..10.0,
    ) {
        let sched = Warmup::new(warmup, PolynomialDecay {
            peak, end: 0.0, power: 2.0, total_steps: total,
        });
        let mut max_seen = 0.0f32;
        for step in 0..total + 10 {
            let lr = sched.lr(step);
            prop_assert!(lr >= 0.0);
            max_seen = max_seen.max(lr);
        }
        prop_assert!(max_seen <= peak * 1.0001, "peak overshoot: {max_seen} > {peak}");
        // After warmup the polynomial decays monotonically.
        let mut prev = f32::INFINITY;
        for step in warmup..total {
            let lr = sched.lr(step);
            prop_assert!(lr <= prev + 1e-6);
            prev = lr;
        }
    }

    #[test]
    fn bn_groups_partition_replicas(
        cores_pow in 1u32..7, // 2..128 cores
        group_pow in 0u32..5,
    ) {
        let cores = 2usize.pow(cores_pow);
        let group = 2usize.pow(group_pow).min(cores);
        let slice = SliceShape::for_cores(cores);
        let spec = GroupSpec::Contiguous(group);
        spec.validate(slice);
        let mut seen = vec![0usize; cores];
        for g in 0..spec.num_groups(slice) {
            let members = spec.members(g, slice);
            prop_assert_eq!(members.len(), group);
            for m in members {
                seen[m] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn epoch_plan_is_exact_partition(
        seed in 0u64..100,
        epoch in 0u64..5,
        len_mult in 1usize..8,
        replicas in 1usize..5,
        batch in 1usize..5,
    ) {
        let len = len_mult * replicas * batch;
        let plan = EpochPlan::new(seed, epoch, len);
        let mut seen = vec![0usize; len];
        for step in 0..plan.steps(replicas, batch) {
            for r in 0..replicas {
                for idx in plan.replica_batch(step, r, replicas, batch) {
                    seen[idx] += 1;
                }
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "duplicate or missing index");
    }

    #[test]
    fn synthnet_sampling_is_pure(
        seed in 0u64..50,
        idx_a in 0usize..64,
    ) {
        let ds = SynthNet::new(seed, 4, 64, 8, 0.3);
        let mut a = vec![0.0f32; 3 * 64];
        let mut b = vec![0.0f32; 3 * 64];
        let la = ds.sample_into(idx_a, &mut a);
        let lb = ds.sample_into(idx_a, &mut b);
        prop_assert_eq!(la, lb);
        prop_assert_eq!(a, b);
        prop_assert!(la < 4);
    }
}
