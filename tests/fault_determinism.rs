//! Fault-plan determinism: the chaos layer must be reproducible from its
//! seed alone, at every level — generated plans, compiled schedules, and
//! full training runs under injection.
//!
//! The proptest blocks fuzz the pure layers; the plain `#[test]`s below
//! them pin the end-to-end trainer property on fixed seeds.

use efficientnet_at_scale::collective::{FaultKind, FaultPlan};
use efficientnet_at_scale::train::{train, Experiment};
use proptest::prelude::*;

const WORLDS: [usize; 3] = [2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_plans_are_deterministic_and_valid(
        seed in 0u64..10_000,
        world_idx in 0usize..3,
        n_faults in 1usize..5,
    ) {
        let world = WORLDS[world_idx];
        let horizon = 32.0;
        let a = FaultPlan::generate(seed, world, horizon, n_faults);
        let b = FaultPlan::generate(seed, world, horizon, n_faults);
        prop_assert_eq!(&a, &b, "same seed must give the identical plan");
        a.validate();
        prop_assert_eq!(a.events.len(), n_faults);
        for ev in &a.events {
            prop_assert!(ev.at_s >= 0.0 && ev.at_s < horizon);
            prop_assert!(ev.duration_s >= 0.0);
            match ev.kind {
                FaultKind::LinkDegrade { link, scale } => {
                    prop_assert!(link < world);
                    prop_assert!(scale > 0.0 && scale <= 1.0);
                }
                FaultKind::Straggler { replica, slowdown } => {
                    prop_assert!(replica < world);
                    prop_assert!(slowdown >= 1.0);
                }
                FaultKind::Preempt { replica } => prop_assert!(replica < world),
                FaultKind::TransientCollective { failures } => {
                    prop_assert!(failures >= 1);
                }
                // Step-keyed kinds come from `generate_elastic` and
                // `generate_corruption` only; the classic stream is pinned.
                FaultKind::PermanentLoss { .. }
                | FaultKind::PayloadBitFlip { .. }
                | FaultKind::ComputeCorruption { .. } => {
                    prop_assert!(false, "classic generator emitted {:?}", ev.kind);
                }
            }
        }
    }

    #[test]
    fn compiled_schedules_are_pure_functions_of_the_plan(
        seed in 0u64..10_000,
        world_idx in 0usize..3,
        n_faults in 1usize..5,
        total_steps in 1u64..64,
    ) {
        let world = WORLDS[world_idx];
        let plan = FaultPlan::generate(seed, world, 32.0, n_faults);
        let s1 = plan.compile(total_steps);
        let s2 = plan.compile(total_steps);
        prop_assert_eq!(&s1, &s2, "compilation must be pure");
        for step in 0..total_steps {
            prop_assert!(s1.slowdown_at(step) >= 1.0, "slowdowns never speed up");
        }
        prop_assert!(s1.preempt_steps().iter().all(|&p| p < total_steps));
        prop_assert!(
            s1.preempt_steps().windows(2).all(|w| w[0] < w[1]),
            "preempt steps sorted and deduplicated"
        );
    }
}

/// Shrunk chaos experiment sized so even the 8-replica world stays quick.
fn tiny_exp(world: usize) -> Experiment {
    let mut e = Experiment::proxy_default();
    e.replicas = world;
    e.per_replica_batch = 4;
    e.epochs = 2;
    e.train_samples = 64;
    e.eval_samples = 16;
    e
}

#[test]
fn same_seed_same_chaos_run_across_worlds() {
    // Worlds {2, 4, 8} × 1–4 generated faults: two runs of the same
    // seeded experiment must agree on weights, losses, recovery counters,
    // and the virtual timeline — bit for bit.
    for (world, n_faults) in [(2usize, 1usize), (4, 2), (8, 4)] {
        let mut e = tiny_exp(world);
        let total = e.epochs * e.steps_per_epoch() as u64;
        e.faults = FaultPlan::generate(0xC0FFEE + world as u64, world, total as f64, n_faults);
        e.faults.checkpoint_every_steps = 2;
        e.validate();

        let a = train(&e);
        let b = train(&e);
        assert_eq!(
            a.weight_checksum, b.weight_checksum,
            "world {world}: weights must be deterministic under chaos"
        );
        assert_eq!(
            a.fault_recovery, b.fault_recovery,
            "world {world}: recovery counters must be deterministic"
        );
        assert_eq!(
            a.step_timeline, b.step_timeline,
            "world {world}: virtual timelines must be deterministic"
        );
        assert_eq!(a.history.len(), b.history.len());
        for (ra, rb) in a.history.iter().zip(&b.history) {
            assert_eq!(
                ra.train_loss.to_bits(),
                rb.train_loss.to_bits(),
                "world {world}: epoch {} loss",
                ra.epoch
            );
        }
        assert_eq!(a.step_timeline.len(), total as usize);
    }
}

#[test]
fn different_seeds_generate_different_plans() {
    let a = FaultPlan::generate(1, 4, 32.0, 3);
    let b = FaultPlan::generate(2, 4, 32.0, 3);
    assert_ne!(a, b, "the generator must actually depend on its seed");
    // And regenerating either reproduces it exactly.
    assert_eq!(a, FaultPlan::generate(1, 4, 32.0, 3));
    assert_eq!(b, FaultPlan::generate(2, 4, 32.0, 3));
}
