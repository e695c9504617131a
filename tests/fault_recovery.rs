//! The chaos harness: deterministic fault injection against the real
//! distributed trainer.
//!
//! The contract under test, for every world size:
//!
//! 1. **Timing faults are bitwise-invisible** — stragglers and degraded
//!    links stretch the virtual step timeline but must not move a single
//!    bit of the losses, metrics, or final weights.
//! 2. **Preemption recovery is exact** — killing the job mid-run and
//!    resuming from the last checkpoint must land back on the
//!    uninterrupted run's trajectory, byte for byte.
//! 3. **Transient collective failures are absorbed** — bounded retry with
//!    virtual backoff recovers without perturbing payloads.

use efficientnet_at_scale::collective::{FaultEvent, FaultKind};
use efficientnet_at_scale::train::{train, Experiment, TrainReport};

/// Small-but-real chaos experiment. Steps per epoch shrink as the world
/// grows (fixed global sample budget), so fault triggers are placed
/// relative to the run's total step count.
fn chaos_exp(replicas: usize) -> Experiment {
    let mut e = Experiment::proxy_default();
    e.replicas = replicas;
    e.per_replica_batch = 8;
    e.epochs = 2;
    e.train_samples = 128;
    e.eval_samples = 32;
    e
}

fn total_steps(e: &Experiment) -> u64 {
    e.epochs * e.steps_per_epoch() as u64
}

/// Bitwise trajectory comparison: weights, per-epoch losses, LRs, and
/// eval metrics must all coincide exactly.
fn assert_same_trajectory(clean: &TrainReport, chaos: &TrainReport, what: &str) {
    assert_eq!(
        clean.weight_checksum, chaos.weight_checksum,
        "{what}: final weights diverged"
    );
    assert_eq!(clean.history.len(), chaos.history.len(), "{what}: epochs");
    for (a, b) in clean.history.iter().zip(&chaos.history) {
        assert_eq!(a.epoch, b.epoch, "{what}: epoch index");
        assert_eq!(
            a.train_loss.to_bits(),
            b.train_loss.to_bits(),
            "{what}: epoch {} loss {} vs {}",
            a.epoch,
            a.train_loss,
            b.train_loss
        );
        assert_eq!(
            a.lr.to_bits(),
            b.lr.to_bits(),
            "{what}: epoch {} lr",
            a.epoch
        );
        assert_eq!(
            a.eval_top1.map(f64::to_bits),
            b.eval_top1.map(f64::to_bits),
            "{what}: epoch {} top1",
            a.epoch
        );
        assert_eq!(
            a.eval_top5.map(f64::to_bits),
            b.eval_top5.map(f64::to_bits),
            "{what}: epoch {} top5",
            a.epoch
        );
    }
}

const WORLDS: [usize; 2] = [2, 4];

#[test]
fn timing_only_chaos_is_bitwise_invisible_to_training() {
    for replicas in WORLDS {
        let clean_exp = chaos_exp(replicas);
        let total = total_steps(&clean_exp);
        assert!(total >= 6, "need room for fault windows");
        let clean = train(&clean_exp);

        let mut faulted = clean_exp.clone();
        faulted.faults.events = vec![
            FaultEvent {
                at_s: 1.0,
                duration_s: 2.0,
                kind: FaultKind::Straggler {
                    replica: replicas - 1,
                    slowdown: 3.0,
                },
            },
            FaultEvent {
                at_s: total as f64 / 2.0,
                duration_s: 2.0,
                kind: FaultKind::LinkDegrade {
                    link: 0,
                    scale: 0.25,
                },
            },
        ];
        assert!(faulted.faults.is_timing_only());
        let chaos = train(&faulted);

        let what = format!("world {replicas} timing-only");
        assert_same_trajectory(&clean, &chaos, &what);

        // The damage must be visible in the virtual timeline…
        assert_eq!(chaos.step_timeline.len(), total as usize, "{what}");
        assert!(
            chaos.step_timeline.max_slowdown() > 2.0,
            "{what}: max slowdown {}",
            chaos.step_timeline.max_slowdown()
        );
        assert!(
            chaos.step_timeline.total_virtual_s() > clean.step_timeline.total_virtual_s(),
            "{what}: chaos timeline must be longer"
        );
        assert!(!chaos.step_timeline.slow_steps(1.5).is_empty(), "{what}");
        // …and in the recovery counters, as pure timing damage.
        let c = chaos.fault_recovery;
        assert!(c.straggler_virtual_s > 0.0, "{what}");
        assert_eq!(c.preemptions, 0, "{what}");
        assert_eq!(c.transient_failures, 0, "{what}");
        assert_eq!(c.replayed_steps, 0, "{what}");
        // The clean run's timeline is flat nominal.
        assert_eq!(clean.step_timeline.max_slowdown(), 1.0, "{what}");
        assert!(clean.fault_recovery.is_clean(), "{what}");
    }
}

#[test]
fn preemption_resumes_onto_the_uninterrupted_trajectory() {
    for replicas in WORLDS {
        let clean_exp = chaos_exp(replicas);
        let total = total_steps(&clean_exp);
        let clean = train(&clean_exp);

        let mut faulted = clean_exp.clone();
        faulted.faults.checkpoint_every_steps = 4;
        // Kill the job two steps before the end: the last checkpoint sits
        // at a multiple of 4, so 1–3 steps must be replayed.
        faulted.faults.events = vec![FaultEvent {
            at_s: (total - 2) as f64 + 0.5,
            duration_s: 0.0,
            kind: FaultKind::Preempt { replica: 0 },
        }];
        let chaos = train(&faulted);

        let what = format!("world {replicas} preempt");
        assert_same_trajectory(&clean, &chaos, &what);

        let c = chaos.fault_recovery;
        assert_eq!(c.preemptions, 1, "{what}");
        let expect_replay = (total - 2) % 4;
        assert_eq!(c.replayed_steps, expect_replay, "{what}");
        assert!(c.restart_virtual_s > 0.0, "{what}");
        assert!(c.checkpoints_taken > 0, "{what}");
        assert!(!c.is_clean(), "{what}");
        // The timeline was rewound and re-recorded: final length is the
        // nominal step count, not nominal + replays.
        assert_eq!(chaos.step_timeline.len(), total as usize, "{what}");
    }
}

#[test]
fn transient_collective_failures_are_absorbed_bitwise() {
    let clean_exp = chaos_exp(2);
    let clean = train(&clean_exp);

    let mut faulted = clean_exp.clone();
    faulted.faults.events = vec![FaultEvent {
        at_s: 3.25,
        duration_s: 0.0,
        kind: FaultKind::TransientCollective { failures: 2 },
    }];
    let chaos = train(&faulted);

    let what = "transient";
    assert_same_trajectory(&clean, &chaos, what);
    let c = chaos.fault_recovery;
    assert_eq!(c.transient_failures, 2, "{what}");
    assert_eq!(c.collective_retries, 2, "{what}");
    assert!(c.retry_backoff_virtual_s > 0.0, "{what}");
    assert_eq!(c.preemptions, 0, "{what}");
    // The backoff lands on the step the failures hit.
    let nominal = chaos.step_timeline.nominal_step_s;
    assert!(
        chaos.step_timeline.virtual_s[3] > nominal,
        "{what}: step 3 should carry the retry backoff"
    );
}

#[test]
fn full_chaos_cocktail_still_reproduces_the_clean_run() {
    // Every fault kind at once — and the whole mess must be
    // deterministic: two chaos runs agree with each other and with the
    // clean run.
    let clean_exp = chaos_exp(4);
    let total = total_steps(&clean_exp);
    let clean = train(&clean_exp);

    let mut faulted = clean_exp.clone();
    faulted.faults.checkpoint_every_steps = 3;
    faulted.faults.events = vec![
        FaultEvent {
            at_s: 0.5,
            duration_s: 2.0,
            kind: FaultKind::Straggler {
                replica: 2,
                slowdown: 2.5,
            },
        },
        FaultEvent {
            at_s: 2.0,
            duration_s: 3.0,
            kind: FaultKind::LinkDegrade {
                link: 1,
                scale: 0.5,
            },
        },
        FaultEvent {
            at_s: 2.25,
            duration_s: 0.0,
            kind: FaultKind::TransientCollective { failures: 1 },
        },
        FaultEvent {
            at_s: (total - 3) as f64 + 0.5,
            duration_s: 0.0,
            kind: FaultKind::Preempt { replica: 3 },
        },
    ];
    assert!(!faulted.faults.is_timing_only());
    faulted.validate();

    let chaos_a = train(&faulted);
    let chaos_b = train(&faulted);

    assert_same_trajectory(&clean, &chaos_a, "cocktail vs clean");
    assert_same_trajectory(&chaos_a, &chaos_b, "cocktail repeatability");
    assert_eq!(
        chaos_a.fault_recovery, chaos_b.fault_recovery,
        "recovery counters must be deterministic"
    );
    assert_eq!(
        chaos_a.step_timeline, chaos_b.step_timeline,
        "virtual timelines must be deterministic"
    );

    let c = chaos_a.fault_recovery;
    assert_eq!(c.preemptions, 1);
    assert_eq!(c.transient_failures, 1);
    assert!(c.straggler_virtual_s > 0.0);
    assert!(c.total_fault_virtual_s() > 0.0);
    assert!(c.replayed_steps > 0 && c.replayed_steps < 3);
}

#[test]
#[ignore = "chaos soak: larger worlds + seeded plans; run by the CI chaos job (--include-ignored)"]
fn chaos_soak_generated_plans_across_backends_and_worlds() {
    // The long-running tier: seeded random fault cocktails at worlds up
    // to 8, each compared bitwise against its clean run. Anything the
    // generator can emit must be absorbed.
    use efficientnet_at_scale::collective::FaultPlan;
    for (world, n_faults) in [(2usize, 2usize), (4, 3), (8, 4)] {
        let clean_exp = chaos_exp(world);
        let total = total_steps(&clean_exp);
        let clean = train(&clean_exp);

        for seed in 0..4u64 {
            let mut faulted = clean_exp.clone();
            faulted.faults = FaultPlan::generate(
                0x50AC + seed * 131 + world as u64,
                world,
                total as f64,
                n_faults,
            );
            faulted.faults.checkpoint_every_steps = 3;
            faulted.validate();
            let chaos = train(&faulted);
            let what = format!("soak world {world}, seed {seed}");
            assert_same_trajectory(&clean, &chaos, &what);
            assert_eq!(chaos.step_timeline.len(), total as usize, "{what}");
        }
    }
}
