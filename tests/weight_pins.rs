//! Bitwise pins of small `train()` runs: the bits of the final loss and
//! the weight checksum, worlds 1, 2 and 3 under LARS and RMSProp, and one
//! world-2 run through a preemption and a permanent loss. The constants
//! were recorded when every replica still held its own copy of the
//! weights and copied its new ones into its peers after each update, so
//! a run that now reads one shared set of weights must land on exactly
//! the same bits. The world-2 and world-3 LARS runs exchange gradients
//! overlapped with backward, the RMSProp runs after it.

use ets_collective::{FaultEvent, FaultKind, FaultPlan};
use ets_train::{train, Experiment, OptimizerChoice, PROXY_LARS_LR, PROXY_LARS_TRUST};

/// 4 steps per epoch, 2 epochs, on the proxy model.
fn small(world: usize, lars: bool) -> Experiment {
    let mut e = Experiment::proxy_default();
    e.replicas = world;
    e.per_replica_batch = 4;
    e.epochs = 2;
    e.train_samples = 16 * world;
    e.eval_samples = 16;
    if lars {
        e.optimizer = OptimizerChoice::Lars {
            trust_coeff: PROXY_LARS_TRUST,
        };
        e.lr_per_256 = PROXY_LARS_LR;
        e.overlap_all_reduce = true;
    }
    e
}

/// (final loss bits, weight checksum) of a run.
fn pin(e: &Experiment) -> (u32, u64) {
    let r = train(e);
    (r.final_loss().to_bits(), r.weight_checksum)
}

#[test]
fn fault_free_runs_keep_their_bits() {
    // (world, LARS, final loss bits, weight checksum)
    let pins: [(usize, bool, u32, u64); 6] = [
        (1, true, 0x4009df11, 0x8fec6cabfb3f905b),
        (2, true, 0x4008b0fb, 0x965308fa63a22e8c),
        (3, true, 0x4004b492, 0xfac1afb86a9c88ee),
        (1, false, 0x400a87f2, 0xb5afb2460464fe7f),
        (2, false, 0x40091689, 0x16b512b1908fbfc1),
        (3, false, 0x4009c6fa, 0xaf8c7209987153cb),
    ];
    for (world, lars, loss, checksum) in pins {
        let got = pin(&small(world, lars));
        assert_eq!(got, (loss, checksum), "world {world}, LARS {lars}");
    }
}

#[test]
fn a_preempted_and_shrunk_run_keeps_its_bits() {
    // Preempted in step 3, which replays from the anchor at step 0; rank 1
    // is lost at step 5 and one replica trains on from the checkpoint.
    let mut e = small(2, false);
    e.faults = FaultPlan {
        events: vec![
            FaultEvent {
                at_s: 3.5,
                duration_s: 0.0,
                kind: FaultKind::Preempt { replica: 0 },
            },
            FaultEvent {
                at_s: 5.0,
                duration_s: 0.0,
                kind: FaultKind::PermanentLoss {
                    rank: 1,
                    at_step: 5,
                },
            },
        ],
        virtual_step_seconds: 1.0,
        checkpoint_every_steps: 4,
        ..FaultPlan::none()
    };
    let r = train(&e);
    let c = r.fault_recovery;
    assert_eq!((c.preemptions, c.resizes, r.final_world), (1, 1, 1));
    let got = (r.final_loss().to_bits(), r.weight_checksum);
    assert_eq!(got, (0x400e782b, 0xf2c9c21cb605b400));
}
