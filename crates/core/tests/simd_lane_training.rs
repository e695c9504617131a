//! Trainer-level SIMD lane-path invariance: the same proxy experiment
//! trained under every available micro-kernel lane path (scalar, SSE2,
//! AVX2) × world size {2, 4} must follow **bitwise identical**
//! trajectories.
//!
//! This is the end-to-end form of the `ops::simd` parity contract: lane
//! width changes only which vector body advances the per-slot f32
//! accumulation chains, never the chains themselves, so a full training
//! run — forward, backward, all-reduce, optimizer — cannot drift by a
//! single bit. Any looser outcome would break SPMD symmetry on
//! heterogeneous hosts (replicas detecting different CPU features would
//! fork), which is exactly why the lane choice is allowed to be
//! runtime-detected while kernel *selection* must stay shape-pure.

use ets_tensor::ops::simd::{ForcedLaneGuard, LanePath};
use ets_train::{train, Experiment, TrainReport};

fn base(world: usize) -> Experiment {
    let mut e = Experiment::proxy_default();
    e.replicas = world;
    e.per_replica_batch = 4;
    e.epochs = 2;
    e.train_samples = 64;
    e.eval_samples = 32;
    e
}

fn run(world: usize, lane: LanePath) -> TrainReport {
    let _lane = ForcedLaneGuard::new(lane);
    train(&base(world))
}

#[test]
fn losses_bitwise_identical_across_lane_paths_backends_and_worlds() {
    let lanes: Vec<LanePath> = LanePath::ALL
        .into_iter()
        .filter(|p| p.available())
        .collect();
    assert!(lanes.contains(&LanePath::Scalar));
    for world in [2usize, 4] {
        let oracle = run(world, LanePath::Scalar);
        for &lane in lanes.iter().filter(|&&lane| lane != LanePath::Scalar) {
            let got = run(world, lane);
            let lane = lane.name();
            assert_eq!(
                got.weight_checksum, oracle.weight_checksum,
                "world {world}, lane {lane}: final weights diverged from the scalar oracle"
            );
            assert_eq!(got.history.len(), oracle.history.len());
            for (g, o) in got.history.iter().zip(&oracle.history) {
                assert_eq!(
                    g.train_loss.to_bits(),
                    o.train_loss.to_bits(),
                    "world {world}, lane {lane}, epoch {}: loss diverged bitwise",
                    g.epoch
                );
            }
        }
    }
}
