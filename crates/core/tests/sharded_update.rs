//! The sharded weight update at the trainer's level: where the ownership
//! cut splits the perfbench models, that a durable checkpoint taken
//! while each rank updates only its own parameters holds every
//! parameter's optimizer state, and what a receive-side payload flip
//! does to the weights when no fingerprint vote guards the exchange.

use ets_collective::{FaultEvent, FaultKind};
use ets_efficientnet::{EfficientNet, ModelConfig};
use ets_nn::Precision;
use ets_optim::Shares;
use ets_tensor::Rng;
use ets_train::{
    train, CkptStore, Experiment, OptimizerChoice, DEFAULT_BUCKET_ELEMS, PROXY_LARS_TRUST,
};

fn model(width_mult: f32, depth_mult: f32) -> EfficientNet {
    let config = ModelConfig {
        width_mult,
        depth_mult,
        ..ModelConfig::tiny(8, 8)
    };
    EfficientNet::new(config, Precision::F32, &mut Rng::new(1))
}

/// The `world + 1` edges of `shares`: where each owner's run starts,
/// then where the last one ends.
fn edges(shares: &Shares, world: usize) -> Vec<usize> {
    (0..world)
        .map(|r| shares.owned(r).start)
        .chain([shares.owned(world - 1).end])
        .collect()
}

#[test]
fn the_ownership_cut_of_the_perfbench_models() {
    // `wide_lars_2x`: 96 parameters, 3 532 724 elements. Its largest
    // parameter is a quarter of the model, yet the world-2 shares come
    // within ×1.003 of even.
    let shares = Shares::new(&mut model(1.5, 0.2), 2);
    assert_eq!(edges(&shares, 2), [0, 88, 96]);
    assert_eq!(shares.elems(), [0, 1_761_516, 3_532_724]);
    // The `b0half` model of `b0half_*` and `guarded_chaos_2x`.
    let shares = Shares::new(&mut model(0.5, 0.5), 2);
    assert_eq!(edges(&shares, 2), [0, 114, 135]);
}

#[test]
fn a_durable_save_holds_every_owners_optimizer_state() {
    // LARS with a durable checkpoint at every step. Each rank updates
    // only its own parameters, so only the state copy before a save
    // puts the other ranks' velocities into rank 0's snapshot. LARS
    // writes `w −= v`, so the two newest snapshots `s` and `s + 1` must
    // satisfy `w[s] − v[s+1] == w[s+1]` bitwise for every element of
    // every parameter; a velocity missing from the snapshot breaks it.
    for world in [2, 3] {
        let dir =
            std::env::temp_dir().join(format!("ets-sharded-ckpt-{}-{world}", std::process::id()));
        let mut e = Experiment::proxy_default();
        e.replicas = world;
        e.per_replica_batch = 4;
        e.epochs = 1;
        e.train_samples = 4 * world * 6;
        e.eval_samples = 8;
        e.optimizer = OptimizerChoice::Lars {
            trust_coeff: PROXY_LARS_TRUST,
        };
        e.nan_guard = true;
        e.ckpt_dir = Some(dir.to_string_lossy().into_owned());
        e.faults.checkpoint_every_steps = 1;
        let report = train(&e);
        assert_eq!(report.steps, 6, "world {world}");
        assert_eq!(report.fault_recovery.divergence_rollbacks, 0);

        let store = CkptStore::open(&dir, 3).expect("open the run's store");
        let steps = store.list_steps().expect("list the snapshots");
        let (s, next) = (steps[steps.len() - 2], steps[steps.len() - 1]);
        assert_eq!((s, next), (4, 5), "world {world}: {steps:?}");
        let (a, b) = (store.load_step(s).unwrap(), store.load_step(next).unwrap());
        // One bank per parameter: its velocity.
        assert_eq!(b.opt_state.banks.len(), b.params.len());
        for ((before, after), v) in a.params.iter().zip(&b.params).zip(&b.opt_state.banks) {
            assert_eq!(v.len(), after.bits.len(), "{}", after.name);
            for (i, ((&w, &stepped), &v)) in before.bits.iter().zip(&after.bits).zip(v).enumerate()
            {
                assert_eq!(
                    (f32::from_bits(w) - f32::from_bits(v)).to_bits(),
                    stepped,
                    "world {world}: element {i} of {} did not move by its saved velocity",
                    after.name
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn without_fingerprints_a_flip_reaches_the_weights_only_through_its_owner() {
    // Without the fingerprint vote nothing compares the ranks' reduced
    // gradients: each rank reads only its own parameters' gradients, and
    // the owners' weights overwrite their peers'. So a receive-side flip
    // on rank 1 either changes every replica's weights alike (rank 1
    // owns the flipped element) or none of them (rank 0 owns it, and
    // rank 1's optimizer never reads it). Either way the run completes:
    // `train` finds the replicas' weights bitwise equal.
    let mut e = Experiment::proxy_default();
    e.replicas = 2;
    e.per_replica_batch = 4;
    e.epochs = 1;
    e.train_samples = 4 * 2 * 6;
    e.eval_samples = 8;
    let clean = train(&e);
    let shares = Shares::new(
        &mut EfficientNet::new(e.model.clone(), e.precision, &mut Rng::new(1)),
        2,
    );
    let cut = shares.elems();
    // The flip lands in the first bucket, which starts at element 0.
    let (peers, own) = (cut[1] / 2, (cut[1] + cut[2]) / 2);
    assert!(own < DEFAULT_BUCKET_ELEMS, "{cut:?}");
    let flipped = |element: usize| {
        let mut e = e.clone();
        e.faults.events.push(FaultEvent {
            at_s: 2.0,
            duration_s: 0.0,
            kind: FaultKind::PayloadBitFlip {
                rank: 1,
                at_step: 2,
                element: element as u32,
                bit: 24,
            },
        });
        train(&e)
    };
    let dropped = flipped(peers);
    assert_eq!(dropped.weight_checksum, clean.weight_checksum);
    let spread = flipped(own);
    assert_ne!(spread.weight_checksum, clean.weight_checksum);
    for r in [&dropped, &spread] {
        assert!(r.fault_recovery.is_clean(), "{:?}", r.fault_recovery);
    }
}
