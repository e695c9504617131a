//! Distributed-evaluation and EMA semantics through the full trainer.

use ets_collective::GroupSpec;
use ets_train::{train, Experiment};

fn base() -> Experiment {
    let mut e = Experiment::proxy_default();
    e.replicas = 2;
    e.per_replica_batch = 8;
    e.epochs = 6;
    e.train_samples = 256;
    e.eval_samples = 96; // not divisible by replicas×batch: exercises tails
    e
}

#[test]
fn eval_covers_every_sample_exactly_once() {
    // 96 eval samples over 2 replicas with batch 8: 6 chunks each. If
    // sharding dropped or duplicated samples, accuracy would be computed
    // over ≠ 96 — we can't see counts directly, but a degenerate dataset
    // makes the accuracy value itself the witness: with noise 0 the
    // trained model classifies templates perfectly, so top-1 must be
    // exactly 1.0 (any duplication/drop that unbalanced classes would
    // still give 1.0, so also check a fraction with an untrained model).
    let mut e = base();
    e.data_noise = 0.0;
    e.epochs = 14;
    let r = train(&e);
    assert!(
        r.peak_top1 > 0.99,
        "noise-free templates must be fully learnable, got {}",
        r.peak_top1
    );
}

#[test]
fn eval_accuracy_identical_across_replica_counts() {
    // The eval split and model trajectory depend on replicas, but the
    // *protocol* must produce an accuracy in [0,1] from the same total
    // count. Run 1 vs 3 replicas on a tiny budget: both must report
    // something sane and deterministic.
    for replicas in [1usize, 3] {
        let mut e = base();
        e.replicas = replicas;
        e.per_replica_batch = 8;
        e.epochs = 2;
        let a = train(&e);
        let b = train(&e);
        assert_eq!(a.peak_top1, b.peak_top1, "replicas={replicas}");
        assert!((0.0..=1.0).contains(&a.peak_top1));
    }
}

#[test]
fn ema_changes_eval_but_not_training_weights() {
    let mut plain = base();
    plain.epochs = 4;
    let mut ema = plain.clone();
    ema.ema_decay = Some(0.8);
    let rp = train(&plain);
    let re = train(&ema);
    // Training trajectories are identical (EMA is observe-only)…
    assert_eq!(
        rp.weight_checksum, re.weight_checksum,
        "EMA must not perturb the training weights"
    );
    // …but the evaluated numbers differ (they use the shadow weights).
    let diff = rp
        .history
        .iter()
        .zip(&re.history)
        .filter_map(|(a, b)| Some((a.eval_top1?, b.eval_top1?)))
        .any(|(a, b)| a != b);
    assert!(
        diff,
        "EMA evaluation should differ from raw-weight evaluation"
    );
}

#[test]
fn bn_tiled_2d_grouping_works_in_the_trainer() {
    // 8 replicas = 4 chips = a 2×2 chip grid; 1×2 tiles give 4-replica
    // groups — the 2-D tiling path end-to-end.
    let mut e = base();
    e.replicas = 8;
    e.per_replica_batch = 2;
    e.epochs = 2;
    e.bn_group = GroupSpec::Tiled2d { rows: 1, cols: 2 };
    let r = train(&e);
    assert!(r.final_loss().is_finite());
    assert!(r.peak_top1 > 0.0);
}

#[test]
fn top5_at_least_top1() {
    let r = train(&base());
    for rec in r.history.iter().filter(|h| h.eval_top1.is_some()) {
        assert!(rec.eval_top5.unwrap() >= rec.eval_top1.unwrap());
    }
}

#[test]
fn an_ema_eval_leaves_the_shared_weights_as_trained() {
    // World 2, every epoch evaluated on the EMA weights, which the eval
    // swaps into its own replica alone. The weights both replicas train
    // come out as trained: the checksum equals the run's without EMA, and
    // the bits are those recorded when each replica held its own copy.
    let mut plain = base();
    plain.epochs = 3;
    let mut ema = plain.clone();
    ema.ema_decay = Some(0.9);
    let (rp, re) = (train(&plain), train(&ema));
    assert_eq!(re.weight_checksum, rp.weight_checksum);
    assert_eq!(
        (re.final_loss().to_bits(), re.weight_checksum),
        (0x400be89b, 0x91b7a833b04d93a4)
    );
}
