//! Integration: checkpoint/restore across the training engine — a
//! restored model must evaluate identically, and a from-scratch model
//! must change behaviour after restoration.

use efficientnet_at_scale::data::{load_batch, AugmentConfig, SynthNet};
use efficientnet_at_scale::efficientnet::{EfficientNet, ModelConfig};
use efficientnet_at_scale::nn::{cross_entropy, top1_accuracy, zero_grads, Layer, Mode, Precision};
use efficientnet_at_scale::optim::{Optimizer, Sgd};
use efficientnet_at_scale::tensor::Rng;
use efficientnet_at_scale::train::{DurableSnapshot, Progress};

fn make_model(seed: u64) -> EfficientNet {
    let mut rng = Rng::new(seed);
    EfficientNet::new(ModelConfig::tiny(16, 4), Precision::F32, &mut rng)
}

fn capture_at(model: &mut EfficientNet, opt: &Sgd, step: u64) -> DurableSnapshot {
    let progress = Progress {
        step,
        ..Progress::fresh()
    };
    DurableSnapshot::capture(model, opt, None, &progress, 1, &[])
}

#[test]
fn train_checkpoint_restore_resume() {
    let ds = SynthNet::new(3, 4, 64, 16, 0.3);
    let mut rng = Rng::new(0);
    let mut model = make_model(1);
    let mut opt = Sgd::new(0.9, 0.0);

    // Train a few steps.
    let indices: Vec<usize> = (0..16).collect();
    for _ in 0..6 {
        let (x, labels) = load_batch(&ds, &indices, AugmentConfig::eval(), &mut rng);
        zero_grads(&mut model);
        let logits = model.forward(&x, Mode::Train, &mut rng);
        let out = cross_entropy(&logits, &labels, 0.0);
        model.backward(&out.dlogits);
        opt.step(&mut model, 0.01);
    }

    // Snapshot mid-training.
    let snap = capture_at(&mut model, &opt, 6);
    let (x, labels) = load_batch(&ds, &indices, AugmentConfig::eval(), &mut Rng::new(5));
    let mut r_eval = Rng::new(9);
    let probs_orig = model.forward(&x, Mode::Eval, &mut r_eval);

    // Restore into a fresh, differently-initialized model.
    let mut revived = make_model(2);
    let mut r2 = Rng::new(9);
    let before = revived.forward(&x, Mode::Eval, &mut r2);
    assert!(
        before.max_abs_diff(&probs_orig) > 1e-3,
        "distinct before restore"
    );
    let (progress, _) = snap.apply(&mut revived, &mut Sgd::new(0.9, 0.0), &mut None);
    assert_eq!(progress.step, 6);
    let mut r3 = Rng::new(9);
    let after = revived.forward(&x, Mode::Eval, &mut r3);
    assert_eq!(
        after.max_abs_diff(&probs_orig),
        0.0,
        "bitwise identical after restore"
    );

    // Resuming training from the restored model tracks the original: one
    // more identical step on each must produce identical weights.
    let step = |m: &mut EfficientNet| {
        let mut rng = Rng::new(77);
        let (x, labels) = load_batch(&ds, &indices, AugmentConfig::eval(), &mut rng);
        zero_grads(m);
        let logits = m.forward(&x, Mode::Train, &mut rng);
        let out = cross_entropy(&logits, &labels, 0.0);
        m.backward(&out.dlogits);
        // Fresh momentum-free optimizer on both sides, so this step
        // depends on the restored weights and BN statistics alone.
        let mut o = Sgd::new(0.0, 0.0);
        o.step(m, 0.01);
    };
    step(&mut model);
    step(&mut revived);
    let mut wa = Vec::new();
    model.visit_params(&mut |p| wa.extend_from_slice(p.value.data()));
    let mut wb = Vec::new();
    revived.visit_params(&mut |p| wb.extend_from_slice(p.value.data()));
    assert_eq!(wa, wb, "resumed trajectories must coincide");

    let _ = top1_accuracy(&probs_orig, &labels);
}

#[test]
fn kill_at_arbitrary_step_then_resume_matches_uninterrupted() {
    // The trainer-level version of checkpoint/resume: preempt the whole
    // SPMD job at an arbitrary step, let it restore the latest snapshot
    // and replay, and require the final weights AND eval metrics to be
    // bitwise identical to the run that was never killed — on every
    // collective backend.
    use efficientnet_at_scale::collective::{Backend, FaultEvent, FaultKind};
    use efficientnet_at_scale::train::{train, Experiment};

    for backend in [Backend::Tree, Backend::Ring, Backend::Auto] {
        let mut e = Experiment::proxy_default();
        e.replicas = 2;
        e.per_replica_batch = 8;
        e.epochs = 2;
        e.train_samples = 64; // 4 steps/epoch → 8 total
        e.eval_samples = 32;
        e.collective_backend = backend;
        let total = e.epochs * e.steps_per_epoch() as u64;
        let clean = train(&e);

        for kill_step in [1u64, 5, total - 1] {
            let mut f = e.clone();
            f.faults.checkpoint_every_steps = 4;
            f.faults.events = vec![FaultEvent {
                at_s: kill_step as f64 + 0.25,
                duration_s: 0.0,
                kind: FaultKind::Preempt { replica: 0 },
            }];
            let resumed = train(&f);
            let what = format!("{backend}, killed at step {kill_step}");
            assert_eq!(
                resumed.weight_checksum, clean.weight_checksum,
                "{what}: resumed weights diverged"
            );
            for (a, b) in clean.history.iter().zip(&resumed.history) {
                assert_eq!(
                    a.train_loss.to_bits(),
                    b.train_loss.to_bits(),
                    "{what}: epoch {} loss",
                    a.epoch
                );
                assert_eq!(a.eval_top1, b.eval_top1, "{what}: epoch {} top1", a.epoch);
                assert_eq!(a.eval_top5, b.eval_top5, "{what}: epoch {} top5", a.epoch);
            }
            assert_eq!(resumed.fault_recovery.preemptions, 1, "{what}");
            assert_eq!(
                resumed.fault_recovery.replayed_steps,
                kill_step % 4,
                "{what}: replay distance is kill − last checkpoint"
            );
        }
    }
}

#[test]
fn checkpoint_survives_round_trip_through_disk_format() {
    use efficientnet_at_scale::train::CkptError;
    let mut model = make_model(11);
    let opt = Sgd::new(0.9, 0.0);
    let mut bytes = capture_at(&mut model, &opt, 42).to_bytes();
    let parsed = DurableSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(parsed.progress.step, 42);
    let mut revived = make_model(12);
    parsed.apply(&mut revived, &mut Sgd::new(0.9, 0.0), &mut None);
    let bits = |m: &mut EfficientNet| -> Vec<Vec<u32>> {
        let saved = capture_at(m, &opt, 0);
        saved.params.into_iter().map(|t| t.bits).collect()
    };
    assert_eq!(bits(&mut model), bits(&mut revived));

    // The whole-file CRC is checked before anything is parsed.
    bytes[0] ^= 0xFF;
    assert!(matches!(
        DurableSnapshot::from_bytes(&bytes),
        Err(CkptError::ChecksumMismatch { what: "file", .. })
    ));
}
