//! Elastic-resize integration tests: kill ranks mid-run and prove the
//! shrunken world resumes from the durable checkpoint store.
//!
//! The contract, for every collective backend:
//!
//! 1. **Survival** — a permanent replica loss at an arbitrary step leaves
//!    a world of N−k that finishes the run with a finite loss.
//! 2. **Determinism** — the whole faulted trajectory is bitwise
//!    reproducible from `(seed, fault plan)`.
//! 3. **Accounting** — resizes, lost replicas, durable checkpoints, and
//!    the resize virtual cost all surface in `RecoveryCounters` and the
//!    step timeline, identically on every replica (asserted inside the
//!    trainer itself).
//! 4. **No silent corruption** — the surviving checkpoint directory
//!    rejects every injected corruption instead of loading it.

use ets_collective::{Backend, FaultEvent, FaultKind, FaultPlan};
use ets_train::{train, CkptStore, CorruptionInjector, Experiment, OptimizerChoice, TrainReport};

/// Small-but-real elastic experiment: 4 replicas, 2 epochs, 4 nominal
/// steps per epoch (global batch 32 over 128 samples).
fn elastic_exp(backend: Backend) -> Experiment {
    let mut e = Experiment::proxy_default();
    e.replicas = 4;
    e.per_replica_batch = 8;
    e.epochs = 2;
    e.train_samples = 128;
    e.eval_samples = 32;
    e.collective_backend = backend;
    e
}

fn lose_rank(rank: usize, at_step: u64) -> FaultEvent {
    FaultEvent {
        at_s: at_step as f64, // advisory; PermanentLoss triggers by step
        duration_s: 0.0,
        kind: FaultKind::PermanentLoss { rank, at_step },
    }
}

#[test]
fn permanent_loss_resumes_on_smaller_world_for_each_backend() {
    for backend in Backend::ALL {
        let mut e = elastic_exp(backend);
        e.faults.events.push(lose_rank(2, 3));
        let r = train(&e);
        let rec = &r.fault_recovery;
        assert_eq!(r.final_world, 3, "{backend:?}: world must shrink to 3");
        assert_eq!(rec.resizes, 1, "{backend:?}");
        assert_eq!(rec.lost_replicas, 1, "{backend:?}");
        assert!(
            rec.durable_checkpoints >= 1,
            "{backend:?}: resize must persist durable state"
        );
        assert!(rec.resize_virtual_s > 0.0, "{backend:?}");
        assert_eq!(
            rec.corrupt_checkpoints_skipped, 0,
            "{backend:?}: clean store must never skip"
        );
        // The timeline records the resize event with the world sizes.
        assert_eq!(r.step_timeline.resizes.len(), 1, "{backend:?}");
        let rz = r.step_timeline.resizes[0];
        assert_eq!((rz.step, rz.world_before, rz.world_after), (3, 4, 3));
        assert!(rz.virtual_s > 0.0);
        // The shrunken world re-shards the epoch: more (smaller) steps
        // than the nominal 8, every epoch still recorded.
        assert!(r.steps >= 8, "steps {}", r.steps);
        assert_eq!(r.history.len() as u64, e.epochs, "{backend:?}");
        assert!(
            r.final_loss().is_finite(),
            "{backend:?}: loss {}",
            r.final_loss()
        );
    }
}

#[test]
fn torus_survivors_regrid_deterministically_after_killing_ranks() {
    // ISSUE 9's elastic-torus contract on a 4×4 grid: kill 4 of 16 ranks
    // mid-run and the surviving sub-torus must re-select its (rows, cols)
    // deterministically from the new world size — canonical_grid(12) =
    // (3, 4) — regroup BN partitions, and finish with a finite loss,
    // bitwise reproducibly.
    use ets_collective::canonical_grid;
    let run = || {
        let mut e = elastic_exp(Backend::Torus2d);
        e.replicas = 16;
        e.train_samples = 256;
        for rank in [2, 7, 9, 14] {
            e.faults.events.push(lose_rank(rank, 2));
        }
        train(&e)
    };
    assert_eq!(canonical_grid(16), (4, 4), "starting grid is the 4×4 torus");
    assert_eq!(canonical_grid(12), (3, 4), "survivor grid re-selects 3×4");
    let r = run();
    assert_eq!(r.final_world, 12, "world must shrink 16 → 12");
    assert_eq!(r.fault_recovery.resizes, 1, "coalesced losses, one resize");
    assert_eq!(r.fault_recovery.lost_replicas, 4);
    assert_eq!(r.step_timeline.resizes.len(), 1);
    let rz = r.step_timeline.resizes[0];
    assert_eq!((rz.world_before, rz.world_after), (16, 12));
    assert_eq!(r.history.len() as u64, 2, "both epochs complete");
    assert!(r.final_loss().is_finite(), "loss {}", r.final_loss());

    let again = run();
    assert_eq!(
        r.weight_checksum, again.weight_checksum,
        "regridded trajectory must be bitwise reproducible"
    );
    assert_eq!(r.steps, again.steps);
}

#[test]
fn elastic_trajectory_is_bitwise_reproducible() {
    let run = || {
        let mut e = elastic_exp(Backend::Tree);
        e.faults.events.push(lose_rank(0, 5));
        train(&e)
    };
    let (a, b): (TrainReport, TrainReport) = (run(), run());
    assert_eq!(a.weight_checksum, b.weight_checksum, "weights");
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.final_world, b.final_world);
    assert_eq!(a.fault_recovery, b.fault_recovery);
    assert_eq!(a.history.len(), b.history.len());
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.train_loss.to_bits(), y.train_loss.to_bits());
        assert_eq!(x.lr.to_bits(), y.lr.to_bits());
        assert_eq!(x.eval_top1, y.eval_top1);
    }
    assert_eq!(a.step_timeline, b.step_timeline, "virtual timeline");
}

#[test]
fn cascading_losses_shrink_the_world_twice() {
    let mut e = elastic_exp(Backend::Tree);
    e.faults.events.push(lose_rank(3, 2));
    e.faults.events.push(lose_rank(1, 5));
    let r = train(&e);
    assert_eq!(r.final_world, 2);
    assert_eq!(r.fault_recovery.resizes, 2);
    assert_eq!(r.fault_recovery.lost_replicas, 2);
    let worlds: Vec<(usize, usize)> = r
        .step_timeline
        .resizes
        .iter()
        .map(|z| (z.world_before, z.world_after))
        .collect();
    assert_eq!(worlds, vec![(4, 3), (3, 2)], "resize chain 4→3→2");
    assert!(r.final_loss().is_finite());
}

#[test]
fn coalesced_losses_drain_in_one_protocol() {
    // Two ranks lost at the same step: one drain, one durable
    // checkpoint, one rebuild — not two protocols.
    let mut e = elastic_exp(Backend::Ring);
    e.faults.events.push(lose_rank(1, 4));
    e.faults.events.push(lose_rank(2, 4));
    let r = train(&e);
    assert_eq!(r.final_world, 2);
    assert_eq!(r.fault_recovery.resizes, 1);
    assert_eq!(r.fault_recovery.lost_replicas, 2);
    assert_eq!(r.step_timeline.resizes.len(), 1);
    assert_eq!(r.step_timeline.resizes[0].world_after, 2);
    assert!(r.final_loss().is_finite());
}

#[test]
fn elastic_final_loss_stays_near_the_unfaulted_run() {
    let clean = train(&elastic_exp(Backend::Tree));
    let mut e = elastic_exp(Backend::Tree);
    e.faults.events.push(lose_rank(2, 3));
    let faulted = train(&e);
    assert!(clean.final_loss().is_finite() && faulted.final_loss().is_finite());
    // The resized run trains on a smaller global batch with a
    // linearly-rescaled LR: same recipe, so the final loss must land in
    // the same neighbourhood as the unfaulted run.
    let diff = (clean.final_loss() - faulted.final_loss()).abs();
    assert!(
        diff < 0.75,
        "clean {} vs faulted {} (diff {diff})",
        clean.final_loss(),
        faulted.final_loss()
    );
}

#[test]
fn nan_guard_rolls_back_divergence_and_recovers() {
    let mut e = elastic_exp(Backend::Tree);
    // An absurd LR guarantees non-finite loss/gradients once warmup
    // ramps; the guard must roll back to the durable checkpoint with the
    // LR halved (repeatedly) instead of poisoning the weights.
    e.optimizer = OptimizerChoice::Sgd {
        momentum: 0.9,
        weight_decay: 0.0,
    };
    e.lr_per_256 = 1.0e14;
    e.warmup_epochs = 1;
    e.nan_guard = true;
    let r = train(&e);
    assert!(
        r.fault_recovery.divergence_rollbacks >= 1,
        "guard never tripped"
    );
    assert!(
        r.final_loss().is_finite(),
        "rollback must leave a finite run, got {}",
        r.final_loss()
    );
    assert!(r.fault_recovery.durable_checkpoints >= 1);
    assert_eq!(r.final_world, 4, "divergence is not a resize");
    assert_eq!(r.fault_recovery.resizes, 0);
}

#[test]
fn surviving_checkpoints_reject_injected_corruption() {
    let dir = std::env::temp_dir().join(format!("ets-elastic-ckpts-{}", std::process::id()));
    let mut e = elastic_exp(Backend::Tree);
    e.ckpt_dir = Some(dir.to_string_lossy().into_owned());
    e.faults.events.push(lose_rank(1, 3));
    let r = train(&e);
    assert_eq!(r.final_world, 3);

    // The run left its durable checkpoints in place for inspection.
    let store = CkptStore::open(&dir, 3).unwrap();
    let steps = store.list_steps().unwrap();
    assert!(!steps.is_empty(), "resize must leave durable checkpoints");
    assert!(steps.len() <= 3, "retention must bound the store");
    let (snap, report) = store
        .load_latest_valid()
        .unwrap()
        .expect("valid checkpoint");
    assert_eq!(report.corrupt_skipped, 0);
    assert!(
        snap.progress.step >= 3,
        "checkpoint must be at/after the resize"
    );

    // Inject corruption into every surviving file: zero silent loads.
    let mut injector = CorruptionInjector::new(7);
    for &step in &steps {
        let path = dir.join(format!("ckpt-{step:020}.ets"));
        injector.flip_one_bit(&path).unwrap();
        assert!(
            store.load_step(step).is_err(),
            "corrupted step {step} loaded silently"
        );
    }
    assert!(
        store.load_latest_valid().unwrap().is_none(),
        "fully-corrupt store must refuse, not guess"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chaos soak for CI's elastic matrix: backend and world size come from
/// the environment, the seeded elastic plan mixes permanent losses with
/// the classic fault mix, and the pod-scale damage report is written as
/// a JSON artifact. `#[ignore]`d so regular test runs stay fast.
#[test]
#[ignore = "CI chaos soak: run with ETS_SOAK_BACKEND/ETS_SOAK_WORLD set"]
fn elastic_chaos_soak() {
    use ets_tpu_sim::{simulate_chaos, StepConfig};

    let backend = match std::env::var("ETS_SOAK_BACKEND").as_deref() {
        Ok("ring") => Backend::Ring,
        Ok("torus2d") => Backend::Torus2d,
        Ok("auto") => Backend::Auto,
        _ => Backend::Tree,
    };
    let world: usize = std::env::var("ETS_SOAK_WORLD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let seed: u64 = std::env::var("ETS_SOAK_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);

    // Thread-level trainer soak: seeded elastic plan, real gradients.
    let mut e = elastic_exp(backend);
    e.replicas = world;
    e.train_samples = 64 * world;
    let nominal_steps = e.epochs * e.steps_per_epoch() as u64;
    let horizon_s = nominal_steps as f64 * e.faults.virtual_step_seconds;
    e.faults = FaultPlan::generate_elastic(seed, world, horizon_s, 2, 2);
    let r = train(&e);
    assert!(r.final_loss().is_finite());
    assert_eq!(
        r.final_world,
        world - r.fault_recovery.lost_replicas as usize
    );
    assert!(r.fault_recovery.resizes >= 1);

    // Pod-scale pricing of the same plan shape: write the damage report
    // as the CI artifact.
    let cfg = StepConfig::new(ets_efficientnet::Variant::B2, 128, 4096);
    let pod_plan = FaultPlan::generate_elastic(seed, 128, 60.0, 4, 2);
    let pod = simulate_chaos(&cfg, &pod_plan, 60);
    assert_eq!(pod.steps_completed, 60);
    assert!(pod.permanent_losses >= 1);
    if let Ok(out) = std::env::var("ETS_SOAK_OUT") {
        std::fs::create_dir_all(&out).unwrap();
        let path = std::path::Path::new(&out).join(format!(
            "pod-chaos-{}-w{world}-s{seed}.json",
            backend.name()
        ));
        std::fs::write(&path, pod.to_json()).unwrap();
        let artifact = ets_obs::parse_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            artifact.get("steps_completed").and_then(|v| v.as_f64()),
            Some(60.0)
        );
    }
}
