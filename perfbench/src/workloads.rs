//! The four workloads: which `Experiment` a round is, which a cold op is,
//! and what a correct outcome looks like. README.md gives the reason for
//! every sizing number.

use ets_collective::{FaultEvent, FaultKind, FaultPlan, GroupSpec};
use ets_efficientnet::ModelConfig;
use ets_nn::Precision;
use ets_train::{
    Experiment, OptimizerChoice, RecoveryCounters, TrainReport, PROXY_LARS_LR, PROXY_LARS_TRUST,
};
use std::path::Path;

/// A workload's name and the one-line reason it exists (copied into
/// `BENCHMARK.json`).
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "b0half_f32_1x",
        why: "single-worker f32 baseline: forward+backward are 92% of the step and 42% of GEMM calls are blocked, so kernel and layer work shows and collective work does not",
    },
    WorkloadSpec {
        name: "b0half_bf16_1x",
        why: "same model in mixed bf16: 91% of GEMM calls pack their panels as bf16, so a gain for one precision that costs the other shows",
    },
    WorkloadSpec {
        name: "wide_lars_2x",
        why: "2 replicas, 3.5 M parameters on 8 px maps with LARS and synced BN: all-reduce + optimizer are 45% of the step and 2% of GEMM calls are blocked, so exchange work shows and kernel work does not",
    },
    WorkloadSpec {
        name: "guarded_chaos_2x",
        why: "2 replicas with overlap, fingerprints, ABFT, NaN guard, checkpoints and a fixed fault plan (straggler, retries, bit flip, preemption, rank loss), so no recovery path can get slower unseen",
    },
];

/// The b0half model: EfficientNet at width 0.5, depth 0.5, 8 classes.
fn b0half(resolution: usize) -> ModelConfig {
    ModelConfig {
        width_mult: 0.5,
        depth_mult: 0.5,
        ..ModelConfig::tiny(resolution, 8)
    }
}

/// Fields every workload shares: one epoch, one eval at its end, one GEMM
/// worker per replica so live threads stay within the host's two CPUs.
fn base(seed: u64, replicas: usize, batch: usize, model: ModelConfig) -> Experiment {
    Experiment {
        seed,
        replicas,
        per_replica_batch: batch,
        resolution: model.resolution,
        num_classes: model.num_classes,
        model,
        epochs: 1,
        gemm_workers: 1,
        ..Experiment::proxy_default()
    }
}

fn point(at_s: f64, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        at_s,
        duration_s: 0.0,
        kind,
    }
}

/// The `guarded_chaos_2x` fault plan. Times are virtual seconds and one
/// step is one virtual second, so `at_s` 5.5 fires in step 5.
pub fn chaos_plan() -> FaultPlan {
    FaultPlan {
        events: vec![
            FaultEvent {
                at_s: 2.5,
                duration_s: 3.0,
                kind: FaultKind::Straggler {
                    replica: 1,
                    slowdown: 2.0,
                },
            },
            point(5.5, FaultKind::TransientCollective { failures: 2 }),
            point(
                0.0,
                FaultKind::PayloadBitFlip {
                    rank: 1,
                    at_step: 7,
                    element: 7,
                    bit: 30,
                },
            ),
            point(9.5, FaultKind::Preempt { replica: 0 }),
            point(
                0.0,
                FaultKind::PermanentLoss {
                    rank: 1,
                    at_step: 13,
                },
            ),
        ],
        virtual_step_seconds: 1.0,
        checkpoint_every_steps: 4,
        ..FaultPlan::none()
    }
}

/// The `Experiment` one round of `name` runs. `ckpt_dir` is used by
/// `guarded_chaos_2x` only (the trainer clears and owns it).
pub fn round_experiment(name: &str, seed: u64, ckpt_dir: &Path) -> Experiment {
    match name {
        "b0half_f32_1x" | "b0half_bf16_1x" => {
            let mut e = base(seed, 1, 8, b0half(64));
            e.train_samples = 64;
            e.eval_samples = 8;
            if name == "b0half_bf16_1x" {
                e.precision = Precision::MixedBf16;
            }
            e
        }
        "wide_lars_2x" => {
            let model = ModelConfig {
                width_mult: 1.5,
                depth_mult: 0.2,
                ..ModelConfig::tiny(8, 8)
            };
            let mut e = base(seed, 2, 1, model);
            e.train_samples = 32;
            e.eval_samples = 4;
            e.optimizer = OptimizerChoice::Lars {
                trust_coeff: PROXY_LARS_TRUST,
            };
            e.lr_per_256 = PROXY_LARS_LR;
            e.bn_group = GroupSpec::Contiguous(2);
            e
        }
        "guarded_chaos_2x" => {
            let mut e = base(seed, 2, 2, b0half(32));
            e.train_samples = 64;
            e.eval_samples = 8;
            e.overlap_all_reduce = true;
            // 11 buckets instead of one, so there is an exchange to hide.
            e.grad_bucket_elems = Some(1 << 16);
            e.fingerprint_verify = true;
            e.abft_verify = true;
            e.nan_guard = true;
            e.ckpt_dir = Some(ckpt_dir.to_string_lossy().into_owned());
            e.faults = chaos_plan();
            e
        }
        other => panic!("unknown workload {other:?}"),
    }
}

/// The cold op of a round: the same run cut to one step and one eval
/// batch with no faults, i.e. what a user pays from calling `train()` to a
/// finished first step (data, model, collectives, optimizer, checksum,
/// tear-down).
pub fn cold_experiment(round: &Experiment) -> Experiment {
    let mut e = round.clone();
    e.train_samples = e.global_batch();
    e.eval_samples = e.global_batch();
    e.faults = FaultPlan::none();
    e
}

/// Replica threads plus one communication thread each when the exchange
/// is overlapped, plus the idle main thread.
pub fn max_live_threads(e: &Experiment) -> usize {
    e.replicas * (1 + usize::from(e.overlap_all_reduce)) + 1
}

/// What a correct operation reports, whatever the seed. Rounds pin the
/// recovery counters; cold ops only compare them with the first cold op.
pub struct Expected {
    pub steps: u64,
    pub final_world: usize,
    pub recovery: Option<RecoveryCounters>,
}

/// A cold op takes one step on the full world.
pub fn expected_cold(e: &Experiment) -> Expected {
    Expected {
        steps: 1,
        final_world: e.replicas,
        recovery: None,
    }
}

pub fn expected_round(name: &str, e: &Experiment) -> Expected {
    if name == "guarded_chaos_2x" {
        // 13 steps at world 2 (batch 4), the last 12 samples at world 1
        // (batch 2): 19 steps on the global counter.
        Expected {
            steps: 19,
            final_world: 1,
            recovery: Some(RecoveryCounters {
                transient_failures: 2,
                collective_retries: 2,
                // Two retries: 0.05 s, then 0.05 s × 2.
                retry_backoff_virtual_s: 0.05 + 0.1,
                preemptions: 1,
                replayed_steps: 1,
                restart_virtual_s: 5.0,
                straggler_virtual_s: 3.0,
                checkpoints_taken: 7,
                lost_replicas: 1,
                resizes: 1,
                resize_virtual_s: 10.0,
                durable_checkpoints: 8,
                corruptions_detected: 1,
                corruptions_corrected: 1,
                ..RecoveryCounters::default()
            }),
        }
    } else {
        Expected {
            steps: e.epochs * e.steps_per_epoch() as u64,
            final_world: e.replicas,
            recovery: Some(RecoveryCounters::default()),
        }
    }
}

/// The parts of a report that must repeat bit for bit between operations
/// of the same kind in one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fingerprint {
    pub loss_bits: u32,
    pub weight_checksum: u64,
    pub recovery: RecoveryCounters,
}

impl Fingerprint {
    pub fn of(r: &TrainReport) -> Self {
        Fingerprint {
            loss_bits: r.final_loss().to_bits(),
            weight_checksum: r.weight_checksum,
            recovery: r.fault_recovery,
        }
    }
}

/// Checks one report; `first` is the fingerprint of the first operation
/// of the same kind in this run. Returns why it failed, if it did.
pub fn check_report(
    r: &TrainReport,
    want: &Expected,
    first: Option<&Fingerprint>,
) -> Result<(), String> {
    if !r.final_loss().is_finite() {
        return Err(format!("non-finite loss {}", r.final_loss()));
    }
    if r.steps != want.steps {
        return Err(format!("steps {} != expected {}", r.steps, want.steps));
    }
    if r.final_world != want.final_world {
        return Err(format!(
            "final world {} != expected {}",
            r.final_world, want.final_world
        ));
    }
    if want.recovery.is_some_and(|c| c != r.fault_recovery) {
        return Err(format!(
            "recovery counters {:?} != expected {:?}",
            r.fault_recovery, want.recovery
        ));
    }
    if let Some(first) = first {
        let got = Fingerprint::of(r);
        if got != *first {
            return Err(format!(
                "not bitwise repeatable: {got:?} != first {first:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_train::train;

    fn tmp(tag: &str) -> std::path::PathBuf {
        crate::work_dir().join(format!("test-{tag}"))
    }

    #[test]
    fn every_workload_validates_and_fits_two_cpus() {
        for w in &WORKLOADS {
            let e = round_experiment(w.name, 42, &tmp("validate"));
            e.validate();
            cold_experiment(&e).validate();
            assert_eq!(cold_experiment(&e).steps_per_epoch(), 1);
            assert_eq!(e.gemm_workers, 1);
            assert!(e.replicas <= 2);
        }
    }

    /// Serialised with the other ABFT-enabling test through the process
    /// lock: `abft_verify` is process-global.
    #[test]
    fn chaos_plan_yields_the_expected_counters() {
        let _guard = crate::ENGINE_LOCK.lock().unwrap();
        let dir = tmp("chaos");
        let e = round_experiment("guarded_chaos_2x", 42, &dir);
        let want = expected_round("guarded_chaos_2x", &e);
        let r = train(&e);
        check_report(&r, &want, None).unwrap();
        let c = r.fault_recovery;
        for (what, v) in [
            ("retries", c.collective_retries),
            ("preemptions", c.preemptions),
            ("replayed steps", c.replayed_steps),
            ("corruptions corrected", c.corruptions_corrected),
            ("resizes", c.resizes),
            ("durable checkpoints", c.durable_checkpoints),
        ] {
            assert!(v > 0, "{what} must be exercised");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
