//! Experiment configuration: everything that defines a training run, in
//! one struct, so harnesses and tests share a vocabulary.

use ets_collective::{Backend, FaultPlan, GroupSpec};
use ets_efficientnet::ModelConfig;
use ets_nn::Precision;

/// Which optimizer drives the run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OptimizerChoice {
    /// Plain momentum SGD (ablation baseline).
    Sgd { momentum: f32, weight_decay: f32 },
    /// TF RMSProp — the paper's small-batch baseline.
    RmsProp,
    /// LARS — the paper's large-batch optimizer (§3.1).
    Lars { trust_coeff: f32 },
    /// SM3 — the §5 future-work extension.
    Sm3 { momentum: f32 },
    /// LAMB — comparison optimizer.
    Lamb,
}

/// Which decay schedule shapes the learning rate after warmup (§3.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DecayChoice {
    Constant,
    /// `rate` every `epochs` epochs (staircase), from step 0.
    Exponential {
        rate: f32,
        epochs: f32,
    },
    /// Power-`power` polynomial to ~0 over the post-warmup budget.
    Polynomial {
        power: f32,
    },
    Cosine,
}

/// What the trainer does when the cross-rank gradient fingerprint check
/// attributes a corrupt bucket payload to a rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CorruptionPolicy {
    /// Retry the corrupted bucket once from the saved local contribution
    /// (a transient flip vanishes on retry — the injector is one-shot per
    /// step, and so are real SDC bit flips); a second corrupt verdict
    /// quarantines the attributed rank through the elastic-resize path.
    #[default]
    RetryThenQuarantine,
    /// Skip the retry and quarantine the attributed rank on the first
    /// corrupt verdict (for hardware where a flagged core is never
    /// trusted again).
    QuarantineImmediately,
}

impl CorruptionPolicy {
    /// Bucket retries granted before quarantine.
    pub fn bucket_retries(self) -> u32 {
        match self {
            CorruptionPolicy::RetryThenQuarantine => 1,
            CorruptionPolicy::QuarantineImmediately => 0,
        }
    }
}

/// A complete training-run description.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Base RNG seed; everything derives from it.
    pub seed: u64,
    /// Replica (simulated core) count.
    pub replicas: usize,
    /// Samples per replica per step. The global batch is
    /// `replicas × per_replica_batch`.
    pub per_replica_batch: usize,
    /// Model architecture.
    pub model: ModelConfig,
    /// Numeric policy (§3.5). With `MixedBf16`, every convolution GEMM
    /// packs its panels as bf16 — operands narrowed once at pack time,
    /// MR×NR micro-kernel accumulating in f32 — while the head and
    /// squeeze-excite GEMMs follow the shape-gated `GemmPolicy` (tiny
    /// products stay f32). Kernel and precision choices are pure
    /// functions of shape + this knob, never timing, so replicas cannot
    /// fork paths mid-run; the per-precision dispatch counters
    /// (`ets_tensor::ops::dispatch::dispatch_calls`) show which ran.
    pub precision: Precision,
    /// Optimizer (§3.1).
    pub optimizer: OptimizerChoice,
    /// Peak LR per 256 samples (linear-scaling rule, §3.2).
    pub lr_per_256: f32,
    /// Warmup epochs (§3.2).
    pub warmup_epochs: u64,
    /// Decay schedule (§3.2).
    pub decay: DecayChoice,
    /// Batch-norm replica grouping (§3.4).
    pub bn_group: GroupSpec,
    /// The all-reduce schedule this run would use on a pod, as priced by
    /// `ets-collective`'s cost models and `ets-tpu-sim`. In process every
    /// value runs the same communicator round for gradients, BN
    /// statistics and eval counts, so the trajectory is bitwise the same
    /// under each; the label is reported back.
    pub collective_backend: Backend,
    /// Deterministic fault-injection schedule (chaos testing). The
    /// default plan is empty: no faults. A non-empty plan perturbs virtual
    /// step timing (link degradation, stragglers), injects transient
    /// collective failures absorbed by retry-with-backoff, and preempts
    /// the job at scheduled steps, exercising checkpoint-based resume.
    pub faults: FaultPlan,
    /// Training epochs.
    pub epochs: u64,
    /// Evaluate every this many epochs (distributed eval, §3.3).
    pub eval_every: u64,
    /// Label smoothing for the cross-entropy loss.
    pub label_smoothing: f32,
    /// Weight-EMA decay; `None` disables EMA evaluation.
    pub ema_decay: Option<f32>,
    /// Divergence guard: when `true`, every optimizer step checks the
    /// reduced loss and the bucketized gradients for non-finite values;
    /// a trip rolls the run back to the latest durable checkpoint with
    /// the LR halved (counted in `RecoveryCounters`) instead of letting
    /// a NaN poison the weights. Defaults to `false`.
    pub nan_guard: bool,
    /// Directory for the durable checkpoint store. `None` (the default)
    /// lets the trainer pick a private temp directory when durability is
    /// needed (elastic resize or `nan_guard`) and clean it up afterwards.
    /// Set it to inspect the surviving checkpoints after a run: the
    /// trainer *owns* the directory — it is cleared at run start so stale
    /// files from earlier runs can never shadow this run's state — and
    /// its contents are left in place at run end.
    pub ckpt_dir: Option<String>,
    /// Overlap the gradient all-reduce with the backward pass: each
    /// bucket's collective fires (on a per-step communication thread) as
    /// soon as its last gradient lands, hiding communication behind the
    /// remaining backward compute. Bitwise identical to the serialized
    /// exchange — only wall time moves. Defaults to `false` (serialized).
    pub overlap_all_reduce: bool,
    /// GEMM threads per replica. Every GEMM runs on its replica's own
    /// thread, so the only accepted values are `0` (the default) and `1`,
    /// which mean the same; [`Experiment::validate`] rejects more. The
    /// field remains only because the benchmark harness sets it to `1`.
    pub gemm_workers: usize,
    /// Cross-rank gradient fingerprint verification: after every bucket
    /// all-reduce, ranks exchange a tiny fingerprint record (FNV-1a of
    /// the reduced words + control sums) through an all-gather; a
    /// mismatch proves some rank's copy of the reduced payload is
    /// corrupt and *attributes* it to that rank. Detection feeds
    /// [`CorruptionPolicy`]. Bitwise-neutral on clean runs (the check
    /// only reads the reduced buffer); costs one small all-gather per
    /// bucket. Defaults to `false`.
    pub fingerprint_verify: bool,
    /// ABFT tile-checksum verification for every blocked GEMM in the
    /// process (`ets_tensor::ops::abft`): detects silent *compute*
    /// corruption inside forward/backward matmuls and heals it by
    /// deterministic tile recompute, bitwise-neutral when clean. Process
    /// global: the trainer sets it for the run and restores the previous
    /// setting when the run ends, also by panic. Defaults to `false`.
    pub abft_verify: bool,
    /// What to do when fingerprint verification attributes a corrupt
    /// payload to a rank. Irrelevant unless `fingerprint_verify` is set.
    pub corruption_policy: CorruptionPolicy,
    /// Override for the gradient-bucket size in elements. `None` (the
    /// default) keeps [`crate::grad_bucket::DEFAULT_BUCKET_ELEMS`]; small
    /// values split proxy-scale models into several buckets so the
    /// overlapped exchange has something to overlap.
    pub grad_bucket_elems: Option<usize>,
    // Dataset shape.
    pub train_samples: usize,
    pub eval_samples: usize,
    pub num_classes: usize,
    pub resolution: usize,
    /// SynthNet difficulty knob.
    pub data_noise: f32,
}

impl Experiment {
    /// A fast proxy-task default: tiny EfficientNet on SynthNet, 4
    /// replicas — the base configuration the quality experiments perturb.
    pub fn proxy_default() -> Self {
        Experiment {
            seed: 42,
            replicas: 4,
            per_replica_batch: 8,
            model: ModelConfig::tiny(16, 8),
            precision: Precision::F32,
            optimizer: OptimizerChoice::RmsProp,
            // 0.02 per 256 samples: hot enough to learn the proxy task in
            // a few epochs, cool enough that RMSProp's post-warmup phase
            // keeps the loss monotone-ish (0.05 made short-budget proxy
            // runs diverge slightly — the seed's two convergence tests
            // failed on exactly that).
            lr_per_256: 0.02,
            warmup_epochs: 2,
            decay: DecayChoice::Exponential {
                rate: 0.97,
                epochs: 2.4,
            },
            bn_group: GroupSpec::Local,
            collective_backend: Backend::default(),
            faults: FaultPlan::none(),
            epochs: 12,
            eval_every: 1,
            label_smoothing: 0.1,
            ema_decay: None,
            nan_guard: false,
            ckpt_dir: None,
            overlap_all_reduce: false,
            gemm_workers: 0,
            fingerprint_verify: false,
            abft_verify: false,
            corruption_policy: CorruptionPolicy::default(),
            grad_bucket_elems: None,
            train_samples: 512,
            eval_samples: 128,
            num_classes: 8,
            resolution: 16,
            data_noise: 0.35,
        }
    }

    /// Global batch size: samples per optimizer step over all replicas.
    pub fn global_batch(&self) -> usize {
        self.replicas * self.per_replica_batch
    }

    /// Steps per epoch (drop-remainder).
    pub fn steps_per_epoch(&self) -> usize {
        self.train_samples / self.global_batch()
    }

    /// Peak LR after the linear-scaling rule.
    pub fn peak_lr(&self) -> f32 {
        ets_optim::linear_scaled_lr(self.lr_per_256, self.global_batch())
    }

    /// Validates internal consistency, panicking with a clear message.
    pub fn validate(&self) {
        assert!(self.replicas >= 1, "need at least one replica");
        assert!(self.per_replica_batch >= 1, "empty per-replica batch");
        assert!(
            self.steps_per_epoch() >= 1,
            "global batch {} exceeds dataset {}",
            self.global_batch(),
            self.train_samples
        );
        assert_eq!(
            self.model.num_classes, self.num_classes,
            "model/dataset class count mismatch"
        );
        assert_eq!(
            self.model.resolution, self.resolution,
            "model/dataset resolution mismatch"
        );
        assert!(self.epochs >= 1 && self.eval_every >= 1);
        assert!(
            self.gemm_workers <= 1,
            "gemm_workers = {}: every GEMM runs on its replica's thread (0 or 1)",
            self.gemm_workers
        );
        self.faults.validate();
        for ev in &self.faults.events {
            match ev.kind {
                ets_collective::FaultKind::LinkDegrade { link, .. } => assert!(
                    link < self.replicas,
                    "fault plan degrades link {link} outside world of {}",
                    self.replicas
                ),
                ets_collective::FaultKind::Straggler { replica, .. }
                | ets_collective::FaultKind::Preempt { replica } => assert!(
                    replica < self.replicas,
                    "fault plan targets replica {replica} outside world of {}",
                    self.replicas
                ),
                ets_collective::FaultKind::TransientCollective { .. } => {}
                ets_collective::FaultKind::PermanentLoss { rank, .. } => assert!(
                    rank < self.replicas,
                    "fault plan permanently loses rank {rank} outside world of {}",
                    self.replicas
                ),
                ets_collective::FaultKind::PayloadBitFlip { rank, at_step, .. } => {
                    assert!(
                        rank < self.replicas,
                        "fault plan flips payload bits on rank {rank} outside world of {}",
                        self.replicas
                    );
                    // Quarantine recovery rewinds strictly past the
                    // poisoned step, so a flip at step 0 would precede
                    // every durable checkpoint.
                    assert!(
                        at_step >= 1,
                        "payload bit flips must target step >= 1 (quarantine rolls back \
                         strictly before the poisoned step)"
                    );
                }
                ets_collective::FaultKind::ComputeCorruption { rank, .. } => assert!(
                    rank < self.replicas,
                    "fault plan corrupts compute on rank {rank} outside world of {}",
                    self.replicas
                ),
            }
        }
        assert!(
            self.faults.permanent_losses() < self.replicas,
            "fault plan loses {} of only {} replicas — at least one must survive",
            self.faults.permanent_losses(),
            self.replicas
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let e = Experiment::proxy_default();
        e.validate();
        assert_eq!(e.global_batch(), 32);
        assert_eq!(e.steps_per_epoch(), 16);
    }

    #[test]
    fn peak_lr_linear_scaling() {
        let mut e = Experiment::proxy_default();
        e.lr_per_256 = 0.016;
        assert!((e.peak_lr() - 0.016 * 32.0 / 256.0).abs() < 1e-7);
    }

    #[test]
    #[should_panic]
    fn class_mismatch_rejected() {
        let mut e = Experiment::proxy_default();
        e.num_classes = 5;
        e.validate();
    }

    #[test]
    #[should_panic(expected = "gemm_workers = 2")]
    fn more_than_one_gemm_worker_rejected() {
        let mut e = Experiment::proxy_default();
        e.gemm_workers = 2;
        e.validate();
    }

    #[test]
    fn default_backend_is_seed_compatible_tree() {
        // The default must keep the seed trainer's bitwise trajectory,
        // which means the tree transport.
        let e = Experiment::proxy_default();
        assert_eq!(e.collective_backend, Backend::Tree);
    }

    #[test]
    fn fault_plan_defaults_empty_and_validates() {
        let e = Experiment::proxy_default();
        assert!(e.faults.is_empty(), "default experiment injects no faults");
        let mut e = Experiment::proxy_default();
        e.faults = FaultPlan::generate(3, e.replicas, 8.0, 2);
        e.validate();
    }

    #[test]
    #[should_panic(expected = "outside world")]
    fn fault_plan_targeting_missing_replica_rejected() {
        let mut e = Experiment::proxy_default();
        e.faults.events.push(ets_collective::FaultEvent {
            at_s: 0.0,
            duration_s: 1.0,
            kind: ets_collective::FaultKind::Straggler {
                replica: e.replicas, // out of range
                slowdown: 2.0,
            },
        });
        e.validate();
    }
}
