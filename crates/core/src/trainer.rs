//! The distributed data-parallel trainer: the paper's training and
//! evaluation loop, executed for real with one thread per replica.
//!
//! Faithfully reproduced mechanics:
//! - **Data parallelism**: every replica holds a full model copy and a
//!   disjoint shard of each global batch; gradients are summed with a
//!   deterministic collective (tree, ring, or auto — see
//!   [`ets_collective::Backend`], selected per experiment) and averaged,
//!   so all replicas take bitwise-identical optimizer steps (asserted via
//!   a final weight checksum across replicas). Gradients move through a
//!   bucketized persistent flat buffer ([`crate::grad_bucket`]) with
//!   per-bucket timing.
//! - **Distributed batch norm** (§3.4): BN statistics reduce over replica
//!   groups wired from `GroupSpec`.
//! - **Distributed evaluation** (§3.3): the validation set is sharded over
//!   all replicas; exact counts merge through the same collective.
//! - **Large-batch recipe** (§3.1/§3.2): LARS or RMSProp with linear LR
//!   scaling, warmup, and the paper's decay schedules.
//! - **Mixed precision** (§3.5): optional bf16 conv path.
//! - **Fault injection & recovery**: a non-empty
//!   [`ets_collective::FaultPlan`] wraps the world collective in a
//!   [`FaultyCollective`]. Transient collective failures are absorbed by
//!   bounded retry with virtual backoff inside the bucket exchange, and
//!   timing faults stretch a deterministic virtual [`StepTimeline`]
//!   without perturbing a payload bit. Everything else is a *restore*,
//!   and every restore is one function, `Replica::rewind`, applying the
//!   one snapshot type ([`DurableSnapshot`]). Its four callers differ only
//!   in what they load and what they charge: a **preemption** rewinds to
//!   the in-memory anchor (snapshot + RNG streams) and replays bit-exactly;
//!   the **divergence guard** (`Experiment::nan_guard`) rolls non-finite
//!   loss or gradients back to the last durable checkpoint before the
//!   step, LR halved; a **quarantine** (unhealable payload corruption)
//!   does the same and drains the phase; a **resume** loads the drained
//!   world's checkpoint into a smaller one. Activity is accounted in
//!   [`RecoveryCounters`] on the report.
//! - **Elastic world resizing**: training proceeds in *phases*, each a
//!   fixed world. At a `FaultKind::PermanentLoss` step (or a quarantine)
//!   the ranks drain, persist a durable checkpoint
//!   ([`crate::ckpt_store`]), and the run rebuilds collectives, BN groups,
//!   data shards and the LR schedule for the survivors, resuming at the
//!   exact sample offset — every sample is still seen exactly once per
//!   epoch, so progress is tracked in *samples* ([`Progress`]).

use crate::bn_sync::GroupStatSync;
use crate::ckpt_store::{CkptStore, DurableSnapshot, Progress};
use crate::experiment::{DecayChoice, Experiment, OptimizerChoice};
use crate::grad_bucket::GradBucket;
use crate::report::{checksum_f32, EpochRecord, RecoveryCounters, TrainReport};
use crate::timeline::{AllReduceProfile, PhaseBreakdown, ResizeRecord, StepTimeline, Stopwatch};
use ets_collective::{
    bn_partition, create_collective, Collective, CollectiveError, FaultSchedule, FaultyCollective,
};
use ets_data::{load_batch, AugmentConfig, Dataset, EpochPlan, SynthNet};
use ets_efficientnet::EfficientNet;
use ets_nn::{cross_entropy, zero_grads, Ema, EvalCounts, Layer, Mode};
use ets_obs::{phase as obs_ph, Lane, Recorder};
use ets_optim::{
    Constant, CosineDecay, ExponentialDecay, Lamb, Lars, LrSchedule, Optimizer, PolynomialDecay,
    RmsProp, Sgd, Shifted, Sm3, Warmup,
};
use ets_tensor::Rng;
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// BN running-stat momentum for short proxy runs (TF's 0.99 would leave
/// eval-time statistics stale after a dozen epochs).
const PROXY_BN_MOMENTUM: f32 = 0.9;

/// Durable checkpoints retained on disk (older ones are GC'd).
const DURABLE_RETAIN: usize = 3;

/// Divergence rollbacks tolerated before the run aborts with a
/// [`DivergenceError`]. Each rollback halves the LR scale, so a run that
/// is rescuable at *any* positive LR escapes well within this budget;
/// exceeding it means the non-finite values do not stem from the LR.
const DIVERGENCE_ROLLBACK_CAP: u64 = 100;

/// Typed failure of the divergence guard: non-finite loss/gradients that
/// rollback-with-halved-LR could not cure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DivergenceError {
    /// Step at which the guard last tripped.
    pub step: u64,
    /// Rollbacks performed before giving up.
    pub rollbacks: u64,
}

impl fmt::Display for DivergenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "divergence guard: non-finite loss/gradients at step {} persisted after {} \
             rollback(s) with halved LR",
            self.step, self.rollbacks
        )
    }
}

impl std::error::Error for DivergenceError {}

fn build_optimizer(choice: OptimizerChoice) -> Box<dyn Optimizer> {
    match choice {
        OptimizerChoice::Sgd {
            momentum,
            weight_decay,
        } => Box::new(Sgd::new(momentum, weight_decay)),
        OptimizerChoice::RmsProp => Box::new(RmsProp::efficientnet_default()),
        OptimizerChoice::Lars { trust_coeff } => Box::new(Lars::new(0.9, 1e-5, trust_coeff)),
        OptimizerChoice::Sm3 { momentum } => Box::new(Sm3::new(momentum, 1e-5)),
        OptimizerChoice::Lamb => Box::new(Lamb::paper_default(1e-5)),
        OptimizerChoice::Adam => Box::new(ets_optim::Adam::default_config(1e-5)),
    }
}

fn build_schedule(exp: &Experiment) -> Box<dyn LrSchedule> {
    let spe = exp.steps_per_epoch() as u64;
    let warmup = exp.warmup_epochs * spe;
    let total = exp.epochs * spe;
    let peak = exp.peak_lr();
    match exp.decay {
        DecayChoice::Constant => Box::new(Warmup::new(warmup, Constant(peak))),
        DecayChoice::Exponential { rate, epochs } => Box::new(Warmup::new(
            warmup,
            ExponentialDecay {
                peak,
                rate,
                decay_steps: ((epochs as f64 * spe as f64).round() as u64).max(1),
            },
        )),
        DecayChoice::Polynomial { power } => Box::new(Warmup::new(
            warmup,
            Shifted::new(
                warmup,
                PolynomialDecay {
                    peak,
                    end: 1e-4 * peak,
                    power,
                    total_steps: total.saturating_sub(warmup).max(1),
                },
            ),
        )),
        DecayChoice::Cosine => Box::new(Warmup::new(
            warmup,
            Shifted::new(
                warmup,
                CosineDecay {
                    peak,
                    total_steps: total.saturating_sub(warmup).max(1),
                },
            ),
        )),
    }
}

/// Merges eval counts across replicas (counts fit exactly in f32).
fn all_reduce_counts(counts: EvalCounts, comm: &dyn Collective) -> EvalCounts {
    let mut buf = [
        counts.correct_top1 as f32,
        counts.correct_top5 as f32,
        counts.total as f32,
    ];
    comm.all_reduce_sum(&mut buf);
    EvalCounts {
        correct_top1: buf[0] as u64,
        correct_top5: buf[1] as u64,
        total: buf[2] as u64,
    }
}

/// Distributed evaluation: strided shard of the eval set per replica.
fn distributed_eval(
    model: &mut EfficientNet,
    eval_set: &SynthNet,
    replica: usize,
    replicas: usize,
    batch: usize,
    comm: &dyn Collective,
) -> EvalCounts {
    let mut local = EvalCounts::default();
    let my_indices: Vec<usize> = (replica..eval_set.len()).step_by(replicas).collect();
    let mut rng = Rng::new(0); // eval aug is deterministic; rng unused
    for chunk in my_indices.chunks(batch.max(1)) {
        let (x, labels) = load_batch(eval_set, chunk, AugmentConfig::eval(), &mut rng);
        let scores = model.forward(&x, Mode::Eval, &mut rng);
        local.observe(&scores, &labels);
    }
    all_reduce_counts(local, comm)
}

/// The replica's gradient collective: either the raw backend or the same
/// backend behind a fault-injection decorator. BN-group collectives stay
/// unwrapped — the fault model targets the world-wide gradient exchange.
enum WorldComm {
    Plain(Box<dyn Collective>),
    Faulty(FaultyCollective),
}

impl WorldComm {
    fn as_dyn(&self) -> &dyn Collective {
        match self {
            WorldComm::Plain(c) => c.as_ref(),
            WorldComm::Faulty(f) => f,
        }
    }

    /// Keys planned transient injections to the trainer's step counter so
    /// replay after a preemption re-observes the same fault schedule.
    fn set_step(&self, step: u64) {
        if let WorldComm::Faulty(f) = self {
            f.set_step(step);
        }
    }
}

/// What a preemption rewinds to: the one snapshot type plus the two
/// replica-local RNG streams, so the replay reproduces the uninterrupted
/// trajectory byte for byte (a durable restore continues on the live
/// streams instead).
struct RewindAnchor {
    state: DurableSnapshot,
    data_rng: Rng,
    layer_rng: Rng,
}

/// Recovery accounting that outlives a phase: `train` hands the last
/// phase's to every replica of the next world.
#[derive(Clone)]
struct Carry {
    counters: RecoveryCounters,
    timeline: StepTimeline,
    /// Virtual-clock cursor for trace spans. The timeline models the
    /// final trajectory (replayed steps overwrite); the cursor advances
    /// monotonically through replays, restarts and resizes, so a rewind
    /// shows as repeated step names on a monotone clock.
    vnow: f64,
    /// Global step the phase stopped at (identical on all ranks; 0 before
    /// the first phase).
    step: u64,
}

/// Per-replica, per-phase worker result.
struct PhaseOutcome {
    checksum: u64,
    history: Vec<EpochRecord>,
    phases: PhaseBreakdown,
    buckets: AllReduceProfile,
    carry: Carry,
    /// True when training completed; false when the phase drained for a
    /// world resize.
    done: bool,
    /// Ranks this phase quarantined for unhealable payload corruption
    /// (zero when the phase stopped at a planned resize boundary). A
    /// nonzero value means the phase already rolled back to the last
    /// durable checkpoint before the poisoned step.
    quarantined: u64,
}

/// Merges a phase's bucket profile into the run accumulator. The bucket
/// layout is a function of model structure alone, so it is invariant
/// across resizes.
fn merge_profiles(into: &mut AllReduceProfile, from: &AllReduceProfile) {
    if into.bucket_elems.is_empty() {
        *into = from.clone();
        return;
    }
    assert_eq!(
        into.bucket_elems, from.bucket_elems,
        "bucket layout changed across phases"
    );
    for (a, b) in into.bucket_seconds.iter_mut().zip(&from.bucket_seconds) {
        *a += b;
    }
    into.rounds += from.rounds;
    into.exposed_seconds += from.exposed_seconds;
    into.overlapped_rounds += from.overlapped_rounds;
    into.hook_shipped_buckets += from.hook_shipped_buckets;
}

/// Runs the experiment; returns replica 0's report after asserting all
/// replicas converged to bitwise-identical weights.
///
/// With permanent losses in the fault plan, the run executes as a
/// sequence of fixed-world *phases* separated by the resize protocol:
/// drain → durable checkpoint → rebuild collectives/BN groups/shards/LR
/// for the surviving world → resume from the exact sample offset. Runs
/// without losses execute as a single phase, bitwise identical to the
/// pre-elastic trainer.
pub fn train(exp: &Experiment) -> TrainReport {
    // Disabled recorders: every instrumentation call early-returns before
    // touching a lock, the clock, or the allocator, so the untraced path
    // stays bitwise and allocation-identical to the pre-recorder trainer.
    let recorders: Vec<Arc<Recorder>> = (0..exp.replicas)
        .map(|_| Arc::new(Recorder::disabled()))
        .collect();
    train_recorded(exp, &recorders)
}

/// Like [`train`], but with a live flight recorder per replica: every rank
/// records hierarchical spans on both clocks (deterministic virtual
/// seconds + wall time) plus counters/gauges/histograms. Returns the
/// report together with the recorders; feed them to
/// [`ets_obs::chrome_trace_multi`] / [`ets_obs::prometheus_text_multi`]
/// for export. Recording does not perturb numerics: the virtual spans
/// charge exactly the quantities the [`StepTimeline`] already records, so
/// a traced run produces a bit-identical [`TrainReport`].
pub fn train_traced(exp: &Experiment) -> (TrainReport, Vec<Arc<Recorder>>) {
    let recorders: Vec<Arc<Recorder>> = (0..exp.replicas)
        .map(|r| Arc::new(Recorder::enabled(r as u32)))
        .collect();
    let report = train_recorded(exp, &recorders);
    (report, recorders)
}

fn train_recorded(exp: &Experiment, recorders: &[Arc<Recorder>]) -> TrainReport {
    exp.validate();
    assert_eq!(
        recorders.len(),
        exp.replicas,
        "one recorder per starting replica"
    );
    let start = Instant::now();
    // Pin the GEMM worker-pool width for the whole run (process-global;
    // `0` defers to whatever the process already configured). Parallel
    // GEMM is bitwise identical to sequential, so this cannot perturb
    // the trajectory — only wall time.
    if exp.gemm_workers > 0 {
        ets_tensor::set_gemm_workers(exp.gemm_workers);
    }
    // SIMD lane-path override (process-global, same contract): every
    // lane path is bitwise-identical, so like the worker pool this can
    // only move wall time, never the trajectory.
    if !exp.simd_path.is_empty() {
        ets_tensor::ops::simd::apply_choice(&exp.simd_path);
    }
    // ABFT tile verification is process-global (like the worker pool).
    // Save and restore the previous setting around the run; the run's
    // counter deltas fold into the recovery counters after the phase
    // loop. Tests that enable it serialize on their own mutex.
    let abft_verify_prev = ets_tensor::ops::abft::verify_enabled();
    ets_tensor::ops::abft::set_verify(exp.abft_verify);
    let abft_detected0 = ets_tensor::ops::abft::corruptions_detected();
    let abft_healed0 = ets_tensor::ops::abft::tiles_recomputed();
    let (train_set, eval_set) = SynthNet::train_eval_pair(
        exp.seed,
        exp.num_classes,
        exp.train_samples,
        exp.eval_samples,
        exp.resolution,
        exp.data_noise,
    );

    // Compile the experiment's fault plan against the *nominal* step grid
    // (initial world). The global step counter keeps counting through
    // resizes, so step-keyed events stay well-defined; a resized run may
    // execute more steps than the nominal grid, and the schedule treats
    // those as healthy. An empty plan compiles to an empty schedule and
    // the collectives stay unwrapped, so fault-free runs pay nothing.
    let nominal_total_steps = exp.epochs * exp.steps_per_epoch() as u64;
    let faults = Arc::new(exp.faults.compile(nominal_total_steps));

    // Resize boundaries: permanent losses grouped by step → (step, ranks
    // lost at that step).
    let mut boundaries: VecDeque<(u64, usize)> = VecDeque::new();
    for &(s, _rank) in faults.loss_events() {
        match boundaries.back_mut() {
            Some((bs, k)) if *bs == s => *k += 1,
            _ => boundaries.push_back((s, 1)),
        }
    }

    // Durable checkpoint store, opened only when the run can actually
    // lose replicas or trip the divergence guard. The trainer owns the
    // directory: it is cleared at run start so stale files from earlier
    // runs can never shadow this run's state.
    static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(0);
    let needs_store =
        faults.has_losses() || exp.nan_guard || (exp.fingerprint_verify && faults.has_corruption());
    let mut auto_dir: Option<PathBuf> = None;
    let store: Option<Arc<CkptStore>> = if needs_store {
        let dir = match &exp.ckpt_dir {
            Some(d) => PathBuf::from(d),
            None => {
                let d = std::env::temp_dir().join(format!(
                    "ets-ckpt-{}-{}",
                    std::process::id(),
                    NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed)
                ));
                auto_dir = Some(d.clone());
                d
            }
        };
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = CkptStore::open(&dir, DURABLE_RETAIN).expect("open durable checkpoint store");
        // Only rank 0 writes through the store, so its recorder owns the
        // store's (wall-clock-only) checkpoint spans.
        s.attach_recorder(Arc::clone(&recorders[0]));
        Some(Arc::new(s))
    } else {
        None
    };

    let backend = exp.collective_backend;
    let mut world = exp.replicas;
    let mut phase_idx = 0u64;
    let mut carry = Carry {
        counters: RecoveryCounters::default(),
        timeline: StepTimeline::new(faults.step_seconds()),
        vnow: 0.0,
        step: 0,
    };
    let mut carry_phases = PhaseBreakdown::default();
    let mut carry_buckets = AllReduceProfile::default();
    let history;
    let checksum0;
    let final_step;

    loop {
        let stop_at = boundaries.front().map(|&(s, _)| s);
        let mut view = exp.clone();
        view.replicas = world;

        // World collective for gradients/eval/init, per-group collectives
        // for BN — all on the experiment's chosen backend, rebuilt for
        // the current world. `bn_partition` regroups the experiment's BN
        // spec onto the surviving world (2-D tiles degrade to contiguous
        // groups when the torus geometry no longer exists).
        let world_comms = create_collective(backend, world);
        let mut bn_comms: Vec<Option<Box<dyn Collective>>> = (0..world).map(|_| None).collect();
        if world > 1 && !matches!(exp.bn_group, ets_collective::GroupSpec::Local) {
            for members in bn_partition(exp.bn_group, world) {
                let comms = create_collective(backend, members.len());
                for (c, &m) in comms.into_iter().zip(&members) {
                    bn_comms[m] = Some(c);
                }
            }
        }

        let env = PhaseEnv {
            view: &view,
            faults: &faults,
            train_set: &train_set,
            eval_set: &eval_set,
            store: store.as_deref(),
            phase_idx,
            stop_at,
        };
        let results: Vec<PhaseOutcome> = std::thread::scope(|scope| {
            let joins: Vec<_> = world_comms
                .into_iter()
                .zip(bn_comms)
                .enumerate()
                .map(|(r, (world_comm, bn_comm))| {
                    let (env, carry) = (&env, carry.clone());
                    // Surviving ranks keep their original recorders: rank r
                    // of the shrunken world is survivor r of the old one.
                    let rec = Arc::clone(&recorders[r]);
                    let comm = if faults.is_empty() {
                        WorldComm::Plain(world_comm)
                    } else {
                        let mut fc = FaultyCollective::new(world_comm, Arc::clone(&faults));
                        fc.attach_recorder(Arc::clone(&rec));
                        WorldComm::Faulty(fc)
                    };
                    scope.spawn(move || Replica::new(env, r, comm, bn_comm, rec, carry).run())
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("replica panicked"))
                .collect()
        });

        for (r, res) in results.iter().enumerate() {
            assert_eq!(
                res.checksum, results[0].checksum,
                "replica {r} diverged from replica 0 — synchronization bug"
            );
            // Fault handling is SPMD: every rank must have observed the
            // same injections, retries, preemptions, durable checkpoints,
            // and rollbacks, or the run only survived by luck.
            assert_eq!(
                res.carry.counters, results[0].carry.counters,
                "replica {r} recovery counters diverged — asymmetric fault handling"
            );
            assert_eq!(
                res.carry.step, results[0].carry.step,
                "replica {r} stopped at a different step — drain bug"
            );
        }

        // The virtual-clock span stream is derived purely from the
        // SPMD-symmetric fault schedule, so every rank must have recorded
        // bit-identical virtual events (wall spans are excluded from the
        // fingerprint by construction).
        if recorders[0].is_enabled() {
            let fp0 = recorders[0].virtual_fingerprint();
            for (r, rec) in recorders.iter().enumerate().take(world).skip(1) {
                assert_eq!(
                    rec.virtual_fingerprint(),
                    fp0,
                    "replica {r} virtual trace diverged — nondeterministic recording"
                );
            }
        }

        carry_phases.merge(&results[0].phases);
        merge_profiles(&mut carry_buckets, &results[0].buckets);
        let res0 = results.into_iter().next().expect("at least one replica");
        carry = res0.carry;

        if res0.done {
            history = res0.history;
            checksum0 = res0.checksum;
            final_step = carry.step;
            break;
        }

        // Resize protocol accounting: the phase drained and persisted a
        // durable checkpoint; shrink the world (keeping at least one
        // survivor) and charge the virtual cost of checkpoint + rebuild +
        // restart before the next phase resumes. Two ways to get here:
        // a planned loss boundary, or a quarantine verdict — the latter
        // synthesizes the same shrink without consuming a planned
        // boundary (those sit at later steps and stay valid, because the
        // quarantined phase stopped strictly before its boundary).
        let (bstep, k) = if res0.quarantined > 0 {
            (carry.step, res0.quarantined as usize)
        } else {
            let (bstep, k) = boundaries.pop_front().expect("drained without a boundary");
            debug_assert_eq!(bstep, carry.step, "phase stopped at the wrong boundary");
            (bstep, k)
        };
        let lost = k.min(world - 1);
        let new_world = world - lost;
        let resize_s =
            faults.resize_checkpoint_s() + faults.resize_rebuild_s() + faults.restart_delay_s();
        carry.counters.lost_replicas += lost as u64;
        carry.counters.resizes += 1;
        carry.counters.resize_virtual_s += resize_s;
        carry.timeline.record_resize(ResizeRecord {
            step: bstep,
            world_before: world,
            world_after: new_world,
            virtual_s: resize_s,
        });
        // Optional hygiene pass before the shrunken world resumes: every
        // survivor will load from this store, so re-verify the retained
        // checkpoints now and GC any that rotted on disk.
        if exp.scrub_after_resize {
            if let Some(store) = &store {
                let scrub = store.scrub().expect("checkpoint scrub failed");
                carry.counters.checkpoints_scrubbed += scrub.scrubbed;
                carry.counters.checkpoints_scrub_rejected += scrub.rejected;
            }
        }
        world = new_world;
        phase_idx += 1;
    }

    if let Some(d) = auto_dir {
        let _ = std::fs::remove_dir_all(&d);
    }

    ets_tensor::ops::abft::set_verify(abft_verify_prev);
    // ABFT counters are process-global (GEMM tiles carry no rank tag, and
    // the armed injection is consumed by whichever replica's tile runs
    // first), so their run deltas fold in *after* the per-rank symmetry
    // asserts rather than through `PhaseOutcome`.
    carry.counters.corruptions_detected +=
        ets_tensor::ops::abft::corruptions_detected().saturating_sub(abft_detected0);
    carry.counters.corruptions_corrected +=
        ets_tensor::ops::abft::tiles_recomputed().saturating_sub(abft_healed0);

    // Mirror the final recovery counters into every surviving recorder's
    // metric registry (no-op for disabled recorders).
    for rec in recorders.iter().take(world) {
        carry.counters.mirror_to(rec);
    }

    // Export the compute-kernel self-check counters (process-wide: the
    // scratch arena's allocator hits and the gemm_auto dispatch split).
    // Steady-state training must keep `tensor_scratch_reallocs` flat and
    // `gemm_dispatch_blocked` nonzero on real model shapes; the bench
    // harness and smoke tests assert on these via the registry.
    for rec in recorders.iter().take(world) {
        rec.gauge_set(
            "tensor_scratch_reallocs",
            ets_tensor::scratch_reallocs() as f64,
        );
        rec.gauge_set(
            "tensor_scratch_checkouts",
            ets_tensor::scratch_checkouts() as f64,
        );
        rec.gauge_set(
            "gemm_dispatch_blocked",
            ets_tensor::ops::dispatch::dispatch_blocked_calls() as f64,
        );
        rec.gauge_set(
            "gemm_dispatch_naive",
            ets_tensor::ops::dispatch::dispatch_naive_calls() as f64,
        );
        // Per-precision splits (legacy gauges above are their sums): a
        // mixed-precision run must show nonzero bf16 traffic, and an f32
        // run exactly zero — the smoke tests assert both directions.
        // (Static names: the registry is zero-alloc by design.)
        let (f32_blocked, f32_naive) = ets_tensor::ops::dispatch::dispatch_calls(
            ets_tensor::ops::dispatch::GemmPrecision::F32,
        );
        let (bf16_blocked, bf16_naive) = ets_tensor::ops::dispatch::dispatch_calls(
            ets_tensor::ops::dispatch::GemmPrecision::Bf16,
        );
        rec.gauge_set("gemm_dispatch_blocked_f32", f32_blocked as f64);
        rec.gauge_set("gemm_dispatch_naive_f32", f32_naive as f64);
        rec.gauge_set("gemm_dispatch_blocked_bf16", bf16_blocked as f64);
        rec.gauge_set("gemm_dispatch_naive_bf16", bf16_naive as f64);
        // SIMD lane-path split of the micro-kernel macro blocks: proves
        // which vector body actually ran (all paths are bitwise-equal,
        // so this is observability, not a correctness surface). Static
        // names, one per path × precision.
        {
            use ets_tensor::ops::simd::{micro_block_calls, LanePath};
            rec.gauge_set(
                "gemm_micro_scalar_f32",
                micro_block_calls(LanePath::Scalar, false) as f64,
            );
            rec.gauge_set(
                "gemm_micro_sse2_f32",
                micro_block_calls(LanePath::Sse2, false) as f64,
            );
            rec.gauge_set(
                "gemm_micro_avx2_f32",
                micro_block_calls(LanePath::Avx2, false) as f64,
            );
            rec.gauge_set(
                "gemm_micro_scalar_bf16",
                micro_block_calls(LanePath::Scalar, true) as f64,
            );
            rec.gauge_set(
                "gemm_micro_sse2_bf16",
                micro_block_calls(LanePath::Sse2, true) as f64,
            );
            rec.gauge_set(
                "gemm_micro_avx2_bf16",
                micro_block_calls(LanePath::Avx2, true) as f64,
            );
        }
        // Exposed vs hidden communication: the overlapped exchange hides
        // part of the per-bucket all-reduce time behind backward compute;
        // `all_reduce_overlap_pct` is the hidden share.
        rec.gauge_set("all_reduce_exposed_s", carry_buckets.exposed_seconds);
        rec.gauge_set("all_reduce_overlap_pct", carry_buckets.overlap_pct());
        // Per-worker GEMM pool utilization (process-wide, static names:
        // the registry is zero-alloc by design).
        const BUSY: [&str; 16] = [
            "gemm_worker_busy_s_00",
            "gemm_worker_busy_s_01",
            "gemm_worker_busy_s_02",
            "gemm_worker_busy_s_03",
            "gemm_worker_busy_s_04",
            "gemm_worker_busy_s_05",
            "gemm_worker_busy_s_06",
            "gemm_worker_busy_s_07",
            "gemm_worker_busy_s_08",
            "gemm_worker_busy_s_09",
            "gemm_worker_busy_s_10",
            "gemm_worker_busy_s_11",
            "gemm_worker_busy_s_12",
            "gemm_worker_busy_s_13",
            "gemm_worker_busy_s_14",
            "gemm_worker_busy_s_15",
        ];
        const TILES: [&str; 16] = [
            "gemm_worker_tiles_00",
            "gemm_worker_tiles_01",
            "gemm_worker_tiles_02",
            "gemm_worker_tiles_03",
            "gemm_worker_tiles_04",
            "gemm_worker_tiles_05",
            "gemm_worker_tiles_06",
            "gemm_worker_tiles_07",
            "gemm_worker_tiles_08",
            "gemm_worker_tiles_09",
            "gemm_worker_tiles_10",
            "gemm_worker_tiles_11",
            "gemm_worker_tiles_12",
            "gemm_worker_tiles_13",
            "gemm_worker_tiles_14",
            "gemm_worker_tiles_15",
        ];
        for (w, stat) in ets_tensor::worker_stats().iter().enumerate() {
            rec.gauge_set(BUSY[w], stat.busy_s);
            rec.gauge_set(TILES[w], stat.tiles as f64);
        }
    }

    let (peak_top1, peak_epoch) = history
        .iter()
        .filter_map(|rec| rec.eval_top1.map(|a| (a, rec.epoch)))
        .fold(
            (0.0, 0),
            |best, (a, e)| if a > best.0 { (a, e) } else { best },
        );

    TrainReport {
        steps: final_step,
        peak_top1,
        peak_epoch,
        history,
        wall_seconds: start.elapsed().as_secs_f64(),
        weight_checksum: checksum0,
        phases: carry_phases,
        all_reduce_buckets: carry_buckets,
        fault_recovery: carry.counters,
        step_timeline: carry.timeline,
        final_world: world,
    }
}

/// Broadcasts `root`'s full model state — parameters *and* BN running
/// statistics — to every member of `comm`, bit-exactly (f32 payloads are
/// copied, never re-reduced): how independently initialized hosts
/// synchronize before the first step.
///
/// SPMD: every member of the group must call this with a structurally
/// identical model.
fn broadcast_model(model: &mut EfficientNet, comm: &dyn Collective, root: usize) {
    if comm.size() == 1 {
        return;
    }
    let mut flat: Vec<f32> = Vec::new();
    model.visit_params(&mut |p| flat.extend_from_slice(p.value.data()));
    model.visit_bns(&mut |bn| {
        flat.extend_from_slice(&bn.running_mean);
        flat.extend_from_slice(&bn.running_var);
    });
    comm.broadcast(&mut flat, root);
    let mut off = 0usize;
    model.visit_params(&mut |p| {
        let n = p.value.numel();
        p.value.data_mut().copy_from_slice(&flat[off..off + n]);
        off += n;
    });
    model.visit_bns(&mut |bn| {
        let c = bn.running_mean.len();
        bn.running_mean.copy_from_slice(&flat[off..off + c]);
        off += c;
        bn.running_var.copy_from_slice(&flat[off..off + c]);
        off += c;
    });
    assert_eq!(off, flat.len(), "model structure mismatch after broadcast");
}

/// What every replica thread of one fixed-world phase is handed.
struct PhaseEnv<'a> {
    /// The experiment as this phase's world sees it (`replicas` is the
    /// surviving world).
    view: &'a Experiment,
    faults: &'a FaultSchedule,
    train_set: &'a SynthNet,
    eval_set: &'a SynthNet,
    store: Option<&'a CkptStore>,
    phase_idx: u64,
    /// The resize boundary this phase drains at, if one is planned.
    stop_at: Option<u64>,
}

/// One replica's whole state for a phase. The step loop ([`Replica::run`])
/// and every recovery path are methods on it and share one restore
/// ([`Replica::rewind`]), one durable save and one phase lap.
struct Replica<'a> {
    env: &'a PhaseEnv<'a>,
    rank: usize,
    world: WorldComm,
    rec: Arc<Recorder>,
    model: EfficientNet,
    optimizer: Box<dyn Optimizer>,
    ema: Option<Ema>,
    grad_bucket: GradBucket,
    /// Replica-local stochasticity (augmentation; dropout, drop-path).
    data_rng: Rng,
    layer_rng: Rng,
    prog: Progress,
    history: Vec<EpochRecord>,
    /// `None` until the step loop takes one, and after a durable restore.
    anchor: Option<RewindAnchor>,
    sw: Stopwatch,
    phases: PhaseBreakdown,
    counters: RecoveryCounters,
    timeline: StepTimeline,
    vnow: f64,
}

impl<'a> Replica<'a> {
    fn new(
        env: &'a PhaseEnv<'a>,
        rank: usize,
        world: WorldComm,
        bn_comm: Option<Box<dyn Collective>>,
        rec: Arc<Recorder>,
        carry: Carry,
    ) -> Self {
        let view = env.view;
        // Two init-sync modes: shared seed stream (default), or independent
        // init + a broadcast of replica 0's state (the multi-host pattern),
        // so params *and* BN running statistics synchronize bit-exactly.
        // Resumed phases overwrite the init with the durable checkpoint
        // below, so the broadcast is only needed in phase 0.
        let init_stream = if view.broadcast_init {
            100 + rank as u64
        } else {
            1
        };
        let mut init_rng = Rng::new(view.seed).split(init_stream);
        let mut model = EfficientNet::new(view.model.clone(), view.precision, &mut init_rng);
        if env.phase_idx == 0 && view.broadcast_init && view.replicas > 1 {
            broadcast_model(&mut model, world.as_dyn(), 0);
        }
        model.visit_bns(&mut |bn| bn.set_momentum(PROXY_BN_MOMENTUM));
        if let Some(c) = bn_comm {
            model.set_bn_sync(Arc::new(GroupStatSync::new(c)));
        }
        let mut grad_bucket = match view.grad_bucket_elems {
            Some(n) => GradBucket::with_bucket_elems(&mut model, n),
            None => GradBucket::new(&mut model),
        };
        grad_bucket.attach_recorder(Arc::clone(&rec));
        grad_bucket.set_fingerprint_verify(
            view.fingerprint_verify,
            view.corruption_policy.bucket_retries(),
        );
        let ema = view.ema_decay.map(|d| Ema::new(&mut model, d));
        // Phase 0 uses the historical streams (bitwise compatibility with
        // the pre-elastic trainer); later phases jump to disjoint stream
        // blocks so a resumed world never replays consumed randomness.
        let stream_base = env.phase_idx * 10_000;
        let mut replica = Replica {
            env,
            rank,
            world,
            rec,
            model,
            optimizer: build_optimizer(view.optimizer),
            ema,
            grad_bucket,
            data_rng: Rng::new(view.seed).split(1000 + stream_base + rank as u64),
            layer_rng: Rng::new(view.seed).split(2000 + stream_base + rank as u64),
            prog: Progress::fresh(),
            history: Vec::new(),
            anchor: None,
            sw: Stopwatch::start(),
            phases: PhaseBreakdown::default(),
            counters: carry.counters,
            timeline: carry.timeline,
            vnow: carry.vnow,
        };
        if env.phase_idx > 0 {
            // The old world's drain checkpoint. A quarantine stops *below*
            // a step the cadence may have checkpointed: not just "newest".
            let snap = replica
                .load_durable(carry.step + 1)
                .expect("no valid durable checkpoint to resume the resized world from");
            replica.rewind(&snap, false);
        }
        replica
    }

    /// The newest valid durable snapshot strictly before step `before`.
    /// Symmetric: every rank scans the same directory and skips the same
    /// corrupt files, so the counter stays rank-identical.
    fn load_durable(&mut self, before: u64) -> Option<DurableSnapshot> {
        let store = self.env.store.expect("restores require the durable store");
        let (snap, report) = store
            .load_latest_valid_before(before)
            .expect("durable checkpoint store I/O failed")?;
        self.counters.corrupt_checkpoints_skipped += report.corrupt_skipped;
        Some(snap)
    }

    fn capture(&mut self) -> DurableSnapshot {
        DurableSnapshot::capture(
            &mut self.model,
            self.optimizer.as_ref(),
            self.ema.as_ref(),
            &self.prog,
            self.env.view.replicas,
            &self.history,
        )
    }

    /// A control-plane instant at the virtual cursor.
    fn mark(&self, name: &'static str, step: u64, aux: u64) {
        self.rec
            .virtual_instant(Lane::VirtualControl, name, self.vnow, step, aux);
    }

    /// A control-plane delay at the virtual cursor, which moves past it.
    fn charge(&mut self, name: &'static str, dur_s: f64, step: u64, aux: u64) {
        self.rec
            .virtual_span(Lane::VirtualControl, name, self.vnow, dur_s, step, aux);
        self.vnow += dur_s;
    }

    /// The one durable save. Rank 0 persists the state every rank holds;
    /// counter and instant count *logical* checkpoints on all ranks, so
    /// the cross-rank virtual fingerprint stays equal.
    fn save_durable(&mut self) {
        if self.rank == 0 {
            let store = self.env.store.expect("durable saves require the store");
            let snap = self.capture();
            store.save(&snap).expect("durable checkpoint save failed");
        }
        self.counters.durable_checkpoints += 1;
        self.mark(
            obs_ph::DURABLE_CHECKPOINT,
            self.prog.step,
            self.counters.durable_checkpoints,
        );
    }

    /// The one restore path: resume, preemption, quarantine and
    /// divergence rollback differ only in what they load and charge.
    /// Applies `snap`; when that `replay`s steps (all but a new world
    /// loading its start), accounts them, marks the `REWIND` and drops the
    /// abandoned tail of the timeline. An anchor held now describes the
    /// trajectory just left, so it goes and the step loop takes a fresh
    /// one (the preemption site, which restores *from* it, puts it back).
    fn rewind(&mut self, snap: &DurableSnapshot, replay: bool) {
        let from = self.prog.step;
        (self.prog, self.history) =
            snap.apply(&mut self.model, self.optimizer.as_mut(), &mut self.ema);
        if replay {
            let replayed = from - self.prog.step;
            self.counters.replayed_steps += replayed;
            self.mark(obs_ph::REWIND, from, replayed);
            self.timeline.truncate(self.prog.step);
        }
        self.anchor = None;
    }

    /// Accounts measured laps that ran back to back and end now: each
    /// goes to its [`PhaseBreakdown`] slot and, back-dated from the wall
    /// clock so the spans tile, to the recorder's phase lane.
    fn lap(&mut self, laps: &[(&'static str, f64)]) {
        let total: f64 = laps.iter().map(|&(_, s)| s).sum();
        let mut start = self.rec.wall_now_s() - total;
        for &(phase, secs) in laps {
            *match phase {
                obs_ph::DATA => &mut self.phases.data,
                obs_ph::FORWARD => &mut self.phases.forward,
                obs_ph::BACKWARD => &mut self.phases.backward,
                obs_ph::ALL_REDUCE => &mut self.phases.all_reduce,
                obs_ph::OPTIMIZER => &mut self.phases.optimizer,
                other => unreachable!("{other} is not a training phase"),
            } += secs;
            self.rec
                .wall_span_measured(Lane::WallPhase, phase, start, secs, self.prog.step, 0);
            start += secs;
        }
    }

    /// One step's data → forward → loss → backward and gradient exchange:
    /// the group-mean loss, or the exchange's typed failure.
    fn exchange_gradients(&mut self, plan: &EpochPlan) -> Result<f32, CollectiveError> {
        let env = self.env;
        let view = env.view;
        let b = view.per_replica_batch;
        let accum = view.grad_accum_steps;
        // Overlapping the exchange with backward requires exactly one
        // micro-batch: with accumulation, gradients are rescaled *after*
        // the micro loop, so no bucket is final until backward ends — fall
        // back to the serialized exchange (bitwise identical either way).
        let overlap = view.overlap_all_reduce && accum == 1;
        // Backoff is virtual: accounted, never slept.
        let retry_policy = env.faults.retry();
        self.sw = Stopwatch::start();
        zero_grads(&mut self.model);
        // Key planned transient injections to this step *before* any
        // collective can fire — the overlapped exchange starts reducing
        // buckets mid-backward.
        self.world.set_step(self.prog.step);
        self.grad_bucket.set_step(self.prog.step);
        // Arm the planned compute corruption for this step on the
        // afflicted replica. The armed flip is process-global and is
        // consumed by the first blocked-GEMM tile *any* replica computes
        // (replicas share the process); that is fine because ABFT healing
        // is bitwise-neutral wherever the flip lands, and with verify off
        // the escape perturbs the summed gradient identically on every
        // rank — rank attribution lives in the plan, not the tile.
        if let Some((crank, bit)) = env.faults.compute_corruption_at(self.prog.step) {
            if crank % view.replicas == self.rank {
                ets_tensor::ops::abft::arm_inject(bit);
            }
        }
        let (mut data_s, mut fwd_s, mut bwd_s) = (0.0f64, 0.0f64, 0.0f64);
        let mut micro_loss = 0.0f32;
        // Set once the hooked backward has exchanged the gradients: the
        // result and the *exposed* wait (all the all-reduce phase is owed).
        let mut fused: Option<(Result<f32, CollectiveError>, f64)> = None;
        for micro in 0..accum {
            let offset = self.prog.sample_off as usize + micro * view.replicas * b;
            let indices = plan.batch_at(offset, self.rank, view.replicas, b);
            let (x, labels) = load_batch(
                env.train_set,
                &indices,
                AugmentConfig::train(),
                &mut self.data_rng,
            );
            data_s += self.sw.lap();
            let logits = self.model.forward(&x, Mode::Train, &mut self.layer_rng);
            let out = cross_entropy(&logits, &labels, view.label_smoothing);
            fwd_s += self.sw.lap();
            if overlap {
                let res = self.grad_bucket.backward_overlapped_with_retry(
                    &mut self.model,
                    &out.dlogits,
                    self.world.as_dyn(),
                    out.loss,
                    &retry_policy,
                    &mut self.counters,
                );
                // The lap spans backward + exposed wait; the outcome
                // already decomposes it, so just re-anchor the stopwatch.
                let _ = self.sw.lap();
                fused = Some(match res {
                    Ok(o) => {
                        bwd_s += o.backward_s;
                        (Ok(o.mean_loss), o.exposed_s)
                    }
                    Err(e) => (Err(e), 0.0),
                });
            } else {
                self.model.backward(&out.dlogits);
                bwd_s += self.sw.lap();
                micro_loss += out.loss;
            }
        }
        // One span per phase per step, however many micro-batches.
        self.lap(&[
            (obs_ph::DATA, data_s),
            (obs_ph::FORWARD, fwd_s),
            (obs_ph::BACKWARD, bwd_s),
        ]);
        if accum > 1 {
            // Each micro-batch contributed a mean gradient; average them.
            let inv = 1.0 / accum as f32;
            self.model.visit_params(&mut |p| p.grad.scale(inv));
            micro_loss *= inv;
        }
        let (result, ar_s) = match fused {
            Some(done) => done,
            None => {
                let res = self.grad_bucket.all_reduce_with_retry(
                    &mut self.model,
                    self.world.as_dyn(),
                    micro_loss,
                    &retry_policy,
                    &mut self.counters,
                );
                (res, self.sw.lap())
            }
        };
        self.lap(&[(obs_ph::ALL_REDUCE, ar_s)]);
        result
    }

    /// Preemption: the job died *before* executing this step; it restarts
    /// after a virtual delay, restores the anchor and replays. The plan is
    /// identical on every rank, so the world rewinds in lockstep.
    fn preempt(&mut self) {
        let anchor = self
            .anchor
            .take()
            .expect("preemption before the first checkpoint");
        let (at, delay) = (self.prog.step, self.env.faults.restart_delay_s());
        self.counters.preemptions += 1;
        self.counters.restart_virtual_s += delay;
        self.rewind(&anchor.state, true);
        self.data_rng.clone_from(&anchor.data_rng);
        self.layer_rng.clone_from(&anchor.layer_rng);
        self.anchor = Some(anchor);
        self.charge(obs_ph::RESTART, delay, at, 0);
    }

    /// Clip, schedule, optimizer and EMA update with the step's averaged
    /// gradients.
    fn apply_update(&mut self, schedule: &dyn LrSchedule, mean_loss: f32) {
        let view = self.env.view;
        if let Some(max_norm) = view.clip_grad_norm {
            ets_optim::clip_global_norm(&mut self.model, max_norm);
        }
        // Effective schedule step in the current world's units; ×1.0 is a
        // bitwise no-op, so unguarded runs stay on the legacy trajectory.
        let eff_step = self.prog.consumed_samples / view.global_batch() as u64;
        let lr = schedule.lr(eff_step) * self.prog.lr_scale;
        self.optimizer.step(&mut self.model, lr);
        if let Some(e) = &mut self.ema {
            e.update(&mut self.model);
        }
        let opt_s = self.sw.lap();
        self.lap(&[(obs_ph::OPTIMIZER, opt_s)]);
        self.phases.steps += 1;
        self.prog.loss_sum += mean_loss as f64;
        self.prog.last_lr = lr;
    }

    /// Virtual step time: the nominal step stretched by the worst timing
    /// fault active at this step (SPMD steps gate on the slowest
    /// participant) plus the retry backoff spent since `backoff_before`.
    /// The trace gets the same quantity as a STEP span, with control
    /// sub-spans for the straggler stretch and the backoff.
    fn charge_virtual_step(&mut self, backoff_before: f64) {
        let (faults, step) = (self.env.faults, self.prog.step);
        let nominal = faults.step_seconds();
        let slowdown = faults.slowdown_at(step);
        self.counters.straggler_virtual_s += (slowdown - 1.0) * nominal;
        let step_backoff = self.counters.retry_backoff_virtual_s - backoff_before;
        let step_virtual = nominal * slowdown + step_backoff;
        self.timeline.record(step, step_virtual);
        let (rec, vnow) = (&self.rec, self.vnow);
        rec.virtual_span(Lane::VirtualStep, obs_ph::STEP, vnow, step_virtual, step, 0);
        let sub_span = |name, start: f64, dur: f64| {
            rec.virtual_span(Lane::VirtualControl, name, vnow + start, dur, step, 0)
        };
        if slowdown > 1.0 {
            sub_span(obs_ph::STRAGGLER, nominal, (slowdown - 1.0) * nominal);
        }
        if step_backoff > 0.0 {
            sub_span(obs_ph::RETRY_BACKOFF, nominal * slowdown, step_backoff);
        }
        self.vnow += step_virtual;
    }

    /// Epoch boundary: evaluate (on the EMA weights, if kept) and record.
    fn finish_epoch(&mut self) {
        let view = self.env.view;
        let epoch = self.prog.epoch;
        let (eval_top1, eval_top5) =
            if epoch.is_multiple_of(view.eval_every) || epoch == view.epochs {
                let _eval_span =
                    self.rec
                        .wall_span(Lane::WallEval, obs_ph::EVAL, self.prog.step, epoch);
                let saved = self.ema.as_ref().map(|e| e.swap_in(&mut self.model));
                let counts = distributed_eval(
                    &mut self.model,
                    self.env.eval_set,
                    self.rank,
                    view.replicas,
                    view.per_replica_batch,
                    self.world.as_dyn(),
                );
                if let (Some(e), Some(s)) = (self.ema.as_ref(), saved) {
                    e.restore(&mut self.model, s);
                }
                (Some(counts.top1()), Some(counts.top5()))
            } else {
                (None, None)
            };
        self.history.push(EpochRecord {
            epoch,
            train_loss: (self.prog.loss_sum / self.prog.steps_this_epoch as f64) as f32,
            lr: self.prog.last_lr,
            eval_top1,
            eval_top5,
        });
        self.prog.epoch += 1;
        self.prog.sample_off = 0;
        self.prog.steps_this_epoch = 0;
        self.prog.loss_sum = 0.0;
    }

    /// The step loop of one phase, then the drain if it stops to resize.
    fn run(mut self) -> PhaseOutcome {
        let env = self.env;
        let (view, faults) = (env.view, env.faults);
        let phase_start = self.prog.step;
        let train_len = env.train_set.len() as u64;
        let gb = view.global_batch() as u64;
        // Schedule in the *current world's* step units: `view.replicas` is
        // the surviving world, so the peak LR linear-rescales with the
        // shrunken global batch and warmup/decay spans keep their sample
        // extent.
        let schedule = build_schedule(view);
        // The divergence guard and the corruption quarantine both roll
        // back to durable checkpoints, so both keep a cadence of them.
        let durable_cadence =
            view.nan_guard || (view.fingerprint_verify && faults.has_corruption());
        let mut quarantined = 0u64;
        let mut plan = EpochPlan::new(view.seed, self.prog.epoch, env.train_set.len());
        let mut plan_epoch = self.prog.epoch;

        let done = loop {
            if self.prog.epoch > view.epochs {
                break true;
            }
            if env.stop_at == Some(self.prog.step) {
                break false;
            }
            if self.prog.epoch != plan_epoch {
                plan = EpochPlan::new(view.seed, self.prog.epoch, env.train_set.len());
                plan_epoch = self.prog.epoch;
            }
            let on_cadence = self.prog.step == phase_start
                || self.prog.step.is_multiple_of(faults.checkpoint_every());

            // Durable cadence save: rank 0 persists *before* this step's
            // collective, so the write happens-before any rank's
            // post-collective guard trip — every rank that rolls back
            // sees the completed, renamed file.
            if durable_cadence && on_cadence {
                self.save_durable();
            }

            // In-memory anchor (only when the plan can actually preempt
            // us). Taken *before* the preemption check: a checkpoint
            // written at step `s` survives a job death at step `s`.
            if faults.has_preempts() && (on_cadence || self.anchor.is_none()) {
                self.anchor = Some(RewindAnchor {
                    state: self.capture(),
                    data_rng: self.data_rng.clone(),
                    layer_rng: self.layer_rng.clone(),
                });
                self.counters.checkpoints_taken += 1;
                self.mark(
                    obs_ph::CHECKPOINT,
                    self.prog.step,
                    self.counters.checkpoints_taken,
                );
            }

            // Each planned preemption fires once per run, whatever rolls
            // back across it: `counters.preemptions`, carried through
            // rewinds and phases, is the cursor into the plan. (One at a
            // resize boundary fires in the next world: see the check above.)
            if faults
                .preempt_steps()
                .get(self.counters.preemptions as usize)
                == Some(&self.prog.step)
            {
                self.preempt();
                continue;
            }

            let backoff_before = self.counters.retry_backoff_virtual_s;
            let mean_loss = match self.exchange_gradients(&plan) {
                Ok(loss) => loss,
                // Unhealable payload corruption quarantines the attributed
                // rank: no optimizer update consumed the poisoned
                // reduction, but local state (BN running statistics, RNG
                // streams) already advanced through this step's forward,
                // so every rank rolls back to the last durable checkpoint
                // strictly before the poisoned step and the phase drains
                // for an elastic shrink. The verdict comes from an
                // all-gathered fingerprint matrix that is identical on
                // every rank, so the whole world takes this branch in
                // lockstep with identical values.
                Err(CollectiveError::CorruptPayload { rank, bucket, step }) => {
                    self.counters.rank_quarantines += 1;
                    quarantined += 1;
                    let snap = self.load_durable(self.prog.step).unwrap_or_else(|| {
                        panic!(
                            "step {step}: rank {rank} quarantined (bucket {bucket}) \
                             but no durable checkpoint precedes the poisoned step"
                        )
                    });
                    self.rewind(&snap, true);
                    break false;
                }
                // Anything else (retry exhaustion on a transient
                // schedule) stays fatal.
                Err(other) => panic!(
                    "step {}: gradient exchange failed permanently: {other}",
                    self.prog.step
                ),
            };

            // Divergence guard: the reduced loss and flat gradient buffer
            // are bitwise identical on every rank, so either all ranks
            // trip here or none do — the rollback is SPMD-symmetric by
            // construction. Tripping *before* the optimizer step keeps
            // non-finite values out of the weights entirely.
            if view.nan_guard
                && !(mean_loss.is_finite() && self.grad_bucket.last_reduction_is_finite())
            {
                self.counters.divergence_rollbacks += 1;
                let err = DivergenceError {
                    step: self.prog.step,
                    rollbacks: self.counters.divergence_rollbacks,
                };
                if self.counters.divergence_rollbacks > DIVERGENCE_ROLLBACK_CAP {
                    panic!("{err}");
                }
                // Roll back *strictly before* the failing step: the
                // weights were poisoned by the previous update, so a
                // checkpoint taken at the top of this very step captured
                // them — replaying it at any LR reproduces the same
                // non-finite forward. Only rewinding past it and replaying
                // the gap at halved LR changes the trajectory.
                let snap = self.load_durable(self.prog.step).unwrap_or_else(|| {
                    panic!("{err}: no valid durable checkpoint to roll back to")
                });
                let halved = self.prog.lr_scale * 0.5;
                self.rewind(&snap, true);
                self.prog.lr_scale = halved;
                continue;
            }

            self.apply_update(schedule.as_ref(), mean_loss);
            self.charge_virtual_step(backoff_before);

            // Advance the sample clock.
            self.prog.step += 1;
            self.prog.steps_this_epoch += 1;
            self.prog.consumed_samples += gb;
            self.prog.sample_off += gb;
            // Drop-remainder: a tail shorter than one global batch is
            // skipped.
            if self.prog.sample_off + gb > train_len {
                self.finish_epoch();
            }
        };

        // Drain for a resize: the last collective has completed (the step
        // loop never leaves a bucket in flight), so rank 0 persists the
        // durable checkpoint every survivor will resume from. The thread
        // join in `train` orders this write before the next phase's loads.
        if !done {
            self.save_durable();
            // The resize protocol's virtual cost (durable persist +
            // collective rebuild + restart) is charged by `train` between
            // phases; trace it here so every old-world rank records the
            // identical span and the next phase's cursor continues past it.
            let resize_s =
                faults.resize_checkpoint_s() + faults.resize_rebuild_s() + faults.restart_delay_s();
            self.charge(
                obs_ph::RESIZE,
                resize_s,
                self.prog.step,
                view.replicas as u64,
            );
        }

        let mut weights: Vec<f32> = Vec::new();
        self.model
            .visit_params(&mut |p| weights.extend_from_slice(p.value.data()));
        PhaseOutcome {
            checksum: checksum_f32(weights.into_iter()),
            history: self.history,
            phases: self.phases,
            buckets: self.grad_bucket.profile().clone(),
            carry: Carry {
                counters: self.counters,
                timeline: self.timeline,
                vnow: self.vnow,
                step: self.prog.step,
            },
            done,
            quarantined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_exp(replicas: usize) -> Experiment {
        let mut e = Experiment::proxy_default();
        e.replicas = replicas;
        e.per_replica_batch = 8;
        e.epochs = 3;
        e.train_samples = 128;
        e.eval_samples = 64;
        e
    }

    #[test]
    fn single_replica_trains_and_reports() {
        let report = train(&quick_exp(1));
        assert_eq!(report.history.len(), 3);
        assert!(report.peak_top1 > 0.0, "should beat zero accuracy");
        assert!(report.history[0].train_loss.is_finite());
        assert_eq!(report.final_world, 1);
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let mut e = quick_exp(2);
        e.epochs = 9;
        let report = train(&e);
        let first = report.history[0].train_loss;
        let last = report.final_loss();
        assert!(last < first, "loss should fall: {first} → {last}");
    }

    #[test]
    fn replicas_stay_bitwise_identical() {
        // train() asserts the cross-replica checksum internally; reaching
        // the report proves synchronization held for the whole run.
        let report = train(&quick_exp(4));
        assert_ne!(report.weight_checksum, 0);
    }

    #[test]
    fn same_seed_same_result() {
        let a = train(&quick_exp(2));
        let b = train(&quick_exp(2));
        assert_eq!(a.weight_checksum, b.weight_checksum, "bitwise determinism");
        assert_eq!(a.peak_top1, b.peak_top1);
    }

    #[test]
    fn different_seeds_differ() {
        let mut e = quick_exp(2);
        let a = train(&e);
        e.seed = 7;
        let b = train(&e);
        assert_ne!(a.weight_checksum, b.weight_checksum);
    }

    #[test]
    fn distributed_bn_runs() {
        let mut e = quick_exp(4);
        e.bn_group = ets_collective::GroupSpec::Contiguous(2);
        let report = train(&e);
        assert!(report.final_loss().is_finite());
    }

    #[test]
    fn global_batch_invariance_of_gradient_sum() {
        // 1×16 and 4×4 see the same global batch (same epoch plan), so the
        // first-step averaged gradients match closely. Different BN stats
        // (local per replica) perturb things slightly, so compare losses
        // loosely after one epoch.
        let mut a = quick_exp(1);
        a.per_replica_batch = 16;
        a.epochs = 1;
        let mut b = quick_exp(4);
        b.per_replica_batch = 4;
        b.epochs = 1;
        let ra = train(&a);
        let rb = train(&b);
        assert!(
            (ra.history[0].train_loss - rb.history[0].train_loss).abs() < 0.5,
            "{} vs {}",
            ra.history[0].train_loss,
            rb.history[0].train_loss
        );
    }

    #[test]
    fn divergence_error_displays_step_and_rollbacks() {
        let e = DivergenceError {
            step: 17,
            rollbacks: 3,
        };
        let msg = format!("{e}");
        assert!(msg.contains("step 17"), "{msg}");
        assert!(msg.contains("3 rollback"), "{msg}");
    }
}

#[cfg(test)]
mod accum_tests {
    use super::*;
    use crate::experiment::Experiment;

    #[test]
    fn accumulation_runs_and_is_deterministic() {
        let mut e = Experiment::proxy_default();
        e.replicas = 2;
        e.per_replica_batch = 4;
        e.grad_accum_steps = 4; // effective global batch 32
        e.epochs = 2;
        e.train_samples = 128;
        e.eval_samples = 32;
        assert_eq!(e.global_batch(), 32);
        assert_eq!(e.steps_per_epoch(), 4);
        let a = train(&e);
        let b = train(&e);
        assert_eq!(a.weight_checksum, b.weight_checksum);
        assert!(a.final_loss().is_finite());
        assert_eq!(a.steps, 2 * 4);
    }

    #[test]
    fn accumulated_first_step_matches_large_batch_closely() {
        // 2 replicas × batch 4 × accum 4 sees the same 32 samples as
        // 2 replicas × batch 16 × accum 1 in the first optimizer step
        // (same epoch plan). BN statistics differ (per micro-batch vs per
        // batch), so losses agree only approximately.
        let mut small = Experiment::proxy_default();
        small.replicas = 2;
        small.per_replica_batch = 4;
        small.grad_accum_steps = 4;
        small.epochs = 1;
        small.train_samples = 64;
        small.eval_samples = 16;
        let mut big = small.clone();
        big.per_replica_batch = 16;
        big.grad_accum_steps = 1;
        assert_eq!(small.global_batch(), big.global_batch());
        let ra = train(&small);
        let rb = train(&big);
        assert!(
            (ra.history[0].train_loss - rb.history[0].train_loss).abs() < 0.4,
            "{} vs {}",
            ra.history[0].train_loss,
            rb.history[0].train_loss
        );
    }
}

#[cfg(test)]
mod clip_tests {
    use super::*;
    use crate::experiment::Experiment;

    #[test]
    fn clipping_changes_trajectory_and_stays_deterministic() {
        let mut e = Experiment::proxy_default();
        e.replicas = 2;
        e.epochs = 2;
        e.train_samples = 128;
        e.eval_samples = 32;
        let unclipped = train(&e);
        e.clip_grad_norm = Some(0.05); // aggressive: must bite
        let clipped_a = train(&e);
        let clipped_b = train(&e);
        assert_ne!(unclipped.weight_checksum, clipped_a.weight_checksum);
        assert_eq!(clipped_a.weight_checksum, clipped_b.weight_checksum);
        assert!(clipped_a.final_loss().is_finite());
    }
}

#[cfg(test)]
mod broadcast_init_tests {
    use super::*;
    use crate::experiment::Experiment;

    #[test]
    fn broadcast_equalizes_params_and_running_stats() {
        use ets_collective::Backend;
        use ets_efficientnet::ModelConfig;
        use ets_nn::Precision;
        use ets_tensor::Tensor;
        for backend in [Backend::Tree, Backend::Ring] {
            let world = create_collective(backend, 3);
            let states: Vec<DurableSnapshot> = world
                .into_iter()
                .map(|c| {
                    std::thread::spawn(move || {
                        // Independent inits, perturbed running stats.
                        let mut rng = Rng::new(10 + c.rank() as u64);
                        let mut m =
                            EfficientNet::new(ModelConfig::tiny(16, 4), Precision::F32, &mut rng);
                        let mut rng = Rng::new(20 + c.rank() as u64);
                        let mut x = Tensor::zeros([2, 3, 16, 16]);
                        rng.fill_normal(x.data_mut(), 0.0, 1.0);
                        let _ = m.forward(&x, Mode::Train, &mut rng);
                        broadcast_model(&mut m, c.as_ref(), 1);
                        let (opt, at) = (Sgd::new(0.0, 0.0), Progress::fresh());
                        DurableSnapshot::capture(&mut m, &opt, None, &at, 1, &[])
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect();
            for state in &states[1..] {
                assert_eq!(
                    state.params, states[0].params,
                    "{backend}: weights diverged"
                );
                assert_eq!(
                    state.bn_running, states[0].bn_running,
                    "{backend}: BN stats diverged"
                );
            }
        }
    }

    #[test]
    fn broadcast_init_synchronizes_and_trains() {
        let mut e = Experiment::proxy_default();
        e.replicas = 4;
        e.per_replica_batch = 8;
        e.epochs = 2;
        e.train_samples = 128;
        e.eval_samples = 32;
        e.broadcast_init = true;
        // train() asserts the cross-replica weight checksum: if broadcast
        // failed to equalize inits, replicas would diverge immediately.
        let r = train(&e);
        assert!(r.final_loss().is_finite());
        // And the result differs from the shared-seed init (different init
        // weights → different trajectory).
        e.broadcast_init = false;
        let r2 = train(&e);
        assert_ne!(r.weight_checksum, r2.weight_checksum);
    }
}
