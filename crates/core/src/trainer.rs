//! The distributed data-parallel trainer: the paper's training and
//! evaluation loop, executed for real with one thread per replica.
//!
//! Faithfully reproduced mechanics:
//! - **Data parallelism**: every replica holds a full model copy and a
//!   disjoint shard of each global batch; gradients are summed with a
//!   deterministic collective ([`ets_collective::create_collective`]) and
//!   averaged. Gradients are reduced in place, bucket by bucket
//!   ([`crate::grad_bucket`]), with per-bucket timing.
//! - **Sharded weight update**: each replica runs the optimizer only on
//!   the parameters it owns ([`Shares`]) and keeps state only for them,
//!   then copies its new weights into its peers in place
//!   ([`Collective::all_gather_in_place`]), so all replicas hold
//!   bitwise-identical weights (a final weight checksum across replicas
//!   checks the copy). Before a durable checkpoint the owners copy their
//!   optimizer state into each other the same way. Only the fingerprint
//!   vote (`fingerprint_verify`) compares the ranks' reduced gradients:
//!   without it a receive-side flip in a gradient its rank owns reaches
//!   every replica's weights alike, and one in a gradient a peer owns is
//!   never read.
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
//! - **Input pipeline** (§3.3): the thread that called `train` loads
//!   every batch while the replicas compute; a replica asks for batch
//!   *s+1* as soon as batch *s* arrives (`Feed`).

use crate::bn_sync::GroupStatSync;
use crate::ckpt_store::{CkptStore, DurableSnapshot, Progress};
use crate::experiment::{DecayChoice, Experiment, OptimizerChoice};
use crate::grad_bucket::GradBucket;
use crate::report::{EpochRecord, Fingerprint, RecoveryCounters, TrainReport};
use crate::timeline::{AllReduceProfile, PhaseBreakdown, ResizeRecord, StepTimeline, Stopwatch};
use ets_collective::{
    bn_partition, create_collective, Collective, CollectiveError, FaultSchedule, FaultyCollective,
    Pieces,
};
use ets_data::{load_batch, AugmentConfig, EpochPlan, SynthNet};
use ets_efficientnet::EfficientNet;
use ets_nn::{cross_entropy, zero_grads, Ema, EvalCounts, Layer, Mode};
use ets_obs::{phase as obs_ph, Lane, Recorder};
use ets_optim::{
    Constant, CosineDecay, ExponentialDecay, Lamb, Lars, LrSchedule, Optimizer, PolynomialDecay,
    RmsProp, Sgd, Shares, Shifted, Sm3, Warmup,
};
use ets_tensor::{Rng, Tensor};
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
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

/// A batch as a replica asks for it: the split, the sample indices and
/// the augmentation stream before it. The batch is a pure function of
/// the request, so the thread that loads it keeps no state.
#[derive(Clone, Debug, PartialEq)]
struct BatchRequest {
    eval: bool,
    indices: Vec<usize>,
    rng: Rng,
}

/// The reply: the batch, its labels and the augmentation stream after it.
type Loaded = (Tensor, Vec<usize>, Rng);

/// Loads every batch the replicas of a phase request, in arrival order,
/// until all of them have hung up. Runs on the thread that called
/// `train`, which has nothing else to do while the phase runs.
fn serve_batches(
    inbox: Receiver<(usize, BatchRequest)>,
    outboxes: &[SyncSender<Loaded>],
    train_set: &SynthNet,
    eval_set: &SynthNet,
    recorders: &[Arc<Recorder>],
) {
    for (rank, request) in inbox {
        let (set, aug) = if request.eval {
            (eval_set, AugmentConfig::eval())
        } else {
            (train_set, AugmentConfig::train())
        };
        let mut rng = request.rng;
        let (x, labels) = load_batch(set, &request.indices, aug, &mut rng);
        recorders[rank].counter_add("data_batches_loaded", 1);
        // A replica that has drained no longer listens.
        let _ = outboxes[rank].send((x, labels, rng));
    }
}

/// A replica's end of the input pipeline. It keeps at most one request in
/// flight, so neither channel ever blocks its sender.
struct Feed {
    rank: usize,
    requests: SyncSender<(usize, BatchRequest)>,
    replies: Receiver<Loaded>,
    in_flight: Option<BatchRequest>,
}

const FEEDER_GONE: &str = "the thread feeding the replicas hung up";

impl Feed {
    /// Asks for `next`, unless a request is already in flight.
    fn prefetch(&mut self, next: Option<BatchRequest>) {
        if let (None, Some(next)) = (&self.in_flight, next) {
            self.requests
                .send((self.rank, next.clone()))
                .expect(FEEDER_GONE);
            self.in_flight = Some(next);
        }
    }

    /// The batch `want` names. The reply to any other request in flight
    /// (one sent before a rewind) is dropped and `want` asked for instead.
    fn take(&mut self, want: BatchRequest, rec: &Recorder) -> Loaded {
        loop {
            self.prefetch(Some(want.clone()));
            let answered = self.in_flight.take();
            let reply = self.replies.recv().expect(FEEDER_GONE);
            if answered.as_ref() == Some(&want) {
                return reply;
            }
            rec.counter_add("data_prefetch_discarded", 1);
        }
    }
}

/// The replica's gradient collective: either the plain collective or the
/// same collective behind a fault-injection decorator. BN-group collectives stay
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

/// A model's weights as [`Pieces`], in `visit_params` order: what the
/// owners copy into their peers after a sharded update.
struct Weights<'a>(&'a mut dyn Layer);

// SAFETY: the pieces are the parameters' own value buffers, reached
// through the `&mut` borrow of the model; nothing resizes a weight while
// it is held.
unsafe impl Pieces for Weights<'_> {
    fn for_each_piece(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.0.visit_params(&mut |p| f(p.value.data_mut()));
    }
}

/// An optimizer's state as [`Pieces`], parameter-major
/// ([`Optimizer::visit_state`]): what the owners copy into their peers
/// before a durable checkpoint.
struct State<'a>(&'a mut dyn Optimizer);

// SAFETY: the pieces are the segments of the optimizer's slot buffers,
// reached through the `&mut` borrow of the optimizer; nothing sizes or
// resizes a slot while it is held.
unsafe impl Pieces for State<'_> {
    fn for_each_piece(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.0.visit_state(&mut |_, seg| f(seg));
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
/// seconds + wall time). Returns the report together with the recorders;
/// feed them to [`ets_obs::chrome_trace_multi`] for export. Recording
/// does not perturb numerics: the virtual spans charge exactly the
/// quantities the [`StepTimeline`] already records, so a traced run
/// produces a bit-identical [`TrainReport`].
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

    // Resize boundaries: `(step, ranks lost at that step)`, ascending.
    let mut boundaries = VecDeque::from(faults.resize_boundaries());

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
            store: store.as_deref(),
            phase_idx,
            stop_at,
        };
        let results: Vec<PhaseOutcome> = std::thread::scope(|scope| {
            let (requests, inbox) = sync_channel(world);
            let mut outboxes = Vec::with_capacity(world);
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
                    let (outbox, replies) = sync_channel(1);
                    outboxes.push(outbox);
                    let feed = Feed {
                        rank: r,
                        requests: requests.clone(),
                        replies,
                        in_flight: None,
                    };
                    scope.spawn(move || Replica::new(env, r, comm, bn_comm, rec, carry, feed).run())
                })
                .collect();
            drop(requests);
            serve_batches(inbox, &outboxes, &train_set, &eval_set, recorders);
            joins
                .into_iter()
                .map(|j| j.join().expect("replica panicked"))
                .collect()
        });

        for (r, res) in results.iter().enumerate() {
            // The owners' weights are copied into their peers after every
            // update, so this checks the copy, not the reduced gradients.
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

/// What every replica thread of one fixed-world phase is handed.
struct PhaseEnv<'a> {
    /// The experiment as this phase's world sees it (`replicas` is the
    /// surviving world).
    view: &'a Experiment,
    faults: &'a FaultSchedule,
    store: Option<&'a CkptStore>,
    phase_idx: u64,
    /// The resize boundary this phase drains at, if one is planned.
    stop_at: Option<u64>,
}

/// One replica's whole state for a phase. The step loop ([`Replica::run`])
/// and every recovery path are methods on it and share one restore
/// ([`Replica::rewind`]), one checkpoint site and one phase lap.
struct Replica<'a> {
    env: &'a PhaseEnv<'a>,
    rank: usize,
    world: WorldComm,
    rec: Arc<Recorder>,
    model: EfficientNet,
    optimizer: Box<dyn Optimizer>,
    /// Which parameters each rank updates, cut once per phase for its
    /// world. This rank's optimizer state is current only for its own.
    shares: Shares,
    ema: Option<Ema>,
    grad_bucket: GradBucket,
    feed: Feed,
    /// Replica-local stochasticity (augmentation; dropout, drop-path).
    /// `data_rng` is the augmentation stream after the last batch taken.
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
        mut feed: Feed,
    ) -> Self {
        let view = env.view;
        // Phase 0 uses the historical streams (bitwise compatibility with
        // the pre-elastic trainer); later phases jump to disjoint stream
        // blocks so a resumed world never replays consumed randomness.
        let stream_base = env.phase_idx * 10_000;
        let data_rng = Rng::new(view.seed).split(1000 + stream_base + rank as u64);
        if env.phase_idx == 0 {
            // Phase 0 starts at epoch 1's first batch: ask for it now, so
            // loading it overlaps building the model. (A resumed phase
            // learns where it starts from the checkpoint.)
            let plan = EpochPlan::new(view.seed, 1, view.train_samples);
            let indices = plan.batch_at(0, rank, view.replicas, view.per_replica_batch);
            let rng = data_rng.clone();
            feed.prefetch(Some(BatchRequest {
                eval: false,
                indices,
                rng,
            }));
        }
        // Every replica draws its init from one shared stream, so the
        // weights start bitwise identical on every rank. Resumed phases
        // overwrite them with the durable checkpoint below.
        let mut init_rng = Rng::new(view.seed).split(1);
        let mut model = EfficientNet::new(view.model.clone(), view.precision, &mut init_rng);
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
        let shares = Shares::new(&mut model, view.replicas);
        let mut replica = Replica {
            env,
            rank,
            world,
            rec,
            model,
            optimizer: build_optimizer(view.optimizer),
            shares,
            ema,
            grad_bucket,
            feed,
            data_rng,
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

    /// The one checkpoint site: a durable save, a fresh rewind anchor, or
    /// both from one capture. The old anchor goes before the capture, so
    /// a rank holds one snapshot at any moment whatever the other ranks
    /// do; a rank that neither saves nor anchors captures nothing. Every
    /// rank reaches a durable save together, and the owners first copy
    /// their optimizer state into each other, so rank 0 persists every
    /// parameter's. An anchor alone needs no copy: the rank that rewinds
    /// to it reads only the state of the parameters it owns. Counters and
    /// instants count *logical* checkpoints on all ranks (the durable one
    /// first), so the cross-rank virtual fingerprint stays equal.
    fn checkpoint(&mut self, durable: bool, anchor: bool) {
        if anchor {
            self.anchor = None;
        }
        if durable {
            let cuts = self.shares.state_cuts(self.optimizer.as_mut());
            let state = &mut State(self.optimizer.as_mut());
            self.world.as_dyn().all_gather_in_place(state, &cuts);
        }
        let snap = (anchor || (durable && self.rank == 0)).then(|| self.capture());
        if durable {
            if self.rank == 0 {
                let store = self.env.store.expect("durable saves require the store");
                let snap = snap.as_ref().expect("rank 0 captured for the save");
                store.save(snap).expect("durable checkpoint save failed");
            }
            self.counters.durable_checkpoints += 1;
            self.mark(
                obs_ph::DURABLE_CHECKPOINT,
                self.prog.step,
                self.counters.durable_checkpoints,
            );
        }
        if anchor {
            self.anchor = Some(RewindAnchor {
                state: snap.expect("captured for the anchor"),
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

    /// This rank's batch of the step at `sample_off`, on the current
    /// augmentation stream.
    fn train_request(&self, plan: &EpochPlan, sample_off: u64) -> BatchRequest {
        let (w, b) = (self.env.view.replicas, self.env.view.per_replica_batch);
        let indices = plan.batch_at(sample_off as usize, self.rank, w, b);
        let rng = self.data_rng.clone();
        BatchRequest {
            eval: false,
            indices,
            rng,
        }
    }

    /// Chunk `chunk` of this rank's strided shard of the eval set, if the
    /// shard has one. Eval loading draws nothing from its stream.
    fn eval_request(&self, chunk: usize) -> Option<BatchRequest> {
        let b = self.env.view.per_replica_batch.max(1);
        let shard = (self.rank..self.env.view.eval_samples).step_by(self.env.view.replicas);
        let indices: Vec<usize> = shard.skip(chunk * b).take(b).collect();
        let rng = Rng::new(0);
        (!indices.is_empty()).then_some(BatchRequest {
            eval: true,
            indices,
            rng,
        })
    }

    fn evaluates(&self, epoch: u64) -> bool {
        epoch.is_multiple_of(self.env.view.eval_every) || epoch == self.env.view.epochs
    }

    /// What the step loop loads after this step's batch: the next step's,
    /// or past the epoch's last step the first eval chunk or the next
    /// epoch's first batch. `None` where the phase ends first.
    fn next_after_train(&self, plan: &EpochPlan) -> Option<BatchRequest> {
        let (view, prog) = (self.env.view, &self.prog);
        let (gb, step) = (view.global_batch() as u64, prog.step + 1);
        if prog.sample_off + 2 * gb <= view.train_samples as u64 {
            let next = self.train_request(plan, prog.sample_off + gb);
            (self.env.stop_at != Some(step)).then_some(next)
        } else if let Some(eval) = self.eval_request(0).filter(|_| self.evaluates(prog.epoch)) {
            Some(eval)
        } else {
            self.first_of_next_epoch(step)
        }
    }

    /// The next epoch's first batch, which the step loop reaches at
    /// `step` unless training or the phase ends there.
    fn first_of_next_epoch(&self, step: u64) -> Option<BatchRequest> {
        let (view, epoch) = (self.env.view, self.prog.epoch + 1);
        let plan = EpochPlan::new(view.seed, epoch, view.train_samples);
        let next = self.train_request(&plan, 0);
        (epoch <= view.epochs && self.env.stop_at != Some(step)).then_some(next)
    }

    /// One step's data → forward → loss → backward and gradient exchange:
    /// the group-mean loss, or the exchange's typed failure. The data lap
    /// is the wait for the batch, which was loaded during the previous
    /// step; zeroing the gradients is the backward lap's.
    fn exchange_gradients(&mut self, plan: &EpochPlan) -> Result<f32, CollectiveError> {
        let env = self.env;
        let view = env.view;
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
        let mut bwd_s = self.sw.lap();
        let want = self.train_request(plan, self.prog.sample_off);
        let (x, labels, rng) = self.feed.take(want, &self.rec);
        self.data_rng = rng;
        let next = self.next_after_train(plan);
        self.feed.prefetch(next);
        let data_s = self.sw.lap();
        let logits = self.model.forward(&x, Mode::Train, &mut self.layer_rng);
        let out = cross_entropy(&logits, &labels, view.label_smoothing);
        let fwd_s = self.sw.lap();
        // Set when the hooked backward has exchanged the gradients: the
        // result and the *exposed* wait (all the all-reduce phase is owed).
        let fused = if view.overlap_all_reduce {
            let res = self.grad_bucket.backward_overlapped_with_retry(
                &mut self.model,
                &out.dlogits,
                self.world.as_dyn(),
                out.loss,
                &retry_policy,
                &mut self.counters,
            );
            // The lap spans backward + exposed wait; the outcome already
            // decomposes it, so just re-anchor the stopwatch.
            let _ = self.sw.lap();
            Some(match res {
                Ok(o) => {
                    bwd_s += o.backward_s;
                    (Ok(o.mean_loss), o.exposed_s)
                }
                Err(e) => (Err(e), 0.0),
            })
        } else {
            self.model.backward(&out.dlogits);
            bwd_s += self.sw.lap();
            None
        };
        self.lap(&[
            (obs_ph::DATA, data_s),
            (obs_ph::FORWARD, fwd_s),
            (obs_ph::BACKWARD, bwd_s),
        ]);
        let (result, ar_s) = fused.unwrap_or_else(|| {
            let res = self.grad_bucket.all_reduce_with_retry(
                &mut self.model,
                self.world.as_dyn(),
                out.loss,
                &retry_policy,
                &mut self.counters,
            );
            (res, self.sw.lap())
        });
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

    /// Schedule, optimizer and EMA update with the step's averaged
    /// gradients. The optimizer runs on this rank's own parameters, whose
    /// new weights then go into every peer.
    fn apply_update(&mut self, schedule: &dyn LrSchedule, mean_loss: f32) {
        let view = self.env.view;
        // Effective schedule step in the current world's units; ×1.0 is a
        // bitwise no-op, so unguarded runs stay on the legacy trajectory.
        let eff_step = self.prog.consumed_samples / view.global_batch() as u64;
        let lr = schedule.lr(eff_step) * self.prog.lr_scale;
        let owned = self.shares.owned(self.rank);
        self.optimizer.step_params(&mut self.model, lr, owned);
        let weights = &mut Weights(&mut self.model);
        self.world
            .as_dyn()
            .all_gather_in_place(weights, self.shares.elems());
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

    /// Distributed evaluation (§3.3): this rank's strided shard of the
    /// eval set, chunk by chunk, with the counts merged over the world.
    fn evaluate(&mut self) -> EvalCounts {
        let mut local = EvalCounts::default();
        let mut rng = Rng::new(0); // an eval forward draws nothing
        let mut chunk = 0;
        while let Some(want) = self.eval_request(chunk) {
            let (x, labels, _) = self.feed.take(want, &self.rec);
            chunk += 1;
            let next = self.eval_request(chunk);
            self.feed
                .prefetch(next.or_else(|| self.first_of_next_epoch(self.prog.step)));
            let scores = self.model.forward(&x, Mode::Eval, &mut rng);
            local.observe(&scores, &labels);
        }
        all_reduce_counts(local, self.world.as_dyn())
    }

    /// Epoch boundary: evaluate (on the EMA weights, if kept) and record.
    fn finish_epoch(&mut self) {
        let epoch = self.prog.epoch;
        let (eval_top1, eval_top5) = if self.evaluates(epoch) {
            let rec = Arc::clone(&self.rec);
            let _eval_span = rec.wall_span(Lane::WallEval, obs_ph::EVAL, self.prog.step, epoch);
            let saved = self.ema.as_ref().map(|e| e.swap_in(&mut self.model));
            let counts = self.evaluate();
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
        let train_len = view.train_samples as u64;
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
        let mut plan = EpochPlan::new(view.seed, self.prog.epoch, view.train_samples);
        let mut plan_epoch = self.prog.epoch;

        let done = loop {
            if self.prog.epoch > view.epochs {
                break true;
            }
            if env.stop_at == Some(self.prog.step) {
                break false;
            }
            if self.prog.epoch != plan_epoch {
                plan = EpochPlan::new(view.seed, self.prog.epoch, view.train_samples);
                plan_epoch = self.prog.epoch;
            }
            let on_cadence = self.prog.step == phase_start
                || self.prog.step.is_multiple_of(faults.checkpoint_every());

            // Durable cadence save: rank 0 persists *before* this step's
            // collective, so the write happens-before any rank's
            // post-collective guard trip — every rank that rolls back
            // sees the completed, renamed file. In-memory anchor (only
            // when the plan can actually preempt us): taken *before* the
            // preemption check, so a checkpoint written at step `s`
            // survives a job death at step `s`. One capture serves both.
            let durable = durable_cadence && on_cadence;
            let anchor = faults.has_preempts() && (on_cadence || self.anchor.is_none());
            self.checkpoint(durable, anchor);

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

            // Divergence guard: the reduced loss and gradients are
            // bitwise identical on every rank, so either all ranks
            // trip here or none do — the rollback is SPMD-symmetric by
            // construction. Tripping *before* the optimizer step keeps
            // non-finite values out of the weights entirely.
            if view.nan_guard
                && !(mean_loss.is_finite()
                    && self.grad_bucket.last_reduction_is_finite(&mut self.model))
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
            // The phase ends here, so its anchor goes before the capture.
            self.anchor = None;
            self.checkpoint(true, false);
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

        let mut weights = Fingerprint::default();
        self.model
            .visit_params(&mut |p| weights.update(p.value.data()));
        PhaseOutcome {
            checksum: weights.finish(),
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
mod feed_tests {
    use super::*;
    use ets_collective::{FaultEvent, FaultKind};
    use std::time::Duration;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_stale_reply_is_discarded_and_the_batch_equals_an_inline_load() {
        let (train_set, eval_set) = SynthNet::train_eval_pair(3, 4, 64, 16, 8, 0.35);
        let rec = Arc::new(Recorder::enabled(0));
        let recorders = [Arc::clone(&rec)];
        let request = |eval, indices: &[usize], seed| BatchRequest {
            eval,
            indices: indices.to_vec(),
            rng: Rng::new(seed),
        };
        let want = |indices: &[usize]| request(false, indices, 7);
        // (the request in flight, the one taken, whether the reply is stale)
        let cases = [
            (request(false, &[0, 1, 2], 7), want(&[3, 4, 5]), true),
            (request(false, &[3, 4, 5], 8), want(&[3, 4, 5]), true),
            (request(true, &[6, 7], 7), want(&[6, 7]), true),
            (request(false, &[6, 7], 7), want(&[6, 7]), false),
        ];
        std::thread::scope(|scope| {
            let (requests, inbox) = sync_channel(1);
            let (outbox, replies) = sync_channel(1);
            let (train, eval, recs) = (&train_set, &eval_set, &recorders[..]);
            let server = scope.spawn(move || serve_batches(inbox, &[outbox], train, eval, recs));
            let mut feed = Feed {
                rank: 0,
                requests,
                replies,
                in_flight: None,
            };
            let mut discarded = 0;
            for (sent, want, stale) in cases {
                feed.prefetch(Some(sent));
                let (x, labels, rng) = feed.take(want.clone(), &rec);
                let mut inline_rng = want.rng.clone();
                let aug = AugmentConfig::train();
                let inline = load_batch(&train_set, &want.indices, aug, &mut inline_rng);
                assert_eq!(bits(&x), bits(&inline.0), "{want:?}");
                assert_eq!((labels, rng), (inline.1, inline_rng));
                discarded += u64::from(stale);
                assert_eq!(rec.counter_value("data_prefetch_discarded"), discarded);
            }
            assert_eq!(rec.counter_value("data_batches_loaded"), 4 + discarded);
            drop(feed);
            server
                .join()
                .expect("the server returns once the feed hangs up");
        });
    }

    /// Per rank: (batches loaded, prefetches discarded).
    fn feed_counters(recorders: &[Arc<Recorder>]) -> Vec<(u64, u64)> {
        recorders
            .iter()
            .map(|r| {
                (
                    r.counter_value("data_batches_loaded"),
                    r.counter_value("data_prefetch_discarded"),
                )
            })
            .collect()
    }

    /// 2 replicas × batch 8 over 128 train and 64 eval samples: each rank
    /// evaluates in four chunks.
    fn two_replicas(epochs: u64) -> Experiment {
        let mut e = Experiment::proxy_default();
        e.replicas = 2;
        e.per_replica_batch = 8;
        e.epochs = epochs;
        e.train_samples = 128;
        e.eval_samples = 64;
        e
    }

    #[test]
    fn a_fault_free_run_loads_exactly_its_batches() {
        // An epoch end that does not evaluate.
        let mut e = two_replicas(3);
        e.eval_every = 2;
        let (report, recorders) = train_traced(&e);
        let evals = report
            .history
            .iter()
            .filter(|h| h.eval_top1.is_some())
            .count() as u64;
        assert_eq!((report.steps, evals), (24, 2));
        let batches = report.steps + evals * 4;
        assert_eq!(feed_counters(&recorders), vec![(batches, 0); 2]);
    }

    #[test]
    fn a_preemption_discards_one_prefetched_batch() {
        // Anchor at step 4, preempted at step 5: the batch asked for step 5
        // is stale once the world rewinds to step 4.
        let mut e = two_replicas(3);
        e.faults.events = vec![FaultEvent {
            at_s: 5.5,
            duration_s: 0.0,
            kind: FaultKind::Preempt { replica: 0 },
        }];
        let (report, recorders) = train_traced(&e);
        let c = report.fault_recovery;
        assert_eq!((c.preemptions, c.replayed_steps), (1, 1));
        let batches = report.steps + c.replayed_steps + 3 * 4;
        assert_eq!(feed_counters(&recorders), vec![(batches + 1, 1); 2]);
        let clean = train(&two_replicas(3));
        assert_eq!(report.weight_checksum, clean.weight_checksum);
    }

    #[test]
    fn a_replica_that_panics_mid_step_fails_train_instead_of_hanging() {
        // More transient failures than the retry budget: every rank's
        // exchange fails permanently after it has taken its batch and
        // asked for the next one.
        let mut e = two_replicas(1);
        e.faults.events = vec![FaultEvent {
            at_s: 2.5,
            duration_s: 0.0,
            kind: FaultKind::TransientCollective { failures: 100 },
        }];
        // On its own thread, so that a hang fails the test instead of
        // stalling it.
        let (tx, rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
            let _ = tx.send(std::panic::catch_unwind(|| train(&e)).is_err());
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(120)),
            Ok(true),
            "train() must panic, not hang"
        );
        run.join().expect("the panic was caught");
    }
}
