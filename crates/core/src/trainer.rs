//! The distributed data-parallel trainer: the paper's training and
//! evaluation loop, executed for real with one thread per replica.
//!
//! Faithfully reproduced mechanics:
//! - **Data parallelism**: every replica runs a full model and takes a
//!   disjoint shard of each global batch; gradients are summed with a
//!   deterministic collective ([`ets_collective::create_collective`]) and
//!   averaged. Gradients are reduced in place, bucket by bucket
//!   ([`crate::grad_bucket`]), with per-bucket timing.
//! - **One set of weights**: the replicas are threads of one process, so
//!   `train` builds each phase's weights once and every replica's model
//!   shares them ([`ets_nn::replicate`]); gradients, activations, BN
//!   statistics and optimizer state stay per replica.
//! - **Sharded weight update**: each replica runs the optimizer only on
//!   the parameters it owns ([`Shares`]) and keeps state only for them,
//!   writing their new weights in place between two rendezvous: the
//!   gradient exchange, which no rank leaves before every rank has ended
//!   the step's backward, its last read of the weights, and a barrier
//!   that ends the writes before anyone's next read. A rank's capture,
//!   its rewind anchor and its part of a durable checkpoint alike, holds
//!   only its own weights and optimizer state (its *share*): the file is
//!   assembled from every rank's share, and every restore writes only
//!   the rank's own weights and state back, in place, between two
//!   barriers. Only the fingerprint vote (`fingerprint_verify`) compares
//!   the ranks' reduced gradients: without it a receive-side flip in a
//!   gradient its rank owns reaches the weights, and one in a gradient a
//!   peer owns is never read.
//! - **Distributed batch norm** (§3.4): BN statistics reduce over replica
//!   groups wired from `GroupSpec`.
//! - **Distributed evaluation** (§3.3): the validation set is sharded over
//!   all replicas; exact counts merge through the same collective.
//! - **Large-batch recipe** (§3.1/§3.2): LARS or RMSProp with linear LR
//!   scaling, warmup, and the paper's decay schedules.
//! - **Mixed precision** (§3.5): optional bf16 conv path.
//! - **Fault injection & recovery**: a non-empty
//!   [`ets_collective::FaultPlan`] is handed to the bucket exchange
//!   ([`GradBucket::set_faults`]), which injects its transient failures
//!   and payload flips and absorbs the transients by bounded retry. Every
//!   control decision comes from one [`RecoveryMachine`], which the pod
//!   simulator (`ets-tpu-sim`) walks too: at the top of each step it says
//!   what the step captures (`Replica::checkpoint`), whether a planned
//!   preemption fires and to which anchor it rewinds, and whether the
//!   phase drains; it charges each step's slowdown and retry backoff to
//!   a deterministic virtual [`StepTimeline`] without perturbing a payload
//!   bit. The replica carries its actions out and reports its two
//!   data-dependent events back to it. Everything else is a *restore*,
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
//!   fixed world, on one thread per rank for the whole run. Where the
//!   machine drains a phase — a `FaultKind::PermanentLoss` step or a
//!   quarantine — the ranks persist a durable checkpoint
//!   ([`crate::ckpt_store`]) and charge the resize protocol; dropped ranks
//!   return, and each survivor gets the new world's collectives, BN group
//!   and feed, re-cuts its data shard, shares and LR schedule, and resumes
//!   at the exact sample offset with the model and optimizer it has had
//!   since the first step. Every sample is still seen exactly once per
//!   epoch, so progress is tracked in *samples* ([`Progress`]).
//! - **Input pipeline and durable saves** (§3.3): the thread that called
//!   `train` loads every batch while the replicas compute; a replica asks
//!   for batch *s+1* as soon as batch *s* arrives (`Feed`). The same
//!   thread persists each durable checkpoint once every rank's share of
//!   it is in, a chunk at a time with the batch requests answered
//!   between chunks, so no replica waits for a disk write; a read of the
//!   store first waits for the saves before it.

use crate::bn_sync::GroupStatSync;
use crate::ckpt_store::{CkptStore, DurableSnapshot, Progress};
use crate::experiment::{DecayChoice, Experiment, OptimizerChoice};
use crate::grad_bucket::GradBucket;
use crate::report::{EpochRecord, Fingerprint, RecoveryCounters, TrainReport};
use crate::timeline::{PhaseBreakdown, StepTimeline, Stopwatch};
use ets_collective::{
    bn_partition, create_collective, Capture, Collective, CollectiveError, FaultSchedule,
    Preemption, RecoveryMachine, StepCharge, Top,
};
use ets_data::{load_batch, AugmentConfig, EpochPlan, SynthNet};
use ets_efficientnet::EfficientNet;
use ets_nn::{
    cross_entropy, replicate, zero_grads, Ema, EvalCounts, Layer, LocalStats, Mode, StatSync,
};
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
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
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

/// What a replica sends the thread that called `train`.
enum ToFeeder {
    /// Load this batch for this rank.
    Batch(usize, BatchRequest),
    /// This rank's share of a durable checkpoint, which is also its
    /// rewind anchor.
    Save(usize, Arc<DurableSnapshot>),
    /// Answer this rank once the file of each share it sent is durable.
    Flush(usize),
}

/// The feeder's ends of one rank's reply channels.
struct Outbox {
    batches: SyncSender<Loaded>,
    flushed: SyncSender<()>,
}

/// Serves the replicas of a phase, in arrival order, until all of them
/// have hung up: loads every batch they request and persists every
/// durable checkpoint, one file from every rank's share of its step,
/// once the last share is in. Runs on the thread that called `train`,
/// which has nothing else to do while the phase runs. A save streams
/// through the store a chunk at a time, and the batch requests that
/// arrive meanwhile are answered between chunks; any other message
/// waits for the save to finish. A flush is answered once the file of
/// each share its rank sent is durable: at once, unless the rank's share
/// still waits for the rest of its step's, and then when their file is.
/// A save that fails panics, and the replicas then stop with
/// [`FEEDER_GONE`].
fn serve_replicas(
    inbox: Receiver<ToFeeder>,
    outboxes: &[Outbox],
    train_set: &SynthNet,
    eval_set: &SynthNet,
    recorders: &[Arc<Recorder>],
    store: Option<&CkptStore>,
) {
    let load = |rank: usize, request: BatchRequest| {
        let (set, aug) = if request.eval {
            (eval_set, AugmentConfig::eval())
        } else {
            (train_set, AugmentConfig::train())
        };
        let mut rng = request.rng;
        let (x, labels) = load_batch(set, &request.indices, aug, &mut rng);
        recorders[rank].counter_add("data_batches_loaded", 1);
        // A replica that has drained no longer listens.
        let _ = outboxes[rank].batches.send((x, labels, rng));
    };
    let answer = |rank: usize| {
        let _ = outboxes[rank].flushed.send(());
    };
    let mut shares: Vec<Option<Arc<DurableSnapshot>>> = vec![None; outboxes.len()];
    // Ranks whose flush waits for the file of their share held here.
    let mut waiting = Vec::new();
    let mut deferred = VecDeque::new();
    while let Some(message) = deferred.pop_front().or_else(|| inbox.recv().ok()) {
        match message {
            ToFeeder::Batch(rank, request) => load(rank, request),
            ToFeeder::Save(rank, share) => {
                let old = shares[rank].replace(share);
                assert!(
                    old.is_none(),
                    "rank {rank} sent a share before its last was saved"
                );
                let file: Option<Vec<_>> = shares.iter().map(Option::as_deref).collect();
                let Some(file) = file else { continue };
                let mut between = || {
                    while let Ok(message) = inbox.try_recv() {
                        match message {
                            ToFeeder::Batch(rank, request) => load(rank, request),
                            other => deferred.push_back(other),
                        }
                    }
                };
                let store = store.expect("durable saves require the store");
                if let Err(e) = store.save_paced(&file, &mut between) {
                    panic!(
                        "durable checkpoint save of step {} failed: {e}",
                        file[0].progress.step
                    );
                }
                shares.fill(None);
                waiting.drain(..).for_each(answer);
            }
            ToFeeder::Flush(rank) if shares[rank].is_some() => waiting.push(rank),
            ToFeeder::Flush(rank) => answer(rank),
        }
    }
}

/// A replica's end of the feeder. It keeps at most one batch request,
/// one save and one flush in flight, so no channel ever blocks its
/// sender.
struct Feed {
    rank: usize,
    requests: SyncSender<ToFeeder>,
    replies: Receiver<Loaded>,
    flushed: Receiver<()>,
    in_flight: Option<BatchRequest>,
    /// A save this rank handed over may not be durable yet.
    saving: bool,
}

const FEEDER_GONE: &str = "the thread feeding the replicas hung up";

impl Feed {
    /// Rank `rank`'s end of the feeder that `requests` reaches, and the
    /// feeder's end of the rank's replies.
    fn new(rank: usize, requests: SyncSender<ToFeeder>) -> (Feed, Outbox) {
        let (batches, replies) = sync_channel(1);
        let (flushed, flushes) = sync_channel(1);
        let feed = Feed {
            rank,
            requests,
            replies,
            flushed: flushes,
            in_flight: None,
            saving: false,
        };
        (feed, Outbox { batches, flushed })
    }

    /// Asks for `next`, unless a request is already in flight.
    fn prefetch(&mut self, next: Option<BatchRequest>) {
        if let (None, Some(next)) = (&self.in_flight, next) {
            self.requests
                .send(ToFeeder::Batch(self.rank, next.clone()))
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

    /// Hands this rank's `share` of a durable checkpoint to the feeder.
    fn save(&mut self, share: Arc<DurableSnapshot>) {
        self.requests
            .send(ToFeeder::Save(self.rank, share))
            .expect(FEEDER_GONE);
        self.saving = true;
    }

    /// Returns once the file of each share this rank sent is durable.
    /// Files are written in step order, and every rank sends its share
    /// of a step before the step's collective, so after that collective
    /// a flush also finds every file of that step and before durable.
    fn flush(&mut self) {
        self.requests
            .send(ToFeeder::Flush(self.rank))
            .expect(FEEDER_GONE);
        self.flushed.recv().expect(FEEDER_GONE);
        self.saving = false;
    }
}

/// What a preemption rewinds to: the one snapshot type plus the two
/// replica-local RNG streams, so the replay reproduces the uninterrupted
/// trajectory byte for byte (a durable restore continues on the live
/// streams instead).
struct RewindAnchor {
    state: Arc<DurableSnapshot>,
    data_rng: Rng,
    layer_rng: Rng,
}

/// What a rank tells the caller where a phase ends: what the SPMD checks
/// compare, and the world the run goes on in.
struct PhaseEnd {
    rank: usize,
    counters: RecoveryCounters,
    /// Global step the phase stopped at.
    step: u64,
    /// The next world's size after a drain; `None` once training completed.
    next: Option<usize>,
}

/// What a rank is handed for each world it trains in: its collective,
/// its BN layers' statistics reducer and its end of the world's feeder.
struct NextWorld {
    world: Box<dyn Collective>,
    bn: Arc<dyn StatSync>,
    feed: Feed,
}

/// A world of `world` ranks on the experiment's backend, and the
/// feeder's ends of it. `bn_partition` regroups the experiment's BN spec
/// onto the world (2-D tiles degrade to contiguous groups when the torus
/// geometry no longer exists); BN stays local where it has no group.
fn open_world(exp: &Experiment, world: usize) -> (Vec<NextWorld>, Receiver<ToFeeder>, Vec<Outbox>) {
    let backend = exp.collective_backend;
    let mut bns: Vec<Arc<dyn StatSync>> = (0..world).map(|_| Arc::new(LocalStats) as _).collect();
    if world > 1 && !matches!(exp.bn_group, ets_collective::GroupSpec::Local) {
        for members in bn_partition(exp.bn_group, world) {
            let comms = create_collective(backend, members.len());
            for (c, &m) in comms.into_iter().zip(&members) {
                bns[m] = Arc::new(GroupStatSync::new(c));
            }
        }
    }
    // Per rank one batch request, one share and one flush.
    let (requests, inbox) = sync_channel(3 * world);
    let (worlds, outboxes) = (create_collective(backend, world).into_iter().zip(bns))
        .enumerate()
        .map(|(r, (world, bn))| {
            let (feed, outbox) = Feed::new(r, requests.clone());
            (NextWorld { world, bn, feed }, outbox)
        })
        .unzip();
    (worlds, inbox, outboxes)
}

/// The message a panic carried.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast_ref::<&str>().unwrap_or(&"").to_string(),
    }
}

/// Runs the experiment; returns replica 0's report after asserting all
/// replicas handled every fault alike.
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

/// What a run changes outside itself, undone on drop — when the run
/// returns and when it panics: the process-wide ABFT verify setting, and
/// the private store directory the trainer picked when the experiment
/// named none.
struct RunScope {
    abft_verify_prev: bool,
    auto_dir: Option<PathBuf>,
}

impl Drop for RunScope {
    fn drop(&mut self) {
        if let Some(d) = &self.auto_dir {
            let _ = std::fs::remove_dir_all(d);
        }
        ets_tensor::ops::abft::set_verify(self.abft_verify_prev);
    }
}

fn train_recorded(exp: &Experiment, recorders: &[Arc<Recorder>]) -> TrainReport {
    exp.validate();
    assert_eq!(
        recorders.len(),
        exp.replicas,
        "one recorder per starting replica"
    );
    let start = Instant::now();
    // ABFT tile verification is process-global. `scope` restores the
    // previous setting when the run ends, by return or by panic; the
    // run's counter deltas fold into the recovery counters after the
    // phase loop. Tests that enable it serialize on their own mutex.
    let mut scope = RunScope {
        abft_verify_prev: ets_tensor::ops::abft::verify_enabled(),
        auto_dir: None,
    };
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
    // The divergence guard and the corruption quarantine both roll back
    // to durable checkpoints, so both keep a cadence of them.
    let durable_cadence = exp.nan_guard || (exp.fingerprint_verify && faults.has_corruption());

    // Durable checkpoint store, opened only when the run can actually
    // lose replicas or trip the divergence guard. The trainer owns the
    // directory: it is cleared at run start so stale files from earlier
    // runs can never shadow this run's state.
    static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(0);
    let needs_store = faults.has_losses() || durable_cadence;
    let store: Option<Arc<CkptStore>> = if needs_store {
        let dir = match &exp.ckpt_dir {
            Some(d) => PathBuf::from(d),
            None => {
                let d = std::env::temp_dir().join(format!(
                    "ets-ckpt-{}-{}",
                    std::process::id(),
                    NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed)
                ));
                scope.auto_dir = Some(d.clone());
                d
            }
        };
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = CkptStore::open(&dir, DURABLE_RETAIN).expect("open durable checkpoint store");
        // The feeder writes each file from every rank's share, on the
        // world's behalf, so one recorder, rank 0's, owns the store's
        // (wall-clock-only) checkpoint spans.
        s.attach_recorder(Arc::clone(&recorders[0]));
        Some(Arc::new(s))
    } else {
        None
    };

    let (faults, store) = (&faults, store.as_deref());
    let recovery = RecoveryMachine::new(faults, exp.replicas, durable_cadence);
    let mut models = replica_models(exp);
    let mut weights = Vec::new();
    models[0].visit_params(&mut |p| weights.push(p.value.share()));
    // Each rank is one thread for the whole run. Where a phase drains, the
    // rank reports its end and hangs up its feed, so the feeder returns
    // once every rank has drained or died, and the drain's save is
    // durable before any rank reads the store again. The survivors then
    // get the next world's collectives and feeds; the others return.
    let mut report = std::thread::scope(|scope| {
        let (worlds, mut inbox, mut outboxes) = open_world(exp, exp.replicas);
        let (ended, ends) = channel();
        let mut links = Vec::with_capacity(exp.replicas);
        let joins: Vec<_> = models
            .into_iter()
            .zip(worlds)
            .enumerate()
            .map(|(r, (model, first))| {
                let (link, next) = sync_channel(1);
                links.push(link);
                let ended = ended.clone();
                // A survivor keeps its recorder: rank r of a shrunken
                // world is rank r of the old one.
                let rec = Arc::clone(&recorders[r]);
                scope.spawn(move || {
                    Replica::new(faults, store, exp, r, model, first, rec, recovery)
                        .run_all(ended, next)
                })
            })
            .collect();
        drop(ended);
        loop {
            serve_replicas(inbox, &outboxes, &train_set, &eval_set, recorders, store);
            let got: Vec<PhaseEnd> = ends.try_iter().collect();
            // A rank that sent no end panicked: the join reports it.
            if got.len() < outboxes.len() {
                break;
            }
            check_spmd(&got, recorders);
            let Some(world) = got[0].next else {
                break;
            };
            let next;
            (next, inbox, outboxes) = open_world(exp, world);
            for (link, next) in links.iter().zip(next) {
                let _ = link.send(next);
            }
        }
        // Ranks still waiting for a world return.
        drop(links);
        // One failure, reported once: the lowest rank that panicked.
        let reports: Vec<_> = (joins.into_iter().enumerate())
            .map(|(r, j)| {
                j.join()
                    .unwrap_or_else(|payload| panic!("rank {r}: {}", panic_message(payload)))
            })
            .collect();
        (reports.into_iter().next().flatten()).expect("rank 0 finished the run")
    });

    drop(scope);
    // ABFT counters are process-global (GEMM tiles carry no rank tag, and
    // the armed injection is consumed by whichever replica's tile runs
    // first), so their run deltas fold in *after* the per-rank symmetry
    // asserts rather than through `PhaseEnd`.
    report.fault_recovery.corruptions_detected +=
        ets_tensor::ops::abft::corruptions_detected().saturating_sub(abft_detected0);
    report.fault_recovery.corruptions_corrected +=
        ets_tensor::ops::abft::tiles_recomputed().saturating_sub(abft_healed0);
    let mut fingerprint = Fingerprint::default();
    for w in &weights {
        fingerprint.update(&w.data());
    }
    report.weight_checksum = fingerprint.finish();
    report.wall_seconds = start.elapsed().as_secs_f64();
    report
}

/// The SPMD checks at a phase end. Fault handling is SPMD: every rank must
/// have observed the same injections, retries, preemptions, durable
/// checkpoints and rollbacks, or the run only survived by luck. The
/// virtual-clock span stream is derived purely from the SPMD-symmetric
/// fault schedule, so every rank must have recorded bit-identical virtual
/// events (wall spans are excluded from the fingerprint by construction).
fn check_spmd(ends: &[PhaseEnd], recorders: &[Arc<Recorder>]) {
    for end in ends {
        let r = end.rank;
        assert_eq!(
            end.counters, ends[0].counters,
            "replica {r} recovery counters diverged — asymmetric fault handling"
        );
        assert_eq!(
            end.step, ends[0].step,
            "replica {r} stopped at a different step — drain bug"
        );
    }
    if recorders[0].is_enabled() {
        let fp0 = recorders[0].virtual_fingerprint();
        for (r, rec) in recorders.iter().enumerate().take(ends.len()).skip(1) {
            assert_eq!(
                rec.virtual_fingerprint(),
                fp0,
                "replica {r} virtual trace diverged — nondeterministic recording"
            );
        }
    }
}

/// The run's replica models: one built from the run's init stream and a
/// replica of it ([`replicate`]) for every further rank, so the ranks
/// share one weight buffer per parameter.
fn replica_models(exp: &Experiment) -> Vec<EfficientNet> {
    let mut init_rng = Rng::new(exp.seed).split(1);
    let mut model = EfficientNet::new(exp.model.clone(), exp.precision, &mut init_rng);
    model.visit_bns(&mut |bn| bn.set_momentum(PROXY_BN_MOMENTUM));
    let replicas: Vec<_> = (1..exp.replicas).map(|_| replicate(&mut model)).collect();
    std::iter::once(model).chain(replicas).collect()
}

/// Rank `rank`'s augmentation and layer streams in world `phase`. The
/// first world's are the historical streams; each later one jumps to a
/// disjoint block, so a resumed world never replays consumed randomness.
fn streams(seed: u64, phase: u64, rank: usize) -> (Rng, Rng) {
    let stream = |first: u64| Rng::new(seed).split(first + phase * 10_000 + rank as u64);
    (stream(1000), stream(2000))
}

/// One rank's whole state for the run, on its own thread from the first
/// step to the last. The step loop ([`Replica::run`]) and every recovery
/// path are methods on it and share one restore ([`Replica::rewind`]),
/// one checkpoint site and one phase lap.
struct Replica<'a> {
    faults: &'a Arc<FaultSchedule>,
    store: Option<&'a CkptStore>,
    /// The experiment as the current world sees it (`replicas` is the
    /// world's size).
    view: Experiment,
    /// Worlds entered before this one.
    phase: u64,
    rank: usize,
    world: Box<dyn Collective>,
    rec: Arc<Recorder>,
    model: EfficientNet,
    optimizer: Box<dyn Optimizer>,
    /// Which parameters each rank updates, cut once per world. This
    /// rank's optimizer state is current only for its own, and its
    /// captures hold only their weights and state.
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
    /// Decides what each step captures, whether it preempts, where the
    /// phase drains and what a step charges; the replica carries it out.
    recovery: RecoveryMachine<'a>,
    counters: RecoveryCounters,
    timeline: StepTimeline,
    /// Virtual-clock cursor for trace spans: monotone through replays,
    /// restarts and resizes, while the timeline keeps the final trajectory.
    vnow: f64,
}

impl<'a> Replica<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        faults: &'a Arc<FaultSchedule>,
        store: Option<&'a CkptStore>,
        exp: &Experiment,
        rank: usize,
        mut model: EfficientNet,
        first: NextWorld,
        rec: Arc<Recorder>,
        recovery: RecoveryMachine<'a>,
    ) -> Self {
        let (data_rng, layer_rng) = streams(exp.seed, 0, rank);
        model.set_bn_sync(first.bn);
        let mut grad_bucket = match exp.grad_bucket_elems {
            Some(n) => GradBucket::with_bucket_elems(&mut model, n),
            None => GradBucket::new(&mut model),
        };
        grad_bucket.attach_recorder(Arc::clone(&rec));
        if !faults.is_empty() {
            grad_bucket.set_faults(Arc::clone(faults));
        }
        grad_bucket.set_fingerprint_verify(
            exp.fingerprint_verify,
            exp.corruption_policy.bucket_retries(),
        );
        let ema = exp.ema_decay.map(|d| Ema::new(&mut model, d));
        let shares = Shares::new(&mut model, exp.replicas);
        let mut replica = Replica {
            faults,
            store,
            view: exp.clone(),
            phase: 0,
            rank,
            world: first.world,
            rec,
            model,
            // Built on this thread, as everything a replica owns.
            optimizer: build_optimizer(exp.optimizer),
            shares,
            ema,
            grad_bucket,
            feed: first.feed,
            data_rng,
            layer_rng,
            prog: Progress::fresh(),
            history: Vec::new(),
            anchor: None,
            sw: Stopwatch::start(),
            phases: PhaseBreakdown::default(),
            recovery,
            counters: RecoveryCounters::default(),
            timeline: StepTimeline::new(faults.step_seconds()),
            vnow: 0.0,
        };
        // The run starts at epoch 1's first batch: ask for it now, so
        // loading it overlaps the replica's setup.
        let plan = EpochPlan::new(exp.seed, 1, exp.train_samples);
        let first_batch = replica.train_request(&plan, 0);
        replica.feed.prefetch(Some(first_batch));
        replica
    }

    /// The rank's thread: each phase's end goes to `ended`, and a rank
    /// that stays in the world hangs up its feed and waits on `next` for
    /// its next one. The report once training completed, else `None`.
    fn run_all(
        mut self,
        ended: Sender<PhaseEnd>,
        next: Receiver<NextWorld>,
    ) -> Option<TrainReport> {
        loop {
            let done = self.run();
            let _ = ended.send(PhaseEnd {
                rank: self.rank,
                counters: self.counters,
                step: self.prog.step,
                next: (!done).then(|| self.recovery.world()),
            });
            if done {
                return Some(self.into_report());
            }
            if self.rank >= self.recovery.world() {
                return None;
            }
            drop(self.feed);
            let NextWorld { world, bn, feed } = next.recv().ok()?;
            self.feed = feed;
            self.resume(world, bn);
        }
    }

    /// Enters the world a resize left: the same model, optimizer and
    /// exchange, with the world's collectives, BN group, shares and
    /// stream block, from the drained world's checkpoint.
    fn resume(&mut self, world: Box<dyn Collective>, bn: Arc<dyn StatSync>) {
        self.phase += 1;
        self.view.replicas = world.size();
        self.world = world;
        self.model.set_bn_sync(bn);
        self.shares = Shares::new(&mut self.model, self.view.replicas);
        (self.data_rng, self.layer_rng) = streams(self.view.seed, self.phase, self.rank);
        // A quarantine stops *below* a step the cadence may have
        // checkpointed: not just "newest".
        let snap = self
            .load_durable(self.prog.step + 1)
            .expect("no valid durable checkpoint to resume the resized world from");
        self.rewind(&snap, false);
    }

    /// The rank's report of a completed run; the caller adds the wall
    /// clock, the weight checksum and the process-wide ABFT counts.
    fn into_report(self) -> TrainReport {
        let (peak_top1, peak_epoch) = self
            .history
            .iter()
            .filter_map(|rec| rec.eval_top1.map(|a| (a, rec.epoch)))
            .fold(
                (0.0, 0),
                |best, (a, e)| if a > best.0 { (a, e) } else { best },
            );
        TrainReport {
            steps: self.prog.step,
            peak_top1,
            peak_epoch,
            all_reduce_buckets: self.grad_bucket.profile().clone(),
            history: self.history,
            wall_seconds: 0.0,
            weight_checksum: 0,
            phases: self.phases,
            fault_recovery: self.counters,
            step_timeline: self.timeline,
            final_world: self.recovery.world(),
        }
    }

    /// The newest valid durable snapshot strictly before step `before`,
    /// once every file of a share sent before the call is durable.
    /// Symmetric: every rank scans the same directory and skips the same
    /// corrupt files, so the counter stays rank-identical.
    fn load_durable(&mut self, before: u64) -> Option<DurableSnapshot> {
        let store = self.store.expect("restores require the durable store");
        self.feed.flush();
        let (snap, report) = store
            .load_latest_valid_before(before)
            .expect("durable checkpoint store I/O failed")?;
        self.counters.corrupt_checkpoints_skipped += report.corrupt_skipped;
        Some(snap)
    }

    /// This rank's share: the weights and optimizer state of the
    /// parameters it owns, with its BN statistics, EMA, progress and
    /// history.
    fn capture(&mut self) -> DurableSnapshot {
        DurableSnapshot::capture(
            &mut self.model,
            self.optimizer.as_ref(),
            self.shares.owned(self.rank),
            self.ema.as_ref(),
            &self.prog,
            self.view.replicas,
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
    /// both (as the recovery machine says) from one capture of this rank's
    /// share, which holds all a rewind restores. The old anchor goes
    /// before the capture, and a rank whose last share may not be on disk
    /// yet first waits for it, so a rank holds one share at any moment
    /// whatever the other ranks do; a rank that neither saves nor anchors
    /// captures nothing. Every
    /// rank reaches a durable save together and hands its share to the
    /// feeder, which writes the file once it holds every rank's share of
    /// the step, so no rank reads state it does not own. Counters and
    /// instants count *logical* checkpoints on all ranks, at issue (the
    /// durable one first), so the cross-rank virtual fingerprint stays
    /// equal.
    fn checkpoint(&mut self, Capture { durable, anchor }: Capture) {
        if anchor {
            self.anchor = None;
        }
        let captures = durable || anchor;
        if captures && self.feed.saving {
            self.feed.flush();
        }
        let share = captures.then(|| Arc::new(self.capture()));
        if durable {
            let share = share.as_ref().expect("captured for the save");
            self.feed.save(Arc::clone(share));
            self.counters.durable_checkpoints += 1;
            self.mark(
                obs_ph::DURABLE_CHECKPOINT,
                self.prog.step,
                self.counters.durable_checkpoints,
            );
        }
        if anchor {
            self.anchor = Some(RewindAnchor {
                state: share.expect("captured for the anchor"),
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
    /// Applies `snap`, the weights and optimizer state only of the
    /// parameters this rank owns and into its existing buffers, between
    /// two barriers: every rank reaches a restore together, no rank
    /// writes the shared weights before every rank has stopped reading
    /// them, and none reads them again before every share is written.
    /// When that `replay`s steps (all but a new world loading its start),
    /// accounts them, marks the `REWIND` and drops the abandoned tail of
    /// the timeline. An anchor
    /// held now describes the trajectory just left, so it goes and the
    /// step loop takes a fresh one (the preemption site, which restores
    /// *from* it, puts it back).
    fn rewind(&mut self, snap: &DurableSnapshot, replay: bool) {
        let from = self.prog.step;
        let owned = self.shares.owned(self.rank);
        self.world.barrier();
        (self.prog, self.history) = snap.apply(
            &mut self.model,
            self.optimizer.as_mut(),
            owned,
            &mut self.ema,
        );
        self.world.barrier();
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
        let (w, b) = (self.view.replicas, self.view.per_replica_batch);
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
        let b = self.view.per_replica_batch.max(1);
        let shard = (self.rank..self.view.eval_samples).step_by(self.view.replicas);
        let indices: Vec<usize> = shard.skip(chunk * b).take(b).collect();
        let rng = Rng::new(0);
        (!indices.is_empty()).then_some(BatchRequest {
            eval: true,
            indices,
            rng,
        })
    }

    fn evaluates(&self, epoch: u64) -> bool {
        epoch.is_multiple_of(self.view.eval_every) || epoch == self.view.epochs
    }

    /// What the step loop loads after this step's batch: the next step's,
    /// or past the epoch's last step the first eval chunk or the next
    /// epoch's first batch. `None` where the phase ends first.
    fn next_after_train(&self, plan: &EpochPlan) -> Option<BatchRequest> {
        let (view, prog) = (&self.view, &self.prog);
        let (gb, step) = (view.global_batch() as u64, prog.step + 1);
        if prog.sample_off + 2 * gb <= view.train_samples as u64 {
            let next = self.train_request(plan, prog.sample_off + gb);
            (!self.recovery.drains_at(step)).then_some(next)
        } else if let Some(eval) = self.eval_request(0).filter(|_| self.evaluates(prog.epoch)) {
            Some(eval)
        } else {
            self.first_of_next_epoch(step)
        }
    }

    /// The next epoch's first batch, which the step loop reaches at
    /// `step` unless training or the phase ends there.
    fn first_of_next_epoch(&self, step: u64) -> Option<BatchRequest> {
        let (view, epoch) = (&self.view, self.prog.epoch + 1);
        let plan = EpochPlan::new(view.seed, epoch, view.train_samples);
        let next = self.train_request(&plan, 0);
        (epoch <= view.epochs && !self.recovery.drains_at(step)).then_some(next)
    }

    /// One step's data → forward → loss → backward and gradient exchange:
    /// the group-mean loss, or the exchange's typed failure. The data lap
    /// is the wait for the batch, which was loaded during the previous
    /// step; zeroing the gradients is the backward lap's.
    fn exchange_gradients(&mut self, plan: &EpochPlan) -> Result<f32, CollectiveError> {
        self.sw = Stopwatch::start();
        zero_grads(&mut self.model);
        // Key the planned faults to this step *before* any bucket can go
        // — the overlapped exchange starts reducing buckets mid-backward.
        self.grad_bucket.set_step(self.prog.step);
        // Arm the planned compute corruption for this step on the
        // afflicted replica. The armed flip is process-global and is
        // consumed by the first blocked-GEMM tile *any* replica computes
        // (replicas share the process); that is fine because ABFT healing
        // is bitwise-neutral wherever the flip lands, and with verify off
        // the escape perturbs the summed gradient identically on every
        // rank — rank attribution lives in the plan, not the tile.
        if let Some((crank, bit)) = self.faults.compute_corruption_at(self.prog.step) {
            if crank % self.view.replicas == self.rank {
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
        let out = cross_entropy(&logits, &labels, self.view.label_smoothing);
        let fwd_s = self.sw.lap();
        // Set when the hooked backward has exchanged the gradients: the
        // result and the *exposed* wait (all the all-reduce phase is owed).
        let fused = if self.view.overlap_all_reduce {
            let res = self.grad_bucket.backward_overlapped_with_retry(
                &mut self.model,
                &out.dlogits,
                self.world.as_ref(),
                out.loss,
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
                self.world.as_ref(),
                out.loss,
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
    fn preempt(&mut self, p: Preemption) {
        let anchor = self
            .anchor
            .take()
            .expect("preemption before the first checkpoint");
        debug_assert_eq!(
            anchor.state.progress.step, p.to,
            "the anchor is not the machine's"
        );
        self.counters.preemptions += 1;
        self.counters.restart_virtual_s += p.restart_s;
        self.rewind(&anchor.state, true);
        self.data_rng.clone_from(&anchor.data_rng);
        self.layer_rng.clone_from(&anchor.layer_rng);
        self.anchor = Some(anchor);
        self.charge(obs_ph::RESTART, p.restart_s, p.at, 0);
    }

    /// Schedule, optimizer and EMA update with the step's averaged
    /// gradients. The optimizer writes this rank's own parameters' new
    /// weights: no rank left the gradient exchange before every rank had
    /// ended its backward, the step's last read of them, and the barrier
    /// after the writes orders them before every rank's next read.
    fn apply_update(&mut self, schedule: &dyn LrSchedule, mean_loss: f32) {
        // Effective schedule step in the current world's units; ×1.0 is a
        // bitwise no-op, so unguarded runs stay on the legacy trajectory.
        let eff_step = self.prog.consumed_samples / self.view.global_batch() as u64;
        let lr = schedule.lr(eff_step) * self.prog.lr_scale;
        let owned = self.shares.owned(self.rank);
        self.optimizer.step_params(&mut self.model, lr, owned);
        self.world.barrier();
        if let Some(e) = &mut self.ema {
            e.update(&mut self.model);
        }
        let opt_s = self.sw.lap();
        self.lap(&[(obs_ph::OPTIMIZER, opt_s)]);
        self.phases.steps += 1;
        self.prog.loss_sum += mean_loss as f64;
        self.prog.last_lr = lr;
    }

    /// Virtual step time: the nominal step stretched by the timing faults
    /// over this step (SPMD steps gate on the slowest participant) plus
    /// the retry backoff of its planned transient failures, as the
    /// recovery machine charges them; the exchange made the `retries`
    /// the machine prices. The trace gets the same quantity as a STEP
    /// span, with control sub-spans for the straggler stretch and the
    /// backoff.
    fn charge_virtual_step(&mut self, retries: u64) {
        let step = self.prog.step;
        let nominal = self.faults.step_seconds();
        let StepCharge {
            slowdown,
            retries: priced,
            backoff_s: step_backoff,
            ..
        } = self.recovery.charge(step);
        assert_eq!(
            retries,
            u64::from(priced),
            "step {step}: the exchange made {retries} retries, the machine priced {priced}"
        );
        self.counters.straggler_virtual_s += (slowdown - 1.0) * nominal;
        self.counters.retry_backoff_virtual_s += step_backoff;
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
        all_reduce_counts(local, self.world.as_ref())
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
    /// True when training completed.
    fn run(&mut self) -> bool {
        let view = &self.view;
        let (seed, epochs, train_samples) = (view.seed, view.epochs, view.train_samples);
        let gb = view.global_batch() as u64;
        // Schedule in the *current world's* step units: `view.replicas` is
        // the surviving world, so the peak LR linear-rescales with the
        // shrunken global batch and warmup/decay spans keep their sample
        // extent.
        let schedule = build_schedule(view);
        let mut plan = EpochPlan::new(seed, self.prog.epoch, train_samples);
        let mut plan_epoch = self.prog.epoch;

        let resize = loop {
            if self.prog.epoch > epochs {
                break None;
            }
            if self.prog.epoch != plan_epoch {
                plan = EpochPlan::new(seed, self.prog.epoch, train_samples);
                plan_epoch = self.prog.epoch;
            }
            let (capture, preempt) = match self.recovery.top(self.prog.step) {
                Top::Drain(resize) => break Some(resize),
                Top::Run { capture, preempt } => (capture, preempt),
            };

            // Durable cadence save: every rank hands its share to the
            // feeder *before* this step's collective and goes on while the
            // feeder writes the file. Every read of the store flushes the
            // feeder first, and a flush sent after the collective, which
            // every share of the step was sent before, is answered only
            // once the file is durable, so every rank that rolls back sees
            // the completed, renamed file. The in-memory anchor is taken
            // *before* the preemption, so a checkpoint written at step `s`
            // survives a job death at step `s`. One capture serves both.
            self.checkpoint(capture);
            if let Some(p) = preempt {
                self.preempt(p);
                continue;
            }

            let at = self.prog.step;
            let retried = self.counters.collective_retries;
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
                    let snap = self.load_durable(at).unwrap_or_else(|| {
                        panic!(
                            "step {step}: rank {rank} quarantined (bucket {bucket}) \
                             but no durable checkpoint precedes the poisoned step"
                        )
                    });
                    self.rewind(&snap, true);
                    break Some(self.recovery.quarantine(at, self.prog.step, 1));
                }
                // Anything else (retry exhaustion on a transient
                // schedule) stays fatal.
                Err(other) => panic!("step {at}: gradient exchange failed permanently: {other}"),
            };

            // Divergence guard: the reduced loss and gradients are
            // bitwise identical on every rank, so either all ranks
            // trip here or none do — the rollback is SPMD-symmetric by
            // construction. Tripping *before* the optimizer step keeps
            // non-finite values out of the weights entirely.
            if self.view.nan_guard
                && !(mean_loss.is_finite()
                    && self.grad_bucket.last_reduction_is_finite(&mut self.model))
            {
                self.counters.divergence_rollbacks += 1;
                let err = DivergenceError {
                    step: at,
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
                let snap = self.load_durable(at).unwrap_or_else(|| {
                    panic!("{err}: no valid durable checkpoint to roll back to")
                });
                let halved = self.prog.lr_scale * 0.5;
                self.rewind(&snap, true);
                self.recovery.rollback(at, self.prog.step);
                self.prog.lr_scale = halved;
                continue;
            }

            self.apply_update(schedule.as_ref(), mean_loss);
            self.charge_virtual_step(self.counters.collective_retries - retried);

            // Advance the sample clock.
            self.prog.step += 1;
            self.prog.steps_this_epoch += 1;
            self.prog.consumed_samples += gb;
            self.prog.sample_off += gb;
            // Drop-remainder: a tail shorter than one global batch is
            // skipped.
            if self.prog.sample_off + gb > train_samples as u64 {
                self.finish_epoch();
            }
        };

        // Drain for a resize: the last collective has completed (the step
        // loop never leaves a bucket in flight), so every rank hands over
        // its share of the durable checkpoint every survivor will resume
        // from. The feeder returns only once every rank has hung up, so
        // this save is durable before the next world's loads. Every
        // old-world rank then accounts the protocol (durable persist +
        // collective rebuild + restart) identically, and the next world's
        // cursor continues past it.
        let Some(resize) = resize else {
            return true;
        };
        // The phase ends here, so its anchor goes before the capture.
        self.anchor = None;
        self.checkpoint(Capture {
            durable: true,
            anchor: false,
        });
        let (step, before) = (self.prog.step, resize.world_before);
        self.charge(obs_ph::RESIZE, resize.virtual_s, step, before as u64);
        self.counters.lost_replicas += (before - resize.world_after) as u64;
        self.counters.resizes += 1;
        self.counters.resize_virtual_s += resize.virtual_s;
        self.timeline.record_resize(resize);
        false
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
    fn every_replica_reads_one_buffer_per_parameter() {
        let mut models = replica_models(&quick_exp(3));
        let mut handles = vec![Vec::new(); 3];
        let mut grads = vec![Vec::new(); 3];
        for (r, model) in models.iter_mut().enumerate() {
            model.visit_params(&mut |p| {
                handles[r].push(p.value.share());
                grads[r].push(p.grad.data().as_ptr());
            });
        }
        assert!(!handles[0].is_empty());
        for r in 1..3 {
            assert_eq!(handles[r].len(), handles[0].len());
            for (i, w) in handles[r].iter().enumerate() {
                assert!(w.is_shared_with(&handles[0][i]), "rank {r} param {i}");
                assert_ne!(grads[r][i], grads[0][i], "rank {r} param {i}'s gradient");
            }
        }
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

    /// A feeder of one rank: the replica's end, the inbox, the replies.
    fn one_rank() -> (Feed, Receiver<ToFeeder>, Outbox) {
        let (requests, inbox) = sync_channel(3);
        let (feed, outbox) = Feed::new(0, requests);
        (feed, inbox, outbox)
    }

    #[test]
    fn a_failed_save_panics_naming_it_and_a_waiting_replica_stops() {
        let (train_set, eval_set) = SynthNet::train_eval_pair(3, 4, 64, 16, 8, 0.35);
        let recorders = [Arc::new(Recorder::disabled())];
        let dir = std::env::temp_dir().join(format!("ets-feeder-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CkptStore::open(&dir, 2).expect("open the store");
        // The store's directory turns into a regular file: the save
        // cannot create its temp file.
        std::fs::remove_dir_all(&dir).expect("remove the store's directory");
        std::fs::write(&dir, b"not a directory").expect("write a file in its place");
        let snap = DurableSnapshot {
            progress: Progress {
                step: 6,
                ..Progress::fresh()
            },
            world: 1,
            params: Vec::new(),
            bn_running: Vec::new(),
            opt_state: Default::default(),
            ema: None,
            history: Vec::new(),
        };
        let want = BatchRequest {
            eval: false,
            indices: vec![0, 1],
            rng: Rng::new(7),
        };
        let (mut feed, inbox, outbox) = one_rank();
        feed.save(Arc::new(snap));
        feed.prefetch(Some(want.clone()));
        std::thread::scope(|scope| {
            let (train, eval, recs) = (&train_set, &eval_set, &recorders[..]);
            let store = Some(&store);
            let server =
                scope.spawn(move || serve_replicas(inbox, &[outbox], train, eval, recs, store));
            // The replica waits for its batch, which the save is ahead of.
            let rec = Recorder::disabled();
            let waiting = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                feed.take(want, &rec);
            }));
            let feeder = panic_message(server.join().expect_err("the failed save panics"));
            assert!(
                feeder.starts_with("durable checkpoint save of step 6 failed"),
                "{feeder}"
            );
            let replica = panic_message(waiting.expect_err("the replica stops"));
            assert!(replica.starts_with(FEEDER_GONE), "{replica}");
        });
        let flush = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| feed.flush()));
        assert!(panic_message(flush.expect_err("nobody flushes")).starts_with(FEEDER_GONE));
        let _ = std::fs::remove_file(&dir);
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
            let (mut feed, inbox, outbox) = one_rank();
            let (train, eval, recs) = (&train_set, &eval_set, &recorders[..]);
            let server =
                scope.spawn(move || serve_replicas(inbox, &[outbox], train, eval, recs, None));
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
            let failed = std::panic::catch_unwind(|| train(&e)).err();
            let _ = tx.send(failed.map(panic_message));
        });
        let message = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("train() must panic, not hang")
            .expect("train() must panic");
        // The failing rank's own message, naming the rank.
        assert!(message.starts_with("rank 0: "), "{message}");
        assert!(
            message.contains("gradient exchange failed permanently"),
            "{message}"
        );
        run.join().expect("the panic was caught");
    }
}
