//! Bucketized gradient all-reduce, in place in the parameters' gradients.
//!
//! The seed trainer flattened every gradient into a fresh `Vec` each step
//! and reduced it in one collective call. This module replaces that with
//! a DDP-style bucket layer that reduces the gradients where they live:
//!
//! - **Registered once**: parameter sizes are recorded at construction
//!   and asserted against on every step — a silent shape change would
//!   corrupt the bucket layout.
//! - **Buckets are ranges, not buffers**: the exchange payload is every
//!   gradient in `visit_params` order, then the loss scalar. A bucket is
//!   a contiguous element range of it, at most `max_bucket_elems` long,
//!   and reaches the collective as [`Pieces`]: the slices of the gradient
//!   tensors it covers (a parameter may be split between two buckets),
//!   plus the loss scalar in the last one. The collective reads and
//!   writes the pieces where they are: each rank folds its share of the
//!   bucket from every rank's gradients and writes the mean into all of
//!   them ([`Collective::try_all_reduce_mean`]), so nothing is packed,
//!   scattered or deposited and the steady state allocates nothing.
//! - **One call per bucket**: each bucket is reduced with its own
//!   collective call and timed individually ([`AllReduceProfile`]), so
//!   per-size behavior is observable.
//!
//! Determinism note: the collective reduces element-wise in a fixed rank
//! order and scales each sum by 1/world, so neither the bucket layout nor
//! the split into pieces can change its results — the bucketized trainer
//! stays bitwise on the seed trajectory, whatever the bucket layout.
//!
//! ## Cross-rank gradient fingerprints (opt-in)
//!
//! The collective produces **bitwise-identical** reduced buckets on all
//! ranks — that invariant is what the whole trainer's SPMD symmetry
//! rests on, and it makes silent receive-side payload corruption (a bit
//! flip in one rank's copy of the reduced gradients, the classic
//! network/DMA SDC) *detectable and attributable*: after each bucket's
//! all-reduce, each rank computes the FNV-1a [`Fingerprint`] of its reduced
//! words and the ranks exchange a 12-float record per rank through one
//! tiny all-gather. All fingerprints equal ⇒ clean. A mismatch proves
//! some rank's copy diverged; with ≥ 3 ranks the minority fingerprint
//! *is* the corrupt rank (majority vote), and a two-rank world breaks
//! the tie by comparing each rank's self-reported f64 sum of its reduced
//! bucket against the index-ordered sum of the pre-reduce local
//! contributions over the world (the flip's magnitude dwarfs f32
//! reduction rounding for the exponent-range flips the fault generator
//! injects; a NaN deviation counts as infinite). The gathered matrix is
//! identical on every rank, so every rank reaches the same verdict
//! without another round trip — the healing decision is SPMD-symmetric
//! by construction.
//!
//! Healing: the local contribution is snapshotted before the reduce, so
//! a corrupt verdict restores it into the pieces and re-runs the bucket's
//! collective — the injected flip (like a real SDC) is one-shot, so the
//! retry reproduces the clean bytes bitwise. Retries exhausted surfaces a
//! typed [`CollectiveError::CorruptPayload`] carrying the attributed
//! rank, on every rank, and the trainer quarantines through the
//! elastic-resize path.
//!
//! ## One bucket exchange
//!
//! Inject → retry → fingerprint → verified retry → typed error → span is
//! one function, `BucketExchange::exchange_bucket`. The serialized
//! [`GradBucket::all_reduce_with_retry`] calls it inline per bucket, with
//! the pieces taken from the model; the overlapped
//! [`GradBucket::backward_overlapped_with_retry`] calls it on its
//! communication thread, with the pieces taken from the finished layers
//! backward lends that thread. Same bits, same counters.
//!
//! ## Fault injection
//!
//! The gradient exchange is the only target of the plan's collective
//! faults, so it injects them itself, inside the retry that absorbs them
//! ([`GradBucket::set_faults`] hands it the compiled [`FaultSchedule`];
//! [`GradBucket::set_step`] is its step clock). Three rules:
//!
//! - **Transients** fail the first attempts of their step on every rank
//!   with [`CollectiveError::Transient`], before the payload reaches the
//!   communicator, so the ranks stay in lockstep and no payload bit
//!   moves. The count is per step, across buckets, and `set_step`
//!   resets it, so a replayed step fails again.
//! - **A payload flip** hits rank `rank % world` on the first successful
//!   mean of its step: element `element mod len`, counted across the
//!   bucket's pieces. It does not fire again while the last step and
//!   world it fired at are that step and world, so neither a verified
//!   retry nor an immediate replay of the step flips again; a replay in a
//!   resized world (worlds only shrink) does.
//! - **Spans**: each attempt that reaches the communicator records a
//!   [`obs_phase::RETRY_ATTEMPT`] span on [`Lane::WallCollective`] (aux =
//!   attempt number), and only under a plan.

use crate::report::{Fingerprint, RecoveryCounters};
use crate::timeline::{AllReduceProfile, Stopwatch};
use ets_collective::{
    retry_collective, Collective, CollectiveError, FaultSchedule, Pieces, RetryPolicy,
};
use ets_nn::{HookedBackward, Layer};
use ets_obs::{phase as obs_phase, Lane, Recorder};
use ets_tensor::Tensor;
use std::sync::mpsc;
use std::sync::Arc;

/// Default bucket bound: 1 Mi elements = 4 MiB of f32 gradients. Proxy
/// models fit in one bucket; paper-scale models split into several.
pub const DEFAULT_BUCKET_ELEMS: usize = 1 << 20;

/// Floats per rank in the fingerprint all-gather record: the FNV-1a
/// [`Fingerprint`] of the reduced words, the f64 sum of the pre-reduce local
/// contribution, and the f64 sum of the reduced bucket — each as four
/// 16-bit limbs (every limb is exact in f32, so the record survives the
/// float-typed collective losslessly).
const FP_RECORD_F32S: usize = 12;

fn pack_u64_limbs(v: u64, out: &mut [f32]) {
    for (i, o) in out.iter_mut().enumerate().take(4) {
        *o = ((v >> (16 * i)) & 0xffff) as f32;
    }
}

fn unpack_u64_limbs(r: &[f32]) -> u64 {
    (0..4).fold(0u64, |acc, i| acc | ((r[i] as u64 & 0xffff) << (16 * i)))
}

/// `acc` plus every element of `xs`, in index order, in f64.
fn f64_sum(acc: f64, xs: &[f32]) -> f64 {
    xs.iter().fold(acc, |s, &v| s + v as f64)
}

/// Outcome of one bucket's fingerprint exchange.
enum FpVerdict {
    /// All ranks hold bitwise-identical reduced bytes.
    Clean,
    /// `rank`'s copy of the reduced payload diverged from its peers'.
    Corrupt { rank: usize },
}

/// Exchanges fingerprint records for one reduced bucket and returns the
/// (rank-identical) verdict. `cs_local` is the f64 sum of this rank's
/// pre-reduce contribution.
fn fingerprint_verdict(
    comm: &dyn Collective,
    reduced: &mut dyn Pieces,
    cs_local: f64,
    gathered: &mut Vec<f32>,
) -> FpVerdict {
    let (mut fp, mut sum) = (Fingerprint::default(), 0.0);
    reduced.for_each_piece(&mut |piece| {
        fp.update(piece);
        sum = f64_sum(sum, piece);
    });
    let mut rec = [0.0f32; FP_RECORD_F32S];
    pack_u64_limbs(fp.finish(), &mut rec[0..4]);
    pack_u64_limbs(cs_local.to_bits(), &mut rec[4..8]);
    pack_u64_limbs(sum.to_bits(), &mut rec[8..12]);
    comm.all_gather(&rec, gathered);
    let world = comm.size();
    assert_eq!(
        gathered.len(),
        world * FP_RECORD_F32S,
        "fingerprint all-gather returned a short matrix"
    );
    let at = |r: usize, f: usize| unpack_u64_limbs(&gathered[r * FP_RECORD_F32S + 4 * f..]);
    let fps = || (0..world).map(|r| at(r, 0));
    if fps().all(|f| f == at(0, 0)) {
        return FpVerdict::Clean;
    }
    // Majority vote: with a strict fingerprint majority, the smallest
    // minority rank is the corrupt one (single-rank fault model).
    let mut best_fp = at(0, 0);
    let mut best_count = 0usize;
    for f in fps() {
        let c = fps().filter(|&g| g == f).count();
        if c > best_count {
            best_count = c;
            best_fp = f;
        }
    }
    if 2 * best_count > world {
        let rank = fps()
            .position(|f| f != best_fp)
            .expect("fingerprints differ but no minority rank");
        return FpVerdict::Corrupt { rank };
    }
    // Count tie (a two-rank world, or a pathological split): attribute
    // by sum deviation. Every rank reported the f64 sum of its reduced
    // copy; the truth is (up to f32 reduction rounding) the index-order
    // sum of the self-reported local contributions over the world, the
    // reduction being a mean. The corrupt copy's exponent-range flip
    // deviates far beyond the rounding band; a NaN deviation is treated
    // as infinite.
    let expected = (0..world).map(|r| f64::from_bits(at(r, 1))).sum::<f64>() / world as f64;
    let mut worst = 0usize;
    let mut worst_dev = f64::MIN;
    for r in 0..world {
        let dev = (f64::from_bits(at(r, 2)) - expected).abs();
        let dev = if dev.is_nan() { f64::INFINITY } else { dev };
        if dev > worst_dev {
            worst_dev = dev;
            worst = r;
        }
    }
    FpVerdict::Corrupt { rank: worst }
}

/// Bucket `range` of the exchange payload: the slices of the parameter
/// gradients it covers in `visit_params` order, then the loss scalar if
/// the range ends with it.
struct BucketPieces<'a, 'l> {
    /// The layers holding the parameters, each with the payload offset of
    /// its first gradient element, in descending offset order (the order
    /// backward finishes them in). The whole model is one segment at 0.
    segments: &'a mut [(usize, &'l mut dyn Layer)],
    range: (usize, usize),
    /// The loss scalar and its payload offset, the last one.
    loss: &'a mut f32,
    loss_at: usize,
}

// SAFETY: the pieces are the gradient tensors' own buffers and the loss
// scalar, all reached through `&mut` borrows held for `'a`; nothing
// resizes a gradient while they are held.
unsafe impl Pieces for BucketPieces<'_, '_> {
    fn for_each_piece(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        let (a, b) = self.range;
        for (start, seg) in self.segments.iter_mut().rev() {
            let mut off = *start;
            seg.visit_params(&mut |p| {
                let n = p.grad.numel();
                let (lo, hi) = (a.max(off), b.min(off + n));
                if lo < hi {
                    f(&mut p.grad.data_mut()[lo - off..hi - off]);
                }
                off += n;
            });
        }
        if b > self.loss_at {
            f(std::slice::from_mut(self.loss));
        }
    }
}

/// How a [`GradBucket`] exchanges one bucket. Both callers — the
/// serialized [`GradBucket::all_reduce_with_retry`] on the replica thread
/// and [`GradBucket::backward_overlapped_with_retry`] on its communication
/// thread — run each bucket through [`BucketExchange::exchange_bucket`],
/// so they inject, retry, verify, heal, fail and record identically.
struct BucketExchange {
    /// Optional flight recorder: per-bucket wall spans on
    /// [`Lane::WallBucket`] (aux = bucket index), and the attempt spans of
    /// a plan. Disabled recorders cost one branch.
    recorder: Option<Arc<Recorder>>,
    /// The step clock ([`GradBucket::set_step`]): keys the plan's faults,
    /// tags recorded spans and stamps [`CollectiveError::CorruptPayload`].
    step: u64,
    /// Cross-rank fingerprint verification of every reduced bucket
    /// (module docs). Off by default: clean paths pay nothing.
    fingerprint: bool,
    /// Bucket retries granted on a corrupt verdict before surfacing
    /// [`CollectiveError::CorruptPayload`].
    corruption_retries: u32,
    /// The run's fault plan (module docs), set only for a non-empty one.
    faults: Option<Arc<FaultSchedule>>,
}

impl BucketExchange {
    /// Replaces bucket `i`'s `pieces` by their group mean and returns the
    /// wall seconds it took. Transient collective failures are retried
    /// under the plan's policy, or the default one without a plan, and
    /// counted into `counters` (the recovery machine prices their virtual
    /// backoff; nothing sleeps). With
    /// fingerprints on, the local contribution is snapshotted first, a
    /// corrupt verdict restores it and re-runs the collective, and a
    /// verdict past the granted retries is the typed
    /// [`CollectiveError::CorruptPayload`]. A failed bucket records no
    /// bucket span.
    fn exchange_bucket(
        &self,
        comm: &dyn Collective,
        i: usize,
        pieces: &mut dyn Pieces,
        scratch: &mut ExchangeScratch,
        counters: &mut RecoveryCounters,
    ) -> Result<f64, CollectiveError> {
        let mut sw = Stopwatch::start();
        let policy = self
            .faults
            .as_ref()
            .map_or_else(RetryPolicy::default, |f| f.retry());
        let cs_local = if self.fingerprint {
            let snapshot = &mut scratch.snapshot;
            snapshot.clear();
            pieces.for_each_piece(&mut |piece| snapshot.extend_from_slice(piece));
            f64_sum(0.0, snapshot)
        } else {
            0.0
        };
        let mut attempts_left = self.corruption_retries;
        let mut detected_here = 0u64;
        loop {
            let attempts = retry_collective(&policy, || self.attempt(comm, pieces, scratch))?;
            let retries = u64::from(attempts - 1);
            counters.transient_failures += retries;
            counters.collective_retries += retries;
            if !self.fingerprint {
                break;
            }
            match fingerprint_verdict(comm, pieces, cs_local, &mut scratch.gathered) {
                FpVerdict::Clean => {
                    counters.corruptions_corrected += detected_here;
                    break;
                }
                FpVerdict::Corrupt { rank } => {
                    counters.corruptions_detected += 1;
                    detected_here += 1;
                    if attempts_left == 0 {
                        return Err(CollectiveError::CorruptPayload {
                            rank,
                            bucket: i,
                            step: self.step,
                        });
                    }
                    attempts_left -= 1;
                    let mut rest = &scratch.snapshot[..];
                    pieces.for_each_piece(&mut |piece| {
                        let (head, tail) = rest.split_at(piece.len());
                        piece.copy_from_slice(head);
                        rest = tail;
                    });
                }
            }
        }
        let dur = sw.lap();
        if let Some(rec) = &self.recorder {
            rec.wall_span_measured(
                Lane::WallBucket,
                obs_phase::BUCKET,
                rec.wall_now_s() - dur,
                dur,
                self.step,
                i as u64,
            );
        }
        Ok(dur)
    }

    /// One attempt at the bucket's mean, with the plan's faults injected
    /// by the rules of the module docs.
    fn attempt(
        &self,
        comm: &dyn Collective,
        pieces: &mut dyn Pieces,
        scratch: &mut ExchangeScratch,
    ) -> Result<(), CollectiveError> {
        let Some(faults) = &self.faults else {
            return comm.try_all_reduce_mean(pieces);
        };
        let step = self.step;
        if scratch.failed < faults.transient_failures_at(step) {
            scratch.failed += 1;
            return Err(CollectiveError::Transient {
                op: "all_reduce_mean",
                step,
                attempt: scratch.failed,
            });
        }
        {
            let attempt = u64::from(scratch.failed + 1);
            let _span = self.recorder.as_ref().map(|rec| {
                rec.wall_span(
                    Lane::WallCollective,
                    obs_phase::RETRY_ATTEMPT,
                    step,
                    attempt,
                )
            });
            comm.try_all_reduce_mean(pieces)?;
        }
        let Some((rank, element, bit)) = faults.payload_flip_at(step) else {
            return Ok(());
        };
        let len = pieces.elems();
        let here = (step, comm.size());
        if rank % comm.size() != comm.rank() || len == 0 || scratch.flipped_at == Some(here) {
            return Ok(());
        }
        scratch.flipped_at = Some(here);
        let mut left = Some(element as usize % len);
        pieces.for_each_piece(&mut |piece| {
            if let Some(i) = left {
                match piece.get_mut(i) {
                    Some(v) => {
                        *v = f32::from_bits(v.to_bits() ^ (1u32 << bit));
                        left = None;
                    }
                    None => left = Some(i - piece.len()),
                }
            }
        });
        Ok(())
    }
}

/// What the exchange keeps between buckets and steps, so the steady state
/// allocates nothing. One set serves both callers: buckets are exchanged
/// one at a time, also on the communication thread.
#[derive(Default)]
struct ExchangeScratch {
    /// The local contribution of the bucket in flight, with the capacity
    /// of the longest bucket (none while fingerprints are off).
    snapshot: Vec<f32>,
    /// The gathered fingerprint records.
    gathered: Vec<f32>,
    /// Planned transient failures injected at the current step.
    failed: u32,
    /// The last step a payload flip fired at on this rank, and the size
    /// of the world it fired in.
    flipped_at: Option<(u64, usize)>,
}

/// Persistent state for the bucketized gradient exchange.
pub struct GradBucket {
    /// Per-parameter element counts, in `visit_params` order.
    param_sizes: Vec<usize>,
    /// Contiguous `[start, end)` element ranges covering the payload:
    /// every gradient in `visit_params` order, then the loss scalar.
    buckets: Vec<(usize, usize)>,
    /// The loss scalar: this rank's before an exchange, the group mean
    /// after one.
    loss: f32,
    /// Accumulated per-bucket timing (the report's view of the recorder's
    /// wall-bucket lane; both are fed from the same stopwatch laps).
    profile: AllReduceProfile,
    /// Recorder, step clock, fault plan and verification settings of the
    /// one bucket exchange.
    exchange: BucketExchange,
    scratch: ExchangeScratch,
}

impl GradBucket {
    /// Registers `model`'s parameters with the default bucket bound.
    pub fn new(model: &mut dyn Layer) -> Self {
        Self::with_bucket_elems(model, DEFAULT_BUCKET_ELEMS)
    }

    /// Registers `model`'s parameters, bounding buckets to
    /// `max_bucket_elems` elements each.
    pub fn with_bucket_elems(model: &mut dyn Layer, max_bucket_elems: usize) -> Self {
        assert!(max_bucket_elems >= 1, "buckets need at least one element");
        let mut param_sizes = Vec::new();
        model.visit_params(&mut |p| param_sizes.push(p.grad.numel()));
        let total: usize = param_sizes.iter().sum::<usize>() + 1; // + loss scalar
        let mut buckets = Vec::new();
        let mut start = 0usize;
        while start < total {
            let end = (start + max_bucket_elems).min(total);
            buckets.push((start, end));
            start = end;
        }
        let bucket_elems: Vec<usize> = buckets.iter().map(|&(a, b)| b - a).collect();
        GradBucket {
            param_sizes,
            buckets,
            loss: 0.0,
            profile: AllReduceProfile::new(bucket_elems),
            exchange: BucketExchange {
                recorder: None,
                step: 0,
                fingerprint: false,
                corruption_retries: 1,
                faults: None,
            },
            scratch: ExchangeScratch::default(),
        }
    }

    /// Enables/disables cross-rank fingerprint verification of every
    /// reduced bucket, granting `bucket_retries` verified retries per
    /// corrupt verdict before the typed error surfaces. Bitwise-neutral
    /// on clean runs: verification only *reads* the reduced gradients.
    pub fn set_fingerprint_verify(&mut self, on: bool, bucket_retries: u32) {
        self.exchange.fingerprint = on;
        self.exchange.corruption_retries = bucket_retries;
        let longest = self.buckets.iter().map(|&(a, b)| b - a).max().unwrap_or(0);
        self.scratch.snapshot = Vec::with_capacity(if on { longest } else { 0 });
    }

    /// Attaches a flight recorder; subsequent exchanges emit per-bucket
    /// wall spans into it.
    pub fn attach_recorder(&mut self, rec: Arc<Recorder>) {
        self.exchange.recorder = Some(rec);
    }

    /// Hands the exchange the run's compiled fault plan: from now on it
    /// injects the plan's transient failures and payload flips and
    /// retries under its policy (module docs).
    pub fn set_faults(&mut self, faults: Arc<FaultSchedule>) {
        self.exchange.faults = Some(faults);
    }

    /// The exchange's step clock: call once per training step, on every
    /// rank, before the first bucket can go. It keys the plan's faults,
    /// tags recorded spans and stamps a corrupt verdict, and restarts the
    /// step's count of injected failures.
    pub fn set_step(&mut self, step: u64) {
        self.exchange.step = step;
        self.scratch.failed = 0;
    }

    /// Total elements of the exchange payload (params + loss scalar), as
    /// if flattened.
    pub fn flat_len(&self) -> usize {
        self.buckets.last().map_or(0, |&(_, end)| end)
    }

    /// Number of buckets covering the payload.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Accumulated per-bucket timing.
    pub fn profile(&self) -> &AllReduceProfile {
        &self.profile
    }

    /// True when every element of the most recent reduction — the mean
    /// gradients in `model` (the registered instance, read before
    /// anything else writes them) and the mean loss — is finite: the
    /// divergence guard's probe, one pass over the gradients that only a
    /// guarded run pays. The reduction is bitwise identical on every
    /// rank, so either all ranks trip or none do; no extra collective is
    /// needed to agree. A mean is its sum × (1/world), so it is finite
    /// exactly when the sum is.
    pub fn last_reduction_is_finite(&self, model: &mut dyn Layer) -> bool {
        let mut finite = self.loss.is_finite();
        model.visit_params(&mut |p| finite &= p.grad.data().iter().all(|v| v.is_finite()));
        finite
    }

    /// Asserts that `model` still has the registered parameters.
    fn check_registration(&self, model: &mut dyn Layer) {
        let sizes = &self.param_sizes;
        let mut idx = 0usize;
        model.visit_params(&mut |p| {
            assert_eq!(
                sizes.get(idx).copied(),
                Some(p.grad.numel()),
                "parameter {idx} changed size since GradBucket registration"
            );
            idx += 1;
        });
        assert_eq!(
            idx,
            sizes.len(),
            "parameter count changed since GradBucket registration"
        );
    }

    /// Replaces `model`'s gradients by their mean across the group,
    /// bucket by bucket, and returns the mean of `local_loss`.
    ///
    /// `model` must be the instance registered at construction (same
    /// parameters in the same order) — asserted per parameter.
    pub fn all_reduce(
        &mut self,
        model: &mut dyn Layer,
        comm: &dyn Collective,
        local_loss: f32,
    ) -> f32 {
        let mut counters = RecoveryCounters::default();
        self.all_reduce_with_retry(model, comm, local_loss, &mut counters)
            .expect("gradient all-reduce failed permanently")
    }

    /// The fallible gradient exchange: identical reduction to
    /// [`GradBucket::all_reduce`] (bitwise — a successful attempt computes
    /// the same bytes), but transient collective failures, injected ones
    /// included, are absorbed by bounded retry, counted into `counters`
    /// (their backoff is virtual, and the recovery machine prices it).
    /// Exhausting the retry budget (or a permanent error)
    /// surfaces as a typed [`CollectiveError`] instead of a panic; the
    /// gradients then hold a partial exchange, which the caller discards
    /// (the trainer rewinds or stops).
    ///
    /// SPMD: fault schedules are symmetric, so every rank retries the
    /// same attempts in lockstep and no rank enters a collective its
    /// peers skipped.
    pub fn all_reduce_with_retry(
        &mut self,
        model: &mut dyn Layer,
        comm: &dyn Collective,
        local_loss: f32,
        counters: &mut RecoveryCounters,
    ) -> Result<f32, CollectiveError> {
        self.check_registration(model);
        self.loss = local_loss;
        let loss_at = self.flat_len() - 1;
        let mut whole = [(0, model)];
        // Reduce bucket by bucket. The serialized path blocks the replica
        // thread for the whole exchange: every bucket second is exposed.
        for (i, &range) in self.buckets.iter().enumerate() {
            let mut pieces = BucketPieces {
                segments: &mut whole,
                range,
                loss: &mut self.loss,
                loss_at,
            };
            let scratch = &mut self.scratch;
            let dur = self
                .exchange
                .exchange_bucket(comm, i, &mut pieces, scratch, counters)?;
            self.profile.bucket_seconds[i] += dur;
            self.profile.exposed_seconds += dur;
        }
        self.profile.rounds += 1;
        Ok(self.loss)
    }

    /// Fused backward + overlapped gradient exchange: runs `model`'s
    /// hooked backward pass and fires each bucket's all-reduce **as soon
    /// as its last gradient lands**, on a dedicated communication thread,
    /// instead of serializing the whole exchange after backward.
    ///
    /// Mechanics: gradients finalize from the tail of the `visit_params`
    /// order (backward runs the network in reverse), so buckets become
    /// ready in strictly *descending* index order. Backward lends each
    /// finished layer to the communication thread, which keeps it until
    /// no bucket below needs it. Once every gradient of a bucket's range
    /// is final, the thread reduces the bucket in place in those layers'
    /// gradients, while backward goes on with the layers before them (the
    /// borrows are disjoint).
    ///
    /// Determinism: every rank exchanges buckets in the same descending
    /// order, each bucket's collective reduces the same element ranges
    /// with the same backend as the serialized path — so the averaged
    /// gradients, the mean loss, and therefore the whole training
    /// trajectory are **bitwise identical** to
    /// [`GradBucket::all_reduce_with_retry`] after a plain backward, at
    /// any thread schedule. Only wall time moves.
    ///
    /// Timing decomposition: `backward_s` is the replica thread's wall
    /// time in backward (including handing layers over); `exposed_s` is
    /// the post-backward wait for the communication thread — the
    /// *exposed* all-reduce time. Per-bucket durations accumulate into
    /// the profile as usual, so `bucket_seconds − exposed` is hidden
    /// communication ([`AllReduceProfile::overlap_pct`]).
    pub fn backward_overlapped_with_retry(
        &mut self,
        model: &mut dyn HookedBackward,
        dlogits: &Tensor,
        comm: &dyn Collective,
        local_loss: f32,
        counters: &mut RecoveryCounters,
    ) -> Result<OverlapOutcome, CollectiveError> {
        self.loss = local_loss;
        let loss_at = self.flat_len() - 1;
        let buckets = &self.buckets;
        let param_sizes = &self.param_sizes;
        let exchange = &self.exchange;
        let scratch = &mut self.scratch;
        let loss = &mut self.loss;

        let mut sw = Stopwatch::start();
        let (input_grad, backward_s, exposed_s, exchanged) = std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel::<(usize, &mut dyn Layer)>();
            // The communication thread: the same per-bucket exchange as
            // the serialized path, highest bucket first, each as soon as
            // the layers it covers have arrived. Returns `(bucket,
            // seconds)` in completion order and how many buckets a layer's
            // arrival made ready. The first error drops `rx`, so the
            // producer's remaining sends fail harmlessly and backward
            // still completes before the error surfaces.
            let comm_join = s.spawn(move || {
                let mut held = Vec::new();
                let mut done = Vec::with_capacity(buckets.len());
                let mut hook_shipped = 0u64;
                // The lowest payload element that is final: at first only
                // the loss scalar, so a bucket holding only it (the bucket
                // size divides the gradient count) goes before backward
                // has finished a layer.
                let mut boundary = loss_at;
                let mut arrivals = rx.into_iter();
                loop {
                    while let Some(i) = (buckets.len() - done.len())
                        .checked_sub(1)
                        .filter(|&i| buckets[i].0 >= boundary)
                    {
                        let range = buckets[i];
                        let mut pieces = BucketPieces {
                            segments: &mut held,
                            range,
                            loss: &mut *loss,
                            loss_at,
                        };
                        let dur =
                            exchange.exchange_bucket(comm, i, &mut pieces, scratch, counters)?;
                        done.push((i, dur));
                        hook_shipped += u64::from(boundary < loss_at);
                        // Layers wholly above the next bucket are done with.
                        held.retain(|&(start, _)| start < range.0);
                    }
                    let Some((start, seg)) = arrivals.next() else {
                        break;
                    };
                    boundary = start;
                    held.push((start, seg));
                }
                Ok((done, hook_shipped))
            });

            // `boundary` is the payload offset of the lowest finished
            // gradient, `param_end` the lowest finished parameter index;
            // both walk downward as layers finish.
            let mut boundary = loss_at;
            let mut param_end = param_sizes.len();
            let mut seg_sizes: Vec<usize> = Vec::new();
            let input_grad = model.backward_hooked(dlogits, &mut |seg| {
                seg_sizes.clear();
                seg.visit_params(&mut |p| seg_sizes.push(p.grad.numel()));
                if seg_sizes.is_empty() {
                    return;
                }
                let seg_elems: usize = seg_sizes.iter().sum();
                assert!(
                    param_end >= seg_sizes.len() && boundary >= seg_elems,
                    "hooked segment overruns the registered parameter list"
                );
                assert_eq!(
                    &param_sizes[param_end - seg_sizes.len()..param_end],
                    &seg_sizes[..],
                    "hooked segment does not match GradBucket registration"
                );
                boundary -= seg_elems;
                param_end -= seg_sizes.len();
                let _ = tx.send((boundary, seg));
            });
            assert_eq!(
                param_end, 0,
                "backward_hooked finished without announcing every parameter"
            );
            // Hanging up ends the communication thread's loop.
            drop(tx);
            let backward_s = sw.lap();
            let exchanged = comm_join
                .join()
                .expect("overlap communication thread panicked");
            let exposed_s = sw.lap();
            (input_grad, backward_s, exposed_s, exchanged)
        });

        let (done, hook_shipped) = exchanged?;
        for (i, dur) in done {
            self.profile.bucket_seconds[i] += dur;
        }
        self.profile.exposed_seconds += exposed_s;
        self.profile.rounds += 1;
        self.profile.overlapped_rounds += 1;
        self.profile.hook_shipped_buckets += hook_shipped;

        Ok(OverlapOutcome {
            mean_loss: self.loss,
            input_grad,
            backward_s,
            exposed_s,
        })
    }

    /// Infallible wrapper over [`GradBucket::backward_overlapped_with_retry`]
    /// (for tests and fault-free callers).
    pub fn backward_overlapped(
        &mut self,
        model: &mut dyn HookedBackward,
        dlogits: &Tensor,
        comm: &dyn Collective,
        local_loss: f32,
    ) -> OverlapOutcome {
        let mut counters = RecoveryCounters::default();
        self.backward_overlapped_with_retry(model, dlogits, comm, local_loss, &mut counters)
            .expect("overlapped gradient exchange failed permanently")
    }
}

/// Result of an overlapped backward + gradient exchange
/// ([`GradBucket::backward_overlapped_with_retry`]).
pub struct OverlapOutcome {
    /// Group-mean loss (bitwise equal to the serialized exchange's).
    pub mean_loss: f32,
    /// d loss / d input from the backward pass.
    pub input_grad: Tensor,
    /// Replica-thread wall seconds in backward, including handing the
    /// finished layers over.
    pub backward_s: f64,
    /// Replica-thread wall seconds blocked on communication after
    /// backward returned — the exposed all-reduce time.
    pub exposed_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_collective::{
        create_collective, Backend, FaultEvent, FaultKind, FaultPlan, RecoveryMachine,
    };
    use ets_efficientnet::EfficientNet;
    use ets_efficientnet::ModelConfig;
    use ets_nn::Precision;
    use ets_tensor::Rng;
    use std::thread;

    fn tiny_model(seed: u64) -> EfficientNet {
        let mut rng = Rng::new(seed);
        EfficientNet::new(ModelConfig::tiny(16, 4), Precision::F32, &mut rng)
    }

    fn fill_grads(model: &mut EfficientNet, rank: usize) {
        let mut k = 0usize;
        model.visit_params(&mut |p| {
            for g in p.grad.data_mut().iter_mut() {
                *g = ((k % 13) as f32 - 6.0) * 0.25 + rank as f32;
                k += 1;
            }
        });
    }

    fn grads_of(model: &mut EfficientNet) -> Vec<f32> {
        let mut out = Vec::new();
        model.visit_params(&mut |p| out.extend_from_slice(p.grad.data()));
        out
    }

    /// What one rank reports from `exchange_bits`: grad bits, loss bits,
    /// input-grad bits, and what the exchange cost in recovery.
    type ExchangeBits = (Vec<u32>, u32, Vec<u32>, RecoveryCounters);

    /// One deterministic forward + backward + gradient exchange on `c`.
    /// `overlapped` selects the fused backward+exchange path; `delay_ms`
    /// staggers this rank's start; `bucket_elems == 0` means "exactly the
    /// parameter count", which leaves a loss-only tail bucket that is
    /// ready before backward even starts. `fingerprint` turns bucket
    /// verification on *and* corrupts rank 1's copy of the first bucket
    /// it reduces, so the exchange has a flip to detect and heal.
    fn exchange_bits(
        c: Box<dyn Collective>,
        bucket_elems: usize,
        overlapped: bool,
        delay_ms: u64,
        fingerprint: bool,
    ) -> ExchangeBits {
        if delay_ms > 0 {
            thread::sleep(std::time::Duration::from_millis(delay_ms));
        }
        let flip = FaultKind::PayloadBitFlip {
            rank: 1,
            at_step: 0,
            element: 0,
            bit: 30,
        };
        let plan = if fingerprint {
            at_step_0(flip)
        } else {
            FaultPlan::default()
        };
        let mut m = tiny_model(7);
        let bucket_elems = if bucket_elems == 0 {
            let mut n = 0usize;
            m.visit_params(&mut |p| n += p.grad.numel());
            n
        } else {
            bucket_elems
        };
        let mut rng = Rng::new(100 + c.rank() as u64);
        let mut x = ets_tensor::Tensor::zeros([2, 3, 16, 16]);
        rng.fill_normal(x.data_mut(), 0.0, 1.0);
        let mut lrng = Rng::new(11);
        ets_nn::zero_grads(&mut m);
        let y = m.forward(&x, ets_nn::Mode::Train, &mut lrng);
        let labels = [c.rank() % 4, (c.rank() + 1) % 4];
        let out = ets_nn::cross_entropy(&y, &labels, 0.1);
        let mut gb = GradBucket::with_bucket_elems(&mut m, bucket_elems);
        gb.set_faults(Arc::new(plan.compile(1)));
        gb.set_step(0);
        gb.set_fingerprint_verify(fingerprint, 1);
        let mut counters = RecoveryCounters::default();
        let (loss, dx) = if overlapped {
            let o = gb
                .backward_overlapped_with_retry(
                    &mut m,
                    &out.dlogits,
                    c.as_ref(),
                    out.loss,
                    &mut counters,
                )
                .expect("overlapped exchange heals");
            let p = gb.profile();
            assert_eq!(p.overlapped_rounds, 1);
            assert_eq!(p.rounds, 1);
            // Every bucket but a loss-only tail ships from inside the hook.
            let loss_only = (p.bucket_elems.last() == Some(&1)) as u64;
            assert_eq!(p.hook_shipped_buckets, p.num_buckets() as u64 - loss_only);
            (o.mean_loss, o.input_grad)
        } else {
            let dx = m.backward(&out.dlogits);
            let loss = gb
                .all_reduce_with_retry(&mut m, c.as_ref(), out.loss, &mut counters)
                .expect("serialized exchange heals");
            (loss, dx)
        };
        (
            grads_of(&mut m).iter().map(|v| v.to_bits()).collect(),
            loss.to_bits(),
            dx.data().iter().map(|v| v.to_bits()).collect(),
            counters,
        )
    }

    /// Runs `exchange_bits` on a 2-rank tree world, `delays[rank]`
    /// staggering each rank, and returns both ranks' results.
    fn two_rank_exchange(
        bucket_elems: usize,
        overlapped: bool,
        delays: [u64; 2],
        fingerprint: bool,
    ) -> Vec<ExchangeBits> {
        let world = create_collective(Backend::Tree, 2);
        let joins: Vec<_> = world
            .into_iter()
            .map(|c| {
                let delay = delays[c.rank()];
                thread::spawn(move || {
                    exchange_bits(c, bucket_elems, overlapped, delay, fingerprint)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    }

    #[test]
    fn overlapped_exchange_is_bitwise_identical_to_serialized() {
        // The fused backward + overlapped exchange must reproduce plain
        // backward + serialized all-reduce bit for bit — averaged
        // gradients, mean loss, and input gradient — at any bucket size,
        // including a layout whose tail bucket holds only the loss scalar.
        // With fingerprints on, one rank's payload is flipped: both
        // callers of `exchange_bucket` must heal it to the clean bits and
        // account it identically.
        let clean = two_rank_exchange(64, false, [0, 0], false);
        for fingerprint in [false, true] {
            // 777 and 1000 end buckets inside parameters.
            for bucket_elems in [64usize, 0, 1 << 20, 777, 1000] {
                let what = format!("bucket_elems={bucket_elems} fingerprint={fingerprint}");
                let serial = two_rank_exchange(bucket_elems, false, [0, 0], fingerprint);
                let overlap = two_rank_exchange(bucket_elems, true, [0, 0], fingerprint);
                assert_eq!(serial, overlap, "{what}");
                // Averaged gradients and mean loss agree across ranks (the
                // input gradient is per-rank: inputs differ).
                assert_eq!(serial[0].0, serial[1].0, "{what}: ranks must agree bitwise");
                assert_eq!(serial[0].1, serial[1].1, "{what}: ranks must agree on loss");
                // Tree reduction is element-wise, so neither the bucket
                // layout nor a healed flip moves a bit.
                for (got, want) in serial.iter().zip(&clean) {
                    assert_eq!(got.0, want.0, "{what}");
                    assert_eq!(got.1, want.1, "{what}");
                }
                let healed = fingerprint as u64;
                for (_, _, _, counters) in &serial {
                    let want = RecoveryCounters {
                        corruptions_detected: healed,
                        corruptions_corrected: healed,
                        ..RecoveryCounters::default()
                    };
                    assert_eq!(*counters, want, "{what}");
                }
            }
        }
    }

    /// FNV-1a over 32-bit words.
    fn fnv(words: &[u32]) -> u64 {
        words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
            (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn two_rank_exchange_keeps_the_recorded_bits() {
        // Recorded from the flat-buffer exchange this one replaced (pack,
        // sum, then × 1/world on the way back): the averaged gradients,
        // the mean loss and each rank's input gradient, serialized and
        // overlapped, at layouts that end buckets inside parameters.
        for overlapped in [false, true] {
            for bucket_elems in [100usize, 777, 1 << 20] {
                let ranks = two_rank_exchange(bucket_elems, overlapped, [0, 0], false);
                let what = format!("bucket_elems={bucket_elems} overlapped={overlapped}");
                for (rank, (grads, loss, dx, _)) in ranks.iter().enumerate() {
                    assert_eq!(grads.len(), 200_106, "{what}");
                    assert_eq!(fnv(grads), 0x6f33_07a4_a8fc_4a29, "{what} rank {rank}");
                    assert_eq!(*loss, 0x3fc4_3d11, "{what} rank {rank}");
                    let want_dx = [0xb48a_8c91_19b9_3296, 0x5ca1_8743_8d9e_8654][rank];
                    assert_eq!(fnv(dx), want_dx, "{what} rank {rank}");
                }
            }
        }
    }

    #[test]
    fn overlap_survives_backward_finishing_before_first_reduce_returns() {
        // Rank 1 enters the step late, so rank 0's backward — and every
        // one of its bucket ships — completes before the first all-reduce
        // can rendezvous. The exchange must not deadlock, lose a bucket,
        // or double-deposit: results stay bitwise equal to the
        // unstaggered serialized exchange.
        let baseline = two_rank_exchange(64, false, [0, 0], false);
        let staggered = two_rank_exchange(64, true, [0, 50], false);
        assert_eq!(baseline, staggered);
    }

    #[test]
    fn bucket_layout_covers_the_payload_exactly() {
        let mut m = tiny_model(0);
        let gb = GradBucket::with_bucket_elems(&mut m, 100);
        assert!(gb.num_buckets() > 1, "tiny model should still split at 100");
        let covered: usize = gb.profile().bucket_elems.iter().sum();
        assert_eq!(covered, gb.flat_len());
        assert!(gb.profile().bucket_elems.iter().all(|&n| n <= 100));
    }

    #[test]
    fn bucketized_reduce_matches_whole_buffer_reduce_bitwise() {
        // Tree reduction is element-wise, so bucket boundaries must not
        // change a single bit of the averaged gradients.
        for bucket_elems in [100usize, 777, 1 << 20] {
            let world = create_collective(Backend::Tree, 2);
            let joins: Vec<_> = world
                .into_iter()
                .map(|c| {
                    thread::spawn(move || {
                        let mut m = tiny_model(1);
                        fill_grads(&mut m, c.rank());
                        let mut gb = GradBucket::with_bucket_elems(&mut m, bucket_elems);
                        let loss = gb.all_reduce(&mut m, c.as_ref(), (c.rank() + 1) as f32);
                        (grads_of(&mut m), loss)
                    })
                })
                .collect();
            let results: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
            assert_eq!(results[0], results[1], "ranks must agree bitwise");
            let (grads, loss) = &results[0];
            assert!((loss - 1.5).abs() < 1e-6, "mean of 1.0 and 2.0");
            // Manual expectation: mean of the two rank patterns.
            let mut expect = tiny_model(1);
            fill_grads(&mut expect, 0);
            let a = grads_of(&mut expect);
            fill_grads(&mut expect, 1);
            let b = grads_of(&mut expect);
            for (g, (x, y)) in grads.iter().zip(a.iter().zip(&b)) {
                assert_eq!(*g, (x + y) * 0.5);
            }
        }
    }

    #[test]
    fn profile_accumulates_per_round() {
        let mut world = create_collective(Backend::Tree, 1);
        let c = world.pop().unwrap();
        let mut m = tiny_model(2);
        let mut gb = GradBucket::with_bucket_elems(&mut m, 50);
        for _ in 0..3 {
            fill_grads(&mut m, 0);
            let _ = gb.all_reduce(&mut m, c.as_ref(), 1.0);
        }
        let prof = gb.profile();
        assert_eq!(prof.rounds, 3);
        assert_eq!(prof.bucket_seconds.len(), prof.bucket_elems.len());
        assert!(prof.total_seconds() >= 0.0);
        assert!(prof.mean_bucket_seconds(0) >= 0.0);
    }

    #[test]
    fn finiteness_probe_detects_nan_gradients() {
        let mut world = create_collective(Backend::Tree, 1);
        let c = world.pop().unwrap();
        let mut m = tiny_model(5);
        let mut gb = GradBucket::new(&mut m);
        fill_grads(&mut m, 0);
        let _ = gb.all_reduce(&mut m, c.as_ref(), 1.0);
        assert!(gb.last_reduction_is_finite(&mut m));
        // Poison one gradient element; the probe must trip after the next
        // exchange.
        let mut first = true;
        m.visit_params(&mut |p| {
            if first {
                p.grad.data_mut()[0] = f32::NAN;
                first = false;
            }
        });
        let _ = gb.all_reduce(&mut m, c.as_ref(), 1.0);
        assert!(!gb.last_reduction_is_finite(&mut m));
    }

    #[test]
    fn finiteness_probe_trips_on_every_rank_where_the_sum_is_not_finite() {
        // The verdict the summed payload gave: a NaN gradient on one rank,
        // finite gradients or losses whose sum overflows, and a clean
        // exchange for contrast. Ranks agree.
        #[derive(Clone, Copy, Debug)]
        enum Case {
            Clean,
            NanGradient,
            OverflowingGradient,
            OverflowingLoss,
        }
        for case in [
            Case::Clean,
            Case::NanGradient,
            Case::OverflowingGradient,
            Case::OverflowingLoss,
        ] {
            let joins: Vec<_> = create_collective(Backend::Tree, 2)
                .into_iter()
                .map(|c| {
                    thread::spawn(move || {
                        let mut m = tiny_model(5);
                        fill_grads(&mut m, c.rank());
                        let mut gb = GradBucket::with_bucket_elems(&mut m, 777);
                        let poison = match case {
                            Case::NanGradient if c.rank() == 1 => Some(f32::NAN),
                            Case::OverflowingGradient => Some(3e38),
                            _ => None,
                        };
                        let mut k = 0;
                        m.visit_params(&mut |p| {
                            if let (Some(v), 3) = (poison, k) {
                                p.grad.data_mut()[0] = v;
                            }
                            k += 1;
                        });
                        let loss = match case {
                            Case::OverflowingLoss => 3e38,
                            _ => 1.0,
                        };
                        let mean = gb.all_reduce(&mut m, c.as_ref(), loss);
                        (mean.is_finite(), gb.last_reduction_is_finite(&mut m))
                    })
                })
                .collect();
            for j in joins {
                let (loss_finite, finite) = j.join().unwrap();
                let want = matches!(case, Case::Clean);
                assert_eq!(finite, want, "{case:?}");
                assert_eq!(
                    loss_finite,
                    !matches!(case, Case::OverflowingLoss),
                    "{case:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "changed size since GradBucket registration")]
    fn size_change_is_rejected() {
        let mut a = tiny_model(3);
        let mut gb = GradBucket::new(&mut a);
        // A structurally different model must be rejected.
        let mut rng = Rng::new(4);
        let mut b = EfficientNet::new(ModelConfig::tiny(16, 8), Precision::F32, &mut rng);
        let mut world = create_collective(Backend::Tree, 1);
        let c = world.pop().unwrap();
        let _ = gb.all_reduce(&mut b, c.as_ref(), 0.0);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A plan of one `kind` at step 0 (the default one-second step clock).
    fn at_step_0(kind: FaultKind) -> FaultPlan {
        FaultPlan {
            events: vec![FaultEvent {
                at_s: 0.0,
                duration_s: 0.0,
                kind,
            }],
            ..FaultPlan::default()
        }
    }

    /// Runs `f` on every rank of a `world`-rank `backend` world; the
    /// results in rank order.
    fn on_ranks<T: Send + 'static>(
        backend: Backend,
        world: usize,
        f: impl Fn(&dyn Collective) -> T + Clone + Send + 'static,
    ) -> Vec<T> {
        let joins: Vec<_> = create_collective(backend, world)
            .into_iter()
            .map(|c| {
                let f = f.clone();
                thread::spawn(move || f(c.as_ref()))
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    }

    /// What one exchange of `exchanges` leaves: the gradient bits, the
    /// mean loss bits or the error, and the counters so far.
    type Exchanged = (Vec<u32>, Result<u32, CollectiveError>, RecoveryCounters);

    /// This rank's serialized exchanges of the `fill_grads` pattern (loss:
    /// rank + 1) in buckets of `bucket_elems`, under `faults` if given: one
    /// per entry of `steps`, each after `set_step` where it is `Some`.
    fn exchanges(
        c: &dyn Collective,
        bucket_elems: usize,
        faults: Option<&Arc<FaultSchedule>>,
        steps: &[Option<u64>],
    ) -> Vec<Exchanged> {
        let mut m = tiny_model(1);
        let mut gb = GradBucket::with_bucket_elems(&mut m, bucket_elems);
        if let Some(f) = faults {
            gb.set_faults(Arc::clone(f));
        }
        let mut counters = RecoveryCounters::default();
        let mut exchange = |step: Option<u64>| {
            if let Some(s) = step {
                gb.set_step(s);
            }
            fill_grads(&mut m, c.rank());
            let loss = gb.all_reduce_with_retry(&mut m, c, (c.rank() + 1) as f32, &mut counters);
            (bits(&grads_of(&mut m)), loss.map(f32::to_bits), counters)
        };
        steps.iter().map(|&step| exchange(step)).collect()
    }

    /// This rank's exchange of the same pattern with no plan.
    fn clean(c: &dyn Collective, bucket_elems: usize) -> Exchanged {
        exchanges(c, bucket_elems, None, &[None]).remove(0)
    }

    #[test]
    fn exhausted_retries_are_typed_and_clear_when_the_step_advances() {
        // Ten planned failures at step 0 against three attempts: on every
        // rank the exchange gives back a typed RetriesExhausted holding
        // the last injected failure, and leaves every gradient bit and the
        // counters as they were. Injections are keyed by the step, not the
        // call count: the exchange succeeds at step 1, and a replay of
        // step 0 fails again.
        let mut plan = at_step_0(FaultKind::TransientCollective { failures: 10 });
        plan.retry = RetryPolicy {
            max_attempts: 3,
            base_backoff_s: 0.01,
            multiplier: 2.0,
        };
        let faults = Arc::new(plan.compile(4));
        for backend in [Backend::Tree, Backend::Ring] {
            let faults = Arc::clone(&faults);
            let ranks = on_ranks(backend, 2, move |c| {
                let mut m = tiny_model(1);
                fill_grads(&mut m, c.rank());
                let steps = [Some(0), Some(1), Some(0)];
                let runs = exchanges(c, 777, Some(&faults), &steps);
                (bits(&grads_of(&mut m)), clean(c, 777), runs)
            });
            for (rank, (pattern, clean, runs)) in ranks.into_iter().enumerate() {
                let what = format!("{backend} rank {rank}");
                match &runs[0].1 {
                    Err(CollectiveError::RetriesExhausted { attempts, last }) => {
                        assert_eq!(*attempts, 3, "{what}");
                        assert!(last.is_transient(), "{what}: last error {last}");
                        // One injection per attempt.
                        let third = CollectiveError::Transient {
                            op: "all_reduce_mean",
                            step: 0,
                            attempt: 3,
                        };
                        assert_eq!(**last, third, "{what}");
                    }
                    other => panic!("{what}: expected RetriesExhausted, got {other:?}"),
                }
                assert_eq!(
                    runs[0].0, pattern,
                    "{what}: failed attempts touched the gradients"
                );
                assert_eq!(runs[0].2, RecoveryCounters::default(), "{what}");
                assert_eq!(runs[1], clean, "{what}: step 1 is the clean exchange");
                assert_eq!(clean.1, Ok(1.5f32.to_bits()), "{what}: mean over 2 ranks");
                assert_eq!(runs[2].1, runs[0].1, "{what}: the replay fails again");
            }
        }
    }

    #[test]
    fn injected_transients_are_absorbed_bitwise() {
        // Two planned failures at step 0 on three ranks, several buckets:
        // the step takes three attempts in all (the count is per step, not
        // per bucket), step 1 takes none, and both equal the exchange
        // without a plan bit for bit on every rank.
        let faults = Arc::new(at_step_0(FaultKind::TransientCollective { failures: 2 }).compile(4));
        // The recovery machine prices the step's two retries: 0.05 + 0.10
        // of virtual backoff.
        let charge = RecoveryMachine::new(&faults, 3, false).charge(0);
        assert_eq!(charge.retries, 2);
        assert!((charge.backoff_s - 0.15).abs() < 1e-12);
        let ranks = on_ranks(Backend::Tree, 3, move |c| {
            let runs = exchanges(c, 777, Some(&faults), &[Some(0), Some(1)]);
            (clean(c, 777), runs)
        });
        for (rank, (clean, runs)) in ranks.iter().enumerate() {
            for (got, want) in runs.iter().zip(&ranks[0].1) {
                assert!(
                    got.0 == clean.0 && got.1 == clean.1,
                    "rank {rank}: payload perturbed"
                );
                assert!(got == want, "rank {rank}: ranks diverged");
            }
            let retries = runs.iter().map(|r| r.2.collective_retries);
            assert_eq!(retries.collect::<Vec<_>>(), [2, 2], "rank {rank}");
            assert_eq!(runs[1].2.transient_failures, 2, "rank {rank}");
            assert_eq!(runs[1].2.retry_backoff_virtual_s, 0.0, "rank {rank}");
        }
    }

    #[test]
    fn a_payload_flip_hits_one_rank_once() {
        // Rank 1's copy of element 0 gets bit 30 flipped on the step's
        // first successful mean, and only there: the other ranks stay
        // clean, and neither a second exchange of the step (a verified
        // retry) nor an immediate replay of it flips again.
        let flip = FaultKind::PayloadBitFlip {
            rank: 1,
            at_step: 0,
            element: 0,
            bit: 30,
        };
        let faults = Arc::new(at_step_0(flip).compile(4));
        let ranks = on_ranks(Backend::Tree, 3, move |c| {
            let runs = exchanges(c, 777, Some(&faults), &[Some(0), None, Some(0)]);
            (clean(c, 777), runs)
        });
        for (rank, (clean, runs)) in ranks.iter().enumerate() {
            assert!(runs[1] == *clean, "rank {rank}: retry not clean");
            assert!(runs[2] == *clean, "rank {rank}: replay not clean");
            let mut want = clean.clone();
            want.0[0] ^= u32::from(rank == 1) << 30;
            assert!(runs[0] == want, "rank {rank}: wrong flip");
        }
    }

    #[test]
    fn a_payload_flip_hits_the_element_index_across_pieces() {
        // One bucket holds every gradient, one piece per parameter. The
        // planned element is a full payload length past the fourth element
        // of the second parameter, so rank 1 gets exactly that element
        // flipped and rank 0 nothing.
        let mut m = tiny_model(1);
        let len = GradBucket::new(&mut m).flat_len();
        let mut first = None;
        m.visit_params(&mut |p| {
            first.get_or_insert(p.grad.numel());
        });
        let at = first.unwrap() + 3;
        let flip = FaultKind::PayloadBitFlip {
            rank: 1,
            at_step: 0,
            element: (len + at) as u32,
            bit: 30,
        };
        let faults = Arc::new(at_step_0(flip).compile(1));
        let ranks = on_ranks(Backend::Tree, 2, move |c| {
            let bucket = DEFAULT_BUCKET_ELEMS;
            let got = exchanges(c, bucket, Some(&faults), &[Some(0)]).remove(0);
            (clean(c, bucket).0, got.0)
        });
        assert!(ranks[0].0 == ranks[0].1, "rank 0 is not flipped");
        let (clean, got) = &ranks[1];
        for (i, (got, want)) in got.iter().zip(clean).enumerate() {
            let flipped = if i == at { 1 << 30 } else { 0 };
            assert_eq!(*got, want ^ flipped, "element {i}");
        }
    }
}
