//! Bucketized gradient all-reduce over a persistent flat buffer.
//!
//! The seed trainer flattened every gradient into a fresh `Vec` each step
//! and reduced it in one collective call. This module replaces that with
//! a DDP-style bucket layer:
//!
//! - **Registered once**: parameter sizes are recorded at construction
//!   and asserted against on every step — a silent shape change would
//!   corrupt the flat layout.
//! - **Persistent flat buffer**: gradients (plus the loss scalar, as the
//!   final element) are packed into one reusable buffer; the steady state
//!   allocates nothing.
//! - **Size-bounded buckets**: the flat range is split into contiguous
//!   buckets of at most `max_bucket_elems` elements, each reduced with
//!   its own collective call and timed individually
//!   ([`AllReduceProfile`]), so per-size behavior is observable.
//!
//! Determinism note: the tree backend reduces element-wise in ascending
//! rank order, so bucketizing cannot change its results — the bucketized
//! trainer stays bitwise on the seed trajectory. The ring backend chunks
//! by buffer length, so bucket layout is part of its (fixed, reproducible)
//! reduction order.
//!
//! ## Cross-rank gradient fingerprints (opt-in)
//!
//! Every backend produces **bitwise-identical** reduced buffers on all
//! ranks — that invariant is what the whole trainer's SPMD symmetry
//! rests on, and it makes silent receive-side payload corruption (a bit
//! flip in one rank's copy of the reduced gradients, the classic
//! network/DMA SDC) *detectable and attributable*: after each bucket's
//! all-reduce, each rank computes an FNV-1a fingerprint of its reduced
//! bytes and the ranks exchange a 12-float record per rank through one
//! tiny all-gather. All fingerprints equal ⇒ clean. A mismatch proves
//! some rank's copy diverged; with ≥ 3 ranks the minority fingerprint
//! *is* the corrupt rank (majority vote), and a two-rank world breaks
//! the tie by comparing each rank's self-reported f64 sum of its reduced
//! buffer against the index-ordered sum of the pre-reduce local
//! contributions (the flip's magnitude dwarfs f32 reduction rounding for
//! the exponent-range flips the fault generator injects; a NaN deviation
//! counts as infinite). The gathered matrix is identical on every rank,
//! so every rank reaches the same verdict without another round trip —
//! the healing decision is SPMD-symmetric by construction.
//!
//! Healing: the local contribution is snapshotted before the reduce, so
//! a corrupt verdict restores it and re-runs the bucket's collective —
//! the injector (like a real SDC) is one-shot, so the retry reproduces
//! the clean bytes bitwise. Retries exhausted surfaces a typed
//! [`CollectiveError::CorruptPayload`] carrying the attributed rank, on
//! every rank, and the trainer quarantines through the elastic-resize
//! path.
//!
//! ## One bucket exchange
//!
//! Retry → fingerprint → verified retry → typed error → span is one
//! function, `BucketExchange::exchange_bucket`. The serialized
//! [`GradBucket::all_reduce_with_retry`] calls it inline per bucket; the
//! overlapped [`GradBucket::backward_overlapped_with_retry`] calls it on
//! its communication thread as buckets arrive. Same bits, same counters.

use crate::report::RecoveryCounters;
use crate::timeline::{AllReduceProfile, Stopwatch};
use ets_collective::{retry_collective, Collective, CollectiveError, RetryPolicy};
use ets_nn::{HookedBackward, Layer};
use ets_obs::{phase as obs_phase, Lane, Recorder};
use ets_tensor::Tensor;
use std::sync::mpsc;
use std::sync::Arc;

/// Default bucket bound: 1 Mi elements = 4 MiB of f32 gradients. Proxy
/// models fit in one bucket; paper-scale models split into several.
pub const DEFAULT_BUCKET_ELEMS: usize = 1 << 20;

/// Floats per rank in the fingerprint all-gather record: the FNV-1a
/// fingerprint of the reduced bytes, the f64 sum of the pre-reduce local
/// contribution, and the f64 sum of the reduced buffer — each as four
/// 16-bit limbs (every limb is exact in f32, so the record survives the
/// float-typed collective losslessly).
const FP_RECORD_F32S: usize = 12;

/// FNV-1a over the f32 bit patterns of a slice (little-endian bytes).
fn fnv1a_bits(slice: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in slice {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn pack_u64_limbs(v: u64, out: &mut [f32]) {
    for (i, o) in out.iter_mut().enumerate().take(4) {
        *o = ((v >> (16 * i)) & 0xffff) as f32;
    }
}

fn unpack_u64_limbs(r: &[f32]) -> u64 {
    (0..4).fold(0u64, |acc, i| acc | ((r[i] as u64 & 0xffff) << (16 * i)))
}

fn f64_sum(slice: &[f32]) -> f64 {
    slice.iter().map(|&v| v as f64).sum()
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
    reduced: &[f32],
    cs_local: f64,
    gathered: &mut Vec<f32>,
) -> FpVerdict {
    let mut rec = [0.0f32; FP_RECORD_F32S];
    pack_u64_limbs(fnv1a_bits(reduced), &mut rec[0..4]);
    pack_u64_limbs(cs_local.to_bits(), &mut rec[4..8]);
    pack_u64_limbs(f64_sum(reduced).to_bits(), &mut rec[8..12]);
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
    // sum of the self-reported local contributions. The corrupt copy's
    // exponent-range flip deviates far beyond the rounding band; a NaN
    // deviation is treated as infinite.
    let expected: f64 = (0..world).map(|r| f64::from_bits(at(r, 1))).sum();
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

/// How a [`GradBucket`] exchanges one bucket. Both callers — the
/// serialized [`GradBucket::all_reduce_with_retry`] on the replica thread
/// and [`GradBucket::backward_overlapped_with_retry`] on its communication
/// thread — run each bucket through [`BucketExchange::exchange_bucket`],
/// so they retry, verify, heal, fail and record identically.
struct BucketExchange {
    /// Optional flight recorder: per-bucket wall spans on
    /// [`Lane::WallBucket`] (aux = bucket index), a `bucket_seconds`
    /// histogram, and retry counters. Disabled recorders cost one branch.
    recorder: Option<Arc<Recorder>>,
    /// Step used to tag recorded bucket spans (set via
    /// [`GradBucket::set_step`]; purely observational). Also stamps
    /// [`CollectiveError::CorruptPayload`] when fingerprinting trips.
    step: u64,
    /// Cross-rank fingerprint verification of every reduced bucket
    /// (module docs). Off by default: clean paths pay nothing.
    fingerprint: bool,
    /// Bucket retries granted on a corrupt verdict before surfacing
    /// [`CollectiveError::CorruptPayload`].
    corruption_retries: u32,
}

impl BucketExchange {
    /// Reduces bucket `i` in place and returns the wall seconds it took.
    /// Transient collective failures are retried under the policy (the
    /// backoff is virtual: accounted into `counters`, never slept). With
    /// fingerprints on, the local contribution is snapshotted first, a
    /// corrupt verdict restores it and re-runs the collective, and a
    /// verdict past the granted retries is the typed
    /// [`CollectiveError::CorruptPayload`]. A failed bucket records no
    /// span.
    fn exchange_bucket(
        &self,
        comm: &dyn Collective,
        policy: &RetryPolicy,
        i: usize,
        slice: &mut [f32],
        scratch: &mut FingerprintScratch,
        counters: &mut RecoveryCounters,
    ) -> Result<f64, CollectiveError> {
        let mut sw = Stopwatch::start();
        let cs_local = if self.fingerprint {
            scratch.snapshot[..slice.len()].copy_from_slice(slice);
            f64_sum(slice)
        } else {
            0.0
        };
        let mut attempts_left = self.corruption_retries;
        let mut detected_here = 0u64;
        let mut bucket_retries = 0u64;
        loop {
            let outcome = retry_collective(policy, || comm.try_all_reduce_sum(slice))?;
            let retries = (outcome.attempts - 1) as u64;
            counters.transient_failures += retries;
            counters.collective_retries += retries;
            counters.retry_backoff_virtual_s += outcome.backoff_s;
            bucket_retries += retries;
            if !self.fingerprint {
                break;
            }
            match fingerprint_verdict(comm, slice, cs_local, &mut scratch.gathered) {
                FpVerdict::Clean => {
                    if detected_here > 0 {
                        counters.corruptions_corrected += detected_here;
                        if let Some(rec) = &self.recorder {
                            rec.counter_add("bucket_corruptions_corrected", detected_here);
                        }
                    }
                    break;
                }
                FpVerdict::Corrupt { rank } => {
                    counters.corruptions_detected += 1;
                    detected_here += 1;
                    if let Some(rec) = &self.recorder {
                        rec.counter_add("bucket_corruptions_detected", 1);
                    }
                    if attempts_left == 0 {
                        return Err(CollectiveError::CorruptPayload {
                            rank,
                            bucket: i,
                            step: self.step,
                        });
                    }
                    attempts_left -= 1;
                    slice.copy_from_slice(&scratch.snapshot[..slice.len()]);
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
            rec.histogram_observe("bucket_seconds", dur);
            if bucket_retries > 0 {
                rec.counter_add("bucket_retries", bucket_retries);
            }
        }
        Ok(dur)
    }
}

/// What a fingerprinted exchange keeps between buckets and steps so the
/// steady state allocates nothing. One set serves both callers: buckets
/// are exchanged one at a time, also on the communication thread.
#[derive(Default)]
struct FingerprintScratch {
    /// The local contribution of the bucket in flight, as long as the
    /// longest bucket (empty while fingerprints are off).
    snapshot: Vec<f32>,
    /// The gathered fingerprint records.
    gathered: Vec<f32>,
}

/// The producer's end of the overlapped exchange: the not-yet-shipped
/// prefix of the flat buffer and the channel finished buckets leave on.
struct Shipper<'f, 'b> {
    buckets: &'b [(usize, usize)],
    tx: mpsc::Sender<(usize, &'f mut [f32])>,
    remaining: Option<&'f mut [f32]>,
    /// Lowest shipped bucket index (buckets become ready in descending
    /// order).
    next_bucket: usize,
}

impl Shipper<'_, '_> {
    /// Ships every unshipped bucket that lies wholly at or above
    /// `boundary`, the lowest packed element; returns how many.
    fn ship_ready(&mut self, boundary: usize) -> u64 {
        let mut shipped = 0;
        while self.next_bucket > 0 && self.buckets[self.next_bucket - 1].0 >= boundary {
            let a = self.buckets[self.next_bucket - 1].0;
            let rem = self.remaining.take().expect("flat buffer over-shipped");
            // `tail` spans [a, previous ship point) — exactly this
            // bucket, since ships walk down contiguously.
            let (rest, tail) = rem.split_at_mut(a);
            self.remaining = Some(rest);
            let _ = self.tx.send((self.next_bucket - 1, tail));
            self.next_bucket -= 1;
            shipped += 1;
        }
        shipped
    }
}

/// Persistent state for the bucketized gradient exchange.
pub struct GradBucket {
    /// Per-parameter element counts, in `visit_params` order.
    param_sizes: Vec<usize>,
    /// Flat gradient buffer: all params then the loss scalar.
    flat: Vec<f32>,
    /// Contiguous `[start, end)` element ranges covering `flat`.
    buckets: Vec<(usize, usize)>,
    /// Accumulated per-bucket timing (the report's view of the recorder's
    /// wall-bucket lane; both are fed from the same stopwatch laps).
    profile: AllReduceProfile,
    /// Recorder, step tag and verification settings of the one bucket
    /// exchange.
    exchange: BucketExchange,
    fingerprint_scratch: FingerprintScratch,
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
            flat: vec![0.0; total],
            buckets,
            profile: AllReduceProfile::new(bucket_elems),
            exchange: BucketExchange {
                recorder: None,
                step: 0,
                fingerprint: false,
                corruption_retries: 1,
            },
            fingerprint_scratch: FingerprintScratch::default(),
        }
    }

    /// Enables/disables cross-rank fingerprint verification of every
    /// reduced bucket, granting `bucket_retries` verified retries per
    /// corrupt verdict before the typed error surfaces. Bitwise-neutral
    /// on clean runs: verification only *reads* the reduced buffer.
    pub fn set_fingerprint_verify(&mut self, on: bool, bucket_retries: u32) {
        self.exchange.fingerprint = on;
        self.exchange.corruption_retries = bucket_retries;
        let longest = self.buckets.iter().map(|&(a, b)| b - a).max().unwrap_or(0);
        self.fingerprint_scratch.snapshot = vec![0.0; if on { longest } else { 0 }];
    }

    /// Attaches a flight recorder; subsequent exchanges emit per-bucket
    /// wall spans and retry counters into it.
    pub fn attach_recorder(&mut self, rec: Arc<Recorder>) {
        self.exchange.recorder = Some(rec);
    }

    /// Tags future recorded bucket spans with `step` (call alongside the
    /// fault injector's step clock; has no effect on numerics).
    pub fn set_step(&mut self, step: u64) {
        self.exchange.step = step;
    }

    /// Total flattened elements (params + loss scalar).
    pub fn flat_len(&self) -> usize {
        self.flat.len()
    }

    /// Number of buckets covering the flat buffer.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Accumulated per-bucket timing.
    pub fn profile(&self) -> &AllReduceProfile {
        &self.profile
    }

    /// True when every element of the most recent reduction's flat buffer
    /// (summed gradients + loss scalar) is finite — the divergence
    /// guard's probe. The reduced buffer is bitwise identical on every
    /// rank, so either all ranks trip or none do; no extra collective is
    /// needed to agree.
    pub fn last_reduction_is_finite(&self) -> bool {
        self.flat.iter().all(|v| v.is_finite())
    }

    /// Sums gradients (and `local_loss`) across the group bucket by
    /// bucket, averages, writes the averaged gradients back into the
    /// model, and returns the mean loss.
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
        self.all_reduce_with_retry(
            model,
            comm,
            local_loss,
            &RetryPolicy::default(),
            &mut counters,
        )
        .expect("gradient all-reduce failed permanently")
    }

    /// The fallible gradient exchange: identical reduction to
    /// [`GradBucket::all_reduce`] (bitwise — a successful attempt computes
    /// the same bytes), but transient collective failures are absorbed by
    /// bounded retry with virtual exponential backoff, accounted into
    /// `counters`. Exhausting the retry budget (or a permanent error)
    /// surfaces as a typed [`CollectiveError`] instead of a panic.
    ///
    /// SPMD: fault schedules are symmetric, so every rank retries the
    /// same attempts in lockstep and no rank enters a collective its
    /// peers skipped.
    pub fn all_reduce_with_retry(
        &mut self,
        model: &mut dyn Layer,
        comm: &dyn Collective,
        local_loss: f32,
        policy: &RetryPolicy,
        counters: &mut RecoveryCounters,
    ) -> Result<f32, CollectiveError> {
        // Pack into the persistent flat buffer.
        let mut off = 0usize;
        let mut idx = 0usize;
        let sizes = &self.param_sizes;
        let flat = &mut self.flat;
        model.visit_params(&mut |p| {
            let n = p.grad.numel();
            assert_eq!(
                sizes.get(idx).copied(),
                Some(n),
                "parameter {idx} changed size since GradBucket registration"
            );
            flat[off..off + n].copy_from_slice(p.grad.data());
            off += n;
            idx += 1;
        });
        assert_eq!(
            idx,
            sizes.len(),
            "parameter count changed since GradBucket registration"
        );
        flat[off] = local_loss;

        // Reduce bucket by bucket. The serialized path blocks the replica
        // thread for the whole exchange: every bucket second is exposed.
        for (i, &(a, b)) in self.buckets.iter().enumerate() {
            let slice = &mut self.flat[a..b];
            let scratch = &mut self.fingerprint_scratch;
            let dur = self
                .exchange
                .exchange_bucket(comm, policy, i, slice, scratch, counters)?;
            self.profile.bucket_seconds[i] += dur;
            self.profile.exposed_seconds += dur;
        }
        self.profile.rounds += 1;
        if let Some(rec) = &self.exchange.recorder {
            rec.counter_add("all_reduce_rounds", 1);
        }
        Ok(self.scatter_mean(model, comm.size()))
    }

    /// Averages the reduced flat buffer over `world`, writes the averaged
    /// gradients back into `model` and returns the mean loss.
    fn scatter_mean(&self, model: &mut dyn Layer, world: usize) -> f32 {
        let inv = 1.0 / world as f32;
        let mut off = 0usize;
        let flat = &self.flat;
        model.visit_params(&mut |p| {
            let n = p.grad.numel();
            for (g, &s) in p.grad.data_mut().iter_mut().zip(&flat[off..off + n]) {
                *g = s * inv;
            }
            off += n;
        });
        flat[off] * inv
    }

    /// Fused backward + overlapped gradient exchange: runs `model`'s
    /// hooked backward pass and fires each bucket's all-reduce **as soon
    /// as its last gradient lands**, on a dedicated communication thread,
    /// instead of serializing the whole exchange after backward.
    ///
    /// Mechanics: gradients finalize from the tail of the `visit_params`
    /// order (backward runs the network in reverse), so buckets become
    /// ready in strictly *descending* index order. Each finalized suffix
    /// segment is packed into the persistent flat buffer; once a bucket's
    /// full range is packed, its slice is split off (`split_at_mut` — the
    /// regions are provably disjoint) and shipped over a channel to the
    /// communication thread, which reduces buckets in arrival order.
    ///
    /// Determinism: every rank ships buckets in the same descending
    /// order, each bucket's collective reduces the same element ranges
    /// with the same backend as the serialized path, and averaging is
    /// unchanged — so the reduced gradients, the mean loss, and therefore
    /// the whole training trajectory are **bitwise identical** to
    /// [`GradBucket::all_reduce_with_retry`] after a plain backward, at
    /// any thread schedule. Only wall time moves.
    ///
    /// Timing decomposition: `backward_s` is the replica thread's wall
    /// time in backward (including packing/shipping); `exposed_s` is the
    /// post-backward wait for the communication thread — the *exposed*
    /// all-reduce time. Per-bucket durations accumulate into the profile
    /// as usual, so `bucket_seconds − exposed` is hidden communication
    /// ([`AllReduceProfile::overlap_pct`]).
    pub fn backward_overlapped_with_retry(
        &mut self,
        model: &mut dyn HookedBackward,
        dlogits: &Tensor,
        comm: &dyn Collective,
        local_loss: f32,
        policy: &RetryPolicy,
        counters: &mut RecoveryCounters,
    ) -> Result<OverlapOutcome, CollectiveError> {
        let loss_off = self.flat.len() - 1;
        self.flat[loss_off] = local_loss;

        let buckets = &self.buckets;
        let param_sizes = &self.param_sizes;
        let exchange = &self.exchange;
        let scratch = &mut self.fingerprint_scratch;

        let mut sw = Stopwatch::start();
        let (input_grad, backward_s, exposed_s, hook_shipped, exchanged) =
            std::thread::scope(|s| {
                let (tx, rx) = mpsc::channel::<(usize, &mut [f32])>();
                // The communication thread: the same per-bucket exchange as
                // the serialized path, in arrival order; `(bucket, seconds)`
                // in completion order. The first error drops `rx`, so the
                // producer's remaining sends fail harmlessly and backward
                // still completes before the error surfaces.
                let comm_join = s.spawn(move || {
                    rx.into_iter()
                        .map(|(i, slice)| {
                            let dur = exchange
                                .exchange_bucket(comm, policy, i, slice, scratch, counters)?;
                            Ok((i, dur))
                        })
                        .collect::<Result<Vec<(usize, f64)>, CollectiveError>>()
                });

                // `boundary` marks the lowest packed element (the loss scalar
                // is packed up front), `param_end` the lowest packed parameter
                // index; both walk downward with the shipper's `next_bucket`.
                let mut shipper = Shipper {
                    buckets,
                    tx,
                    remaining: Some(&mut self.flat[..]),
                    next_bucket: buckets.len(),
                };
                let mut boundary = loss_off;
                let mut param_end = param_sizes.len();
                // A bucket holding only the loss scalar (bucket size divides
                // the gradient count exactly) is ready before backward starts.
                shipper.ship_ready(boundary);
                let mut seg_sizes: Vec<usize> = Vec::new();
                let mut hook_shipped = 0u64;
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
                    let start = boundary - seg_elems;
                    let rem = shipper
                        .remaining
                        .as_deref_mut()
                        .expect("flat buffer over-shipped");
                    let mut off = start;
                    seg.visit_params(&mut |p| {
                        let n = p.grad.numel();
                        rem[off..off + n].copy_from_slice(p.grad.data());
                        off += n;
                    });
                    boundary = start;
                    param_end -= seg_sizes.len();
                    hook_shipped += shipper.ship_ready(boundary);
                });
                assert_eq!(
                    param_end, 0,
                    "backward_hooked finished without announcing every parameter"
                );
                assert_eq!(
                    shipper.next_bucket, 0,
                    "backward finished with buckets unshipped"
                );
                // Hanging up ends the communication thread's loop.
                drop(shipper);
                let backward_s = sw.lap();
                let exchanged = comm_join
                    .join()
                    .expect("overlap communication thread panicked");
                let exposed_s = sw.lap();
                (input_grad, backward_s, exposed_s, hook_shipped, exchanged)
            });

        for (i, dur) in exchanged? {
            self.profile.bucket_seconds[i] += dur;
        }
        self.profile.exposed_seconds += exposed_s;
        self.profile.rounds += 1;
        self.profile.overlapped_rounds += 1;
        self.profile.hook_shipped_buckets += hook_shipped;
        if let Some(rec) = &self.exchange.recorder {
            rec.counter_add("all_reduce_rounds", 1);
            rec.counter_add("all_reduce_overlapped_rounds", 1);
        }

        Ok(OverlapOutcome {
            mean_loss: self.scatter_mean(model, comm.size()),
            input_grad,
            backward_s,
            exposed_s,
        })
    }

    /// Infallible wrapper over [`GradBucket::backward_overlapped_with_retry`]
    /// with the default retry policy (for tests and fault-free callers).
    pub fn backward_overlapped(
        &mut self,
        model: &mut dyn HookedBackward,
        dlogits: &Tensor,
        comm: &dyn Collective,
        local_loss: f32,
    ) -> OverlapOutcome {
        let mut counters = RecoveryCounters::default();
        self.backward_overlapped_with_retry(
            model,
            dlogits,
            comm,
            local_loss,
            &RetryPolicy::default(),
            &mut counters,
        )
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
    /// Replica-thread wall seconds in backward, including bucket
    /// packing and shipping.
    pub backward_s: f64,
    /// Replica-thread wall seconds blocked on communication after
    /// backward returned — the exposed all-reduce time.
    pub exposed_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_collective::{create_collective, Backend};
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
        use ets_collective::{FaultEvent, FaultKind, FaultPlan, FaultyCollective};
        if delay_ms > 0 {
            thread::sleep(std::time::Duration::from_millis(delay_ms));
        }
        let flip = FaultEvent {
            at_s: 0.0,
            duration_s: 0.0,
            kind: FaultKind::PayloadBitFlip {
                rank: 1,
                at_step: 0,
                element: 0,
                bit: 30,
            },
        };
        let plan = FaultPlan {
            events: if fingerprint { vec![flip] } else { Vec::new() },
            ..FaultPlan::default()
        };
        let c = FaultyCollective::new(c, Arc::new(plan.compile(1)));
        c.set_step(0);
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
        gb.set_fingerprint_verify(fingerprint, 1);
        let policy = RetryPolicy::default();
        let mut counters = RecoveryCounters::default();
        let (loss, dx) = if overlapped {
            let o = gb
                .backward_overlapped_with_retry(
                    &mut m,
                    &out.dlogits,
                    &c,
                    out.loss,
                    &policy,
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
                .all_reduce_with_retry(&mut m, &c, out.loss, &policy, &mut counters)
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
            for bucket_elems in [64usize, 0, 1 << 20] {
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
    fn bucket_layout_covers_flat_exactly() {
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
        for bucket_elems in [100usize, 1 << 20] {
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
        assert!(gb.last_reduction_is_finite());
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
        assert!(!gb.last_reduction_is_finite());
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
}
