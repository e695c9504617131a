//! Deterministic fault injection for the collective layer.
//!
//! The paper's one-hour number assumes a healthy 1024-core pod. At that
//! scale the *normal* operating condition includes degraded ICI links,
//! straggler replicas, and preempted workers, so the training stack must
//! degrade gracefully and recover exactly. This module provides the
//! shared vocabulary for injecting such faults **deterministically**:
//!
//! - [`FaultPlan`] — a seeded, serializable schedule of fault events with
//!   absolute sim-time triggers. The same plan always produces the same
//!   perturbation, so chaos runs are reproducible bit for bit.
//! - [`FaultSchedule`] — the plan compiled against a step clock: per-step
//!   slowdown multipliers, per-step transient-failure counts, and the
//!   sorted list of preemption steps. Every rank compiles the identical
//!   schedule, which keeps fault injection SPMD-consistent (a rank that
//!   fails alone would deadlock its peers inside a collective).
//! - [`CollectiveError`] — typed errors for the fallible collective API
//!   ([`Collective::try_all_reduce_mean`] and friends) instead of panics.
//! - [`FaultyCollective`] — a decorator that wraps *any* backend and
//!   injects scheduled transient failures into the fallible gradient
//!   path, leaving the infallible paths (BN sync, eval, broadcast)
//!   untouched.
//! - [`retry_collective`] — bounded retry with (virtual) exponential
//!   backoff; exhaustion surfaces as a typed
//!   [`CollectiveError::RetriesExhausted`], never a panic.
//!
//! Determinism rules (enforced by the chaos harness in the workspace
//! root):
//!
//! 1. Timing-only faults (link degradation, stragglers) perturb *virtual
//!    time* only — payloads are never touched, so training losses stay
//!    bitwise identical to the fault-free run.
//! 2. Transient collective failures fail an attempt on **every rank
//!    symmetrically** before any data moves; the retry then reruns the
//!    identical reduction, so results are bitwise unchanged.
//! 3. Preemption discards state back to the last checkpoint; replaying
//!    the lost steps from a bit-exact snapshot reproduces the
//!    uninterrupted trajectory exactly.

use crate::backend::Collective;
use crate::comm::Pieces;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Typed errors for the fallible collective API.
// ---------------------------------------------------------------------------

/// Typed failure of a collective operation. The infallible [`Collective`]
/// methods keep their panic-on-misuse contract; the `try_*` methods
/// return these instead so robustness layers (retry, fault injection)
/// can react programmatically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CollectiveError {
    /// A zero-length payload was handed to a payload-carrying op.
    EmptyPayload {
        /// Which operation rejected it.
        op: &'static str,
    },
    /// A broadcast root outside `0..size`.
    InvalidRoot { root: usize, size: usize },
    /// An injected (or observed) transient failure; retrying may succeed.
    Transient {
        /// Which operation failed.
        op: &'static str,
        /// Step at which the fault fired.
        step: u64,
        /// Failed attempt number at this step (1-based).
        attempt: u32,
    },
    /// The retry budget was exhausted without a successful attempt.
    RetriesExhausted {
        /// Attempts made (== the policy's `max_attempts`).
        attempts: u32,
        /// The error from the final attempt.
        last: Box<CollectiveError>,
    },
    /// A payload integrity check failed and the corruption was attributed
    /// to `rank`'s copy of gradient bucket `bucket` at step `step`. Not
    /// transient: the caller decides between a verified bucket retry and
    /// quarantining the rank — blind re-execution via [`retry_collective`]
    /// would hide the attribution.
    CorruptPayload {
        /// Rank whose payload failed the cross-rank fingerprint check.
        rank: usize,
        /// Gradient bucket index the corruption was detected in.
        bucket: usize,
        /// Training step at which the corruption was detected.
        step: u64,
    },
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::EmptyPayload { op } => {
                write!(f, "{op}: zero-length payload")
            }
            CollectiveError::InvalidRoot { root, size } => {
                write!(f, "broadcast root {root} out of range for world of {size}")
            }
            CollectiveError::Transient { op, step, attempt } => {
                write!(
                    f,
                    "transient {op} failure at step {step} (attempt {attempt})"
                )
            }
            CollectiveError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            CollectiveError::CorruptPayload { rank, bucket, step } => {
                write!(
                    f,
                    "corrupt payload attributed to rank {rank} (bucket {bucket}, step {step})"
                )
            }
        }
    }
}

impl std::error::Error for CollectiveError {}

impl CollectiveError {
    /// True when a retry might succeed (only [`CollectiveError::Transient`]).
    pub fn is_transient(&self) -> bool {
        matches!(self, CollectiveError::Transient { .. })
    }
}

// ---------------------------------------------------------------------------
// Retry with (virtual) exponential backoff.
// ---------------------------------------------------------------------------

/// Bounded-retry policy for transient collective failures. Backoff is
/// *virtual* (accounted, not slept): the simulated pod charges the time
/// to the run's timeline without stalling the test process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries). Must be ≥ 1.
    pub max_attempts: u32,
    /// Virtual seconds of backoff before the first retry.
    pub base_backoff_s: f64,
    /// Backoff growth factor per retry.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_s: 0.05,
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Virtual backoff charged before retry number `retry` (1-based).
    pub fn backoff_before(&self, retry: u32) -> f64 {
        self.base_backoff_s * self.multiplier.powi(retry.saturating_sub(1) as i32)
    }
}

/// Outcome of a successful (possibly retried) collective call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RetryOutcome {
    /// Attempts made, including the successful one (1 = no fault).
    pub attempts: u32,
    /// Total virtual backoff seconds charged by failed attempts.
    pub backoff_s: f64,
}

/// Runs `op` under `policy`, retrying transient failures with virtual
/// exponential backoff. Non-transient errors propagate immediately;
/// exhausting the budget returns [`CollectiveError::RetriesExhausted`].
pub fn retry_collective(
    policy: &RetryPolicy,
    mut op: impl FnMut() -> Result<(), CollectiveError>,
) -> Result<RetryOutcome, CollectiveError> {
    let max = policy.max_attempts.max(1);
    let mut backoff_s = 0.0;
    for attempt in 1..=max {
        match op() {
            Ok(()) => {
                return Ok(RetryOutcome {
                    attempts: attempt,
                    backoff_s,
                })
            }
            Err(e) if e.is_transient() && attempt < max => {
                backoff_s += policy.backoff_before(attempt);
            }
            Err(e) if e.is_transient() => {
                return Err(CollectiveError::RetriesExhausted {
                    attempts: max,
                    last: Box::new(e),
                });
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("loop returns on every branch")
}

// ---------------------------------------------------------------------------
// The fault plan: seeded, serializable, sim-time triggered.
// ---------------------------------------------------------------------------

/// One kind of fault. Timing faults (link degradation, stragglers) are
/// *virtual-time only*; transient failures and preemptions exercise the
/// recovery machinery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The outgoing ICI link of member `link` runs at `scale` of nominal
    /// bandwidth (0 < scale ≤ 1). Bulk-synchronous collectives stall on
    /// the slowest link, so one degraded link stretches every step whose
    /// window overlaps the fault.
    LinkDegrade { link: usize, scale: f64 },
    /// Replica `replica` computes `slowdown`× slower (slowdown ≥ 1).
    /// SPMD training is gated by its slowest member, so the whole step
    /// stretches.
    Straggler { replica: usize, slowdown: f64 },
    /// Replica `replica` is preempted; the SPMD job dies at the step the
    /// trigger time falls in and restarts from the last checkpoint.
    Preempt { replica: usize },
    /// The gradient exchange at the trigger step fails `failures` times
    /// (symmetrically on every rank) before succeeding; the retry layer
    /// absorbs it.
    TransientCollective { failures: u32 },
    /// Replica `rank` is lost **permanently** at step `at_step` — the
    /// host is gone and will not come back. Unlike [`FaultKind::Preempt`]
    /// (rewind and replay at the same world size), permanent loss forces
    /// an *elastic resize*: drain in-flight buckets, persist a durable
    /// checkpoint, rebuild the collective and BN groups for world N−1,
    /// re-shard the data, rescale the LR for the shrunken global batch,
    /// and resume. Step-keyed (not time-keyed) because the resize
    /// protocol is a step-boundary barrier; `at_s`/`duration_s` on the
    /// carrying [`FaultEvent`] are ignored for this kind. The `rank` is
    /// interpreted **modulo the surviving world** at trigger time, so a
    /// seeded plan always names a live member even after earlier losses.
    PermanentLoss { rank: usize, at_step: u64 },
    /// **Asymmetric data fault**: rank `rank`'s copy of the reduced
    /// gradient payload gets bit `bit` of element `element` (modulo the
    /// payload length) flipped at step `at_step` — silent data corruption
    /// on the receive side of an all-reduce. Unlike every timing fault
    /// above, this touches *numerics on a single rank*. Without the
    /// fingerprint defense nothing detects it: under the trainer's
    /// sharded update a flip in a parameter that rank owns silently
    /// corrupts every replica's weights alike, and a flip in a parameter
    /// a peer owns is never read. Step-keyed like [`FaultKind::PermanentLoss`];
    /// `rank` is interpreted modulo the surviving world at trigger time.
    /// One-shot: the flip fires on the first exchanged bucket of the
    /// step and never re-fires on a verified retry of that bucket.
    PayloadBitFlip {
        rank: usize,
        at_step: u64,
        element: u32,
        bit: u8,
    },
    /// **Asymmetric compute fault**: at step `at_step`, rank `rank`'s
    /// next ABFT-verified GEMM tile gets bit `bit` of its first output
    /// element flipped before the tile checksum check runs — a
    /// misbehaving core producing a wrong product. Detected (and healed
    /// by deterministic tile recompute) only when the ABFT verify mode
    /// is enabled; with verification off this is a *silent* corruption,
    /// which is exactly the escape the chaos tier asserts cannot happen
    /// under the defense. One-shot per event.
    ComputeCorruption { rank: usize, at_step: u64, bit: u8 },
}

/// A fault with an absolute sim-time trigger. `duration_s` only matters
/// for timing faults (a window); point faults (preempt, transient) fire
/// once at `at_s`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Absolute virtual trigger time, seconds from run start.
    pub at_s: f64,
    /// Window length for timing faults; ignored for point faults.
    pub duration_s: f64,
    pub kind: FaultKind,
}

/// A deterministic chaos schedule: the full description of every fault a
/// run will experience, plus the recovery knobs (checkpoint cadence,
/// restart cost, retry policy). Part of an `Experiment`, so a chaos run
/// is reproducible from its config alone.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// The fault events, in any order (compilation sorts them).
    pub events: Vec<FaultEvent>,
    /// Virtual seconds one healthy training step spans — the clock that
    /// converts `at_s` triggers into step indices.
    pub virtual_step_seconds: f64,
    /// Full-state checkpoint cadence, in steps (recovery granularity for
    /// preemption).
    pub checkpoint_every_steps: u64,
    /// Virtual seconds a preemption restart costs (scheduling + restore).
    pub restart_delay_s: f64,
    /// Retry policy for transient collective failures.
    pub retry: RetryPolicy,
    /// Virtual seconds a resize-triggered durable checkpoint costs
    /// (serialize + fsync + rename on every surviving host).
    pub resize_checkpoint_s: f64,
    /// Virtual seconds rebuilding the collective, BN groups, and data
    /// shards for the shrunken world costs.
    pub resize_rebuild_s: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            events: Vec::new(),
            virtual_step_seconds: 1.0,
            checkpoint_every_steps: 4,
            restart_delay_s: 5.0,
            retry: RetryPolicy::default(),
            resize_checkpoint_s: 2.0,
            resize_rebuild_s: 3.0,
        }
    }
}

/// SplitMix64 — local copy so the plan generator has no dependency on
/// the tensor crate's RNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_f64(r: u64) -> f64 {
    (r >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// An empty plan (no faults, default recovery knobs).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a seeded random plan: `n_faults` events over the first
    /// `horizon_s` virtual seconds of a `world`-member run. Same seed ⇒
    /// identical plan, always.
    pub fn generate(seed: u64, world: usize, horizon_s: f64, n_faults: usize) -> Self {
        assert!(world >= 1, "world must have at least one member");
        assert!(horizon_s > 0.0, "horizon must be positive");
        let mut s = seed ^ 0x005e_edfa_u64.rotate_left(17);
        let mut events = Vec::with_capacity(n_faults);
        for _ in 0..n_faults {
            let at_s = unit_f64(splitmix64(&mut s)) * horizon_s;
            let duration_s = (0.05 + 0.3 * unit_f64(splitmix64(&mut s))) * horizon_s;
            let member = (splitmix64(&mut s) % world as u64) as usize;
            let kind = match splitmix64(&mut s) % 4 {
                0 => FaultKind::LinkDegrade {
                    link: member,
                    scale: 0.25 + 0.65 * unit_f64(splitmix64(&mut s)),
                },
                1 => FaultKind::Straggler {
                    replica: member,
                    slowdown: 1.5 + 2.5 * unit_f64(splitmix64(&mut s)),
                },
                2 => FaultKind::Preempt { replica: member },
                _ => FaultKind::TransientCollective {
                    failures: 1 + (splitmix64(&mut s) % 2) as u32,
                },
            };
            events.push(FaultEvent {
                at_s,
                duration_s,
                kind,
            });
        }
        FaultPlan {
            events,
            ..FaultPlan::default()
        }
    }

    /// Generates a seeded *elastic* plan: the classic mix from
    /// [`FaultPlan::generate`] plus `n_losses` permanent replica losses
    /// at seeded steps inside the first `horizon_s` of virtual time.
    /// Deliberately a **separate** entry point — the classic generator's
    /// seeded streams are pinned by the PR 2 chaos suites and must not
    /// shift.
    pub fn generate_elastic(
        seed: u64,
        world: usize,
        horizon_s: f64,
        n_faults: usize,
        n_losses: usize,
    ) -> Self {
        assert!(
            n_losses < world,
            "cannot permanently lose {n_losses} of {world} replicas"
        );
        let mut plan = FaultPlan::generate(seed, world, horizon_s, n_faults);
        let mut s = seed ^ 0x00e1_a5fa_u64.rotate_left(29);
        let horizon_steps = (horizon_s / plan.virtual_step_seconds).floor().max(2.0) as u64;
        for _ in 0..n_losses {
            // Avoid step 0 (a resize before the first step is a plain
            // smaller-world start, not an interesting resize).
            let at_step = 1 + splitmix64(&mut s) % (horizon_steps - 1);
            let rank = (splitmix64(&mut s) % world as u64) as usize;
            plan.events.push(FaultEvent {
                at_s: at_step as f64 * plan.virtual_step_seconds,
                duration_s: 0.0,
                kind: FaultKind::PermanentLoss { rank, at_step },
            });
        }
        plan
    }

    /// Generates a seeded *corruption cocktail*: the classic timing mix
    /// from [`FaultPlan::generate`] plus `n_flips` single-rank payload
    /// bit flips and `n_compute` single-rank GEMM output corruptions at
    /// seeded steps inside the first `horizon_s` of virtual time. Like
    /// [`FaultPlan::generate_elastic`], this is a **separate** entry
    /// point with its own seed stream so the classic generator's pinned
    /// event sequences never shift.
    ///
    /// Payload flips draw bits from the high-mantissa/exponent range
    /// (23..=30): large enough that the corrupted rank's payload sum
    /// deviates far beyond f32 reduction rounding, which is what the
    /// two-rank attribution tie-break relies on. Compute flips draw from
    /// the same exponent range (23..=30): an exponent flip changes the
    /// element's magnitude by at least 2×, which is always above the
    /// ABFT tile checksum's shape-derived tolerance, whereas a
    /// low-mantissa flip can hide below the rounding noise floor of a
    /// large tile.
    pub fn generate_corruption(
        seed: u64,
        world: usize,
        horizon_s: f64,
        n_faults: usize,
        n_flips: usize,
        n_compute: usize,
    ) -> Self {
        let mut plan = FaultPlan::generate(seed, world, horizon_s, n_faults);
        let mut s = seed ^ 0x00c0_44fa_u64.rotate_left(23);
        let horizon_steps = (horizon_s / plan.virtual_step_seconds).floor().max(2.0) as u64;
        for _ in 0..n_flips {
            let at_step = 1 + splitmix64(&mut s) % (horizon_steps - 1);
            let rank = (splitmix64(&mut s) % world as u64) as usize;
            let element = splitmix64(&mut s) as u32;
            let bit = 23 + (splitmix64(&mut s) % 8) as u8;
            plan.events.push(FaultEvent {
                at_s: at_step as f64 * plan.virtual_step_seconds,
                duration_s: 0.0,
                kind: FaultKind::PayloadBitFlip {
                    rank,
                    at_step,
                    element,
                    bit,
                },
            });
        }
        for _ in 0..n_compute {
            let at_step = 1 + splitmix64(&mut s) % (horizon_steps - 1);
            let rank = (splitmix64(&mut s) % world as u64) as usize;
            let bit = 23 + (splitmix64(&mut s) % 8) as u8;
            plan.events.push(FaultEvent {
                at_s: at_step as f64 * plan.virtual_step_seconds,
                duration_s: 0.0,
                kind: FaultKind::ComputeCorruption { rank, at_step, bit },
            });
        }
        plan
    }

    /// Number of corruption events ([`FaultKind::PayloadBitFlip`] +
    /// [`FaultKind::ComputeCorruption`]) in the plan.
    pub fn corruption_events(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::PayloadBitFlip { .. } | FaultKind::ComputeCorruption { .. }
                )
            })
            .count()
    }

    /// Validates internal consistency, panicking with a clear message —
    /// mirrors `Experiment::validate`.
    pub fn validate(&self) {
        assert!(
            self.virtual_step_seconds > 0.0,
            "virtual_step_seconds must be positive"
        );
        assert!(
            self.checkpoint_every_steps >= 1,
            "checkpoint cadence must be at least one step"
        );
        assert!(
            self.restart_delay_s >= 0.0,
            "restart delay cannot be negative"
        );
        assert!(
            self.retry.max_attempts >= 1,
            "retry needs at least one attempt"
        );
        for (i, ev) in self.events.iter().enumerate() {
            assert!(ev.at_s >= 0.0, "event {i}: negative trigger time");
            assert!(ev.duration_s >= 0.0, "event {i}: negative duration");
            match ev.kind {
                FaultKind::LinkDegrade { scale, .. } => {
                    assert!(
                        scale > 0.0 && scale <= 1.0,
                        "event {i}: link scale {scale} outside (0, 1]"
                    );
                }
                FaultKind::Straggler { slowdown, .. } => {
                    assert!(
                        slowdown >= 1.0,
                        "event {i}: straggler slowdown {slowdown} < 1"
                    );
                }
                FaultKind::Preempt { .. } => {}
                FaultKind::TransientCollective { failures } => {
                    assert!(failures >= 1, "event {i}: zero transient failures");
                }
                FaultKind::PermanentLoss { .. } => {}
                FaultKind::PayloadBitFlip { bit, .. } => {
                    assert!(bit < 32, "event {i}: payload flip bit {bit} outside f32");
                }
                FaultKind::ComputeCorruption { bit, .. } => {
                    assert!(bit < 32, "event {i}: compute flip bit {bit} outside f32");
                }
            }
        }
        assert!(
            self.resize_checkpoint_s >= 0.0,
            "resize checkpoint cost cannot be negative"
        );
        assert!(
            self.resize_rebuild_s >= 0.0,
            "resize rebuild cost cannot be negative"
        );
    }

    /// Number of [`FaultKind::PermanentLoss`] events in the plan.
    pub fn permanent_losses(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::PermanentLoss { .. }))
            .count()
    }

    /// True when the plan contains only timing faults (no preemptions,
    /// no transient failures) — the class that must leave training
    /// losses bitwise unchanged.
    pub fn is_timing_only(&self) -> bool {
        self.events.iter().all(|e| {
            matches!(
                e.kind,
                FaultKind::LinkDegrade { .. } | FaultKind::Straggler { .. }
            )
        })
    }

    /// Compiles the plan against a `total_steps`-step run, producing the
    /// per-step tables every rank consults. Pure function of the plan —
    /// every rank gets the identical schedule.
    pub fn compile(&self, total_steps: u64) -> FaultSchedule {
        self.validate();
        let step_s = self.virtual_step_seconds;
        let mut slowdown = vec![1.0f64; total_steps as usize];
        let mut transient: BTreeMap<u64, u32> = BTreeMap::new();
        let mut preempts: Vec<u64> = Vec::new();
        let mut losses: Vec<(u64, usize)> = Vec::new();
        let mut payload_flips: BTreeMap<u64, (usize, u32, u8)> = BTreeMap::new();
        let mut compute_flips: BTreeMap<u64, (usize, u8)> = BTreeMap::new();
        for ev in &self.events {
            match ev.kind {
                FaultKind::LinkDegrade { scale, .. } => {
                    apply_window(&mut slowdown, step_s, ev.at_s, ev.duration_s, 1.0 / scale);
                }
                FaultKind::Straggler { slowdown: f, .. } => {
                    apply_window(&mut slowdown, step_s, ev.at_s, ev.duration_s, f);
                }
                FaultKind::Preempt { .. } => {
                    let step = (ev.at_s / step_s).floor() as u64;
                    if step < total_steps {
                        preempts.push(step);
                    }
                }
                FaultKind::TransientCollective { failures } => {
                    let step = (ev.at_s / step_s).floor() as u64;
                    if step < total_steps {
                        let e = transient.entry(step).or_insert(0);
                        *e = (*e).max(failures);
                    }
                }
                FaultKind::PermanentLoss { rank, at_step } => {
                    // Step-keyed: the resize protocol is a step-boundary
                    // barrier, so `at_step` is authoritative and `at_s`
                    // is ignored for this kind.
                    if at_step < total_steps {
                        losses.push((at_step, rank));
                    }
                }
                FaultKind::PayloadBitFlip {
                    rank,
                    at_step,
                    element,
                    bit,
                } => {
                    // Step-keyed like PermanentLoss; at most one flip per
                    // step (first event wins) keeps injection one-shot.
                    if at_step < total_steps {
                        payload_flips.entry(at_step).or_insert((rank, element, bit));
                    }
                }
                FaultKind::ComputeCorruption { rank, at_step, bit } => {
                    if at_step < total_steps {
                        compute_flips.entry(at_step).or_insert((rank, bit));
                    }
                }
            }
        }
        preempts.sort_unstable();
        preempts.dedup();
        losses.sort_unstable();
        losses.dedup();
        FaultSchedule {
            step_s,
            slowdown,
            transient,
            preempts,
            losses,
            payload_flips,
            compute_flips,
            checkpoint_every_steps: self.checkpoint_every_steps.max(1),
            restart_delay_s: self.restart_delay_s,
            retry: self.retry,
            resize_checkpoint_s: self.resize_checkpoint_s,
            resize_rebuild_s: self.resize_rebuild_s,
        }
    }
}

/// Stretches every step whose window overlaps `[at, at + dur)` by
/// `factor`, scaled by the overlap fraction (a fault covering half a
/// step charges half its slowdown). Factors from multiple faults
/// compose multiplicatively.
fn apply_window(slowdown: &mut [f64], step_s: f64, at: f64, dur: f64, factor: f64) {
    if dur <= 0.0 || factor == 1.0 {
        return;
    }
    let end = at + dur;
    for (k, s) in slowdown.iter_mut().enumerate() {
        let w0 = k as f64 * step_s;
        let w1 = w0 + step_s;
        let overlap = (end.min(w1) - at.max(w0)).max(0.0);
        if overlap > 0.0 {
            let frac = overlap / step_s;
            *s *= 1.0 + (factor - 1.0) * frac;
        }
    }
}

/// A [`FaultPlan`] compiled against a step clock: what every rank (and
/// the trainer's outer recovery loop) actually consults.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSchedule {
    step_s: f64,
    slowdown: Vec<f64>,
    transient: BTreeMap<u64, u32>,
    preempts: Vec<u64>,
    losses: Vec<(u64, usize)>,
    payload_flips: BTreeMap<u64, (usize, u32, u8)>,
    compute_flips: BTreeMap<u64, (usize, u8)>,
    checkpoint_every_steps: u64,
    restart_delay_s: f64,
    retry: RetryPolicy,
    resize_checkpoint_s: f64,
    resize_rebuild_s: f64,
}

impl FaultSchedule {
    /// An empty schedule (no faults) over `total_steps`.
    pub fn empty(total_steps: u64) -> Self {
        FaultPlan::default().compile(total_steps)
    }

    /// Nominal virtual seconds per healthy step.
    pub fn step_seconds(&self) -> f64 {
        self.step_s
    }

    /// Slowdown multiplier (≥ 1) for step `step`; 1.0 when healthy.
    pub fn slowdown_at(&self, step: u64) -> f64 {
        self.slowdown.get(step as usize).copied().unwrap_or(1.0)
    }

    /// Scheduled transient failures for step `step`'s gradient exchange.
    pub fn transient_failures_at(&self, step: u64) -> u32 {
        self.transient.get(&step).copied().unwrap_or(0)
    }

    /// Preemption steps, ascending and deduplicated.
    pub fn preempt_steps(&self) -> &[u64] {
        &self.preempts
    }

    /// True when any preemption is scheduled.
    pub fn has_preempts(&self) -> bool {
        !self.preempts.is_empty()
    }

    /// Resize boundaries: the loss events grouped by step into ascending
    /// `(at_step, ranks_lost)` pairs, one elastic resize protocol each.
    /// The trainer and the pod simulator both shrink their world at
    /// exactly these boundaries.
    pub fn resize_boundaries(&self) -> Vec<(u64, usize)> {
        let mut boundaries: Vec<(u64, usize)> = Vec::new();
        for &(step, _rank) in &self.losses {
            match boundaries.last_mut() {
                Some((s, k)) if *s == step => *k += 1,
                _ => boundaries.push((step, 1)),
            }
        }
        boundaries
    }

    /// True when any permanent replica loss is scheduled.
    pub fn has_losses(&self) -> bool {
        !self.losses.is_empty()
    }

    /// The payload bit flip scheduled for step `step`, if any, as
    /// `(rank, element, bit)`. `rank` is modulo the surviving world,
    /// `element` modulo the payload length at injection time.
    pub fn payload_flip_at(&self, step: u64) -> Option<(usize, u32, u8)> {
        self.payload_flips.get(&step).copied()
    }

    /// The GEMM output corruption scheduled for step `step`, if any, as
    /// `(rank, bit)`. `rank` is modulo the surviving world.
    pub fn compute_corruption_at(&self, step: u64) -> Option<(usize, u8)> {
        self.compute_flips.get(&step).copied()
    }

    /// True when any data-corruption fault (payload flip or compute
    /// corruption) is scheduled — the trainer keys its fingerprint
    /// verification, ABFT arming, and durable-checkpoint cadence off
    /// this.
    pub fn has_corruption(&self) -> bool {
        !self.payload_flips.is_empty() || !self.compute_flips.is_empty()
    }

    /// Virtual seconds charged for the durable checkpoint leg of a
    /// resize.
    pub fn resize_checkpoint_s(&self) -> f64 {
        self.resize_checkpoint_s
    }

    /// Virtual seconds charged for rebuilding collectives/BN groups/
    /// shards during a resize.
    pub fn resize_rebuild_s(&self) -> f64 {
        self.resize_rebuild_s
    }

    /// True when any transient collective failure is scheduled.
    pub fn has_transients(&self) -> bool {
        !self.transient.is_empty()
    }

    /// True when any step carries a timing slowdown.
    pub fn has_timing(&self) -> bool {
        self.slowdown.iter().any(|&s| s > 1.0)
    }

    /// True when the schedule injects nothing at all.
    pub fn is_empty(&self) -> bool {
        !self.has_preempts()
            && !self.has_transients()
            && !self.has_timing()
            && !self.has_losses()
            && !self.has_corruption()
    }

    /// Checkpoint cadence in steps.
    pub fn checkpoint_every(&self) -> u64 {
        self.checkpoint_every_steps
    }

    /// Virtual seconds charged per preemption restart.
    pub fn restart_delay_s(&self) -> f64 {
        self.restart_delay_s
    }

    /// Retry policy for transient collective failures.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }
}

// ---------------------------------------------------------------------------
// FaultyCollective: the decorator that injects scheduled failures.
// ---------------------------------------------------------------------------

/// Wraps any [`Collective`] backend and injects the schedule's transient
/// failures into the **fallible** gradient path
/// ([`Collective::try_all_reduce_mean`]). Infallible operations delegate
/// untouched, so BN sync, distributed eval, and checkpoint broadcasts
/// never see injected faults (they share the step's fate through the
/// timing model instead).
///
/// Injection is symmetric: the schedule is a pure function of the plan,
/// every rank holds the same one, and a failed attempt returns *before*
/// touching the underlying communicator — so no rank ever enters a
/// collective its peers skipped (which would deadlock).
pub struct FaultyCollective {
    inner: Box<dyn Collective>,
    schedule: Arc<FaultSchedule>,
    step: AtomicU64,
    failed_attempts_this_step: AtomicU32,
    injected_failures: AtomicU64,
    /// Last step a payload bit flip was injected at on this rank
    /// (`u64::MAX` = never). Flips are one-shot per scheduled step, so a
    /// verified bucket retry re-runs the clean reduction and the
    /// corrected trajectory is bitwise identical to the unfaulted one.
    flip_done_step: AtomicU64,
    injected_flips: AtomicU64,
    /// Optional flight recorder; each successful exchange attempt records
    /// a wall span on it. A disabled recorder makes every recording call a
    /// cheap early-return, so fault-free hot paths pay nothing.
    recorder: Option<Arc<ets_obs::Recorder>>,
}

impl FaultyCollective {
    /// Decorates `inner` with the shared `schedule`.
    pub fn new(inner: Box<dyn Collective>, schedule: Arc<FaultSchedule>) -> Self {
        FaultyCollective {
            inner,
            schedule,
            step: AtomicU64::new(0),
            failed_attempts_this_step: AtomicU32::new(0),
            injected_failures: AtomicU64::new(0),
            flip_done_step: AtomicU64::new(u64::MAX),
            injected_flips: AtomicU64::new(0),
            recorder: None,
        }
    }

    /// Attaches a flight recorder: every exchange attempt that reaches the
    /// inner communicator records a [`ets_obs::phase::RETRY_ATTEMPT`] span
    /// on [`ets_obs::Lane::WallCollective`] (aux = attempt number).
    pub fn attach_recorder(&mut self, rec: Arc<ets_obs::Recorder>) {
        self.recorder = Some(rec);
    }

    /// Advances the injector's step clock (call once per training step,
    /// on every rank, before the gradient exchange).
    pub fn set_step(&self, step: u64) {
        self.step.store(step, Ordering::Relaxed);
        self.failed_attempts_this_step.store(0, Ordering::Relaxed);
    }

    /// Total transient failures injected so far on this rank.
    pub fn injected_failures(&self) -> u64 {
        self.injected_failures.load(Ordering::Relaxed)
    }

    /// Total payload bit flips injected so far on this rank.
    pub fn injected_payload_flips(&self) -> u64 {
        self.injected_flips.load(Ordering::Relaxed)
    }

    /// The shared schedule.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }
}

impl Collective for FaultyCollective {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn backend(&self) -> crate::backend::Backend {
        self.inner.backend()
    }
    fn all_reduce_sum(&self, buf: &mut [f32]) {
        self.inner.all_reduce_sum(buf);
    }
    fn all_gather(&self, local: &[f32], out: &mut Vec<f32>) {
        self.inner.all_gather(local, out);
    }
    /// Passes through: faults target the gradient exchange.
    fn all_gather_in_place(&self, payload: &mut dyn Pieces, cuts: &[usize]) {
        self.inner.all_gather_in_place(payload, cuts);
    }
    fn broadcast(&self, buf: &mut [f32], root: usize) {
        self.inner.broadcast(buf, root);
    }
    fn barrier(&self) {
        self.inner.barrier();
    }
    fn stats(&self) -> crate::backend::CollectiveStats {
        self.inner.stats()
    }
    fn scratch_reallocs(&self) -> u64 {
        self.inner.scratch_reallocs()
    }

    fn try_all_reduce_mean(&self, payload: &mut dyn Pieces) -> Result<(), CollectiveError> {
        let step = self.step.load(Ordering::Relaxed);
        let planned = self.schedule.transient_failures_at(step);
        let failed = self.failed_attempts_this_step.load(Ordering::Relaxed);
        if failed < planned {
            // Fail BEFORE touching the payload or the inner communicator:
            // every rank takes this branch for the same attempt, so the
            // group stays in lockstep.
            self.failed_attempts_this_step
                .store(failed + 1, Ordering::Relaxed);
            self.injected_failures.fetch_add(1, Ordering::Relaxed);
            return Err(CollectiveError::Transient {
                op: "all_reduce_mean",
                step,
                attempt: failed + 1,
            });
        }
        let result = if let Some(rec) = &self.recorder {
            let _span = rec.wall_span(
                ets_obs::Lane::WallCollective,
                ets_obs::phase::RETRY_ATTEMPT,
                step,
                (failed + 1) as u64,
            );
            self.inner.try_all_reduce_mean(payload)
        } else {
            self.inner.try_all_reduce_mean(payload)
        };
        if result.is_ok() {
            self.maybe_flip_payload(step, payload);
        }
        result
    }
}

impl FaultyCollective {
    /// Applies the step's scheduled [`FaultKind::PayloadBitFlip`] to this
    /// rank's copy of the *reduced* payload — receive-side silent data
    /// corruption. Asymmetric by design: only the scheduled rank (modulo
    /// the surviving world) mutates its copy. Without the fingerprint
    /// defense nothing detects it. If the flip lands in a parameter that
    /// rank owns in the trainer's sharded update, the rank's update reads
    /// it and the copy carries the corrupted weights into every peer, so
    /// the replicas still agree. A flip in a parameter a peer owns
    /// reaches no weight: the optimizer never reads it there, and the
    /// owner's new weights are copied over that rank's. The flipped
    /// element is `element` modulo the payload
    /// length, counted across the pieces in order. One-shot per scheduled
    /// step: a verified retry of the bucket re-runs the clean reduction.
    fn maybe_flip_payload(&self, step: u64, payload: &mut dyn Pieces) {
        let Some((rank, element, bit)) = self.schedule.payload_flip_at(step) else {
            return;
        };
        if rank % self.inner.size() != self.inner.rank() {
            return;
        }
        let len = payload.elems();
        if len == 0 || self.flip_done_step.load(Ordering::Relaxed) == step {
            return;
        }
        self.flip_done_step.store(step, Ordering::Relaxed);
        let mut left = Some(element as usize % len);
        payload.for_each_piece(&mut |piece| {
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
        self.injected_flips.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{create_collective, Backend};
    use std::thread;

    #[test]
    fn plan_generation_is_deterministic() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            let a = FaultPlan::generate(seed, 8, 16.0, 4);
            let b = FaultPlan::generate(seed, 8, 16.0, 4);
            assert_eq!(a, b, "seed {seed}");
            a.validate();
        }
        let a = FaultPlan::generate(1, 8, 16.0, 4);
        let b = FaultPlan::generate(2, 8, 16.0, 4);
        assert_ne!(a, b, "different seeds must differ");
    }

    #[test]
    fn compile_maps_triggers_to_steps() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    at_s: 2.0,
                    duration_s: 2.0,
                    kind: FaultKind::Straggler {
                        replica: 0,
                        slowdown: 3.0,
                    },
                },
                FaultEvent {
                    at_s: 5.5,
                    duration_s: 0.0,
                    kind: FaultKind::Preempt { replica: 1 },
                },
                FaultEvent {
                    at_s: 7.0,
                    duration_s: 0.0,
                    kind: FaultKind::TransientCollective { failures: 2 },
                },
            ],
            ..FaultPlan::default()
        };
        let sched = plan.compile(10);
        // Straggler covers steps 2 and 3 fully.
        assert_eq!(sched.slowdown_at(1), 1.0);
        assert!((sched.slowdown_at(2) - 3.0).abs() < 1e-12);
        assert!((sched.slowdown_at(3) - 3.0).abs() < 1e-12);
        assert_eq!(sched.slowdown_at(4), 1.0);
        assert_eq!(sched.preempt_steps(), &[5]);
        assert_eq!(sched.transient_failures_at(7), 2);
        assert_eq!(sched.transient_failures_at(6), 0);
        assert!(sched.has_timing() && sched.has_preempts() && sched.has_transients());
    }

    #[test]
    fn partial_window_overlap_scales_proportionally() {
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at_s: 0.5,
                duration_s: 0.5,
                kind: FaultKind::LinkDegrade {
                    link: 0,
                    scale: 0.5,
                },
            }],
            ..FaultPlan::default()
        };
        let sched = plan.compile(2);
        // Factor 2 over half of step 0: 1 + (2-1)*0.5 = 1.5.
        assert!((sched.slowdown_at(0) - 1.5).abs() < 1e-12);
        assert_eq!(sched.slowdown_at(1), 1.0);
    }

    #[test]
    fn out_of_range_triggers_are_dropped() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    at_s: 99.0,
                    duration_s: 0.0,
                    kind: FaultKind::Preempt { replica: 0 },
                },
                FaultEvent {
                    at_s: 99.0,
                    duration_s: 0.0,
                    kind: FaultKind::TransientCollective { failures: 1 },
                },
            ],
            ..FaultPlan::default()
        };
        let sched = plan.compile(4);
        assert!(sched.is_empty());
    }

    #[test]
    fn retry_absorbs_transients_and_charges_backoff() {
        let policy = RetryPolicy::default();
        let mut fails = 2;
        let out = retry_collective(&policy, || {
            if fails > 0 {
                fails -= 1;
                Err(CollectiveError::Transient {
                    op: "test",
                    step: 0,
                    attempt: 1,
                })
            } else {
                Ok(())
            }
        })
        .unwrap();
        assert_eq!(out.attempts, 3);
        // 0.05 + 0.10 of virtual backoff.
        assert!((out.backoff_s - 0.15).abs() < 1e-12);
    }

    #[test]
    fn retry_exhaustion_is_typed_not_panicking() {
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let err = retry_collective(&policy, || {
            Err(CollectiveError::Transient {
                op: "test",
                step: 9,
                attempt: 0,
            })
        })
        .unwrap_err();
        match err {
            CollectiveError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(last.is_transient());
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn retry_does_not_retry_permanent_errors() {
        let policy = RetryPolicy::default();
        let mut calls = 0;
        let err = retry_collective(&policy, || {
            calls += 1;
            Err(CollectiveError::EmptyPayload { op: "test" })
        })
        .unwrap_err();
        assert_eq!(calls, 1, "permanent errors must not be retried");
        assert_eq!(err, CollectiveError::EmptyPayload { op: "test" });
    }

    #[test]
    fn faulty_collective_injects_then_recovers_bitwise() {
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at_s: 0.0,
                duration_s: 0.0,
                kind: FaultKind::TransientCollective { failures: 2 },
            }],
            ..FaultPlan::default()
        };
        let sched = Arc::new(plan.compile(4));
        let world = create_collective(Backend::Tree, 3);
        let joins: Vec<_> = world
            .into_iter()
            .map(|c| {
                let sched = Arc::clone(&sched);
                thread::spawn(move || {
                    let fc = FaultyCollective::new(c, sched);
                    let policy = RetryPolicy::default();
                    let mut outs = Vec::new();
                    for step in 0..2u64 {
                        fc.set_step(step);
                        let mut buf = vec![fc.rank() as f32 + 1.0, 2.0];
                        let out =
                            retry_collective(&policy, || fc.try_all_reduce_mean(&mut buf)).unwrap();
                        outs.push((buf, out.attempts));
                    }
                    (outs, fc.injected_failures())
                })
            })
            .collect();
        let results: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        for (outs, injected) in &results {
            // Step 0 needed 3 attempts (2 injected failures), step 1 none.
            assert_eq!(outs[0].1, 3);
            assert_eq!(outs[1].1, 1);
            assert_eq!(*injected, 2);
            // Payloads are unperturbed: (1+2+3)/3 = 2 and 3×2/3 = 2.
            assert_eq!(outs[0].0, vec![2.0, 2.0]);
            assert_eq!(outs[1].0, vec![2.0, 2.0]);
        }
        assert_eq!(results[0].0, results[1].0, "ranks diverged");
    }

    #[test]
    fn schedule_is_identical_across_compiles() {
        let plan = FaultPlan::generate(7, 4, 12.0, 4);
        assert_eq!(plan.compile(12), plan.compile(12));
    }

    #[test]
    fn permanent_loss_is_step_keyed_and_sorted() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    // at_s deliberately disagrees with at_step: at_step wins.
                    at_s: 0.0,
                    duration_s: 0.0,
                    kind: FaultKind::PermanentLoss {
                        rank: 2,
                        at_step: 7,
                    },
                },
                FaultEvent {
                    at_s: 99.0,
                    duration_s: 0.0,
                    kind: FaultKind::PermanentLoss {
                        rank: 1,
                        at_step: 3,
                    },
                },
                FaultEvent {
                    at_s: 0.0,
                    duration_s: 0.0,
                    kind: FaultKind::PermanentLoss {
                        rank: 0,
                        at_step: 50, // beyond the horizon: dropped
                    },
                },
            ],
            ..FaultPlan::default()
        };
        let sched = plan.compile(10);
        assert_eq!(sched.resize_boundaries(), vec![(3, 1), (7, 1)]);
        assert!(sched.has_losses());
        assert!(!sched.is_empty());
        assert!(!plan.is_timing_only());
        assert_eq!(plan.permanent_losses(), 3);
    }

    #[test]
    fn generate_corruption_is_deterministic_and_extends_classic() {
        for seed in [0u64, 5, 0xc0de] {
            let a = FaultPlan::generate_corruption(seed, 4, 16.0, 3, 2, 2);
            let b = FaultPlan::generate_corruption(seed, 4, 16.0, 3, 2, 2);
            assert_eq!(a, b, "seed {seed}");
            a.validate();
            assert_eq!(a.corruption_events(), 4);
            // The classic prefix is untouched.
            let classic = FaultPlan::generate(seed, 4, 16.0, 3);
            assert_eq!(&a.events[..3], &classic.events[..]);
            for ev in &a.events[3..] {
                match ev.kind {
                    FaultKind::PayloadBitFlip {
                        rank, at_step, bit, ..
                    } => {
                        assert!(rank < 4 && at_step >= 1);
                        assert!((23..=30).contains(&bit), "flip bit {bit}");
                    }
                    FaultKind::ComputeCorruption { rank, at_step, bit } => {
                        assert!(rank < 4 && at_step >= 1);
                        assert!((23..=30).contains(&bit), "compute bit {bit}");
                    }
                    other => panic!("expected corruption event, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn corruption_events_compile_into_step_tables() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    at_s: 0.0,
                    duration_s: 0.0,
                    kind: FaultKind::PayloadBitFlip {
                        rank: 1,
                        at_step: 3,
                        element: 7,
                        bit: 30,
                    },
                },
                FaultEvent {
                    at_s: 0.0,
                    duration_s: 0.0,
                    kind: FaultKind::ComputeCorruption {
                        rank: 0,
                        at_step: 5,
                        bit: 24,
                    },
                },
                FaultEvent {
                    at_s: 0.0,
                    duration_s: 0.0,
                    kind: FaultKind::PayloadBitFlip {
                        rank: 2,
                        at_step: 99, // beyond horizon: dropped
                        element: 0,
                        bit: 23,
                    },
                },
            ],
            ..FaultPlan::default()
        };
        let sched = plan.compile(10);
        assert_eq!(sched.payload_flip_at(3), Some((1, 7, 30)));
        assert_eq!(sched.payload_flip_at(4), None);
        assert_eq!(sched.compute_corruption_at(5), Some((0, 24)));
        assert!(sched.has_corruption());
        assert!(!sched.is_empty());
        assert!(!plan.is_timing_only());
    }

    #[test]
    fn payload_flip_is_asymmetric_and_one_shot() {
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at_s: 0.0,
                duration_s: 0.0,
                kind: FaultKind::PayloadBitFlip {
                    rank: 1,
                    at_step: 0,
                    element: 0,
                    bit: 30,
                },
            }],
            ..FaultPlan::default()
        };
        let sched = Arc::new(plan.compile(4));
        let world = create_collective(Backend::Tree, 3);
        let joins: Vec<_> = world
            .into_iter()
            .map(|c| {
                let sched = Arc::clone(&sched);
                thread::spawn(move || {
                    let fc = FaultyCollective::new(c, sched);
                    fc.set_step(0);
                    let mut buf = vec![1.0f32, 2.0];
                    fc.try_all_reduce_mean(&mut buf).unwrap();
                    let first = buf.clone();
                    // Retry of the same bucket at the same step: flip
                    // must NOT re-fire, so the retried reduction is clean.
                    let mut buf2 = vec![1.0f32, 2.0];
                    fc.try_all_reduce_mean(&mut buf2).unwrap();
                    (fc.rank(), first, buf2, fc.injected_payload_flips())
                })
            })
            .collect();
        let mut results: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        results.sort_by_key(|r| r.0);
        for (rank, first, retried, flips) in &results {
            assert_eq!(*retried, vec![1.0, 2.0], "rank {rank} retry not clean");
            if *rank == 1 {
                assert_ne!(*first, vec![1.0, 2.0], "rank 1 payload must be flipped");
                assert_eq!(*flips, 1);
            } else {
                assert_eq!(*first, vec![1.0, 2.0], "rank {rank} must stay clean");
                assert_eq!(*flips, 0);
            }
        }
    }

    /// A payload held as separate vectors, some of them empty.
    struct Parts(Vec<Vec<f32>>);

    // SAFETY: the pieces are the vectors' buffers, which `&mut self`
    // keeps from being resized or freed.
    unsafe impl Pieces for Parts {
        fn for_each_piece(&mut self, f: &mut dyn FnMut(&mut [f32])) {
            for part in &mut self.0 {
                f(part);
            }
        }
    }

    #[test]
    fn payload_flip_hits_the_element_index_across_pieces() {
        // Element 13 of a 10-element payload is index 3, the index a
        // contiguous payload of that length is flipped at. Held as pieces
        // of 3, 0, 4 and 3 elements, that is the first of the third piece.
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at_s: 0.0,
                duration_s: 0.0,
                kind: FaultKind::PayloadBitFlip {
                    rank: 1,
                    at_step: 0,
                    element: 13,
                    bit: 30,
                },
            }],
            ..FaultPlan::default()
        };
        let sched = Arc::new(plan.compile(1));
        let joins: Vec<_> = create_collective(Backend::Tree, 2)
            .into_iter()
            .map(|c| {
                let sched = Arc::clone(&sched);
                thread::spawn(move || {
                    let fc = FaultyCollective::new(c, sched);
                    let payload: Vec<f32> = (0..10).map(|i| i as f32 + 0.5).collect();
                    let mut parts = Parts(
                        [0..3, 3..3, 3..7, 7..10]
                            .into_iter()
                            .map(|r| payload[r].to_vec())
                            .collect(),
                    );
                    fc.try_all_reduce_mean(&mut parts).unwrap();
                    parts.0.concat()
                })
            })
            .collect();
        let results: Vec<Vec<f32>> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let clean: Vec<f32> = (0..10).map(|i| i as f32 + 0.5).collect();
        assert_eq!(results[0], clean, "rank 0 is not flipped");
        for (i, (got, want)) in results[1].iter().zip(&clean).enumerate() {
            let flipped = if i == 3 { 1 << 30 } else { 0 };
            assert_eq!(got.to_bits(), want.to_bits() ^ flipped, "element {i}");
        }
    }

    #[test]
    fn corrupt_payload_error_is_not_transient() {
        let e = CollectiveError::CorruptPayload {
            rank: 2,
            bucket: 1,
            step: 7,
        };
        assert!(!e.is_transient());
        let msg = e.to_string();
        assert!(msg.contains("rank 2") && msg.contains("bucket 1") && msg.contains("step 7"));
        // retry_collective must propagate it immediately, unretried.
        let mut calls = 0;
        let err = retry_collective(&RetryPolicy::default(), || {
            calls += 1;
            Err(CollectiveError::CorruptPayload {
                rank: 2,
                bucket: 1,
                step: 7,
            })
        })
        .unwrap_err();
        assert_eq!(calls, 1);
        assert!(matches!(err, CollectiveError::CorruptPayload { .. }));
    }

    #[test]
    fn generate_elastic_is_deterministic_and_extends_classic() {
        for seed in [0u64, 3, 0xfeed] {
            let a = FaultPlan::generate_elastic(seed, 8, 16.0, 4, 2);
            let b = FaultPlan::generate_elastic(seed, 8, 16.0, 4, 2);
            assert_eq!(a, b, "seed {seed}");
            a.validate();
            assert_eq!(a.permanent_losses(), 2);
            // The classic prefix is untouched: same seed, same first 4 events.
            let classic = FaultPlan::generate(seed, 8, 16.0, 4);
            assert_eq!(&a.events[..4], &classic.events[..]);
            // Losses land on steps ≥ 1 and name ranks < world.
            for ev in &a.events[4..] {
                match ev.kind {
                    FaultKind::PermanentLoss { rank, at_step } => {
                        assert!(at_step >= 1);
                        assert!(rank < 8);
                    }
                    other => panic!("expected PermanentLoss, got {other:?}"),
                }
            }
        }
    }
}
