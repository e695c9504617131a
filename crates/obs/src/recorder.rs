//! The flight recorder: hierarchical spans on two clocks plus a handful of
//! zero-alloc named counters.
//!
//! # Two-clock model
//!
//! Every event lives on exactly one of two clocks:
//!
//! - **Virtual seconds** — the deterministic simulated-pod clock that
//!   `StepTimeline` in `ets-train` accumulates. Virtual events are produced
//!   from the *same* `f64` values on every rank, in the same order, so the
//!   full virtual event stream is bit-identical across ranks and across
//!   collective backends. [`Recorder::virtual_fingerprint`] hashes exactly
//!   this stream (names, `f64` bit patterns, steps, aux payloads) so tests
//!   can assert the invariant cheaply.
//! - **Wall clock** — `Instant`-based measurements of where real host time
//!   goes (per-bucket all-reduce, checkpoint serialization, …). Wall events
//!   are inherently non-deterministic and are *excluded* from the
//!   fingerprint.
//!
//! # Cost discipline
//!
//! A **disabled** recorder must cost approximately nothing: every recording
//! entry point checks `enabled` first and returns before taking any lock,
//! reading any clock, or touching any buffer — no allocation, no formatting.
//! An **enabled** recorder follows the same pooled-scratch discipline as
//! `GradBucket`: the event buffer and counter slots are preallocated, and any
//! growth past the initial capacity is tallied in self-check counters
//! ([`Recorder::events_reallocs`], [`Recorder::registry_reallocs`]) that
//! tests pin to zero in steady state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LockResult, Mutex, PoisonError, RwLock};
use std::time::Instant;

/// Which clock an event was recorded against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Clock {
    /// Deterministic simulated seconds (bit-identical across ranks).
    Virtual,
    /// Host wall clock (non-deterministic; excluded from fingerprints).
    Wall,
}

/// Span (has a duration) or instant (a point marker).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    Span,
    Instant,
}

/// A track within a rank's trace. Each lane maps to one Chrome `tid` and is
/// bound to a single clock; the numeric value *is* the tid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum Lane {
    /// Virtual clock: per-step spans (`step`, `eval`).
    VirtualStep = 1,
    /// Virtual clock: control-plane spans (retry backoff, restart,
    /// straggler, checkpoint, resize) and rewind markers.
    VirtualControl = 2,
    /// Virtual clock: pod-simulator spans (`simulate_chaos` decomposition).
    VirtualSim = 3,
    /// Wall clock: coarse training phases (data/fwd/bwd/all-reduce/opt).
    WallPhase = 10,
    /// Wall clock: per-bucket all-reduce timings from `GradBucket`.
    WallBucket = 11,
    /// Wall clock: the gradient exchange's attempts under a fault plan
    /// (`GradBucket`).
    WallCollective = 12,
    /// Wall clock: durable checkpoint store I/O.
    WallCkpt = 13,
    /// Wall clock: evaluation passes.
    WallEval = 14,
}

impl Lane {
    /// The clock this lane records on.
    pub fn clock(self) -> Clock {
        if (self as u32) < 10 {
            Clock::Virtual
        } else {
            Clock::Wall
        }
    }

    /// Chrome trace `tid` for this lane.
    pub fn tid(self) -> u32 {
        self as u32
    }

    /// Human-readable thread name for trace metadata.
    pub fn label(self) -> &'static str {
        match self {
            Lane::VirtualStep => "virtual/steps",
            Lane::VirtualControl => "virtual/control",
            Lane::VirtualSim => "virtual/sim",
            Lane::WallPhase => "wall/phases",
            Lane::WallBucket => "wall/buckets",
            Lane::WallCollective => "wall/collective",
            Lane::WallCkpt => "wall/ckpt",
            Lane::WallEval => "wall/eval",
        }
    }
}

/// Canonical span/phase names shared by all producers, so exporters and
/// tests never compare against ad-hoc strings.
pub mod phase {
    pub const STEP: &str = "step";
    /// On the trainer's phase lane: a replica's wait for its batch, which
    /// another thread loaded while the previous step computed.
    pub const DATA: &str = "data";
    pub const FORWARD: &str = "forward";
    pub const BACKWARD: &str = "backward";
    pub const ALL_REDUCE: &str = "all_reduce";
    pub const BUCKET: &str = "bucket";
    pub const OPTIMIZER: &str = "optimizer";
    pub const BN_SYNC: &str = "bn_sync";
    pub const EVAL: &str = "eval";
    pub const CHECKPOINT: &str = "checkpoint";
    pub const DURABLE_CHECKPOINT: &str = "durable_checkpoint";
    pub const RESIZE: &str = "resize";
    pub const RETRY_BACKOFF: &str = "retry_backoff";
    pub const RESTART: &str = "restart";
    pub const STRAGGLER: &str = "straggler";
    pub const DEGRADE: &str = "degrade";
    pub const REWIND: &str = "rewind";
    pub const RETRY_ATTEMPT: &str = "retry_attempt";
}

/// One recorded event. `name` is `&'static str` by design: recording never
/// allocates or formats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    pub name: &'static str,
    pub kind: EventKind,
    pub lane: Lane,
    /// Start time in seconds on the lane's clock (virtual seconds, or wall
    /// seconds since the recorder's epoch).
    pub ts_s: f64,
    /// Duration in seconds; `0.0` for instants.
    pub dur_s: f64,
    /// Training/sim step the event belongs to.
    pub step: u64,
    /// Free payload slot (bucket index, retry attempt, world size, …).
    pub aux: u64,
}

struct EventBuf {
    events: Vec<Event>,
    /// Initial capacity; growth past it is a self-check violation tallied in
    /// `reallocs`.
    initial_capacity: usize,
    reallocs: u64,
}

/// A named counter.
struct Counter {
    name: &'static str,
    value: AtomicU64,
}

/// Counter slots preallocated per recorder; registering more is a
/// self-check violation tallied in [`Recorder::registry_reallocs`].
const COUNTER_CAPACITY: usize = 16;

/// The flight recorder. Shared across producers as `Arc<Recorder>`; all
/// methods take `&self`.
pub struct Recorder {
    enabled: bool,
    rank: u32,
    epoch: Instant,
    buf: Mutex<EventBuf>,
    counters: RwLock<Vec<Counter>>,
    /// Registrations that grew `counters` past its preallocated capacity
    /// (self-check; should stay 0).
    counter_reallocs: AtomicU64,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled)
            .field("rank", &self.rank)
            .field("events", &unpoisoned(self.buf.lock()).events.len())
            .finish()
    }
}

/// Default preallocated event capacity (events, not bytes).
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

impl Recorder {
    /// An enabled recorder for `rank` with the default event capacity.
    pub fn enabled(rank: u32) -> Self {
        Self::with_capacity(rank, true, DEFAULT_EVENT_CAPACITY)
    }

    /// A disabled recorder: every recording entry point is a cheap
    /// early-return; no events are stored, no locks taken, no allocation.
    pub fn disabled() -> Self {
        Self::with_capacity(0, false, 0)
    }

    pub fn with_capacity(rank: u32, enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            rank,
            epoch: Instant::now(),
            buf: Mutex::new(EventBuf {
                events: Vec::with_capacity(if enabled { capacity } else { 0 }),
                initial_capacity: if enabled { capacity } else { 0 },
                reallocs: 0,
            }),
            counters: RwLock::new(Vec::with_capacity(COUNTER_CAPACITY)),
            counter_reallocs: AtomicU64::new(0),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    // ---------------------------------------------------------------- spans

    /// Record a span on the **virtual** clock. `start_s`/`dur_s` must be the
    /// same deterministic values `StepTimeline` charges, so the stream stays
    /// bit-identical across ranks; callers never pass wall measurements here.
    pub fn virtual_span(
        &self,
        lane: Lane,
        name: &'static str,
        start_s: f64,
        dur_s: f64,
        step: u64,
        aux: u64,
    ) {
        if !self.enabled {
            return;
        }
        debug_assert_eq!(lane.clock(), Clock::Virtual);
        self.push(Event {
            name,
            kind: EventKind::Span,
            lane,
            ts_s: start_s,
            dur_s,
            step,
            aux,
        });
    }

    /// Record an instant marker on the **virtual** clock (e.g. a preemption
    /// rewind). The trace exporter re-sorts per track, so markers emitted
    /// out of order (rewinds revisit earlier virtual times) still export as
    /// monotone tracks.
    pub fn virtual_instant(&self, lane: Lane, name: &'static str, ts_s: f64, step: u64, aux: u64) {
        if !self.enabled {
            return;
        }
        debug_assert_eq!(lane.clock(), Clock::Virtual);
        self.push(Event {
            name,
            kind: EventKind::Instant,
            lane,
            ts_s,
            dur_s: 0.0,
            step,
            aux,
        });
    }

    /// Open a wall-clock span; the span closes (and is recorded) when the
    /// returned guard drops. On a disabled recorder the guard is inert and
    /// the clock is never read.
    #[must_use]
    pub fn wall_span(&self, lane: Lane, name: &'static str, step: u64, aux: u64) -> WallSpan<'_> {
        debug_assert_eq!(lane.clock(), Clock::Wall);
        WallSpan {
            rec: self,
            lane,
            name,
            step,
            aux,
            start: if self.enabled {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Record an already-measured wall duration (seconds). Used where a
    /// guard is awkward (e.g. durations measured by an existing stopwatch).
    pub fn wall_span_measured(
        &self,
        lane: Lane,
        name: &'static str,
        start_s: f64,
        dur_s: f64,
        step: u64,
        aux: u64,
    ) {
        if !self.enabled {
            return;
        }
        debug_assert_eq!(lane.clock(), Clock::Wall);
        self.push(Event {
            name,
            kind: EventKind::Span,
            lane,
            ts_s: start_s,
            dur_s,
            step,
            aux,
        });
    }

    /// Seconds since this recorder's wall epoch. `0.0` when disabled (the
    /// clock is not read).
    pub fn wall_now_s(&self) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        self.epoch.elapsed().as_secs_f64()
    }

    fn push(&self, ev: Event) {
        let mut buf = unpoisoned(self.buf.lock());
        if buf.events.len() == buf.events.capacity()
            && buf.events.capacity() >= buf.initial_capacity
        {
            buf.reallocs += 1;
        }
        buf.events.push(ev);
    }

    // ------------------------------------------------------------- counters

    /// Add `delta` to the named counter, registering it on first touch.
    /// Steady state (name already registered) is lock-read + atomic add —
    /// no allocation.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if !self.enabled {
            return;
        }
        {
            let read = unpoisoned(self.counters.read());
            if let Some(c) = read.iter().find(|c| c.name == name) {
                c.value.fetch_add(delta, Ordering::Relaxed);
                return;
            }
        }
        let mut write = unpoisoned(self.counters.write());
        if let Some(c) = write.iter().find(|c| c.name == name) {
            c.value.fetch_add(delta, Ordering::Relaxed);
            return;
        }
        if write.len() == write.capacity() {
            self.counter_reallocs.fetch_add(1, Ordering::Relaxed);
        }
        write.push(Counter {
            name,
            value: AtomicU64::new(delta),
        });
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        unpoisoned(self.counters.read())
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    // ----------------------------------------------------------- self-check

    /// Times the event buffer grew past its preallocated capacity. Steady
    /// state must keep this at 0 (mirrors `scratch_reallocs` on the ring
    /// collective).
    pub fn events_reallocs(&self) -> u64 {
        unpoisoned(self.buf.lock()).reallocs
    }

    /// Times a counter registration grew the counter slots past their
    /// preallocated capacity.
    pub fn registry_reallocs(&self) -> u64 {
        self.counter_reallocs.load(Ordering::Relaxed)
    }

    /// Number of recorded events (all clocks).
    pub fn event_count(&self) -> usize {
        unpoisoned(self.buf.lock()).events.len()
    }

    // ------------------------------------------------------------ snapshots

    /// Clone out the event log (exporters and tests; not a hot path).
    pub fn events_snapshot(&self) -> Vec<Event> {
        unpoisoned(self.buf.lock()).events.clone()
    }

    /// FNV-1a over the **virtual** event stream in recorded order: names,
    /// `f64` bit patterns of ts/dur, lane, kind, step, aux. Wall events are
    /// skipped, so the fingerprint is identical across ranks and backends
    /// whenever the deterministic trajectory is.
    pub fn virtual_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        };
        let buf = unpoisoned(self.buf.lock());
        for ev in buf
            .events
            .iter()
            .filter(|e| e.lane.clock() == Clock::Virtual)
        {
            for b in ev.name.as_bytes() {
                eat(*b);
            }
            eat(match ev.kind {
                EventKind::Span => 1,
                EventKind::Instant => 2,
            });
            eat(ev.lane.tid() as u8);
            for b in ev.ts_s.to_bits().to_le_bytes() {
                eat(b);
            }
            for b in ev.dur_s.to_bits().to_le_bytes() {
                eat(b);
            }
            for b in ev.step.to_le_bytes() {
                eat(b);
            }
            for b in ev.aux.to_le_bytes() {
                eat(b);
            }
        }
        h
    }
}

/// The guard of a lock result, whether or not a panicking holder
/// poisoned the lock. Every lock in this module is taken through here:
/// a rank that panics must not take its recorder down with it (its trace
/// is what explains the panic), and no update under these locks can be
/// left half done, since each is one `push` or one atomic operation.
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// RAII wall-clock span; records on drop. Inert (clock never read) when the
/// recorder is disabled.
pub struct WallSpan<'a> {
    rec: &'a Recorder,
    lane: Lane,
    name: &'static str,
    step: u64,
    aux: u64,
    start: Option<Instant>,
}

impl WallSpan<'_> {
    /// Update the step/aux payload after opening (e.g. once the bucket
    /// index is known).
    pub fn set_aux(&mut self, aux: u64) {
        self.aux = aux;
    }
}

impl Drop for WallSpan<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ts_s = start.duration_since(self.rec.epoch).as_secs_f64();
            let dur_s = start.elapsed().as_secs_f64();
            self.rec.push(Event {
                name: self.name,
                kind: EventKind::Span,
                lane: self.lane,
                ts_s,
                dur_s,
                step: self.step,
                aux: self.aux,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing_and_never_allocates() {
        let r = Recorder::disabled();
        r.virtual_span(Lane::VirtualStep, phase::STEP, 0.0, 1.0, 0, 0);
        r.virtual_instant(Lane::VirtualControl, phase::REWIND, 0.5, 1, 0);
        {
            let _g = r.wall_span(Lane::WallPhase, phase::FORWARD, 0, 0);
        }
        r.counter_add("steps", 1);
        assert_eq!(r.event_count(), 0);
        assert_eq!(r.events_reallocs(), 0);
        assert_eq!(r.registry_reallocs(), 0);
        assert_eq!(r.counter_value("steps"), 0);
    }

    #[test]
    fn enabled_recorder_within_capacity_never_reallocates() {
        let r = Recorder::with_capacity(0, true, 128);
        for step in 0..64 {
            r.virtual_span(Lane::VirtualStep, phase::STEP, step as f64, 1.0, step, 0);
            r.counter_add("steps", 1);
        }
        assert_eq!(r.event_count(), 64);
        assert_eq!(r.events_reallocs(), 0);
        assert_eq!(r.registry_reallocs(), 0);
        assert_eq!(r.counter_value("steps"), 64);
    }

    #[test]
    fn overflow_past_capacity_is_tallied() {
        let r = Recorder::with_capacity(0, true, 4);
        for step in 0..10 {
            r.virtual_span(Lane::VirtualStep, phase::STEP, step as f64, 1.0, step, 0);
        }
        assert_eq!(r.event_count(), 10);
        assert!(r.events_reallocs() > 0);
    }

    #[test]
    fn fingerprint_covers_virtual_stream_only() {
        let mk = || {
            let r = Recorder::enabled(0);
            r.virtual_span(Lane::VirtualStep, phase::STEP, 0.0, 1.25, 0, 0);
            r.virtual_span(Lane::VirtualControl, phase::RESTART, 1.25, 5.0, 1, 2);
            r
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.virtual_fingerprint(), b.virtual_fingerprint());
        // Wall events must not perturb the fingerprint.
        {
            let _g = b.wall_span(Lane::WallPhase, phase::FORWARD, 0, 0);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(a.virtual_fingerprint(), b.virtual_fingerprint());
        // Virtual differences must.
        b.virtual_span(Lane::VirtualStep, phase::STEP, 6.25, 1.0, 2, 0);
        assert_ne!(a.virtual_fingerprint(), b.virtual_fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_f64_bit_patterns() {
        let a = Recorder::enabled(0);
        let b = Recorder::enabled(0);
        a.virtual_span(Lane::VirtualStep, phase::STEP, 0.0, 0.1 + 0.2, 0, 0);
        b.virtual_span(Lane::VirtualStep, phase::STEP, 0.0, 0.3, 0, 0);
        // 0.1 + 0.2 != 0.3 bitwise; the fingerprint must see that.
        assert_ne!(a.virtual_fingerprint(), b.virtual_fingerprint());
    }

    #[test]
    fn wall_span_guard_records_on_drop() {
        let r = Recorder::enabled(3);
        {
            let mut g = r.wall_span(Lane::WallBucket, phase::BUCKET, 7, 0);
            g.set_aux(2);
        }
        let evs = r.events_snapshot();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, phase::BUCKET);
        assert_eq!(evs[0].step, 7);
        assert_eq!(evs[0].aux, 2);
        assert!(evs[0].dur_s >= 0.0);
        assert_eq!(evs[0].lane.clock(), Clock::Wall);
    }

    #[test]
    fn counter_accumulates() {
        let r = Recorder::enabled(0);
        r.counter_add("retries", 2);
        r.counter_add("retries", 3);
        assert_eq!(r.counter_value("retries"), 5);
    }

    #[test]
    fn lane_clock_partition() {
        for lane in [Lane::VirtualStep, Lane::VirtualControl, Lane::VirtualSim] {
            assert_eq!(lane.clock(), Clock::Virtual);
        }
        for lane in [
            Lane::WallPhase,
            Lane::WallBucket,
            Lane::WallCollective,
            Lane::WallCkpt,
            Lane::WallEval,
        ] {
            assert_eq!(lane.clock(), Clock::Wall);
        }
    }
}
