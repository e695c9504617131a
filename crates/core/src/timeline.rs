//! Per-phase timing of the real training engine.
//!
//! The simulator predicts where pod time goes (Table 1); this module
//! *measures* where the threaded engine's time goes — data loading,
//! forward, backward, gradient all-reduce, optimizer — so the real and
//! simulated breakdowns can be compared like-for-like (`table1 --real`).

use std::time::Instant;

/// Accumulated seconds per training phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseBreakdown {
    pub data: f64,
    pub forward: f64,
    pub backward: f64,
    pub all_reduce: f64,
    pub optimizer: f64,
    /// Steps accumulated into the other fields.
    pub steps: u64,
}

impl PhaseBreakdown {
    /// Total accounted seconds.
    pub fn total(&self) -> f64 {
        self.data + self.forward + self.backward + self.all_reduce + self.optimizer
    }

    /// Fraction of accounted time spent in the gradient all-reduce —
    /// the real-engine analogue of Table 1's last column.
    pub fn all_reduce_share(&self) -> f64 {
        let t = self.total();
        if t > 0.0 {
            self.all_reduce / t
        } else {
            0.0
        }
    }

    /// Mean seconds per step.
    pub fn step_seconds(&self) -> f64 {
        if self.steps > 0 {
            self.total() / self.steps as f64
        } else {
            0.0
        }
    }

    /// Merges another breakdown (e.g. across epochs).
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        self.data += other.data;
        self.forward += other.forward;
        self.backward += other.backward;
        self.all_reduce += other.all_reduce;
        self.optimizer += other.optimizer;
        self.steps += other.steps;
    }
}

/// Per-bucket timing of the bucketized gradient all-reduce.
///
/// The trainer splits the flat gradient buffer into size-bounded buckets
/// (see `crate::grad_bucket`) and reduces them one at a time; this records
/// how long each bucket's collective took, accumulated over all steps, so
/// stragglers and size effects show up in the report instead of vanishing
/// into the aggregate `all_reduce` phase.
#[derive(Clone, Debug, Default)]
pub struct AllReduceProfile {
    /// Elements per bucket (fixed at registration; last bucket may be
    /// smaller).
    pub bucket_elems: Vec<usize>,
    /// Accumulated seconds per bucket across all all-reduce rounds.
    pub bucket_seconds: Vec<f64>,
    /// Completed all-reduce rounds (each round touches every bucket).
    pub rounds: u64,
    /// Seconds the replica thread spent *blocked* on the exchange:
    /// the whole bucket time for serialized rounds, only the
    /// post-backward wait for overlapped rounds. `bucket_seconds`
    /// minus this is communication hidden under backward.
    pub exposed_seconds: f64,
    /// Rounds that ran the overlapped (fire-per-bucket-as-ready)
    /// exchange rather than the serialized one.
    pub overlapped_rounds: u64,
    /// Buckets handed to the communication thread from inside the
    /// backward hook, i.e. while backward was still running, summed over
    /// overlapped rounds. A pure function of the bucket layout (every
    /// bucket but a loss-only tail), so unlike `overlap_pct` it repeats
    /// exactly.
    pub hook_shipped_buckets: u64,
}

impl AllReduceProfile {
    /// Creates a profile for the given bucket layout.
    pub fn new(bucket_elems: Vec<usize>) -> Self {
        let n = bucket_elems.len();
        AllReduceProfile {
            bucket_elems,
            bucket_seconds: vec![0.0; n],
            rounds: 0,
            exposed_seconds: 0.0,
            overlapped_rounds: 0,
            hook_shipped_buckets: 0,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.bucket_elems.len()
    }

    /// Total seconds across all buckets.
    pub fn total_seconds(&self) -> f64 {
        self.bucket_seconds.iter().sum()
    }

    /// Mean seconds per round for bucket `i`.
    pub fn mean_bucket_seconds(&self, i: usize) -> f64 {
        if self.rounds > 0 {
            self.bucket_seconds[i] / self.rounds as f64
        } else {
            0.0
        }
    }

    /// Percentage of total communication time hidden under backward:
    /// `100 × (1 − exposed / total)`. 0 for fully-serialized runs (and
    /// for empty profiles); approaches 100 when every bucket finishes
    /// before the backward pass does.
    pub fn overlap_pct(&self) -> f64 {
        let total = self.total_seconds();
        if total > 0.0 {
            (100.0 * (1.0 - self.exposed_seconds / total)).max(0.0)
        } else {
            0.0
        }
    }
}

/// Virtual per-step timeline of a (possibly fault-injected) run.
///
/// The fault layer perturbs *virtual* time only: a straggler or degraded
/// link stretches a step's virtual duration without touching payloads,
/// and retry backoff is charged here instead of sleeping. The chaos
/// harness asserts that timing-only faults show up in this timeline while
/// losses stay bitwise identical to the fault-free run.
///
/// Indexed by global step; replayed steps (after a preemption rewind)
/// overwrite their slot, so a finished run always has exactly
/// `total_steps` entries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepTimeline {
    /// Virtual seconds a nominal, healthy step spans.
    pub nominal_step_s: f64,
    /// Virtual seconds charged per global step.
    pub virtual_s: Vec<f64>,
    /// World-resize events, in step order.
    pub resizes: Vec<ResizeRecord>,
}

/// One elastic world-resize event on the timeline: the step *before*
/// which the new world resumed, the world sizes on either side, and the
/// virtual seconds charged for the protocol (durable checkpoint +
/// collective/BN rebuild + restart delay).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResizeRecord {
    pub step: u64,
    pub world_before: usize,
    pub world_after: usize,
    pub virtual_s: f64,
}

impl StepTimeline {
    /// An empty timeline with the given nominal step duration.
    pub fn new(nominal_step_s: f64) -> Self {
        StepTimeline {
            nominal_step_s,
            virtual_s: Vec::new(),
            resizes: Vec::new(),
        }
    }

    /// Appends a resize event; charged time also lands in `virtual_s`
    /// bookkeeping via the counters, so this is pure event metadata.
    pub fn record_resize(&mut self, r: ResizeRecord) {
        self.resizes.push(r);
    }

    /// Total virtual seconds charged by resize protocols.
    pub fn resize_virtual_s(&self) -> f64 {
        self.resizes.iter().map(|r| r.virtual_s).sum()
    }

    /// Records `seconds` for global step `step`. Appending is the common
    /// case; replays overwrite the existing slot.
    pub fn record(&mut self, step: u64, seconds: f64) {
        let i = step as usize;
        if i < self.virtual_s.len() {
            self.virtual_s[i] = seconds;
        } else {
            debug_assert_eq!(i, self.virtual_s.len(), "timeline must stay contiguous");
            self.virtual_s.push(seconds);
        }
    }

    /// Drops entries from step `len` on (preemption rewind).
    pub fn truncate(&mut self, len: u64) {
        self.virtual_s.truncate(len as usize);
    }

    /// Recorded steps.
    pub fn len(&self) -> usize {
        self.virtual_s.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.virtual_s.is_empty()
    }

    /// Total virtual seconds across all recorded steps.
    pub fn total_virtual_s(&self) -> f64 {
        self.virtual_s.iter().sum()
    }

    /// Largest per-step slowdown factor relative to nominal (1.0 for a
    /// healthy or empty timeline).
    pub fn max_slowdown(&self) -> f64 {
        if self.nominal_step_s <= 0.0 {
            return 1.0;
        }
        self.virtual_s
            .iter()
            .fold(1.0f64, |m, &s| m.max(s / self.nominal_step_s))
    }

    /// Steps whose virtual duration exceeds `factor` × nominal — where
    /// the injected slowdowns surface.
    pub fn slow_steps(&self, factor: f64) -> Vec<usize> {
        let threshold = self.nominal_step_s * factor;
        self.virtual_s
            .iter()
            .enumerate()
            .filter(|(_, &s)| s > threshold)
            .map(|(i, _)| i)
            .collect()
    }
}

/// A phase stopwatch: `lap()` returns seconds since the previous lap.
pub struct Stopwatch {
    last: Instant,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            last: Instant::now(),
        }
    }

    /// Seconds since the last lap (or start), resetting the marker.
    pub fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accounting() {
        let mut b = PhaseBreakdown {
            data: 1.0,
            forward: 4.0,
            backward: 8.0,
            all_reduce: 2.0,
            optimizer: 1.0,
            steps: 4,
        };
        assert_eq!(b.total(), 16.0);
        assert!((b.all_reduce_share() - 0.125).abs() < 1e-12);
        assert_eq!(b.step_seconds(), 4.0);
        b.merge(&b.clone());
        assert_eq!(b.steps, 8);
        assert_eq!(b.total(), 32.0);
    }

    #[test]
    fn empty_breakdown_is_safe() {
        let b = PhaseBreakdown::default();
        assert_eq!(b.all_reduce_share(), 0.0);
        assert_eq!(b.step_seconds(), 0.0);
    }

    #[test]
    fn overlap_pct_decomposes_exposed_vs_hidden() {
        let mut p = AllReduceProfile::new(vec![10, 10]);
        assert_eq!(p.overlap_pct(), 0.0, "empty profile");
        p.bucket_seconds = vec![3.0, 1.0];
        p.exposed_seconds = 4.0;
        assert_eq!(p.overlap_pct(), 0.0, "fully serialized");
        p.exposed_seconds = 1.0;
        assert!((p.overlap_pct() - 75.0).abs() < 1e-12, "3 of 4 s hidden");
        // Scheduling noise can push exposed past the summed bucket time;
        // the percentage clamps at 0 rather than going negative.
        p.exposed_seconds = 5.0;
        assert_eq!(p.overlap_pct(), 0.0);
    }

    #[test]
    fn step_timeline_records_and_detects_slow_steps() {
        let mut t = StepTimeline::new(1.0);
        t.record(0, 1.0);
        t.record(1, 3.0);
        t.record(2, 1.0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_virtual_s(), 5.0);
        assert_eq!(t.max_slowdown(), 3.0);
        assert_eq!(t.slow_steps(1.5), vec![1]);
        // Replay overwrites, truncate rewinds.
        t.record(1, 1.0);
        assert_eq!(t.max_slowdown(), 1.0);
        t.truncate(1);
        assert_eq!(t.len(), 1);
        t.record(1, 2.0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resize_records_accumulate() {
        let mut t = StepTimeline::new(1.0);
        t.record_resize(ResizeRecord {
            step: 5,
            world_before: 4,
            world_after: 3,
            virtual_s: 7.5,
        });
        t.record_resize(ResizeRecord {
            step: 9,
            world_before: 3,
            world_after: 2,
            virtual_s: 6.0,
        });
        assert_eq!(t.resizes.len(), 2);
        assert!((t.resize_virtual_s() - 13.5).abs() < 1e-12);
        assert_eq!(t.resizes[0].world_after, t.resizes[1].world_before);
    }

    #[test]
    fn empty_step_timeline_is_safe() {
        let t = StepTimeline::default();
        assert!(t.is_empty());
        assert_eq!(t.max_slowdown(), 1.0);
        assert_eq!(t.total_virtual_s(), 0.0);
        assert!(t.slow_steps(1.1).is_empty());
    }

    #[test]
    fn stopwatch_laps_are_positive_and_reset() {
        let mut sw = Stopwatch::start();
        let a = sw.lap();
        let b = sw.lap();
        assert!(a >= 0.0 && b >= 0.0);
        // Consecutive immediate laps are tiny.
        assert!(b < 1.0);
    }
}
