//! The recovery machine: every control decision the trainer and the pod
//! simulator share, as a pure function of a compiled [`FaultSchedule`].
//!
//! Both walk one step loop and ask [`RecoveryMachine::top`] at the top of
//! each step what it captures, whether a planned preemption fires (once
//! per run, whatever rolls back across it) and to which anchor it
//! rewinds, and whether the world drains for a resize;
//! [`RecoveryMachine::charge`] prices the step. The trainer carries the answers out with real
//! captures, restores and collectives, and reports its two data-dependent
//! events back: a divergence [`RecoveryMachine::rollback`] and a
//! [`RecoveryMachine::quarantine`]. The simulator (`ets-tpu-sim`) carries
//! them out in virtual time. The machine is `Copy` and allocates nothing.

use crate::fault::FaultSchedule;

/// Where the run stands against its schedule.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryMachine<'s> {
    sched: &'s FaultSchedule,
    /// Whether cadence captures are also durable.
    durable: bool,
    world: usize,
    /// The current world's first step, which always captures: no later
    /// preemption rewinds below it unless a rollback took the run there.
    phase_start: u64,
    /// The step of the anchor a preemption rewinds to. A resize leaves it
    /// as it is: the new world's first step replaces it.
    anchor: Option<u64>,
    /// Planned preemptions fired: the cursor into `preempt_steps`.
    fired: usize,
    /// Loss events drained: the cursor into the sorted losses.
    drained: usize,
}

/// What a step captures before it runs: one capture serves both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capture {
    /// Persist it to the durable store.
    pub durable: bool,
    /// Keep it in memory as the preemption anchor.
    pub anchor: bool,
}

/// A planned preemption firing: the job dies before step `at` runs and
/// restarts, after `restart_s` virtual seconds, from the anchor of step
/// `to`, replaying `at - to` steps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Preemption {
    pub at: u64,
    pub to: u64,
    pub restart_s: f64,
}

/// One elastic world resize: the step the new world resumes at, the world
/// sizes on either side, and the virtual seconds the protocol charges
/// (durable checkpoint + collective/BN rebuild + restart delay).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Resize {
    pub step: u64,
    pub world_before: usize,
    pub world_after: usize,
    pub virtual_s: f64,
}

/// What the machine decides at the top of a step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Top {
    /// The world drains here and resizes: a planned loss boundary.
    Drain(Resize),
    /// Take `capture`; then, if `preempt` is set, die and restart instead
    /// of running the step.
    Run {
        capture: Capture,
        preempt: Option<Preemption>,
    },
}

/// The virtual charges of one executed step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepCharge {
    /// Stretch of the whole step by every timing window over it.
    pub slowdown: f64,
    /// Stretch by degraded links only (on a pod, of the all-reduce share).
    pub link: f64,
    /// Stretch by stragglers only.
    pub straggler: f64,
    /// Retries of the step's planned transient failures that the retry
    /// policy grants.
    pub retries: u32,
    /// Their retry backoff.
    pub backoff_s: f64,
}

impl<'s> RecoveryMachine<'s> {
    /// A run of `world` ranks at step 0 under `sched`; `durable` when it
    /// keeps a durable checkpoint cadence.
    pub fn new(sched: &'s FaultSchedule, world: usize, durable: bool) -> Self {
        RecoveryMachine {
            sched,
            durable,
            world,
            phase_start: 0,
            anchor: None,
            fired: 0,
            drained: 0,
        }
    }

    /// The current world size.
    pub fn world(&self) -> usize {
        self.world
    }

    /// True when the world drains for a planned resize at `step`.
    pub fn drains_at(&self, step: u64) -> bool {
        self.sched.losses.get(self.drained).map(|&(s, _)| s) == Some(step)
    }

    /// The decision at the top of `step`: drain at a planned boundary, or
    /// capture and then either preempt or run.
    pub fn top(&mut self, step: u64) -> Top {
        if self.drains_at(step) {
            let losses = &self.sched.losses[self.drained..];
            let k = losses.iter().take_while(|&&(s, _)| s == step).count();
            self.drained += k;
            return Top::Drain(self.resize(step, k));
        }
        let on_cadence =
            step == self.phase_start || step.is_multiple_of(self.sched.checkpoint_every());
        let anchor = self.sched.has_preempts() && (on_cadence || self.anchor.is_none());
        if anchor {
            self.anchor = Some(step);
        }
        let capture = Capture {
            durable: self.durable && on_cadence,
            anchor,
        };
        let preempt = (self.sched.preempt_steps().get(self.fired) == Some(&step)).then(|| {
            self.fired += 1;
            Preemption {
                at: step,
                to: self.anchor.expect("a preemption step captures first"),
                restart_s: self.sched.restart_delay_s(),
            }
        });
        Top::Run { capture, preempt }
    }

    /// The virtual charges of running `step`.
    pub fn charge(&self, step: u64) -> StepCharge {
        let (slowdown, link, straggler) = self.sched.stretch_at(step);
        let retry = self.sched.retry();
        let retries = self
            .sched
            .transient_failures_at(step)
            .min(retry.max_attempts.saturating_sub(1));
        let backoff_s = (1..=retries).fold(0.0, |s, r| s + retry.backoff_before(r));
        StepCharge {
            slowdown,
            link,
            straggler,
            retries,
            backoff_s,
        }
    }

    /// Divergence at step `at`: the run restores the durable capture of
    /// step `to`, strictly before it. The anchor describes the trajectory
    /// left, so it goes, and step `to` captures the next one.
    pub fn rollback(&mut self, at: u64, to: u64) {
        assert!(
            to < at,
            "a rollback from step {at} must land before it, not at {to}"
        );
        self.anchor = None;
    }

    /// Unhealable corruption at step `at` quarantines `k` ranks: the run
    /// rolls back to the durable capture of step `to` and drains there.
    /// A planned boundary stays planned.
    pub fn quarantine(&mut self, at: u64, to: u64, k: usize) -> Resize {
        self.rollback(at, to);
        self.resize(to, k)
    }

    /// Loses `k` ranks at `step`, keeping at least one.
    fn resize(&mut self, step: u64, k: usize) -> Resize {
        let s = self.sched;
        let world_before = self.world;
        self.world -= k.min(world_before - 1);
        self.phase_start = step;
        Resize {
            step,
            world_before,
            world_after: self.world,
            virtual_s: s.resize_checkpoint_s() + s.resize_rebuild_s() + s.restart_delay_s(),
        }
    }
}
