//! Recovery mechanisms in pairs: one fault rolls back across, drains
//! around, or lands beside another.
//!
//! Every restore in the trainer goes through one `rewind`; these cases
//! pin what that sharing must guarantee when two mechanisms meet in one
//! run. Each case runs twice (the faulted trajectory is a pure function
//! of seed and plan) and, where a single-fault baseline exists, is
//! compared with it. Worlds are small: 4 steps per epoch, 2 epochs.

use ets_collective::{Backend, FaultEvent, FaultKind};
use ets_obs::{phase, Event, Lane};
use ets_train::{train_traced, CorruptionPolicy, Experiment, OptimizerChoice, TrainReport};
use std::sync::{Mutex, MutexGuard};

/// ABFT verification and its counters are process-global and the
/// corruption cases turn it on, so runs go one at a time.
static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn small(world: usize) -> Experiment {
    let mut e = Experiment::proxy_default();
    e.replicas = world;
    e.per_replica_batch = 8;
    e.epochs = 2;
    e.train_samples = 32 * world;
    e.eval_samples = 32;
    e.collective_backend = Backend::Tree;
    e
}

/// An absurd LR that goes non-finite once warmup ramps, under the guard.
fn diverging(world: usize) -> Experiment {
    let mut e = small(world);
    e.optimizer = OptimizerChoice::Sgd {
        momentum: 0.9,
        weight_decay: 0.0,
    };
    e.lr_per_256 = 1.0e14;
    e.warmup_epochs = 1;
    e.nan_guard = true;
    e
}

/// Fingerprints on and no verified retries: a payload flip quarantines.
fn quarantining(world: usize) -> Experiment {
    let mut e = small(world);
    e.fingerprint_verify = true;
    e.abft_verify = true;
    e.corruption_policy = CorruptionPolicy::QuarantineImmediately;
    e
}

fn preempt(step: u64) -> FaultEvent {
    FaultEvent {
        at_s: step as f64 + 0.25,
        duration_s: 0.0,
        kind: FaultKind::Preempt { replica: 0 },
    }
}

fn flip(rank: usize, at_step: u64) -> FaultEvent {
    FaultEvent {
        at_s: at_step as f64,
        duration_s: 0.0,
        kind: FaultKind::PayloadBitFlip {
            rank,
            at_step,
            element: 97,
            bit: 24,
        },
    }
}

fn lose(rank: usize, at_step: u64) -> FaultEvent {
    FaultEvent {
        at_s: at_step as f64,
        duration_s: 0.0,
        kind: FaultKind::PermanentLoss { rank, at_step },
    }
}

/// A run's report and rank 0's control-lane events, in recording order.
struct Run {
    report: TrainReport,
    control: Vec<Event>,
}

/// Runs `e` twice, requires the two runs to agree bit for bit, and
/// returns the first.
fn run_twice(e: &Experiment) -> Run {
    let _g = serial();
    let run = || {
        let (report, recs) = train_traced(e);
        let control = recs[0]
            .events_snapshot()
            .into_iter()
            .filter(|ev| ev.lane == Lane::VirtualControl)
            .collect();
        Run { report, control }
    };
    let (a, b) = (run(), run());
    assert_eq!(a.report.weight_checksum, b.report.weight_checksum);
    assert_eq!(a.report.fault_recovery, b.report.fault_recovery);
    assert_eq!(a.report.step_timeline, b.report.step_timeline);
    assert_eq!(a.control, b.control, "virtual control lane must repeat");
    a
}

/// Index into `control` of the one preemption's `REWIND` (the marker a
/// `RESTART` span follows), after checking the plan fired exactly once.
fn the_preemption(run: &Run, restart_delay_s: f64) -> usize {
    let rec = &run.report.fault_recovery;
    assert_eq!(
        rec.preemptions, 1,
        "a planned preemption fires exactly once"
    );
    assert_eq!(rec.restart_virtual_s, restart_delay_s);
    let restarts: Vec<usize> = (0..run.control.len())
        .filter(|&i| run.control[i].name == phase::RESTART)
        .collect();
    assert_eq!(restarts.len(), 1, "one RESTART span on the trace");
    let at = restarts[0] - 1;
    assert_eq!(run.control[at].name, phase::REWIND);
    at
}

/// Step a `REWIND` marker landed on (`step` is where it left from, `aux`
/// how far back it went).
fn landed_on(rewind: &Event) -> u64 {
    rewind.step - rewind.aux
}

#[test]
fn preempt_replayed_by_a_later_nan_rollback_fires_once() {
    // The preemption at step 1 rewinds to step 0; the guard then trips at
    // step 1 and rolls back to step 0 again and again, replaying across
    // the planned step each time.
    let baseline = run_twice(&diverging(2));
    let mut e = diverging(2);
    e.faults.events.push(preempt(1));
    let run = run_twice(&e);
    let at = the_preemption(&run, e.faults.restart_delay_s);
    let later_rollbacks = run.control[at + 1..]
        .iter()
        .filter(|ev| ev.name == phase::REWIND && landed_on(ev) <= 1 && ev.step >= 1)
        .count();
    assert!(
        later_rollbacks >= 1,
        "a rollback must replay the planned step"
    );
    // A preemption is invisible to the trajectory: same rollbacks, same
    // weights as the guard-only run.
    let (got, want) = (&run.report, &baseline.report);
    assert!(want.fault_recovery.divergence_rollbacks >= 1);
    assert_eq!(
        got.fault_recovery.divergence_rollbacks,
        want.fault_recovery.divergence_rollbacks
    );
    assert_eq!(got.weight_checksum, want.weight_checksum);
    assert_eq!(got.final_loss().to_bits(), want.final_loss().to_bits());
}

#[test]
fn preempt_after_a_nan_rollback_rewinds_to_a_snapshot_taken_after_it() {
    // Cadence 2: the guard trips at step 2 holding the in-memory snapshot
    // of step 2 and rolls back to the durable checkpoint of step 0, so
    // that snapshot describes an abandoned trajectory (and an un-halved
    // LR scale). The preemption at step 3 must not rewind to it.
    let mut base = diverging(2);
    base.faults.checkpoint_every_steps = 2;
    let baseline = run_twice(&base);
    let mut e = base.clone();
    e.faults.events.push(preempt(3));
    let run = run_twice(&e);
    let at = the_preemption(&run, e.faults.restart_delay_s);
    let before = &run.control[..at];
    let rollback = before
        .iter()
        .rposition(|ev| ev.name == phase::REWIND)
        .expect("the guard trips before the preemption");
    let held = before[..rollback]
        .iter()
        .rfind(|ev| ev.name == phase::CHECKPOINT)
        .expect("a snapshot was held when the guard tripped");
    assert!(
        landed_on(&before[rollback]) < held.step,
        "the rollback must land before the held snapshot"
    );
    let anchor = before
        .iter()
        .rposition(|ev| ev.name == phase::CHECKPOINT)
        .expect("a snapshot to rewind to");
    assert!(anchor > rollback, "the anchor is taken after the rollback");
    assert_eq!(landed_on(&run.control[at]), before[anchor].step);
    assert_eq!(run.report.weight_checksum, baseline.report.weight_checksum);
    assert_eq!(
        run.report.fault_recovery.divergence_rollbacks,
        baseline.report.fault_recovery.divergence_rollbacks
    );
}

#[test]
fn preempt_pending_through_a_quarantine_drain_fires_once_in_the_next_world() {
    // Rank 1 is quarantined at step 2; the phase rolls back to step 0 and
    // drains with the preemption of step 5 still ahead of it. (At cadence
    // 2 that preemption replays step 4 only. A replay across step 2 would
    // not match the baseline: in a world of one the flip goes undetected,
    // and being one-shot it would not recur on the second pass.)
    let mut base = quarantining(2);
    base.faults.checkpoint_every_steps = 2;
    base.faults.events.push(flip(1, 2));
    let baseline = run_twice(&base);
    let mut e = base.clone();
    e.faults.events.push(preempt(5));
    let run = run_twice(&e);
    let at = the_preemption(&run, e.faults.restart_delay_s);
    let resize = run
        .control
        .iter()
        .position(|ev| ev.name == phase::RESIZE)
        .expect("the quarantine drains the phase");
    assert!(at > resize, "the preemption fires in the shrunken world");
    let rec = &run.report.fault_recovery;
    assert_eq!((rec.rank_quarantines, rec.resizes), (1, 1));
    assert_eq!(run.report.final_world, 1);
    assert_eq!(run.report.weight_checksum, baseline.report.weight_checksum);
    assert_eq!(run.report.step_timeline, baseline.report.step_timeline);
}

#[test]
fn planned_preempt_fires_once_across_a_quarantine_rollback() {
    // The preemption of step 5 fires in the first world; the quarantine
    // at step 6 then rolls back to the durable checkpoint of step 4 and
    // every later world replays step 5. Re-arming it there charged three
    // preemptions and 15 s of restart for one planned event.
    let mut base = quarantining(3);
    base.faults.checkpoint_every_steps = 4;
    base.faults.events.push(flip(2, 6));
    let baseline = run_twice(&base);
    let mut e = base.clone();
    e.faults.events.push(preempt(5));
    let run = run_twice(&e);
    let at = the_preemption(&run, e.faults.restart_delay_s);
    let first_resize = run
        .control
        .iter()
        .position(|ev| ev.name == phase::RESIZE)
        .expect("the quarantine drains the phase");
    assert!(at < first_resize, "it fired before the rollback crossed it");
    for rz in &run.report.step_timeline.resizes {
        assert!(rz.step <= 5, "every later world replays the planned step");
    }
    let rec = &run.report.fault_recovery;
    assert_eq!((rec.rank_quarantines, rec.resizes), (2, 2));
    assert_eq!(run.report.final_world, 1);
    assert_eq!(run.report.weight_checksum, baseline.report.weight_checksum);
}

#[test]
fn quarantine_in_the_last_step_before_a_planned_loss_leaves_the_boundary_valid() {
    // The flip of step 2 empties the world down to one rank (it re-fires
    // in every world that can still vote), each time rolling back to step
    // 0 without consuming the loss planned at step 3. The last world must
    // still stop at that boundary, run the resize protocol there (with
    // nobody left to lose) and finish the run.
    let mut e = quarantining(3);
    e.faults.events.push(flip(2, 2));
    e.faults.events.push(lose(1, 3));
    let run = run_twice(&e);
    let rec = &run.report.fault_recovery;
    assert_eq!(rec.rank_quarantines, 2);
    assert_eq!(rec.resizes, 3, "two quarantines and the planned boundary");
    assert_eq!(rec.lost_replicas, 2);
    assert_eq!(run.report.final_world, 1);
    let resizes: Vec<(u64, usize, usize)> = run
        .report
        .step_timeline
        .resizes
        .iter()
        .map(|rz| (rz.step, rz.world_before, rz.world_after))
        .collect();
    assert_eq!(resizes, vec![(0, 3, 2), (0, 2, 1), (3, 1, 1)]);
    assert_eq!(run.report.history.len() as u64, e.epochs);
    assert!(run.report.final_loss().is_finite());
}

#[test]
fn quarantine_on_a_cadence_step_resumes_from_the_rollback_target() {
    // Step 2 is on the durable cadence, so its checkpoint is on disk when
    // the flip of step 2 quarantines rank 1 and the phase rolls back to
    // step 0. The shrunken world must resume from the drain checkpoint of
    // step 0, not from the newer file: resuming at step 2 left a hole in
    // the timeline (a debug build panicked on it) while `replayed_steps`
    // claimed the two steps had run again.
    let mut e = quarantining(2);
    e.faults.checkpoint_every_steps = 2;
    e.faults.events.push(flip(1, 2));
    let run = run_twice(&e);
    let (report, rec) = (&run.report, &run.report.fault_recovery);
    assert_eq!(rec.replayed_steps, 2);
    assert_eq!(report.step_timeline.resizes[0].step, 0);
    assert_eq!(report.step_timeline.len() as u64, report.steps);
    // Epoch 1 reruns in full at world 1: 8 steps of batch 8, then 8 more.
    assert_eq!(report.steps, 16);
    assert_eq!(report.final_world, 1);
}
