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
use ets_train::{
    train_traced, CkptStore, CorruptionPolicy, Experiment, OptimizerChoice, TrainReport,
};
use std::path::{Path, PathBuf};
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

/// A run's report, rank 0's control-lane events in recording order, and
/// the step and FNV-1a of every checkpoint file a run with its own
/// `ckpt_dir` left in the store.
struct Run {
    report: TrainReport,
    control: Vec<Event>,
    files: Vec<(u64, u64)>,
}

/// FNV-1a of `bytes`. Not a CRC-32: the header and each record of a
/// checkpoint end in their own CRC, so the CRC-32 of a whole file is a
/// function of those scopes' lengths alone.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
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
        let files = e.ckpt_dir.as_ref().map_or(Vec::new(), |dir| {
            let store = CkptStore::open(dir, 1).expect("open the run's store");
            let steps = store.list_steps().expect("list the run's checkpoints");
            let file = |step| store.dir().join(format!("ckpt-{step:020}.ets"));
            let hash = |step| fnv1a(&std::fs::read(file(step)).expect("read a checkpoint"));
            steps.into_iter().map(|step| (step, hash(step))).collect()
        });
        Run {
            report,
            control,
            files,
        }
    };
    let (a, b) = (run(), run());
    assert_eq!(a.report.weight_checksum, b.report.weight_checksum);
    assert_eq!(a.report.fault_recovery, b.report.fault_recovery);
    assert_eq!(a.report.step_timeline, b.report.step_timeline);
    assert_eq!(a.control, b.control, "virtual control lane must repeat");
    assert_eq!(a.files, b.files, "the retained checkpoints must repeat");
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

// A durable save is persisted by the thread that feeds the replicas
// while they go on, so each case below lands a fault where a save can
// still be in flight. Each must leave exactly what the synchronous store
// left: the pins are the final loss bits and the (step, FNV-1a) of every
// retained checkpoint file, recorded when rank 0 still wrote every save
// inline.

/// `e` saving into a directory of its own, named for `case`.
fn own_store(mut e: Experiment, case: &str) -> (Experiment, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ets-pairs-{case}-{}", std::process::id()));
    e.ckpt_dir = Some(dir.to_string_lossy().into_owned());
    (e, dir)
}

/// Guarded, with a durable checkpoint every 2 steps and no divergence.
fn saving(world: usize) -> Experiment {
    let mut e = small(world);
    e.nan_guard = true;
    e.faults.checkpoint_every_steps = 2;
    e
}

/// Runs the case twice and checks it against its pins.
fn pinned(e: &Experiment, dir: &Path, loss_bits: u32, files: &[(u64, u64)]) -> Run {
    let run = run_twice(e);
    let _ = std::fs::remove_dir_all(dir);
    let loss = run.report.final_loss();
    assert_eq!(loss.to_bits(), loss_bits, "final loss {loss}");
    assert_eq!(run.files, files, "retained checkpoints (step, FNV-1a)");
    run
}

#[test]
fn rank_0_preempted_with_a_save_in_flight() {
    // The preemption fires right after the checkpoint of step 2 was
    // handed over: the rewind reads the anchor the save still holds, and
    // the replayed checkpoint of step 2 saves that step again.
    let (mut e, dir) = own_store(saving(2), "preempt");
    e.faults.events.push(preempt(2));
    let files = [
        (2, 0xC7F6_0950_9337_5B97),
        (4, 0x9DE1_5015_D939_843A),
        (6, 0xBF37_14DC_8E3A_7151),
    ];
    let run = pinned(&e, &dir, 0x4008_1600, &files);
    let rec = &run.report.fault_recovery;
    assert_eq!((rec.preemptions, rec.replayed_steps), (1, 0));
}

#[test]
fn rank_0_lost_with_a_save_in_flight() {
    // The save of step 2 can still be in flight when the loss of step 3
    // drains the phase; the drain's own save waits for it, and the world
    // of one resumes from step 3.
    let (mut e, dir) = own_store(saving(2), "lost");
    e.faults.events.push(lose(0, 3));
    let files = [
        (8, 0xC0D0_BA10_32FE_A637),
        (10, 0xADD8_9186_6DB2_FF69),
        (12, 0x3801_EB91_F177_BBFE),
    ];
    let run = pinned(&e, &dir, 0x4005_3F30, &files);
    let rec = &run.report.fault_recovery;
    assert_eq!((rec.resizes, run.report.final_world), (1, 1));
    assert_eq!(run.report.step_timeline.resizes[0].step, 3);
}

#[test]
fn a_quarantine_with_a_save_in_flight() {
    // The flip of step 4 quarantines rank 1 just after the save of step
    // 4 was handed over: the rollback flushes that save, then loads the
    // newest checkpoint strictly before step 4.
    let mut base = quarantining(2);
    base.faults.checkpoint_every_steps = 2;
    base.faults.events.push(flip(1, 4));
    let (e, dir) = own_store(base, "quarantine");
    let files = [
        (8, 0x6605_E4FD_E569_ABCE),
        (10, 0x4B5C_91F7_0197_5668),
        (12, 0x4540_8627_2F26_EFDF),
    ];
    let run = pinned(&e, &dir, 0x400A_6F83, &files);
    let (report, rec) = (&run.report, &run.report.fault_recovery);
    assert_eq!((rec.rank_quarantines, report.final_world), (1, 1));
    assert_eq!(report.step_timeline.resizes[0].step, 2);
}

#[test]
fn a_resize_at_a_save_step() {
    // Step 4 is on the cadence; the loss planned there drains the phase
    // first, so the drain's save is the save of step 4, made while the
    // save of step 2 may still be in flight.
    let (mut e, dir) = own_store(saving(3), "resize");
    e.faults.events.push(lose(2, 4));
    let files = [
        (4, 0xE124_DC1C_842C_EEF5),
        (6, 0x3784_AB02_3FCD_FEF8),
        (8, 0xAEB1_6AF7_3FD2_441E),
    ];
    let run = pinned(&e, &dir, 0x4004_3E05, &files);
    let rec = &run.report.fault_recovery;
    assert_eq!((rec.resizes, run.report.final_world), (1, 2));
    assert_eq!(run.report.step_timeline.resizes[0].step, 4);
}
