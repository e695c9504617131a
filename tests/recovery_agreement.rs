//! The trainer and the pod simulator price one plan alike.
//!
//! Each plan runs through `train` (the proxy model, worlds 2 and 3) and,
//! with its trigger times rescaled to the pod's healthy step, through
//! `simulate_chaos`. Both read it on one step grid, so they must agree
//! on every recovery decision: preemptions, replayed steps, resizes, the
//! ranks lost, and the retry backoff, restart and resize-protocol seconds
//! those decisions charge. The plans place preemptions, transients and
//! planned losses before, at and after a resize boundary, and a
//! preemption after a straggler window and after a resize.

use efficientnet_at_scale::collective::{FaultEvent, FaultKind, FaultPlan};
use efficientnet_at_scale::efficientnet::Variant;
use efficientnet_at_scale::tpu_sim::{simulate_chaos, step_time, StepConfig};
use efficientnet_at_scale::train::{train, Experiment};

fn at(at_s: f64, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        at_s,
        duration_s: 0.0,
        kind,
    }
}

fn preempt(at_s: f64) -> FaultEvent {
    at(at_s, FaultKind::Preempt { replica: 0 })
}

fn transient(at_s: f64) -> FaultEvent {
    at(at_s, FaultKind::TransientCollective { failures: 2 })
}

fn lose(at_step: u64) -> FaultEvent {
    at(
        at_step as f64,
        FaultKind::PermanentLoss { rank: 1, at_step },
    )
}

/// `(name, cadence, events)` on the trainer's clock of one second a step.
fn plans() -> Vec<(&'static str, u64, Vec<FaultEvent>)> {
    let straggler = FaultEvent {
        at_s: 2.0,
        duration_s: 4.0,
        kind: FaultKind::Straggler {
            replica: 1,
            slowdown: 2.0,
        },
    };
    vec![
        (
            "preempt after a straggler window",
            4,
            vec![straggler, preempt(9.5)],
        ),
        ("preempt after a resize", 4, vec![lose(5), preempt(6.5)]),
        ("preempt before a boundary", 4, vec![lose(6), preempt(5.5)]),
        ("preempt at a boundary", 4, vec![lose(6), preempt(6.5)]),
        ("preempt after a boundary", 3, vec![lose(7), preempt(8.5)]),
        (
            "transient replayed",
            4,
            vec![transient(2.5), transient(5.5), preempt(6.5)],
        ),
        (
            "transient at a boundary",
            3,
            vec![lose(4), transient(4.5), preempt(10.5)],
        ),
        (
            "two resizes",
            4,
            vec![lose(3), lose(8), preempt(9.5), transient(9.5)],
        ),
    ]
}

/// 6 steps an epoch at every world, 12 in all.
fn small(world: usize) -> Experiment {
    let mut e = Experiment::proxy_default();
    e.replicas = world;
    e.per_replica_batch = 4;
    e.epochs = 2;
    e.train_samples = 24 * world;
    e.eval_samples = 8;
    e
}

#[test]
fn trainer_and_simulator_agree_on_every_recovery_decision() {
    let cfg = StepConfig::new(Variant::B2, 128, 4096);
    let pod_step = step_time(&cfg).total();
    let mut disagree = Vec::new();
    for world in [2, 3] {
        for (name, cadence, events) in plans() {
            let losses = events
                .iter()
                .filter(|ev| matches!(ev.kind, FaultKind::PermanentLoss { .. }))
                .count();
            if losses >= world {
                continue;
            }
            let mut e = small(world);
            e.faults.checkpoint_every_steps = cadence;
            e.faults.events = events;
            let t = train(&e).fault_recovery;
            // The same plan on the pod's step clock.
            let scale = pod_step / e.faults.virtual_step_seconds;
            let mut plan: FaultPlan = e.faults.clone();
            for ev in &mut plan.events {
                ev.at_s *= scale;
                ev.duration_s *= scale;
            }
            let steps = e.epochs * e.steps_per_epoch() as u64;
            let s = simulate_chaos(&cfg, &plan, steps);
            let trainer = (
                t.preemptions,
                t.replayed_steps,
                t.resizes,
                t.lost_replicas,
                t.retry_backoff_virtual_s,
                t.restart_virtual_s,
                t.resize_virtual_s,
            );
            let pod = (
                s.preemptions,
                s.replayed_steps,
                s.resizes,
                s.permanent_losses,
                s.retry_seconds,
                s.restart_seconds,
                s.resize_checkpoint_seconds + s.resize_rebuild_seconds + s.resize_restart_seconds,
            );
            assert!(t.preemptions >= 1, "{name}: the plan preempts");
            if trainer != pod {
                disagree.push(format!(
                    "world {world}, {name}: trainer {trainer:?}, pod {pod:?}"
                ));
            }
        }
    }
    assert!(
        disagree.is_empty(),
        "(preemptions, replayed, resizes, lost, retry s, restart s, resize s):\n{}",
        disagree.join("\n")
    );
}
