//! The recovery machine, checked exhaustively.
//!
//! Every plan of at most three events over a short horizon, at checkpoint
//! cadences 1–3 and worlds 1–4, is driven through `RecoveryMachine` the
//! way the trainer drives it: the planned events are a preemption, a
//! transient failure and a permanent loss, and the trainer's two
//! data-dependent events are a divergence rollback and a quarantine, each
//! firing the first time its step runs. An event can sit at any step, so
//! the plans put each one at a boundary and right after a boundary or a
//! rewind. The driver keeps its own record of the store, the anchor and
//! the current world's first step, and checks
//!
//! - the run terminates;
//! - every step below the horizon completes exactly once on the final
//!   trajectory;
//! - each planned preemption fires exactly once, rewinds to the anchor
//!   the trainer holds and never below the current world's first step;
//! - a rollback lands strictly before its step;
//! - each loss boundary drains once.
//!
//! The plans without trainer events also run through the pod simulator,
//! whose replays must match the machine's and whose total must decompose
//! into the fault-free run plus its overheads. 20,825 plans: 249,900
//! machine runs and 16,368 simulations, in under a second in `cargo
//! test`'s profile on a 2-vCPU host.

use efficientnet_at_scale::collective::{
    FaultEvent, FaultKind, FaultPlan, RecoveryMachine, Resize, Top,
};
use efficientnet_at_scale::efficientnet::Variant;
use efficientnet_at_scale::tpu_sim::{simulate_chaos, step_time, StepConfig};
use std::collections::{BTreeMap, BTreeSet};

/// Steps of every run.
const HORIZON: u64 = 10;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Ev {
    Preempt(u64),
    Transient(u64),
    Loss(u64),
    Rollback(u64),
    Quarantine(u64),
}

impl Ev {
    fn step(self) -> u64 {
        match self {
            Ev::Preempt(s)
            | Ev::Transient(s)
            | Ev::Loss(s)
            | Ev::Rollback(s)
            | Ev::Quarantine(s) => s,
        }
    }

    fn planned(self) -> bool {
        matches!(self, Ev::Preempt(_) | Ev::Transient(_) | Ev::Loss(_))
    }
}

/// Every event that can be placed. A trainer event at step 0 has no
/// durable checkpoint before it to roll back to.
fn all_events() -> Vec<Ev> {
    let mut all = Vec::new();
    for s in 0..HORIZON {
        all.extend([Ev::Preempt(s), Ev::Transient(s), Ev::Loss(s)]);
        if s > 0 {
            all.extend([Ev::Rollback(s), Ev::Quarantine(s)]);
        }
    }
    all
}

/// Every multiset of at most three of `events`.
fn plans(events: &[Ev]) -> Vec<Vec<Ev>> {
    let n = events.len();
    let mut out = vec![Vec::new()];
    for i in 0..n {
        out.push(vec![events[i]]);
        for j in i..n {
            out.push(vec![events[i], events[j]]);
            for k in j..n {
                out.push(vec![events[i], events[j], events[k]]);
            }
        }
    }
    out
}

/// The planned events of `evs` on a clock of `step_s` seconds a step.
fn fault_plan(evs: &[Ev], cadence: u64, step_s: f64) -> FaultPlan {
    let at = |s: u64| (s as f64 + 0.5) * step_s;
    let event = |ev: Ev| {
        let (at_s, kind) = match ev {
            Ev::Preempt(s) => (at(s), FaultKind::Preempt { replica: 0 }),
            Ev::Transient(s) => (at(s), FaultKind::TransientCollective { failures: 2 }),
            Ev::Loss(s) => (
                at(s),
                FaultKind::PermanentLoss {
                    rank: 0,
                    at_step: s,
                },
            ),
            Ev::Rollback(_) | Ev::Quarantine(_) => return None,
        };
        Some(FaultEvent {
            at_s,
            duration_s: 0.0,
            kind,
        })
    };
    FaultPlan {
        events: evs.iter().filter_map(|&ev| event(ev)).collect(),
        checkpoint_every_steps: cadence,
        ..FaultPlan::none()
    }
}

/// A resize from `world`: the drain saves durably where the new world
/// starts.
fn drain(resize: Resize, world: &mut usize, store: &mut BTreeSet<u64>) {
    assert_eq!(resize.world_before, *world);
    assert!(resize.world_after >= 1 && resize.world_after <= resize.world_before);
    *world = resize.world_after;
    store.insert(resize.step);
}

/// Drives one plan through the machine as the trainer does, checking the
/// invariants on the way; returns the steps preemptions replayed.
fn drive(evs: &[Ev], cadence: u64, world: usize) -> u64 {
    let sched = fault_plan(evs, cadence, 1.0).compile(HORIZON);
    let trainer_events = evs.iter().any(|ev| !ev.planned());
    let mut m = RecoveryMachine::new(&sched, world, trainer_events);
    let mut pending: Vec<Ev> = evs.iter().copied().filter(|ev| !ev.planned()).collect();
    let (mut store, mut anchor) = (BTreeSet::new(), None);
    let (mut fired, mut drained) = (BTreeMap::new(), BTreeMap::new());
    let (mut completed, mut replayed) = (Vec::new(), 0);
    // The current world's first step, lowered by a rollback below it.
    let (mut floor, mut world_now, mut step) = (0, world, 0);
    for _ in 0..100 * HORIZON {
        if step == HORIZON {
            break;
        }
        let (capture, preempt) = match m.top(step) {
            Top::Drain(resize) => {
                *drained.entry(step).or_insert(0) += 1;
                assert_eq!(resize.step, step);
                drain(resize, &mut world_now, &mut store);
                (anchor, floor) = (None, step);
                continue;
            }
            Top::Run { capture, preempt } => (capture, preempt),
        };
        if capture.durable {
            store.insert(step);
        }
        if capture.anchor {
            anchor = Some(step);
        }
        if let Some(p) = preempt {
            *fired.entry(p.at).or_insert(0) += 1;
            assert_eq!(p.at, step);
            let case = format!("{evs:?} at cadence {cadence}, world {world}");
            assert_eq!(anchor, Some(p.to), "{case}: rewinds to the anchor held");
            assert!(p.to >= floor, "{case}: rewound below {floor}");
            replayed += p.at - p.to;
            completed.truncate(p.to as usize);
            step = p.to;
            continue;
        }
        if let Some(i) = pending.iter().position(|ev| ev.step() == step) {
            let ev = pending.remove(i);
            let to = *store
                .range(..step)
                .next_back()
                .expect("a durable checkpoint before the step");
            assert!(to < step, "a rollback lands strictly before its step");
            completed.truncate(to as usize);
            anchor = None;
            if let Ev::Quarantine(_) = ev {
                let resize = m.quarantine(step, to, 1);
                assert_eq!(resize.step, to);
                drain(resize, &mut world_now, &mut store);
                floor = to;
            } else {
                m.rollback(step, to);
                floor = floor.min(to);
            }
            step = to;
            continue;
        }
        assert_eq!(
            completed.len() as u64,
            step,
            "no hole or repeat on the trajectory"
        );
        completed.push(step);
        step += 1;
    }
    assert_eq!(
        step, HORIZON,
        "{evs:?} at cadence {cadence}, world {world} did not terminate"
    );
    assert!(completed.iter().copied().eq(0..HORIZON));
    // Each distinct step of `kind` in the plan, counted once.
    let once = |kind: fn(&Ev) -> bool| -> BTreeMap<u64, u32> {
        let steps: BTreeSet<u64> = evs
            .iter()
            .filter(|ev| kind(ev))
            .map(|ev| ev.step())
            .collect();
        steps.into_iter().map(|s| (s, 1)).collect()
    };
    assert_eq!(
        fired,
        once(|ev| matches!(ev, Ev::Preempt(_))),
        "each planned preemption fires once"
    );
    assert_eq!(
        drained,
        once(|ev| matches!(ev, Ev::Loss(_))),
        "each loss boundary drains once"
    );
    replayed
}

#[test]
fn every_small_plan_recovers_exactly_once() {
    let events = all_events();
    let cfg = StepConfig::new(Variant::B2, 128, 4096);
    let base = step_time(&cfg).total();
    let (mut runs, mut sims) = (0, 0);
    for evs in plans(&events) {
        for cadence in 1..=3 {
            let replayed: Vec<u64> = (1..=4).map(|world| drive(&evs, cadence, world)).collect();
            runs += replayed.len();
            assert!(
                replayed.iter().all(|&r| r == replayed[0]),
                "{evs:?}: {replayed:?}"
            );
            if evs.iter().any(|ev| !ev.planned()) {
                continue;
            }
            // The pod reads the plan on its own clock and must agree.
            let r = simulate_chaos(&cfg, &fault_plan(&evs, cadence, base), HORIZON);
            sims += 1;
            assert_eq!(r.replayed_steps, replayed[0], "{evs:?}");
            assert_eq!(r.steps_executed, HORIZON + r.replayed_steps);
            assert_eq!((r.straggler_seconds, r.degrade_seconds), (0.0, 0.0));
            let expect = r.fault_free_seconds
                + r.replayed_steps as f64 * base
                + r.restart_seconds
                + r.retry_seconds
                + r.resize_overhead_seconds();
            // Equal up to the order of the sums: at most a few ulp.
            assert!(
                (r.total_seconds - expect).abs() <= 16.0 * f64::EPSILON * expect,
                "{evs:?} at cadence {cadence}: total {} vs {expect}",
                r.total_seconds
            );
        }
    }
    let planned: Vec<Ev> = events.iter().copied().filter(|ev| ev.planned()).collect();
    assert_eq!(
        (runs, sims),
        (12 * plans(&events).len(), 3 * plans(&planned).len())
    );
    println!("{runs} machine runs, {sims} simulations");
}
