//! Pod-scale chaos simulation: plays a [`FaultPlan`] against the
//! calibrated step-time model.
//!
//! Where `ets-train` *executes* a fault plan on the thread-level replica
//! world (real gradients, bit-exact recovery), this module answers the
//! operator's question at paper scale: *what does this chaos schedule do
//! to a 1024-core run's wall clock?* Both walk one step loop under the
//! same [`RecoveryMachine`], which makes every capture, preemption,
//! rewind and resize decision; here each action is priced with
//! [`step_time`] and [`step_time_elastic`]. The plan is compiled once on
//! the pod's clock (one healthy step = `step_time(cfg).total()` seconds):
//!
//! - **Timing windows** cover nominal steps, each charged by its overlap.
//!   A degraded link stretches the step's all-reduce share (a slow link
//!   hurts B2 more than B5, as Table 1's shares predict); a straggler
//!   stretches the whole step (SPMD steps gate on the slowest replica).
//! - **Transient collective failures** charge the retry policy's
//!   exponential backoff to their step, each time it runs.
//! - **Preemptions** kill the job at the boundary of their step: the run
//!   charges the restart delay and replays from the machine's anchor.
//! - **Permanent replica losses** run the elastic resize protocol at the
//!   step boundary they name (drain, durable checkpoint, rebuild of
//!   collectives and BN groups for the surviving sub-torus, restart),
//!   then pay a *per-step* degradation tax for the rest of the run: the
//!   survivors absorb the lost cores' shard of the (fixed) global batch.
//!   The torus degrades to the even floor of the surviving core count
//!   ([`SliceShape::surviving`]). Note the duality with the trainer,
//!   which shrinks the global batch and rescales the LR (the same price
//!   paid as extra steps per epoch), while the sim holds the sample
//!   budget per step fixed so the price lands directly in step time.
//!
//! The simulation is deterministic: the same plan and config always
//! produce the same report, byte for byte.

use crate::step::{step_time, step_time_elastic, StepConfig};
use ets_collective::{FaultPlan, RecoveryMachine, SliceShape, Top, CORES_PER_CHIP};
use ets_obs::{phase as obs_ph, JsonWriter, Lane, Recorder};

/// Time-domain outcome of a chaos run on the calibrated pod.
#[derive(Clone, Debug, Default)]
pub struct PodChaosReport {
    /// Seconds the run would take with no faults at all.
    pub fault_free_seconds: f64,
    /// Simulated seconds the faulted run actually took.
    pub total_seconds: f64,
    /// Steps that counted toward the run (the target count).
    pub steps_completed: u64,
    /// Steps executed including replays after preemptions.
    pub steps_executed: u64,
    /// Preemptions absorbed.
    pub preemptions: u64,
    /// Steps re-executed because a preemption rolled past them.
    pub replayed_steps: u64,
    /// Seconds spent in restart delays.
    pub restart_seconds: f64,
    /// Extra seconds from whole-step straggler slowdowns.
    pub straggler_seconds: f64,
    /// Extra seconds from degraded-link all-reduce stretching.
    pub degrade_seconds: f64,
    /// Seconds of retry backoff charged by transient failures.
    pub retry_seconds: f64,
    /// Replica (core) losses absorbed by elastic resizes.
    pub permanent_losses: u64,
    /// Elastic resize protocols executed (losses at the same step drain
    /// into one protocol run).
    pub resizes: u64,
    /// Seconds persisting durable checkpoints during resize protocols.
    pub resize_checkpoint_seconds: f64,
    /// Seconds rebuilding collectives/BN groups for the shrunken world.
    pub resize_rebuild_seconds: f64,
    /// Seconds of restart delay charged by resize protocols.
    pub resize_restart_seconds: f64,
    /// Extra per-step seconds accumulated because post-resize steps run
    /// on the degraded sub-torus (survivors absorb the lost shard, so
    /// per-core batch grows). Signed: a shrunken BN group can in
    /// principle win back a sliver, but compute dominates in practice.
    pub resize_degraded_seconds: f64,
    /// Active torus cores at the end of the run: the even floor
    /// ([`SliceShape::surviving`]) of the surviving core count. Equals
    /// the configured cores when no permanent loss occurred.
    pub surviving_cores: usize,
}

impl PodChaosReport {
    /// Wall-clock inflation factor caused by the chaos schedule.
    pub fn overhead_factor(&self) -> f64 {
        if self.fault_free_seconds > 0.0 {
            self.total_seconds / self.fault_free_seconds
        } else {
            1.0
        }
    }

    /// Total seconds the elastic resize protocols and their aftermath
    /// cost — the resize-overhead decomposition summed back up.
    pub fn resize_overhead_seconds(&self) -> f64 {
        self.resize_checkpoint_seconds
            + self.resize_rebuild_seconds
            + self.resize_restart_seconds
            + self.resize_degraded_seconds
    }

    /// The report as one JSON object keyed by field name (the CI soak's
    /// "damage report" artifact).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_f64("fault_free_seconds", self.fault_free_seconds)
            .field_f64("total_seconds", self.total_seconds)
            .field_u64("steps_completed", self.steps_completed)
            .field_u64("steps_executed", self.steps_executed)
            .field_u64("preemptions", self.preemptions)
            .field_u64("replayed_steps", self.replayed_steps)
            .field_f64("restart_seconds", self.restart_seconds)
            .field_f64("straggler_seconds", self.straggler_seconds)
            .field_f64("degrade_seconds", self.degrade_seconds)
            .field_f64("retry_seconds", self.retry_seconds)
            .field_u64("permanent_losses", self.permanent_losses)
            .field_u64("resizes", self.resizes)
            .field_f64("resize_checkpoint_seconds", self.resize_checkpoint_seconds)
            .field_f64("resize_rebuild_seconds", self.resize_rebuild_seconds)
            .field_f64("resize_restart_seconds", self.resize_restart_seconds)
            .field_f64("resize_degraded_seconds", self.resize_degraded_seconds)
            .field_u64("surviving_cores", self.surviving_cores as u64)
            .end_object();
        w.finish()
    }
}

/// Simulates `total_steps` training steps of `cfg` under `plan`,
/// returning the time-domain damage report. Trigger times in the plan are
/// read on the calibrated clock (one healthy step =
/// `step_time(cfg).total()` seconds, in place of the plan's
/// `virtual_step_seconds`), so generate plans against a horizon of
/// `total_steps × step_time(cfg).total()`, or scale a plan drawn on
/// another clock (`at_s` and `duration_s`) onto it.
pub fn simulate_chaos(cfg: &StepConfig, plan: &FaultPlan, total_steps: u64) -> PodChaosReport {
    simulate_chaos_recorded(cfg, plan, total_steps, &Recorder::disabled())
}

/// Like [`simulate_chaos`], but records the simulated timeline as spans on
/// `rec`'s deterministic virtual clock ([`Lane::VirtualSim`]): one STEP
/// span per executed step (replays re-emit at their replay time), REWIND
/// instants and RESTART spans for preemptions, RETRY_BACKOFF spans for
/// transient failures, and RESIZE spans for elastic protocols. Recording
/// never perturbs the simulation — the report is bit-identical to the
/// unrecorded run.
pub fn simulate_chaos_recorded(
    cfg: &StepConfig,
    plan: &FaultPlan,
    total_steps: u64,
    rec: &Recorder,
) -> PodChaosReport {
    let st = step_time(cfg);
    let base0 = st.total();
    let mut report = PodChaosReport {
        fault_free_seconds: total_steps as f64 * base0,
        steps_completed: total_steps,
        surviving_cores: cfg.cores,
        ..PodChaosReport::default()
    };
    let sched = FaultPlan {
        virtual_step_seconds: base0,
        ..plan.clone()
    }
    .compile(total_steps);
    let mut machine = RecoveryMachine::new(&sched, cfg.cores, false);
    // What a healthy step costs on the current (sub-)torus, and its
    // all-reduce share.
    let (mut base, mut ar_share) = (base0, st.all_reduce_share());
    let (mut step, mut now) = (0u64, 0.0f64);
    while step < total_steps {
        match machine.top(step) {
            Top::Drain(resize) => {
                // The protocol (drain + durable checkpoint + rebuild +
                // restart) runs to completion before the shrunken world
                // executes the step, which the survivors then price: same
                // global batch over fewer cores (ceiling split on the most
                // loaded core), BN groups deterministically regrouped.
                report.permanent_losses += (resize.world_before - resize.world_after) as u64;
                report.resizes += 1;
                report.resize_checkpoint_seconds += sched.resize_checkpoint_s();
                report.resize_rebuild_seconds += sched.resize_rebuild_s();
                report.resize_restart_seconds += sched.restart_delay_s();
                let cores = resize.world_after.max(CORES_PER_CHIP);
                rec.virtual_span(
                    Lane::VirtualSim,
                    obs_ph::RESIZE,
                    now,
                    resize.virtual_s,
                    step,
                    cores as u64,
                );
                now += resize.virtual_s;
                let st = step_time_elastic(cfg, cores);
                (base, ar_share) = (st.total(), st.all_reduce_share());
                report.surviving_cores = SliceShape::surviving(cores).cores();
            }
            Top::Run {
                preempt: Some(p), ..
            } => {
                let replayed = p.at - p.to;
                report.preemptions += 1;
                report.replayed_steps += replayed;
                report.restart_seconds += p.restart_s;
                rec.virtual_instant(Lane::VirtualSim, obs_ph::REWIND, now, p.at, replayed);
                rec.virtual_span(Lane::VirtualSim, obs_ph::RESTART, now, p.restart_s, p.to, 0);
                now += p.restart_s;
                step = p.to;
            }
            Top::Run { preempt: None, .. } => {
                let charge = machine.charge(step);
                // A slow link stretches the all-reduce share of the step;
                // a straggler then stretches the whole (already
                // stretched) step.
                let degraded = base * (1.0 - ar_share) + base * ar_share * charge.link;
                let dur = degraded * charge.straggler;
                let (straggle, degrade) = (dur - degraded, degraded - base);
                report.straggler_seconds += straggle;
                report.degrade_seconds += degrade;
                report.retry_seconds += charge.backoff_s;
                // Every step run on a shrunken sub-torus pays the
                // degradation delta relative to the healthy pod's step.
                report.resize_degraded_seconds += base - base0;
                // Replayed steps re-emit at their replay time; the REWIND
                // marker explains the repeat. All values come off the
                // deterministic clock, so the stream is reproducible.
                rec.virtual_span(
                    Lane::VirtualSim,
                    obs_ph::STEP,
                    now,
                    dur + charge.backoff_s,
                    step,
                    0,
                );
                if straggle > 0.0 {
                    rec.virtual_span(
                        Lane::VirtualSim,
                        obs_ph::STRAGGLER,
                        now + degraded,
                        straggle,
                        step,
                        0,
                    );
                }
                if degrade > 0.0 {
                    rec.virtual_span(Lane::VirtualSim, obs_ph::DEGRADE, now, degrade, step, 0);
                }
                if charge.backoff_s > 0.0 {
                    rec.virtual_span(
                        Lane::VirtualSim,
                        obs_ph::RETRY_BACKOFF,
                        now + dur,
                        charge.backoff_s,
                        step,
                        0,
                    );
                }
                now += dur + charge.backoff_s;
                report.steps_executed += 1;
                step += 1;
            }
        }
    }
    report.total_seconds = now;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_collective::{FaultEvent, FaultKind, RetryPolicy};
    use ets_efficientnet::Variant;

    fn cfg() -> StepConfig {
        StepConfig::new(Variant::B2, 128, 4096)
    }

    fn base_step() -> f64 {
        step_time(&cfg()).total()
    }

    #[test]
    fn report_json_carries_every_field() {
        let plan = FaultPlan::generate_elastic(7, 128, 60.0, 4, 2);
        let r = simulate_chaos(&cfg(), &plan, 60);
        assert!(r.permanent_losses >= 1 && r.total_seconds > r.fault_free_seconds);
        let v = ets_obs::parse_json(&r.to_json()).expect("report JSON parses");
        // The derived `Debug` lists every field, so one the writer forgets
        // (or a future one it never learns) fails here.
        let debug = format!("{r:?}");
        let fields: Vec<_> = debug[debug.find('{').unwrap() + 1..debug.len() - 1]
            .split(',')
            .map(|pair| pair.split_once(':').unwrap())
            .collect();
        assert_eq!(v.as_obj().unwrap().len(), fields.len());
        for (key, want) in fields {
            let want: f64 = want.trim().parse().unwrap();
            assert_eq!(
                v.get(key.trim()).and_then(|x| x.as_f64()),
                Some(want),
                "{key}"
            );
        }
    }

    #[test]
    fn no_faults_means_no_overhead() {
        let r = simulate_chaos(&cfg(), &FaultPlan::none(), 50);
        assert_eq!(r.steps_completed, 50);
        assert_eq!(r.steps_executed, 50);
        assert!((r.overhead_factor() - 1.0).abs() < 1e-12);
        assert!((r.total_seconds - 50.0 * base_step()).abs() < 1e-9);
        assert_eq!(r.preemptions, 0);
        assert_eq!(r.replayed_steps, 0);
    }

    #[test]
    fn straggler_window_stretches_covered_steps_only() {
        let base = base_step();
        let mut plan = FaultPlan::none();
        // Cover steps ~10..20 with a 2× straggler.
        plan.events.push(FaultEvent {
            at_s: 10.0 * base,
            duration_s: 10.0 * base,
            kind: FaultKind::Straggler {
                replica: 0,
                slowdown: 2.0,
            },
        });
        let r = simulate_chaos(&cfg(), &plan, 50);
        assert_eq!(r.steps_completed, 50);
        // The window covers the 10 nominal steps 10..20, each run at half
        // speed: the run extends by 10 base steps.
        assert!(
            (r.straggler_seconds - 10.0 * base).abs() < 1e-9,
            "straggler_seconds {} vs base {}",
            r.straggler_seconds,
            base
        );
        let expect = r.fault_free_seconds + r.straggler_seconds;
        assert!((r.total_seconds - expect).abs() < 1e-9);
    }

    #[test]
    fn link_degrade_costs_less_than_straggler() {
        // Halving one link doubles only the all-reduce share (~2% for
        // B2@128); halving the whole replica doubles the step. Same
        // window, wildly different damage.
        let base = base_step();
        let window = (10.0 * base, 10.0 * base);
        let mut degrade = FaultPlan::none();
        degrade.events.push(FaultEvent {
            at_s: window.0,
            duration_s: window.1,
            kind: FaultKind::LinkDegrade {
                link: 0,
                scale: 0.5,
            },
        });
        let mut straggle = FaultPlan::none();
        straggle.events.push(FaultEvent {
            at_s: window.0,
            duration_s: window.1,
            kind: FaultKind::Straggler {
                replica: 0,
                slowdown: 2.0,
            },
        });
        let rd = simulate_chaos(&cfg(), &degrade, 50);
        let rs = simulate_chaos(&cfg(), &straggle, 50);
        assert!(rd.total_seconds > rd.fault_free_seconds);
        assert!(rd.degrade_seconds > 0.0 && rd.straggler_seconds == 0.0);
        assert!(
            rd.total_seconds - rd.fault_free_seconds
                < 0.2 * (rs.total_seconds - rs.fault_free_seconds),
            "degrade {} vs straggle {}",
            rd.total_seconds,
            rs.total_seconds
        );
    }

    #[test]
    fn preemption_replays_at_most_a_checkpoint_interval() {
        let base = base_step();
        let mut plan = FaultPlan::none();
        plan.checkpoint_every_steps = 8;
        plan.restart_delay_s = 3.0;
        plan.events.push(FaultEvent {
            at_s: 21.5 * base, // mid-step, well past checkpoint at 16
            duration_s: 0.0,
            kind: FaultKind::Preempt { replica: 1 },
        });
        let r = simulate_chaos(&cfg(), &plan, 50);
        assert_eq!(r.steps_completed, 50, "run must still finish");
        assert_eq!(r.preemptions, 1);
        assert!(
            r.replayed_steps > 0 && r.replayed_steps < 8,
            "replays {} must stay under the checkpoint interval",
            r.replayed_steps
        );
        assert_eq!(r.steps_executed, 50 + r.replayed_steps);
        assert!((r.restart_seconds - 3.0).abs() < 1e-12);
        // Total = healthy run + restart delay + replayed steps + the
        // wasted partial work of the aborted in-flight step (< 1 step).
        let floor = r.fault_free_seconds + r.restart_seconds + r.replayed_steps as f64 * base;
        assert!(
            r.total_seconds >= floor - 1e-9 && r.total_seconds < floor + base,
            "{} outside [{floor}, {})",
            r.total_seconds,
            floor + base
        );
    }

    #[test]
    fn transient_failures_charge_exponential_backoff() {
        let base = base_step();
        let mut plan = FaultPlan::none();
        plan.retry = RetryPolicy {
            max_attempts: 4,
            base_backoff_s: 0.1,
            multiplier: 2.0,
        };
        plan.events.push(FaultEvent {
            at_s: 5.5 * base,
            duration_s: 0.0,
            kind: FaultKind::TransientCollective { failures: 2 },
        });
        let r = simulate_chaos(&cfg(), &plan, 20);
        assert_eq!(r.steps_completed, 20);
        // Two failures → backoff 0.1 + 0.2.
        assert!((r.retry_seconds - 0.3).abs() < 1e-12, "{}", r.retry_seconds);
        let expect = r.fault_free_seconds + 0.3;
        assert!((r.total_seconds - expect).abs() < 1e-9);
    }

    #[test]
    fn generated_plans_are_deterministic_and_survivable() {
        let base = base_step();
        let horizon = 60.0 * base;
        let plan = FaultPlan::generate(42, 128, horizon, 4);
        let a = simulate_chaos(&cfg(), &plan, 60);
        let b = simulate_chaos(&cfg(), &plan, 60);
        assert_eq!(a.steps_completed, 60);
        assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
        assert_eq!(a.steps_executed, b.steps_executed);
        assert_eq!(a.replayed_steps, b.replayed_steps);
        assert!(a.overhead_factor() >= 1.0);
    }

    fn loss_at(at_step: u64, rank: usize) -> FaultEvent {
        FaultEvent {
            at_s: 0.0, // advisory only; PermanentLoss triggers by step
            duration_s: 0.0,
            kind: FaultKind::PermanentLoss { rank, at_step },
        }
    }

    #[test]
    fn permanent_loss_prices_the_resize_protocol() {
        let base = base_step();
        let mut plan = FaultPlan::none();
        plan.resize_checkpoint_s = 4.0;
        plan.resize_rebuild_s = 2.0;
        plan.restart_delay_s = 3.0;
        plan.events.push(loss_at(20, 7));
        let r = simulate_chaos(&cfg(), &plan, 50);
        assert_eq!(r.steps_completed, 50, "run must finish on the survivors");
        assert_eq!(r.permanent_losses, 1);
        assert_eq!(r.resizes, 1);
        assert!((r.resize_checkpoint_seconds - 4.0).abs() < 1e-12);
        assert!((r.resize_rebuild_seconds - 2.0).abs() < 1e-12);
        assert!((r.resize_restart_seconds - 3.0).abs() < 1e-12);
        // 127 survivors → 126-core torus (even floor).
        assert_eq!(r.surviving_cores, 126);
        // Survivors absorb the lost shard: the 30 post-resize steps each
        // run slower than the healthy pod's step.
        assert!(
            r.resize_degraded_seconds > 0.0,
            "degraded tax {} must be positive",
            r.resize_degraded_seconds
        );
        // Total decomposes exactly: healthy run + protocol + per-step tax.
        let expect = r.fault_free_seconds + r.resize_overhead_seconds();
        assert!(
            (r.total_seconds - expect).abs() < 1e-9,
            "{} vs {}",
            r.total_seconds,
            expect
        );
        assert!(r.total_seconds > r.fault_free_seconds + 9.0 - 1e-9);
        assert!(r.overhead_factor() > 1.0);
        // Sanity anchor: the protocol alone is ≥ 9 s; degraded steps add
        // a strictly positive amount bounded by the step count.
        assert!(r.resize_degraded_seconds < 30.0 * base);
    }

    #[test]
    fn earlier_loss_pays_more_degraded_steps() {
        let mut early = FaultPlan::none();
        early.events.push(loss_at(5, 0));
        let mut late = FaultPlan::none();
        late.events.push(loss_at(45, 0));
        let re = simulate_chaos(&cfg(), &early, 50);
        let rl = simulate_chaos(&cfg(), &late, 50);
        // Same protocol charge, but 45 vs 5 degraded steps.
        assert!((re.resize_checkpoint_seconds - rl.resize_checkpoint_seconds).abs() < 1e-12);
        assert!(
            re.resize_degraded_seconds > 5.0 * rl.resize_degraded_seconds,
            "early {} vs late {}",
            re.resize_degraded_seconds,
            rl.resize_degraded_seconds
        );
        assert!(re.total_seconds > rl.total_seconds);
    }

    #[test]
    fn coalesced_losses_run_one_protocol() {
        // Two ranks lost at the same step drain into a single resize;
        // losses at different steps each pay the protocol.
        let mut same = FaultPlan::none();
        same.events.push(loss_at(10, 1));
        same.events.push(loss_at(10, 2));
        let rs = simulate_chaos(&cfg(), &same, 40);
        assert_eq!(rs.permanent_losses, 2);
        assert_eq!(rs.resizes, 1);
        assert_eq!(rs.surviving_cores, 126);
        let mut split = FaultPlan::none();
        split.events.push(loss_at(10, 1));
        split.events.push(loss_at(20, 2));
        let rp = simulate_chaos(&cfg(), &split, 40);
        assert_eq!(rp.permanent_losses, 2);
        assert_eq!(rp.resizes, 2);
        assert_eq!(rp.surviving_cores, 126);
        assert!(
            rp.resize_restart_seconds > rs.resize_restart_seconds,
            "two protocols must charge two restarts"
        );
    }

    #[test]
    fn duplicate_loss_is_one_loss_as_in_the_trainer() {
        // A plan that names the same (step, rank) loss twice loses that
        // rank once: the trainer drains the compiled schedule's
        // boundaries, and the simulator must price the same world.
        let mut twice = FaultPlan::none();
        twice.events.push(loss_at(10, 1));
        twice.events.push(loss_at(10, 1));
        assert_eq!(twice.compile(40).resize_boundaries(), vec![(10, 1)]);
        let mut once = FaultPlan::none();
        once.events.push(loss_at(10, 1));
        let rt = simulate_chaos(&cfg(), &twice, 40);
        assert_eq!(rt.permanent_losses, 1);
        assert_eq!(rt.to_json(), simulate_chaos(&cfg(), &once, 40).to_json());
    }

    #[test]
    fn resize_composes_with_preemption() {
        // A preemption after the resize replays *degraded* steps; the run
        // still finishes and losses are never re-charged on replay.
        let base = base_step();
        let mut plan = FaultPlan::none();
        plan.checkpoint_every_steps = 8;
        plan.restart_delay_s = 2.0;
        plan.events.push(loss_at(10, 3));
        plan.events.push(FaultEvent {
            at_s: 30.0 * base, // lands mid-run, after the resize
            duration_s: 0.0,
            kind: FaultKind::Preempt { replica: 0 },
        });
        let r = simulate_chaos(&cfg(), &plan, 50);
        assert_eq!(r.steps_completed, 50);
        assert_eq!(r.preemptions, 1);
        assert_eq!(r.resizes, 1, "replay must not re-run the resize");
        assert_eq!(r.permanent_losses, 1);
        assert_eq!(r.steps_executed, 50 + r.replayed_steps);
    }

    #[test]
    fn preemption_after_a_resize_rewinds_no_further_than_the_resize() {
        // Cadence 8, loss at step 10, preemption in step 12: the cadence
        // checkpoint at 8 belongs to the drained world, so the replay
        // starts at the resized world's first step, 10.
        let base = base_step();
        let mut plan = FaultPlan::none();
        plan.checkpoint_every_steps = 8;
        plan.events.push(loss_at(10, 3));
        plan.events.push(FaultEvent {
            at_s: 12.5 * base,
            duration_s: 0.0,
            kind: FaultKind::Preempt { replica: 0 },
        });
        let r = simulate_chaos(&cfg(), &plan, 20);
        assert_eq!((r.resizes, r.preemptions), (1, 1));
        assert_eq!(r.replayed_steps, 2);
        assert_eq!(r.steps_executed, 20 + 2);
    }

    #[test]
    fn elastic_reports_are_deterministic() {
        let base = base_step();
        let horizon = 60.0 * base;
        let plan = FaultPlan::generate_elastic(7, 128, horizon, 3, 2);
        let a = simulate_chaos(&cfg(), &plan, 60);
        let b = simulate_chaos(&cfg(), &plan, 60);
        assert_eq!(a.steps_completed, 60);
        assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
        assert_eq!(
            a.resize_degraded_seconds.to_bits(),
            b.resize_degraded_seconds.to_bits()
        );
        assert_eq!(a.permanent_losses, b.permanent_losses);
        assert_eq!(a.surviving_cores, b.surviving_cores);
        assert!(a.permanent_losses >= 1, "generator must emit losses");
        assert!(a.surviving_cores < 128 && a.surviving_cores >= 124);
        assert!(a.overhead_factor() > 1.0);
    }

    #[test]
    fn recording_never_perturbs_the_simulation() {
        // A recorded chaos run must produce a bit-identical report, and the
        // recorded virtual stream must be deterministic run to run.
        let base = base_step();
        let horizon = 60.0 * base;
        let plan = FaultPlan::generate_elastic(11, 128, horizon, 3, 2);
        let plain = simulate_chaos(&cfg(), &plan, 60);
        let rec_a = Recorder::enabled(0);
        let rec_b = Recorder::enabled(0);
        let a = simulate_chaos_recorded(&cfg(), &plan, 60, &rec_a);
        let b = simulate_chaos_recorded(&cfg(), &plan, 60, &rec_b);
        assert_eq!(plain.total_seconds.to_bits(), a.total_seconds.to_bits());
        assert_eq!(plain.steps_executed, a.steps_executed);
        assert_eq!(plain.replayed_steps, a.replayed_steps);
        assert_eq!(
            plain.resize_degraded_seconds.to_bits(),
            a.resize_degraded_seconds.to_bits()
        );
        assert_eq!(rec_a.virtual_fingerprint(), rec_b.virtual_fingerprint());
        assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
        // Every executed step left a span; chaos adds control spans on top.
        assert!(rec_a.event_count() as u64 >= a.steps_executed);
    }

    #[test]
    fn recorded_chaos_trace_exports_valid_chrome_json() {
        let base = base_step();
        let mut plan = FaultPlan::none();
        plan.checkpoint_every_steps = 8;
        plan.restart_delay_s = 2.0;
        plan.events.push(loss_at(10, 3));
        plan.events.push(FaultEvent {
            at_s: 20.2 * base,
            duration_s: 0.0,
            kind: FaultKind::Preempt { replica: 0 },
        });
        plan.events.push(FaultEvent {
            at_s: 5.5 * base,
            duration_s: 0.0,
            kind: FaultKind::TransientCollective { failures: 2 },
        });
        let rec = Recorder::enabled(0);
        let r = simulate_chaos_recorded(&cfg(), &plan, 40, &rec);
        assert_eq!(r.steps_completed, 40);
        let json = ets_obs::chrome_trace(&rec);
        let stats = ets_obs::validate_chrome_trace(&json).expect("trace must validate");
        assert!(stats.spans as u64 >= r.steps_executed);
        assert!(stats.instants >= 1, "preemption must leave a rewind marker");
    }

    #[test]
    fn back_to_back_preemptions_converge() {
        // A second preemption landing inside the first restart window must
        // supersede it, not wedge the run.
        let base = base_step();
        let mut plan = FaultPlan::none();
        plan.restart_delay_s = 5.0 * base;
        plan.events.push(FaultEvent {
            at_s: 10.2 * base,
            duration_s: 0.0,
            kind: FaultKind::Preempt { replica: 0 },
        });
        plan.events.push(FaultEvent {
            at_s: 12.0 * base, // during the first restart delay
            duration_s: 0.0,
            kind: FaultKind::Preempt { replica: 1 },
        });
        let r = simulate_chaos(&cfg(), &plan, 30);
        assert_eq!(r.steps_completed, 30);
        assert_eq!(r.preemptions, 2);
        assert!(r.total_seconds > r.fault_free_seconds);
    }
}
