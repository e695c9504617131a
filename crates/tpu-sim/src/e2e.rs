//! End-to-end time-to-accuracy (the generator of Figure 1).
//!
//! Combines the step-time model (Table 1), the convergence model
//! (Table 2), and the distributed eval-loop model (§3.3): the paper
//! measures "time from initialization of the distributed training and
//! evaluation loop to peak top-1 accuracy", which is what
//! [`time_to_accuracy`] returns.

use crate::convergence::{peak_epoch_fraction, predict_peak_accuracy, OptimizerKind};
use crate::eval_loop::{simulate, EvalMode};
use crate::step::{step_time, step_time_for_backend, StepConfig, StepTime};
use ets_collective::Backend;
use ets_data::imagenet;
use ets_efficientnet::Variant;
use ets_optim::steps_per_epoch;

/// A full training-run configuration.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub variant: Variant,
    pub cores: usize,
    pub global_batch: usize,
    pub optimizer: OptimizerKind,
    pub total_epochs: u32,
    pub eval_mode: EvalMode,
}

impl RunConfig {
    /// The paper's setup: 350 epochs, distributed eval.
    pub fn paper(
        variant: Variant,
        cores: usize,
        global_batch: usize,
        optimizer: OptimizerKind,
    ) -> Self {
        RunConfig {
            variant,
            cores,
            global_batch,
            optimizer,
            total_epochs: 350,
            eval_mode: EvalMode::Distributed,
        }
    }
}

/// Simulated outcome of a run.
#[derive(Clone, Copy, Debug)]
pub struct RunOutcome {
    /// Seconds per training step.
    pub step_seconds: f64,
    /// Steps per epoch at this global batch.
    pub steps_per_epoch: u64,
    /// Epoch at which top-1 peaks.
    pub peak_epoch: u32,
    /// Predicted peak top-1 accuracy.
    pub peak_top1: f64,
    /// Wall-clock seconds from loop init to the peak being observed.
    pub seconds_to_peak: f64,
    /// Pure training seconds to the peak epoch (no eval).
    pub train_seconds_to_peak: f64,
}

impl RunOutcome {
    /// Minutes to peak, Figure 1's y-axis.
    pub fn minutes_to_peak(&self) -> f64 {
        self.seconds_to_peak / 60.0
    }
}

/// Runs the composite model with the chip-slice torus step-time pricing.
pub fn time_to_accuracy(cfg: &RunConfig) -> RunOutcome {
    outcome_from_step_time(
        cfg,
        step_time(&StepConfig::new(cfg.variant, cfg.cores, cfg.global_batch)),
    )
}

/// Runs the composite model with the gradient exchange priced under an
/// explicit collective backend ([`Backend::Auto`] resolves per call via
/// the α–β cost models). Figure 1's committed rows use this with `Auto`
/// so the figure reflects the torus pricing the executed backend
/// dispatch actually picks at each world size.
pub fn time_to_accuracy_for_backend(cfg: &RunConfig, backend: Backend) -> RunOutcome {
    outcome_from_step_time(
        cfg,
        step_time_for_backend(
            &StepConfig::new(cfg.variant, cfg.cores, cfg.global_batch),
            backend,
        ),
    )
}

fn outcome_from_step_time(cfg: &RunConfig, st: StepTime) -> RunOutcome {
    let spe = steps_per_epoch(imagenet::TRAIN_IMAGES, cfg.global_batch as u64);
    let epoch_seconds = st.total() * spe as f64;
    let peak_epoch = ((cfg.total_epochs as f64 * peak_epoch_fraction(cfg.optimizer)).round()
        as u32)
        .clamp(1, cfg.total_epochs);
    let outcome = simulate(
        cfg.variant,
        cfg.cores,
        epoch_seconds,
        cfg.total_epochs,
        peak_epoch,
        cfg.eval_mode,
    );
    RunOutcome {
        step_seconds: st.total(),
        steps_per_epoch: spe,
        peak_epoch,
        peak_top1: predict_peak_accuracy(cfg.variant, cfg.optimizer, cfg.global_batch),
        seconds_to_peak: outcome.time_to_peak_observed,
        train_seconds_to_peak: outcome.train_time_to_peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_result_b5_at_65536() {
        // "83.0% in 1 hour and 4 minutes" on 1024 cores at batch 65536.
        let out = time_to_accuracy(&RunConfig::paper(
            Variant::B5,
            1024,
            65536,
            OptimizerKind::Lars,
        ));
        assert!((out.peak_top1 - 0.830).abs() < 1e-9);
        let minutes = out.minutes_to_peak();
        assert!(
            (minutes - 64.0).abs() < 12.0,
            "B5@65536 should land near 64 min, got {minutes:.1}"
        );
    }

    #[test]
    fn b2_at_1024_lands_near_18_minutes() {
        let out = time_to_accuracy(&RunConfig::paper(
            Variant::B2,
            1024,
            32768,
            OptimizerKind::Lars,
        ));
        let minutes = out.minutes_to_peak();
        assert!(
            (minutes - 18.0).abs() < 5.0,
            "B2@1024 should land near 18 min, got {minutes:.1}"
        );
        assert!((out.peak_top1 - 0.797).abs() < 1e-9);
    }

    #[test]
    fn figure1_monotone_in_slice_size() {
        // Figure 1's shape: time to peak strictly shrinks as the slice
        // grows (per-core batch fixed at 32).
        for v in [Variant::B2, Variant::B5] {
            let mut prev = f64::INFINITY;
            for &cores in &[128usize, 256, 512, 1024] {
                let out =
                    time_to_accuracy(&RunConfig::paper(v, cores, cores * 32, OptimizerKind::Lars));
                assert!(
                    out.seconds_to_peak < prev,
                    "{v:?}@{cores} not faster than previous"
                );
                prev = out.seconds_to_peak;
            }
        }
    }

    #[test]
    fn scaling_efficiency_near_linear() {
        // 8× the cores → close to 8× faster (eval overhead nibbles a bit).
        let t128 = time_to_accuracy(&RunConfig::paper(
            Variant::B2,
            128,
            4096,
            OptimizerKind::RmsProp,
        ));
        let t1024 = time_to_accuracy(&RunConfig::paper(
            Variant::B2,
            1024,
            32768,
            OptimizerKind::Lars,
        ));
        let speedup = t128.seconds_to_peak / t1024.seconds_to_peak;
        assert!(
            speedup > 5.5 && speedup < 9.0,
            "128→1024 speedup {speedup:.2}"
        );
    }

    #[test]
    fn backend_priced_outcome_only_moves_the_all_reduce_term() {
        use crate::step::schedule_for;
        // Auto's pricing swaps the chip-slice torus exchange for the
        // cheapest member-grid backend; everything else (compute, BN,
        // eval loop, convergence) is untouched, so the headline can
        // shift only by the all-reduce share (a few percent).
        for &(v, cores, gbs) in &[
            (Variant::B2, 1024usize, 32768usize),
            (Variant::B5, 1024, 65536),
        ] {
            let cfg = RunConfig::paper(v, cores, gbs, OptimizerKind::Lars);
            let base = time_to_accuracy(&cfg);
            let auto = time_to_accuracy_for_backend(&cfg, Backend::Auto);
            assert_eq!(auto.peak_top1, base.peak_top1);
            assert_eq!(auto.peak_epoch, base.peak_epoch);
            assert_eq!(auto.steps_per_epoch, base.steps_per_epoch);
            let ratio = auto.seconds_to_peak / base.seconds_to_peak;
            assert!(
                (ratio - 1.0).abs() < 0.05,
                "{v:?}@{cores}: auto pricing moved time-to-peak x{ratio:.4}"
            );
            // The resolved choice is a concrete transport, and pricing it
            // directly agrees with pricing through Auto.
            let picked = schedule_for(&StepConfig::new(v, cores, gbs), Backend::Auto).backend();
            assert_ne!(picked, Backend::Auto);
            let direct = time_to_accuracy_for_backend(&cfg, picked);
            assert_eq!(
                direct.seconds_to_peak.to_bits(),
                auto.seconds_to_peak.to_bits()
            );
        }
    }

    #[test]
    fn separate_evaluator_inflates_end_to_end_time() {
        let mut cfg = RunConfig::paper(Variant::B2, 1024, 32768, OptimizerKind::Lars);
        let dist = time_to_accuracy(&cfg);
        cfg.eval_mode = EvalMode::SeparateEvaluator { eval_cores: 8 };
        let sep = time_to_accuracy(&cfg);
        assert!(
            sep.seconds_to_peak > 2.0 * dist.seconds_to_peak,
            "separate {0:.0}s vs distributed {1:.0}s",
            sep.seconds_to_peak,
            dist.seconds_to_peak
        );
    }
}
