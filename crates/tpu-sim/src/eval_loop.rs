//! Evaluation-loop models (§3.3): TPUEstimator's separate evaluator versus
//! the distributed train-and-eval loop of Kumar et al.
//!
//! The paper's observation: to *measure* peak top-1 accuracy, every epoch's
//! checkpoint must be evaluated. With TPUEstimator, evaluation runs on a
//! small separate TPU; once training epochs finish faster than one
//! evaluation pass, the evaluator becomes the pipeline bottleneck and
//! end-to-end time is governed by `epochs × eval_time` instead of training
//! time. The distributed loop runs evaluation on *all* training cores
//! between epochs, shrinking the per-epoch overhead by the slice-size
//! ratio.
//!
//! Both variants are simulated with the discrete-event engine.

use crate::calibration::{core_spec, mxu_efficiency};
use crate::event::EventSim;
use ets_data::imagenet;
use ets_efficientnet::{model_stats, ModelConfig, Variant};

/// How evaluation is executed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EvalMode {
    /// TPUEstimator-style: a dedicated evaluator slice (e.g. 8 cores —
    /// a v3-8) consumes checkpoints FIFO.
    SeparateEvaluator { eval_cores: usize },
    /// Kumar et al.: train and eval share all cores, alternating.
    Distributed,
}

/// Outcome of simulating a full run's evaluation pipeline.
#[derive(Clone, Copy, Debug)]
pub struct EvalLoopOutcome {
    /// Wall-clock seconds until the peak-epoch checkpoint has been
    /// *evaluated* (when the result becomes known).
    pub time_to_peak_observed: f64,
    /// Pure training time up to the peak epoch.
    pub train_time_to_peak: f64,
    /// Seconds of a single evaluation pass.
    pub eval_pass_seconds: f64,
    /// Evaluations executed before the peak was observed.
    pub evals_run: usize,
}

/// Seconds for one pass over the 50 k-image validation set on `cores`
/// cores (forward-only, plus a fixed per-pass orchestration overhead).
pub fn eval_pass_seconds(variant: Variant, cores: usize, per_pass_overhead: f64) -> f64 {
    let stats = model_stats(&ModelConfig::variant(variant));
    let eff = mxu_efficiency(variant);
    let flops = imagenet::VAL_IMAGES as f64 * stats.flops_forward();
    flops / (cores as f64 * eff * core_spec().peak_flops) + per_pass_overhead
}

/// Checkpoint-handling overhead for the separate evaluator (restore the
/// model, host round-trips) — the fixed cost TPUEstimator pays per eval.
pub const SEPARATE_EVAL_OVERHEAD: f64 = 30.0;
/// Per-epoch overhead of switching between train and eval programs in the
/// distributed loop (no checkpoint restore; weights stay on-device).
pub const DISTRIBUTED_EVAL_OVERHEAD: f64 = 1.0;

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Training finished epoch `e` (1-based).
    EpochDone(u32),
    /// Evaluator finished evaluating epoch `e`'s checkpoint.
    EvalDone(u32),
}

/// Simulates a run of `total_epochs` epochs with per-epoch training time
/// `epoch_seconds`, peaking at `peak_epoch`, under the given eval mode.
pub fn simulate(
    variant: Variant,
    train_cores: usize,
    epoch_seconds: f64,
    total_epochs: u32,
    peak_epoch: u32,
    mode: EvalMode,
) -> EvalLoopOutcome {
    assert!(peak_epoch >= 1 && peak_epoch <= total_epochs);
    match mode {
        EvalMode::SeparateEvaluator { eval_cores } => {
            let eval_secs = eval_pass_seconds(variant, eval_cores, SEPARATE_EVAL_OVERHEAD);
            let mut sim: EventSim<Ev> = EventSim::new();
            // Training emits checkpoints at epoch boundaries, unimpeded.
            for e in 1..=total_epochs {
                sim.schedule_at(e as f64 * epoch_seconds, Ev::EpochDone(e));
            }
            let mut queue: std::collections::VecDeque<u32> = Default::default();
            let mut evaluator_busy_until = 0.0f64;
            let mut evals = 0usize;
            let mut observed = None;
            while let Some(ev) = sim.next() {
                match ev {
                    Ev::EpochDone(e) => {
                        queue.push_back(e);
                        // If idle, start the next eval now.
                        if evaluator_busy_until <= sim.now() {
                            let ckpt = queue.pop_front().unwrap();
                            evaluator_busy_until = sim.now() + eval_secs;
                            sim.schedule_at(evaluator_busy_until, Ev::EvalDone(ckpt));
                        }
                    }
                    Ev::EvalDone(e) => {
                        evals += 1;
                        if e >= peak_epoch && observed.is_none() {
                            observed = Some(sim.now());
                            break;
                        }
                        if let Some(ckpt) = queue.pop_front() {
                            evaluator_busy_until = sim.now() + eval_secs;
                            sim.schedule_at(evaluator_busy_until, Ev::EvalDone(ckpt));
                        }
                    }
                }
            }
            EvalLoopOutcome {
                time_to_peak_observed: observed
                    .expect("peak checkpoint must eventually be evaluated"),
                train_time_to_peak: peak_epoch as f64 * epoch_seconds,
                eval_pass_seconds: eval_secs,
                evals_run: evals,
            }
        }
        EvalMode::Distributed => {
            let eval_secs = eval_pass_seconds(variant, train_cores, DISTRIBUTED_EVAL_OVERHEAD);
            // Train and eval alternate on the same cores: epoch e's result
            // is known at e·(train + eval).
            let per_epoch = epoch_seconds + eval_secs;
            EvalLoopOutcome {
                time_to_peak_observed: peak_epoch as f64 * per_epoch,
                train_time_to_peak: peak_epoch as f64 * epoch_seconds,
                eval_pass_seconds: eval_secs,
                evals_run: peak_epoch as usize,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B2_1024_EPOCH_SECS: f64 = 2.8; // ~39 steps × ~72 ms

    #[test]
    fn separate_evaluator_becomes_the_bottleneck_at_scale() {
        // B2 on 1024 cores: a training epoch takes ~3 s, but one eval pass
        // on a v3-8 takes much longer — end-to-end time is eval-dominated,
        // exactly §3.3's complaint.
        let out = simulate(
            Variant::B2,
            1024,
            B2_1024_EPOCH_SECS,
            350,
            340,
            EvalMode::SeparateEvaluator { eval_cores: 8 },
        );
        assert!(
            out.time_to_peak_observed > 3.0 * out.train_time_to_peak,
            "eval-bound: observed {} vs train {}",
            out.time_to_peak_observed,
            out.train_time_to_peak
        );
        // FIFO backlog: every checkpoint up to the peak gets evaluated.
        assert_eq!(out.evals_run, 340);
    }

    #[test]
    fn distributed_eval_overhead_is_small() {
        let out = simulate(
            Variant::B2,
            1024,
            B2_1024_EPOCH_SECS,
            350,
            340,
            EvalMode::Distributed,
        );
        let overhead = out.time_to_peak_observed - out.train_time_to_peak;
        assert!(
            overhead < 0.8 * out.train_time_to_peak,
            "distributed eval keeps overhead moderate: {overhead}"
        );
        // And beats the separate evaluator by a wide margin.
        let sep = simulate(
            Variant::B2,
            1024,
            B2_1024_EPOCH_SECS,
            350,
            340,
            EvalMode::SeparateEvaluator { eval_cores: 8 },
        );
        assert!(out.time_to_peak_observed < 0.5 * sep.time_to_peak_observed);
    }

    #[test]
    fn separate_evaluator_fine_at_small_scale() {
        // At 128 cores an epoch takes 8× longer; the evaluator keeps up
        // better and the distortion shrinks.
        let small = simulate(
            Variant::B5,
            128,
            420.0 * 313.0 / 1000.0, // B5@128: ~313 steps × 420 ms
            350,
            340,
            EvalMode::SeparateEvaluator { eval_cores: 8 },
        );
        let ratio = small.time_to_peak_observed / small.train_time_to_peak;
        assert!(ratio < 1.6, "small-scale ratio {ratio}");
    }

    #[test]
    fn eval_pass_scales_with_cores() {
        let e8 = eval_pass_seconds(Variant::B2, 8, 0.0);
        let e1024 = eval_pass_seconds(Variant::B2, 1024, 0.0);
        assert!((e8 / e1024 - 128.0).abs() < 1.0);
    }

    #[test]
    fn peak_epoch_must_be_valid() {
        let r = std::panic::catch_unwind(|| {
            simulate(Variant::B2, 8, 1.0, 10, 11, EvalMode::Distributed)
        });
        assert!(r.is_err());
    }
}
