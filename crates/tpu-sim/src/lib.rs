//! # ets-tpu-sim
//!
//! A calibrated performance simulator of TPU-v3 pod training, standing in
//! for the hardware the paper used (see DESIGN.md's substitution table):
//!
//! - [`chip`] / [`xla`] — hardware constants and XLA's pad-to-8 batch rule.
//! - [`calibration`] — the two free parameters (MXU efficiency, achieved
//!   interconnect bandwidth), pinned to Table 1's 128-core rows.
//! - [`step`] — the step-time model: compute roofline + the price of an
//!   all-reduce `Schedule` (the chip slice's 2-D torus, or what a named
//!   `Backend` runs) + BN-group sync. Regenerates **Table 1**.
//! - [`netsim`] — runs an all-reduce `Schedule` step by step: the oracle
//!   for its closed-form price, and the slow-link what-if.
//! - [`convergence`] — peak-accuracy model calibrated to **Table 2**, plus
//!   learning-curve shapes.
//! - [`eval_loop`] — the TPUEstimator separate-evaluator pipeline, a
//!   FIFO queue of checkpoints, vs the distributed train-and-eval loop
//!   (§3.3).
//! - [`e2e`] — the composite time-to-accuracy model. Regenerates
//!   **Figure 1**.
//! - [`scaling`] — throughput and parallel efficiency across slice sizes,
//!   and the Amdahl serial fraction.
//! - [`whatif`] — a degraded interconnect link and host infeed limits.
//! - [`fault`] — pod-scale chaos simulation: walks an
//!   `ets_collective::FaultPlan` with the trainer's `RecoveryMachine` and
//!   prices its actions with the calibrated step-time model.

pub mod calibration;
pub mod chip;
pub mod convergence;
pub mod e2e;
pub mod eval_loop;
pub mod fault;
pub mod netsim;
pub mod scaling;
pub mod step;
pub mod whatif;
pub mod xla;

pub use calibration::{calibrated_link, mxu_efficiency};
pub use chip::{CoreSpec, TPU_V3_CORE};
pub use convergence::{
    accuracy_at_epoch, peak_epoch_fraction, predict_peak_accuracy, OptimizerKind, Table2Row, TABLE2,
};
pub use e2e::{time_to_accuracy, time_to_accuracy_for_backend, RunConfig, RunOutcome};
pub use eval_loop::{eval_pass_seconds, simulate as simulate_eval_loop, EvalLoopOutcome, EvalMode};
pub use fault::{simulate_chaos, simulate_chaos_recorded, PodChaosReport};
pub use netsim::simulate_all_reduce;
pub use scaling::{amdahl_serial_fraction, scaling_sweep, ScalingPoint};
pub use step::{
    batch_eff_factor, hidden_all_reduce, schedule_for, step_time, step_time_elastic,
    step_time_for_backend, total_bn_channels, StepConfig, StepTime, OVERLAP_BUCKET_ELEMS,
};
pub use whatif::{
    degraded_link_impact, infeed_analysis, DegradedLinkReport, InfeedReport, CORES_PER_HOST,
};
pub use xla::{
    batch_efficiency, min_efficient_global_batch, padded_per_core_batch, per_core_batch,
};
