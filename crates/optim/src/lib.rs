//! # ets-optim
//!
//! Optimizers and learning-rate schedules for large-batch training:
//!
//! - [`Sgd`] — momentum SGD with coupled L2 weight decay.
//! - [`RmsProp`] — TF-semantics RMSProp, the original EfficientNet
//!   optimizer and the paper's small-batch baseline (Table 2).
//! - [`Lars`] — layer-wise adaptive rate scaling, the paper's large-batch
//!   optimizer (§3.1), with BN/bias exclusion.
//! - [`Sm3`] — the memory-efficient optimizer the paper's §5 proposes to
//!   study next (implemented as our extension experiment).
//! - [`Adam`] — Adam with decoupled (AdamW) weight decay, the common
//!   adaptive reference point.
//! - [`Lamb`] — LARS's Adam-based successor, for comparison.
//! - [`schedule`] — linear scaling per 256 samples, warmup, exponential /
//!   polynomial / cosine decay (§3.2), including the exact Table-2
//!   configurations as presets.
//!
//! Each optimizer is its hyper-parameters plus a per-parameter kernel
//! over one store of flat per-weight state slots ([`optimizer`]), which
//! also holds the one bit-exact export and import behind
//! [`OptimizerState`].

pub mod adam;
pub mod lamb;
pub mod lars;
pub mod optimizer;
pub mod rmsprop;
pub mod schedule;
pub mod sgd;
pub mod sm3;

pub use adam::Adam;
pub use lamb::Lamb;
pub use lars::Lars;
pub use optimizer::{Optimizer, OptimizerState};
pub use rmsprop::RmsProp;
pub use schedule::{
    lars_paper_schedule, linear_scaled_lr, rmsprop_paper_schedule, steps_per_epoch, BoxedSchedule,
    Constant, CosineDecay, ExponentialDecay, LrSchedule, PolynomialDecay, Shifted, Warmup,
};
pub use sgd::Sgd;
pub use sm3::Sm3;
