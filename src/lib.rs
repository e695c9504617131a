//! # efficientnet-at-scale
//!
//! A Rust reproduction of *"Training EfficientNets at Supercomputer Scale:
//! 83% ImageNet Top-1 Accuracy in One Hour"* (IPPS 2021).
//!
//! This facade crate re-exports the workspace:
//!
//! - [`tensor`] — dense tensor kernels, parallel GEMM/conv, software bf16.
//! - [`nn`] — layers with manual backprop (conv, distributable batch norm,
//!   squeeze-excite, losses, EMA).
//! - [`efficientnet`] — the model family with compound scaling B0–B7 and
//!   analytic FLOPs.
//! - [`optim`] — LARS, RMSProp, SM3, LAMB, and the paper's LR schedules.
//! - [`collective`] — torus topology, BN replica grouping, real
//!   shared-memory collectives, and α–β cost models.
//! - [`tpu_sim`] — the calibrated TPU-v3 pod performance simulator
//!   (Tables 1–2, Figure 1).
//! - [`data`] — the SynthNet dataset, sharding, and input pipeline.
//! - [`train`] — the distributed trainer tying it all together.
//! - [`obs`] — the deterministic flight recorder (two-clock spans,
//!   zero-alloc counters, Chrome-trace / summary exporters).
//!
//! See README.md for a tour and DESIGN.md for the paper-to-module map.
//!
//! ## Example: the headline simulation
//!
//! ```
//! use efficientnet_at_scale::efficientnet::Variant;
//! use efficientnet_at_scale::tpu_sim::{time_to_accuracy, OptimizerKind, RunConfig};
//!
//! let run = RunConfig::paper(Variant::B5, 1024, 65536, OptimizerKind::Lars);
//! let out = time_to_accuracy(&run);
//! assert!((out.peak_top1 - 0.830).abs() < 1e-9);          // Table 2's last row
//! assert!((out.minutes_to_peak() - 64.0).abs() < 12.0);   // "1 hour and 4 minutes"
//! ```
//!
//! ## Example: real distributed training on the proxy task
//!
//! ```
//! use efficientnet_at_scale::train::{train, Experiment};
//!
//! let mut exp = Experiment::proxy_default();
//! exp.replicas = 2;
//! exp.epochs = 1;
//! exp.train_samples = 64;
//! exp.eval_samples = 16;
//! let report = train(&exp);
//! assert!(report.final_loss().is_finite());
//! ```

pub use ets_collective as collective;
pub use ets_data as data;
pub use ets_efficientnet as efficientnet;
pub use ets_nn as nn;
pub use ets_obs as obs;
pub use ets_optim as optim;
pub use ets_tensor as tensor;
pub use ets_tpu_sim as tpu_sim;
pub use ets_train as train;

/// README.md's Rust snippets, compiled (and run unless marked `no_run`)
/// by `cargo test` so the tour cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
