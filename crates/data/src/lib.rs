//! # ets-data
//!
//! Data substrate: the deterministic SynthNet dataset (ImageNet stand-in;
//! see DESIGN.md's substitution table), ImageNet cardinality metadata for
//! epoch/step arithmetic, deterministic epoch shuffling with exact
//! per-replica sharding, and a miniature augmentation pipeline.

pub mod dataset;
pub mod pipeline;
pub mod shard;
pub mod synth;

pub use dataset::{imagenet, materialize_batch, Dataset};
pub use pipeline::{load_batch, AugmentConfig};
pub use shard::EpochPlan;
pub use synth::SynthNet;
