//! # ets-nn
//!
//! Neural-network layers with explicit manual backpropagation, built on
//! `ets-tensor`. Provides everything EfficientNet needs: dense/depthwise
//! convolutions with optional bfloat16 mixed precision (§3.5 of the paper),
//! batch normalization with pluggable cross-replica statistics (§3.4),
//! squeeze-and-excite, swish, stochastic depth, label-smoothed softmax
//! cross-entropy, top-k metrics, and weight EMA.
//!
//! The layer contract is documented on [`layer::Layer`]: `forward` caches,
//! `backward` consumes the cache and *accumulates* parameter gradients.

pub mod activations;
pub mod batchnorm;
pub mod conv;
pub mod dropout;
pub mod ema;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod metrics;
pub mod param;
pub mod pool;
pub mod se;

pub use activations::{Relu, Sigmoid, Swish};
pub use batchnorm::{BatchNorm2d, LocalStats, StatSync};
pub use conv::{Conv2d, DepthwiseConv2d, Precision};
// Re-exported so model/trainer code can name the dispatch policy without
// depending on ets-tensor's module layout.
pub use dropout::{DropPath, Dropout};
pub use ema::{Ema, EmaState};
pub use ets_tensor::ops::dispatch::{GemmPolicy, GemmPrecision};
pub use layer::{
    param_count, replicate, snapshot_params, zero_grads, HookedBackward, Layer, Mode, Sequential,
};
pub use linear::Linear;
pub use loss::{cross_entropy, softmax, LossOutput};
pub use metrics::{top1_accuracy, top_k_correct, EvalCounts};
pub use param::{Param, ParamKind, Weight, WeightData};
pub use pool::GlobalAvgPool;
pub use se::SqueezeExcite;
