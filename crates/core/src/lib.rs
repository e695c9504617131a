//! # ets-train
//!
//! The paper's recipe, end to end: a distributed data-parallel trainer
//! running one thread per simulated TPU core, with deterministic tree
//! all-reduce for gradients, group-wise distributed batch normalization
//! (§3.4), distributed evaluation (§3.3), LARS/RMSProp large-batch
//! optimizers with linear scaling + warmup + polynomial/exponential decay
//! (§3.1/§3.2), and optional bfloat16 convolutions (§3.5).
//!
//! Entry point: [`train`] on an [`Experiment`].

pub mod bn_sync;
pub mod ckpt_store;
pub mod experiment;
pub mod grad_bucket;
pub mod paper_recipe;
pub mod report;
pub mod timeline;
pub mod trainer;

pub use bn_sync::GroupStatSync;
pub use ckpt_store::{
    crc32, CkptError, CkptStore, CorruptionInjector, DurableSnapshot, LoadReport, ManifestEntry,
    Progress, ScrubReport, TensorRecord, CKPT_STORE_VERSION,
};
pub use experiment::{CorruptionPolicy, DecayChoice, Experiment, OptimizerChoice};
pub use grad_bucket::{GradBucket, DEFAULT_BUCKET_ELEMS};
pub use paper_recipe::{proxy_of, PROXY_LARS_LR, PROXY_LARS_TRUST, PROXY_RMSPROP_LR};
pub use report::{checksum_f32, EpochRecord, RecoveryCounters, TrainReport};
pub use timeline::{AllReduceProfile, PhaseBreakdown, ResizeRecord, StepTimeline, Stopwatch};
pub use trainer::{train, train_traced, DivergenceError};
