//! # ets-tensor
//!
//! Dense-tensor substrate for the EfficientNet-at-scale reproduction:
//! contiguous row-major `f32` tensors, one descriptor-driven GEMM entry
//! ([`ops::dispatch::gemm`]: a blocked packed kernel on a deterministic
//! tile-grid worker pool, with a naive streaming tail for small shapes),
//! im2col convolution kernels, channel reductions for batch normalization, a
//! deterministic splittable PRNG, reference weight initializers, and a
//! software bfloat16 implementation for the paper's mixed-precision policy
//! (§3.5).
//!
//! Design notes:
//! - Everything is `f32` with `f64` accumulation in reductions; there are no
//!   views or lazy ops — kernels read and write flat slices.
//! - Parallelism is data-parallel over independent output blocks (tiles of a
//!   GEMM, images of a batch, channel planes), so kernels need no locks.
//! - All randomness flows through [`rng::Rng`], seeded explicitly.

pub mod bf16;
pub mod init;
pub mod ops;
pub mod par;
pub mod rng;
pub mod scratch;
pub mod shape;
pub mod tensor;

pub use par::{
    effective_workers, gemm_workers, host_parallelism, reset_worker_stats, set_gemm_workers,
    set_tile_delay, worker_stats, WorkerStat, MAX_WORKERS,
};
pub use rng::Rng;
pub use scratch::{
    reset_scratch_counters, scratch_checkouts, scratch_f32, scratch_reallocs,
    scratch_reallocs_local, ScratchVec,
};
pub use shape::{conv_out_dim, same_pad, Shape};
pub use tensor::Tensor;
