//! # ets-tensor
//!
//! Dense-tensor substrate for the EfficientNet-at-scale reproduction:
//! contiguous row-major `f32` tensors, one descriptor-driven GEMM entry
//! ([`ops::dispatch::gemm`]: a blocked packed kernel that runs on its
//! caller's thread, with a naive streaming tail for small shapes),
//! im2col convolution kernels, channel reductions for batch normalization, a
//! deterministic splittable PRNG, reference weight initializers, and a
//! software bfloat16 implementation for the paper's mixed-precision policy
//! (§3.5).
//!
//! Design notes:
//! - Everything is `f32` with `f64` accumulation in reductions; there are no
//!   views or lazy ops — kernels read and write flat slices.
//! - Kernels run on the calling thread and spawn none: the engine's
//!   parallelism is one thread per model replica, as in the paper's data
//!   parallelism, so kernels need no locks.
//! - All randomness flows through [`rng::Rng`], seeded explicitly.

pub mod bf16;
pub mod init;
pub mod ops;
pub mod rng;
pub mod scratch;
pub mod shape;
pub mod tensor;

pub use rng::Rng;
pub use scratch::{
    reset_scratch_counters, scratch_f32, scratch_reallocs, scratch_reallocs_local, ScratchVec,
};
pub use shape::{conv_out_dim, same_pad, Shape};
pub use tensor::Tensor;
