//! Compute kernels over dense tensors.

pub mod abft;
pub mod act;
pub mod conv;
pub mod depthwise;
pub mod dispatch;
pub mod gemm_blocked;
pub mod matmul;
pub mod pool;
pub mod reduce;
pub mod simd;
