//! # ets-collective
//!
//! Communication substrate for the EfficientNet-at-scale reproduction:
//!
//! - [`topology`] — TPU-v3 pod slices as 2-D chip tori (§2).
//! - [`group`] — BN replica grouping: contiguous and 2-D tiled (§3.4).
//! - [`backend`] — the [`Collective`] trait every consumer programs
//!   against. [`Backend`] names the tree / ring / torus2d / auto schedule
//!   an experiment would run on a pod ([`Schedule::for_backend`] reads
//!   it); in process every one runs the same communicator round, so
//!   results are bitwise identical.
//! - [`comm`] — real shared-memory collectives for in-process replica
//!   threads, with deterministic reduction order (the engine behind every
//!   [`Collective`]).
//! - [`cost`] — the all-reduce [`Schedule`] (tree, ring or 2-D torus),
//!   its α–β price and its ring phases, and the BN-sync cost.

pub mod backend;
pub mod comm;
pub mod cost;
pub mod fault;
pub mod group;
pub mod recovery;
pub mod topology;

pub use backend::{create_collective, Backend, Collective, CollectiveStats, CommCollective};
pub use comm::{CommHandle, Pieces};
pub use cost::{
    bn_sync_time, gradient_bytes, torus_all_reduce_time, LinkSpec, Schedule, TPU_V3_LINK,
};
pub use fault::{
    retry_collective, CollectiveError, FaultEvent, FaultKind, FaultPlan, FaultSchedule, RetryPolicy,
};
pub use group::{bn_batch_size, bn_partition, GroupSpec};
pub use recovery::{Capture, Preemption, RecoveryMachine, Resize, StepCharge, Top};
pub use topology::{canonical_grid, SliceShape, CORES_PER_CHIP};
