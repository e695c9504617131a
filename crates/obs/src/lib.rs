//! `ets-obs` — the deterministic flight recorder.
//!
//! A unified tracing/metrics layer for the whole workspace, sitting at the
//! bottom of the dependency stack (beside `ets-collective`). Producers —
//! the trainer phase loop, `GradBucket`, `FaultyCollective`, the durable
//! checkpoint store, the pod chaos simulator, and the bench bins — record
//! into one [`Recorder`] instead of private ad-hoc structs.
//!
//! Three pieces:
//!
//! 1. [`recorder`] — hierarchical spans on **two clocks** (deterministic
//!    virtual seconds, asserted bit-identical across ranks/backends, and
//!    host wall clock) plus a counters/gauges/histograms registry that is
//!    zero-alloc in steady state with `scratch_reallocs`-style self-checks.
//! 2. Exporters — [`chrome`] (trace-event JSON, one pid per rank),
//!    [`summary`] (Table-1-style per-run rows), [`prom`] (Prometheus text).
//! 3. [`json`] / [`validate`] — the workspace's one JSON path: a
//!    dependency-free writer every artifact is emitted through, and the
//!    parser + trace-event schema validator tests and CI read it back with.

pub mod chrome;
pub mod json;
pub mod prom;
pub mod recorder;
pub mod summary;
pub mod validate;

pub use chrome::{chrome_trace, chrome_trace_multi};
pub use json::JsonWriter;
pub use prom::{prometheus_text, prometheus_text_multi};
pub use recorder::{phase, Clock, Event, EventKind, Lane, Recorder, WallSpan};
pub use summary::{summaries_to_json, OverheadDecomposition, RunSummary, STEP_TIME_SCHEMA};
pub use validate::{parse_json, validate_chrome_trace, validate_step_time_json, TraceStats, Value};
