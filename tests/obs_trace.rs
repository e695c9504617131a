//! Acceptance tests for the flight recorder (ISSUE 4's tentpole):
//!
//! - A traced 2×2-world run with injected faults produces a Chrome trace
//!   that validates against the trace-event schema, with one pid per rank.
//! - The **virtual-time** span stream is bit-identical across all ranks
//!   and across runs — the virtual clock is derived from the
//!   deterministic fault timeline, never from wall time, so it must not
//!   care which rank reduced what when.
//! - A disabled recorder adds zero steady-state allocations, and an
//!   enabled one stays within its preallocated arena for this workload
//!   (both asserted through the `scratch_reallocs`-style self-check
//!   counters).
//! - Recording does not perturb numerics: traced and untraced runs yield
//!   bit-identical training histories.

use efficientnet_at_scale::collective::{FaultEvent, FaultKind};
use efficientnet_at_scale::obs::{
    chrome_trace_multi, phase, validate_chrome_trace, Lane, Recorder,
};
use efficientnet_at_scale::train::{train, train_traced, Experiment};

/// The faulted 2×2-world proxy run the acceptance criteria call out:
/// a straggler, a transient collective failure, and a preemption, all
/// landing inside a short two-epoch run with frequent checkpoints.
fn faulted_2x2() -> Experiment {
    let mut e = Experiment::proxy_default();
    e.replicas = 4;
    e.per_replica_batch = 8;
    e.epochs = 2;
    e.train_samples = 128;
    e.eval_samples = 32;
    e.eval_every = 2;
    e.faults.checkpoint_every_steps = 2;
    e.faults.restart_delay_s = 3.0;
    e.faults.events = vec![
        FaultEvent {
            at_s: 1.0,
            duration_s: 2.0,
            kind: FaultKind::Straggler {
                replica: 3,
                slowdown: 2.5,
            },
        },
        FaultEvent {
            at_s: 3.5,
            duration_s: 0.0,
            kind: FaultKind::TransientCollective { failures: 1 },
        },
        FaultEvent {
            at_s: 5.0,
            duration_s: 0.0,
            kind: FaultKind::Preempt { replica: 1 },
        },
    ];
    e
}

#[test]
fn traced_faulted_run_exports_a_valid_chrome_trace_with_one_pid_per_rank() {
    let exp = faulted_2x2();
    let (report, recorders) = train_traced(&exp);
    assert!(
        report.fault_recovery.preemptions >= 1,
        "the plan's preemption must fire"
    );
    assert!(
        report.fault_recovery.transient_failures >= 1,
        "the plan's transient collective failure must fire"
    );

    let refs: Vec<&Recorder> = recorders.iter().map(|r| r.as_ref()).collect();
    let trace = chrome_trace_multi(&refs);
    let stats = validate_chrome_trace(&trace).expect("chrome trace must validate");
    assert_eq!(stats.pids, exp.replicas, "one pid per rank");
    assert!(stats.spans > 0, "trace must contain complete spans");
    assert!(stats.instants > 0, "trace must contain instant events");
}

#[test]
fn virtual_span_stream_is_bit_identical_across_ranks_and_backends() {
    let (_report, recorders) = train_traced(&faulted_2x2());
    let fp0 = recorders[0].virtual_fingerprint();
    for (rank, rec) in recorders.iter().enumerate().skip(1) {
        assert_eq!(
            rec.virtual_fingerprint(),
            fp0,
            "rank {rank} diverged from rank 0"
        );
    }
}

#[test]
fn tracing_does_not_perturb_training_numerics() {
    let exp = faulted_2x2();
    let untraced = train(&exp);
    let (traced, _recorders) = train_traced(&exp);
    assert_eq!(
        untraced.history.len(),
        traced.history.len(),
        "same number of recorded epochs"
    );
    for (a, b) in untraced.history.iter().zip(&traced.history) {
        assert_eq!(
            a.train_loss.to_bits(),
            b.train_loss.to_bits(),
            "train loss must be bit-identical with tracing on"
        );
    }
    assert_eq!(
        untraced.fault_recovery.preemptions,
        traced.fault_recovery.preemptions
    );
}

#[test]
fn disabled_recorder_adds_zero_steady_state_allocations() {
    // A disabled recorder must early-return before touching the arena:
    // hammer every instrumentation entry point and assert via the
    // self-check counters that nothing was ever allocated or recorded.
    let rec = Recorder::disabled();
    for step in 0..200_000u64 {
        rec.virtual_span(Lane::VirtualStep, phase::STEP, step as f64, 1.0, step, 0);
        rec.virtual_instant(Lane::VirtualControl, phase::REWIND, step as f64, step, 0);
        let _guard = rec.wall_span(Lane::WallPhase, phase::FORWARD, step, 0);
        rec.counter_add("steps", 1);
    }
    assert_eq!(
        rec.event_count(),
        0,
        "disabled recorder must record nothing"
    );
    assert_eq!(
        rec.events_reallocs(),
        0,
        "disabled recorder must never grow the event arena"
    );
    assert_eq!(
        rec.registry_reallocs(),
        0,
        "disabled recorder must never grow the counter slots"
    );
}

#[test]
fn enabled_recorder_stays_within_its_preallocated_arena_for_the_smoke_run() {
    // The traced faulted run must fit in the recorder's preallocated
    // event arena and counter slots: the self-check counters (the
    // recorder's analogue of the ring buffer's `scratch_reallocs`) stay 0.
    let (_report, recorders) = train_traced(&faulted_2x2());
    for rec in &recorders {
        assert!(rec.event_count() > 0, "traced run must record events");
        assert_eq!(
            rec.events_reallocs(),
            0,
            "rank {}: event arena grew past its preallocation",
            rec.rank()
        );
        assert_eq!(
            rec.registry_reallocs(),
            0,
            "rank {}: counter slots grew past their preallocation",
            rec.rank()
        );
    }
}
