//! Schedule-adversarial tests for the overlapped gradient exchange.
//!
//! The overlapped exchange fires each bucket's all-reduce from a per-step
//! communication thread while backward is still running, so its claim —
//! bitwise-identical training at any thread schedule — has to hold across
//! every world size and fault plan. These tests pin exactly that: full
//! training runs with overlap on must reproduce the serialized runs'
//! weight checksums, histories, and recovery counters bit for bit.
//!
//! Bucket layout is held fixed across each on/off pair, so overlap is
//! never tested through a layout change.

use ets_collective::{FaultEvent, FaultKind};
use ets_train::{train, Experiment};

/// A short but real experiment: small enough to run many times in CI,
/// big enough that the model splits into many buckets at `bucket_elems`.
fn overlap_exp(replicas: usize, bucket_elems: usize) -> Experiment {
    let mut e = Experiment::proxy_default();
    e.replicas = replicas;
    e.per_replica_batch = 8;
    e.epochs = 1;
    e.eval_every = 1;
    e.train_samples = 64;
    e.eval_samples = 16;
    e.grad_bucket_elems = Some(bucket_elems);
    e
}

#[test]
fn overlap_is_bitwise_on_every_backend_and_world() {
    // Worlds {2, 4}: toggling overlap must not move a single bit of the
    // final weights or the epoch history.
    for world in [2usize, 4] {
        let mut serial = overlap_exp(world, 512);
        serial.overlap_all_reduce = false;
        let mut overlap = serial.clone();
        overlap.overlap_all_reduce = true;

        let a = train(&serial);
        let b = train(&overlap);
        assert_eq!(
            a.weight_checksum, b.weight_checksum,
            "world={world}: overlap changed the trajectory"
        );
        assert_eq!(a.history, b.history, "world={world}");
        assert_eq!(a.steps, b.steps, "world={world}");
        // The overlapped run really took the overlapped path...
        assert_eq!(
            b.all_reduce_buckets.overlapped_rounds, b.all_reduce_buckets.rounds,
            "world={world}: some rounds fell back to serialized"
        );
        assert!(b.all_reduce_buckets.rounds > 0);
        // ...and the serialized run none of it.
        assert_eq!(a.all_reduce_buckets.overlapped_rounds, 0);
        // Serialized exposes every bucket second by construction.
        assert!(
            a.all_reduce_buckets.exposed_seconds >= a.all_reduce_buckets.total_seconds() * 0.999,
            "world={world}: serialized run hid communication?"
        );
    }
}

/// A fault plan that lands transient collective failures and a preemption
/// inside the run's step window.
fn chaos(e: &mut Experiment) {
    e.faults.checkpoint_every_steps = 2;
    e.faults.restart_delay_s = 3.0;
    e.faults.events = vec![
        FaultEvent {
            at_s: 0.5,
            duration_s: 0.0,
            kind: FaultKind::TransientCollective { failures: 2 },
        },
        FaultEvent {
            at_s: 1.5,
            duration_s: 0.0,
            kind: FaultKind::TransientCollective { failures: 1 },
        },
        FaultEvent {
            // One step past the checkpoint cadence, so the rewind has a
            // real gap to replay.
            at_s: 3.5,
            duration_s: 0.0,
            kind: FaultKind::Preempt { replica: 1 },
        },
    ];
}

#[test]
fn chaos_overlap_replays_bitwise() {
    // Satellite: transient collective faults + a preempt-rewind replay
    // with the overlapped exchange active. The faulted overlapped run
    // must (a) be reproducible run-to-run, (b) match the faulted
    // serialized run bit for bit, and (c) absorb the same number of
    // transients — the fault injector keys on per-step attempt counts,
    // which the comm thread preserves.
    let mut serial = overlap_exp(4, 512);
    serial.epochs = 2; // enough steps for every planned fault to land
    chaos(&mut serial);
    serial.overlap_all_reduce = false;
    let mut overlap = serial.clone();
    overlap.overlap_all_reduce = true;

    let a = train(&serial);
    let b1 = train(&overlap);
    let b2 = train(&overlap);
    assert_eq!(
        b1.weight_checksum, b2.weight_checksum,
        "faulted overlapped run is not reproducible"
    );
    assert_eq!(b1.fault_recovery, b2.fault_recovery);
    assert_eq!(
        a.weight_checksum, b1.weight_checksum,
        "overlap changed the faulted trajectory"
    );
    assert_eq!(a.history, b1.history);
    assert_eq!(a.fault_recovery, b1.fault_recovery);
    assert!(
        b1.fault_recovery.transient_failures >= 3,
        "planned transients were not injected"
    );
    assert!(b1.fault_recovery.preemptions >= 1, "preempt never fired");
    assert!(b1.fault_recovery.replayed_steps >= 1, "nothing replayed");
}
