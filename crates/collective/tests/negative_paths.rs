//! Negative-path coverage for the collective backends: malformed calls
//! must surface as typed [`CollectiveError`]s, never as panics or hangs,
//! on every backend and including the degenerate world size of 1.

use ets_collective::{
    create_collective, retry_collective, Backend, Collective, CollectiveError, FaultPlan,
    FaultyCollective, RetryPolicy,
};
use std::sync::Arc;
use std::thread;

const BACKENDS: [Backend; 3] = [Backend::Tree, Backend::Ring, Backend::Auto];

#[test]
fn zero_length_all_reduce_is_a_typed_error() {
    for backend in BACKENDS {
        for world in [1usize, 2, 4] {
            let comms = create_collective(backend, world);
            let joins: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    thread::spawn(move || {
                        let mut empty: Vec<f32> = Vec::new();
                        c.try_all_reduce_mean(&mut empty)
                    })
                })
                .collect();
            for j in joins {
                let err = j.join().expect("no panic").unwrap_err();
                assert!(
                    matches!(err, CollectiveError::EmptyPayload { op } if op == "all_reduce_mean"),
                    "{backend} × {world}: got {err}"
                );
                assert!(!err.is_transient(), "empty payload is permanent");
            }
        }
    }
}

#[test]
fn zero_length_broadcast_and_gather_are_typed_errors() {
    for backend in BACKENDS {
        let comms = create_collective(backend, 2);
        let joins: Vec<_> = comms
            .into_iter()
            .map(|c| {
                thread::spawn(move || {
                    let mut empty: Vec<f32> = Vec::new();
                    let b = c.try_broadcast(&mut empty, 0);
                    let mut out = Vec::new();
                    let g = c.try_all_gather(&[], &mut out);
                    (b, g)
                })
            })
            .collect();
        for j in joins {
            let (b, g) = j.join().expect("no panic");
            assert!(matches!(
                b.unwrap_err(),
                CollectiveError::EmptyPayload { op: "broadcast" }
            ));
            assert!(matches!(
                g.unwrap_err(),
                CollectiveError::EmptyPayload { op: "all_gather" }
            ));
        }
    }
}

#[test]
fn out_of_range_broadcast_root_is_a_typed_error() {
    for backend in BACKENDS {
        let comms = create_collective(backend, 2);
        let joins: Vec<_> = comms
            .into_iter()
            .map(|c| {
                thread::spawn(move || {
                    let mut buf = vec![1.0f32];
                    c.try_broadcast(&mut buf, 7)
                })
            })
            .collect();
        for j in joins {
            let err = j.join().expect("no panic").unwrap_err();
            match err {
                CollectiveError::InvalidRoot { root, size } => {
                    assert_eq!(root, 7);
                    assert_eq!(size, 2);
                }
                other => panic!("{backend}: expected InvalidRoot, got {other}"),
            }
        }
    }
}

#[test]
fn world_of_one_succeeds_on_well_formed_calls() {
    // Size-1 worlds are the identity collective: every well-formed try_*
    // call must succeed without blocking.
    for backend in BACKENDS {
        let mut comms = create_collective(backend, 1);
        let c = comms.pop().unwrap();
        let mut buf = vec![3.0f32, -1.0];
        c.try_all_reduce_mean(&mut buf).unwrap();
        assert_eq!(buf, vec![3.0, -1.0], "identity mean");
        c.try_broadcast(&mut buf, 0).unwrap();
        let mut out = Vec::new();
        c.try_all_gather(&[5.0], &mut out).unwrap();
        assert_eq!(out, vec![5.0]);
    }
}

#[test]
fn exhausted_retries_surface_as_retries_exhausted_not_panic() {
    // Plan more failures at step 0 than the policy has attempts: the
    // retry loop must give back a typed RetriesExhausted preserving the
    // last transient error, symmetrically on every rank.
    let mut plan = FaultPlan::none();
    plan.events.push(ets_collective::FaultEvent {
        at_s: 0.0,
        duration_s: 0.0,
        kind: ets_collective::FaultKind::TransientCollective { failures: 10 },
    });
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff_s: 0.01,
        multiplier: 2.0,
    };
    let schedule = Arc::new(plan.compile(4));
    for backend in [Backend::Tree, Backend::Ring] {
        let comms = create_collective(backend, 2);
        let joins: Vec<_> = comms
            .into_iter()
            .map(|inner| {
                let schedule = Arc::clone(&schedule);
                thread::spawn(move || {
                    let faulty = FaultyCollective::new(inner, schedule);
                    faulty.set_step(0);
                    let mut buf = vec![1.0f32, 2.0];
                    let before = buf.clone();
                    let res = retry_collective(&policy, || faulty.try_all_reduce_mean(&mut buf));
                    // Failed attempts must not have touched the payload.
                    assert_eq!(buf, before, "payload corrupted by failed attempts");
                    (res.unwrap_err(), faulty.injected_failures())
                })
            })
            .collect();
        for j in joins {
            let (err, injected) = j.join().expect("no panic");
            match err {
                CollectiveError::RetriesExhausted { attempts, last } => {
                    assert_eq!(attempts, 3, "{backend}");
                    assert!(last.is_transient(), "{backend}: last error {last}");
                }
                other => panic!("{backend}: expected RetriesExhausted, got {other}"),
            }
            assert_eq!(injected, 3, "{backend}: one injection per attempt");
        }
    }
}

#[test]
fn transient_errors_clear_when_the_step_advances() {
    // The same FaultyCollective that exhausts step 0 must succeed at
    // step 1 — injections are keyed by trainer step, not call count.
    let mut plan = FaultPlan::none();
    plan.events.push(ets_collective::FaultEvent {
        at_s: 0.0,
        duration_s: 0.0,
        kind: ets_collective::FaultKind::TransientCollective { failures: 1 },
    });
    let schedule = Arc::new(plan.compile(4));
    let comms = create_collective(Backend::Tree, 2);
    let joins: Vec<_> = comms
        .into_iter()
        .map(|inner| {
            let schedule = Arc::clone(&schedule);
            thread::spawn(move || {
                let faulty = FaultyCollective::new(inner, schedule);
                faulty.set_step(0);
                let mut buf = vec![1.0f32];
                assert!(
                    faulty.try_all_reduce_mean(&mut buf).is_err(),
                    "planned fail"
                );
                faulty.set_step(1);
                let mut buf = vec![1.0f32];
                faulty.try_all_reduce_mean(&mut buf).unwrap();
                buf[0]
            })
        })
        .collect();
    for j in joins {
        assert_eq!(j.join().unwrap(), 1.0, "mean over 2 ranks after recovery");
    }
}
