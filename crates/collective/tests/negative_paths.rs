//! Negative-path coverage for the collective backends: malformed calls
//! must surface as typed [`CollectiveError`]s, never as panics or hangs,
//! on every backend and including the degenerate world size of 1.

use ets_collective::{create_collective, Backend, CollectiveError};
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
