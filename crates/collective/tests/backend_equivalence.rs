//! Property tests for the backend-equivalence contract of the
//! [`Collective`] trait:
//!
//! 1. Tree, ring, torus2d, and auto all-reduce agree element-wise within
//!    1e-5
//!    (the ISSUE's cross-backend band — in fact they agree bitwise,
//!    since every backend reduces with the canonical grid-blocked fold;
//!    the unit tests pin the stronger property);
//! 2. every backend is run-to-run **bitwise** reproducible;
//! 3. every backend leaves all ranks with **bitwise identical** results
//!    (the invariant the trainer's cross-replica checksum relies on);
//!
//! over world sizes {1, 2, 3, 4, 8, 16} and payload lengths chosen to be
//! frequently non-divisible by the world size (exercising the ring's
//! remainder-first chunking and the torus's uneven/empty row shards).

use ets_collective::{create_collective, Backend, Collective};
use proptest::prelude::*;
use std::thread;

const WORLD_SIZES: [usize; 6] = [1, 2, 3, 4, 8, 16];

/// Deterministic per-(seed, rank) payload with magnitude variation —
/// large and small terms mixed so association-order error is visible.
fn payload(seed: u64, rank: usize, n: usize) -> Vec<f32> {
    let mut state = seed ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0;
            let scale = [0.01f32, 1.0, 100.0][(state >> 8) as usize % 3];
            unit * scale
        })
        .collect()
}

fn reduce_world(backend: Backend, p: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
    let world = create_collective(backend, p);
    world
        .into_iter()
        .map(|c: Box<dyn Collective>| {
            thread::spawn(move || {
                let mut buf = payload(seed, c.rank(), n);
                c.all_reduce_sum(&mut buf);
                buf
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|j| j.join().unwrap())
        .collect()
}

/// Max |sum| per element across ranks' inputs — the scale for relative
/// tolerance.
fn magnitude(p: usize, n: usize, seed: u64) -> f32 {
    let mut mag = vec![0.0f32; n];
    for r in 0..p {
        for (m, v) in mag.iter_mut().zip(payload(seed, r, n)) {
            *m += v.abs();
        }
    }
    mag.into_iter().fold(1.0f32, f32::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn backends_agree_within_1e5(
        world_idx in 0usize..WORLD_SIZES.len(),
        n in 1usize..200,
        seed in 0u64..1000,
    ) {
        let p = WORLD_SIZES[world_idx];
        let tree = reduce_world(Backend::Tree, p, n, seed);
        let ring = reduce_world(Backend::Ring, p, n, seed);
        let torus = reduce_world(Backend::Torus2d, p, n, seed);
        let auto = reduce_world(Backend::Auto, p, n, seed);
        // Tolerance is relative to the payload magnitude (1e-5 of the
        // reduction scale — the ISSUE's cross-backend band).
        let tol = 1e-5 * magnitude(p, n, seed);
        for r in 0..p {
            for i in 0..n {
                prop_assert!(
                    (tree[r][i] - ring[r][i]).abs() <= tol,
                    "p={p} n={n} rank={r} i={i}: tree {} vs ring {}",
                    tree[r][i], ring[r][i]
                );
                prop_assert!(
                    (tree[r][i] - torus[r][i]).abs() <= tol,
                    "p={p} n={n} rank={r} i={i}: tree {} vs torus {}",
                    tree[r][i], torus[r][i]
                );
                prop_assert!(
                    (tree[r][i] - auto[r][i]).abs() <= tol,
                    "p={p} n={n} rank={r} i={i}: tree {} vs auto {}",
                    tree[r][i], auto[r][i]
                );
            }
        }
    }

    #[test]
    fn runs_are_bitwise_reproducible(
        world_idx in 0usize..WORLD_SIZES.len(),
        n in 1usize..200,
        seed in 0u64..1000,
    ) {
        let p = WORLD_SIZES[world_idx];
        for backend in Backend::ALL {
            let a = reduce_world(backend, p, n, seed);
            let b = reduce_world(backend, p, n, seed);
            prop_assert_eq!(&a, &b, "{} differs across runs", backend);
        }
    }

    #[test]
    fn ranks_are_bitwise_identical(
        world_idx in 0usize..WORLD_SIZES.len(),
        n in 1usize..200,
        seed in 0u64..1000,
    ) {
        let p = WORLD_SIZES[world_idx];
        for backend in Backend::ALL {
            let results = reduce_world(backend, p, n, seed);
            for r in 1..p {
                prop_assert_eq!(
                    &results[0], &results[r],
                    "{}: rank {} diverged", backend, r
                );
            }
        }
    }
}

// The 24 fixed cases of `backends_agree_within_1e5` happen to pair the
// 3-member world only with lengths 3 divides; this grid pairs every world
// size with lengths it does not.

#[test]
fn non_divisible_lengths_agree_across_backends() {
    // n mod p ≠ 0 for every world size > 1: remainder-first chunking.
    for &p in &WORLD_SIZES {
        for n in [1usize, 3, 17, 97] {
            let tree = reduce_world(Backend::Tree, p, n, 7);
            let ring = reduce_world(Backend::Ring, p, n, 7);
            let torus = reduce_world(Backend::Torus2d, p, n, 7);
            let auto = reduce_world(Backend::Auto, p, n, 7);
            let tol = 1e-5 * magnitude(p, n, 7);
            for r in 0..p {
                for i in 0..n {
                    assert!((tree[r][i] - ring[r][i]).abs() <= tol, "p={p} n={n}");
                    assert!((tree[r][i] - torus[r][i]).abs() <= tol, "p={p} n={n}");
                    assert!((tree[r][i] - auto[r][i]).abs() <= tol, "p={p} n={n}");
                }
            }
        }
    }
}

// The properties above draw payloads of under 200 elements. Long ones
// span several of the shared-memory fold's 1024-element tiles in the
// tree's world, the torus's rows (reduce-scatter) and its columns
// (all-reduce of a shard a `cols`-th as long). Same contract, around a
// tile edge and at gradient-bucket lengths.

#[test]
fn long_payloads_are_bitwise_identical_across_backends_and_ranks() {
    for p in [2usize, 3, 4, 8, 16] {
        for n in [4095, 4096, 4097, 65_537, (1 << 17) + 3] {
            let tree = reduce_world(Backend::Tree, p, n, 11);
            for backend in Backend::ALL {
                let got = reduce_world(backend, p, n, 11);
                for (rank, result) in got.iter().enumerate() {
                    let same = result
                        .iter()
                        .zip(&tree[0])
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "{backend} p={p} n={n} rank {rank} differs from tree rank 0"
                    );
                }
            }
        }
    }
}
