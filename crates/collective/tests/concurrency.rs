//! Concurrency stress tests of the collectives: many rounds, varying
//! payloads, subgroup interleaving, and randomized equivalence between the
//! tree, ring, and hierarchical grid implementations.

use ets_collective::{create_grid, create_ring, CommHandle, GroupSpec, SliceShape};
use proptest::prelude::*;
use std::thread;

fn tree_reduce(
    p: usize,
    seed_fn: impl Fn(usize) -> Vec<f32> + Send + Sync + Clone + 'static,
) -> Vec<Vec<f32>> {
    let handles = CommHandle::create(p);
    handles
        .into_iter()
        .map(|h| {
            let sf = seed_fn.clone();
            thread::spawn(move || {
                let mut buf = sf(h.rank());
                h.all_reduce_sum(&mut buf);
                buf
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|j| j.join().unwrap())
        .collect()
}

#[test]
fn thousand_rounds_no_cross_talk() {
    let p = 4;
    let handles = CommHandle::create(p);
    let results: Vec<Vec<f32>> = handles
        .into_iter()
        .map(|h| {
            thread::spawn(move || {
                let mut out = Vec::new();
                for round in 0..1000u32 {
                    let mut buf = vec![(h.rank() as u32 * 7 + round) as f32];
                    h.all_reduce_sum(&mut buf);
                    out.push(buf[0]);
                }
                out
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|j| j.join().unwrap())
        .collect();
    for r in &results {
        for (round, &v) in r.iter().enumerate() {
            let expected: f32 = (0..4).map(|rank| (rank * 7 + round) as f32).sum();
            assert_eq!(v, expected, "round {round}");
        }
    }
}

#[test]
fn disjoint_subgroups_run_concurrently() {
    // Two groups of two, plus a world of four, all interleaving — the same
    // shape as BN groups + gradient all-reduce inside one training step.
    let world = CommHandle::create(4);
    let g0 = CommHandle::create(2);
    let g1 = CommHandle::create(2);
    let mut groups: Vec<Option<CommHandle>> = g0
        .into_iter()
        .map(Some)
        .chain(g1.into_iter().map(Some))
        .collect();
    let joins: Vec<_> = world
        .into_iter()
        .enumerate()
        .map(|(r, w)| {
            let g = groups[r].take().unwrap();
            thread::spawn(move || {
                let mut results = Vec::new();
                for step in 0..50 {
                    // BN-group reduce first (like a forward pass)…
                    let mut bn = vec![(r + step) as f32];
                    g.all_reduce_sum(&mut bn);
                    // …then the world gradient reduce.
                    let mut grad = vec![bn[0]];
                    w.all_reduce_sum(&mut grad);
                    results.push((bn[0], grad[0]));
                }
                results
            })
        })
        .collect();
    let outs: Vec<Vec<(f32, f32)>> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    for step in 0..50 {
        // group 0 = ranks {0,1}, group 1 = ranks {2,3}.
        let bn0 = step as f32 + (1 + step) as f32;
        let bn1 = (2 + step) as f32 + (3 + step) as f32;
        let world_sum = 2.0 * bn0 + 2.0 * bn1;
        assert_eq!(outs[0][step].0, bn0);
        assert_eq!(outs[3][step].0, bn1);
        for (r, out) in outs.iter().enumerate() {
            assert_eq!(out[step].1, world_sum, "rank {r} step {step}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tree_ring_grid_agree(
        rows in 1usize..4,
        cols in 1usize..4,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let p = rows * cols;
        prop_assume!(p >= 2);
        let mk = move |rank: usize| -> Vec<f32> {
            // Tiny splitmix-style generator: the payload just needs to be
            // deterministic per (seed, rank) and varied.
            let mut state = seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
                })
                .collect()
        };

        let tree = tree_reduce(p, mk);

        let ring_members = create_ring(p);
        let ring: Vec<Vec<f32>> = ring_members
            .into_iter()
            .map(|m| {
                thread::spawn(move || {
                    let mut buf = mk(m.rank());
                    m.all_reduce_sum(&mut buf);
                    buf
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap())
            .collect();

        let grid_members = create_grid(rows, cols);
        let grid: Vec<Vec<f32>> = grid_members
            .into_iter()
            .enumerate()
            .map(|(id, m)| {
                thread::spawn(move || {
                    let mut buf = mk(id);
                    m.all_reduce_sum(&mut buf);
                    buf
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap())
            .collect();

        for ((t, r), g) in tree.iter().zip(&ring).zip(&grid) {
            for ((a, b), c) in t.iter().zip(r).zip(g) {
                prop_assert!((a - b).abs() < 1e-3, "tree vs ring: {a} vs {b}");
                prop_assert!((a - c).abs() < 1e-3, "tree vs grid: {a} vs {c}");
            }
        }
    }

    #[test]
    fn tiled_groups_always_partition(
        rows_pow in 0u32..3,
        cols_pow in 0u32..3,
        cores_pow in 2u32..7,
    ) {
        let cores = 2usize.pow(cores_pow);
        let slice = SliceShape::for_cores(cores);
        let tr = 2usize.pow(rows_pow);
        let tc = 2usize.pow(cols_pow);
        prop_assume!(slice.rows.is_multiple_of(tr) && slice.cols.is_multiple_of(tc));
        let spec = GroupSpec::Tiled2d { rows: tr, cols: tc };
        spec.validate(slice);
        let mut seen = vec![0usize; cores];
        for g in 0..spec.num_groups(slice) {
            for m in spec.members(g, slice) {
                seen[m] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }
}
