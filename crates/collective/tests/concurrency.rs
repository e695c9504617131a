//! Concurrency stress tests of the collectives: many rounds, varying
//! payloads, subgroup interleaving, and randomized equivalence between the
//! tree, ring, and hierarchical grid implementations.

use ets_collective::{create_grid, create_ring, shard_bounds, CommHandle, GroupSpec, SliceShape};
use proptest::prelude::*;
use std::thread;

/// Runs `f` on every rank of a fresh communicator of `p` members.
fn on_ranks<R: Send + 'static>(
    p: usize,
    f: impl Fn(CommHandle) -> R + Send + Sync + Clone + 'static,
) -> Vec<R> {
    CommHandle::create(p)
        .into_iter()
        .map(|h| {
            let f = f.clone();
            thread::spawn(move || f(h))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|j| j.join().unwrap())
        .collect()
}

fn tree_reduce(
    p: usize,
    seed_fn: impl Fn(usize) -> Vec<f32> + Send + Sync + Clone + 'static,
) -> Vec<Vec<f32>> {
    on_ranks(p, move |h| {
        let mut buf = seed_fn(h.rank());
        h.all_reduce_sum(&mut buf);
        buf
    })
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

/// Rank `rank`'s contribution: magnitudes that cancel across ranks (so
/// any reassociation shows in the rounded sum), signed zeros, and a NaN
/// and both infinities that must come through.
fn adversarial(rank: usize, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| match (rank * 3 + i) % 11 {
            0 => 1e8,
            1 => -1e8,
            2 => 0.0,
            3 => -0.0,
            4 if i % 997 == 4 => f32::NAN,
            5 if i % 991 == 5 => f32::INFINITY,
            6 if i % 983 == 6 => f32::NEG_INFINITY,
            k => {
                [0.37f32, 1e-3, -3.0, 1.0][k % 4] * (1.0 + (rank * 31 + i * 7 % 1000) as f32 * 1e-3)
            }
        })
        .collect()
}

/// The fold the communicator commits to, written out sequentially:
/// ascending rank within blocks of `cols` ranks, then ascending block.
fn sequential_fold(p: usize, n: usize, cols: usize) -> Vec<u32> {
    let add = |acc: &mut Vec<f32>, x: &[f32]| acc.iter_mut().zip(x).for_each(|(a, &x)| *a += x);
    let mut total: Option<Vec<f32>> = None;
    for block in 0..p / cols {
        let mut acc = adversarial(block * cols, n);
        for rank in block * cols + 1..(block + 1) * cols {
            add(&mut acc, &adversarial(rank, n));
        }
        match &mut total {
            None => total = Some(acc),
            Some(t) => add(t, &acc),
        }
    }
    bits(&total.unwrap())
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The all-reduce, flat and grid-blocked, and the reduce-scatter,
/// bitwise against the sequential fold: every world around every length
/// at which a shard is empty, one element or uneven, or the fold's
/// 1024-element tile ends.
#[test]
fn folds_match_the_sequential_fold_bitwise() {
    let tile = 1024;
    for p in [1usize, 2, 3, 4, 6, 8] {
        let mut lengths = vec![
            0,
            1,
            p - 1,
            p,
            p + 1,
            tile - 1,
            tile,
            tile + 1,
            65_537,
            (1 << 20) + 3,
        ];
        lengths.sort_unstable();
        lengths.dedup();
        for n in lengths {
            // Every factorization for the short payloads, the flat fold
            // and the squarest grid for the megabyte ones.
            let grids: Vec<usize> = (1..=p)
                .filter(|cols| p % cols == 0 && (n <= tile + 1 || *cols == p || cols * cols >= p))
                .collect();
            for cols in grids {
                let want = sequential_fold(p, n, cols);
                let got = on_ranks(p, move |h| {
                    let mut buf = adversarial(h.rank(), n);
                    if cols == h.size() {
                        h.all_reduce_sum(&mut buf);
                    } else {
                        h.all_reduce_sum_grid(&mut buf, h.size() / cols, cols);
                    }
                    bits(&buf)
                });
                for (rank, got) in got.iter().enumerate() {
                    assert!(*got == want, "p={p} n={n} cols={cols} rank {rank}");
                }
            }
            let want = sequential_fold(p, n, p);
            let shards = on_ranks(p, move |h| {
                let mut shard = vec![7.0; 3];
                h.reduce_scatter_sum(&adversarial(h.rank(), n), &mut shard);
                bits(&shard)
            });
            for (rank, shard) in shards.iter().enumerate() {
                let (a, b) = shard_bounds(n, p, rank);
                assert!(
                    *shard == want[a..b],
                    "reduce-scatter p={p} n={n} rank {rank}"
                );
            }
        }
    }
}

/// A thousand rounds of every operation on one communicator, the
/// all-reduce at a length of a few elements and at one of several fold
/// tiles: each result is that round's, and after the first round no
/// buffer grows.
#[test]
fn thousand_mixed_rounds_no_cross_talk_no_growth() {
    const P: usize = 4;
    let long = 8 * 1024 + 5;
    let reports = on_ranks(P, move |h| {
        let rank = h.rank();
        let (mut short, mut big) = (vec![0.0f32; 3], vec![0.0f32; long]);
        let (mut gathered, mut shard, mut sent) = (Vec::new(), Vec::new(), vec![0.0f32; 9]);
        let mut warm = 0;
        for round in 0..1000usize {
            // Small integers: every sum below is exact in f32.
            let v = (round % 97) as f32;
            short.fill(v + rank as f32);
            h.all_reduce_sum(&mut short);
            assert_eq!(short, [4.0 * v + 6.0; 3], "short all-reduce, round {round}");
            for (i, x) in big.iter_mut().enumerate() {
                *x = v + (rank * (i % 5)) as f32;
            }
            h.all_reduce_sum(&mut big);
            for (i, &x) in big.iter().enumerate() {
                assert_eq!(
                    x,
                    4.0 * v + (6 * (i % 5)) as f32,
                    "long all-reduce, round {round}"
                );
            }
            h.all_gather_into(&[v, rank as f32], &mut gathered);
            assert_eq!(
                gathered,
                [v, 0.0, v, 1.0, v, 2.0, v, 3.0],
                "gather, round {round}"
            );
            h.reduce_scatter_sum(&[v + rank as f32; 10], &mut shard);
            let (a, b) = shard_bounds(10, P, rank);
            assert_eq!(
                shard,
                vec![4.0 * v + 6.0; b - a],
                "reduce-scatter, round {round}"
            );
            let root = round % P;
            sent.fill(if rank == root { v + root as f32 } else { -1.0 });
            h.broadcast(&mut sent, root);
            assert_eq!(sent, [v + root as f32; 9], "broadcast, round {round}");
            h.barrier();
            if round == 0 {
                warm = h.scratch_reallocs();
            }
        }
        (warm, h.scratch_reallocs())
    });
    for (warm, end) in reports {
        assert!(warm > 0, "the first round sizes the buffers");
        assert_eq!(
            end, warm,
            "steady-state rounds must not grow communicator buffers"
        );
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
