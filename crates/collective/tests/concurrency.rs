//! Concurrency stress tests of the communicator round: many rounds,
//! varying payloads, subgroup interleaving, and the fold against a
//! literal sequential fold, whole and in pieces.

use ets_collective::{canonical_grid, CommHandle, GroupSpec, Pieces, SliceShape};
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

/// The all-reduce, flat and grid-blocked, bitwise against the sequential
/// fold: every world around every length at which the world does not
/// divide it or the fold's 1024-element tile ends.
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
        }
    }
}

/// `buf` handed out as pieces cut at the ascending offsets `cuts`.
struct Cut<'a> {
    buf: &'a mut [f32],
    cuts: &'a [usize],
}

impl Pieces for Cut<'_> {
    fn for_each_piece(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        let (mut rest, mut at) = (&mut *self.buf, 0);
        for &cut in self.cuts {
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(cut - at);
            f(piece);
            (rest, at) = (tail, cut);
        }
        f(rest);
    }
}

/// The mean over pieces is bitwise the contiguous fold followed by
/// × (1/world), and that is the sequential fold times the same factor:
/// flat and grid-blocked folds, empty pieces, piece edges on both sides
/// of the fold tile, and a piece that straddles one.
#[test]
fn mean_over_pieces_is_the_contiguous_fold_then_the_scale() {
    let tile = 1024;
    let n = 3 * tile + 5;
    let cut_sets = [
        vec![],
        vec![0, 0, n],
        vec![tile - 1],
        vec![tile],
        vec![tile + 1, tile + 1],
        vec![1000, 1100, 2 * tile + 7],
    ];
    for p in [1usize, 2, 3, 4, 8] {
        let mut grids = vec![p, canonical_grid(p).1];
        grids.dedup();
        for cols in grids {
            let inv = 1.0 / p as f32;
            let want: Vec<u32> = sequential_fold(p, n, cols)
                .into_iter()
                .map(|b| (f32::from_bits(b) * inv).to_bits())
                .collect();
            for cuts in &cut_sets {
                let owned = cuts.clone();
                let got = on_ranks(p, move |h| {
                    let rows = h.size() / cols;
                    let mut sum = adversarial(h.rank(), n);
                    h.all_reduce_sum_grid(&mut sum, rows, cols);
                    sum.iter_mut().for_each(|v| *v *= inv);
                    let mut buf = adversarial(h.rank(), n);
                    let mut pieces = Cut {
                        buf: &mut buf,
                        cuts: &owned,
                    };
                    h.all_reduce_mean_grid(&mut pieces, rows, cols);
                    (bits(&sum), bits(&buf))
                });
                for (rank, (scaled, mean)) in got.iter().enumerate() {
                    let what = format!("p={p} cols={cols} cuts={cuts:?} rank {rank}");
                    assert!(*mean == *scaled, "{what}: mean differs from sum × 1/p");
                    assert!(
                        *mean == want,
                        "{what}: mean differs from the sequential fold"
                    );
                }
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
        let (mut gathered, mut sent) = (Vec::new(), vec![0.0f32; 9]);
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
