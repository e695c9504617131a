//! Equivalence suite pinning the three GEMM functions — `gemm_naive`,
//! `gemm_blocked` and the routed `gemm` — against each other, an f64
//! reference and the bf16 oracle, over every `GemmDesc` and adversarial
//! shapes: odd m/k/n, k < KC, m < MR, n < NR, single rows and columns.
//!
//! The blocked kernel deliberately uses a different summation order than
//! the naive one (packed KC-panel accumulation vs streaming ikj), so
//! equivalence between them is numeric (tight f32 tolerance against an
//! f64 reference), while *each kernel against itself* — across reruns,
//! lane paths and the ABFT tile grid — is bitwise, which is what the
//! shape-pure dispatcher relies on for cross-rank symmetry.
//!
//! Random cases are drawn from the repo's seeded `Rng`; every failure
//! message carries the operand seed and the descriptor, which replays it.

mod common;

use common::{all_descs, bits, rand_vec, run, Kernel, Operands, PRECISIONS};
use ets_tensor::ops::abft;
use ets_tensor::ops::dispatch::{
    blocked_profitable, gemm, gemm_auto, GemmDesc, GemmPrecision, Orient,
};
use ets_tensor::ops::gemm_blocked::{gemm_blocked, KC, MR, NR};
use ets_tensor::ops::matmul::gemm_naive;
use ets_tensor::ops::simd;
use ets_tensor::Rng;
use std::sync::Mutex;

/// The three functions that take a descriptor, each forced in turn.
const KERNELS: [(&str, Kernel); 3] = [
    ("naive", gemm_naive),
    ("blocked", gemm_blocked),
    ("auto", gemm),
];

/// f64-accumulated ground truth for `C = A(m×k)·B(k×n)`.
fn reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f64> {
    let mut c = vec![0.0f64; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p] as f64;
            for j in 0..n {
                c[i * n + j] += av * b[p * n + j] as f64;
            }
        }
    }
    c
}

fn tol(k: usize) -> f64 {
    1e-4 + 1e-3 * (k as f64) / 16.0
}

/// Adversarial shape set: micro-kernel boundaries (m<MR, n<NR), panel
/// boundaries (k straddling KC), odd primes, single rows/cols, and sizes
/// on both sides of the dispatch threshold.
const ADVERSARIAL_SHAPES: &[Mkn] = &[
    (1, 1, 1),
    (1, 7, 1),
    (MR - 1, 5, NR - 1),
    (MR, KC, NR),
    (MR + 1, KC + 1, NR + 1),
    (2 * MR, KC - 1, 2 * NR),
    (7, 129, 17),
    (13, 31, 9),
    (33, 17, 29),
    (5, 256, 11),
    (67, 70, 65),
    (128, 64, 96),
];

type Mkn = (usize, usize, usize);

/// `fixed` followed by `extra` seeded random shapes with each dimension
/// in `1..=max`.
fn with_seeded_shapes(fixed: &[Mkn], seed: u64, extra: usize, max: Mkn) -> Vec<Mkn> {
    let mut rng = Rng::new(seed);
    let mut shapes = fixed.to_vec();
    for _ in 0..extra {
        shapes.push((
            1 + rng.below(max.0),
            1 + rng.below(max.1),
            1 + rng.below(max.2),
        ));
    }
    shapes
}

/// One (shape, descriptor, kernel) case of the sweep.
///
/// - f32: within tolerance of the f64 reference (plus the preloaded `C`
///   when accumulating), and bitwise identical on a rerun.
/// - bf16: **bitwise identical** to the same kernel's f32 run on operands
///   quantized up front. The blocked kernel rounds at pack time, the
///   naive kernel into a scratch copy: either way the arithmetic — f32 multiply of bf16-rounded values,
///   f32 accumulate in that kernel's order — is exactly the oracle's.
///   Any divergence means a path changed numerics beyond the one
///   sanctioned rounding step.
fn check_case(name: &str, kernel: Kernel, desc: GemmDesc, seed: u64, ops: &Operands, want: &[f64]) {
    let ctx = format!("{name} kernel, operand seed {seed}, {desc:?}");
    let got = run(kernel, desc, ops);
    match desc.precision {
        GemmPrecision::F32 => {
            let bias = if desc.accumulate { 0.625 } else { 0.0 };
            for (i, (&x, &r)) in got.iter().zip(want).enumerate() {
                assert!(
                    (x as f64 - (r + bias)).abs() < tol(desc.k),
                    "{ctx}: [{i}] {x} vs {}",
                    r + bias
                );
            }
            assert_eq!(
                bits(&got),
                bits(&run(kernel, desc, ops)),
                "{ctx}: not bitwise-deterministic across reruns"
            );
        }
        GemmPrecision::Bf16 => {
            let f32_desc = GemmDesc {
                precision: GemmPrecision::F32,
                ..desc
            };
            assert_eq!(
                bits(&got),
                bits(&run(kernel, f32_desc, &ops.quantized())),
                "{ctx}: bf16 != quantize-then-f32 oracle"
            );
        }
    }
}

#[test]
fn every_descriptor_on_every_kernel_over_adversarial_and_seeded_shapes() {
    const SEED: u64 = 1000;
    let mut cases = 0;
    let shapes = with_seeded_shapes(ADVERSARIAL_SHAPES, SEED, 24, (70, 200, 70));
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let seed = SEED + 2 * i as u64;
        let ops = Operands::new(seed, m, k, n);
        let want = reference(m, k, n, &ops.a, &ops.b);
        for desc in all_descs(m, k, n) {
            for (name, kernel) in KERNELS {
                check_case(name, kernel, desc, seed, &ops, &want);
                cases += 1;
            }
        }
    }
    assert!(cases >= 200, "sweep shrank to {cases} cases");
}

/// `C` computed by a written-out loop nest, with each element's products
/// either added into `C` in place (`c_old + a₀b₀ + a₁b₁ …`) or summed in
/// a register from `0.0` and added to `C` once.
fn written_out(desc: GemmDesc, a: &[f32], b: &[f32], c_old: &[f32], in_place: bool) -> Vec<f32> {
    let GemmDesc { m, k, n, .. } = desc;
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let c0 = if desc.accumulate {
                c_old[i * n + j]
            } else {
                0.0
            };
            let (mut running, mut register) = (c0, 0.0f32);
            for p in 0..k {
                let product = match desc.orient {
                    Orient::AB => a[i * k + p] * b[p * n + j],
                    Orient::AtB => a[p * m + i] * b[p * n + j],
                    Orient::ABt => a[i * k + p] * b[j * k + p],
                };
                running += product;
                register += product;
            }
            c[i * n + j] = if in_place { running } else { c0 + register };
        }
    }
    c
}

/// The association contract of the naive kernel: `AB` / `AᵀB` add in
/// place, `ABᵀ` sums in a register. Every trained loss bit depends on
/// which is which, so "cleaning up" either into the other must fail
/// here — the test also proves its data tells the two apart.
#[test]
fn naive_kernel_association_is_pinned_bitwise() {
    let (m, k, n) = (9, 37, 11);
    let ops = Operands::new(77, m, k, n);
    let c_old = rand_vec(79, m * n);
    for orient in Orient::ALL {
        let (a, b) = ops.stored(orient);
        let in_place = orient != Orient::ABt;
        for accumulate in [false, true] {
            let desc = GemmDesc {
                orient,
                accumulate,
                ..GemmDesc::new(m, k, n)
            };
            let mut got = c_old.clone();
            gemm_naive(desc, a, b, &mut got);
            let want = written_out(desc, a, b, &c_old, in_place);
            assert_eq!(bits(&got), bits(&want), "{desc:?}: association changed");
            if accumulate {
                assert_ne!(
                    bits(&want),
                    bits(&written_out(desc, a, b, &c_old, !in_place)),
                    "{desc:?}: data cannot tell the two associations apart"
                );
            }
        }
    }
}

/// The narrow routes of the naive kernel (`AB` / `AᵀB` with n ≤ 16,
/// `ABᵀ` with k ≤ 16) against the same written-out association, on both
/// sides of the cut-off, through every row-block, column-piece and tile
/// tail, on every lane: they reorder loops, never a chain.
#[test]
fn narrow_routes_match_the_written_out_association_bitwise() {
    let ns: Vec<usize> = (1..=17).chain([32, 33, 65]).collect();
    for m in [1usize, 3, 4, 5, 9, 64, 257] {
        for &n in &ns {
            for k in [1usize, 2, 15, 16, 17, 300] {
                let ops = Operands::new((m * 1000 + n * 10 + k) as u64, m, k, n);
                let quantized_ops = ops.quantized();
                let c_old = rand_vec(81, m * n);
                for desc in all_descs(m, k, n) {
                    let oracle_ops = match desc.precision {
                        GemmPrecision::F32 => &ops,
                        GemmPrecision::Bf16 => &quantized_ops,
                    };
                    let (a, b) = oracle_ops.stored(desc.orient);
                    let want = bits(&written_out(desc, a, b, &c_old, desc.orient != Orient::ABt));
                    let (a, b) = ops.stored(desc.orient);
                    for path in lane_paths() {
                        let _guard = simd::ForcedLaneGuard::new(path);
                        let mut got = c_old.clone();
                        gemm_naive(desc, a, b, &mut got);
                        assert_eq!(bits(&got), want, "{desc:?} on {}", path.name());
                    }
                }
            }
        }
    }
}

// ------------------------------------------- tile grid vs sequential

/// ABFT verify mode is process-global and routes the blocked GEMM: the
/// tests that set it take turns, so each runs the path it forces.
static VERIFY_MODE: Mutex<()> = Mutex::new(());

/// The ABFT tile grid vs the sequential slab loop, bitwise, every blocked
/// descriptor. Verify mode forces the grid; with it off (and no injection
/// armed) the same call runs the sequential loop.
#[test]
fn tile_grid_matches_sequential_on_tile_boundary_and_seeded_shapes() {
    const SEED: u64 = 5000;
    // Tile-boundary edge cases: m < MR, n < NR, k < KC, exact block
    // multiples, one past each multiple, and multi-tile grids.
    let tile_boundaries = [
        (MR - 1, 40, NR - 1),     // below both micro-tile dims
        (1, 300, 1),              // single element C, deep k
        (MR, KC, NR),             // exact micro/panel multiples
        (MR + 1, KC + 1, NR + 1), // one past each
        (64, KC - 1, 256),        // exact (MC, NC) grid, k < KC
        (65, KC, 257),            // one past MC and NC
        (128, 2 * KC, 512),       // exact multiples, multi-tile
        (129, 2 * KC + 1, 513),   // one past everything
        (130, 150, 300),          // odd interior shape, 3×2 grid
    ];
    let shapes = with_seeded_shapes(&tile_boundaries, SEED, 8, (139, 299, 299));
    let _turn = VERIFY_MODE.lock().unwrap_or_else(|e| e.into_inner());
    let prev = abft::verify_enabled();
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let seed = SEED + 2 * i as u64;
        let ops = Operands::new(seed, m, k, n);
        let on_path = |grid: bool| -> Vec<Vec<u32>> {
            abft::set_verify(grid);
            all_descs(m, k, n)
                .into_iter()
                .map(|desc| bits(&run(gemm_blocked, desc, &ops)))
                .collect()
        };
        let seq = on_path(false);
        let grid = on_path(true);
        abft::set_verify(prev);
        for (desc, (s, g)) in all_descs(m, k, n).iter().zip(seq.iter().zip(&grid)) {
            assert_eq!(
                s, g,
                "operand seed {seed}, {desc:?}: tile grid diverged from sequential"
            );
        }
    }
}

#[test]
fn dispatcher_is_a_pure_function_of_shape() {
    // Same (m,k,n) must answer the same regardless of call history or
    // data — probe interleaved with real GEMM calls of various shapes.
    let probes = [(3, 5, 9), (48, 40, 64), (16, 96, 256), (2, 1000, 2)];
    let first: Vec<bool> = probes
        .iter()
        .map(|&(m, k, n)| blocked_profitable(m, k, n))
        .collect();
    for &(m, k, n) in &probes {
        let a = rand_vec(1, m * k);
        let b = rand_vec(2, k * n);
        let mut c = vec![0.0; m * n];
        gemm_auto(m, k, n, &a, &b, &mut c);
    }
    let second: Vec<bool> = probes
        .iter()
        .map(|&(m, k, n)| blocked_profitable(m, k, n))
        .collect();
    assert_eq!(
        first, second,
        "dispatch decisions drifted with call history"
    );
}

// ------------------------------------------- forced-lane-path matrix
//
// The SIMD micro-kernel layer (`ops::simd`) claims every lane path —
// scalar, SSE2, AVX2 — produces bitwise-identical results. These tests
// force each available path in turn and pin every descriptor's output
// bits on every kernel against the scalar path's, on the same
// adversarial shapes the numeric suite uses (k < KC, m < MR, n < NR),
// plus the ABFT verify path.

/// Lane paths available on this host, scalar first (the oracle).
fn lane_paths() -> Vec<simd::LanePath> {
    simd::LanePath::ALL
        .iter()
        .copied()
        .filter(|p| p.available())
        .collect()
}

/// Runs `f` on the scalar lane, then on every other available lane, and
/// requires identical results.
fn assert_lane_invariant<T: PartialEq + std::fmt::Debug>(ctx: &str, f: impl Fn() -> T) {
    let paths = lane_paths();
    assert_eq!(paths[0], simd::LanePath::Scalar);
    let _guard = simd::ForcedLaneGuard::new(simd::LanePath::Scalar);
    let want = f();
    for &path in &paths[1..] {
        simd::force_lane_path(path);
        assert_eq!(
            f(),
            want,
            "lane path {:?} diverged from scalar: {ctx}",
            path.name()
        );
    }
}

#[test]
fn every_descriptor_bitwise_identical_across_lane_paths() {
    // m < MR, n < NR, k < KC, micro/panel boundaries, and a shape past
    // the dispatch threshold (so `auto` routes blocked on some shapes
    // and naive on others — both must be lane-invariant).
    let shapes = [
        (1usize, 1usize, 1usize),
        (MR - 1, 5, NR - 1),
        (MR, KC, NR),
        (MR + 1, KC + 1, NR + 1),
        (7, 129, 17),
        (67, 70, 65),
        (128, 64, 96),
    ];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let ops = Operands::new(6000 + i as u64, m, k, n);
        for desc in all_descs(m, k, n) {
            for (name, kernel) in KERNELS {
                assert_lane_invariant(&format!("{name} kernel, {desc:?}"), || {
                    bits(&run(kernel, desc, &ops))
                });
            }
        }
    }
}

#[test]
fn abft_verify_path_bitwise_identical_across_lane_paths() {
    // ABFT verify snapshots C, absorbs the *packed* panels into a
    // checksum, and compares post-GEMM column sums. The SIMD kernel must
    // (a) produce identical C bits under verification and (b) never trip
    // the checksum (zero false positives) on any lane path.
    let _turn = VERIFY_MODE.lock().unwrap_or_else(|e| e.into_inner());
    let (m, k, n) = (67, 140, 96);
    let ops = Operands::new(8000, m, k, n);
    for precision in PRECISIONS {
        let desc = GemmDesc {
            precision,
            ..GemmDesc::new(m, k, n)
        };
        assert_lane_invariant(&format!("ABFT-verified {desc:?}"), || {
            abft::set_verify(true);
            let detected_before = abft::corruptions_detected();
            let c = run(gemm_blocked, desc, &ops);
            abft::set_verify(false);
            assert_eq!(
                abft::corruptions_detected(),
                detected_before,
                "ABFT false positive under verification"
            );
            bits(&c)
        });
    }
}
