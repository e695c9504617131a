//! The compute-kernel baseline behind `BENCH_kernels.json`.
//!
//! Measures GFLOP/s of the two conv-GEMM kernels across EfficientNet-B0
//! layer shapes, both on materialized im2col patches:
//!
//! - **naive** — the streaming [`gemm_naive`] kernel (the
//!   pre-packed-kernel hot path),
//! - **blocked** — the cache-blocked, panel-packed [`gemm_blocked`]
//!   kernel.
//!
//! Every row is also measured through the shape-pure dispatcher
//! (`gemm`) and through the bf16 blocked kernel (§3.5: operands rounded
//! through bf16 once at pack time, then the f32 micro-kernel), plus a
//! panel-packing throughput probe (f32 copy vs bf16 rounding pack) at
//! the calibration shape, a per-lane-path SIMD probe (the blocked
//! kernel forced down every micro-kernel lane the host supports —
//! scalar/SSE2/AVX2 — in both precisions, bitwise-checked against the
//! scalar lane), and a
//! steady-state training-step probe that pins the scratch
//! arena's allocator traffic to **zero** after warmup — in both
//! precisions — and reports wall time per step and the per-precision
//! dispatch split.
//!
//! The calibration row (`m=256, k=1152, n=3136` — a B0 stage-5-sized
//! 3×3 conv at 56×56) is identical in smoke and full mode: CI gates on
//! blocked ≥ naive at that shape, dispatched ≥ naive at *every* shape,
//! and bf16 blocked ≥ [`BF16_BLOCKED_FLOOR`] × f32 blocked, so neither
//! the fast path nor the mixed-precision path can silently regress.

use ets_obs::{parse_json, JsonWriter, Value};
use ets_tensor::ops::conv::{
    conv2d_backward, conv2d_backward_p, conv2d_forward, conv2d_forward_p, im2col, Conv2dGeom,
};
use ets_tensor::ops::dispatch::{
    dispatch_blocked_calls, dispatch_calls, dispatch_naive_calls, gemm, GemmDesc, GemmPrecision,
};
use ets_tensor::ops::gemm_blocked::{
    gemm_blocked, pack_a_into, pack_b_panel, packed_a_len, PanelA, PanelB, KC, NC,
};
use ets_tensor::ops::matmul::gemm_naive;
use ets_tensor::ops::simd::{self, LanePath};
use ets_tensor::{
    gemm_workers, scratch_reallocs, set_gemm_workers, set_sequential_override, worker_stats, Rng,
    Shape, Tensor,
};
use std::time::Instant;

/// Label of the ISSUE calibration shape (CI regression gate).
pub const CALIBRATION_LABEL: &str = "b0_stage5_3x3_56px_calibration";
/// The calibration GEMM dims: `C_out × (C_in·KH·KW) × (H_out·W_out)`.
pub const CALIBRATION_MKN: (usize, usize, usize) = (256, 1152, 3136);

/// The plain `AB` overwrite product with operands rounded to bf16.
fn bf16_desc(m: usize, k: usize, n: usize) -> GemmDesc {
    GemmDesc {
        precision: GemmPrecision::Bf16,
        ..GemmDesc::new(m, k, n)
    }
}

/// One measured kernel shape.
#[derive(Clone, Debug)]
pub struct KernelBenchRow {
    pub label: String,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub reps: usize,
    pub naive_gflops: f64,
    pub blocked_gflops: f64,
    /// `gemm` through the shape-pure dispatcher — what training
    /// actually runs at this shape. The per-row gate compares this (not
    /// the raw blocked kernel) against naive: the dispatcher must never
    /// pick a path slower than the kernel it replaced.
    pub auto_gflops: f64,
    /// bf16 blocked kernel (operands rounded at pack, f32 micro-kernel).
    pub bf16_blocked_gflops: f64,
    /// True for the CI-gated calibration shape.
    pub calibration: bool,
}

impl KernelBenchRow {
    /// blocked / naive throughput ratio.
    pub fn speedup_blocked(&self) -> f64 {
        if self.naive_gflops > 0.0 {
            self.blocked_gflops / self.naive_gflops
        } else {
            0.0
        }
    }

    /// dispatched / naive throughput ratio (the effective speedup).
    pub fn speedup_auto(&self) -> f64 {
        if self.naive_gflops > 0.0 {
            self.auto_gflops / self.naive_gflops
        } else {
            0.0
        }
    }
}

/// Panel-packing throughput at the calibration shape, f32 vs bf16: what
/// the bf16 rounding costs on top of the f32 copy (both write f32
/// panels). Reported, not gated — the gate is on the bf16 product as a
/// whole ([`BF16_BLOCKED_FLOOR`]).
#[derive(Clone, Debug)]
pub struct PackProbe {
    pub m: usize,
    pub k: usize,
    /// Elements packed per invocation.
    pub elems: usize,
    pub reps: usize,
    pub f32_melems_per_s: f64,
    pub bf16_melems_per_s: f64,
}

/// Deterministic-parallelism probe at the calibration shape: the same
/// blocked GEMM run sequentially (1 worker) and on a multi-worker tile
/// grid. The tile grid is a pure function of shape with single-owner
/// tiles, so the parallel output must be **bitwise equal** to the
/// sequential one; the probe also pins each worker's scratch arena to
/// zero allocator hits after warmup.
#[derive(Clone, Debug)]
pub struct ParallelProbe {
    /// Worker-pool width of the parallel measurement.
    pub workers: usize,
    /// `std::thread::available_parallelism()` of the measuring host.
    pub host_cores: usize,
    pub reps: usize,
    pub seq_gflops: f64,
    pub par_gflops: f64,
    /// Parallel output bitwise equal to sequential (must always hold).
    pub bitwise_equal: bool,
    /// Per-worker allocator hits during the measured (post-warmup) reps;
    /// the steady-state contract requires every entry to be 0.
    pub worker_realloc_deltas: Vec<u64>,
    /// The ≥[`PARALLEL_SPEEDUP_FLOOR`] speedup gate is only meaningful
    /// when the host can actually run workers concurrently.
    pub gate_enforced: bool,
    /// Best matched-window seq/par timing ratio: each rep times the two
    /// paths back-to-back, and this is the max over reps of
    /// `t_seq / t_par`. On quota-throttled 1-core containers the
    /// *independent* best-of ratio ([`Self::speedup`]) can read 0.7–0.9×
    /// for literally identical code; the paired ratio only asks that the
    /// parallel path kept up with sequential in at least one shared
    /// scheduling window, which is noise-robust.
    pub best_paired_ratio: f64,
    /// Tiles executed by *helper* workers (pool slots ≥ 1) during the
    /// measured parallel-half reps. On a 1-core host the worker clamp
    /// must route dispatch to the sequential path, so this must be 0 —
    /// the deterministic half of the parity gate. On multi-core hosts it
    /// must be > 0 or the speedup figure never exercised the tile grid.
    pub par_helper_tiles: u64,
}

impl ParallelProbe {
    /// parallel / sequential throughput ratio.
    pub fn speedup(&self) -> f64 {
        if self.seq_gflops > 0.0 {
            self.par_gflops / self.seq_gflops
        } else {
            0.0
        }
    }

    /// Which gate this probe is held to: `"enforced"` (≥ 2 cores — the
    /// [`PARALLEL_SPEEDUP_FLOOR`] applies) or `"parity-only"` (1-core
    /// host — the dispatcher must refuse the tile grid, so the probe
    /// must stay within noise of sequential, ≥
    /// [`PARALLEL_PARITY_FLOOR`]). Never a silent skip.
    pub fn gate(&self) -> &'static str {
        if self.gate_enforced {
            "enforced"
        } else {
            "parity-only"
        }
    }
}

/// Minimum parallel-over-sequential speedup at the calibration shape,
/// enforced on hosts with ≥ 2 cores.
pub const PARALLEL_SPEEDUP_FLOOR: f64 = 1.6;

/// On a 1-core host a real speedup is impossible, but the dispatch layer
/// must then keep the probe *at* sequential throughput (it routes the
/// "parallel" call back to the sequential path). The floor applies to
/// [`ParallelProbe::best_paired_ratio`] — the matched-window ratio —
/// not the independent best-of ratio, which on a quota-throttled
/// container drifts well below this for identical code.
pub const PARALLEL_PARITY_FLOOR: f64 = 0.95;

/// Worker count of the parallel half of [`parallel_probe`].
pub const PARALLEL_PROBE_WORKERS: usize = 4;

/// Runs the deterministic-parallelism probe at the calibration shape.
/// Restores the process-wide worker-pool width it found on entry.
pub fn parallel_probe(smoke: bool) -> ParallelProbe {
    let (m, k, n) = CALIBRATION_MKN;
    let flops = 2 * (m * k * n) as u64;
    // Each rep is one matched seq/par timing window; the parity gate
    // takes the best window, so even smoke mode needs enough of them
    // that at least one lands outside a quota-throttle burst.
    let reps = if smoke { 6 } else { 10 };
    let mut rng = Rng::new(101);
    let mut a = vec![0.0f32; m * k];
    rng.fill_uniform(&mut a, -1.0, 1.0);
    let mut b = vec![0.0f32; k * n];
    rng.fill_uniform(&mut b, -1.0, 1.0);
    let mut c_seq = vec![0.0f32; m * n];
    let mut c_par = vec![0.0f32; m * n];

    let prev_workers = gemm_workers();
    // One pool size for the whole probe: the sequential half routes
    // through `set_sequential_override` instead of a pool resize, so no
    // helper is ever respawned mid-probe (a respawned helper's fresh
    // thread-local arena would trip the zero-realloc gate below).
    set_gemm_workers(PARALLEL_PROBE_WORKERS);
    // Warmup both paths (primes every worker's scratch arena; reallocs
    // after this point break the steady-state contract) …
    let desc = GemmDesc::new(m, k, n);
    set_sequential_override(true);
    gemm_blocked(desc, &a, &b, &mut c_seq);
    set_sequential_override(false);
    gemm_blocked(desc, &a, &b, &mut c_par);
    let reallocs_before: Vec<u64> = worker_stats().iter().map(|s| s.scratch_reallocs).collect();
    let helper_tiles_before: u64 = worker_stats().iter().skip(1).map(|s| s.tiles).sum();
    // … then *interleave* the timed reps: each rep times the two paths
    // back-to-back so they see the same background load, and the pair
    // order flips every rep — on quota-throttled 1-core containers the
    // second measurement of a pair systematically runs on depleted CPU
    // budget, which reads as a reproducible "slowdown" of whichever half
    // always goes second. The parity gate keys off the best *matched*
    // ratio (max over reps of t_seq/t_par), not the independent best-of
    // ratio, because the latter is a race between two noise floors.
    let mut best_seq = f64::INFINITY;
    let mut best_par = f64::INFINITY;
    let mut best_paired_ratio = 0.0f64;
    let run_half = |seq: bool, c: &mut [f32]| -> f64 {
        set_sequential_override(seq);
        let t0 = Instant::now();
        gemm_blocked(desc, &a, &b, c);
        t0.elapsed().as_secs_f64().max(1e-9)
    };
    for rep in 0..reps {
        let (t_seq, t_par) = if rep % 2 == 0 {
            let ts = run_half(true, &mut c_seq);
            (ts, run_half(false, &mut c_par))
        } else {
            let tp = run_half(false, &mut c_par);
            (run_half(true, &mut c_seq), tp)
        };
        best_seq = best_seq.min(t_seq);
        best_par = best_par.min(t_par);
        best_paired_ratio = best_paired_ratio.max(t_seq / t_par);
    }
    let seq_gflops = flops as f64 / best_seq / 1e9;
    let par_gflops = flops as f64 / best_par / 1e9;
    let worker_realloc_deltas: Vec<u64> = worker_stats()
        .iter()
        .zip(&reallocs_before)
        .map(|(s, &b0)| s.scratch_reallocs - b0)
        .collect();
    let par_helper_tiles: u64 =
        worker_stats().iter().skip(1).map(|s| s.tiles).sum::<u64>() - helper_tiles_before;
    set_gemm_workers(prev_workers.max(1));

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let bitwise_equal = c_seq
        .iter()
        .zip(&c_par)
        .all(|(x, y)| x.to_bits() == y.to_bits());
    ParallelProbe {
        workers: PARALLEL_PROBE_WORKERS,
        host_cores,
        reps,
        seq_gflops,
        par_gflops,
        bitwise_equal,
        worker_realloc_deltas,
        gate_enforced: host_cores >= 2,
        best_paired_ratio,
        par_helper_tiles,
    }
}

/// One lane path's blocked-kernel throughput at the calibration shape,
/// in both pack-time precisions, plus bitwise parity against the scalar
/// lane (the SIMD layer's core contract — see `ets_tensor::ops::simd`).
#[derive(Clone, Debug)]
pub struct SimdLaneRow {
    pub path: String,
    pub f32_gflops: f64,
    pub bf16_gflops: f64,
    /// Outputs bitwise equal to the scalar lane's (must always hold).
    pub bitwise_equal_scalar: bool,
}

/// Per-lane-path micro-kernel probe: the same blocked GEMM forced down
/// every lane path the host supports, timed round-robin so inter-lane
/// ratios share a scheduling window. `active` is the path the process
/// dispatches by default (honors `ETS_SIMD`); `detected` is the best
/// path runtime feature detection found.
#[derive(Clone, Debug)]
pub struct SimdProbe {
    pub active: String,
    pub detected: String,
    pub reps: usize,
    pub lanes: Vec<SimdLaneRow>,
}

impl SimdProbe {
    /// The row for one lane path, if the host supports it.
    pub fn lane(&self, path: &str) -> Option<&SimdLaneRow> {
        self.lanes.iter().find(|l| l.path == path)
    }
}

/// Floor on the **committed** artifact's vectorization win: when the
/// recorded active lane is AVX2, the calibration row's blocked GFLOP/s
/// must be at least this multiple of the scalar lane's f32 row from the
/// same document. (Fresh measurements get the usual noise allowance;
/// the committed numbers were best-of runs someone chose to ship.)
pub const SIMD_SPEEDUP_FLOOR: f64 = 1.5;

/// Runs the per-lane-path probe at the calibration shape. Forces each
/// lane via the process-global override (safe — all lanes are bitwise
/// identical by construction) and restores the default on exit.
pub fn simd_probe(smoke: bool) -> SimdProbe {
    let (m, k, n) = CALIBRATION_MKN;
    let flops = 2 * (m * k * n) as u64;
    let reps = if smoke { 4 } else { 10 };
    let mut rng = Rng::new(109);
    let mut a = vec![0.0f32; m * k];
    rng.fill_uniform(&mut a, -1.0, 1.0);
    let mut b = vec![0.0f32; k * n];
    rng.fill_uniform(&mut b, -1.0, 1.0);

    let active = simd::lane_path().name().to_string();
    let detected = simd::detected_lane_path().name().to_string();
    let paths: Vec<LanePath> = LanePath::ALL
        .iter()
        .copied()
        .filter(|p| p.available())
        .collect();
    let mut c32: Vec<Vec<f32>> = vec![vec![0.0f32; m * n]; paths.len()];
    let mut c16: Vec<Vec<f32>> = vec![vec![0.0f32; m * n]; paths.len()];
    // Variant 2i   = lane i, f32 blocked kernel;
    // variant 2i+1 = lane i, bf16 packed blocked kernel.
    let mut run = |v: usize| {
        let _lane = simd::ForcedLaneGuard::new(paths[v / 2]);
        if v.is_multiple_of(2) {
            gemm_blocked(GemmDesc::new(m, k, n), &a, &b, &mut c32[v / 2]);
        } else {
            gemm_blocked(bf16_desc(m, k, n), &a, &b, &mut c16[v / 2]);
        }
    };
    let best = time_variants_interleaved(2 * paths.len(), reps, &mut run);

    let scalar_idx = paths
        .iter()
        .position(|p| *p == LanePath::Scalar)
        .expect("scalar lane is always available");
    let bits_eq = |x: &[f32], y: &[f32]| x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits());
    let lanes = paths
        .iter()
        .enumerate()
        .map(|(i, p)| SimdLaneRow {
            path: p.name().to_string(),
            f32_gflops: flops as f64 / best[2 * i] / 1e9,
            bf16_gflops: flops as f64 / best[2 * i + 1] / 1e9,
            bitwise_equal_scalar: bits_eq(&c32[i], &c32[scalar_idx])
                && bits_eq(&c16[i], &c16[scalar_idx]),
        })
        .collect();
    SimdProbe {
        active,
        detected,
        reps,
        lanes,
    }
}

/// ABFT verify-cost probe at the calibration shape: the same blocked
/// GEMM with tile-checksum verification off and on. Verification is an
/// eᵀ(AB) = (eᵀA)B identity check over each macro-tile, so on clean
/// operands it must be **bitwise neutral** (the product path is
/// untouched; only checksums are computed alongside) and must never
/// report a corruption — the probe pins both, and prices the overhead
/// as a GFLOP/s ratio CI can track release over release.
#[derive(Clone, Debug)]
pub struct AbftProbe {
    pub reps: usize,
    /// Throughput with verification off (the default production path).
    pub plain_gflops: f64,
    /// Throughput with per-tile checksum verification on.
    pub verify_gflops: f64,
    /// Verified output bitwise equal to the unverified one (must hold).
    pub bitwise_equal: bool,
    /// Tiles checksummed during the measured reps (> 0 or the probe
    /// never exercised the verify path and the cost figure is vacuous).
    pub tiles_verified: u64,
    /// Corruptions reported on clean operands (must be 0).
    pub false_positives: u64,
}

impl AbftProbe {
    /// verify / plain throughput ratio (1.0 = free, lower = costlier).
    pub fn relative_throughput(&self) -> f64 {
        if self.plain_gflops > 0.0 {
            self.verify_gflops / self.plain_gflops
        } else {
            0.0
        }
    }
}

/// Runs the ABFT verify-cost probe at the calibration shape. Restores
/// the process-global verify flag it found on entry.
pub fn abft_probe(smoke: bool) -> AbftProbe {
    use ets_tensor::ops::abft;

    let (m, k, n) = CALIBRATION_MKN;
    let flops = 2 * (m * k * n) as u64;
    let reps = if smoke { 3 } else { 10 };
    let mut rng = Rng::new(103);
    let mut a = vec![0.0f32; m * k];
    rng.fill_uniform(&mut a, -1.0, 1.0);
    let mut b = vec![0.0f32; k * n];
    rng.fill_uniform(&mut b, -1.0, 1.0);
    let mut c_plain = vec![0.0f32; m * n];
    let mut c_verify = vec![0.0f32; m * n];

    let prev = abft::verify_enabled();
    abft::set_verify(false);
    let desc = GemmDesc::new(m, k, n);
    let plain_gflops = time_gflops(flops, reps, || gemm_blocked(desc, &a, &b, &mut c_plain));

    abft::set_verify(true);
    let verified0 = abft::tiles_verified();
    let detected0 = abft::corruptions_detected();
    let verify_gflops = time_gflops(flops, reps, || gemm_blocked(desc, &a, &b, &mut c_verify));
    let tiles_verified = abft::tiles_verified() - verified0;
    let false_positives = abft::corruptions_detected() - detected0;
    abft::set_verify(prev);

    let bitwise_equal = c_plain
        .iter()
        .zip(&c_verify)
        .all(|(x, y)| x.to_bits() == y.to_bits());
    AbftProbe {
        reps,
        plain_gflops,
        verify_gflops,
        bitwise_equal,
        tiles_verified,
        false_positives,
    }
}

/// Steady-state training-step probe results.
#[derive(Clone, Debug)]
pub struct SteadyState {
    pub warmup_steps: usize,
    pub steps: usize,
    pub step_ms: f64,
    /// Arena allocator hits across the measured (post-warmup) steps.
    /// The allocation-free-step contract requires this to be 0.
    pub scratch_reallocs_delta: u64,
    pub dispatch_blocked: u64,
    pub dispatch_naive: u64,
    /// bf16 dispatch split across the measured steps — the probe runs a
    /// mixed-precision step alongside the f32 one, so its rounded operand
    /// copies are held to the same zero-realloc contract.
    pub dispatch_blocked_bf16: u64,
    pub dispatch_naive_bf16: u64,
}

/// Times `reps` invocations of `f` (after one untimed warmup call) and
/// returns GFLOP/s of the **fastest** invocation for `flops`
/// floating-point ops per call. Best-of, not mean: on a shared machine a
/// single descheduled rep can triple the average and flip the regression
/// gate, while the minimum estimates the kernel's actual capability.
fn time_gflops(flops: u64, reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup: faults in scratch buffers, pages, rayon pool
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64().max(1e-9));
    }
    flops as f64 / best / 1e9
}

/// A conv-shaped row: times naive / blocked / auto / bf16 on one image.
#[allow(clippy::too_many_arguments)]
fn conv_row(
    label: &str,
    rng: &mut Rng,
    c_in: usize,
    hw: usize,
    c_out: usize,
    ksz: usize,
    stride: usize,
    pad: usize,
    reps: usize,
    calibration: bool,
) -> KernelBenchRow {
    let xs = Shape::new(&[1, c_in, hw, hw]);
    let ws = Shape::new(&[c_out, c_in, ksz, ksz]);
    let g = Conv2dGeom::infer(&xs, &ws, stride, pad);
    let (m, k, n) = (g.c_out, g.k(), g.p());
    let flops = 2 * (m * k * n) as u64;

    let mut img = vec![0.0f32; c_in * hw * hw];
    rng.fill_uniform(&mut img, -1.0, 1.0);
    let mut w = vec![0.0f32; m * k];
    rng.fill_uniform(&mut w, -0.5, 0.5);
    let mut y = vec![0.0f32; m * n];
    let mut patches = vec![0.0f32; k * n];

    // All four variants are timed round-robin inside a shared rep loop
    // (rep 0 is the untimed warmup): the gate compares variants against
    // each other, and interleaving keeps every pair of samples in the
    // same scheduling window — two best-of blocks taken seconds apart
    // drift by >10% on a throttled host, which is exactly the noise the
    // auto-vs-naive gate must not fire on.
    let mut run = |v: usize| match v {
        0 => {
            im2col(&g, &img, &mut patches);
            gemm_naive(GemmDesc::new(m, k, n), &w, &patches, &mut y);
        }
        1 => {
            im2col(&g, &img, &mut patches);
            gemm_blocked(GemmDesc::new(m, k, n), &w, &patches, &mut y);
        }
        2 => {
            im2col(&g, &img, &mut patches);
            gemm(GemmDesc::new(m, k, n), &w, &patches, &mut y);
        }
        _ => {
            im2col(&g, &img, &mut patches);
            gemm_blocked(bf16_desc(m, k, n), &w, &patches, &mut y);
        }
    };
    let best = time_variants_interleaved(4, reps, &mut run);
    let gf = |b: f64| flops as f64 / b / 1e9;
    let (naive_gflops, blocked_gflops, auto_gflops, bf16_blocked_gflops) =
        (gf(best[0]), gf(best[1]), gf(best[2]), gf(best[3]));

    KernelBenchRow {
        label: label.to_string(),
        m,
        k,
        n,
        reps,
        naive_gflops,
        blocked_gflops,
        auto_gflops,
        bf16_blocked_gflops,
        calibration,
    }
}

/// Times `n_variants` alternatives round-robin inside one rep loop and
/// returns the best (minimum) wall time per variant. Rep 0 is the
/// untimed warmup round. Interleaving — rather than timing each variant
/// in its own best-of block — keeps inter-variant comparisons inside a
/// shared scheduling window, which is what makes ratio gates between
/// them noise-robust on loaded hosts.
fn time_variants_interleaved(
    n_variants: usize,
    reps: usize,
    run: &mut dyn FnMut(usize),
) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; n_variants];
    for rep in 0..reps + 1 {
        for (v, b) in best.iter_mut().enumerate() {
            let t0 = Instant::now();
            run(v);
            let dt = t0.elapsed().as_secs_f64().max(1e-9);
            if rep > 0 {
                *b = b.min(dt);
            }
        }
    }
    best
}

/// A pure-GEMM row (e.g. the classifier): naive vs blocked only.
fn gemm_row(
    label: &str,
    rng: &mut Rng,
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
) -> KernelBenchRow {
    let flops = 2 * (m * k * n) as u64;
    let mut a = vec![0.0f32; m * k];
    rng.fill_uniform(&mut a, -1.0, 1.0);
    let mut b = vec![0.0f32; k * n];
    rng.fill_uniform(&mut b, -1.0, 1.0);
    let mut c = vec![0.0f32; m * n];
    let mut run = |v: usize| match v {
        0 => gemm_naive(GemmDesc::new(m, k, n), &a, &b, &mut c),
        1 => gemm_blocked(GemmDesc::new(m, k, n), &a, &b, &mut c),
        2 => gemm(GemmDesc::new(m, k, n), &a, &b, &mut c),
        _ => gemm_blocked(bf16_desc(m, k, n), &a, &b, &mut c),
    };
    let best = time_variants_interleaved(4, reps, &mut run);
    let gf = |b: f64| flops as f64 / b / 1e9;
    let (naive_gflops, blocked_gflops, auto_gflops, bf16_blocked_gflops) =
        (gf(best[0]), gf(best[1]), gf(best[2]), gf(best[3]));
    KernelBenchRow {
        label: label.to_string(),
        m,
        k,
        n,
        reps,
        naive_gflops,
        blocked_gflops,
        auto_gflops,
        bf16_blocked_gflops,
        calibration: false,
    }
}

/// The complete pack work of the calibration GEMM in one precision: the
/// tile-major A pack (`m×k`) plus every `KC×NC` B panel (`k×n`), packed
/// into reused panel buffers exactly as `gemm_blocked` does.
#[allow(clippy::too_many_arguments)]
fn pack_pass(
    m: usize,
    k: usize,
    n: usize,
    w: &[f32],
    b: &[f32],
    precision: GemmPrecision,
    ap: &mut [f32],
    bp: &mut [f32],
) {
    pack_a_into(PanelA::RowMajor(w), m, k, precision, ap);
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            pack_b_panel(PanelB::RowMajor(b), k, n, pc, kc, jc, nc, precision, bp);
        }
    }
}

/// Measures the calibration GEMM's full panel-pack throughput (A pack +
/// all B panels, `m·k + k·n` elements) in f32 vs bf16. Both write f32
/// panels; the bf16 pass also rounds every element, in-register on the
/// row-major B scatter that carries the bulk of the volume. Best-of-`reps`
/// timing.
pub fn pack_probe(smoke: bool) -> PackProbe {
    let (m, k, n) = CALIBRATION_MKN;
    let elems = m * k + k * n;
    let reps = if smoke { 6 } else { 24 };
    let mut rng = Rng::new(97);
    let mut w = vec![0.0f32; m * k];
    rng.fill_uniform(&mut w, -0.5, 0.5);
    let mut b = vec![0.0f32; k * n];
    rng.fill_uniform(&mut b, -1.0, 1.0);
    let mut ap = vec![0.0f32; packed_a_len(m, k)];
    let mut bp = vec![0.0f32; KC * NC];
    let mut run = |v: usize| {
        let precision = [GemmPrecision::F32, GemmPrecision::Bf16][v];
        pack_pass(m, k, n, &w, &b, precision, &mut ap, &mut bp);
    };
    let best = time_variants_interleaved(2, reps, &mut run);
    let f32_melems_per_s = elems as f64 / best[0] / 1e6;
    let bf16_melems_per_s = elems as f64 / best[1] / 1e6;
    PackProbe {
        m,
        k,
        elems,
        reps,
        f32_melems_per_s,
        bf16_melems_per_s,
    }
}

/// Measures every row. `smoke` shrinks the non-calibration spatial sizes
/// and rep counts so CI finishes in seconds; the calibration shape is
/// identical in both modes (the regression gate must compare like with
/// like across runs).
pub fn kernel_rows(smoke: bool) -> Vec<KernelBenchRow> {
    let mut rng = Rng::new(42);
    let reps = if smoke { 2 } else { 8 };
    let px = |full: usize, small: usize| if smoke { small } else { full };
    vec![
        // Stem: 3×3 stride-2 on RGB.
        conv_row(
            "b0_stem_3x3_s2",
            &mut rng,
            3,
            px(224, 56),
            32,
            3,
            2,
            1,
            reps,
            false,
        ),
        // MBConv1 expand-style 1×1 at 56 px.
        conv_row(
            "b0_mb_expand_1x1_56px",
            &mut rng,
            16,
            px(56, 28),
            96,
            1,
            1,
            0,
            reps,
            false,
        ),
        // Calibration: B0 stage-5-sized 3×3 (m=256, k=1152, n=3136).
        conv_row(
            CALIBRATION_LABEL,
            &mut rng,
            128,
            56,
            256,
            3,
            1,
            1,
            reps,
            true,
        ),
        // Head 1×1: 320 → 1280 at 7 px.
        conv_row(
            "b0_head_1x1_7px",
            &mut rng,
            320,
            7,
            1280,
            1,
            1,
            0,
            reps,
            false,
        ),
        // Classifier GEMM: batch × 1280 → 1000.
        gemm_row("b0_fc_batch64", &mut rng, px(64, 16), 1280, 1000, reps),
    ]
}

/// One steady-state training step of a blocked-dispatch conv layer:
/// forward + full backward on a batch of 8, in f32 and again under the
/// bf16 precision so every scratch size class (panels, the naive
/// kernel's rounded operand copies) reaches steady state.
fn steady_step(x: &Tensor, w: &Tensor) -> f32 {
    let y = conv2d_forward(x, w, 1, 1);
    let (dx, dw) = conv2d_backward(x, w, &y, 1, 1);
    let yq = conv2d_forward_p(x, w, 1, 1, GemmPrecision::Bf16);
    let (dxq, dwq) = conv2d_backward_p(x, w, &yq, 1, 1, GemmPrecision::Bf16);
    // Touch outputs so nothing is optimized away.
    dx.data()[0] + dw.data()[0] + y.data()[0] + dxq.data()[0] + dwq.data()[0] + yq.data()[0]
}

/// Runs the steady-state probe: after `warmup` steps every thread's
/// scratch pool holds a buffer for every size class the layer needs, so
/// the measured steps must not hit the allocator at all.
pub fn steady_state_probe(smoke: bool) -> SteadyState {
    let mut rng = Rng::new(7);
    let mut x = Tensor::zeros([8, 16, 24, 24]);
    rng.fill_uniform(x.data_mut(), -1.0, 1.0);
    let mut w = Tensor::zeros([32, 16, 3, 3]);
    rng.fill_uniform(w.data_mut(), -0.5, 0.5);

    let warmup_steps = 5;
    let steps = if smoke { 4 } else { 20 };
    let mut sink = 0.0f32;
    for _ in 0..warmup_steps {
        sink += steady_step(&x, &w);
    }
    let reallocs_before = scratch_reallocs();
    let blocked_before = dispatch_blocked_calls();
    let naive_before = dispatch_naive_calls();
    let (bf16_blocked_before, bf16_naive_before) = dispatch_calls(GemmPrecision::Bf16);
    let t0 = Instant::now();
    for _ in 0..steps {
        sink += steady_step(&x, &w);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    assert!(
        sink.is_finite(),
        "steady-state probe produced non-finite values"
    );
    let (bf16_blocked, bf16_naive) = dispatch_calls(GemmPrecision::Bf16);
    SteadyState {
        warmup_steps,
        steps,
        step_ms: 1e3 * elapsed / steps as f64,
        scratch_reallocs_delta: scratch_reallocs() - reallocs_before,
        dispatch_blocked: dispatch_blocked_calls() - blocked_before,
        dispatch_naive: dispatch_naive_calls() - naive_before,
        dispatch_blocked_bf16: bf16_blocked - bf16_blocked_before,
        dispatch_naive_bf16: bf16_naive - bf16_naive_before,
    }
}

/// Renders `BENCH_kernels.json`.
pub fn kernels_json(
    rows: &[KernelBenchRow],
    ss: &SteadyState,
    pack: &PackProbe,
    par: &ParallelProbe,
    abft: &AbftProbe,
    sp: &SimdProbe,
    smoke: bool,
) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.begin_object()
        .field_str("schema", "bench_kernels_v6")
        .field_str("mode", if smoke { "smoke" } else { "full" })
        .key("rows")
        .begin_array();
    for r in rows {
        w.begin_object()
            .field_str("label", &r.label)
            .field_u64("m", r.m as u64)
            .field_u64("k", r.k as u64)
            .field_u64("n", r.n as u64)
            .field_u64("reps", r.reps as u64)
            .field_f64("naive_gflops", r.naive_gflops)
            .field_f64("blocked_gflops", r.blocked_gflops)
            .field_f64("auto_gflops", r.auto_gflops)
            .field_f64("bf16_blocked_gflops", r.bf16_blocked_gflops)
            .field_f64("speedup_blocked", r.speedup_blocked())
            .field_f64("speedup_auto", r.speedup_auto())
            .field_bool("calibration", r.calibration)
            .end_object();
    }
    w.end_array()
        .key("pack")
        .begin_object()
        .field_u64("m", pack.m as u64)
        .field_u64("k", pack.k as u64)
        .field_u64("elems", pack.elems as u64)
        .field_u64("reps", pack.reps as u64)
        .field_f64("f32_melems_per_s", pack.f32_melems_per_s)
        .field_f64("bf16_melems_per_s", pack.bf16_melems_per_s)
        .end_object()
        .key("parallel")
        .begin_object()
        .field_u64("workers", par.workers as u64)
        .field_u64("host_cores", par.host_cores as u64)
        .field_u64("reps", par.reps as u64)
        .field_f64("seq_gflops", par.seq_gflops)
        .field_f64("par_gflops", par.par_gflops)
        .field_f64("speedup", par.speedup())
        .field_f64("best_paired_ratio", par.best_paired_ratio)
        .field_u64("helper_tiles", par.par_helper_tiles)
        .field_bool("bitwise_equal", par.bitwise_equal)
        .field_bool("gate_enforced", par.gate_enforced)
        .field_str("gate", par.gate());
    w.key("worker_realloc_deltas").begin_array();
    for &d in &par.worker_realloc_deltas {
        w.u64_value(d);
    }
    w.end_array()
        .end_object()
        .key("abft")
        .begin_object()
        .field_u64("reps", abft.reps as u64)
        .field_f64("plain_gflops", abft.plain_gflops)
        .field_f64("verify_gflops", abft.verify_gflops)
        .field_f64("relative_throughput", abft.relative_throughput())
        .field_bool("bitwise_equal", abft.bitwise_equal)
        .field_u64("tiles_verified", abft.tiles_verified)
        .field_u64("false_positives", abft.false_positives)
        .end_object()
        .key("simd")
        .begin_object()
        .field_str("active", &sp.active)
        .field_str("detected", &sp.detected)
        .field_u64("reps", sp.reps as u64)
        .key("lanes")
        .begin_array();
    for lane in &sp.lanes {
        w.begin_object()
            .field_str("path", &lane.path)
            .field_f64("f32_gflops", lane.f32_gflops)
            .field_f64("bf16_gflops", lane.bf16_gflops)
            .field_bool("bitwise_equal_scalar", lane.bitwise_equal_scalar)
            .end_object();
    }
    w.end_array()
        .end_object()
        .key("steady_state")
        .begin_object()
        .field_u64("warmup_steps", ss.warmup_steps as u64)
        .field_u64("steps", ss.steps as u64)
        .field_f64("step_ms", ss.step_ms)
        .field_u64("scratch_reallocs_delta", ss.scratch_reallocs_delta)
        .field_u64("dispatch_blocked", ss.dispatch_blocked)
        .field_u64("dispatch_naive", ss.dispatch_naive)
        .field_u64("dispatch_blocked_bf16", ss.dispatch_blocked_bf16)
        .field_u64("dispatch_naive_bf16", ss.dispatch_naive_bf16)
        .end_object()
        .end_object();
    w.finish()
}

/// In-process schema validation of a `BENCH_kernels.json` document.
/// CI runs this before uploading, so a malformed artifact is a failure,
/// not a silent gap in the perf trajectory.
pub fn validate_kernels_json(doc: &str) -> Result<(), String> {
    let v = parse_json(doc)?;
    if v.get("schema").and_then(Value::as_str) != Some("bench_kernels_v6") {
        return Err("schema must be bench_kernels_v6".into());
    }
    match v.get("mode").and_then(Value::as_str) {
        Some("smoke") | Some("full") => {}
        other => return Err(format!("mode must be smoke|full, got {other:?}")),
    }
    let rows = v
        .get("rows")
        .and_then(Value::as_arr)
        .ok_or("rows must be an array")?;
    if rows.is_empty() {
        return Err("rows must be non-empty".into());
    }
    let mut calibration_rows = 0;
    for (i, r) in rows.iter().enumerate() {
        for key in [
            "m",
            "k",
            "n",
            "reps",
            "naive_gflops",
            "blocked_gflops",
            "auto_gflops",
            "bf16_blocked_gflops",
            "speedup_blocked",
            "speedup_auto",
        ] {
            let num = r.get(key).and_then(Value::as_f64);
            match num {
                Some(x) if x.is_finite() && x >= 0.0 => {}
                _ => {
                    return Err(format!(
                        "row {i}: {key} must be a finite non-negative number"
                    ))
                }
            }
        }
        if r.get("label").and_then(Value::as_str).is_none() {
            return Err(format!("row {i}: label must be a string"));
        }
        if matches!(r.get("calibration"), Some(Value::Bool(true))) {
            calibration_rows += 1;
            let (m, k, n) = CALIBRATION_MKN;
            for (key, want) in [("m", m), ("k", k), ("n", n)] {
                if r.get(key).and_then(Value::as_f64) != Some(want as f64) {
                    return Err(format!("calibration row: {key} must be {want}"));
                }
            }
        }
    }
    if calibration_rows != 1 {
        return Err(format!(
            "expected exactly 1 calibration row, found {calibration_rows}"
        ));
    }
    let pack = v.get("pack").ok_or("pack probe missing")?;
    for key in ["elems", "reps", "f32_melems_per_s", "bf16_melems_per_s"] {
        match pack.get(key).and_then(Value::as_f64) {
            Some(x) if x.is_finite() && x >= 0.0 => {}
            _ => return Err(format!("pack.{key} must be a finite non-negative number")),
        }
    }
    let par = v.get("parallel").ok_or("parallel probe missing")?;
    for key in [
        "workers",
        "host_cores",
        "seq_gflops",
        "par_gflops",
        "speedup",
        "best_paired_ratio",
        "helper_tiles",
    ] {
        match par.get(key).and_then(Value::as_f64) {
            Some(x) if x.is_finite() && x >= 0.0 => {}
            _ => {
                return Err(format!(
                    "parallel.{key} must be a finite non-negative number"
                ))
            }
        }
    }
    for key in ["bitwise_equal", "gate_enforced"] {
        if !matches!(par.get(key), Some(Value::Bool(_))) {
            return Err(format!("parallel.{key} must be a boolean"));
        }
    }
    match par.get("gate").and_then(Value::as_str) {
        Some("enforced") | Some("parity-only") => {}
        other => {
            return Err(format!(
                "parallel.gate must be \"enforced\" or \"parity-only\", got {other:?}"
            ))
        }
    }
    if par
        .get("worker_realloc_deltas")
        .and_then(Value::as_arr)
        .is_none()
    {
        return Err("parallel.worker_realloc_deltas must be an array".into());
    }
    let abft = v.get("abft").ok_or("abft probe missing")?;
    for key in [
        "reps",
        "plain_gflops",
        "verify_gflops",
        "relative_throughput",
        "tiles_verified",
        "false_positives",
    ] {
        match abft.get(key).and_then(Value::as_f64) {
            Some(x) if x.is_finite() && x >= 0.0 => {}
            _ => return Err(format!("abft.{key} must be a finite non-negative number")),
        }
    }
    if !matches!(abft.get("bitwise_equal"), Some(Value::Bool(_))) {
        return Err("abft.bitwise_equal must be a boolean".into());
    }
    let sp = v.get("simd").ok_or("simd probe missing")?;
    let active = sp
        .get("active")
        .and_then(Value::as_str)
        .ok_or("simd.active must be a string")?;
    if sp.get("detected").and_then(Value::as_str).is_none() {
        return Err("simd.detected must be a string".into());
    }
    let lanes = sp
        .get("lanes")
        .and_then(Value::as_arr)
        .ok_or("simd.lanes must be an array")?;
    if lanes.is_empty() {
        return Err("simd.lanes must be non-empty".into());
    }
    let mut lane_names = Vec::new();
    for (i, lane) in lanes.iter().enumerate() {
        match lane.get("path").and_then(Value::as_str) {
            Some(p @ ("scalar" | "sse2" | "avx2")) => lane_names.push(p.to_string()),
            other => return Err(format!("simd.lanes[{i}].path unrecognized: {other:?}")),
        }
        for key in ["f32_gflops", "bf16_gflops"] {
            match lane.get(key).and_then(Value::as_f64) {
                Some(x) if x.is_finite() && x >= 0.0 => {}
                _ => {
                    return Err(format!(
                        "simd.lanes[{i}].{key} must be a finite non-negative number"
                    ))
                }
            }
        }
        if !matches!(lane.get("bitwise_equal_scalar"), Some(Value::Bool(_))) {
            return Err(format!(
                "simd.lanes[{i}].bitwise_equal_scalar must be a boolean"
            ));
        }
    }
    if !lane_names.iter().any(|p| p == "scalar") {
        return Err("simd.lanes must include the scalar lane".into());
    }
    if !lane_names.iter().any(|p| p == active) {
        return Err(format!(
            "simd.active {active:?} has no matching row in simd.lanes"
        ));
    }
    let ss = v.get("steady_state").ok_or("steady_state missing")?;
    for key in [
        "warmup_steps",
        "steps",
        "step_ms",
        "scratch_reallocs_delta",
        "dispatch_blocked_bf16",
        "dispatch_naive_bf16",
    ] {
        if ss.get(key).and_then(Value::as_f64).is_none() {
            return Err(format!("steady_state.{key} must be a number"));
        }
    }
    Ok(())
}

/// Floor on bf16 / f32 blocked GFLOP/s at the calibration shape. Both
/// run the one f32 micro-kernel, so bf16 pays only its rounding passes
/// at pack time; without a bf16 multiply in the bitwise contract it can
/// approach f32 but never pass it. A bf16 row below this means the
/// rounding stopped being fused into the pack (or a second micro-kernel
/// crept back).
pub const BF16_BLOCKED_FLOOR: f64 = 0.85;

/// Per-row dispatch-vs-naive noise allowance: the two timings are
/// separate wall-clock samples of the *same* kernel whenever dispatch
/// picks naive, so a few percent of scheduler jitter must not fire the
/// gate.
const AUTO_NOISE_FLOOR: f64 = 0.90;

/// The structural half of the CI gate: everything in it is exact on any
/// host at any load, so test suites can assert it (`tests/smoke.rs`
/// does, in debug and release alike).
/// 1. every SIMD lane is **bitwise equal** to the scalar micro-kernel;
/// 2. ABFT verification is bitwise neutral on clean operands, reports
///    no corruption there, and did checksum tiles;
/// 3. the parallel macro-kernel is bitwise equal to sequential and
///    keeps every worker's scratch arena allocation-free, and on a
///    1-core host the worker clamp refuses the tile grid;
/// 4. the steady state is allocation-free, in both precisions.
pub fn check_kernel_structure(
    ss: &SteadyState,
    par: &ParallelProbe,
    abft: &AbftProbe,
    sp: &SimdProbe,
) -> Result<(), String> {
    for lane in &sp.lanes {
        if !lane.bitwise_equal_scalar {
            return Err(format!(
                "SIMD lane path {:?} diverged bitwise from the scalar micro-kernel at the \
                 calibration shape — lane width must be a pure throughput knob",
                lane.path
            ));
        }
    }
    if !abft.bitwise_equal {
        return Err(
            "ABFT verify mode perturbed the product at the calibration shape; \
             verification must be bitwise neutral"
                .into(),
        );
    }
    if abft.false_positives != 0 {
        return Err(format!(
            "ABFT verify reported {} corruption(s) on clean operands",
            abft.false_positives
        ));
    }
    if abft.tiles_verified == 0 {
        return Err(
            "ABFT probe never reached the tile verify path — cost figure is vacuous".into(),
        );
    }
    if !par.bitwise_equal {
        return Err(format!(
            "parallel GEMM ({} workers) diverged bitwise from sequential at the calibration shape",
            par.workers
        ));
    }
    if par.worker_realloc_deltas.iter().any(|&d| d != 0) {
        return Err(format!(
            "parallel GEMM workers hit the allocator after warmup: {:?}; the per-worker \
             arena contract requires all zeros",
            par.worker_realloc_deltas
        ));
    }
    // 1-core host: a real speedup is impossible, so the gate checks that
    // the worker clamp *refused* the tile grid (any fan-out is a clamp
    // bug).
    if !par.gate_enforced && par.par_helper_tiles != 0 {
        return Err(format!(
            "parity-only gate: on a {}-core host the worker clamp must route dispatch \
             to the sequential path, but helper workers executed {} tile(s)",
            par.host_cores, par.par_helper_tiles
        ));
    }
    if ss.scratch_reallocs_delta != 0 {
        return Err(format!(
            "steady-state step hit the allocator {} time(s); the arena contract requires 0",
            ss.scratch_reallocs_delta
        ));
    }
    Ok(())
}

/// The CI regression gate of the `bench_kernels` binary:
/// [`check_kernel_structure`], then the wall-clock ratios, which need a
/// quiet release-mode host and so belong to no test suite.
/// 1. the active SIMD lane must not lose to the scalar lane;
/// 2. the blocked kernel must not fall below naive at the calibration
///    shape;
/// 3. the *dispatched* path must not fall below naive at any committed
///    shape (modulo timing noise) — this is what the small-k guard
///    protects: a shape the blocked kernel loses must route to naive.
///    In `smoke` mode this applies to the calibration row only: the
///    other rows run at shrunken, sub-tuning-target shapes there;
/// 4. the bf16 blocked kernel must reach ≥ [`BF16_BLOCKED_FLOOR`]× the
///    f32 blocked kernel at the calibration shape;
/// 5. the parallel macro-kernel must reach ≥ [`PARALLEL_SPEEDUP_FLOOR`]×
///    sequential at the calibration shape when the host has ≥ 2 cores (a
///    1-core container can time-slice but not speed up, so there it
///    must stay at sequential throughput instead).
pub fn check_kernel_regression(
    rows: &[KernelBenchRow],
    ss: &SteadyState,
    par: &ParallelProbe,
    abft: &AbftProbe,
    sp: &SimdProbe,
    smoke: bool,
) -> Result<(), String> {
    check_kernel_structure(ss, par, abft, sp)?;
    let scalar_lane = sp.lane("scalar").ok_or("simd probe missing scalar lane")?;
    let active_lane = sp
        .lane(&sp.active)
        .ok_or_else(|| format!("simd probe missing active lane {:?}", sp.active))?;
    if active_lane.f32_gflops < scalar_lane.f32_gflops * AUTO_NOISE_FLOOR {
        return Err(format!(
            "active SIMD lane {:?} slower than scalar at the calibration shape (f32): \
             {:.2} < {:.2} GFLOP/s — the vectorized kernel must never lose to the \
             kernel it replaced",
            sp.active, active_lane.f32_gflops, scalar_lane.f32_gflops
        ));
    }
    if active_lane.bf16_gflops < scalar_lane.bf16_gflops * AUTO_NOISE_FLOOR {
        return Err(format!(
            "active SIMD lane {:?} slower than scalar at the calibration shape (bf16): \
             {:.2} < {:.2} GFLOP/s",
            sp.active, active_lane.bf16_gflops, scalar_lane.bf16_gflops
        ));
    }
    if par.gate_enforced {
        if par.speedup() < PARALLEL_SPEEDUP_FLOOR {
            return Err(format!(
                "parallel GEMM speedup {:.2}x below the {PARALLEL_SPEEDUP_FLOOR}x floor at the \
                 calibration shape ({} workers on {} cores): {:.2} vs {:.2} GFLOP/s",
                par.speedup(),
                par.workers,
                par.host_cores,
                par.par_gflops,
                par.seq_gflops
            ));
        }
        if par.par_helper_tiles == 0 {
            return Err(format!(
                "parallel probe on a {}-core host never dispatched a tile to a helper \
                 worker — the speedup figure is vacuous",
                par.host_cores
            ));
        }
    } else if par.best_paired_ratio < PARALLEL_PARITY_FLOOR {
        // The paired timing ratio corroborates that the path the worker
        // clamp chose actually runs at sequential speed.
        return Err(format!(
            "parity-only gate: on a {}-core host the parallel dispatch must stay at \
             sequential throughput, but the best matched-window ratio was {:.2}x \
             (< {PARALLEL_PARITY_FLOOR})",
            par.host_cores, par.best_paired_ratio
        ));
    }
    let cal = rows
        .iter()
        .find(|r| r.calibration)
        .ok_or("no calibration row")?;
    if cal.blocked_gflops < cal.naive_gflops {
        return Err(format!(
            "blocked GEMM regressed below naive at calibration shape: {:.2} < {:.2} GFLOP/s",
            cal.blocked_gflops, cal.naive_gflops
        ));
    }
    for r in rows {
        // The dispatch predicate's thresholds are tuned against the
        // full-mode shapes; smoke mode shrinks the non-calibration rows
        // to a few MFLOP, where (a) the predicate makes no claim and
        // (b) a single sample flaps by more than the noise floor. The
        // calibration row is identical in both modes and stays gated.
        if smoke && !r.calibration {
            continue;
        }
        if r.auto_gflops < r.naive_gflops * AUTO_NOISE_FLOOR {
            return Err(format!(
                "dispatched GEMM slower than naive at {} ({}x{}x{}): {:.2} < {:.2} GFLOP/s — \
                 the shape predicate routed a losing kernel",
                r.label, r.m, r.k, r.n, r.auto_gflops, r.naive_gflops
            ));
        }
    }
    bf16_floor(cal.bf16_blocked_gflops, cal.blocked_gflops)
}

/// Gate 4 of [`check_kernel_regression`], shared with
/// [`check_committed_artifact`].
fn bf16_floor(bf16: f64, f32: f64) -> Result<(), String> {
    if bf16 < BF16_BLOCKED_FLOOR * f32 {
        return Err(format!(
            "bf16 blocked GEMM {bf16:.2} GFLOP/s below {BF16_BLOCKED_FLOOR}x the f32 blocked \
             {f32:.2} GFLOP/s at the calibration shape — its rounding must stay in the pack"
        ));
    }
    Ok(())
}

/// Strict gate over a **committed** `BENCH_kernels.json` document — the
/// numbers the repository claims, not a fresh (noisy) measurement.
/// Because these values were the best-of measurements someone chose to
/// commit, no noise allowance applies: the calibration row must meet
/// [`BF16_BLOCKED_FLOOR`], and the parallel probe must pass whichever
/// gate (`"enforced"` / `"parity-only"`) it recorded. PR 6..8 shipped an
/// artifact with a 0.93× parallel "speedup" precisely because nothing
/// re-read the committed file; this is that missing check.
pub fn check_committed_artifact(doc: &str) -> Result<(), String> {
    validate_kernels_json(doc)?;
    let v = parse_json(doc)?;
    let par = v.get("parallel").ok_or("parallel probe missing")?;
    let speedup = par
        .get("speedup")
        .and_then(Value::as_f64)
        .ok_or("parallel.speedup missing")?;
    let paired = par
        .get("best_paired_ratio")
        .and_then(Value::as_f64)
        .ok_or("parallel.best_paired_ratio missing")?;
    let helper_tiles = par
        .get("helper_tiles")
        .and_then(Value::as_f64)
        .ok_or("parallel.helper_tiles missing")?;
    let gate = par.get("gate").and_then(Value::as_str).unwrap_or("");
    match gate {
        "enforced" => {
            if speedup < PARALLEL_SPEEDUP_FLOOR {
                return Err(format!(
                    "committed artifact records parallel speedup {speedup:.2}x under the \
                     \"enforced\" gate (floor {PARALLEL_SPEEDUP_FLOOR}x)"
                ));
            }
            if helper_tiles == 0.0 {
                return Err(
                    "committed artifact records an enforced parallel gate with zero helper \
                     tiles — the speedup never exercised the tile grid"
                        .into(),
                );
            }
        }
        "parity-only" => {
            if helper_tiles != 0.0 {
                return Err(format!(
                    "committed artifact records {helper_tiles} helper tile(s) under the \
                     \"parity-only\" gate — the 1-core clamp did not route sequentially"
                ));
            }
            if paired < PARALLEL_PARITY_FLOOR {
                return Err(format!(
                    "committed artifact records best matched-window ratio {paired:.2}x under \
                     the \"parity-only\" gate (floor {PARALLEL_PARITY_FLOOR}x)"
                ));
            }
        }
        other => return Err(format!("parallel.gate unrecognized: {other:?}")),
    }
    if par.get("bitwise_equal") != Some(&Value::Bool(true)) {
        return Err("committed artifact records parallel bitwise_equal != true".into());
    }
    if let Some(deltas) = par.get("worker_realloc_deltas").and_then(Value::as_arr) {
        if deltas.iter().any(|d| d.as_f64() != Some(0.0)) {
            return Err("committed artifact records nonzero worker realloc deltas".into());
        }
    }
    let ss = v.get("steady_state").ok_or("steady_state missing")?;
    if ss.get("scratch_reallocs_delta").and_then(Value::as_f64) != Some(0.0) {
        return Err("committed artifact records steady-state allocator hits".into());
    }
    let sp = v.get("simd").ok_or("simd probe missing")?;
    let active = sp.get("active").and_then(Value::as_str).unwrap_or("");
    let lanes = sp
        .get("lanes")
        .and_then(Value::as_arr)
        .ok_or("simd.lanes must be an array")?;
    let mut scalar_f32 = None;
    for lane in lanes {
        if lane.get("bitwise_equal_scalar") != Some(&Value::Bool(true)) {
            return Err(format!(
                "committed artifact records SIMD lane {:?} with bitwise_equal_scalar != true",
                lane.get("path").and_then(Value::as_str).unwrap_or("?")
            ));
        }
        if lane.get("path").and_then(Value::as_str) == Some("scalar") {
            scalar_f32 = lane.get("f32_gflops").and_then(Value::as_f64);
        }
    }
    let scalar_f32 = scalar_f32.ok_or("committed artifact has no scalar SIMD lane row")?;
    let rows = v
        .get("rows")
        .and_then(Value::as_arr)
        .ok_or("rows must be an array")?;
    for r in rows {
        if matches!(r.get("calibration"), Some(Value::Bool(true))) {
            let naive = r.get("naive_gflops").and_then(Value::as_f64).unwrap_or(0.0);
            let blocked = r
                .get("blocked_gflops")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            if blocked < naive {
                return Err(format!(
                    "committed artifact records blocked {blocked:.2} < naive {naive:.2} \
                     GFLOP/s at the calibration shape"
                ));
            }
            let bf16 = r
                .get("bf16_blocked_gflops")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            bf16_floor(bf16, blocked).map_err(|e| format!("committed artifact: {e}"))?;
            // The raised calibration floor of the SIMD layer: an AVX2
            // host's committed blocked figure must beat the scalar lane
            // it replaced by ≥ SIMD_SPEEDUP_FLOOR — otherwise the
            // vectorized micro-kernel shipped without its win.
            if active == "avx2" && blocked < SIMD_SPEEDUP_FLOOR * scalar_f32 {
                return Err(format!(
                    "committed artifact records calibration blocked {blocked:.2} GFLOP/s \
                     under an active avx2 lane, below {SIMD_SPEEDUP_FLOOR}x the scalar \
                     lane's {scalar_f32:.2} GFLOP/s"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(label: &str, naive: f64, blocked: f64, calibration: bool) -> KernelBenchRow {
        let (m, k, n) = if calibration {
            CALIBRATION_MKN
        } else {
            (8, 8, 8)
        };
        KernelBenchRow {
            label: label.into(),
            m,
            k,
            n,
            reps: 1,
            naive_gflops: naive,
            blocked_gflops: blocked,
            auto_gflops: naive.max(blocked),
            bf16_blocked_gflops: blocked,
            calibration,
        }
    }

    fn probe() -> PackProbe {
        PackProbe {
            m: CALIBRATION_MKN.0,
            k: CALIBRATION_MKN.1,
            elems: CALIBRATION_MKN.0 * CALIBRATION_MKN.1,
            reps: 2,
            f32_melems_per_s: 500.0,
            bf16_melems_per_s: 600.0,
        }
    }

    fn abft_ok() -> AbftProbe {
        AbftProbe {
            reps: 2,
            plain_gflops: 10.0,
            verify_gflops: 9.0,
            bitwise_equal: true,
            tiles_verified: 64,
            false_positives: 0,
        }
    }

    fn simd_ok() -> SimdProbe {
        SimdProbe {
            active: "avx2".into(),
            detected: "avx2".into(),
            reps: 2,
            lanes: vec![
                SimdLaneRow {
                    path: "scalar".into(),
                    f32_gflops: 10.0,
                    bf16_gflops: 9.0,
                    bitwise_equal_scalar: true,
                },
                SimdLaneRow {
                    path: "sse2".into(),
                    f32_gflops: 15.0,
                    bf16_gflops: 13.0,
                    bitwise_equal_scalar: true,
                },
                SimdLaneRow {
                    path: "avx2".into(),
                    f32_gflops: 20.0,
                    bf16_gflops: 17.0,
                    bitwise_equal_scalar: true,
                },
            ],
        }
    }

    fn par_probe() -> ParallelProbe {
        ParallelProbe {
            workers: PARALLEL_PROBE_WORKERS,
            host_cores: 8,
            reps: 2,
            seq_gflops: 10.0,
            par_gflops: 25.0,
            bitwise_equal: true,
            worker_realloc_deltas: vec![0; PARALLEL_PROBE_WORKERS],
            gate_enforced: true,
            best_paired_ratio: 2.5,
            par_helper_tiles: 96,
        }
    }

    #[test]
    fn json_round_trips_and_validates() {
        let rows = vec![
            row("toy", 1.0, 2.0, false),
            row(CALIBRATION_LABEL, 1.0, 2.5, true),
        ];
        let ss = SteadyState {
            warmup_steps: 5,
            steps: 3,
            step_ms: 1.25,
            scratch_reallocs_delta: 0,
            dispatch_blocked: 12,
            dispatch_naive: 4,
            dispatch_blocked_bf16: 6,
            dispatch_naive_bf16: 2,
        };
        let doc = kernels_json(
            &rows,
            &ss,
            &probe(),
            &par_probe(),
            &abft_ok(),
            &simd_ok(),
            true,
        );
        validate_kernels_json(&doc).expect("valid document");
        check_kernel_regression(&rows, &ss, &par_probe(), &abft_ok(), &simd_ok(), false)
            .expect("no regression");
    }

    #[test]
    fn validator_rejects_bad_documents() {
        assert!(validate_kernels_json("{}").is_err());
        assert!(validate_kernels_json("not json").is_err());
        // Missing calibration row.
        let rows = vec![row("toy", 1.0, 2.0, false)];
        let ss = SteadyState {
            warmup_steps: 1,
            steps: 1,
            step_ms: 1.0,
            scratch_reallocs_delta: 0,
            dispatch_blocked: 0,
            dispatch_naive: 1,
            dispatch_blocked_bf16: 0,
            dispatch_naive_bf16: 0,
        };
        let doc = kernels_json(
            &rows,
            &ss,
            &probe(),
            &par_probe(),
            &abft_ok(),
            &simd_ok(),
            true,
        );
        assert!(validate_kernels_json(&doc).is_err());
        // Older schema versions no longer validate.
        let rows2 = vec![row(CALIBRATION_LABEL, 1.0, 2.0, true)];
        let doc2 = kernels_json(
            &rows2,
            &ss,
            &probe(),
            &par_probe(),
            &abft_ok(),
            &simd_ok(),
            true,
        )
        .replace("bench_kernels_v6", "bench_kernels_v5");
        assert!(validate_kernels_json(&doc2).is_err());
    }

    #[test]
    fn regression_gate_fires() {
        // Blocked slower than naive at the calibration shape.
        let rows = vec![row(CALIBRATION_LABEL, 2.0, 1.0, true)];
        let ss = SteadyState {
            warmup_steps: 1,
            steps: 1,
            step_ms: 1.0,
            scratch_reallocs_delta: 0,
            dispatch_blocked: 1,
            dispatch_naive: 0,
            dispatch_blocked_bf16: 0,
            dispatch_naive_bf16: 0,
        };
        assert!(
            check_kernel_regression(&rows, &ss, &par_probe(), &abft_ok(), &simd_ok(), false)
                .is_err()
        );
        let rows_ok = vec![KernelBenchRow {
            blocked_gflops: 4.0,
            auto_gflops: 4.0,
            bf16_blocked_gflops: 4.0,
            ..rows[0].clone()
        }];
        assert!(check_kernel_regression(
            &rows_ok,
            &ss,
            &par_probe(),
            &abft_ok(),
            &simd_ok(),
            false
        )
        .is_ok());
        let ss_bad = SteadyState {
            scratch_reallocs_delta: 3,
            ..ss.clone()
        };
        assert!(check_kernel_regression(
            &rows_ok,
            &ss_bad,
            &par_probe(),
            &abft_ok(),
            &simd_ok(),
            false
        )
        .is_err());
    }

    #[test]
    fn simd_gates_fire() {
        let rows = vec![row(CALIBRATION_LABEL, 1.0, 2.0, true)];
        let ss = SteadyState {
            warmup_steps: 1,
            steps: 1,
            step_ms: 1.0,
            scratch_reallocs_delta: 0,
            dispatch_blocked: 1,
            dispatch_naive: 0,
            dispatch_blocked_bf16: 1,
            dispatch_naive_bf16: 0,
        };
        // Any lane diverging bitwise from scalar is a hard failure.
        let mut broken = simd_ok();
        broken.lanes[2].bitwise_equal_scalar = false;
        let err = check_kernel_regression(&rows, &ss, &par_probe(), &abft_ok(), &broken, false)
            .unwrap_err();
        assert!(err.contains("diverged bitwise"), "{err}");
        // The active lane losing to scalar means dispatch picked a
        // regressing kernel.
        let mut slow = simd_ok();
        slow.lanes[2].f32_gflops = 5.0;
        let err = check_kernel_regression(&rows, &ss, &par_probe(), &abft_ok(), &slow, false)
            .unwrap_err();
        assert!(err.contains("slower than scalar"), "{err}");
        // The validator rejects unknown lane names outright.
        let doc = kernels_json(
            &rows,
            &ss,
            &probe(),
            &par_probe(),
            &abft_ok(),
            &simd_ok(),
            true,
        )
        .replace("avx2", "neon");
        assert!(validate_kernels_json(&doc).is_err());
        // Committed-artifact floor: an active avx2 lane must record a
        // calibration blocked figure ≥ SIMD_SPEEDUP_FLOOR × the scalar
        // lane's f32 row (here 2.0 < 1.5 × 10.0).
        let weak = kernels_json(
            &rows,
            &ss,
            &probe(),
            &par_probe(),
            &abft_ok(),
            &simd_ok(),
            false,
        );
        let err = check_committed_artifact(&weak).unwrap_err();
        assert!(err.contains("below 1.5x the scalar lane"), "{err}");
        let strong_rows = vec![KernelBenchRow {
            blocked_gflops: 20.0,
            auto_gflops: 20.0,
            bf16_blocked_gflops: 20.0,
            ..rows[0].clone()
        }];
        let strong = kernels_json(
            &strong_rows,
            &ss,
            &probe(),
            &par_probe(),
            &abft_ok(),
            &simd_ok(),
            false,
        );
        check_committed_artifact(&strong).expect("avx2 floor satisfied");
    }

    #[test]
    fn gate_catches_dispatch_and_bf16_regressions() {
        let ss = SteadyState {
            warmup_steps: 1,
            steps: 1,
            step_ms: 1.0,
            scratch_reallocs_delta: 0,
            dispatch_blocked: 1,
            dispatch_naive: 1,
            dispatch_blocked_bf16: 1,
            dispatch_naive_bf16: 1,
        };
        // Dispatched path losing to naive at a non-calibration shape —
        // exactly the b0_mb_expand_1x1_56px failure mode the small-k
        // guard exists to prevent.
        let mut bad_auto = vec![
            row(CALIBRATION_LABEL, 1.0, 2.0, true),
            row("b0_mb_expand_1x1_56px", 10.0, 8.0, false),
        ];
        bad_auto[1].auto_gflops = 8.0; // routed blocked, which loses
        let err =
            check_kernel_regression(&bad_auto, &ss, &par_probe(), &abft_ok(), &simd_ok(), false)
                .unwrap_err();
        assert!(err.contains("b0_mb_expand_1x1_56px"), "{err}");
        bad_auto[1].auto_gflops = 9.9; // routed naive: within noise floor
        assert!(check_kernel_regression(
            &bad_auto,
            &ss,
            &par_probe(),
            &abft_ok(),
            &simd_ok(),
            false
        )
        .is_ok());

        // bf16 blocked below BF16_BLOCKED_FLOOR × f32 blocked at the
        // calibration shape, in a fresh measurement and in a committed
        // artifact alike.
        let slow_bf16 = vec![KernelBenchRow {
            bf16_blocked_gflops: 1.6,
            ..row(CALIBRATION_LABEL, 1.0, 2.0, true)
        }];
        let err =
            check_kernel_regression(&slow_bf16, &ss, &par_probe(), &abft_ok(), &simd_ok(), false)
                .unwrap_err();
        assert!(err.contains("bf16 blocked GEMM"), "{err}");
        let doc = kernels_json(
            &[KernelBenchRow {
                blocked_gflops: 20.0,
                auto_gflops: 20.0,
                bf16_blocked_gflops: 16.0,
                ..slow_bf16[0].clone()
            }],
            &ss,
            &probe(),
            &par_probe(),
            &abft_ok(),
            &simd_ok(),
            false,
        );
        let err = check_committed_artifact(&doc).unwrap_err();
        assert!(err.contains("bf16 blocked GEMM"), "{err}");
    }
}
