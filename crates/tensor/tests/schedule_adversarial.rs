//! Schedule-adversarial tier for the parallel packed GEMM: sweeps the
//! worker pool through {1, 2, 4, 8} threads, injects artificial
//! per-tile delays to force pathological interleavings (a worker
//! descheduled mid-panel, the caller draining the whole grid alone,
//! stragglers finishing long after the cursor empties), and asserts the
//! outputs are **bitwise identical** to the single-worker oracle across
//! every `GemmDesc` on the blocked kernel (orientation × accumulate ×
//! precision).
//!
//! The invariant under test is the repo's standing parallelism law: the
//! tile grid is a pure function of shape and each tile is single-owner
//! for its whole `k` reduction, so worker count and scheduling can
//! change wall time but never bits. Because the pool is process-global,
//! these tests are also robust to *each other* (and to any concurrently
//! running test that resizes the pool): every configuration must agree
//! bitwise, so interference cannot turn a pass into a flake.

mod common;

use common::{all_descs, bits, run, Operands};
use ets_tensor::ops::dispatch::GemmDesc;
use ets_tensor::ops::gemm_blocked::gemm_blocked;
use ets_tensor::{set_gemm_workers, set_tile_delay};

/// Restores a quiet pool configuration when a sweep finishes (also on
/// panic, so one failing sweep can't starve the rest of the binary).
struct Quiet;
impl Drop for Quiet {
    fn drop(&mut self) {
        set_tile_delay(0, 0);
        set_gemm_workers(1);
    }
}

const WORKER_SWEEP: &[usize] = &[1, 2, 4, 8];

/// (delay nanos, tile stride): no delay, every tile slowed, every 3rd
/// tile slowed (mixed-speed workers — the straggler interleaving).
const DELAY_SWEEP: &[(u64, u64)] = &[(0, 0), (50_000, 1), (200_000, 3)];

/// Multi-tile shapes: several row blocks × several column blocks (the
/// aliasing-prone grid), a single-row-block wide shape, a tall narrow
/// one, and one straddling block boundaries by ±1.
const SHAPES: &[(usize, usize, usize)] = &[
    (130, 150, 300), // 3×2 tile grid
    (65, 140, 513),  // 2×3 grid, one row past MC, one col past 2·NC
    (256, 96, 256),  // exact multiples
    (63, 130, 520),  // single row block, 3 col blocks
];

/// Runs every descriptor (orient × accumulate × precision) through the
/// blocked kernel at one shape, returning each output's bit pattern in
/// [`all_descs`] order.
fn run_all_descs(m: usize, k: usize, n: usize, seed: u64) -> Vec<Vec<u32>> {
    let ops = Operands::new(seed, m, k, n);
    all_descs(m, k, n)
        .into_iter()
        .map(|desc| bits(&run(gemm_blocked, desc, &ops)))
        .collect()
}

/// Panics naming the first descriptor whose bits differ from the oracle's.
fn assert_all_match(got: &[Vec<u32>], oracle: &[Vec<u32>], descs: &[GemmDesc], ctx: &str) {
    for (desc, (g, o)) in descs.iter().zip(got.iter().zip(oracle)) {
        assert_eq!(g, o, "{desc:?} diverged from the 1-worker oracle {ctx}");
    }
}

#[test]
fn every_descriptor_bitwise_stable_across_workers_and_delays() {
    let _quiet = Quiet;
    for (si, &(m, k, n)) in SHAPES.iter().enumerate() {
        let seed = 9000 + si as u64 * 10;
        set_tile_delay(0, 0);
        set_gemm_workers(1);
        let oracle = run_all_descs(m, k, n, seed);
        for &workers in WORKER_SWEEP {
            for &(nanos, stride) in DELAY_SWEEP {
                set_gemm_workers(workers);
                set_tile_delay(nanos, stride);
                let got = run_all_descs(m, k, n, seed);
                set_tile_delay(0, 0);
                let ctx = format!("with {workers} workers, delay ({nanos} ns / {stride})");
                assert_all_match(&got, &oracle, &all_descs(m, k, n), &ctx);
            }
        }
    }
}

/// Lane paths × worker counts: the SIMD micro-kernel layer must stay
/// bitwise-identical to the 1-worker scalar oracle under every
/// combination — lane width and scheduling are both pure throughput
/// knobs. (A lane path being forced here is process-global, like the
/// pool size; since all paths agree bitwise, concurrent tests cannot
/// turn this into a flake.)
#[test]
fn every_descriptor_bitwise_stable_across_lane_paths_and_workers() {
    use ets_tensor::ops::simd::{self, LanePath};
    let _quiet = Quiet;
    let (m, k, n) = (130, 150, 300); // 3×2 tile grid, clears parallel gate
    let seed = 9900;
    let oracle = {
        let _lane = simd::ForcedLaneGuard::new(LanePath::Scalar);
        set_tile_delay(0, 0);
        set_gemm_workers(1);
        run_all_descs(m, k, n, seed)
    };
    for path in LanePath::ALL {
        if !path.available() {
            continue;
        }
        let _lane = simd::ForcedLaneGuard::new(path);
        for &workers in WORKER_SWEEP {
            set_gemm_workers(workers);
            let got = run_all_descs(m, k, n, seed);
            let ctx = format!("on lane path {} with {workers} workers", path.name());
            assert_all_match(&got, &oracle, &all_descs(m, k, n), &ctx);
        }
        set_gemm_workers(1);
    }
}

/// Concurrent submitters (the trainer's replica threads) racing one
/// pool: every thread must still get bitwise-oracle results even while
/// losing the pool lock to its peers (inline-fallback path).
#[test]
fn concurrent_submitters_each_get_oracle_bits() {
    let _quiet = Quiet;
    let (m, k, n) = (130, 150, 300);
    set_tile_delay(0, 0);
    set_gemm_workers(1);
    let oracle = run_all_descs(m, k, n, 4242);
    set_gemm_workers(4);
    set_tile_delay(20_000, 2);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..3 {
                    let got = run_all_descs(m, k, n, 4242);
                    assert_eq!(got, oracle, "racing submitter diverged from oracle");
                }
            });
        }
    });
}
