//! Deterministic worker pool for the packed GEMM macro-kernel.
//!
//! The blocked GEMM divides its output into a static `(MC, NC)` tile
//! grid — a **pure function of the problem shape**, never of worker
//! count or timing (see `ops/gemm_blocked.rs`). Each tile is owned by
//! exactly one executor for its entire `k` reduction, so which thread
//! runs which tile is numerically irrelevant: the pool only has to
//! guarantee that every tile index in `0..n_tiles` runs **exactly
//! once**. That is the whole contract of [`run_tiles`], and it is what
//! lets the schedule-adversarial suite assert bitwise equality between
//! 1 worker and N workers under injected per-tile delays.
//!
//! # Shape of the pool
//!
//! - One process-global pool. It starts at one worker and is resized
//!   only by [`set_gemm_workers`], where the trainer's
//!   `Experiment.gemm_workers` lands. A worker count of `w` means `w - 1`
//!   helper threads plus the **calling thread**, which always
//!   participates — a 1-worker pool has no helpers and degenerates to a
//!   plain loop.
//! - Tiles are claimed dynamically from an atomic cursor. Dynamic
//!   *assignment* with static *division* is safe precisely because
//!   tiles are single-owner and mutually disjoint; a straggler worker
//!   changes wall time, never bits.
//! - Submission takes the pool lock with `try_lock`. Concurrent
//!   submitters (the trainer runs one replica per OS thread, each of
//!   which calls GEMMs) don't queue behind each other: the loser runs
//!   all of its tiles inline on its own thread — identical numerics,
//!   different wall time.
//! - Helpers use the same per-thread [`crate::scratch`] arena as every
//!   other thread, so steady-state tile execution is allocation-free
//!   per worker; each helper publishes its thread-local realloc tally
//!   after every job so a test can assert **zero on every worker**,
//!   not just the submitting thread.
//!
//! # Chaos hook
//!
//! [`set_tile_delay`] injects an artificial sleep before every
//! `stride`-th tile. It is always compiled (one relaxed atomic load per
//! job when disabled) so the schedule-adversarial tier can force
//! pathological interleavings — a worker descheduled mid-panel, the
//! caller finishing everything alone — in release builds, without a
//! test-only feature fork of the scheduling code it is probing.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on pool size; also the width of the per-worker stat arrays
/// (the obs registry needs a bounded set of static gauge names).
pub const MAX_WORKERS: usize = 16;

/// Tiles executed per stat slot (slot 0 = the submitting thread).
static WORKER_TILES: [AtomicU64; MAX_WORKERS] = [const { AtomicU64::new(0) }; MAX_WORKERS];
/// Busy nanoseconds per stat slot (claim-loop wall time).
static WORKER_BUSY_NS: [AtomicU64; MAX_WORKERS] = [const { AtomicU64::new(0) }; MAX_WORKERS];
/// Latest `scratch_reallocs_local()` snapshot per stat slot, published
/// after every job — the per-worker half of the zero-realloc contract.
static WORKER_REALLOCS: [AtomicU64; MAX_WORKERS] = [const { AtomicU64::new(0) }; MAX_WORKERS];

/// Chaos: nanoseconds to sleep before a delayed tile (0 = disabled).
static TILE_DELAY_NANOS: AtomicU64 = AtomicU64::new(0);
/// Chaos: delay every `stride`-th tile (0 = disabled).
static TILE_DELAY_STRIDE: AtomicU64 = AtomicU64::new(0);

/// Mirror of the configured worker count, readable without the pool
/// lock — the GEMM parallel predicate loads this once per call.
static CURRENT_WORKERS: AtomicUsize = AtomicUsize::new(1);

/// One in-flight job: an erased borrow of the tile closure plus the
/// claim cursor and completion latch. The closure borrow is only valid
/// while the submitting [`run_tiles`] frame is alive; the submitter
/// blocks until every participant has signalled `pending == 0`, so no
/// helper can touch `task` after the frame returns.
struct Job {
    task: TaskRef,
    n_tiles: usize,
    cursor: AtomicUsize,
    /// Participants (helpers) that have not yet finished their claim loop.
    pending: AtomicUsize,
    done: Mutex<bool>,
    cv: Condvar,
    panicked: AtomicBool,
}

/// Lifetime-erased reference to the tile closure. Safety: see [`Job`].
struct TaskRef(&'static (dyn Fn(usize) + Sync));
unsafe impl Send for TaskRef {}

struct Helper {
    tx: Sender<std::sync::Arc<Job>>,
    join: JoinHandle<()>,
}

struct PoolState {
    target: usize,
    helpers: Vec<Helper>,
}

struct Pool {
    state: Mutex<PoolState>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            target: 1,
            helpers: Vec::new(),
        }),
    })
}

/// Resolve a requested count: `0` = one worker per available core
/// (capped at [`MAX_WORKERS`]), `n` = exactly `n` (capped).
fn resolve(n: usize) -> usize {
    let n = if n == 0 { host_parallelism() } else { n };
    n.clamp(1, MAX_WORKERS)
}

/// The configured GEMM worker count (submitting thread included).
pub fn gemm_workers() -> usize {
    CURRENT_WORKERS.load(Ordering::Relaxed)
}

/// The host's hardware parallelism (1 if unknown).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Workers that can actually run concurrently: the configured pool size
/// clamped to the host's available cores. The pool itself keeps its
/// configured size (tests pin `worker_stats().len()` to it), but the GEMM
/// dispatch predicate uses this — on a 1-core host an oversubscribed pool
/// only adds per-tile repacking and scheduling overhead, and no speed,
/// so the tile grid must not engage there.
pub fn effective_workers() -> usize {
    gemm_workers().min(host_parallelism())
}

/// Reconfigure the pool to `n` workers (`0` = one per available core,
/// capped at [`MAX_WORKERS`]). Joins retired helpers before spawning
/// replacements, so no stale thread ever holds a claim cursor. Safe to
/// call at any time; GEMMs racing the resize either grab the old pool
/// or fall back to inline execution — bitwise identical either way.
pub fn set_gemm_workers(n: usize) {
    let target = resolve(n);
    let mut st = pool().state.lock().unwrap();
    if st.target == target {
        return;
    }
    for Helper { tx, join } in st.helpers.drain(..) {
        drop(tx); // disconnects the channel; the helper's recv loop ends
        let _ = join.join();
    }
    for slot in 1..target {
        let (tx, rx) = channel::<std::sync::Arc<Job>>();
        let join = std::thread::Builder::new()
            .name(format!("ets-gemm-{slot}"))
            .spawn(move || helper_main(slot, rx))
            .expect("spawn gemm worker");
        st.helpers.push(Helper { tx, join });
    }
    st.target = target;
    CURRENT_WORKERS.store(target, Ordering::Relaxed);
}

/// Inject an artificial sleep of `nanos` before every `stride`-th tile
/// (tiles whose index is a multiple of `stride`). `stride == 0` or
/// `nanos == 0` disables. Delays perturb *scheduling only*; the
/// schedule-adversarial suite asserts results are bitwise unchanged.
pub fn set_tile_delay(nanos: u64, stride: u64) {
    TILE_DELAY_NANOS.store(nanos, Ordering::Relaxed);
    TILE_DELAY_STRIDE.store(stride, Ordering::Relaxed);
}

/// Per-worker utilization counters (cumulative since process start or
/// the last [`reset_worker_stats`]). Slot 0 is the submitting thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStat {
    /// Wall seconds spent inside claim loops.
    pub busy_s: f64,
    /// Tiles executed.
    pub tiles: u64,
    /// Latest `scratch_reallocs_local()` snapshot of that worker thread.
    pub scratch_reallocs: u64,
}

/// Snapshot the per-slot utilization counters for the currently
/// configured pool (slots `0..gemm_workers()`).
pub fn worker_stats() -> Vec<WorkerStat> {
    let n = gemm_workers().min(MAX_WORKERS);
    (0..n)
        .map(|i| WorkerStat {
            busy_s: WORKER_BUSY_NS[i].load(Ordering::Relaxed) as f64 * 1e-9,
            tiles: WORKER_TILES[i].load(Ordering::Relaxed),
            scratch_reallocs: WORKER_REALLOCS[i].load(Ordering::Relaxed),
        })
        .collect()
}

/// Zero the busy/tile tallies (realloc snapshots are absolute
/// thread-local counters and are left alone).
pub fn reset_worker_stats() {
    for i in 0..MAX_WORKERS {
        WORKER_TILES[i].store(0, Ordering::Relaxed);
        WORKER_BUSY_NS[i].store(0, Ordering::Relaxed);
    }
}

#[inline]
fn chaos_delay(tile: usize) {
    let stride = TILE_DELAY_STRIDE.load(Ordering::Relaxed);
    if stride == 0 {
        return;
    }
    let nanos = TILE_DELAY_NANOS.load(Ordering::Relaxed);
    if nanos > 0 && (tile as u64).is_multiple_of(stride) {
        std::thread::sleep(Duration::from_nanos(nanos));
    }
}

/// Claim-and-run loop shared by helpers and the submitting thread.
fn run_claims(job: &Job, slot: usize) {
    let t0 = Instant::now();
    let mut tiles = 0u64;
    loop {
        let tile = job.cursor.fetch_add(1, Ordering::Relaxed);
        if tile >= job.n_tiles {
            break;
        }
        chaos_delay(tile);
        (job.task.0)(tile);
        tiles += 1;
    }
    let s = slot.min(MAX_WORKERS - 1);
    WORKER_TILES[s].fetch_add(tiles, Ordering::Relaxed);
    WORKER_BUSY_NS[s].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    WORKER_REALLOCS[s].store(crate::scratch::scratch_reallocs_local(), Ordering::Relaxed);
}

fn finish(job: &Job) {
    if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        let mut done = job.done.lock().unwrap();
        *done = true;
        job.cv.notify_all();
    }
}

fn helper_main(slot: usize, rx: Receiver<std::sync::Arc<Job>>) {
    for job in rx.iter() {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_claims(&job, slot)));
        if r.is_err() {
            job.panicked.store(true, Ordering::Relaxed);
        }
        finish(&job);
    }
}

/// Execute `task(tile)` exactly once for every `tile in 0..n_tiles`,
/// fanned out over the configured pool with the calling thread
/// participating. Blocks until every tile has run **and** every helper
/// has left its claim loop (so the `task` borrow never outlives this
/// frame). Falls back to a plain inline loop when the pool is
/// single-worker or another submitter holds it — the tile set and
/// per-tile numerics don't depend on who executes what, so every path
/// yields bitwise-identical results.
pub fn run_tiles(n_tiles: usize, task: &(dyn Fn(usize) + Sync)) {
    if n_tiles == 0 {
        return;
    }
    let guard = match pool().state.try_lock() {
        Ok(g) if !g.helpers.is_empty() => g,
        // Single-worker pool, or a concurrent submitter owns the
        // helpers: run everything inline on this thread.
        _ => {
            let t0 = Instant::now();
            for tile in 0..n_tiles {
                chaos_delay(tile);
                task(tile);
            }
            WORKER_TILES[0].fetch_add(n_tiles as u64, Ordering::Relaxed);
            WORKER_BUSY_NS[0].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            WORKER_REALLOCS[0].store(crate::scratch::scratch_reallocs_local(), Ordering::Relaxed);
            return;
        }
    };
    // SAFETY: the erased 'static borrow is only reachable through `job`,
    // and this frame blocks on the completion latch below until every
    // helper has finished with it — even if the caller's own claim loop
    // panics (we re-raise only after the latch).
    let task_ref = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
    };
    let job = std::sync::Arc::new(Job {
        task: TaskRef(task_ref),
        n_tiles,
        cursor: AtomicUsize::new(0),
        pending: AtomicUsize::new(0),
        done: Mutex::new(false),
        cv: Condvar::new(),
        panicked: AtomicBool::new(false),
    });
    let mut participants = 0usize;
    for h in &guard.helpers {
        job.pending.fetch_add(1, Ordering::Relaxed);
        if h.tx.send(job.clone()).is_ok() {
            participants += 1;
        } else {
            job.pending.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_claims(&job, 0)));
    if participants > 0 {
        let mut done = job.done.lock().unwrap();
        while !*done {
            done = job.cv.wait(done).unwrap();
        }
    }
    drop(guard);
    if let Err(p) = own {
        std::panic::resume_unwind(p);
    }
    assert!(
        !job.panicked.load(Ordering::Relaxed),
        "a gemm worker panicked while executing a tile"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU8;

    /// The pool is process-global, so tests that resize it take turns.
    static POOL_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Restores the ambient pool configuration on drop so tests that
    /// resize the global pool can't leak their setting into others.
    struct PoolGuard(
        usize,
        #[allow(dead_code)] std::sync::MutexGuard<'static, ()>,
    );
    impl PoolGuard {
        fn set(n: usize) -> Self {
            let turn = POOL_TESTS.lock().unwrap_or_else(|e| e.into_inner());
            let prev = gemm_workers();
            set_gemm_workers(n);
            PoolGuard(prev, turn)
        }
    }
    impl Drop for PoolGuard {
        fn drop(&mut self) {
            set_tile_delay(0, 0);
            set_gemm_workers(self.0);
        }
    }

    fn assert_each_tile_exactly_once(n_tiles: usize) {
        let hits: Vec<AtomicU8> = (0..n_tiles).map(|_| AtomicU8::new(0)).collect();
        run_tiles(n_tiles, &|t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        for (t, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "tile {t} hit count");
        }
    }

    #[test]
    fn every_tile_runs_exactly_once_across_pool_sizes() {
        for workers in [1, 2, 4, 8] {
            let _g = PoolGuard::set(workers);
            for n_tiles in [0, 1, 2, 7, 64, 257] {
                assert_each_tile_exactly_once(n_tiles);
            }
        }
    }

    #[test]
    fn delays_cannot_double_or_drop_tiles() {
        let _g = PoolGuard::set(4);
        set_tile_delay(200_000, 3); // 0.2 ms before every 3rd tile
        for _ in 0..5 {
            assert_each_tile_exactly_once(37);
        }
    }

    #[test]
    fn concurrent_submitters_never_deadlock_or_lose_tiles() {
        let _g = PoolGuard::set(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        assert_each_tile_exactly_once(33);
                    }
                });
            }
        });
    }

    #[test]
    fn worker_count_resolves_auto_and_caps() {
        assert_eq!(resolve(1), 1);
        assert_eq!(resolve(MAX_WORKERS + 5), MAX_WORKERS);
        assert!(resolve(0) >= 1);
    }

    #[test]
    fn stats_track_tiles_and_publish_reallocs() {
        let _g = PoolGuard::set(2);
        let job = || {
            run_tiles(16, &|_| {
                let s = crate::scratch::scratch_f32(64);
                assert_eq!(s.len(), 64);
                std::thread::sleep(Duration::from_micros(50));
            })
        };
        // Tiles are claimed dynamically, so one job need not reach every
        // worker: after a reset, repeat it until each has run a tile.
        let until_every_worker_ran = || {
            reset_worker_stats();
            job();
            let stats = worker_stats();
            assert_eq!(stats.len(), 2);
            let total: u64 = stats.iter().map(|s| s.tiles).sum();
            assert_eq!(total, 16, "all tiles accounted to some worker");
            for _ in 0..1000 {
                let stats = worker_stats();
                if stats.iter().all(|s| s.tiles > 0) {
                    return stats;
                }
                job();
            }
            panic!("a worker never ran a tile");
        };
        let warm = until_every_worker_ran();
        let steady = until_every_worker_ran();
        for (w, (a, b)) in warm.iter().zip(&steady).enumerate() {
            assert_eq!(
                b.scratch_reallocs, a.scratch_reallocs,
                "worker {w}: scratch arena grew after warmup"
            );
        }
    }
}
