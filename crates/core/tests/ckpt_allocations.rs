//! A checkpoint costs one snapshot over all ranks and no file-sized
//! buffer: each rank captures only the weights and optimizer state of
//! the parameters it owns, its share, so the world's shares add up to
//! one snapshot. A save streams the file assembled from the shares to
//! disk and a load its decoding from disk through a fixed buffer, and
//! at a cadence step one capture serves both the durable save and the
//! rewind anchor, taken after the old anchor is released and the
//! rank's previous share is on disk.
//!
//! A phase keeps one set of weights however many replicas it runs: a
//! `train()` at world 2 or 3 allocates each parameter's weight buffer
//! once, next to one gradient buffer per replica; a weight copy per
//! replica would make it two buffers per replica.
//!
//! A test binary of its own, because it counts through a global
//! allocator: the largest block per thread, live bytes and their
//! high-water mark over the whole process, and the allocations of a few
//! watched sizes. The tests take [`SERIAL`], so one test's allocations
//! never show in another's counts.

use ets_collective::{FaultEvent, FaultKind, FaultPlan};
use ets_efficientnet::{EfficientNet, ModelConfig};
use ets_nn::{Layer, Precision};
use ets_optim::{Optimizer, RmsProp};
use ets_tensor::Rng;
use ets_train::{train, CkptStore, DurableSnapshot, Experiment, Progress};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The smallest block the tests call large, and the slack they allow.
const MIB: usize = 1 << 20;

static SERIAL: Mutex<()> = Mutex::new(());

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The largest request this thread made since [`largest_block`] last
    /// read it.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Byte sizes whose allocations are counted (0: none), and the counts.
static WATCHED: [AtomicUsize; 3] = [const { AtomicUsize::new(0) }; 3];
static ALLOCATED: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];

fn grew(from: usize, to: usize) {
    LARGEST.with(|n| n.set(n.get().max(to)));
    for (size, n) in WATCHED.iter().zip(&ALLOCATED) {
        if to > 0 && size.load(Ordering::Relaxed) == to {
            n.fetch_add(1, Ordering::Relaxed);
        }
    }
    if to >= from {
        let live = LIVE.fetch_add(to - from, Ordering::Relaxed) + (to - from);
        PEAK.fetch_max(live, Ordering::Relaxed);
    } else {
        LIVE.fetch_sub(from - to, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics and
// plain thread-local cells that neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(0, layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grew(layout.size(), 0);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(layout.size(), new_size);
        // SAFETY: as for `dealloc`, plus the caller's guarantee on
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Starts a high-water mark at the live bytes of now, which it returns.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The largest block this thread asked for since the last call.
fn largest_block() -> usize {
    LARGEST.with(|n| n.replace(0))
}

/// perfbench's `guarded_chaos_2x` model (EfficientNet at width and depth
/// 0.5, 8 classes) on 16 px images instead of 32: the same parameters,
/// so the same snapshot, at a quarter of the compute.
fn chaos_model() -> ModelConfig {
    ModelConfig {
        width_mult: 0.5,
        depth_mult: 0.5,
        ..ModelConfig::tiny(16, 8)
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ets-ckpt-alloc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `guarded_chaos_2x` state at `step`: the model and RMSProp's two
/// slots, sized by one step.
fn chaos_snapshot(step: u64) -> DurableSnapshot {
    let mut rng = Rng::new(5);
    let mut model = EfficientNet::new(chaos_model(), Precision::F32, &mut rng);
    let mut opt = RmsProp::efficientnet_default();
    opt.step(&mut model, 0.0);
    let progress = Progress {
        step,
        ..Progress::fresh()
    };
    DurableSnapshot::capture(&mut model, &opt, 0..usize::MAX, None, &progress, 2, &[])
}

/// Bytes of the chaos snapshot's file (`train.ckpt.bytes`).
const CHAOS_FILE: usize = 8_009_118;

#[test]
fn a_save_and_a_load_of_the_chaos_snapshot_make_no_file_sized_allocation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch_dir("save");
    let store = CkptStore::open(&dir, 2).unwrap();
    store.save(&chaos_snapshot(4)).unwrap();
    let snap = chaos_snapshot(8);
    // The largest array of the snapshot: a load allocates each one.
    let params = snap.params.iter().map(|t| &t.bits);
    let arrays = params.chain(&snap.opt_state.banks);
    let largest_array = arrays.map(|a| 4 * a.len()).max().unwrap();
    largest_block();
    let path = store.save(&snap).unwrap();
    let save = largest_block();
    assert!(save < MIB, "a save allocated a block of {save} B");
    assert_eq!(std::fs::metadata(path).unwrap().len(), CHAOS_FILE as u64);
    let (back, _) = store.load_latest_valid().unwrap().unwrap();
    let load = largest_block();
    // Each array, or the decoder's 256 KiB chunk.
    assert!(
        load <= largest_array.max(MIB / 4),
        "a load allocated a block of {load} B; the largest array is {largest_array} B"
    );
    assert_eq!(back, snap);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two replicas of the chaos model: 8 steps of one epoch, with a
/// preemption, the divergence guard and a checkpoint every 2 steps or
/// with none of them. Returns the high-water mark of live bytes the run
/// added.
fn run(checkpoints: bool) -> (usize, ets_train::TrainReport) {
    let mut e = Experiment {
        replicas: 2,
        per_replica_batch: 2,
        resolution: 16,
        num_classes: 8,
        model: chaos_model(),
        epochs: 1,
        train_samples: 32,
        eval_samples: 4,
        ..Experiment::proxy_default()
    };
    if checkpoints {
        e.nan_guard = true;
        e.faults = FaultPlan {
            events: vec![FaultEvent {
                at_s: 5.5,
                duration_s: 0.0,
                kind: FaultKind::Preempt { replica: 0 },
            }],
            virtual_step_seconds: 1.0,
            checkpoint_every_steps: 2,
            ..FaultPlan::none()
        };
    }
    let start = reset_peak();
    let report = train(&e);
    (PEAK.load(Ordering::Relaxed) - start, report)
}

#[test]
fn checkpoints_raise_the_high_water_mark_by_one_snapshot() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // What the anchors hold: each rank's share, its weights and
    // optimizer state and no other rank's, also what the feeder writes
    // the file from.
    let snapshot = chaos_snapshot(0).to_bytes().len();
    assert_eq!(snapshot, CHAOS_FILE);
    let (plain, clean) = run(false);
    let (guarded, report) = run(true);
    let c = report.fault_recovery;
    assert_eq!((c.preemptions, c.replayed_steps), (1, 1));
    // Steps 0, 2, 4 and 6 of the 8, plus step 4 again after the replay.
    assert_eq!((c.durable_checkpoints, c.checkpoints_taken), (5, 5));
    assert_eq!(report.weight_checksum, clean.weight_checksum);
    let bound = snapshot + MIB;
    assert!(
        guarded <= plain + bound,
        "high-water mark {guarded} B with checkpoints, {plain} B without: \
         {} B more than the {bound} B a {snapshot} B snapshot and 1 MiB allow",
        guarded - plain - bound
    );
}

#[test]
fn a_run_allocates_each_weight_once_and_a_gradient_per_replica() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // 4 steps per epoch, 2 epochs, no faults: one phase.
    let run = |world: usize| Experiment {
        replicas: world,
        per_replica_batch: 4,
        epochs: 2,
        train_samples: 16 * world,
        eval_samples: 16,
        ..Experiment::proxy_default()
    };
    // The largest sizes that one parameter alone has; no other buffer of
    // these runs has them either.
    let e = run(1);
    let mut model = EfficientNet::new(e.model.clone(), e.precision, &mut Rng::new(1));
    let mut sizes = Vec::new();
    model.visit_params(&mut |p| sizes.push(p.numel() * 4));
    let mut largest: Vec<usize> = sizes
        .iter()
        .copied()
        .filter(|s| sizes.iter().filter(|&t| t == s).count() == 1)
        .collect();
    largest.sort_unstable();
    let largest = &largest[largest.len() - WATCHED.len()..];
    for (watched, &size) in WATCHED.iter().zip(largest) {
        watched.store(size, Ordering::Relaxed);
    }
    for world in [1, 2, 3] {
        ALLOCATED.iter().for_each(|n| n.store(0, Ordering::Relaxed));
        assert_eq!(train(&run(world)).final_world, world);
        for (n, &size) in ALLOCATED.iter().zip(largest) {
            assert_eq!(
                n.load(Ordering::Relaxed),
                world as u64 + 1,
                "world {world}: buffers of {size} B (one weight, a gradient per replica)"
            );
        }
    }
    WATCHED.iter().for_each(|w| w.store(0, Ordering::Relaxed));
}
