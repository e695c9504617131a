//! The gradient exchange's steady state allocates nothing, fingerprints
//! on or off, with or without injected failures: the buckets are reduced
//! in place in the gradients, and the communicator's slots, the pre-reduce
//! snapshot and the gathered fingerprint records are all persistent.
//!
//! A test binary of its own, because it counts through a global
//! allocator (per thread, so the peer rank's warm-up does not show).

use ets_collective::{create_collective, Backend, Collective, FaultEvent, FaultKind, FaultPlan};
use ets_efficientnet::{EfficientNet, ModelConfig};
use ets_nn::{Layer, Precision};
use ets_tensor::Rng;
use ets_train::{GradBucket, RecoveryCounters};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::thread;

thread_local! {
    /// Allocations and reallocations made by this thread. No destructor,
    /// so the allocator may touch it at any point of a thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local cell that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, plus the caller's guarantee on
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this rank makes in its second and third exchange; with
/// `transients`, a plan fails the first attempt of each of the three steps.
fn steady_state_allocations(comm: Box<dyn Collective>, fingerprint: bool, transients: bool) -> u64 {
    let mut rng = Rng::new(7);
    let mut model = EfficientNet::new(ModelConfig::tiny(16, 4), Precision::F32, &mut rng);
    let rank = comm.rank() as f32;
    model.visit_params(&mut |p| p.grad.data_mut().fill(0.25 + rank));
    // Several buckets, the last one shorter.
    let mut bucket = GradBucket::with_bucket_elems(&mut model, 1000);
    assert!(bucket.num_buckets() > 2);
    bucket.set_fingerprint_verify(fingerprint, 1);
    if transients {
        let events = (0..3)
            .map(|step| FaultEvent {
                at_s: step as f64,
                duration_s: 0.0,
                kind: FaultKind::TransientCollective { failures: 1 },
            })
            .collect();
        let plan = FaultPlan {
            events,
            ..FaultPlan::default()
        };
        bucket.set_faults(Arc::new(plan.compile(3)));
    }
    let mut counters = RecoveryCounters::default();
    let mut step = |bucket: &mut GradBucket, at: u64| {
        bucket.set_step(at);
        bucket
            .all_reduce_with_retry(&mut model, comm.as_ref(), 1.0, &mut counters)
            .expect("exchange succeeds");
    };
    step(&mut bucket, 0);
    let before = ALLOCATIONS.get();
    step(&mut bucket, 1);
    step(&mut bucket, 2);
    let allocations = ALLOCATIONS.get() - before;
    assert_eq!(counters.collective_retries, 3 * u64::from(transients));
    allocations
}

#[test]
fn second_step_of_an_exchange_allocates_nothing() {
    for (fingerprint, transients) in [(false, false), (true, false), (false, true)] {
        let joins: Vec<_> = create_collective(Backend::Tree, 2)
            .into_iter()
            .map(|comm| {
                thread::spawn(move || steady_state_allocations(comm, fingerprint, transients))
            })
            .collect();
        for (rank, j) in joins.into_iter().enumerate() {
            let allocations = j.join().unwrap();
            let what = format!("rank {rank}, fingerprints {fingerprint}, transients {transients}");
            assert_eq!(allocations, 0, "{what}");
        }
    }
}
