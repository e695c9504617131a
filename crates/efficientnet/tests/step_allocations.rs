//! A steady-state training step of the `wide_lars_2x` model allocates
//! only activation-sized buffers: every conv and depthwise layer writes
//! its weight gradient straight into `Param.grad`, so no weight-sized
//! temporary is allocated, zeroed and added per call.
//!
//! A test binary of its own, because it counts through a global
//! allocator (per thread, so nothing else the harness runs shows).

use ets_efficientnet::{EfficientNet, ModelConfig};
use ets_nn::{cross_entropy, param_count, zero_grads, Layer, Mode, Precision};
use ets_tensor::{Rng, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The smallest block the test calls large.
const MIB: usize = 1 << 20;

thread_local! {
    /// Bytes this thread asked for, through `alloc` or `realloc`.
    static BYTES: Cell<usize> = const { Cell::new(0) };
    /// Of those requests, the ones of at least [`MIB`] bytes.
    static LARGE: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    BYTES.with(|b| b.set(b.get() + size));
    if size >= MIB {
        LARGE.with(|n| n.set(n.get() + 1));
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local cells that neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`, plus the caller's guarantee on
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_steady_state_step_allocates_no_weight_sized_block() {
    // perfbench's `wide_lars_2x` model at its per-replica batch of one.
    let config = ModelConfig {
        width_mult: 1.5,
        depth_mult: 0.2,
        ..ModelConfig::tiny(8, 8)
    };
    let mut rng = Rng::new(3);
    let mut model = EfficientNet::new(config, Precision::F32, &mut rng);
    let param_bytes = param_count(&mut model) * 4;
    let mut x = Tensor::zeros([1, 3, 8, 8]);
    rng.fill_uniform(x.data_mut(), -1.0, 1.0);
    let mut step = |rng: &mut Rng| {
        zero_grads(&mut model);
        let logits = model.forward(&x, Mode::Train, rng);
        let out = cross_entropy(&logits, &[5], 0.1);
        model.backward(&out.dlogits);
    };
    step(&mut rng);
    step(&mut rng);
    let (bytes, large) = (BYTES.get(), LARGE.get());
    step(&mut rng);
    let (bytes, large) = (BYTES.get() - bytes, LARGE.get() - large);
    assert_eq!(large, 0, "{large} allocations of 1 MiB or more in one step");
    assert!(
        bytes < param_bytes,
        "one step allocated {bytes} bytes; the model's parameters are {param_bytes}"
    );
}
