//! Per-thread scratch arena for the compute kernels.
//!
//! Every hot kernel in this crate (packed GEMM panels, the conv
//! kernels' patch and fold/unfold buffers, depthwise phase planes) needs
//! short-lived buffers of layer-dependent sizes. Allocating them per
//! call puts the allocator in the middle of every training step; the
//! arena instead keeps a small
//! per-thread pool of reusable buffers, so steady-state steps touch the
//! allocator **zero** times once the first step has warmed every worker
//! thread up.
//!
//! # Model
//!
//! - [`scratch_elems`] checks a buffer out of the calling thread's pool
//!   for any [`PoolElem`] element type (`f32` for the classic kernels,
//!   [`Bf16`] for the mixed-precision packed panels — stored at 2×
//!   density) and returns a [`ScratchVec`] guard; dropping the guard
//!   checks it back in. Contents are **unspecified** (stale data from
//!   earlier checkouts) — kernels zero the slots they don't fully
//!   overwrite (the packing routines do exactly that for their padded
//!   tails).
//! - Checkout picks the smallest pooled buffer whose capacity fits, so a
//!   thread serving several layer shapes converges on one buffer per
//!   "size class" instead of growing a single buffer forever. Each
//!   element type has its own pool — an `f32` checkout can never hand
//!   back a buffer another kernel is using as `Bf16` panels.
//! - Any allocation or growth increments the global
//!   [`scratch_reallocs`] self-check counter (the `scratch_reallocs`
//!   idiom from `ets-collective`'s `CommHandle` and `ets-obs`'s event
//!   arena), regardless of element type. Tests snapshot the counter
//!   after a warmup step and pin the delta to 0 over subsequent steps.
//!
//! # Why thread-local
//!
//! The trainer runs one OS thread per replica and the kernels fan work
//! out to rayon workers; both kinds of thread simply get their own pool,
//! so checkout/checkin never takes a lock and buffers never migrate
//! between concurrently running kernels. A guard that *is* dropped on a
//! different thread (e.g. a per-worker partial collected and reduced on
//! the caller) just checks into that thread's pool — correct, merely a
//! one-off rebalance.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::bf16::Bf16;

/// Pool capacity per thread **per element type**: checked-in buffers
/// beyond this are dropped. Generous — a training step needs at most a
/// handful of concurrently live scratch buffers per thread (packed A,
/// packed B panel, patch matrix, folded `dY` / `dB`).
const POOL_MAX_BUFFERS: usize = 32;

/// Total number of times any thread's pool had to allocate a new buffer
/// or grow an existing one. Warmup allocations count; steady state must
/// keep the counter flat.
static SCRATCH_REALLOCS: AtomicU64 = AtomicU64::new(0);
/// Total checkouts (cheap liveness signal for the obs registry).
static SCRATCH_CHECKOUTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static POOL_F32: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    static POOL_BF16: RefCell<Vec<Vec<Bf16>>> = const { RefCell::new(Vec::new()) };
    /// Per-thread realloc tally. Tests that pin steady state to zero use
    /// this (immune to other test threads churning the global counter);
    /// the global atomics remain the process-wide number the obs registry
    /// exports.
    static THREAD_REALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// An element type the scratch arena can pool. Implemented for `f32`
/// (classic kernels) and [`Bf16`] (mixed-precision packed panels).
pub trait PoolElem: Copy + Default + Send + Sync + 'static {
    #[doc(hidden)]
    fn with_pool<R>(f: impl FnOnce(&mut Vec<Vec<Self>>) -> R) -> R;
}

impl PoolElem for f32 {
    fn with_pool<R>(f: impl FnOnce(&mut Vec<Vec<f32>>) -> R) -> R {
        POOL_F32.with(|p| f(&mut p.borrow_mut()))
    }
}

impl PoolElem for Bf16 {
    fn with_pool<R>(f: impl FnOnce(&mut Vec<Vec<Bf16>>) -> R) -> R {
        POOL_BF16.with(|p| f(&mut p.borrow_mut()))
    }
}

/// Times the arena hit the allocator (fresh buffer or growth) since
/// process start / the last [`reset_scratch_counters`]. Process-wide,
/// summed over every element type's pools.
pub fn scratch_reallocs() -> u64 {
    SCRATCH_REALLOCS.load(Ordering::Relaxed)
}

/// Total buffer checkouts. Process-wide.
pub fn scratch_checkouts() -> u64 {
    SCRATCH_CHECKOUTS.load(Ordering::Relaxed)
}

/// Reset both global counters to zero (tests; benches between phases).
pub fn reset_scratch_counters() {
    SCRATCH_REALLOCS.store(0, Ordering::Relaxed);
    SCRATCH_CHECKOUTS.store(0, Ordering::Relaxed);
}

/// Reallocs charged to the **calling thread** only. Strict steady-state
/// assertions use this so concurrently running tests (which share the
/// global counter) cannot perturb them.
pub fn scratch_reallocs_local() -> u64 {
    THREAD_REALLOCS.with(|c| c.get())
}

/// A checked-out scratch buffer; `Deref`s to `[T]` of exactly the
/// requested length. Returned to the dropping thread's pool on drop.
pub struct ScratchVec<T: PoolElem = f32> {
    buf: Vec<T>,
    len: usize,
}

impl<T: PoolElem> ScratchVec<T> {
    /// The requested length (the guard may own more capacity).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: PoolElem> std::ops::Deref for ScratchVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        &self.buf[..self.len]
    }
}

impl<T: PoolElem> std::ops::DerefMut for ScratchVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[..self.len]
    }
}

impl<T: PoolElem> Drop for ScratchVec<T> {
    fn drop(&mut self) {
        if self.buf.capacity() == 0 {
            return;
        }
        let buf = std::mem::take(&mut self.buf);
        T::with_pool(|pool| {
            if pool.len() < POOL_MAX_BUFFERS {
                pool.push(buf);
            }
            // else: drop; the pool is full and this thread clearly churns
            // through more distinct buffers than steady state needs.
        });
    }
}

/// Check a buffer of `len` elements out of the calling thread's pool for
/// element type `T`. Contents are unspecified; every slot is a previously
/// written finite or stale value (never uninitialized memory). Kernels
/// must fully overwrite the slots they read back.
pub fn scratch_elems<T: PoolElem>(len: usize) -> ScratchVec<T> {
    SCRATCH_CHECKOUTS.fetch_add(1, Ordering::Relaxed);
    if len == 0 {
        return ScratchVec {
            buf: Vec::new(),
            len: 0,
        };
    }
    let buf = T::with_pool(|pool| {
        // Best fit: smallest capacity >= len.
        let mut best: Option<(usize, usize)> = None; // (idx, cap)
        for (i, b) in pool.iter().enumerate() {
            let cap = b.capacity();
            if cap >= len && best.map(|(_, c)| cap < c).unwrap_or(true) {
                best = Some((i, cap));
            }
        }
        match best {
            Some((i, _)) => Some(pool.swap_remove(i)),
            None => {
                // Nothing fits: grow the largest pooled buffer (cheapest
                // path to a pool that eventually fits every size class).
                let mut largest: Option<(usize, usize)> = None;
                for (i, b) in pool.iter().enumerate() {
                    let cap = b.capacity();
                    if largest.map(|(_, c)| cap > c).unwrap_or(true) {
                        largest = Some((i, cap));
                    }
                }
                largest.map(|(i, _)| pool.swap_remove(i))
            }
        }
    });
    let mut buf = buf.unwrap_or_default();
    if buf.capacity() < len {
        SCRATCH_REALLOCS.fetch_add(1, Ordering::Relaxed);
        THREAD_REALLOCS.with(|c| c.set(c.get() + 1));
    }
    // Keep the vec's len == its initialized extent so stale contents are
    // plain safe values; only ever grow it.
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    ScratchVec { buf, len }
}

/// Check an `f32` buffer of `len` floats out of the calling thread's pool.
pub fn scratch_f32(len: usize) -> ScratchVec<f32> {
    scratch_elems::<f32>(len)
}

/// Check a [`Bf16`] buffer of `len` elements out of the calling thread's
/// pool (half the bytes of the same-length `f32` checkout — the 2×
/// panel-density win of the mixed-precision packed kernels).
pub fn scratch_bf16(len: usize) -> ScratchVec<Bf16> {
    scratch_elems::<Bf16>(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_reuse_never_reallocates() {
        // Warm up a couple of size classes…
        {
            let _a = scratch_f32(1024);
            let _b = scratch_f32(4096);
        }
        let warm = scratch_reallocs_local();
        // …then steady-state checkouts of the same sizes stay flat.
        for _ in 0..100 {
            let a = scratch_f32(1024);
            let b = scratch_f32(4096);
            assert_eq!(a.len(), 1024);
            assert_eq!(b.len(), 4096);
        }
        assert_eq!(
            scratch_reallocs_local(),
            warm,
            "steady-state scratch checkouts must not touch the allocator"
        );
    }

    #[test]
    fn growth_is_counted() {
        {
            let _a = scratch_f32(16);
        }
        let before = scratch_reallocs_local();
        {
            // A strictly larger request than anything pooled must grow.
            let _b = scratch_f32(1 << 22);
        }
        assert!(scratch_reallocs_local() > before, "growth must be tallied");
        assert!(scratch_reallocs() >= scratch_reallocs_local());
    }

    #[test]
    fn zero_len_checkout_is_inert() {
        let before = scratch_reallocs_local();
        let s = scratch_f32(0);
        assert!(s.is_empty());
        drop(s);
        assert_eq!(scratch_reallocs_local(), before);
    }

    #[test]
    fn smaller_request_reuses_larger_buffer() {
        {
            let _a = scratch_f32(8192);
        }
        let before = scratch_reallocs_local();
        {
            let s = scratch_f32(100);
            assert_eq!(s.len(), 100);
        }
        assert_eq!(scratch_reallocs_local(), before);
    }

    #[test]
    fn bf16_pool_is_separate_and_steady_state_flat() {
        // Warm both pools at the same element count…
        {
            let _f = scratch_f32(2048);
            let _b = scratch_bf16(2048);
        }
        let warm = scratch_reallocs_local();
        // …then same-size checkouts of either type stay allocation-free:
        // the pools are per-type, so neither checkout can steal (and
        // shrink below fit) the other's buffer.
        for _ in 0..50 {
            let f = scratch_f32(2048);
            let b = scratch_bf16(2048);
            assert_eq!(f.len(), 2048);
            assert_eq!(b.len(), 2048);
        }
        assert_eq!(
            scratch_reallocs_local(),
            warm,
            "per-type pools must keep steady state allocation-free"
        );
    }
}
