//! Per-thread scratch arena for the compute kernels.
//!
//! Every hot kernel in this crate (packed GEMM panels, the conv
//! kernels' patch and fold/unfold buffers, depthwise phase planes) needs
//! short-lived buffers of layer-dependent sizes. Allocating them per
//! call puts the allocator in the middle of every training step; the
//! arena instead keeps a small
//! per-thread pool of reusable buffers, so steady-state steps touch the
//! allocator **zero** times once the first step has warmed every replica
//! thread up.
//!
//! # Model
//!
//! - [`scratch_f32`] checks an `f32` buffer out of the calling thread's
//!   pool (every kernel transient is `f32`, mixed-precision GEMM panels
//!   included: they hold bf16-rounded values) and returns a
//!   [`ScratchVec`] guard; dropping the guard checks it back in.
//!   Contents are **unspecified** (stale data from earlier checkouts) —
//!   kernels zero the slots they don't fully overwrite (the packing
//!   routines do exactly that for their padded tails).
//! - Checkout picks the smallest pooled buffer whose capacity fits, so a
//!   thread serving several layer shapes converges on one buffer per
//!   "size class" instead of growing a single buffer forever.
//! - Any allocation or growth increments the global
//!   [`scratch_reallocs`] self-check counter (the `scratch_reallocs`
//!   idiom from `ets-collective`'s `CommHandle` and `ets-obs`'s event
//!   arena). Tests snapshot the counter after a warmup step and pin the
//!   delta to 0 over subsequent steps.
//!
//! # Why thread-local
//!
//! The trainer runs one OS thread per replica, and every kernel runs on
//! its caller's thread; each replica thread simply gets its own pool, so
//! checkout/checkin never takes a lock and buffers never migrate between
//! concurrently running kernels. A guard that *is* dropped on a
//! different thread just checks into that thread's pool — correct,
//! merely a one-off rebalance.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pool capacity per thread: checked-in buffers beyond this are
/// dropped. Generous — a training step needs at most a
/// handful of concurrently live scratch buffers per thread (packed A,
/// packed B panel, patch matrix, folded `dY` / `dB`).
const POOL_MAX_BUFFERS: usize = 32;

/// Total number of times any thread's pool had to allocate a new buffer
/// or grow an existing one. Warmup allocations count; steady state must
/// keep the counter flat.
static SCRATCH_REALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    /// Per-thread realloc tally. Tests that pin steady state to zero use
    /// this (immune to other test threads churning the global counter);
    /// the global atomic remains the process-wide number perfbench
    /// reads.
    static THREAD_REALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Times the arena hit the allocator (fresh buffer or growth) since
/// process start / the last [`reset_scratch_counters`]. Process-wide.
pub fn scratch_reallocs() -> u64 {
    SCRATCH_REALLOCS.load(Ordering::Relaxed)
}

/// Reset the global realloc counter to zero.
pub fn reset_scratch_counters() {
    SCRATCH_REALLOCS.store(0, Ordering::Relaxed);
}

/// Reallocs charged to the **calling thread** only. Strict steady-state
/// assertions use this so concurrently running tests (which share the
/// global counter) cannot perturb them.
pub fn scratch_reallocs_local() -> u64 {
    THREAD_REALLOCS.with(|c| c.get())
}

/// A checked-out scratch buffer; `Deref`s to `[T]` of exactly the
/// requested length. Returned to the dropping thread's pool on drop.
pub struct ScratchVec {
    buf: Vec<f32>,
    len: usize,
}

impl ScratchVec {
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

impl std::ops::Deref for ScratchVec {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        &self.buf[..self.len]
    }
}

impl std::ops::DerefMut for ScratchVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[..self.len]
    }
}

impl Drop for ScratchVec {
    fn drop(&mut self) {
        if self.buf.capacity() == 0 {
            return;
        }
        let buf = std::mem::take(&mut self.buf);
        POOL.with_borrow_mut(|pool| {
            if pool.len() < POOL_MAX_BUFFERS {
                pool.push(buf);
            }
            // else: drop; the pool is full and this thread clearly churns
            // through more distinct buffers than steady state needs.
        });
    }
}

/// Check a buffer of `len` floats out of the calling thread's pool.
/// Contents are unspecified; every slot is a previously written finite or
/// stale value (never uninitialized memory). Kernels must fully overwrite
/// the slots they read back.
pub fn scratch_f32(len: usize) -> ScratchVec {
    if len == 0 {
        return ScratchVec {
            buf: Vec::new(),
            len: 0,
        };
    }
    let buf = POOL.with_borrow_mut(|pool| {
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
        buf.resize(len, 0.0);
    }
    ScratchVec { buf, len }
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
}
