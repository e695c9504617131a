//! Shared-memory collectives for in-process replicas.
//!
//! The distributed trainer runs each replica on its own thread; these
//! communicators give them MPI-style collectives with **deterministic
//! reduction order** — contributions are always combined in ascending rank
//! order, so floating-point sums are bitwise reproducible regardless of
//! thread scheduling.
//!
//! # The round
//!
//! Every operation (`all_reduce_sum*`, `reduce_scatter_sum`,
//! `all_gather*`, `broadcast`, `barrier`) is one *round* of one protocol
//! over one set of persistent per-rank contribution buffers, the *slots*:
//!
//! 1. **Enter.** Wait until every member has left the previous round
//!    (the drain rule: no buffer is rewritten while a peer has yet to
//!    read it), and mark this rank as having deposited; a second deposit
//!    in the same round panics.
//! 2. **Deposit.** Copy the contribution into this rank's *own* slot.
//!    Nobody else touches that slot now, so all ranks copy concurrently.
//! 3. **Meet.** A rendezvous: from here to the end of the round the
//!    slots are read-only.
//! 4. **Read.** Each rank takes what the operation gives it straight
//!    from the slots: the gathered concatenation, the root's payload,
//!    its shard of the sum, or the whole sum folded into its own buffer
//!    (all ranks fold at once, each for itself).
//! 5. **Leave.**
//!
//! An element of the sum is the same chain of `f32` additions whoever
//! computes it (ascending rank, or grid-blocked: see
//! [`CommHandle::all_reduce_sum_grid`]), so which rank folds it moves no
//! bit. There is one rendezvous per round and no length cut-off: a
//! barrier and a 14 MB all-reduce take the same steps.
//!
//! The buffers are reused round after round, so the steady state
//! performs **no heap allocation** (a BN layer syncs once per conv layer
//! per step — thousands of rounds per step). Capacity growth is counted
//! in [`CommHandle::scratch_reallocs`], which a test pins to zero after
//! warmup.

use parking_lot::{Condvar, Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Elements folded at a time, so the running sum stays in L1 while the
/// slots stream past it.
const FOLD_TILE: usize = 1024;

/// Range `[start, end)` of part `i` when `n` elements are split into
/// `parts` near-equal shards, remainder spread over the leading parts —
/// the shard layout [`CommHandle::reduce_scatter_sum`] commits to.
pub fn shard_bounds(n: usize, parts: usize, i: usize) -> (usize, usize) {
    assert!(i < parts, "shard index out of range");
    let base = n / parts;
    let rem = n % parts;
    let start = i * base + i.min(rem);
    let len = base + usize::from(i < rem);
    (start, start + len)
}

fn add_assign(acc: &mut [f32], x: &[f32]) {
    for (a, &x) in acc.iter_mut().zip(x) {
        *a += x;
    }
}

/// `dst[i] = Σ slots[..][start + i]` with the canonical association:
/// the slots are blocks of `cols` consecutive ranks, each block is
/// folded in ascending rank order and the block sums are folded in
/// ascending block order (`cols == slots.len()` is the flat ascending
/// fold). Tiled so each element is written once.
///
/// With `own = Some(r)`, `dst` is rank `r`'s whole contribution (what it
/// deposited in slot `r`, so `start` is 0) and is summed in place of
/// that slot: the result overwrites lines the fold has just read instead
/// of lines it has to fetch first, a quarter less memory traffic for two
/// ranks.
fn fold_range(slots: &[Vec<f32>], cols: usize, start: usize, dst: &mut [f32], own: Option<usize>) {
    let (mut partial, mut mine) = ([0.0f32; FOLD_TILE], [0.0f32; FOLD_TILE]);
    for (t, out) in dst.chunks_mut(FOLD_TILE).enumerate() {
        let at = start + t * FOLD_TILE;
        let len = out.len();
        if own.is_some() {
            mine[..len].copy_from_slice(out);
        }
        let source = |rank: usize| {
            if own == Some(rank) {
                &mine[..len]
            } else {
                &slots[rank][at..at + len]
            }
        };
        for b in 0..slots.len() / cols {
            let acc = if b == 0 {
                &mut *out
            } else {
                &mut partial[..len]
            };
            acc.copy_from_slice(source(b * cols));
            for rank in b * cols + 1..(b + 1) * cols {
                add_assign(acc, source(rank));
            }
            if b > 0 {
                add_assign(out, &partial[..len]);
            }
        }
    }
}

fn check_lengths(slots: &[Vec<f32>], n: usize, what: &str) {
    for slot in slots {
        assert_eq!(slot.len(), n, "mismatched {what} lengths");
    }
}

/// Rendezvous bookkeeping of a communicator; the payload buffers live
/// beside it, outside this lock.
struct Gate {
    /// Double-deposit guards, reset when the round's members meet.
    deposited: Vec<bool>,
    arrived: usize,
    generation: u64,
    /// Members that have met but not yet left the current round.
    readers_left: usize,
}

struct CommInner {
    size: usize,
    gate: Mutex<Gate>,
    cv: Condvar,
    /// Per-rank contribution buffers. A rank takes its own out to fill
    /// it and puts it back before it meets the others.
    slots: RwLock<Vec<Vec<f32>>>,
    /// Number of buffer capacity growths since creation. Constant once
    /// buffer sizes stabilize — the zero-alloc steady-state counter.
    reallocs: AtomicU64,
}

/// One participant's handle to a communicator of `size` members.
///
/// Handles are cheap to clone-construct at creation time (one per member);
/// each is `Send` and used by exactly one thread.
pub struct CommHandle {
    rank: usize,
    inner: Arc<CommInner>,
}

impl CommHandle {
    /// Creates a communicator with `size` members, returning one handle per
    /// member (index = member rank within this communicator).
    pub fn create(size: usize) -> Vec<CommHandle> {
        assert!(size >= 1, "communicator needs at least one member");
        let inner = Arc::new(CommInner {
            size,
            gate: Mutex::new(Gate {
                deposited: vec![false; size],
                arrived: 0,
                generation: 0,
                readers_left: 0,
            }),
            cv: Condvar::new(),
            slots: RwLock::new(vec![Vec::new(); size]),
            reallocs: AtomicU64::new(0),
        });
        (0..size)
            .map(|rank| CommHandle {
                rank,
                inner: Arc::clone(&inner),
            })
            .collect()
    }

    /// This member's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Scratch-buffer growth events since creation (shared across ranks).
    /// Flat after warmup ⇒ the reduce path is allocation-free.
    pub fn scratch_reallocs(&self) -> u64 {
        self.inner.reallocs.load(Ordering::Relaxed)
    }

    /// Opens a round for this rank once the previous one has drained.
    fn enter(&self) {
        let inner = &*self.inner;
        let mut gate = inner.gate.lock();
        while gate.readers_left > 0 {
            inner.cv.wait(&mut gate);
        }
        assert!(
            !gate.deposited[self.rank],
            "double deposit by rank {} (one handle per thread, one deposit per round)",
            self.rank
        );
        gate.deposited[self.rank] = true;
    }

    /// Returns once every member has arrived.
    fn meet(&self) {
        let inner = &*self.inner;
        let mut gate = inner.gate.lock();
        gate.arrived += 1;
        if gate.arrived == inner.size {
            gate.arrived = 0;
            gate.deposited.fill(false);
            gate.readers_left = inner.size;
            gate.generation += 1;
            inner.cv.notify_all();
        } else {
            let generation = gate.generation;
            while gate.generation == generation {
                inner.cv.wait(&mut gate);
            }
        }
    }

    fn leave(&self) {
        let mut gate = self.inner.gate.lock();
        gate.readers_left -= 1;
        if gate.readers_left == 0 {
            self.inner.cv.notify_all();
        }
    }

    /// Copies `src` into this rank's slot, counting a growth. The slot is
    /// taken out of the pool meanwhile, so ranks filling theirs do not
    /// serialize on the pool's lock.
    fn deposit(&self, src: &[f32]) {
        let slots = &self.inner.slots;
        let mut own = std::mem::take(&mut slots.write()[self.rank]);
        let capacity = own.capacity();
        own.clear();
        own.extend_from_slice(src);
        if own.capacity() > capacity {
            self.inner.reallocs.fetch_add(1, Ordering::Relaxed);
        }
        slots.write()[self.rank] = own;
    }

    /// Steps 1–3 of a round (module docs): enters, deposits
    /// `contribution` if any and meets the other members. The caller
    /// reads the slots and then [leaves](Self::leave).
    fn open(&self, contribution: Option<&[f32]>) {
        self.enter();
        if let Some(src) = contribution {
            #[cfg(test)]
            stall(Phase::Deposit);
            self.deposit(src);
        }
        self.meet();
        #[cfg(test)]
        stall(Phase::Read);
    }

    /// The all-reduce round over blocks of `cols` ranks (see
    /// [`fold_range`]).
    fn all_reduce(&self, buf: &mut [f32], cols: usize) {
        self.open(Some(buf));
        let slots = self.inner.slots.read();
        check_lengths(&slots, buf.len(), "all-reduce");
        fold_range(&slots, cols, 0, buf, Some(self.rank));
        drop(slots);
        self.leave();
    }

    /// In-place sum all-reduce with ascending-rank reduction order:
    /// every element is `((x₀ + x₁) + x₂) + …` over the ranks'
    /// contributions. Steady-state allocation-free.
    pub fn all_reduce_sum(&self, buf: &mut [f32]) {
        if self.inner.size > 1 {
            self.all_reduce(buf, self.inner.size);
        }
    }

    /// In-place mean all-reduce.
    pub fn all_reduce_mean(&self, buf: &mut [f32]) {
        self.all_reduce_sum(buf);
        let inv = 1.0 / self.inner.size as f32;
        buf.iter_mut().for_each(|v| *v *= inv);
    }

    /// In-place sum all-reduce with the **canonical grid-blocked fold**:
    /// ranks are viewed as a row-major `rows × cols` grid, each row-block's
    /// `cols` consecutive contributions are folded in ascending rank order,
    /// and the block sums are then folded in ascending block order.
    ///
    /// This is the reduction order every [`crate::Collective`] backend
    /// commits to for its world — it is exactly what a two-phase torus
    /// exchange produces (per-row ascending fold, then per-column ascending
    /// fold of the row sums), so tree, ring, and torus-2d backends are
    /// bitwise identical. `rows == 1` degenerates to the flat ascending
    /// fold of [`Self::all_reduce_sum`] (which stays flat on purpose: the
    /// torus backend's internal row/column sub-communicators must fold
    /// flat for the composition to equal this one-level blocked fold).
    pub fn all_reduce_sum_grid(&self, buf: &mut [f32], rows: usize, cols: usize) {
        assert_eq!(
            rows * cols,
            self.inner.size,
            "grid shape must cover the communicator"
        );
        if self.inner.size > 1 {
            self.all_reduce(buf, cols);
        }
    }

    /// Reduce-scatter with the flat ascending-rank fold: every member
    /// contributes `contrib`, and `shard` is refilled with this rank's
    /// remainder-first shard (see [`shard_bounds`]) of the full sum.
    ///
    /// With a reused `shard` the steady state allocates nothing. All
    /// members must pass equal-length contributions.
    pub fn reduce_scatter_sum(&self, contrib: &[f32], shard: &mut Vec<f32>) {
        let (n, size) = (contrib.len(), self.inner.size);
        if size == 1 {
            shard.clear();
            shard.extend_from_slice(contrib);
            return;
        }
        self.open(Some(contrib));
        let slots = self.inner.slots.read();
        check_lengths(&slots, n, "reduce-scatter");
        let (start, end) = shard_bounds(n, size, self.rank);
        shard.resize(end - start, 0.0);
        fold_range(&slots, size, start, shard, None);
        drop(slots);
        self.leave();
    }

    /// Gathers every member's `local` slice into `out`, concatenated in
    /// rank order. `out` is cleared and refilled; with a reused `out` the
    /// steady state allocates nothing.
    pub fn all_gather_into(&self, local: &[f32], out: &mut Vec<f32>) {
        out.clear();
        if self.inner.size == 1 {
            out.extend_from_slice(local);
            return;
        }
        self.open(Some(local));
        for slot in self.inner.slots.read().iter() {
            out.extend_from_slice(slot);
        }
        self.leave();
    }

    /// Gathers every member's `local` slice, concatenated in rank order.
    /// Convenience wrapper over [`Self::all_gather_into`].
    pub fn all_gather(&self, local: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(local.len() * self.inner.size);
        self.all_gather_into(local, &mut out);
        out
    }

    /// Gathers every member's `local` slice into the fixed-size slice
    /// `out` (rank order); `out.len()` must equal the sum of contribution
    /// lengths. The allocation-free companion of [`Self::all_gather_into`]
    /// for callers that own the destination, e.g. the torus backend's
    /// all-gather phase writing straight back into the gradient buffer.
    pub fn all_gather_into_slice(&self, local: &[f32], out: &mut [f32]) {
        if self.inner.size == 1 {
            out.copy_from_slice(local);
            return;
        }
        self.open(Some(local));
        let slots = self.inner.slots.read();
        let total: usize = slots.iter().map(Vec::len).sum();
        assert_eq!(out.len(), total, "all-gather destination length");
        let mut at = 0;
        for slot in slots.iter() {
            out[at..at + slot.len()].copy_from_slice(slot);
            at += slot.len();
        }
        drop(slots);
        self.leave();
    }

    /// Broadcast from `root`: on return every member's `buf` holds root's.
    pub fn broadcast(&self, buf: &mut [f32], root: usize) {
        assert!(root < self.inner.size, "broadcast root out of range");
        if self.inner.size == 1 {
            return;
        }
        // Only the root deposits payload.
        self.open((self.rank == root).then_some(&*buf));
        if self.rank != root {
            buf.copy_from_slice(&self.inner.slots.read()[root]);
        }
        self.leave();
    }

    /// Barrier: returns once every member has arrived.
    pub fn barrier(&self) {
        if self.inner.size > 1 {
            self.open(None);
            self.leave();
        }
    }
}

/// Points of a round where a test can hold one rank back.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Deposit,
    Read,
}

#[cfg(test)]
thread_local! {
    /// The phase before which this thread sleeps, and for how long.
    static STALL: std::cell::Cell<Option<(Phase, std::time::Duration)>> =
        const { std::cell::Cell::new(None) };
}

/// Test hook: sleeps if the calling thread asked to be held back before
/// `phase`.
#[cfg(test)]
fn stall(phase: Phase) {
    if let Some((at, delay)) = STALL.get() {
        if at == phase {
            std::thread::sleep(delay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_replicas<F, R>(n: usize, f: F) -> Vec<R>
    where
        F: Fn(CommHandle) -> R + Send + Sync + Clone + 'static,
        R: Send + 'static,
    {
        let handles = CommHandle::create(n);
        let joins: Vec<_> = handles
            .into_iter()
            .map(|h| {
                let f = f.clone();
                thread::spawn(move || f(h))
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        let results = run_replicas(4, |h| {
            let mut buf = vec![h.rank() as f32, 1.0];
            h.all_reduce_sum(&mut buf);
            buf
        });
        for r in results {
            assert_eq!(r, vec![0.0 + 1.0 + 2.0 + 3.0, 4.0]);
        }
    }

    #[test]
    fn all_reduce_mean_averages() {
        let results = run_replicas(4, |h| {
            let mut buf = vec![(h.rank() * 2) as f32];
            h.all_reduce_mean(&mut buf);
            buf[0]
        });
        for r in results {
            assert!((r - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn repeated_rounds_do_not_cross_talk() {
        let results = run_replicas(3, |h| {
            let mut out = Vec::new();
            for round in 0..50 {
                let mut buf = vec![(h.rank() + round) as f32];
                h.all_reduce_sum(&mut buf);
                out.push(buf[0]);
            }
            out
        });
        for r in &results {
            for (round, &v) in r.iter().enumerate() {
                let expected: usize = (0..3).map(|rank| rank + round).sum();
                assert_eq!(v, expected as f32, "round {round}");
            }
        }
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let results = run_replicas(3, |h| {
            h.all_gather(&[h.rank() as f32 * 10.0, h.rank() as f32 * 10.0 + 1.0])
        });
        for r in results {
            assert_eq!(r, vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        }
    }

    #[test]
    fn broadcast_copies_root() {
        let results = run_replicas(4, |h| {
            let mut buf = if h.rank() == 2 {
                vec![7.0, 8.0]
            } else {
                vec![0.0, 0.0]
            };
            h.broadcast(&mut buf, 2);
            buf
        });
        for r in results {
            assert_eq!(r, vec![7.0, 8.0]);
        }
    }

    #[test]
    fn singleton_communicator_is_identity() {
        let mut hs = CommHandle::create(1);
        let h = hs.pop().unwrap();
        let mut buf = vec![3.0];
        h.all_reduce_sum(&mut buf);
        assert_eq!(buf, vec![3.0]);
        h.barrier();
    }

    #[test]
    fn deterministic_sum_order() {
        // With adversarial magnitudes, the deterministic ascending-rank
        // order must give the same result across many runs even though
        // thread arrival order varies.
        let golden = run_replicas(4, |h| {
            let vals = [1e8f32, 1.0, -1e8, 0.5];
            let mut buf = vec![vals[h.rank()]];
            h.all_reduce_sum(&mut buf);
            buf[0]
        })[0];
        for _ in 0..20 {
            let r = run_replicas(4, |h| {
                let vals = [1e8f32, 1.0, -1e8, 0.5];
                let mut buf = vec![vals[h.rank()]];
                h.all_reduce_sum(&mut buf);
                buf[0]
            });
            for v in r {
                assert_eq!(v.to_bits(), golden.to_bits(), "bitwise reproducible");
            }
        }
    }

    fn adversarial_payload(rank: usize, n: usize) -> Vec<f32> {
        // Mixed magnitudes so reassociation changes the rounded sum.
        (0..n)
            .map(|i| {
                let m = [1e8f32, 1.0, -1e8, 0.37, 1e-3][(rank + i) % 5];
                m * (1.0 + (rank * 31 + i * 7) as f32 * 1e-3)
            })
            .collect()
    }

    #[test]
    fn grid_fold_with_one_row_matches_flat_fold() {
        for n in [1usize, 5, 33] {
            let flat = run_replicas(4, move |h| {
                let mut buf = adversarial_payload(h.rank(), n);
                h.all_reduce_sum(&mut buf);
                buf
            });
            let grid = run_replicas(4, move |h| {
                let mut buf = adversarial_payload(h.rank(), n);
                h.all_reduce_sum_grid(&mut buf, 1, 4);
                buf
            });
            for (a, b) in flat.iter().zip(grid.iter()) {
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn grid_fold_matches_two_phase_torus_composition_bitwise() {
        // The one-level blocked fold must equal what the torus backend
        // physically does: per-row reduce-scatter (flat ascending fold),
        // per-column all-reduce of the shards (flat ascending fold over
        // block sums), then row all-gather.
        for (rows, cols) in [(2usize, 2usize), (2, 3), (3, 4), (4, 4)] {
            let p = rows * cols;
            for n in [1usize, 7, 64, 97] {
                let grid = run_replicas(p, move |h| {
                    let mut buf = adversarial_payload(h.rank(), n);
                    h.all_reduce_sum_grid(&mut buf, rows, cols);
                    buf
                });
                let contribs: Vec<Vec<f32>> = (0..p).map(|r| adversarial_payload(r, n)).collect();
                let expect = sequential_fold(&contribs, cols);
                for g in &grid {
                    for (x, y) in g.iter().zip(expect.iter()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "grid {rows}x{cols} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_scatter_shards_cover_the_flat_sum() {
        for n in [1usize, 3, 10, 97] {
            let flat = run_replicas(4, move |h| {
                let mut buf = adversarial_payload(h.rank(), n);
                h.all_reduce_sum(&mut buf);
                buf
            })[0]
                .clone();
            let shards = run_replicas(4, move |h| {
                let contrib = adversarial_payload(h.rank(), n);
                let mut shard = Vec::new();
                h.reduce_scatter_sum(&contrib, &mut shard);
                (h.rank(), shard)
            });
            let mut rebuilt = vec![0.0f32; n];
            for (rank, shard) in shards {
                let (a, b) = shard_bounds(n, 4, rank);
                assert_eq!(shard.len(), b - a);
                rebuilt[a..b].copy_from_slice(&shard);
            }
            for (x, y) in rebuilt.iter().zip(flat.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn all_gather_into_slice_concatenates_in_rank_order() {
        let results = run_replicas(3, |h| {
            let local = [h.rank() as f32 * 10.0, h.rank() as f32 * 10.0 + 1.0];
            let mut out = [0.0f32; 6];
            h.all_gather_into_slice(&local, &mut out);
            out.to_vec()
        });
        for r in results {
            assert_eq!(r, vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        }
    }

    #[test]
    fn shard_bounds_partition_exactly() {
        for n in [0usize, 1, 5, 16, 97] {
            for parts in 1..=8usize {
                let mut covered = 0;
                for i in 0..parts {
                    let (a, b) = shard_bounds(n, parts, i);
                    assert_eq!(a, covered, "shards must be contiguous");
                    assert!(b >= a);
                    covered = b;
                }
                assert_eq!(covered, n, "shards must cover [0, n)");
            }
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = Arc::new(AtomicUsize::new(0));
        let handles = CommHandle::create(4);
        let joins: Vec<_> = handles
            .into_iter()
            .map(|h| {
                let c = Arc::clone(&counter);
                thread::spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    h.barrier();
                    // After the barrier, all increments must be visible.
                    assert_eq!(c.load(Ordering::SeqCst), 4);
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn steady_state_rounds_do_not_reallocate() {
        // Warm up with the largest payload, then hammer the reduce path:
        // the realloc counter must not move once capacities stabilize.
        let handles = CommHandle::create(4);
        let probe = CommHandle {
            rank: handles[0].rank,
            inner: Arc::clone(&handles[0].inner),
        };
        let joins: Vec<_> = handles
            .into_iter()
            .map(|h| {
                thread::spawn(move || {
                    let mut big = vec![h.rank() as f32; 4096];
                    let small = vec![1.0f32; 32];
                    let mut gathered = Vec::new();
                    // Warmup: grows scratch to the working-set maximum.
                    h.all_reduce_sum(&mut big);
                    h.all_gather_into(&small, &mut gathered);
                    h.broadcast(&mut big, 0);
                    h.barrier();
                    (0, 0)
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let after_warmup = probe.scratch_reallocs();

        let handles2: Vec<CommHandle> = (0..4)
            .map(|rank| CommHandle {
                rank,
                inner: Arc::clone(&probe.inner),
            })
            .collect();
        let joins: Vec<_> = handles2
            .into_iter()
            .map(|h| {
                thread::spawn(move || {
                    let mut big = vec![h.rank() as f32; 4096];
                    let small = vec![1.0f32; 32];
                    let mut gathered = Vec::with_capacity(4 * 32);
                    for _ in 0..100 {
                        h.all_reduce_sum(&mut big);
                        h.all_gather_into(&small, &mut gathered);
                        h.broadcast(&mut big, 0);
                        h.barrier();
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(
            probe.scratch_reallocs(),
            after_warmup,
            "steady-state rounds must not grow communicator scratch"
        );
    }

    /// Literal sequential fold: ascending rank within blocks of `cols`,
    /// then ascending block.
    fn sequential_fold(contribs: &[Vec<f32>], cols: usize) -> Vec<f32> {
        let mut total: Option<Vec<f32>> = None;
        for block in contribs.chunks(cols) {
            let mut acc = block[0].clone();
            for c in &block[1..] {
                add_assign(&mut acc, c);
            }
            match &mut total {
                None => total = Some(acc),
                Some(t) => add_assign(t, &acc),
            }
        }
        total.unwrap()
    }

    #[test]
    fn a_rank_held_back_at_any_phase_moves_no_bit() {
        // One rank sleeps before its deposit or before it reads the
        // slots, while the others run ahead into the next round as far as
        // the drain rule lets them. Three rounds with different payloads:
        // a slot rewritten too early shows as another round's data. A
        // length within one fold tile and one spanning several.
        use std::time::Duration;
        let lengths = [7, 4 * FOLD_TILE + 3];
        for (world, cols) in [(2usize, 2usize), (3, 3), (4, 2)] {
            for n in lengths {
                for phase in [Phase::Deposit, Phase::Read] {
                    for slow in 0..world {
                        let results = run_replicas(world, move |h| {
                            if h.rank() == slow {
                                STALL.set(Some((phase, Duration::from_millis(1))));
                            }
                            (0..3)
                                .map(|round| {
                                    let mut buf = adversarial_payload(h.rank() + 10 * round, n);
                                    h.all_reduce_sum_grid(&mut buf, world / cols, cols);
                                    buf
                                })
                                .collect::<Vec<_>>()
                        });
                        for round in 0..3 {
                            let contribs: Vec<Vec<f32>> = (0..world)
                                .map(|r| adversarial_payload(r + 10 * round, n))
                                .collect();
                            let want = sequential_fold(&contribs, cols);
                            for (rank, got) in results.iter().enumerate() {
                                assert!(
                                    got[round].iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
                                    "world {world} n {n} {phase:?} slow {slow} round {round} rank {rank}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn double_deposit_panics() {
        // A second thread on rank 0's handle deposits while rank 0 waits
        // in the same round: it must fail fast, not corrupt the round.
        let mut handles = CommHandle::create(2);
        let (h1, h0) = (handles.pop().unwrap(), handles.pop().unwrap());
        let twin = CommHandle {
            rank: 0,
            inner: Arc::clone(&h0.inner),
        };
        let waiting = thread::spawn(move || h0.barrier());
        while !twin.inner.gate.lock().deposited[0] {
            thread::yield_now();
        }
        let second = thread::spawn(move || twin.barrier());
        assert!(second.join().is_err(), "double deposit must panic");
        h1.barrier();
        waiting.join().unwrap();
    }

    #[test]
    fn mismatched_lengths_panic_on_every_rank() {
        for lens in [[3usize, 4], [4 * FOLD_TILE, 5]] {
            let joins: Vec<_> = CommHandle::create(2)
                .into_iter()
                .map(|h| {
                    thread::spawn(move || {
                        let mut buf = vec![1.0; lens[h.rank()]];
                        h.all_reduce_sum(&mut buf);
                    })
                })
                .collect();
            for j in joins {
                assert!(j.join().is_err(), "lengths {lens:?} must panic");
            }
        }
    }
}
