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
//! Every operation (`all_reduce_sum*`, `all_gather*`, `broadcast`,
//! `barrier`) is one *round* of one protocol over one set of persistent
//! per-rank contribution buffers, the *slots*:
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
//!    from the slots: the gathered concatenation, the root's payload, or
//!    the whole sum folded into its own buffer (all ranks fold at once,
//!    each for itself).
//! 5. **Leave.**
//!
//! An element of the sum is the same chain of `f32` additions whoever
//! computes it (ascending rank, or grid-blocked: see
//! [`CommHandle::all_reduce_sum_grid`]), so which rank folds it moves no
//! bit. There is one rendezvous per round and no length cut-off: a
//! barrier and a 14 MB all-reduce take the same steps.
//!
//! # Payloads in pieces
//!
//! The mean ([`CommHandle::all_reduce_mean_grid`]) takes its payload as
//! [`Pieces`]: slices handed out in order that the round treats as one
//! contiguous payload, such as the gradients of a bucket's parameters,
//! each in its own tensor. The deposit gathers the pieces into the
//! rank's slot, and the fold writes each element's sum × (1/size) back
//! into its piece while the tile is in L1. No contiguous copy of the
//! payload exists outside the slots, and the result is bitwise the sum
//! followed by that multiply.
//!
//! The buffers are reused round after round, so the steady state
//! performs **no heap allocation**. Small rounds are the common case: a
//! synced BN layer runs one in forward and one in backward, so a step of
//! perfbench's `wide_lars_2x` (22 BN layers) runs 48 rounds, 44 of them
//! BN syncs (its `collective.calls_per_step`). Capacity growth is counted
//! in [`CommHandle::scratch_reallocs`], which a test pins to zero after
//! warmup.
//!
//! # Lock poisoning
//!
//! A rank that panics inside a round (a double deposit, mismatched
//! lengths) poisons nothing for its peers: every lock here is taken
//! through `unpoisoned`. That is sound because no update of the gate or
//! the slots can be left half done: the double-deposit check runs before
//! the gate changes, the length check under a read lock, and a deposit
//! fills a slot taken out of the pool before putting it back.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock};

/// Elements folded at a time, so the running sum stays in L1 while the
/// slots stream past it.
const FOLD_TILE: usize = 1024;

/// The guard of a lock result, whether or not a panicking holder
/// poisoned the lock (module docs, "Lock poisoning").
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// The gate's mutex; `lock` takes it through [`unpoisoned`].
struct GateLock(Mutex<Gate>);

impl GateLock {
    fn lock(&self) -> MutexGuard<'_, Gate> {
        unpoisoned(self.0.lock())
    }
}

fn add_assign(acc: &mut [f32], x: &[f32]) {
    for (a, &x) in acc.iter_mut().zip(x) {
        *a += x;
    }
}

/// A payload held in pieces: the round reads and writes them, in the
/// order [`Pieces::for_each_piece`] hands them out, as one contiguous
/// payload. A plain slice (or a `Vec`) is the one-piece case.
pub trait Pieces {
    /// Hands every piece to `f`, in payload order.
    fn for_each_piece(&mut self, f: &mut dyn FnMut(&mut [f32]));

    /// Elements over all pieces.
    fn elems(&mut self) -> usize {
        let mut n = 0;
        self.for_each_piece(&mut |piece| n += piece.len());
        n
    }
}

impl Pieces for [f32] {
    fn for_each_piece(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(self)
    }
}

impl Pieces for Vec<f32> {
    fn for_each_piece(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(self)
    }
}

/// `x[i] = scale · Σ slots[..][i]` for every element `x[i]` of
/// `payload`, with the canonical association: the slots are blocks of
/// `cols` consecutive ranks, each block is folded in ascending rank
/// order and the block sums are folded in ascending block order
/// (`cols == slots.len()` is the flat ascending fold). Tiled so each
/// element is written once; without a `scale` it is the plain sum.
///
/// `payload` is rank `own`'s contribution (what it deposited in slot
/// `own`) and is summed in place of that slot: the result overwrites
/// lines the fold has just read instead of lines it has to fetch first,
/// a quarter less memory traffic for two ranks. Tiles start at each
/// piece's first element; every element is its own chain, so where a
/// tile ends moves no bit.
fn fold<P: Pieces + ?Sized>(
    slots: &[Vec<f32>],
    cols: usize,
    payload: &mut P,
    own: usize,
    scale: Option<f32>,
) {
    let (mut partial, mut mine) = ([0.0f32; FOLD_TILE], [0.0f32; FOLD_TILE]);
    let mut base = 0;
    payload.for_each_piece(&mut |piece| {
        for (t, out) in piece.chunks_mut(FOLD_TILE).enumerate() {
            let at = base + t * FOLD_TILE;
            let len = out.len();
            mine[..len].copy_from_slice(out);
            let source = |rank: usize| {
                if rank == own {
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
            if let Some(scale) = scale {
                out.iter_mut().for_each(|v| *v *= scale);
            }
        }
        base += piece.len();
    });
}

/// Writes a rank's contribution into its (cleared) slot.
type Fill<'a> = &'a mut dyn FnMut(&mut Vec<f32>);

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
    gate: GateLock,
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
            gate: GateLock(Mutex::new(Gate {
                deposited: vec![false; size],
                arrived: 0,
                generation: 0,
                readers_left: 0,
            })),
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
            gate = unpoisoned(inner.cv.wait(gate));
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
                gate = unpoisoned(inner.cv.wait(gate));
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

    /// Refills this rank's slot through `fill`, counting a growth. The
    /// slot is taken out of the pool meanwhile, so ranks filling theirs
    /// do not serialize on the pool's lock.
    fn deposit(&self, fill: Fill<'_>) {
        let slots = &self.inner.slots;
        let mut own = std::mem::take(&mut unpoisoned(slots.write())[self.rank]);
        let capacity = own.capacity();
        own.clear();
        fill(&mut own);
        if own.capacity() > capacity {
            self.inner.reallocs.fetch_add(1, Ordering::Relaxed);
        }
        unpoisoned(slots.write())[self.rank] = own;
    }

    /// Steps 1–3 of a round (module docs): enters, deposits through
    /// `contribution` if any and meets the other members. The caller
    /// reads the slots and then [leaves](Self::leave).
    fn open(&self, contribution: Option<Fill<'_>>) {
        self.enter();
        if let Some(fill) = contribution {
            #[cfg(test)]
            stall(Phase::Deposit);
            self.deposit(fill);
        }
        self.meet();
        #[cfg(test)]
        stall(Phase::Read);
    }

    /// The all-reduce round over blocks of `cols` ranks (see [`fold`]):
    /// the deposit gathers the pieces, the fold writes into them.
    fn all_reduce<P: Pieces + ?Sized>(&self, payload: &mut P, cols: usize, scale: Option<f32>) {
        let n = payload.elems();
        self.open(Some(&mut |slot: &mut Vec<f32>| {
            payload.for_each_piece(&mut |piece| slot.extend_from_slice(piece))
        }));
        let slots = unpoisoned(self.inner.slots.read());
        check_lengths(&slots, n, "all-reduce");
        fold(&slots, cols, payload, self.rank, scale);
        drop(slots);
        self.leave();
    }

    /// In-place sum all-reduce with ascending-rank reduction order:
    /// every element is `((x₀ + x₁) + x₂) + …` over the ranks'
    /// contributions. Steady-state allocation-free.
    pub fn all_reduce_sum(&self, buf: &mut [f32]) {
        if self.inner.size > 1 {
            self.all_reduce(buf, self.inner.size, None);
        }
    }

    /// In-place sum all-reduce with the **canonical grid-blocked fold**:
    /// ranks are viewed as a row-major `rows × cols` grid, each row-block's
    /// `cols` consecutive contributions are folded in ascending rank order,
    /// and the block sums are then folded in ascending block order.
    ///
    /// This is the reduction order every [`crate::Collective`] commits to
    /// for its world: exactly what a two-phase torus exchange produces
    /// (per-row ascending fold, then per-column ascending fold of the row
    /// sums). `rows == 1` degenerates to the flat ascending fold of
    /// [`Self::all_reduce_sum`].
    pub fn all_reduce_sum_grid(&self, buf: &mut [f32], rows: usize, cols: usize) {
        assert_eq!(
            rows * cols,
            self.inner.size,
            "grid shape must cover the communicator"
        );
        if self.inner.size > 1 {
            self.all_reduce(buf, cols, None);
        }
    }

    /// In-place **mean** all-reduce of a payload held in [`Pieces`]:
    /// every element becomes its [grid-blocked sum](Self::all_reduce_sum_grid)
    /// × (1/size), bitwise what that sum followed by the multiply gives.
    /// The multiply happens in the fold, while the tile is in L1. A
    /// communicator of one member runs no round and touches nothing.
    pub fn all_reduce_mean_grid<P: Pieces + ?Sized>(
        &self,
        payload: &mut P,
        rows: usize,
        cols: usize,
    ) {
        assert_eq!(
            rows * cols,
            self.inner.size,
            "grid shape must cover the communicator"
        );
        if self.inner.size > 1 {
            self.all_reduce(payload, cols, Some(1.0 / self.inner.size as f32));
        }
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
        self.open(Some(&mut |slot: &mut Vec<f32>| {
            slot.extend_from_slice(local)
        }));
        for slot in unpoisoned(self.inner.slots.read()).iter() {
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

    /// Broadcast from `root`: on return every member's `buf` holds root's.
    pub fn broadcast(&self, buf: &mut [f32], root: usize) {
        assert!(root < self.inner.size, "broadcast root out of range");
        if self.inner.size == 1 {
            return;
        }
        // Only the root deposits payload.
        let mut payload = |slot: &mut Vec<f32>| slot.extend_from_slice(buf);
        self.open(if self.rank == root {
            Some(&mut payload)
        } else {
            None
        });
        if self.rank != root {
            buf.copy_from_slice(&unpoisoned(self.inner.slots.read())[root]);
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
            h.all_reduce_mean_grid(&mut buf, 1, 4);
            buf[0]
        });
        for r in results {
            assert!((r - 3.0).abs() < 1e-6);
        }
    }

    /// `buf` handed out as pieces cut at the ascending offsets `cuts`.
    struct Cut<'a> {
        buf: &'a mut [f32],
        cuts: &'a [usize],
    }

    impl Pieces for Cut<'_> {
        fn for_each_piece(&mut self, f: &mut dyn FnMut(&mut [f32])) {
            let (mut rest, mut at) = (&mut *self.buf, 0);
            for &cut in self.cuts {
                let (piece, tail) = std::mem::take(&mut rest).split_at_mut(cut - at);
                f(piece);
                (rest, at) = (tail, cut);
            }
            f(rest);
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
        // The one-level blocked fold must equal what a torus exchange
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
        // length within one fold tile and one spanning several, each as
        // one slice summed and as pieces (an empty one, and pieces that
        // straddle fold tiles) averaged.
        use std::time::Duration;
        let lengths = [7, 4 * FOLD_TILE + 3];
        for (world, cols) in [(2usize, 2usize), (3, 3), (4, 2)] {
            for n in lengths {
                for pieces in [false, true] {
                    for phase in [Phase::Deposit, Phase::Read] {
                        for slow in 0..world {
                            let results = run_replicas(world, move |h| {
                                if h.rank() == slow {
                                    STALL.set(Some((phase, Duration::from_millis(1))));
                                }
                                let cuts = [1, n / 2, n / 2, n - 1];
                                (0..3)
                                    .map(|round| {
                                        let mut buf = adversarial_payload(h.rank() + 10 * round, n);
                                        let rows = world / cols;
                                        if pieces {
                                            let mut cut = Cut {
                                                buf: &mut buf,
                                                cuts: &cuts,
                                            };
                                            h.all_reduce_mean_grid(&mut cut, rows, cols);
                                        } else {
                                            h.all_reduce_sum_grid(&mut buf, rows, cols);
                                        }
                                        buf
                                    })
                                    .collect::<Vec<_>>()
                            });
                            let scale = if pieces { 1.0 / world as f32 } else { 1.0 };
                            for round in 0..3 {
                                let contribs: Vec<Vec<f32>> = (0..world)
                                    .map(|r| adversarial_payload(r + 10 * round, n))
                                    .collect();
                                let want = sequential_fold(&contribs, cols);
                                for (rank, got) in results.iter().enumerate() {
                                    assert!(
                                        got[round]
                                            .iter()
                                            .zip(&want)
                                            .all(|(a, b)| a.to_bits() == (b * scale).to_bits()),
                                        "world {world} n {n} pieces {pieces} {phase:?} slow {slow} \
                                         round {round} rank {rank}"
                                    );
                                }
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
