//! Shared-memory collectives for in-process replicas.
//!
//! The distributed trainer runs each replica on its own thread; these
//! communicators give them MPI-style collectives with **deterministic
//! reduction order** — contributions are always combined in ascending rank
//! order, so floating-point sums are bitwise reproducible regardless of
//! thread scheduling.
//!
//! # The rounds
//!
//! Every operation runs one of two rounds: the *slot round* for the
//! small operations, the *owner round* for the mean, which works on a
//! large payload in place. Both open the same way:
//! **enter** waits until every member has left the previous round (the
//! drain rule: nothing a peer may still read is rewritten) and marks this
//! rank as in the round (a second deposit in the same round panics), and
//! **meet** is a rendezvous on the gate's mutex.
//!
//! The *slot round* serves the sum
//! (`all_reduce_sum*`: BN sync, eval counts), `all_gather*`, `broadcast`
//! and `barrier`. It has one rendezvous over persistent per-rank
//! contribution buffers, the *slots*:
//!
//! 1. **Enter.**
//! 2. **Deposit.** Copy the contribution into this rank's *own* slot.
//!    Nobody else touches that slot now, so all ranks copy concurrently.
//! 3. **Meet.** From here to the end of the round the slots are read-only.
//! 4. **Read.** Each rank takes what the operation gives it straight
//!    from the slots: the gathered concatenation, the root's payload, or
//!    the whole sum folded into its own buffer (all ranks fold at once,
//!    each for itself).
//! 5. **Leave.**
//!
//! The *owner round* has no slot. Rank `r` owns the share
//! `r·n/size..(r+1)·n/size` of an `n`-element payload, and each rank
//! reads and writes every rank's payload where it lies. It serves the
//! **mean** ([`CommHandle::all_reduce_mean_grid`], the gradient
//! exchange): a rank folds each tile of its share from every rank,
//! scales it by `1/size` and stores it into every rank. It moves `2n`
//! elements per rank where the slot round moves `(size + 3)·n`.
//!
//! The round:
//!
//! 1. **Enter.**
//! 2. **Publish.** Record where this rank's [`Pieces`] are, as
//!    `(start, len)` runs in a table beside the slots.
//! 3. **Meet.** Every rank checks that every entry was published for this
//!    round (a peer in another operation left an older one) and that all
//!    lengths are equal, before anyone writes: a mismatch panics on every
//!    rank in the round.
//! 4. **Share.** Each rank works through its share a tile at a time.
//! 5. **Meet** again: no rank returns while a peer can still write into
//!    its pieces. Then **leave**.
//!
//! An element of the sum is the same chain of `f32` additions whoever
//! computes it (ascending rank, or grid-blocked: see
//! [`CommHandle::all_reduce_sum_grid`]; `fold_tile` is the one place
//! that association is written), so which rank folds it moves no bit, and
//! in the mean every rank stores the same bits. The operation picks
//! the round, not a length cut-off: the owner round's second rendezvous
//! costs more than a small payload's copies, so the sum stays on the slot
//! round however long it is.
//!
//! # Payloads in pieces
//!
//! The owner round takes its payload as [`Pieces`]: slices handed out in
//! order that the round treats as one contiguous payload, such as the
//! gradients of a bucket's parameters, each in its own tensor. The pieces
//! are read and written where they are, by every rank: no contiguous copy
//! of the payload exists anywhere, and the mean is bitwise the
//! grid-blocked sum followed by `× (1/size)`. The mean is the
//! single-pass, shared-memory form of a reduce-scatter followed by an
//! all-gather. Because peers write into a rank's memory, [`Pieces`] is
//! an `unsafe trait`. Beyond it and its implementations, the only
//! `unsafe` code in this crate is the table of raw runs (`Runs`) and the
//! two places that turn a run back into a slice.
//!
//! The buffers and the table are reused round after round, so the steady
//! state performs **no heap allocation**. Small rounds are the common
//! case: a synced BN layer runs one in forward and one in backward, so a
//! step of perfbench's `wide_lars_2x` (22 BN layers) runs 48 rounds, 44
//! of them BN syncs (its `collective.calls_per_step`). Slot growth is
//! counted in [`CommHandle::scratch_reallocs`], which tests pin to zero
//! after warmup and to zero outright for owner rounds, which have no slot.
//!
//! # Lock poisoning
//!
//! A rank that panics inside a round (a double deposit, mismatched
//! lengths) poisons nothing for its peers: every lock here is taken
//! through `unpoisoned`. That is sound because no update of the gate, the
//! slots or the table can be left half done: the double-deposit check runs
//! before the gate changes, the length checks under a read lock, and a
//! deposit or a publish fills an entry taken out of its pool before
//! putting it back.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock};

/// Elements folded at a time, so the running sum stays in L1 while the
/// sources stream past it.
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

/// A payload held in pieces: the owner round reads and writes them, in
/// the order [`Pieces::for_each_piece`] hands them out, as one contiguous
/// payload. A plain slice (or a `Vec`) is the one-piece case.
///
/// # Safety
///
/// The round keeps raw pointers to the pieces and lets peer threads read
/// and write them until it returns. An implementation must hand out the
/// same memory on every call, and that memory must stay valid and be
/// touched by nothing else while `&mut self` is borrowed.
pub unsafe trait Pieces {
    /// Hands every piece to `f`, in payload order.
    fn for_each_piece(&mut self, f: &mut dyn FnMut(&mut [f32]));

    /// Elements over all pieces.
    fn elems(&mut self) -> usize {
        let mut n = 0;
        self.for_each_piece(&mut |piece| n += piece.len());
        n
    }
}

// SAFETY: the one piece is the borrowed slice itself.
unsafe impl Pieces for [f32] {
    fn for_each_piece(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(self)
    }
}

// SAFETY: the one piece is the vector's buffer, which `&mut self` keeps
// from being resized or freed.
unsafe impl Pieces for Vec<f32> {
    fn for_each_piece(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(self)
    }
}

/// `acc[i] = Σ source(rank)[i]` over `size` ranks with the canonical
/// association: the ranks are blocks of `cols` consecutive ranks, each
/// block is folded in ascending rank order and the block sums are folded
/// in ascending block order (`cols == size` is the flat ascending fold).
/// `partial` is scratch of `acc`'s length, and every source has that
/// length too. Every element is its own chain of `f32` additions, so
/// where a tile starts or ends moves no bit. Both rounds fold through
/// here.
fn fold_tile<'s>(
    acc: &mut [f32],
    partial: &mut [f32],
    size: usize,
    cols: usize,
    source: impl Fn(usize) -> &'s [f32],
) {
    for b in 0..size / cols {
        let sum = if b == 0 { &mut *acc } else { &mut *partial };
        sum.copy_from_slice(source(b * cols));
        for rank in b * cols + 1..(b + 1) * cols {
            add_assign(sum, source(rank));
        }
        if b > 0 {
            add_assign(acc, partial);
        }
    }
}

/// `payload[i] = Σ slots[..][i]` in the canonical association
/// ([`fold_tile`]), tile by tile, each element written once.
///
/// `payload` is rank `own`'s contribution (what it deposited in slot
/// `own`) and is summed in place of that slot: the result overwrites
/// lines the fold has just read instead of lines it has to fetch first,
/// a quarter less memory traffic for two ranks.
fn fold(slots: &[Vec<f32>], cols: usize, payload: &mut [f32], own: usize) {
    let (mut partial, mut mine) = ([0.0f32; FOLD_TILE], [0.0f32; FOLD_TILE]);
    for (t, out) in payload.chunks_mut(FOLD_TILE).enumerate() {
        let (at, len) = (t * FOLD_TILE, out.len());
        mine[..len].copy_from_slice(out);
        fold_tile(out, &mut partial[..len], slots.len(), cols, |rank| {
            if rank == own {
                &mine[..len]
            } else {
                &slots[rank][at..at + len]
            }
        });
    }
}

/// Writes a rank's contribution into its (cleared) slot.
type Fill<'a> = &'a mut dyn FnMut(&mut Vec<f32>);

fn check_lengths(lens: impl Iterator<Item = usize>, n: usize, what: &str) {
    for len in lens {
        assert_eq!(len, n, "mismatched {what} lengths");
    }
}

/// One non-empty piece of a published payload: its first element's
/// offset in the payload, its address and its length.
#[derive(Clone, Copy)]
struct Run {
    at: usize,
    ptr: *mut f32,
    len: usize,
}

/// One rank's entry in the owner round's table: where its pieces are,
/// in payload order, and the round they were published for.
#[derive(Default)]
struct Runs {
    runs: Vec<Run>,
    elems: usize,
    round: u64,
}

// SAFETY: `Runs` only stores addresses and never dereferences them. The
// two sites that do, in `CommHandle::owner_round`, say why their accesses
// from other threads are sound.
unsafe impl Send for Runs {}
unsafe impl Sync for Runs {}

impl Runs {
    fn publish(&mut self, payload: &mut (impl Pieces + ?Sized), round: u64) {
        self.runs.clear();
        self.elems = 0;
        self.round = round;
        payload.for_each_piece(&mut |piece| {
            if !piece.is_empty() {
                self.runs.push(Run {
                    at: self.elems,
                    ptr: piece.as_mut_ptr(),
                    len: piece.len(),
                });
                self.elems += piece.len();
            }
        });
    }

    /// The run that holds payload element `at < self.elems`.
    fn run(&self, at: usize) -> Run {
        self.runs[self.runs.partition_point(|r| r.at + r.len <= at)]
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
    /// Per-rank contribution buffers of the slot round. A rank takes its
    /// own out to fill it and puts it back before it meets the others.
    slots: RwLock<Vec<Vec<f32>>>,
    /// Per-rank piece tables of the owner round, handled like the slots.
    runs: RwLock<Vec<Runs>>,
    /// Number of slot capacity growths since creation. Constant once
    /// payload sizes stabilize — the zero-alloc steady-state counter.
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
            runs: RwLock::new((0..size).map(|_| Runs::default()).collect()),
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

    /// Slot growth events since creation (shared across ranks). Flat
    /// after warmup ⇒ the slot round is allocation-free; the owner round
    /// has no slot and never moves it.
    pub fn scratch_reallocs(&self) -> u64 {
        self.inner.reallocs.load(Ordering::Relaxed)
    }

    /// Opens a round for this rank once the previous one has drained and
    /// returns the round's number, the same on every member.
    fn enter(&self) -> u64 {
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
        gate.generation
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

    /// Steps 1–3 of the slot round (module docs): enters, deposits
    /// through `contribution` if any and meets the other members. The
    /// caller reads the slots and then [leaves](Self::leave).
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

    /// The slot round's all-reduce over blocks of `cols` ranks (see
    /// [`fold`]).
    fn all_reduce(&self, buf: &mut [f32], cols: usize) {
        self.open(Some(&mut |slot: &mut Vec<f32>| slot.extend_from_slice(buf)));
        let slots = unpoisoned(self.inner.slots.read());
        check_lengths(slots.iter().map(Vec::len), buf.len(), "all-reduce");
        fold(&slots, cols, buf, self.rank);
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
            self.all_reduce(buf, cols);
        }
    }

    /// In-place **mean** all-reduce of a payload held in [`Pieces`]:
    /// every element becomes its [grid-blocked sum](Self::all_reduce_sum_grid)
    /// × (1/size), bitwise what that sum followed by the multiply gives,
    /// and every rank holds the same bits. It runs the owner round (module
    /// docs): each rank folds its `1/size` share of the payload straight
    /// from every rank's pieces and stores the result into all of them.
    /// A communicator of one member runs no round and touches nothing.
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
            self.owner_round(payload, cols);
        }
    }

    /// The owner round of the mean (module docs): each rank works
    /// through its share of the payload a tile at a time, folding over
    /// blocks of `cols` ranks.
    fn owner_round<P: Pieces + ?Sized>(&self, payload: &mut P, cols: usize) {
        let inner = &*self.inner;
        let size = inner.size;
        let round = self.enter();
        let mut own = std::mem::take(&mut unpoisoned(inner.runs.write())[self.rank]);
        own.publish(payload, round);
        unpoisoned(inner.runs.write())[self.rank] = own;
        self.meet();
        let table = unpoisoned(inner.runs.read());
        // A peer that met this round in another operation left an entry
        // from an earlier round, whose memory may be gone.
        assert!(
            table.iter().all(|runs| runs.round == round),
            "an owner round met another operation"
        );
        let n = table[self.rank].elems;
        check_lengths(table.iter().map(|runs| runs.elems), n, "all-reduce");
        #[cfg(test)]
        stall(Phase::Share);
        let scale = 1.0 / size as f32;
        let (mut acc, mut partial) = ([0.0f32; FOLD_TILE], [0.0f32; FOLD_TILE]);
        // Every rank cuts the one length `n` alike, so the shares tile
        // the payload: no element is two ranks' to read or store.
        let (mut at, end) = (self.rank * n / size, (self.rank + 1) * n / size);
        while at < end {
            // The tile ends where the share, the fold tile or any rank's
            // run does, so each rank's part of it is one slice.
            let len = table.iter().fold((end - at).min(FOLD_TILE), |len, runs| {
                let r = runs.run(at);
                len.min(r.at + r.len - at)
            });
            let read = |rank: usize| {
                let r = table[rank].run(at);
                // SAFETY: reads elements `at..at + len` of rank `rank`'s
                // pieces, inside one of its runs.
                // - Valid: every rank published its runs this round (the
                //   round check above) from a `Pieces` it borrows until it
                //   returns, and no rank returns before the closing meet
                //   below, which this rank has not reached. The `Pieces`
                //   contract keeps that memory valid and untouched by its
                //   owner meanwhile.
                // - Published before read: each rank published, then took
                //   and released the gate in `meet`; no rank leaves `meet`
                //   before the last arrival has taken the gate, so every
                //   publish (and every write its owner made to its pieces
                //   before the call) happens before this read.
                // - Disjoint: the shares tile the payload (the length
                //   check above), and `at..at + len` lies in this rank's
                //   share, so no other rank reads or writes it in this
                //   round. These slices die inside `fold_tile`, before the
                //   stores below.
                // - No panic strands a peer: between the meets the only
                //   panics are the two checks above, which every rank
                //   makes on the same table before anyone writes, so
                //   either all ranks panic there or none does. Past them,
                //   every index is in bounds by construction (`at < n` on
                //   every rank, tiles within `FOLD_TILE`, slices of equal
                //   length), so no rank unwinds and frees its pieces while
                //   a peer can still write into them.
                unsafe { std::slice::from_raw_parts(r.ptr.add(at - r.at), len) }
            };
            let (acc, partial) = (&mut acc[..len], &mut partial[..len]);
            fold_tile(acc, partial, size, cols, read);
            acc.iter_mut().for_each(|v| *v *= scale);
            for runs in table.iter() {
                let r = runs.run(at);
                // SAFETY: as for the read above; this range of the rank's
                // pieces has no other reference until the store ends (the
                // read slices of it are gone). This rank takes the gate
                // in the closing meet after its last store, and no owner
                // leaves that meet before it, so every store happens
                // before every return.
                unsafe { std::slice::from_raw_parts_mut(r.ptr.add(at - r.at), len) }
                    .copy_from_slice(acc);
            }
            at += len;
        }
        drop(table);
        #[cfg(test)]
        stall(Phase::Close);
        self.meet();
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

/// Points of a round where a test can hold one rank back: before the
/// slot round's deposit and read, and before the owner round's share and
/// closing meet.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Deposit,
    Read,
    Share,
    Close,
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

    // SAFETY: the pieces are disjoint subslices of the borrowed `buf`,
    // cut at the same offsets on every call.
    unsafe impl Pieces for Cut<'_> {
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

    /// What the round tests run: the sum on the slot round, and the mean
    /// on the owner round over pieces cut at `[1, n/2, n/2, n − 1]` (an
    /// empty piece, and pieces that straddle fold tiles).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Op {
        Sum,
        Mean,
    }

    impl Op {
        fn run(self, h: &CommHandle, buf: &mut [f32], rows: usize, cols: usize) {
            let n = buf.len();
            let pieces = [1, n / 2, n / 2, n - 1];
            let mut cut = Cut { buf, cuts: &pieces };
            match self {
                Op::Sum => h.all_reduce_sum_grid(cut.buf, rows, cols),
                Op::Mean => h.all_reduce_mean_grid(&mut cut, rows, cols),
            }
        }

        /// What every rank holds once the ranks' `contribs` went through
        /// the operation.
        fn result(self, contribs: &[Vec<f32>], cols: usize) -> Vec<f32> {
            let sum = sequential_fold(contribs, cols);
            match self {
                Op::Sum => sum,
                Op::Mean => {
                    let scale = 1.0 / contribs.len() as f32;
                    sum.iter().map(|v| v * scale).collect()
                }
            }
        }
    }

    #[test]
    fn a_rank_held_back_at_any_phase_moves_no_bit() {
        // One rank sleeps before a phase while the others run ahead as far
        // as the round lets them: into the next round in the slot round
        // (held before its deposit or its read), up to the closing meet in
        // the owner round (held before its share or that meet). Three
        // rounds with different payloads: a slot rewritten too early shows
        // as another round's data. Every rank records its result bits the
        // moment a call returns and keeps its buffers alive until the
        // join, so a share stored after its owner returned shows as a
        // wrong result, not as a write into freed memory. A length within
        // one fold tile and one spanning several, summed and averaged.
        use std::time::Duration;
        let lengths = [7, 4 * FOLD_TILE + 3];
        let rounds = [
            (Op::Sum, [Phase::Deposit, Phase::Read]),
            (Op::Mean, [Phase::Share, Phase::Close]),
        ];
        for (world, cols) in [(2usize, 2usize), (3, 3), (4, 2)] {
            for n in lengths {
                for (op, phases) in rounds {
                    for phase in phases {
                        for slow in 0..world {
                            let results = run_replicas(world, move |h| {
                                if h.rank() == slow {
                                    STALL.set(Some((phase, Duration::from_millis(1))));
                                }
                                let mut kept = Vec::new();
                                let bits: Vec<Vec<u32>> = (0..3)
                                    .map(|round| {
                                        let mut buf = adversarial_payload(h.rank() + 10 * round, n);
                                        op.run(&h, &mut buf, world / cols, cols);
                                        let bits = buf.iter().map(|v| v.to_bits()).collect();
                                        kept.push(buf);
                                        bits
                                    })
                                    .collect();
                                (bits, kept)
                            });
                            for round in 0..3 {
                                let contribs: Vec<Vec<f32>> = (0..world)
                                    .map(|r| adversarial_payload(r + 10 * round, n))
                                    .collect();
                                let want: Vec<u32> = op
                                    .result(&contribs, cols)
                                    .iter()
                                    .map(|v| v.to_bits())
                                    .collect();
                                for (rank, (got, _)) in results.iter().enumerate() {
                                    assert!(
                                        got[round] == want,
                                        "world {world} n {n} {op:?} {phase:?} slow {slow} \
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
    fn a_mean_met_by_another_operation_panics_before_any_store() {
        // Rank 1 publishes in one owner round, frees that payload and
        // meets rank 0's next owner round with a barrier. Rank 0 finds
        // rank 1's entry from the earlier round (same length) and must
        // panic, not read or store through it, and its own payload is
        // unchanged. A rank 0 that went on would wait at the closing meet
        // for ever, so the verdict has a deadline.
        let mut handles = CommHandle::create(2);
        let (h1, h0) = (handles.pop().unwrap(), handles.pop().unwrap());
        let other = thread::spawn(move || {
            let mut buf = vec![1.0f32; 8];
            Op::Mean.run(&h1, &mut buf, 1, 2);
            drop(buf);
            h1.barrier();
        });
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let mut buf = vec![1.0f32; 8];
            Op::Mean.run(&h0, &mut buf, 1, 2);
            let mut again = vec![2.0f32; 8];
            let round = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Op::Mean.run(&h0, &mut again, 1, 2)
            }));
            tx.send((round.is_err(), again)).unwrap();
        });
        other.join().unwrap();
        let (panicked, again) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("rank 0 went past the check and waits at the closing meet");
        assert!(panicked, "a mean met by a barrier must panic");
        assert_eq!(again, vec![2.0; 8], "no store before the check");
    }

    /// Runs `round` on every rank of a world of `bufs.len()` over its
    /// buffer: each rank must panic, and no buffer may change.
    fn every_rank_panics_and_nothing_moves(
        bufs: &mut [Vec<f32>],
        round: impl Fn(&CommHandle, &mut Vec<f32>) + Sync,
        what: &str,
    ) {
        let before = bufs.to_vec();
        thread::scope(|s| {
            let joins: Vec<_> = CommHandle::create(bufs.len())
                .into_iter()
                .zip(&mut *bufs)
                .map(|(h, buf)| {
                    let round = &round;
                    s.spawn(move || round(&h, buf))
                })
                .collect();
            for j in joins {
                assert!(j.join().is_err(), "{what} must panic");
            }
        });
        assert_eq!(bufs, before, "{what}: a payload changed");
    }

    #[test]
    fn mismatched_lengths_panic_on_every_rank() {
        // Summed as one slice and averaged in pieces: every rank panics,
        // and no rank's payload has changed. The payloads outlive the
        // threads, so a store made before the check would show.
        for lens in [[3usize, 4], [4 * FOLD_TILE, 5]] {
            for op in [Op::Sum, Op::Mean] {
                let mut bufs: Vec<Vec<f32>> =
                    (0..2).map(|r| vec![r as f32 + 1.0; lens[r]]).collect();
                every_rank_panics_and_nothing_moves(
                    &mut bufs,
                    |h, buf| op.run(h, buf, 1, 2),
                    &format!("lengths {lens:?} {op:?}"),
                );
            }
        }
    }
}
