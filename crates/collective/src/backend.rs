//! The [`Collective`] trait and its four backends.
//!
//! Consumers (the trainer, BN sync, distributed eval, checkpoint
//! broadcast) talk to a `dyn Collective` and never to a concrete
//! communicator, so the transport can be swapped per experiment:
//!
//! - [`Backend::Tree`] — the deterministic publish-all communicator from
//!   [`crate::comm`]: every member deposits, the last arrival reduces,
//!   everyone reads. Latency scales with a logarithmic tree in the
//!   analytic model; bytes moved per member scale with the full payload.
//! - [`Backend::Ring`] — a pipelined ring over point-to-point channels:
//!   chunks flow down the chain 0 → 1 → … → p−1 accumulating as they go,
//!   then lap the ring back so every member reads the identical bytes.
//!   Each member only touches its own contribution (O(n) adds per member
//!   instead of the tree's O(p·n)).
//! - [`Backend::Torus2d`] — the hierarchical 2-D exchange from
//!   [`crate::hierarchical`]: reduce-scatter along torus rows, all-reduce
//!   down columns on `1/cols` of the payload, all-gather along rows. The
//!   grid is [`crate::topology::canonical_grid`] of the world size — a
//!   pure function of `p`, so after an elastic shrink every survivor
//!   re-selects the same sub-torus. Latency grows with `rows + cols`
//!   instead of the flat ring's `p` — the reason pods don't run one
//!   global ring.
//! - [`Backend::Auto`] — holds all three and picks per call via the α–β
//!   models in [`crate::cost`]: latency-bound payloads take the tree,
//!   bandwidth-bound ones the torus (or the flat ring when the world is
//!   prime). The choice depends only on payload size and world size, so
//!   every rank picks the same transport.
//!
//! **Every backend folds in the same canonical order** — the grid-blocked
//! ascending fold of [`CommHandle::all_reduce_sum_grid`] over the
//! canonical grid of the world (flat ascending fold when the grid has one
//! row). The tree reduces in that order directly, the ring's chain
//! carries a two-segment accumulator that reassociates block sums the
//! same way, and the torus's row/column phases compose to it. All four
//! backends are therefore **bitwise identical**: swapping backends cannot
//! perturb a training trajectory.
//!
//! All backends keep the steady state **allocation-free**: the tree and
//! torus use communicator-persistent round scratch, the ring recycles
//! message buffers through a per-member pool (each step sends one pooled
//! buffer and receives one from the left neighbor — the pool stays
//! balanced). Capacity-growth events are counted and exposed via
//! [`Collective::scratch_reallocs`]; tests pin the counter flat after
//! warmup.

use crate::comm::CommHandle;
use crate::cost::{auto_backend_choice, TPU_V3_LINK};
use crate::fault::CollectiveError;
use crate::hierarchical::{create_grid, GridMember};
use crate::topology::canonical_grid;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which collective transport an experiment uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Deterministic publish-all tree (seed-bitwise-compatible default).
    #[default]
    Tree,
    /// Bandwidth-optimal ring reduce-scatter + all-gather.
    Ring,
    /// Hierarchical 2-D torus: row reduce-scatter, column all-reduce,
    /// row all-gather over the canonical grid of the world size.
    Torus2d,
    /// Per-call tree/ring/torus choice via the α–β cost models.
    Auto,
}

impl Backend {
    /// Stable lowercase name (used in configs and reports).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Tree => "tree",
            Backend::Ring => "ring",
            Backend::Torus2d => "torus2d",
            Backend::Auto => "auto",
        }
    }

    /// All selectable backends, for sweeps and benches.
    pub const ALL: [Backend; 4] = [
        Backend::Tree,
        Backend::Ring,
        Backend::Torus2d,
        Backend::Auto,
    ];
}

impl std::str::FromStr for Backend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "tree" => Ok(Backend::Tree),
            "ring" => Ok(Backend::Ring),
            "torus2d" => Ok(Backend::Torus2d),
            "auto" => Ok(Backend::Auto),
            other => Err(format!(
                "unknown collective backend {other:?} (tree|ring|torus2d|auto)"
            )),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Byte/call counters, snapshotted per rank via [`Collective::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectiveStats {
    /// Completed `all_reduce_sum`/`all_reduce_mean` calls.
    pub all_reduce_calls: u64,
    /// Completed `all_gather` calls.
    pub all_gather_calls: u64,
    /// Completed `broadcast` calls.
    pub broadcast_calls: u64,
    /// Completed `barrier` calls.
    pub barrier_calls: u64,
    /// Total payload bytes handed to collectives (f32 count × 4), summed
    /// over all ops. This is the logical payload, not wire traffic — the
    /// ring moves `2·(p−1)/p` of it per member, the tree all of it.
    pub payload_bytes: u64,
}

impl CollectiveStats {
    /// Element-wise sum (used by the auto backend to merge its halves).
    pub fn merged(self, other: CollectiveStats) -> CollectiveStats {
        CollectiveStats {
            all_reduce_calls: self.all_reduce_calls + other.all_reduce_calls,
            all_gather_calls: self.all_gather_calls + other.all_gather_calls,
            broadcast_calls: self.broadcast_calls + other.broadcast_calls,
            barrier_calls: self.barrier_calls + other.barrier_calls,
            payload_bytes: self.payload_bytes + other.payload_bytes,
        }
    }

    /// Total collective calls of any kind.
    pub fn total_calls(&self) -> u64 {
        self.all_reduce_calls + self.all_gather_calls + self.broadcast_calls + self.barrier_calls
    }
}

#[derive(Default)]
struct StatsCell {
    all_reduce_calls: AtomicU64,
    all_gather_calls: AtomicU64,
    broadcast_calls: AtomicU64,
    barrier_calls: AtomicU64,
    payload_bytes: AtomicU64,
}

impl StatsCell {
    fn record(&self, counter: &AtomicU64, elems: usize) {
        counter.fetch_add(1, Ordering::Relaxed);
        self.payload_bytes
            .fetch_add(elems as u64 * 4, Ordering::Relaxed);
    }

    fn snapshot(&self) -> CollectiveStats {
        CollectiveStats {
            all_reduce_calls: self.all_reduce_calls.load(Ordering::Relaxed),
            all_gather_calls: self.all_gather_calls.load(Ordering::Relaxed),
            broadcast_calls: self.broadcast_calls.load(Ordering::Relaxed),
            barrier_calls: self.barrier_calls.load(Ordering::Relaxed),
            payload_bytes: self.payload_bytes.load(Ordering::Relaxed),
        }
    }
}

/// MPI-style collectives over a fixed group of `size` members.
///
/// One object per member; each is owned by exactly one replica thread but
/// must be `Send + Sync` so it can sit inside `Arc<dyn StatSync>` handed
/// to BN layers. All operations are **SPMD**: every member of the group
/// must call the same op in the same order with equal-length payloads.
///
/// Determinism contract: for a fixed backend, world size, and inputs, every
/// operation produces bitwise-identical output on every rank, on every run,
/// regardless of thread scheduling.
pub trait Collective: Send + Sync {
    /// This member's rank within the group.
    fn rank(&self) -> usize;
    /// Number of members.
    fn size(&self) -> usize;
    /// Which backend this object runs.
    fn backend(&self) -> Backend;

    /// In-place sum across all members, deterministic reduction order.
    fn all_reduce_sum(&self, buf: &mut [f32]);

    /// In-place mean across all members.
    fn all_reduce_mean(&self, buf: &mut [f32]) {
        self.all_reduce_sum(buf);
        let inv = 1.0 / self.size() as f32;
        for v in buf.iter_mut() {
            *v *= inv;
        }
    }

    /// Gathers every member's `local` into `out`, concatenated in rank
    /// order. `out` is cleared and refilled; reusing the same `out` keeps
    /// the steady state allocation-free.
    fn all_gather(&self, local: &[f32], out: &mut Vec<f32>);

    /// Broadcast from `root`: on return every member's `buf` holds root's.
    fn broadcast(&self, buf: &mut [f32], root: usize);

    /// Returns once every member has arrived.
    fn barrier(&self);

    /// Fallible all-reduce: validates the payload and returns a typed
    /// error instead of panicking on degenerate input. Decorators (e.g.
    /// [`crate::fault::FaultyCollective`]) override this to inject
    /// transient failures **before** the payload touches the transport,
    /// so a failed attempt never partially mutates `buf` and every rank
    /// observes the same outcome (the SPMD contract holds).
    fn try_all_reduce_sum(&self, buf: &mut [f32]) -> Result<(), CollectiveError> {
        if buf.is_empty() {
            return Err(CollectiveError::EmptyPayload {
                op: "all_reduce_sum",
            });
        }
        self.all_reduce_sum(buf);
        Ok(())
    }

    /// Fallible broadcast: typed errors for out-of-range roots and empty
    /// payloads instead of panics.
    fn try_broadcast(&self, buf: &mut [f32], root: usize) -> Result<(), CollectiveError> {
        if root >= self.size() {
            return Err(CollectiveError::InvalidRoot {
                root,
                size: self.size(),
            });
        }
        if buf.is_empty() {
            return Err(CollectiveError::EmptyPayload { op: "broadcast" });
        }
        self.broadcast(buf, root);
        Ok(())
    }

    /// Fallible all-gather: typed error on an empty local block.
    fn try_all_gather(&self, local: &[f32], out: &mut Vec<f32>) -> Result<(), CollectiveError> {
        if local.is_empty() {
            return Err(CollectiveError::EmptyPayload { op: "all_gather" });
        }
        self.all_gather(local, out);
        Ok(())
    }

    /// This member's byte/call counters.
    fn stats(&self) -> CollectiveStats;

    /// Scratch-buffer capacity growths since creation. Flat after warmup
    /// ⇒ the steady state allocates nothing.
    fn scratch_reallocs(&self) -> u64;
}

/// Creates one [`Collective`] per member for a world of `size` ranks.
///
/// Index = rank. All three backends are safe to mix across *different*
/// worlds; within one world every member runs the same backend (the
/// factory guarantees it).
pub fn create_collective(backend: Backend, size: usize) -> Vec<Box<dyn Collective>> {
    assert!(size >= 1, "collective needs at least one member");
    match backend {
        Backend::Tree => CommHandle::create(size)
            .into_iter()
            .map(|h| Box::new(TreeCollective::new(h)) as Box<dyn Collective>)
            .collect(),
        Backend::Ring => create_ring_collectives(size)
            .into_iter()
            .map(|r| Box::new(r) as Box<dyn Collective>)
            .collect(),
        Backend::Torus2d => create_torus_collectives(size)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Collective>)
            .collect(),
        Backend::Auto => {
            // The torus member is only built when the canonical grid is
            // genuinely 2-D; on prime worlds the cost model never picks it.
            let (rows, _) = canonical_grid(size);
            let torus: Vec<Option<Torus2dCollective>> = if rows > 1 {
                create_torus_collectives(size)
                    .into_iter()
                    .map(Some)
                    .collect()
            } else {
                (0..size).map(|_| None).collect()
            };
            CommHandle::create(size)
                .into_iter()
                .zip(create_ring_collectives(size))
                .zip(torus)
                .map(|((h, r), t)| {
                    Box::new(AutoCollective {
                        tree: TreeCollective::new(h),
                        ring: r,
                        torus: t,
                    }) as Box<dyn Collective>
                })
                .collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Tree backend: thin stats-counting wrapper over the zero-alloc CommHandle.
// ---------------------------------------------------------------------------

/// Deterministic publish-all tree backend. Reduces in the canonical
/// grid-blocked ascending order for its world size, so it stays bitwise
/// identical to the ring and torus backends.
pub struct TreeCollective {
    handle: CommHandle,
    /// Canonical fold shape for this world (flat fold when rows == 1).
    fold: (usize, usize),
    stats: StatsCell,
}

impl TreeCollective {
    /// Wraps one member's communicator handle.
    pub fn new(handle: CommHandle) -> Self {
        let fold = canonical_grid(handle.size());
        TreeCollective {
            handle,
            fold,
            stats: StatsCell::default(),
        }
    }
}

impl Collective for TreeCollective {
    fn rank(&self) -> usize {
        self.handle.rank()
    }
    fn size(&self) -> usize {
        self.handle.size()
    }
    fn backend(&self) -> Backend {
        Backend::Tree
    }
    fn all_reduce_sum(&self, buf: &mut [f32]) {
        self.stats.record(&self.stats.all_reduce_calls, buf.len());
        let (rows, cols) = self.fold;
        self.handle.all_reduce_sum_grid(buf, rows, cols);
    }
    fn all_gather(&self, local: &[f32], out: &mut Vec<f32>) {
        self.stats.record(&self.stats.all_gather_calls, local.len());
        self.handle.all_gather_into(local, out);
    }
    fn broadcast(&self, buf: &mut [f32], root: usize) {
        self.stats.record(&self.stats.broadcast_calls, buf.len());
        self.handle.broadcast(buf, root);
    }
    fn barrier(&self) {
        self.stats.record(&self.stats.barrier_calls, 0);
        self.handle.barrier();
    }
    fn stats(&self) -> CollectiveStats {
        self.stats.snapshot()
    }
    fn scratch_reallocs(&self) -> u64 {
        self.handle.scratch_reallocs()
    }
}

// ---------------------------------------------------------------------------
// Ring backend: reduce-scatter + all-gather with pooled message buffers.
// ---------------------------------------------------------------------------

/// Per-member recycled buffers. Each send pops one, each receive pushes
/// one back (message buffers circulate forward around the ring, so the
/// pool stays balanced); after warmup no step allocates.
struct RingScratch {
    pool: Vec<Vec<f32>>,
    /// Per-rank blocks for `all_gather` (index = source rank).
    blocks: Vec<Vec<f32>>,
    reallocs: u64,
}

/// Takes a pooled buffer with at least `cap` capacity (best fit — pools
/// hold at most a handful of buffers), growing one and counting the
/// growth only when nothing in the pool is large enough.
fn pooled(pool: &mut Vec<Vec<f32>>, reallocs: &mut u64, cap: usize) -> Vec<f32> {
    let fit = pool.iter().position(|b| b.capacity() >= cap);
    let mut b = match fit {
        Some(i) => pool.swap_remove(i),
        None => pool.pop().unwrap_or_default(),
    };
    b.clear();
    if b.capacity() < cap {
        *reallocs += 1;
        // `b` is empty, so this reserves a capacity of exactly `cap`.
        b.reserve_exact(cap);
    }
    b
}

/// Pipelined ring backend whose reduction uses the canonical
/// ascending-rank fold (bitwise identical to [`TreeCollective`]).
pub struct RingCollective {
    rank: usize,
    size: usize,
    /// Block width of the canonical grid fold (== `size` when the
    /// canonical grid has one row, making the fold flat).
    fold_cols: usize,
    to_right: Sender<Vec<f32>>,
    from_left: Receiver<Vec<f32>>,
    scratch: Mutex<RingScratch>,
    stats: StatsCell,
}

/// Creates the ring world: member `r` sends to `(r+1) % size`.
pub fn create_ring_collectives(size: usize) -> Vec<RingCollective> {
    assert!(size >= 1);
    let mut senders = Vec::with_capacity(size);
    let mut receivers = Vec::with_capacity(size);
    for _ in 0..size {
        // Unbounded so rank 0 can feed a whole round's chunks into the
        // pipeline before turning around to drain the broadcast lap; the
        // in-flight volume is bounded by the payload itself.
        let (tx, rx) = unbounded::<Vec<f32>>();
        senders.push(tx);
        receivers.push(rx);
    }
    let mut receivers: Vec<Option<Receiver<Vec<f32>>>> = receivers.into_iter().map(Some).collect();
    let fold_cols = canonical_grid(size).1;
    (0..size)
        .map(|rank| RingCollective {
            rank,
            size,
            fold_cols,
            to_right: senders[(rank + 1) % size].clone(),
            from_left: receivers[rank].take().unwrap(),
            scratch: Mutex::new(RingScratch {
                pool: Vec::new(),
                blocks: (0..size).map(|_| Vec::new()).collect(),
                reallocs: 0,
            }),
            stats: StatsCell::default(),
        })
        .collect()
}

impl RingCollective {
    /// Chunk `c` of an `n`-element buffer covers `bounds(c, n).0 ..
    /// bounds(c, n).1`; the first `n % size` chunks get one extra element.
    fn bounds(&self, chunk: usize, n: usize) -> (usize, usize) {
        let p = self.size;
        let base = n / p;
        let rem = n % p;
        let start = chunk * base + chunk.min(rem);
        let len = base + usize::from(chunk < rem);
        (start, start + len)
    }

    fn send(&self, msg: Vec<f32>) {
        self.to_right.send(msg).expect("ring peer hung up");
    }

    fn recv(&self) -> Vec<f32> {
        self.from_left.recv().expect("ring peer hung up")
    }
}

impl Collective for RingCollective {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.size
    }
    fn backend(&self) -> Backend {
        Backend::Ring
    }

    /// Pipelined ring all-reduce with the **canonical grid-blocked
    /// fold**: chunk `c` (remainder-first bounds) enters the chain at
    /// rank 0 and flows 0 → 1 → … → p−1. The message carries a running
    /// block-sum accumulator plus, inside each block of `fold_cols`
    /// consecutive ranks, an in-progress block partial: block heads open
    /// a fresh partial segment, interiors fold their term into it in
    /// ascending rank order, and block tails fold the finished partial
    /// into the accumulator. The result reassociates exactly like
    /// [`CommHandle::all_reduce_sum_grid`], so the ring stays **bitwise
    /// identical** to the tree and torus backends (a flat ascending fold
    /// when the canonical grid has one row). The finalized chunk then
    /// laps the ring (p−1 → 0 → … → p−1 → 0) so every member copies the
    /// identical bytes and the message buffer lands back in rank 0's
    /// pool (every member's pool stays balanced; after warmup no round
    /// allocates).
    fn all_reduce_sum(&self, buf: &mut [f32]) {
        self.stats.record(&self.stats.all_reduce_calls, buf.len());
        let p = self.size;
        if p == 1 {
            return;
        }
        let n = buf.len();
        let chunks = p; // pipeline granularity: one chunk per member
        let cols = self.fold_cols;
        let mut sc = self.scratch.lock();
        let RingScratch { pool, reallocs, .. } = &mut *sc;
        if self.rank == 0 {
            // Head of the chain: feed raw chunks in ascending order…
            for c in 0..chunks {
                let (a, b) = self.bounds(c, n);
                let mut msg = pooled(pool, reallocs, b - a);
                msg.extend_from_slice(&buf[a..b]);
                self.send(msg);
            }
            // …then copy each finalized chunk and forward it onward…
            for c in 0..chunks {
                let m = self.recv();
                let (a, b) = self.bounds(c, n);
                assert_eq!(m.len(), b - a, "mismatched all-reduce lengths");
                buf[a..b].copy_from_slice(&m);
                self.send(m);
            }
            // …and recycle the buffers when the lap completes.
            for _ in 0..chunks {
                let m = self.recv();
                pool.push(m);
            }
        } else {
            let block = self.rank / cols;
            let pos = self.rank % cols;
            for c in 0..chunks {
                let mut m = self.recv();
                let (a, b) = self.bounds(c, n);
                let l = b - a;
                if block == 0 {
                    // Inside the first block the message is the bare
                    // running partial — fold own term in.
                    assert_eq!(m.len(), l, "mismatched all-reduce lengths");
                    for (acc, &x) in m.iter_mut().zip(&buf[a..b]) {
                        *acc += x;
                    }
                } else if pos == 0 {
                    // Block head: the finalized accumulator over blocks
                    // 0..block arrives; open this block's partial segment
                    // behind it. The buffer grows to 2·l once during
                    // warmup and keeps that capacity as it circulates.
                    assert_eq!(m.len(), l, "mismatched all-reduce lengths");
                    if m.capacity() < 2 * l {
                        *reallocs += 1;
                    }
                    m.extend_from_slice(&buf[a..b]);
                } else {
                    // Interior or tail of a later block: fold own term
                    // into the partial segment…
                    assert_eq!(m.len(), 2 * l, "mismatched all-reduce lengths");
                    let (acc, part) = m.split_at_mut(l);
                    for (pp, &x) in part.iter_mut().zip(&buf[a..b]) {
                        *pp += x;
                    }
                    // …and at the tail fold the finished block sum into
                    // the accumulator (ascending block order).
                    if pos == cols - 1 {
                        for (aa, &pp) in acc.iter_mut().zip(part.iter()) {
                            *aa += pp;
                        }
                        m.truncate(l);
                    }
                }
                if self.rank == p - 1 {
                    // Final tail: the fold is complete; keep the result
                    // and start the broadcast lap.
                    buf[a..b].copy_from_slice(&m[..l]);
                }
                self.send(m);
            }
            if self.rank < p - 1 {
                // Broadcast lap: copy the finalized chunk, pass it on.
                for c in 0..chunks {
                    let m = self.recv();
                    let (a, b) = self.bounds(c, n);
                    buf[a..b].copy_from_slice(&m);
                    self.send(m);
                }
            } else {
                // Forward the returning buffers to rank 0's pool.
                for _ in 0..chunks {
                    let m = self.recv();
                    self.send(m);
                }
            }
        }
    }

    /// Ring all-gather: every member's block circulates `p−1` steps.
    /// Blocks may have different lengths (messages carry their own size).
    fn all_gather(&self, local: &[f32], out: &mut Vec<f32>) {
        self.stats.record(&self.stats.all_gather_calls, local.len());
        let p = self.size;
        if p == 1 {
            out.clear();
            out.extend_from_slice(local);
            return;
        }
        let mut sc = self.scratch.lock();
        let RingScratch {
            pool,
            blocks,
            reallocs,
        } = &mut *sc;
        {
            let mine = &mut blocks[self.rank];
            if mine.capacity() < local.len() {
                *reallocs += 1;
            }
            mine.clear();
            mine.extend_from_slice(local);
        }
        for s in 0..p - 1 {
            let send_idx = (self.rank + p - s) % p;
            let mut msg = pooled(pool, reallocs, blocks[send_idx].len());
            msg.extend_from_slice(&blocks[send_idx]);
            self.send(msg);
            let incoming = self.recv();
            let recv_idx = (self.rank + p - s - 1) % p;
            // Keep the received block; recycle the one it displaces.
            let displaced = std::mem::replace(&mut blocks[recv_idx], incoming);
            pool.push(displaced);
        }
        out.clear();
        for block in blocks.iter() {
            out.extend_from_slice(block);
        }
    }

    /// Ring broadcast: the payload makes one full lap starting at `root`
    /// so the message buffer returns to the root's pool (keeps every
    /// member's pool balanced — no rank leaks or hoards buffers).
    fn broadcast(&self, buf: &mut [f32], root: usize) {
        assert!(root < self.size, "broadcast root out of range");
        self.stats.record(&self.stats.broadcast_calls, buf.len());
        if self.size == 1 {
            return;
        }
        if self.rank == root {
            let mut sc = self.scratch.lock();
            let RingScratch { pool, reallocs, .. } = &mut *sc;
            let mut msg = pooled(pool, reallocs, buf.len());
            msg.extend_from_slice(buf);
            drop(sc);
            self.send(msg);
            let returned = self.recv();
            self.scratch.lock().pool.push(returned);
        } else {
            let incoming = self.recv();
            assert_eq!(incoming.len(), buf.len(), "mismatched broadcast lengths");
            buf.copy_from_slice(&incoming);
            self.send(incoming);
        }
    }

    /// Token lap: rank `r`'s final receive transitively depends on every
    /// member's first send, so no member returns before all have arrived.
    fn barrier(&self) {
        self.stats.record(&self.stats.barrier_calls, 0);
        let p = self.size;
        if p == 1 {
            return;
        }
        for _ in 0..p - 1 {
            let token = {
                let mut sc = self.scratch.lock();
                let RingScratch { pool, reallocs, .. } = &mut *sc;
                pooled(pool, reallocs, 0)
            };
            self.send(token);
            let incoming = self.recv();
            self.scratch.lock().pool.push(incoming);
        }
    }

    fn stats(&self) -> CollectiveStats {
        self.stats.snapshot()
    }

    fn scratch_reallocs(&self) -> u64 {
        self.scratch.lock().reallocs
    }
}

// ---------------------------------------------------------------------------
// Torus-2d backend: hierarchical row/column exchange over the canonical grid.
// ---------------------------------------------------------------------------

/// Hierarchical 2-D torus backend: all operations compose per-row and
/// per-column exchanges over the [`canonical_grid`] of the world size.
/// The all-reduce is [`GridMember::all_reduce_sum`] — a true row
/// reduce-scatter, column all-reduce, row all-gather — whose two
/// ascending folds compose to the canonical grid-blocked fold, keeping
/// it bitwise identical to the tree and ring backends.
pub struct Torus2dCollective {
    grid: GridMember,
    /// Persistent row-gather staging buffer for `all_gather`.
    gather: Mutex<Vec<f32>>,
    stats: StatsCell,
}

/// Creates the torus world for `size` ranks over its canonical grid
/// (row-major: rank = row_index · cols + col_index).
pub fn create_torus_collectives(size: usize) -> Vec<Torus2dCollective> {
    assert!(size >= 1);
    let (rows, cols) = canonical_grid(size);
    create_grid(rows, cols)
        .into_iter()
        .map(|grid| Torus2dCollective {
            grid,
            gather: Mutex::new(Vec::new()),
            stats: StatsCell::default(),
        })
        .collect()
}

impl Torus2dCollective {
    /// The grid this world routes over.
    pub fn shape(&self) -> (usize, usize) {
        self.grid.shape()
    }
}

impl Collective for Torus2dCollective {
    fn rank(&self) -> usize {
        self.grid.global_rank()
    }
    fn size(&self) -> usize {
        let (rows, cols) = self.grid.shape();
        rows * cols
    }
    fn backend(&self) -> Backend {
        Backend::Torus2d
    }

    fn all_reduce_sum(&self, buf: &mut [f32]) {
        self.stats.record(&self.stats.all_reduce_calls, buf.len());
        self.grid.all_reduce_sum(buf);
    }

    /// Two-level gather: the row concatenates its members' blocks (rank
    /// order within the row), then the column concatenates the row
    /// blocks (ascending row order) — row-major, i.e. global rank order.
    fn all_gather(&self, local: &[f32], out: &mut Vec<f32>) {
        self.stats.record(&self.stats.all_gather_calls, local.len());
        let mut row_block = self.gather.lock();
        self.grid.row.all_gather_into(local, &mut row_block);
        self.grid.col.all_gather_into(&row_block, out);
    }

    /// Root's column fans the payload out vertically (only that column
    /// participates — per-communicator SPMD holds because each column is
    /// its own communicator), then every row fans it out horizontally.
    fn broadcast(&self, buf: &mut [f32], root: usize) {
        assert!(root < self.size(), "broadcast root out of range");
        self.stats.record(&self.stats.broadcast_calls, buf.len());
        let (_, cols) = self.grid.shape();
        let (root_row, root_col) = (root / cols, root % cols);
        if self.grid.row.rank() == root_col {
            self.grid.col.broadcast(buf, root_row);
        }
        self.grid.row.broadcast(buf, root_col);
    }

    /// Row barrier then column barrier: after the row phase every member
    /// of each row has arrived; the column phase transitively covers all
    /// rows, so no member returns before the whole grid has arrived.
    fn barrier(&self) {
        self.stats.record(&self.stats.barrier_calls, 0);
        self.grid.row.barrier();
        self.grid.col.barrier();
    }

    fn stats(&self) -> CollectiveStats {
        self.stats.snapshot()
    }

    fn scratch_reallocs(&self) -> u64 {
        self.grid.shard_reallocs()
            + self.grid.row.scratch_reallocs()
            + self.grid.col.scratch_reallocs()
    }
}

// ---------------------------------------------------------------------------
// Auto backend: per-call tree/ring/torus choice via the α–β cost models.
// ---------------------------------------------------------------------------

/// Routes each call to tree, ring, or torus by payload size via
/// [`auto_backend_choice`]. The decision is a pure function of
/// `(payload bytes, world size)`, so every rank makes the same choice
/// and the group never splits across transports.
pub struct AutoCollective {
    tree: TreeCollective,
    ring: RingCollective,
    /// Only built when the canonical grid is 2-D (`None` on prime and
    /// tiny worlds, where the cost model never picks the torus).
    torus: Option<Torus2dCollective>,
}

impl AutoCollective {
    /// Which backend a payload of `elems` f32s takes.
    pub fn chosen(&self, elems: usize) -> Backend {
        let choice = auto_backend_choice((elems * 4) as f64, self.tree.size(), TPU_V3_LINK);
        match choice {
            Backend::Torus2d if self.torus.is_none() => Backend::Ring,
            other => other,
        }
    }

    fn route(&self, elems: usize) -> &dyn Collective {
        match self.chosen(elems) {
            Backend::Ring => &self.ring,
            Backend::Torus2d => self.torus.as_ref().expect("torus chosen only when built"),
            _ => &self.tree,
        }
    }
}

impl Collective for AutoCollective {
    fn rank(&self) -> usize {
        self.tree.rank()
    }
    fn size(&self) -> usize {
        self.tree.size()
    }
    fn backend(&self) -> Backend {
        Backend::Auto
    }
    fn all_reduce_sum(&self, buf: &mut [f32]) {
        self.route(buf.len()).all_reduce_sum(buf);
    }
    fn all_gather(&self, local: &[f32], out: &mut Vec<f32>) {
        self.route(local.len()).all_gather(local, out);
    }
    fn broadcast(&self, buf: &mut [f32], root: usize) {
        self.route(buf.len()).broadcast(buf, root);
    }
    fn barrier(&self) {
        // Latency-bound by construction: always the tree.
        self.tree.barrier();
    }
    fn stats(&self) -> CollectiveStats {
        let base = self.tree.stats().merged(self.ring.stats());
        match &self.torus {
            Some(t) => base.merged(t.stats()),
            None => base,
        }
    }
    fn scratch_reallocs(&self) -> u64 {
        self.tree.scratch_reallocs()
            + self.ring.scratch_reallocs()
            + self.torus.as_ref().map_or(0, |t| t.scratch_reallocs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_world<F, R>(world: Vec<Box<dyn Collective>>, f: F) -> Vec<R>
    where
        F: Fn(Box<dyn Collective>) -> R + Send + Sync + Clone + 'static,
        R: Send + 'static,
    {
        let joins: Vec<_> = world
            .into_iter()
            .map(|c| {
                let f = f.clone();
                thread::spawn(move || f(c))
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    }

    fn seed_buf(rank: usize, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((rank * 37 + i * 13) % 101) as f32 * 0.125 - 6.0)
            .collect()
    }

    fn all_reduce_results(backend: Backend, p: usize, n: usize) -> Vec<Vec<f32>> {
        run_world(create_collective(backend, p), move |c| {
            let mut buf = seed_buf(c.rank(), n);
            c.all_reduce_sum(&mut buf);
            buf
        })
    }

    #[test]
    fn backends_agree_within_tolerance() {
        for &p in &[1usize, 2, 3, 4, 8] {
            for &n in &[1usize, 7, 64, 1000] {
                let tree = all_reduce_results(Backend::Tree, p, n);
                let ring = all_reduce_results(Backend::Ring, p, n);
                let torus = all_reduce_results(Backend::Torus2d, p, n);
                let auto = all_reduce_results(Backend::Auto, p, n);
                for r in 0..p {
                    for i in 0..n {
                        assert!(
                            (tree[r][i] - ring[r][i]).abs() < 1e-5,
                            "p={p} n={n} rank={r} i={i}: tree {} vs ring {}",
                            tree[r][i],
                            ring[r][i]
                        );
                        assert!((tree[r][i] - torus[r][i]).abs() < 1e-5);
                        assert!((tree[r][i] - auto[r][i]).abs() < 1e-5);
                    }
                }
            }
        }
    }

    #[test]
    fn ring_and_torus_are_bitwise_identical_to_tree() {
        // The canonical grid-blocked fold: all backends associate sums
        // identically, so swapping backends cannot perturb a training
        // trajectory — the trainer's backend-equivalence acceptance
        // rests on this. Worlds cover flat folds (1–3), square and
        // rectangular grids (4, 8, 16), and n values that leave uneven
        // ring chunks and empty torus shards.
        for &p in &[1usize, 2, 3, 4, 8, 16] {
            for &n in &[1usize, 7, 64, 1000] {
                let tree = all_reduce_results(Backend::Tree, p, n);
                let ring = all_reduce_results(Backend::Ring, p, n);
                let torus = all_reduce_results(Backend::Torus2d, p, n);
                assert_eq!(tree, ring, "p={p} n={n}: ring broke the canonical fold");
                assert_eq!(tree, torus, "p={p} n={n}: torus broke the canonical fold");
            }
        }
    }

    #[test]
    fn every_backend_is_cross_replica_bitwise_identical() {
        for backend in Backend::ALL {
            let results = all_reduce_results(backend, 4, 37);
            for r in 1..4 {
                assert_eq!(
                    results[0], results[r],
                    "{backend} rank {r} diverged from rank 0"
                );
            }
        }
    }

    #[test]
    fn every_backend_is_run_to_run_bitwise_reproducible() {
        for backend in Backend::ALL {
            let a = all_reduce_results(backend, 4, 129);
            let b = all_reduce_results(backend, 4, 129);
            assert_eq!(a, b, "{backend} not reproducible across runs");
        }
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        for backend in Backend::ALL {
            let p = 4;
            let results = run_world(create_collective(backend, p), move |c| {
                let local = vec![c.rank() as f32; 3];
                let mut out = Vec::new();
                c.all_gather(&local, &mut out);
                out
            });
            let expected: Vec<f32> = (0..p).flat_map(|r| vec![r as f32; 3]).collect();
            for r in results {
                assert_eq!(r, expected, "{backend}");
            }
        }
    }

    #[test]
    fn broadcast_distributes_roots_payload() {
        for backend in Backend::ALL {
            let results = run_world(create_collective(backend, 4), move |c| {
                let mut buf = if c.rank() == 2 {
                    vec![3.5, -1.25, 8.0]
                } else {
                    vec![0.0; 3]
                };
                c.broadcast(&mut buf, 2);
                buf
            });
            for r in results {
                assert_eq!(r, vec![3.5, -1.25, 8.0], "{backend}");
            }
        }
    }

    #[test]
    fn barrier_and_sequenced_ops_interleave_safely() {
        for backend in Backend::ALL {
            let results = run_world(create_collective(backend, 3), move |c| {
                let mut buf = vec![c.rank() as f32 + 1.0];
                c.barrier();
                c.all_reduce_sum(&mut buf);
                c.barrier();
                let mut out = Vec::new();
                c.all_gather(&buf, &mut out);
                out
            });
            for r in results {
                assert_eq!(r, vec![6.0, 6.0, 6.0], "{backend}");
            }
        }
    }

    #[test]
    fn stats_count_calls_and_bytes() {
        for backend in Backend::ALL {
            let results = run_world(create_collective(backend, 2), move |c| {
                let mut buf = vec![1.0; 10];
                c.all_reduce_sum(&mut buf);
                c.all_reduce_mean(&mut buf);
                let mut out = Vec::new();
                c.all_gather(&buf[..5], &mut out);
                c.broadcast(&mut buf, 0);
                c.barrier();
                c.stats()
            });
            for s in results {
                assert_eq!(s.all_reduce_calls, 2, "{backend}");
                assert_eq!(s.all_gather_calls, 1, "{backend}");
                assert_eq!(s.broadcast_calls, 1, "{backend}");
                assert_eq!(s.barrier_calls, 1, "{backend}");
                // 10 + 10 + 5 + 10 elements × 4 bytes.
                assert_eq!(s.payload_bytes, 35 * 4, "{backend}");
            }
        }
    }

    #[test]
    fn ring_steady_state_does_not_reallocate() {
        let results = run_world(create_collective(Backend::Ring, 4), move |c| {
            let mut buf = seed_buf(c.rank(), 257);
            let mut out = Vec::new();
            let round = |buf: &mut Vec<f32>, out: &mut Vec<f32>| {
                c.all_reduce_sum(buf);
                c.all_gather(&buf[..64], out);
                c.broadcast(buf, 1);
                c.barrier();
            };
            // Warm up generously: pool buffers migrate forward around the
            // ring, so capacity upgrades can trickle in for a few rounds
            // after the first. Upgrades are bounded by the (tiny) pool
            // population, so a fixed warmup reaches the plateau. The
            // warmup length must be identical on every rank — collectives
            // are SPMD, and a data-dependent round count would deadlock.
            for _ in 0..20 {
                round(&mut buf, &mut out);
            }
            let warm = c.scratch_reallocs();
            for _ in 0..100 {
                round(&mut buf, &mut out);
            }
            (warm, c.scratch_reallocs())
        });
        for (warm, steady) in results {
            assert_eq!(warm, steady, "ring backend allocated after warmup");
        }
    }

    #[test]
    fn auto_routes_by_payload_and_world_shape() {
        // Composite world: small payloads are latency-bound (tree);
        // large ones are bandwidth-bound, and the canonical grid's
        // 2(rows+cols−2) hops beat the flat ring's 2(p−1) — torus.
        let tree = CommHandle::create(8).remove(0);
        let ring = create_ring_collectives(8).remove(0);
        let torus = create_torus_collectives(8).remove(0);
        let auto = AutoCollective {
            tree: TreeCollective::new(tree),
            ring,
            torus: Some(torus),
        };
        assert_eq!(auto.chosen(1), Backend::Tree);
        assert_eq!(auto.chosen(25_000_000), Backend::Torus2d);
        // Prime world: no 2-D grid exists, so large payloads fall back
        // to the flat ring (and the factory builds no torus member).
        let tree = CommHandle::create(7).remove(0);
        let ring = create_ring_collectives(7).remove(0);
        let auto = AutoCollective {
            tree: TreeCollective::new(tree),
            ring,
            torus: None,
        };
        assert_eq!(auto.chosen(1), Backend::Tree);
        assert_eq!(auto.chosen(25_000_000), Backend::Ring);
    }

    #[test]
    fn torus_shape_is_the_canonical_grid() {
        for p in [1usize, 2, 4, 6, 8, 12, 16] {
            let world = create_torus_collectives(p);
            assert_eq!(world.len(), p);
            for (rank, t) in world.iter().enumerate() {
                assert_eq!(t.shape(), canonical_grid(p), "p={p}");
                assert_eq!(t.rank(), rank, "row-major rank order");
                assert_eq!(t.size(), p);
            }
        }
    }

    #[test]
    fn torus_steady_state_does_not_reallocate() {
        let results = run_world(create_collective(Backend::Torus2d, 4), move |c| {
            let mut buf = seed_buf(c.rank(), 257);
            let mut out = Vec::new();
            let round = |buf: &mut Vec<f32>, out: &mut Vec<f32>| {
                c.all_reduce_sum(buf);
                c.all_gather(&buf[..64], out);
                c.broadcast(buf, 1);
                c.barrier();
            };
            for _ in 0..5 {
                round(&mut buf, &mut out);
            }
            let warm = c.scratch_reallocs();
            for _ in 0..100 {
                round(&mut buf, &mut out);
            }
            (warm, c.scratch_reallocs())
        });
        for (warm, steady) in results {
            assert_eq!(warm, steady, "torus backend allocated after warmup");
        }
    }

    #[test]
    fn size_one_worlds_are_identity() {
        for backend in Backend::ALL {
            let mut world = create_collective(backend, 1);
            let c = world.pop().unwrap();
            let mut buf = vec![2.0, 4.0];
            c.all_reduce_sum(&mut buf);
            assert_eq!(buf, vec![2.0, 4.0]);
            c.all_reduce_mean(&mut buf);
            assert_eq!(buf, vec![2.0, 4.0]);
            let mut out = Vec::new();
            c.all_gather(&buf, &mut out);
            assert_eq!(out, vec![2.0, 4.0]);
            c.broadcast(&mut buf, 0);
            c.barrier();
        }
    }

    #[test]
    fn backend_round_trips_through_str() {
        for backend in Backend::ALL {
            let name = backend.name();
            assert_eq!(name.parse::<Backend>().unwrap(), backend);
        }
        assert!("mesh".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::Tree);
    }
}
