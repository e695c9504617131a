//! The [`Collective`] trait and the one in-process collective behind it.
//!
//! Consumers (the trainer, BN sync, distributed eval, checkpoint
//! broadcast) talk to a `dyn Collective` and never to a concrete
//! communicator.
//!
//! [`Backend`] names the all-reduce *schedule* a pod runs: a tree, a
//! ring, the 2-D torus exchange, or per payload the cheapest of them
//! (`Auto`). Which one wins is a property of the pod's links, so
//! [`Schedule::for_backend`](crate::Schedule::for_backend) turns the
//! label into a schedule that [`crate::cost`] prices and `ets-tpu-sim`'s
//! `netsim` runs step by step. Replica threads share memory, so in this
//! process every `Backend` runs the same
//! [communicator rounds](crate::comm): a sum is folded by every rank from
//! the deposited slots, a mean by each rank for its share straight from
//! every rank's pieces, both in the **canonical grid-blocked order** —
//! [`CommHandle::all_reduce_sum_grid`] over [`canonical_grid`] of the
//! world, the order the torus exchange composes to (flat ascending when
//! the grid has one row). Results are
//! therefore bitwise identical whichever `Backend` an experiment names,
//! and [`Collective::backend`] only reports the label it was built with.
//!
//! The steady state is **allocation-free**: the slot round reuses
//! persistent per-rank slots and the owner round has none. Capacity-growth
//! events are counted and exposed via [`Collective::scratch_reallocs`];
//! tests pin the counter flat after warmup.

use crate::comm::{CommHandle, Pieces};
use crate::fault::CollectiveError;
use crate::topology::canonical_grid;
use std::sync::atomic::{AtomicU64, Ordering};

/// The name of an all-reduce schedule:
/// [`Schedule::for_backend`](crate::Schedule::for_backend) reads it. In process every value runs the same communicator round
/// ([`create_collective`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Reduce and broadcast trees: `2·⌈log₂ p⌉` hops, each moving the
    /// whole payload (the seed default).
    #[default]
    Tree,
    /// Bandwidth-optimal ring reduce-scatter + all-gather.
    Ring,
    /// Hierarchical 2-D torus: row reduce-scatter, column all-reduce,
    /// row all-gather over the canonical grid of the world size.
    Torus2d,
    /// Per payload, the cheapest of the three by the α–β cost models.
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
    /// Completed `all_reduce_sum`/`try_all_reduce_mean` calls.
    pub all_reduce_calls: u64,
    /// Completed `all_gather` calls.
    pub all_gather_calls: u64,
    /// Completed `broadcast` calls.
    pub broadcast_calls: u64,
    /// Completed `barrier` calls.
    pub barrier_calls: u64,
    /// Total payload bytes handed to collectives (f32 count × 4), summed
    /// over all ops. This is the logical payload, not wire traffic: what
    /// a schedule moves per link is [`crate::cost`]'s to price.
    pub payload_bytes: u64,
}

impl CollectiveStats {
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
/// Determinism contract: for a fixed world size and inputs, every
/// operation produces bitwise-identical output on every rank, on every run,
/// regardless of thread scheduling.
pub trait Collective: Send + Sync {
    /// This member's rank within the group.
    fn rank(&self) -> usize;
    /// Number of members.
    fn size(&self) -> usize;
    /// The schedule label this object was created with.
    fn backend(&self) -> Backend;

    /// In-place sum across all members, deterministic reduction order.
    fn all_reduce_sum(&self, buf: &mut [f32]);

    /// Fallible in-place **mean** across all members of a payload held
    /// in [`Pieces`] (a `Vec<f32>` is one piece): every element becomes
    /// its [`Collective::all_reduce_sum`] × (1/size), bitwise, computed
    /// in one pass ([`CommHandle::all_reduce_mean_grid`]). A zero-length
    /// payload is [`CollectiveError::EmptyPayload`]. The gradient
    /// exchange injects its planned transient failures in front of this
    /// call, so a failed attempt never reaches the transport and every
    /// rank observes the same outcome (the SPMD contract holds).
    fn try_all_reduce_mean(&self, payload: &mut dyn Pieces) -> Result<(), CollectiveError>;

    /// Gathers every member's `local` into `out`, concatenated in rank
    /// order. `out` is cleared and refilled; reusing the same `out` keeps
    /// the steady state allocation-free.
    fn all_gather(&self, local: &[f32], out: &mut Vec<f32>);

    /// Broadcast from `root`: on return every member's `buf` holds root's.
    fn broadcast(&self, buf: &mut [f32], root: usize);

    /// Returns once every member has arrived.
    fn barrier(&self);

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

/// Creates one [`Collective`] per member for a world of `size` ranks
/// (index = rank). Every `backend` builds the same [`CommCollective`];
/// the label is kept so [`Collective::backend`] reports what was asked
/// for.
pub fn create_collective(backend: Backend, size: usize) -> Vec<Box<dyn Collective>> {
    CommHandle::create(size)
        .into_iter()
        .map(|h| Box::new(CommCollective::new(h, backend)) as Box<dyn Collective>)
        .collect()
}

/// The in-process [`Collective`]: a stats-counting wrapper over one
/// member's zero-alloc [`CommHandle`] that all-reduces in the canonical
/// grid-blocked order for its world size.
pub struct CommCollective {
    handle: CommHandle,
    /// Canonical fold shape for this world (flat fold when rows == 1).
    fold: (usize, usize),
    backend: Backend,
    stats: StatsCell,
}

impl CommCollective {
    /// Wraps one member's communicator handle under the `backend` label.
    pub fn new(handle: CommHandle, backend: Backend) -> Self {
        let fold = canonical_grid(handle.size());
        CommCollective {
            handle,
            fold,
            backend,
            stats: StatsCell::default(),
        }
    }
}

impl Collective for CommCollective {
    fn rank(&self) -> usize {
        self.handle.rank()
    }
    fn size(&self) -> usize {
        self.handle.size()
    }
    fn backend(&self) -> Backend {
        self.backend
    }
    fn all_reduce_sum(&self, buf: &mut [f32]) {
        self.stats.record(&self.stats.all_reduce_calls, buf.len());
        let (rows, cols) = self.fold;
        self.handle.all_reduce_sum_grid(buf, rows, cols);
    }
    fn try_all_reduce_mean(&self, payload: &mut dyn Pieces) -> Result<(), CollectiveError> {
        let elems = payload.elems();
        if elems == 0 {
            return Err(CollectiveError::EmptyPayload {
                op: "all_reduce_mean",
            });
        }
        self.stats.record(&self.stats.all_reduce_calls, elems);
        let (rows, cols) = self.fold;
        self.handle.all_reduce_mean_grid(payload, rows, cols);
        Ok(())
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Per rank: the label, then the bits of an all-reduce at lengths
    /// inside one fold tile and across several, an all-gather of uneven
    /// blocks, and a broadcast from the last rank.
    fn round_results(backend: Backend, p: usize) -> Vec<(Backend, Vec<Vec<u32>>)> {
        run_world(create_collective(backend, p), move |c| {
            let rank = c.rank();
            let mut out = Vec::new();
            for n in [1usize, 7, 1000, 4097] {
                let mut buf = seed_buf(rank, n);
                c.all_reduce_sum(&mut buf);
                out.push(bits(&buf));
            }
            let mut gathered = Vec::new();
            c.all_gather(&seed_buf(rank, rank + 1), &mut gathered);
            out.push(bits(&gathered));
            let mut buf = seed_buf(rank, 33);
            c.broadcast(&mut buf, p - 1);
            out.push(bits(&buf));
            (c.backend(), out)
        })
    }

    #[test]
    fn every_backend_label_runs_the_same_round_bitwise() {
        // The canonical grid-blocked fold over flat worlds (1–3), square
        // and rectangular grids (4, 8, 16). Comparing `Tree` against a
        // second `Tree` world is the run-to-run check.
        for p in [1usize, 2, 3, 4, 8, 16] {
            let tree = round_results(Backend::Tree, p);
            for (rank, (_, ops)) in tree.iter().enumerate() {
                assert_eq!(ops, &tree[0].1, "p={p}: rank {rank} diverged from rank 0");
            }
            for backend in Backend::ALL {
                for (rank, (label, ops)) in round_results(backend, p).iter().enumerate() {
                    assert_eq!(*label, backend, "p={p} rank {rank}: label not echoed");
                    assert_eq!(ops, &tree[rank].1, "p={p} rank {rank}: {backend} differs");
                }
            }
        }
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let p = 4;
        let results = run_world(create_collective(Backend::Tree, p), move |c| {
            let local = vec![c.rank() as f32; 3];
            let mut out = Vec::new();
            c.all_gather(&local, &mut out);
            out
        });
        let expected: Vec<f32> = (0..p).flat_map(|r| vec![r as f32; 3]).collect();
        for r in results {
            assert_eq!(r, expected);
        }
    }

    #[test]
    fn broadcast_distributes_roots_payload() {
        let results = run_world(create_collective(Backend::Tree, 4), move |c| {
            let mut buf = if c.rank() == 2 {
                vec![3.5, -1.25, 8.0]
            } else {
                vec![0.0; 3]
            };
            c.broadcast(&mut buf, 2);
            buf
        });
        for r in results {
            assert_eq!(r, vec![3.5, -1.25, 8.0]);
        }
    }

    #[test]
    fn barrier_and_sequenced_ops_interleave_safely() {
        let results = run_world(create_collective(Backend::Tree, 3), move |c| {
            let mut buf = vec![c.rank() as f32 + 1.0];
            c.barrier();
            c.all_reduce_sum(&mut buf);
            c.barrier();
            let mut out = Vec::new();
            c.all_gather(&buf, &mut out);
            out
        });
        for r in results {
            assert_eq!(r, vec![6.0, 6.0, 6.0]);
        }
    }

    #[test]
    fn stats_count_calls_and_bytes() {
        let results = run_world(create_collective(Backend::Tree, 2), move |c| {
            let mut buf = vec![1.0; 10];
            c.all_reduce_sum(&mut buf);
            c.try_all_reduce_mean(&mut buf).unwrap();
            let mut out = Vec::new();
            c.all_gather(&buf[..5], &mut out);
            c.broadcast(&mut buf, 0);
            c.barrier();
            c.stats()
        });
        for s in results {
            assert_eq!(s.all_reduce_calls, 2);
            assert_eq!(s.all_gather_calls, 1);
            assert_eq!(s.broadcast_calls, 1);
            assert_eq!(s.barrier_calls, 1);
            // 10 + 10 + 5 + 10 elements × 4 bytes.
            assert_eq!(s.payload_bytes, 35 * 4);
        }
    }

    #[test]
    fn size_one_worlds_are_identity() {
        let mut world = create_collective(Backend::Tree, 1);
        let c = world.pop().unwrap();
        let mut buf = vec![2.0, 4.0];
        c.all_reduce_sum(&mut buf);
        assert_eq!(buf, vec![2.0, 4.0]);
        c.try_all_reduce_mean(&mut buf).unwrap();
        assert_eq!(buf, vec![2.0, 4.0]);
        let mut out = Vec::new();
        c.all_gather(&buf, &mut out);
        assert_eq!(out, vec![2.0, 4.0]);
        c.broadcast(&mut buf, 0);
        c.barrier();
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
