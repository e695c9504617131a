//! Analytic cost models for collectives on the TPU-v3 interconnect (ICI).
//!
//! These are the models the pod simulator uses to produce Table 1's
//! "percent of time spent on all-reduce" column. They follow the standard
//! α–β formulation: a per-step latency term α and a bandwidth term β =
//! bytes/link-bandwidth.
//!
//! One value, [`Schedule`], describes the all-reduce a pod runs.
//! [`Schedule::time`] prices it in closed form, and [`Schedule::phases`]
//! lists the bulk-synchronous ring phases it is made of, which
//! `ets-tpu-sim`'s `netsim` runs step by step to check the closed form.
//!
//! - **Tree** over `p` members: `2·⌈log₂ p⌉` steps, each moving the whole
//!   payload.
//! - **Ring** over `p` members: `2·(p−1)·α + 2·(p−1)/p · n/B`.
//! - **2-D torus** (what the pod actually runs): ring reduce-scatter along
//!   rows, ring all-reduce along columns on `1/cols` of the data, then
//!   all-gather along rows. With bidirectional links both row phases
//!   stream concurrently in two directions, which the effective bandwidth
//!   term absorbs.

use crate::backend::Backend;
use crate::topology::{canonical_grid, SliceShape};

/// Interconnect parameters for one link.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// Per-direction link bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Per-hop latency, seconds.
    pub latency: f64,
    /// Number of usable directions per link pair (2 for a bidirectional
    /// torus ring).
    pub duplex: f64,
}

/// TPU-v3 ICI: ~70 GB/s per link per direction, ~1 µs per hop.
pub const TPU_V3_LINK: LinkSpec = LinkSpec {
    bandwidth: 70.0e9,
    latency: 1.0e-6,
    duplex: 2.0,
};

/// An all-reduce schedule over a set of members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Binomial reduce tree then broadcast tree over `p` members:
    /// `2·⌈log₂ p⌉` steps, each moving the whole payload. Few latency
    /// hops, but every hop carries all the bytes.
    Tree(usize),
    /// Ring reduce-scatter then all-gather over `p` members: `2(p−1)`
    /// steps of `1/p` of the payload.
    Ring(usize),
    /// The 2-D torus exchange on a `rows × cols` grid: row
    /// reduce-scatter, column all-reduce on `1/cols` of the payload, row
    /// all-gather.
    Torus { rows: usize, cols: usize },
}

impl Schedule {
    /// The schedule `backend` runs over `p` members. `Torus2d` routes
    /// over [`canonical_grid`]`(p)`. `Auto` takes the cheapest of tree,
    /// torus (when the grid has more than one row) and ring for `bytes`
    /// on `link`; ties go to the earlier of the three, so fewer latency
    /// hops win. The choice is pure in `(p, bytes, link)`, so every rank
    /// makes the same one.
    pub fn for_backend(backend: Backend, p: usize, bytes: f64, link: LinkSpec) -> Schedule {
        let (rows, cols) = canonical_grid(p);
        match backend {
            Backend::Tree => Schedule::Tree(p),
            Backend::Ring => Schedule::Ring(p),
            Backend::Torus2d => Schedule::Torus { rows, cols },
            Backend::Auto => {
                let torus = (rows > 1).then_some(Schedule::Torus { rows, cols });
                let mut best = Schedule::Tree(p);
                for s in torus.into_iter().chain([Schedule::Ring(p)]) {
                    if s.time(bytes, link) < best.time(bytes, link) {
                        best = s;
                    }
                }
                best
            }
        }
    }

    /// The concrete backend that runs this schedule.
    pub fn backend(self) -> Backend {
        match self {
            Schedule::Tree(_) => Backend::Tree,
            Schedule::Ring(_) => Backend::Ring,
            Schedule::Torus { .. } => Backend::Torus2d,
        }
    }

    /// Closed-form seconds to all-reduce `bytes` on `link`. Zero for a
    /// single member.
    pub fn time(self, bytes: f64, link: LinkSpec) -> f64 {
        let bw = link.bandwidth * link.duplex;
        match self {
            Schedule::Tree(p) => {
                if p <= 1 {
                    return 0.0;
                }
                let steps = 2.0 * (p as f64).log2().ceil();
                steps * (link.latency + bytes / bw)
            }
            Schedule::Ring(p) => {
                if p <= 1 {
                    return 0.0;
                }
                let pf = p as f64;
                let steps = 2.0 * (pf - 1.0);
                let transfer = 2.0 * (pf - 1.0) / pf * bytes / bw;
                steps * link.latency + transfer
            }
            Schedule::Torus { rows, cols } => {
                if rows * cols <= 1 {
                    return 0.0;
                }
                let (r, c) = (rows as f64, cols as f64);
                // Row reduce-scatter + row all-gather: each moves (c−1)/c · bytes.
                let row_phases =
                    2.0 * ((c - 1.0) / c) * bytes / bw + 2.0 * (c - 1.0) * link.latency;
                // Column all-reduce on bytes/cols.
                let col_phase = if rows > 1 {
                    2.0 * ((r - 1.0) / r) * (bytes / c) / bw + 2.0 * (r - 1.0) * link.latency
                } else {
                    0.0
                };
                row_phases + col_phase
            }
        }
    }

    /// The bulk-synchronous phases of an all-reduce of `bytes`, in order,
    /// as `(steps, chunk)`: each step every sending member moves `chunk`
    /// bytes one hop (to its ring neighbour, or its tree parent or
    /// child), and the next step starts when all have arrived.
    /// [`Self::time`] is the sum over steps of one hop's latency plus
    /// `chunk` at the link's bandwidth. Empty for a single member.
    pub fn phases(self, bytes: f64) -> Vec<(usize, f64)> {
        match self {
            Schedule::Tree(p) if p > 1 => {
                vec![(2 * p.next_power_of_two().trailing_zeros() as usize, bytes)]
            }
            Schedule::Ring(p) if p > 1 => vec![(p - 1, bytes / p as f64); 2],
            Schedule::Torus { rows, cols } if rows * cols > 1 => {
                let row = (cols - 1, bytes / cols as f64);
                let col = (rows - 1, row.1 / rows as f64);
                vec![row, col, col, row]
            }
            _ => Vec::new(),
        }
    }
}

/// The torus exchange on a chip slice.
impl From<SliceShape> for Schedule {
    fn from(SliceShape { rows, cols }: SliceShape) -> Schedule {
        Schedule::Torus { rows, cols }
    }
}

/// Time for the 2-D torus all-reduce of `bytes` on the chip slice `slice`.
pub fn torus_all_reduce_time(bytes: f64, slice: SliceShape, link: LinkSpec) -> f64 {
    Schedule::from(slice).time(bytes, link)
}

/// Bytes in an f32 gradient all-reduce for a model with `params` scalars.
pub fn gradient_bytes(params: u64) -> f64 {
    params as f64 * 4.0
}

/// Time to reduce batch-norm statistics for one BN layer across a group of
/// `group_size` replicas: two vectors of `channels` f32s (sum, sum-sq) in
/// the forward pass and two more in backward.
pub fn bn_sync_time(channels: usize, group_size: usize, link: LinkSpec) -> f64 {
    if group_size <= 1 {
        return 0.0;
    }
    // Two rounds (fwd + bwd), each ring all-reducing 2·channels f32.
    2.0 * Schedule::Ring(group_size).time((2 * channels * 4) as f64, link)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(bytes: f64, p: usize) -> f64 {
        Schedule::Ring(p).time(bytes, TPU_V3_LINK)
    }

    #[test]
    fn ring_time_scales_with_bytes() {
        // Large payloads are bandwidth-bound: time ∝ bytes.
        let t1 = ring(1e8, 8);
        let t2 = ring(2e8, 8);
        assert!(t2 > t1 * 1.9 && t2 < t1 * 2.1);
        // Tiny payloads are latency-bound: doubling bytes barely matters.
        let s1 = ring(1e3, 8);
        let s2 = ring(2e3, 8);
        assert!(s2 < s1 * 1.1);
    }

    #[test]
    fn ring_bandwidth_term_saturates_with_p() {
        // (p−1)/p → 1: doubling members at fixed bytes must not double time.
        let small = ring(1e8, 8);
        let large = ring(1e8, 64);
        assert!(large < small * 1.3, "bandwidth-optimal: {small} vs {large}");
        assert!(large > small, "latency term still grows");
    }

    #[test]
    fn singleton_is_free() {
        let torus = Schedule::Torus { rows: 1, cols: 1 };
        for s in [Schedule::Tree(1), Schedule::Ring(1), torus] {
            assert_eq!(s.time(1e9, TPU_V3_LINK), 0.0, "{s:?}");
            assert!(s.phases(1e9).is_empty(), "{s:?}");
        }
    }

    #[test]
    fn torus_beats_flat_ring_at_scale() {
        // The 2-D algorithm's latency grows with rows+cols instead of
        // rows·cols — the reason pods don't run one global ring.
        let slice = SliceShape::for_cores(1024); // 16×32 chips
        let torus = torus_all_reduce_time(1e6, slice, TPU_V3_LINK);
        assert!(torus < ring(1e6, slice.chips()), "torus {torus}");
    }

    #[test]
    fn torus_time_roughly_constant_across_slices() {
        // Table 1 shows step time ~constant as cores scale (all-reduce
        // share stays 1–3%): for a fixed model, the bandwidth term is
        // already saturated at 128 cores, so time grows only via latency.
        let b2_bytes = gradient_bytes(9_110_000);
        let t128 = torus_all_reduce_time(b2_bytes, SliceShape::for_cores(128), TPU_V3_LINK);
        let t1024 = torus_all_reduce_time(b2_bytes, SliceShape::for_cores(1024), TPU_V3_LINK);
        assert!(t1024 / t128 < 1.6, "ratio {}", t1024 / t128);
    }

    #[test]
    fn grid_time_never_exceeds_flat_ring_on_composite_worlds() {
        // The 2-D grid moves the same 2(p−1)/p bytes but takes
        // 2(cols−1)+2(rows−1) latency hops instead of 2(p−1): whenever
        // the canonical grid has more than one row the torus wins or
        // ties, which is why `Auto` prefers it at scale.
        for p in [4usize, 8, 16, 64, 1024, 2048, 4096] {
            let grid = Schedule::for_backend(Backend::Torus2d, p, 0.0, TPU_V3_LINK);
            assert!(
                matches!(grid, Schedule::Torus { rows, .. } if rows > 1),
                "p={p} should be composite here"
            );
            for bytes in [1e3, 1e6, 1e8] {
                let grid = grid.time(bytes, TPU_V3_LINK);
                let ring = ring(bytes, p);
                assert!(
                    grid <= ring,
                    "p={p} bytes={bytes}: grid {grid} vs ring {ring}"
                );
            }
        }
    }

    #[test]
    fn auto_is_tree_small_torus_large_ring_prime() {
        let auto = |bytes, p| Schedule::for_backend(Backend::Auto, p, bytes, TPU_V3_LINK);
        // Tiny payload: latency-bound, the tree's 2·log₂p hops win.
        assert_eq!(auto(4.0, 1024), Schedule::Tree(1024));
        // Large payload on a composite world: the grid's bandwidth factor
        // with few hops wins.
        assert_eq!(auto(1e8, 1024), Schedule::Torus { rows: 32, cols: 32 });
        // Large payload on a prime world: no grid, the flat ring wins.
        assert_eq!(auto(1e8, 7), Schedule::Ring(7));
        assert_eq!(auto(1e9, 1), Schedule::Tree(1));
        // Auto never prices above any concrete schedule.
        for p in [2usize, 7, 64, 1024] {
            for bytes in [4.0, 1e5, 1e8] {
                let t = auto(bytes, p).time(bytes, TPU_V3_LINK);
                for b in [Backend::Tree, Backend::Ring, Backend::Torus2d] {
                    let other = Schedule::for_backend(b, p, bytes, TPU_V3_LINK);
                    assert!(t <= other.time(bytes, TPU_V3_LINK), "p={p} {b}");
                    assert_eq!(other.backend(), b);
                }
            }
        }
    }

    #[test]
    fn bn_sync_cheap_relative_to_gradients() {
        let grads = torus_all_reduce_time(
            gradient_bytes(30_000_000),
            SliceShape::for_cores(1024),
            TPU_V3_LINK,
        );
        let bn = bn_sync_time(512, 16, TPU_V3_LINK);
        assert!(bn < grads, "bn {bn} vs grads {grads}");
    }
}
