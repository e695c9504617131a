//! Analytic cost models for collectives on the TPU-v3 interconnect (ICI).
//!
//! These are the models the pod simulator uses to produce Table 1's
//! "percent of time spent on all-reduce" column. They follow the standard
//! α–β formulation: a per-step latency term α and a bandwidth term β =
//! bytes/link-bandwidth.
//!
//! - **Ring** over `p` members: `2·(p−1)·α + 2·(p−1)/p · n/B`.
//! - **2-D torus** (what the pod actually runs): ring reduce-scatter along
//!   rows, ring all-reduce along columns on `1/cols` of the data, then
//!   all-gather along rows. With bidirectional links both row phases
//!   stream concurrently in two directions, which the effective bandwidth
//!   term absorbs.

use crate::topology::SliceShape;

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

/// Time for a ring all-reduce of `bytes` over `p` members.
pub fn ring_all_reduce_time(bytes: f64, p: usize, link: LinkSpec) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let pf = p as f64;
    let steps = 2.0 * (pf - 1.0);
    let transfer = 2.0 * (pf - 1.0) / pf * bytes / (link.bandwidth * link.duplex);
    steps * link.latency + transfer
}

/// Time for a binomial-tree all-reduce (reduce tree + broadcast tree) of
/// `bytes` over `p` members: `2·⌈log₂ p⌉` steps, each moving the full
/// payload. Latency-friendly (log p hops vs the ring's 2(p−1)) but
/// bandwidth-hungry (full payload per step vs the ring's `(p−1)/p · n/p`
/// chunks). This prices [`crate::Backend::Tree`] on a pod's links.
pub fn tree_all_reduce_time(bytes: f64, p: usize, link: LinkSpec) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let steps = 2.0 * (p as f64).log2().ceil();
    steps * (link.latency + bytes / (link.bandwidth * link.duplex))
}

/// Payload size (bytes) at which the ring all-reduce becomes cheaper than
/// the tree for `p` members — the `Auto` backend's switch point.
///
/// Closed form from equating the two α–β models with `L = ⌈log₂ p⌉`:
/// `b* = α·B·(2(p−1) − 2L) / (2L − 2(p−1)/p)`. Below `b*` the tree's
/// `2L` latency hops win; above it the ring's `2(p−1)/p` bandwidth factor
/// wins. Depends only on `(p, link)`, so every rank computes the same
/// crossover and the group never splits across transports.
pub fn tree_ring_crossover_bytes(p: usize, link: LinkSpec) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let pf = p as f64;
    let l = pf.log2().ceil();
    let latency_gap = 2.0 * (pf - 1.0) - 2.0 * l;
    let bandwidth_gap = 2.0 * l - 2.0 * (pf - 1.0) / pf;
    link.latency * link.bandwidth * link.duplex * latency_gap / bandwidth_gap
}

/// Time for the 2-phase 2-D torus all-reduce of `bytes` on `slice`.
///
/// Phase A: reduce-scatter along each row ring (`cols` members, full
/// payload). Phase B: all-reduce along each column ring (`rows` members,
/// `1/cols` of the payload). Phase C: all-gather along rows (mirror of A).
pub fn torus_all_reduce_time(bytes: f64, slice: SliceShape, link: LinkSpec) -> f64 {
    let (r, c) = (slice.rows as f64, slice.cols as f64);
    if slice.chips() <= 1 {
        return 0.0;
    }
    let bw = link.bandwidth * link.duplex;
    // Row reduce-scatter + row all-gather: each moves (c−1)/c · bytes.
    let row_phases = 2.0 * ((c - 1.0) / c) * bytes / bw + 2.0 * (c - 1.0) * link.latency;
    // Column all-reduce on bytes/cols.
    let col_phase = if slice.rows > 1 {
        2.0 * ((r - 1.0) / r) * (bytes / c) / bw + 2.0 * (r - 1.0) * link.latency
    } else {
        0.0
    };
    row_phases + col_phase
}

/// Time for the 2-D grid all-reduce of `bytes` over a `rows × cols`
/// **member** grid: [`crate::Backend::Torus2d`] over
/// [`crate::topology::canonical_grid`] of the world size rather than the
/// chip slice. Same three phases as [`torus_all_reduce_time`], one
/// formula for both.
pub fn grid_all_reduce_time(bytes: f64, rows: usize, cols: usize, link: LinkSpec) -> f64 {
    torus_all_reduce_time(bytes, SliceShape { rows, cols }, link)
}

/// The backend `Auto` settles on for a payload of `bytes` over `p`
/// members: the cheapest of tree, flat ring, and (when the canonical
/// grid has more than one row) the 2-D torus. Pure in `(bytes, p,
/// link)`, so every rank picks the same transport. Ties resolve
/// tree → torus2d → ring (prefer fewer latency hops).
pub fn auto_backend_choice(bytes: f64, p: usize, link: LinkSpec) -> crate::backend::Backend {
    use crate::backend::Backend;
    if p <= 1 {
        return Backend::Tree;
    }
    let (rows, cols) = crate::topology::canonical_grid(p);
    let t_tree = tree_all_reduce_time(bytes, p, link);
    let t_ring = ring_all_reduce_time(bytes, p, link);
    let t_grid = if rows > 1 {
        grid_all_reduce_time(bytes, rows, cols, link)
    } else {
        f64::INFINITY
    };
    if t_tree <= t_ring && t_tree <= t_grid {
        Backend::Tree
    } else if t_grid <= t_ring {
        Backend::Torus2d
    } else {
        Backend::Ring
    }
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
    // Two rounds (fwd + bwd), each all-reducing 2·channels f32.
    2.0 * ring_all_reduce_time((2 * channels * 4) as f64, group_size, link)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_time_scales_with_bytes() {
        // Large payloads are bandwidth-bound: time ∝ bytes.
        let t1 = ring_all_reduce_time(1e8, 8, TPU_V3_LINK);
        let t2 = ring_all_reduce_time(2e8, 8, TPU_V3_LINK);
        assert!(t2 > t1 * 1.9 && t2 < t1 * 2.1);
        // Tiny payloads are latency-bound: doubling bytes barely matters.
        let s1 = ring_all_reduce_time(1e3, 8, TPU_V3_LINK);
        let s2 = ring_all_reduce_time(2e3, 8, TPU_V3_LINK);
        assert!(s2 < s1 * 1.1);
    }

    #[test]
    fn ring_bandwidth_term_saturates_with_p() {
        // (p−1)/p → 1: doubling members at fixed bytes must not double time.
        let small = ring_all_reduce_time(1e8, 8, TPU_V3_LINK);
        let large = ring_all_reduce_time(1e8, 64, TPU_V3_LINK);
        assert!(large < small * 1.3, "bandwidth-optimal: {small} vs {large}");
        assert!(large > small, "latency term still grows");
    }

    #[test]
    fn singleton_is_free() {
        assert_eq!(ring_all_reduce_time(1e9, 1, TPU_V3_LINK), 0.0);
        assert_eq!(tree_all_reduce_time(1e9, 1, TPU_V3_LINK), 0.0);
        let s = SliceShape { rows: 1, cols: 1 };
        assert_eq!(torus_all_reduce_time(1e9, s, TPU_V3_LINK), 0.0);
    }

    #[test]
    fn crossover_separates_tree_and_ring_regimes() {
        for &p in &[4usize, 8, 16, 64] {
            let b = tree_ring_crossover_bytes(p, TPU_V3_LINK);
            assert!(b > 0.0, "p={p}: crossover {b}");
            let below = b * 0.5;
            let above = b * 2.0;
            assert!(
                tree_all_reduce_time(below, p, TPU_V3_LINK)
                    <= ring_all_reduce_time(below, p, TPU_V3_LINK),
                "p={p}: tree should win below the crossover"
            );
            assert!(
                ring_all_reduce_time(above, p, TPU_V3_LINK)
                    <= tree_all_reduce_time(above, p, TPU_V3_LINK),
                "p={p}: ring should win above the crossover"
            );
        }
    }

    #[test]
    fn crossover_grows_with_world_size() {
        // More members ⇒ more ring latency hops ⇒ the tree stays
        // competitive up to larger payloads.
        let small = tree_ring_crossover_bytes(8, TPU_V3_LINK);
        let large = tree_ring_crossover_bytes(64, TPU_V3_LINK);
        assert!(large > small, "{small} vs {large}");
    }

    #[test]
    fn torus_beats_flat_ring_at_scale() {
        // The 2-D algorithm's latency grows with rows+cols instead of
        // rows·cols — the reason pods don't run one global ring.
        let slice = SliceShape::for_cores(1024); // 16×32 chips
        let torus = torus_all_reduce_time(1e6, slice, TPU_V3_LINK);
        let ring = ring_all_reduce_time(1e6, slice.chips(), TPU_V3_LINK);
        assert!(torus < ring, "torus {torus} vs ring {ring}");
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
        // ties, which is why `auto_backend_choice` prefers it at scale.
        use crate::topology::canonical_grid;
        for p in [4usize, 8, 16, 64, 1024, 2048, 4096] {
            let (rows, cols) = canonical_grid(p);
            assert!(rows > 1, "p={p} should be composite here");
            for bytes in [1e3, 1e6, 1e8] {
                let grid = grid_all_reduce_time(bytes, rows, cols, TPU_V3_LINK);
                let ring = ring_all_reduce_time(bytes, p, TPU_V3_LINK);
                assert!(
                    grid <= ring,
                    "p={p} bytes={bytes}: grid {grid} vs ring {ring}"
                );
            }
        }
    }

    #[test]
    fn auto_choice_is_tree_small_torus_large_ring_prime() {
        use crate::backend::Backend;
        // Tiny payload: latency-bound, the tree's 2·log₂p hops win.
        assert_eq!(auto_backend_choice(4.0, 1024, TPU_V3_LINK), Backend::Tree);
        // Large payload on a composite world: the grid's bandwidth factor
        // with few hops wins.
        assert_eq!(
            auto_backend_choice(1e8, 1024, TPU_V3_LINK),
            Backend::Torus2d
        );
        // Large payload on a prime world: no grid, the flat ring wins.
        assert_eq!(auto_backend_choice(1e8, 7, TPU_V3_LINK), Backend::Ring);
        assert_eq!(auto_backend_choice(1e9, 1, TPU_V3_LINK), Backend::Tree);
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
