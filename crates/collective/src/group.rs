//! Replica grouping for distributed batch normalization (§3.4).
//!
//! The paper groups subsets of replicas to share BN statistics. Two
//! schemes, following Ying et al.:
//!
//! - **Contiguous**: groups of `k` consecutive replica ids. Cheap wiring,
//!   but on the physical torus a group of 32+ consecutive cores spans a
//!   long thin strip, so its reduction traverses many hops.
//! - **Tiled 2-D**: for group sizes above 16, replicas are grouped as a
//!   `th×tw` *tile of chips* on the torus, keeping every group member
//!   within a compact neighborhood — the "two-dimensional tiling method"
//!   of §3.4.

use crate::topology::{SliceShape, CORES_PER_CHIP};

/// How replicas are partitioned into BN groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupSpec {
    /// Every replica normalizes alone (plain local BN).
    Local,
    /// Groups of `k` consecutive replica ids; `k` must divide the replica
    /// count.
    Contiguous(usize),
    /// Chip tiles of `rows×cols` on the torus; each tile's cores form one
    /// group (so the group size is `rows·cols·2` replicas).
    Tiled2d { rows: usize, cols: usize },
}

impl GroupSpec {
    /// Number of replicas per group under `slice`.
    pub fn group_size(&self, slice: SliceShape) -> usize {
        match self {
            GroupSpec::Local => 1,
            GroupSpec::Contiguous(k) => *k,
            GroupSpec::Tiled2d { rows, cols } => rows * cols * CORES_PER_CHIP,
        }
        .min(slice.cores())
    }

    /// Validates the spec against a slice, panicking with a clear message
    /// when the partition doesn't tile the slice exactly.
    pub fn validate(&self, slice: SliceShape) {
        match self {
            GroupSpec::Local => {}
            GroupSpec::Contiguous(k) => {
                assert!(*k >= 1, "group size must be ≥ 1");
                assert_eq!(
                    slice.cores() % k,
                    0,
                    "contiguous group size {k} must divide {} replicas",
                    slice.cores()
                );
            }
            GroupSpec::Tiled2d { rows, cols } => {
                assert!(
                    slice.rows.is_multiple_of(*rows) && slice.cols.is_multiple_of(*cols),
                    "tile {rows}x{cols} must tile the {}x{} chip grid",
                    slice.rows,
                    slice.cols
                );
            }
        }
    }

    /// The group id of a replica.
    pub fn group_of(&self, replica: usize, slice: SliceShape) -> usize {
        match self {
            GroupSpec::Local => replica,
            GroupSpec::Contiguous(k) => replica / k,
            GroupSpec::Tiled2d { rows, cols } => {
                let chip = slice.chip_of_replica(replica);
                let (r, c) = slice.coord(chip);
                let tiles_per_row = slice.cols / cols;
                (r / rows) * tiles_per_row + (c / cols)
            }
        }
    }

    /// All replicas in `group`, in ascending order.
    pub fn members(&self, group: usize, slice: SliceShape) -> Vec<usize> {
        (0..slice.cores())
            .filter(|&r| self.group_of(r, slice) == group)
            .collect()
    }

    /// Number of groups.
    pub fn num_groups(&self, slice: SliceShape) -> usize {
        match self {
            GroupSpec::Local => slice.cores(),
            GroupSpec::Contiguous(k) => slice.cores() / k,
            GroupSpec::Tiled2d { rows, cols } => (slice.rows / rows) * (slice.cols / cols),
        }
    }

    /// Worst-case torus hop diameter within a group — the communication
    /// locality measure that motivates 2-D tiling for large groups.
    pub fn max_group_diameter(&self, slice: SliceShape) -> usize {
        (0..self.num_groups(slice))
            .map(|g| {
                let members = self.members(g, slice);
                let mut worst = 0;
                for &a in &members {
                    for &b in &members {
                        worst = worst.max(
                            slice.hop_distance(slice.chip_of_replica(a), slice.chip_of_replica(b)),
                        );
                    }
                }
                worst
            })
            .max()
            .unwrap_or(0)
    }
}

impl GroupSpec {
    /// Deterministically shrinks the spec to one valid for a world of
    /// `new_world` replicas — the BN-regrouping leg of the elastic
    /// resize protocol. Rules (pure function of `(self, new_world)`, so
    /// every surviving rank computes the identical regrouping):
    ///
    /// - `Local` stays `Local`.
    /// - `Contiguous(k)` becomes `Contiguous(k')` where `k'` is the
    ///   largest divisor of `new_world` not exceeding `k` — the closest
    ///   BN batch to the tuned one that still tiles the world exactly.
    /// - `Tiled2d` on an even world shrinks each tile dimension to the
    ///   largest divisor of the surviving slice's dimension; on an odd
    ///   world (no torus factorization) it degrades to the equivalent
    ///   `Contiguous` group size.
    ///
    /// At a world where the spec already validates, `regroup` is the
    /// identity.
    pub fn regroup(&self, new_world: usize) -> GroupSpec {
        assert!(new_world >= 1, "cannot regroup an empty world");
        match *self {
            GroupSpec::Local => GroupSpec::Local,
            GroupSpec::Contiguous(k) => {
                GroupSpec::Contiguous(largest_divisor_at_most(new_world, k))
            }
            GroupSpec::Tiled2d { rows, cols } => {
                if new_world >= CORES_PER_CHIP && new_world.is_multiple_of(CORES_PER_CHIP) {
                    let slice = SliceShape::for_cores(new_world);
                    GroupSpec::Tiled2d {
                        rows: largest_divisor_at_most(slice.rows, rows),
                        cols: largest_divisor_at_most(slice.cols, cols),
                    }
                } else {
                    GroupSpec::Contiguous(largest_divisor_at_most(
                        new_world,
                        rows * cols * CORES_PER_CHIP,
                    ))
                }
            }
        }
    }
}

/// Largest divisor of `n` that does not exceed `k` (≥ 1).
fn largest_divisor_at_most(n: usize, k: usize) -> usize {
    let k = k.min(n).max(1);
    (1..=k).rev().find(|d| n.is_multiple_of(*d)).unwrap_or(1)
}

/// Partitions `world` replica ids into BN groups under `spec`, without
/// requiring a torus geometry — the form the trainer consumes, valid for
/// the odd worlds an elastic shrink can produce. The spec is first
/// [`GroupSpec::regroup`]ed to `world`, so the partition is always exact
/// (every replica in exactly one group). On even worlds where the spec
/// already validates, the partition matches [`GroupSpec::members`] over
/// [`SliceShape::for_cores`].
pub fn bn_partition(spec: GroupSpec, world: usize) -> Vec<Vec<usize>> {
    assert!(world >= 1, "empty world");
    match spec.regroup(world) {
        GroupSpec::Local => (0..world).map(|r| vec![r]).collect(),
        GroupSpec::Contiguous(k) => (0..world / k)
            .map(|g| (g * k..(g + 1) * k).collect())
            .collect(),
        spec @ GroupSpec::Tiled2d { .. } => {
            // regroup() only returns Tiled2d for even worlds.
            let slice = SliceShape::for_cores(world);
            (0..spec.num_groups(slice))
                .map(|g| spec.members(g, slice))
                .collect()
        }
    }
}

/// The BN *batch size* seen by each normalization: per-replica batch times
/// group size — the quantity the paper tunes (§3.4: "the resulting batch
/// normalization batch size ... affects model quality").
pub fn bn_batch_size(per_replica_batch: usize, spec: GroupSpec, slice: SliceShape) -> usize {
    per_replica_batch * spec.group_size(slice)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_partitions() {
        let slice = SliceShape::for_cores(128);
        let spec = GroupSpec::Contiguous(16);
        spec.validate(slice);
        assert_eq!(spec.num_groups(slice), 8);
        assert_eq!(spec.group_of(0, slice), 0);
        assert_eq!(spec.group_of(15, slice), 0);
        assert_eq!(spec.group_of(16, slice), 1);
        assert_eq!(spec.members(0, slice), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn tiled_partitions_cover_exactly_once() {
        let slice = SliceShape::for_cores(128); // 8×8 chips
        let spec = GroupSpec::Tiled2d { rows: 4, cols: 4 };
        spec.validate(slice);
        assert_eq!(spec.num_groups(slice), 4);
        assert_eq!(spec.group_size(slice), 32);
        let mut seen = vec![0usize; slice.cores()];
        for g in 0..spec.num_groups(slice) {
            for m in spec.members(g, slice) {
                seen[m] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "partition must be exact");
    }

    #[test]
    fn tiling_beats_contiguous_on_diameter_for_large_groups() {
        // 32 replicas per group on a 1024-core slice: a contiguous strip of
        // 16 chips spans a long path; a 4×4 tile stays compact — the whole
        // point of §3.4's 2-D tiling.
        let slice = SliceShape::for_cores(1024); // 16×32 chips
        let contiguous = GroupSpec::Contiguous(32);
        let tiled = GroupSpec::Tiled2d { rows: 4, cols: 4 };
        contiguous.validate(slice);
        tiled.validate(slice);
        assert_eq!(contiguous.group_size(slice), tiled.group_size(slice));
        let dc = contiguous.max_group_diameter(slice);
        let dt = tiled.max_group_diameter(slice);
        assert!(dt < dc, "tiled diameter {dt} should beat contiguous {dc}");
    }

    #[test]
    fn bn_batch_sizes_match_paper_examples() {
        // Per-core batch 32 on 1024 cores: groups of 16 replicas → BN batch
        // 512; local BN → 32; full slice would be the whole 32768.
        let slice = SliceShape::for_cores(1024);
        assert_eq!(bn_batch_size(32, GroupSpec::Local, slice), 32);
        assert_eq!(bn_batch_size(32, GroupSpec::Contiguous(16), slice), 512);
    }

    #[test]
    #[should_panic]
    fn invalid_contiguous_rejected() {
        GroupSpec::Contiguous(24).validate(SliceShape::for_cores(128));
    }

    #[test]
    #[should_panic]
    fn invalid_tile_rejected() {
        GroupSpec::Tiled2d { rows: 3, cols: 4 }.validate(SliceShape::for_cores(128));
    }

    #[test]
    fn regroup_is_identity_at_valid_worlds() {
        let slice = SliceShape::for_cores(128);
        for spec in [
            GroupSpec::Local,
            GroupSpec::Contiguous(16),
            GroupSpec::Tiled2d { rows: 4, cols: 4 },
        ] {
            spec.validate(slice);
            assert_eq!(spec.regroup(128), spec, "{spec:?}");
        }
    }

    #[test]
    fn regroup_shrinks_to_valid_specs() {
        // Losing one of 8 replicas: Contiguous(4) can't tile 7, so the
        // nearest divisor is 1.
        assert_eq!(
            GroupSpec::Contiguous(4).regroup(7),
            GroupSpec::Contiguous(1)
        );
        // Losing two of 8: groups of 2 and 3 both divide 6; 4 doesn't,
        // so 3 is the closest from below.
        assert_eq!(
            GroupSpec::Contiguous(4).regroup(6),
            GroupSpec::Contiguous(3)
        );
        // A tile spec on an odd world degrades to contiguous.
        let t = GroupSpec::Tiled2d { rows: 2, cols: 2 };
        match t.regroup(7) {
            GroupSpec::Contiguous(k) => assert!(k >= 1 && 7 % k == 0),
            other => panic!("expected Contiguous, got {other:?}"),
        }
        // A tile spec on a shrunken even world stays a valid tile.
        let shrunk = t.regroup(6);
        shrunk.validate(SliceShape::for_cores(6));
    }

    #[test]
    fn bn_partition_is_exact_for_all_worlds() {
        for spec in [
            GroupSpec::Local,
            GroupSpec::Contiguous(4),
            GroupSpec::Tiled2d { rows: 2, cols: 2 },
        ] {
            for world in 1..=16 {
                let parts = bn_partition(spec, world);
                let mut seen = vec![0usize; world];
                for group in &parts {
                    assert!(!group.is_empty());
                    for &m in group {
                        seen[m] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "{spec:?} world {world}: partition not exact: {seen:?}"
                );
            }
        }
    }

    #[test]
    fn bn_partition_matches_members_on_valid_even_worlds() {
        let spec = GroupSpec::Contiguous(16);
        let slice = SliceShape::for_cores(128);
        let parts = bn_partition(spec, 128);
        for (g, part) in parts.iter().enumerate() {
            assert_eq!(part, &spec.members(g, slice));
        }
    }

    #[test]
    fn local_groups() {
        let slice = SliceShape::for_cores(128);
        let spec = GroupSpec::Local;
        assert_eq!(spec.num_groups(slice), 128);
        assert_eq!(spec.group_size(slice), 1);
        assert_eq!(spec.members(5, slice), vec![5]);
    }
}
