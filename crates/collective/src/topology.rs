//! TPU-v3 pod topology: chips on a 2-D torus, two cores per chip.
//!
//! A full TPU-v3 pod is a 32×32 torus of chips (1024 chips, 2048 cores);
//! slices are rectangular sub-tori. The paper trains on slices of 128 to
//! 1024 cores. Replica ids map to cores in row-major chip order, core 0
//! then core 1 within a chip.

/// Cores per TPU-v3 chip.
pub const CORES_PER_CHIP: usize = 2;

/// The canonical 2-D factorization of a world of `p` members:
/// `rows` is the largest divisor of `p` not exceeding `√p` (so
/// `rows ≤ cols` and `rows · cols == p`).
///
/// This grid is what the torus-2d backend routes over *and* what defines
/// the canonical reduction order every backend folds in (block partials
/// over `cols` consecutive ranks, then block sums across `rows` — see
/// `crate::comm::CommHandle::all_reduce_sum_grid`). It is a pure function
/// of `p`, so after an elastic shrink every survivor re-selects the same
/// sub-torus from the surviving world size alone. Primes (and `p < 4`)
/// degenerate to `(1, p)`, where the grid fold is the flat ascending fold.
pub fn canonical_grid(p: usize) -> (usize, usize) {
    assert!(p >= 1, "a grid needs at least one member");
    let mut rows = (p as f64).sqrt().floor() as usize;
    while rows > 1 && rows * rows > p {
        rows -= 1;
    }
    while rows > 1 && !p.is_multiple_of(rows) {
        rows -= 1;
    }
    let rows = rows.max(1);
    (rows, p / rows)
}

/// A rectangular slice of the pod's chip torus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceShape {
    /// Chip-grid rows.
    pub rows: usize,
    /// Chip-grid columns.
    pub cols: usize,
}

impl SliceShape {
    /// The standard slice geometry for a given core count, matching how
    /// Cloud TPU carves v3 pods (always near-square, cols ≥ rows):
    /// 128 cores → 8×8 chips, 256 → 8×16, 512 → 16×16, 1024 → 16×32,
    /// 2048 → 32×32.
    pub fn for_cores(cores: usize) -> SliceShape {
        assert!(
            cores >= CORES_PER_CHIP && cores.is_multiple_of(CORES_PER_CHIP),
            "core count must be a positive multiple of {CORES_PER_CHIP}"
        );
        let chips = cores / CORES_PER_CHIP;
        // Near-square factorization with power-of-two sides where possible.
        let mut rows = (chips as f64).sqrt() as usize;
        while rows > 1 && !chips.is_multiple_of(rows) {
            rows -= 1;
        }
        SliceShape {
            rows,
            cols: chips / rows,
        }
    }

    /// The slice geometry that *survives* a degraded core count: the
    /// standard shape for the largest positive multiple of
    /// [`CORES_PER_CHIP`] not exceeding `cores`. After an elastic shrink
    /// the world can be odd (a chip lost one of its two cores); the
    /// torus the collectives route over is then the even sub-slice, with
    /// the orphan core hanging off its chip's links.
    pub fn surviving(cores: usize) -> SliceShape {
        assert!(
            cores >= CORES_PER_CHIP,
            "fewer than {CORES_PER_CHIP} surviving cores has no torus"
        );
        SliceShape::for_cores(cores - cores % CORES_PER_CHIP)
    }

    /// Total chips in the slice.
    pub fn chips(&self) -> usize {
        self.rows * self.cols
    }

    /// Total cores in the slice.
    pub fn cores(&self) -> usize {
        self.chips() * CORES_PER_CHIP
    }

    /// Chip coordinate of a chip index (row-major).
    pub fn coord(&self, chip: usize) -> (usize, usize) {
        assert!(chip < self.chips(), "chip {chip} out of range");
        (chip / self.cols, chip % self.cols)
    }

    /// Chip index of a coordinate.
    pub fn chip_at(&self, r: usize, c: usize) -> usize {
        assert!(r < self.rows && c < self.cols);
        r * self.cols + c
    }

    /// The chip hosting a replica (core).
    pub fn chip_of_replica(&self, replica: usize) -> usize {
        assert!(replica < self.cores(), "replica {replica} out of range");
        replica / CORES_PER_CHIP
    }

    /// Torus neighbors of a chip (up, down, left, right with wrap-around).
    pub fn neighbors(&self, chip: usize) -> [usize; 4] {
        let (r, c) = self.coord(chip);
        [
            self.chip_at((r + self.rows - 1) % self.rows, c),
            self.chip_at((r + 1) % self.rows, c),
            self.chip_at(r, (c + self.cols - 1) % self.cols),
            self.chip_at(r, (c + 1) % self.cols),
        ]
    }

    /// Minimum hop count between two chips on the torus.
    pub fn hop_distance(&self, a: usize, b: usize) -> usize {
        let (ar, ac) = self.coord(a);
        let (br, bc) = self.coord(b);
        let dr = ar.abs_diff(br);
        let dc = ac.abs_diff(bc);
        dr.min(self.rows - dr) + dc.min(self.cols - dc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_grids_are_near_square_divisor_pairs() {
        assert_eq!(canonical_grid(1), (1, 1));
        assert_eq!(canonical_grid(2), (1, 2));
        assert_eq!(canonical_grid(3), (1, 3));
        assert_eq!(canonical_grid(4), (2, 2));
        assert_eq!(canonical_grid(6), (2, 3));
        assert_eq!(canonical_grid(8), (2, 4));
        assert_eq!(canonical_grid(12), (3, 4));
        assert_eq!(canonical_grid(16), (4, 4));
        assert_eq!(canonical_grid(1024), (32, 32));
        assert_eq!(canonical_grid(2048), (32, 64));
        assert_eq!(canonical_grid(4096), (64, 64));
        // Primes have no non-trivial divisor ≤ √p: flat row.
        for p in [2usize, 3, 5, 7, 11, 13, 4099] {
            assert_eq!(canonical_grid(p), (1, p));
        }
    }

    #[test]
    fn canonical_grid_invariants_hold_for_all_small_worlds() {
        for p in 1..=512usize {
            let (r, c) = canonical_grid(p);
            assert_eq!(r * c, p, "p={p}");
            assert!(r <= c, "p={p}: rows must not exceed cols");
            assert!(r * r <= p, "p={p}: rows must not exceed sqrt(p)");
            // Largest such divisor: nothing between r and sqrt(p) divides p.
            for d in (r + 1)..=((p as f64).sqrt() as usize) {
                assert!(!p.is_multiple_of(d), "p={p}: {d} is a larger divisor");
            }
        }
    }

    #[test]
    fn standard_slices() {
        assert_eq!(SliceShape::for_cores(128), SliceShape { rows: 8, cols: 8 });
        assert_eq!(SliceShape::for_cores(256), SliceShape { rows: 8, cols: 16 });
        assert_eq!(
            SliceShape::for_cores(512),
            SliceShape { rows: 16, cols: 16 }
        );
        assert_eq!(
            SliceShape::for_cores(1024),
            SliceShape { rows: 16, cols: 32 }
        );
        assert_eq!(
            SliceShape::for_cores(2048),
            SliceShape { rows: 32, cols: 32 }
        );
    }

    #[test]
    fn cores_round_trip() {
        for &c in &[128usize, 256, 512, 1024, 2048] {
            assert_eq!(SliceShape::for_cores(c).cores(), c);
        }
    }

    #[test]
    fn coords_round_trip() {
        let s = SliceShape { rows: 4, cols: 8 };
        for chip in 0..s.chips() {
            let (r, c) = s.coord(chip);
            assert_eq!(s.chip_at(r, c), chip);
        }
    }

    #[test]
    fn torus_wraps() {
        let s = SliceShape { rows: 4, cols: 4 };
        let n = s.neighbors(0); // corner chip
        assert!(n.contains(&s.chip_at(3, 0)), "vertical wrap");
        assert!(n.contains(&s.chip_at(0, 3)), "horizontal wrap");
        assert!(n.contains(&s.chip_at(1, 0)));
        assert!(n.contains(&s.chip_at(0, 1)));
    }

    #[test]
    fn hop_distance_uses_wraparound() {
        let s = SliceShape { rows: 8, cols: 8 };
        assert_eq!(s.hop_distance(s.chip_at(0, 0), s.chip_at(0, 7)), 1);
        assert_eq!(s.hop_distance(s.chip_at(0, 0), s.chip_at(4, 4)), 8);
        assert_eq!(s.hop_distance(s.chip_at(2, 2), s.chip_at(2, 2)), 0);
    }

    #[test]
    fn surviving_floors_to_even_core_counts() {
        assert_eq!(SliceShape::surviving(128), SliceShape::for_cores(128));
        assert_eq!(SliceShape::surviving(127), SliceShape::for_cores(126));
        assert_eq!(SliceShape::surviving(3), SliceShape::for_cores(2));
        assert_eq!(SliceShape::surviving(2), SliceShape::for_cores(2));
    }

    #[test]
    #[should_panic]
    fn surviving_rejects_single_core() {
        SliceShape::surviving(1);
    }

    #[test]
    fn replica_to_chip() {
        let s = SliceShape::for_cores(128);
        assert_eq!(s.chip_of_replica(0), 0);
        assert_eq!(s.chip_of_replica(1), 0);
        assert_eq!(s.chip_of_replica(2), 1);
        assert_eq!(s.chip_of_replica(127), 63);
    }
}
