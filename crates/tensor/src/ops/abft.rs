//! Algorithm-based fault tolerance (ABFT) for the blocked GEMM family.
//!
//! At pod scale, a misbehaving core can produce a wrong product without
//! any error signal — silent *compute* corruption, the failure mode the
//! MLPerf pod papers delegate to hardware integrity. This module closes
//! that gap in software with the classic checksum argument: for every
//! `(MC, NC)` tile of `C`, the column sums of the result must equal the
//! column sums of `A` propagated through `B`,
//!
//! ```text
//! eᵀ·(A·B) = (eᵀ·A)·B
//! ```
//!
//! evaluated in f64 over the *packed* panels (so bf16 pack-time rounding
//! is inside the check, not noise around it) and compared against a
//! tolerance that is a **pure function of shape** — `O(k · ε₃₂)`
//! relative to the tile's absolute-value mass, never a data-dependent or
//! timing-dependent threshold, so every SPMD rank running the same
//! shapes makes the same accept/reject decisions.
//!
//! Properties the test suites pin:
//!
//! - **Bitwise-neutral when clean.** Verification only *reads* `C`; a
//!   clean tile is never touched. Verify-mode-on output is bitwise
//!   identical to verify-mode-off (the verified path routes through the
//!   tile grid, which `kernel_equivalence.rs` pins bitwise equal to the
//!   sequential path).
//! - **Self-healing by recompute.** A failed tile is restored to its
//!   pre-GEMM contents and recomputed from the packed panels; because
//!   the kernel is deterministic, the healed tile is bitwise identical
//!   to an uncorrupted run — corruption never escapes into weights.
//! - **Accounted.** Process-wide counters (`tiles_verified`,
//!   `corruptions_detected`, `tiles_recomputed`, `unrecovered`) feed the
//!   trainer's `RecoveryCounters`.
//!
//! The injection side ([`arm_inject`]) flips one bit of the next
//! verified tile's first output element — the software stand-in for the
//! bad core — so chaos tiers can prove detection end to end. Injection
//! state and counters are process-global: tests that arm injections
//! serialize on their own mutex.
//!
//! Verify mode is **opt-in** and pays one pre-tile snapshot (`MC×NC`
//! f32) plus an `O(m·n·k / MC)` checksum pass — measured as perfbench's
//! `tensor.abft.rel_throughput` row — so fault-free hot paths are
//! untouched.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use super::gemm_blocked::{MR, NR};

static VERIFY: AtomicBool = AtomicBool::new(false);
static TILES_VERIFIED: AtomicU64 = AtomicU64::new(0);
static CORRUPTIONS_DETECTED: AtomicU64 = AtomicU64::new(0);
static TILES_RECOMPUTED: AtomicU64 = AtomicU64::new(0);
static UNRECOVERED: AtomicU64 = AtomicU64::new(0);
/// `0` = disarmed; otherwise `bit + 1` of the pending output flip.
static INJECT: AtomicU32 = AtomicU32::new(0);

/// Enables/disables ABFT tile verification for every blocked GEMM in the
/// process. Bitwise-neutral on clean data; costs a checksum pass.
pub fn set_verify(on: bool) {
    VERIFY.store(on, Ordering::Relaxed);
}

/// True when ABFT tile verification is enabled.
pub fn verify_enabled() -> bool {
    VERIFY.load(Ordering::Relaxed)
}

/// Arms a one-shot output corruption: the next blocked-GEMM tile flips
/// `bit` of its first output element before (any) verification runs.
/// With verify mode on this is detected and healed; with it off the
/// corruption is silent — exactly the escape the chaos tier exists to
/// rule out.
pub fn arm_inject(bit: u8) {
    assert!(bit < 32, "flip bit {bit} outside f32");
    INJECT.store(bit as u32 + 1, Ordering::Relaxed);
}

/// True when an injection is armed and not yet consumed.
pub fn injection_armed() -> bool {
    INJECT.load(Ordering::Relaxed) != 0
}

/// Consumes the armed injection, if any (first caller wins).
pub(crate) fn take_injection() -> Option<u8> {
    match INJECT.swap(0, Ordering::Relaxed) {
        0 => None,
        v => Some((v - 1) as u8),
    }
}

/// Tiles checksum-verified since the last [`reset_counters`].
pub fn tiles_verified() -> u64 {
    TILES_VERIFIED.load(Ordering::Relaxed)
}

/// Tile checksum failures detected.
pub fn corruptions_detected() -> u64 {
    CORRUPTIONS_DETECTED.load(Ordering::Relaxed)
}

/// Tiles healed by deterministic recompute.
pub fn tiles_recomputed() -> u64 {
    TILES_RECOMPUTED.load(Ordering::Relaxed)
}

/// Tiles that failed verification even after recompute (a persistent
/// fault — or genuinely non-finite data, which can never checksum).
pub fn unrecovered() -> u64 {
    UNRECOVERED.load(Ordering::Relaxed)
}

/// Resets all ABFT counters (tests; benches between phases).
pub fn reset_counters() {
    TILES_VERIFIED.store(0, Ordering::Relaxed);
    CORRUPTIONS_DETECTED.store(0, Ordering::Relaxed);
    TILES_RECOMPUTED.store(0, Ordering::Relaxed);
    UNRECOVERED.store(0, Ordering::Relaxed);
}

pub(crate) fn note_tile_verified() {
    TILES_VERIFIED.fetch_add(1, Ordering::Relaxed);
}
pub(crate) fn note_corruption_detected() {
    CORRUPTIONS_DETECTED.fetch_add(1, Ordering::Relaxed);
}
pub(crate) fn note_tile_recomputed() {
    TILES_RECOMPUTED.fetch_add(1, Ordering::Relaxed);
}
pub(crate) fn note_unrecovered() {
    UNRECOVERED.fetch_add(1, Ordering::Relaxed);
}

/// Flips `bit` of `C[ic, jc]` — the armed compute-corruption injection.
///
/// # Safety
/// `c` must point to the full `m×n` C matrix (row stride `n`) and the
/// caller must exclusively own the tile containing `(ic, jc)`.
pub(crate) unsafe fn flip_first_element(c: *mut f32, n: usize, ic: usize, jc: usize, bit: u8) {
    let p = c.add(ic * n + jc);
    *p = f32::from_bits((*p).to_bits() ^ (1u32 << bit));
}

/// Per-tile checksum state: the `(eᵀA)·B` expectation accumulated panel
/// by panel in f64, the pre-GEMM tile snapshot (the `C += A·B` baseline
/// and the restore point for recompute healing), and the absolute-value
/// mass that scales the shape-derived tolerance.
///
/// Allocates per tile — verify mode is opt-in, and the snapshot is the
/// dominant cost anyway.
pub(crate) struct TileVerifier {
    mc: usize,
    nc: usize,
    /// Per-column expected delta `Σ_p (Σ_i A[i,p]) · B[p,j]`, f64.
    expected: Vec<f64>,
    /// Same contraction over |A| and |B| — the error-bound mass.
    expected_abs: Vec<f64>,
    /// Pre-GEMM tile contents, row-major `mc×nc`.
    pre: Vec<f32>,
    pre_sum: Vec<f64>,
    pre_abs: Vec<f64>,
}

impl TileVerifier {
    pub fn new(mc: usize, nc: usize) -> Self {
        TileVerifier {
            mc,
            nc,
            expected: vec![0.0; nc],
            expected_abs: vec![0.0; nc],
            pre: vec![0.0; mc * nc],
            pre_sum: vec![0.0; nc],
            pre_abs: vec![0.0; nc],
        }
    }

    /// Snapshots the tile's pre-GEMM contents and column sums.
    ///
    /// # Safety
    /// `c` points to the full `m×n` C (row stride `n`); the caller
    /// exclusively owns rows `ic..ic+mc` × cols `jc..jc+nc`.
    pub unsafe fn snapshot_pre(&mut self, c: *const f32, n: usize, ic: usize, jc: usize) {
        for i in 0..self.mc {
            let row = c.add((ic + i) * n + jc);
            for j in 0..self.nc {
                let v = *row.add(j);
                self.pre[i * self.nc + j] = v;
                self.pre_sum[j] += v as f64;
                self.pre_abs[j] += (v as f64).abs();
            }
        }
    }

    /// Restores the tile to its snapshot (the recompute baseline).
    ///
    /// # Safety
    /// Same contract as [`TileVerifier::snapshot_pre`].
    pub unsafe fn restore_pre(&self, c: *mut f32, n: usize, ic: usize, jc: usize) {
        for i in 0..self.mc {
            let row = c.add((ic + i) * n + jc);
            for j in 0..self.nc {
                *row.add(j) = self.pre[i * self.nc + j];
            }
        }
    }

    /// Clears the accumulated expectation before a recompute pass.
    pub fn reset_expected(&mut self) {
        self.expected.iter_mut().for_each(|v| *v = 0.0);
        self.expected_abs.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Folds one `(pc)` depth block into the expectation: column sums of
    /// the packed A region's rows `ic..ic+mc` contracted with the packed
    /// B panel. Operates on the *packed* values (bf16-rounded when the
    /// product is bf16), so the check verifies exactly what the
    /// micro-kernel multiplies. Padded rows/columns are zero in both
    /// panels and drop out of the sums.
    pub fn absorb_panels(&mut self, a_region: &[f32], bp: &[f32], kc: usize, ic: usize) {
        let t0 = ic / MR;
        let a_tiles = self.mc.div_ceil(MR);
        let mut colsum = vec![0.0f64; kc];
        let mut colabs = vec![0.0f64; kc];
        for dt in 0..a_tiles {
            let tile = &a_region[(t0 + dt) * kc * MR..(t0 + dt + 1) * kc * MR];
            for (p, (cs, ca)) in colsum.iter_mut().zip(colabs.iter_mut()).enumerate() {
                for &v in &tile[p * MR..(p + 1) * MR] {
                    *cs += v as f64;
                    *ca += (v as f64).abs();
                }
            }
        }
        let b_tiles = self.nc.div_ceil(NR);
        for jt in 0..b_tiles {
            let tile = &bp[jt * kc * NR..(jt + 1) * kc * NR];
            let jn = NR.min(self.nc - jt * NR);
            for p in 0..kc {
                let cs = colsum[p];
                let ca = colabs[p];
                for jj in 0..jn {
                    let bv = tile[p * NR + jj] as f64;
                    self.expected[jt * NR + jj] += cs * bv;
                    self.expected_abs[jt * NR + jj] += ca * bv.abs();
                }
            }
        }
    }

    /// Checks the tile's column sums against the expectation. The
    /// tolerance coefficient `4·(k+32)·ε₃₂` is a pure function of shape
    /// (4× the standard `γ_k` forward-error bound for an f32 dot of
    /// length `k`, summed over the tile's rows), applied relative to the
    /// tile's absolute-value mass. Kept deliberately snug: actual
    /// rounding error concentrates near `√k·ε₃₂` scale, and every factor
    /// of slack widens the band where a low-mantissa-bit flip hides
    /// below the noise floor. NaN anywhere fails the comparison —
    /// non-finite tiles can never checksum, by design.
    ///
    /// # Safety
    /// Same contract as [`TileVerifier::snapshot_pre`].
    pub unsafe fn verify(&self, c: *const f32, n: usize, ic: usize, jc: usize, k: usize) -> bool {
        let mut actual = vec![0.0f64; self.nc];
        for i in 0..self.mc {
            let row = c.add((ic + i) * n + jc);
            for (j, a) in actual.iter_mut().enumerate() {
                *a += *row.add(j) as f64;
            }
        }
        let coeff = 4.0 * (k as f64 + 32.0) * f32::EPSILON as f64;
        for (j, &col_sum) in actual.iter().enumerate() {
            let delta = col_sum - self.pre_sum[j] - self.expected[j];
            let tol = coeff * (self.expected_abs[j] + self.pre_abs[j]) + 1e-20;
            // Deliberately `!(x <= tol)` rather than `x > tol`: a NaN delta
            // fails the `<=` and must register as corrupt — `>` would let
            // non-finite tiles pass silently.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(delta.abs() <= tol) {
                return false;
            }
        }
        true
    }
}
