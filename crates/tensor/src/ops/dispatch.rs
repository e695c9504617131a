//! The one GEMM entry: [`gemm`]`(`[`GemmDesc`]`, a, b, c)`.
//!
//! Orientation, accumulation and precision are operands of the product,
//! not different products: a [`GemmDesc`] carries `m, k, n`, an
//! [`Orient`] (`AB`, `AᵀB`, `ABᵀ` — the three the forward and backward
//! passes need; `AᵀBᵀ` has no caller and is not expressible), whether `C`
//! is overwritten or accumulated into, and the [`GemmPrecision`] the
//! operands are rounded to. Three functions take it:
//!
//! - [`gemm`] — the routed entry every production product goes through,
//!   the three batch-wide conv products included;
//! - [`gemm_blocked`] — always the packed kernel;
//! - [`gemm_naive`] — always the streaming kernel: the small-shape tail
//!   and the reference the packed kernel is tested against.
//!
//! [`gemm_auto`] is the one shorthand (`AB`, f32, overwrite).
//!
//! # Routing
//!
//! [`gemm`] picks the kernel as a **pure function of (m, k, n)** — never
//! timing, never feature detection — so every SPMD replica running the
//! same layer shape takes the same code path and the cross-rank /
//! cross-backend bitwise fingerprint invariants keep holding. (The two
//! kernels differ bitwise from each other — different summation order —
//! which is exactly why routing must be deterministic: a replica that
//! flipped kernels mid-run would fork the fingerprint.)
//!
//! Blocked wins when there is enough arithmetic to amortize packing:
//! roughly one extra pass over A and B each. The crossover on
//! cache-resident sizes is low, so the predicate is a conservative MAC
//! threshold plus degenerate-shape guards (a 2×2 micro-GEMM gains
//! nothing from MR×NR tiling):
//!
//! - `m * k * n >= BLOCKED_MIN_MACS` (32 Ki multiply-adds)
//! - `m >= MR`, `n >= NR`, `k >= BLOCKED_MIN_K` (= 24)
//!
//! The `k` floor is the small-k guard: at `k` this shallow the packing
//! pass is a full extra sweep over both operands for almost no reuse —
//! `b0_mb_expand_1x1_56px` (m=96, k=16, n=3136) measured blocked at
//! 0.84× naive before the guard. The 1×1-conv shapes with `k < 24`
//! (expand convs out of narrow trunks) stream through the naive kernel;
//! 3×3 stem shapes (k=27) and everything deeper keep the packed path.
//!
//! The threshold is deliberately low enough that the proxy-scale trainer
//! configs used in tests (e.g. a width-0.25 model at resolution 32)
//! exercise the blocked path; the dispatch counters below let tests
//! assert that coverage.
//!
//! # Precision policy
//!
//! [`GemmPrecision`] selection is the same kind of decision and obeys
//! the same law: [`GemmPolicy::precision`] is a pure function of shape +
//! experiment config (the `Experiment.precision` knob), never timing.
//! With mixed precision enabled, a GEMM runs bf16×bf16→f32 (§3.5's MXU
//! contract) when its MAC volume clears [`MIXED_MIN_MACS`]; tiny
//! products — squeeze-excite FCs, proxy-scale heads — stay f32, where
//! conversion overhead would dominate and the paper keeps full precision
//! anyway. Precision and kernel choice compose orthogonally: the blocked
//! kernel rounds each element once at pack time, the naive kernel
//! quantizes both operands into arena scratch and streams.
//!
//! # Counters
//!
//! [`dispatch_blocked_calls`] / [`dispatch_naive_calls`] tally which
//! path ran, process-wide, with per-precision splits
//! ([`dispatch_calls`]). The trainer exports all four splits through the
//! obs registry; trainer-level tests assert `blocked > 0` so a silent
//! threshold regression cannot quietly route everything to the naive
//! kernel, and the bf16 splits let the mixed-precision proxy runs prove
//! they actually exercised the narrow kernels.

use std::sync::atomic::{AtomicU64, Ordering};

use super::gemm_blocked::{gemm_blocked, MR, NR};
use super::matmul::gemm_naive;

/// Minimum multiply-accumulate count before packing pays for itself.
pub const BLOCKED_MIN_MACS: usize = 1 << 15;

/// Minimum reduction depth before packing pays for itself (the small-k
/// guard): below this, packing B is an extra full pass over the operand
/// for ~one reuse. Sits between the narrow 1×1 expand convs (k = c_in ≤
/// 16 at B0's first stage) and the 3×3 stem (k = 27).
pub const BLOCKED_MIN_K: usize = 24;

/// Minimum MAC volume before mixed precision converts a GEMM's panels to
/// bf16. Same scale as [`BLOCKED_MIN_MACS`]: tiny products pay
/// conversion for no reuse and carry outsized relative rounding impact
/// (squeeze-excite gates), so they stay f32 — which is also §3.5's
/// recipe (convolutions in bf16, the small tails in f32).
pub const MIXED_MIN_MACS: usize = 1 << 15;

static BLOCKED_F32_CALLS: AtomicU64 = AtomicU64::new(0);
static NAIVE_F32_CALLS: AtomicU64 = AtomicU64::new(0);
static BLOCKED_BF16_CALLS: AtomicU64 = AtomicU64::new(0);
static NAIVE_BF16_CALLS: AtomicU64 = AtomicU64::new(0);

/// Element precision a GEMM's packed panels are stored in. Accumulation
/// is always f32; `Bf16` rounds each operand element once at pack time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GemmPrecision {
    F32,
    Bf16,
}

impl GemmPrecision {
    /// Human-readable tag ("f32" / "bf16") for benches, logs, metrics.
    pub fn name(self) -> &'static str {
        match self {
            GemmPrecision::F32 => "f32",
            GemmPrecision::Bf16 => "bf16",
        }
    }
}

/// How the operands of a product are stored. The effective product is
/// always `A(m×k) · B(k×n)`; `AᵀBᵀ` has no caller and is deliberately
/// not representable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orient {
    /// `a` row-major `m×k`, `b` row-major `k×n`.
    AB,
    /// `a` stored `k×m` (weight gradients: `dW = dOutᵀ · X`).
    AtB,
    /// `b` stored `n×k` (input gradients: `dX = dOut · W`, `W` out×in).
    ABt,
}

impl Orient {
    /// Every orientation, for tests and benches that sweep them.
    pub const ALL: [Orient; 3] = [Orient::AB, Orient::AtB, Orient::ABt];
}

/// One dense product `C(m×n) ⟵ [C +] A(m×k) · B(k×n)`: everything the
/// kernels need to know besides the three slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GemmDesc {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub orient: Orient,
    /// `C += A·B` instead of `C = A·B`.
    pub accumulate: bool,
    pub precision: GemmPrecision,
}

impl GemmDesc {
    /// The plain product: `AB`, f32, overwrite. Other products are
    /// struct updates of this one.
    pub const fn new(m: usize, k: usize, n: usize) -> GemmDesc {
        GemmDesc {
            m,
            k,
            n,
            orient: Orient::AB,
            accumulate: false,
            precision: GemmPrecision::F32,
        }
    }
}

/// The experiment-level precision policy: decides, per GEMM shape,
/// whether panels are packed as bf16. Constructed from the serializable
/// `Experiment.precision` knob and threaded through the model layers —
/// a **pure function of shape + config**, so SPMD replicas running the
/// same layer sequence make identical choices and cannot fork kernels
/// mid-run (the determinism suite asserts this).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct GemmPolicy {
    /// Mixed precision enabled (the §3.5 recipe)?
    pub mixed: bool,
}

impl GemmPolicy {
    /// Everything stays f32.
    pub const F32_ONLY: GemmPolicy = GemmPolicy { mixed: false };
    /// Large GEMMs run bf16×bf16→f32.
    pub const MIXED_BF16: GemmPolicy = GemmPolicy { mixed: true };

    /// Precision for an `m × k × n` product: bf16 iff mixed precision is
    /// on and the MAC volume clears [`MIXED_MIN_MACS`]. Pure in (self,
    /// m, k, n) — no timing, no global state.
    #[inline]
    pub fn precision(&self, m: usize, k: usize, n: usize) -> GemmPrecision {
        if self.mixed && m.saturating_mul(k).saturating_mul(n) >= MIXED_MIN_MACS {
            GemmPrecision::Bf16
        } else {
            GemmPrecision::F32
        }
    }
}

/// Number of dispatches routed to the blocked packed kernel (both
/// precisions).
pub fn dispatch_blocked_calls() -> u64 {
    BLOCKED_F32_CALLS.load(Ordering::Relaxed) + BLOCKED_BF16_CALLS.load(Ordering::Relaxed)
}

/// Number of dispatches routed to the naive streaming kernel (both
/// precisions).
pub fn dispatch_naive_calls() -> u64 {
    NAIVE_F32_CALLS.load(Ordering::Relaxed) + NAIVE_BF16_CALLS.load(Ordering::Relaxed)
}

/// Per-precision dispatch split: `(blocked, naive)` call counts for one
/// precision.
pub fn dispatch_calls(precision: GemmPrecision) -> (u64, u64) {
    match precision {
        GemmPrecision::F32 => (
            BLOCKED_F32_CALLS.load(Ordering::Relaxed),
            NAIVE_F32_CALLS.load(Ordering::Relaxed),
        ),
        GemmPrecision::Bf16 => (
            BLOCKED_BF16_CALLS.load(Ordering::Relaxed),
            NAIVE_BF16_CALLS.load(Ordering::Relaxed),
        ),
    }
}

/// Reset all dispatch counters (tests; benches between phases).
pub fn reset_dispatch_counters() {
    BLOCKED_F32_CALLS.store(0, Ordering::Relaxed);
    NAIVE_F32_CALLS.store(0, Ordering::Relaxed);
    BLOCKED_BF16_CALLS.store(0, Ordering::Relaxed);
    NAIVE_BF16_CALLS.store(0, Ordering::Relaxed);
}

/// Pure shape predicate: should an `m × k × n` product take the blocked
/// packed kernel? Deterministic — depends on nothing but the arguments.
#[inline]
pub fn blocked_profitable(m: usize, k: usize, n: usize) -> bool {
    if m < MR || n < NR || k < BLOCKED_MIN_K {
        return false;
    }
    // Saturating: shapes big enough to overflow are certainly profitable.
    m.saturating_mul(k).saturating_mul(n) >= BLOCKED_MIN_MACS
}

/// The one routed GEMM: the shape picks the kernel
/// ([`blocked_profitable`]), the descriptor's `precision` picks the
/// operand rounding, and both kernels honor every orientation and
/// `accumulate` — so requested numerics always hold and only the
/// *kernel* switches by shape. Tallies one dispatch per call.
pub fn gemm(desc: GemmDesc, a: &[f32], b: &[f32], c: &mut [f32]) {
    let blocked = blocked_profitable(desc.m, desc.k, desc.n);
    let counter = match (desc.precision, blocked) {
        (GemmPrecision::F32, true) => &BLOCKED_F32_CALLS,
        (GemmPrecision::F32, false) => &NAIVE_F32_CALLS,
        (GemmPrecision::Bf16, true) => &BLOCKED_BF16_CALLS,
        (GemmPrecision::Bf16, false) => &NAIVE_BF16_CALLS,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    if blocked {
        gemm_blocked(desc, a, b, c);
    } else {
        gemm_naive(desc, a, b, c);
    }
}

/// Shorthand for the plain product: [`gemm`] with `AB`, f32, overwrite.
pub fn gemm_auto(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm(GemmDesc::new(m, k, n), a, b, c);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_is_pure_and_monotone_in_volume() {
        // Same shape always answers the same.
        for _ in 0..4 {
            assert!(blocked_profitable(64, 64, 64));
            assert!(!blocked_profitable(2, 2, 2));
        }
        // Degenerate dims never go blocked regardless of volume.
        assert!(!blocked_profitable(1, 1 << 20, 1 << 10));
        assert!(!blocked_profitable(1 << 10, 1 << 20, 1));
        assert!(!blocked_profitable(1 << 10, 2, 1 << 10));
    }

    #[test]
    fn calibration_shape_goes_blocked() {
        // The ISSUE calibration conv shape must take the fast path.
        assert!(blocked_profitable(256, 1152, 3136));
    }

    #[test]
    fn small_k_guard_routes_shallow_gemms_naive() {
        // b0_mb_expand_1x1_56px: m=96, k=16, n=3136 — measured 0.84×
        // naive on the packed kernel before the guard; must stream.
        assert!(!blocked_profitable(96, 16, 3136));
        // The 3×3 stem (k = 27) sits just above the floor and must keep
        // the packed path (measured 1.5× naive).
        assert!(blocked_profitable(32, 27, 3136));
        assert_eq!(BLOCKED_MIN_K, 24);
    }

    #[test]
    fn proxy_scale_shapes_go_blocked() {
        // Width-0.25 model at resolution 32: head linear and the larger
        // pointwise convs must still clear the threshold so trainer-level
        // dispatch-coverage tests are meaningful.
        // e.g. pointwise conv: m=C_out=16, k=C_in=96, n=H*W*batch rows.
        assert!(blocked_profitable(16, 96, 16 * 16));
    }

    #[test]
    fn precision_policy_is_pure_and_config_gated() {
        let f32_only = GemmPolicy::F32_ONLY;
        let mixed = GemmPolicy::MIXED_BF16;
        // Purity: repeated evaluation agrees (nothing but the arguments).
        for _ in 0..4 {
            assert_eq!(f32_only.precision(256, 1152, 3136), GemmPrecision::F32);
            assert_eq!(mixed.precision(256, 1152, 3136), GemmPrecision::Bf16);
        }
        // Shape gate: tiny products stay f32 even under mixed (SE FCs).
        assert_eq!(mixed.precision(4, 16, 4), GemmPrecision::F32);
        // Boundary: exactly MIXED_MIN_MACS goes bf16.
        assert_eq!(mixed.precision(32, 32, 32), GemmPrecision::Bf16);
        assert_eq!(32 * 32 * 32, MIXED_MIN_MACS);
    }

    #[test]
    fn counters_tally_each_path_per_precision() {
        reset_dispatch_counters();
        let big = vec![1.0f32; 64 * 64];
        let mut big_c = vec![0.0f32; 64 * 64];
        let small = [1.0f32; 4];
        let mut small_c = [0.0f32; 4];
        for precision in [GemmPrecision::F32, GemmPrecision::Bf16] {
            let d = GemmDesc::new(64, 64, 64);
            gemm(GemmDesc { precision, ..d }, &big, &big, &mut big_c);
            let d = GemmDesc::new(2, 2, 2);
            gemm(GemmDesc { precision, ..d }, &small, &small, &mut small_c);
        }
        let (bf32, nf32) = dispatch_calls(GemmPrecision::F32);
        let (bb16, nb16) = dispatch_calls(GemmPrecision::Bf16);
        assert!(bf32 >= 1 && nf32 >= 1);
        assert!(bb16 >= 1 && nb16 >= 1);
        assert_eq!(dispatch_blocked_calls(), bf32 + bb16);
        assert_eq!(dispatch_naive_calls(), nf32 + nb16);
        assert_eq!(big_c[0], 64.0);
        assert_eq!(small_c[0], 2.0);
    }

    /// Every descriptor on both sides of the routing boundary vs an f64
    /// reference: f32 to accumulation accuracy, bf16 to operand-rounding
    /// accuracy; accumulating products add exactly one more product.
    #[test]
    fn every_descriptor_matches_reference_on_both_sides_of_threshold() {
        for &(m, k, n) in &[(3, 5, 9), (48, 40, 64)] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 3 % 17) as f32) / 17.0 - 0.5)
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 5 % 19) as f32) / 19.0 - 0.5)
                .collect();
            let mut reference = vec![0.0f64; m * n];
            let (mut at, mut bt) = (vec![0.0f32; m * k], vec![0.0f32; k * n]);
            for i in 0..m {
                for p in 0..k {
                    at[p * m + i] = a[i * k + p];
                    for j in 0..n {
                        bt[j * k + p] = b[p * n + j];
                        reference[i * n + j] += a[i * k + p] as f64 * b[p * n + j] as f64;
                    }
                }
            }
            for orient in Orient::ALL {
                let (lhs, rhs) = match orient {
                    Orient::AB => (&a, &b),
                    Orient::AtB => (&at, &b),
                    Orient::ABt => (&a, &bt),
                };
                for precision in [GemmPrecision::F32, GemmPrecision::Bf16] {
                    for accumulate in [false, true] {
                        let desc = GemmDesc {
                            orient,
                            accumulate,
                            precision,
                            ..GemmDesc::new(m, k, n)
                        };
                        let bias = if accumulate { 1.0 } else { 0.0 };
                        let mut c = vec![if accumulate { 1.0 } else { 7.5 }; m * n];
                        gemm(desc, lhs, rhs, &mut c);
                        let tol = match precision {
                            GemmPrecision::F32 => 1e-4,
                            GemmPrecision::Bf16 => 0.1 * k as f64 / 16.0 + 1e-3,
                        };
                        for (x, r) in c.iter().zip(&reference) {
                            assert!((*x as f64 - (r + bias)).abs() < tol, "{desc:?}");
                        }
                    }
                }
            }
        }
    }
}
