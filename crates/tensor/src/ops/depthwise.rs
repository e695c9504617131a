//! Depthwise 2-D convolution (`groups == channels`, multiplier 1):
//! branch-free plane kernels for forward, `dx` and `dw`.
//!
//! Layouts as in [`super::conv`]: `x` is `NCHW`, `w` is `[C, 1, KH, KW]`,
//! `y` is `[N, C, H_out, W_out]`. A *plane* is one `(image, channel)` pair;
//! planes never interact except through `dw`, which sums a channel's
//! planes over the batch.
//!
//! # Order contract
//!
//! Every output element is one `f32` chain whose order is fixed by the
//! geometry alone, the order of the per-pixel loops this module replaced
//! (kept below as [`depthwise_forward_reference`] and
//! [`depthwise_backward_reference`], the test oracle):
//!
//! - `y[oh, ow]`: from `+0.0`, taps `(ki, kj)` ascending, taps that fall
//!   in the padding skipped (not multiplied by zero: `0·NaN` is `NaN`);
//! - `dx[ih, iw]`: from `+0.0`, the outputs that read it in ascending
//!   `(oh, ow)`;
//! - `dw[c, ki, kj]`: per plane from `+0.0` over ascending `(oh, ow)`,
//!   then the planes of channel `c` added into the destination gradient
//!   in ascending image order.
//!
//! Products are separate `mul` and `add`, never fused. So the kernels
//! below are bitwise equal to the reference loops, and to one another on
//! every [`LanePath`]: a wider lane advances more independent chains per
//! instruction and reorders none.
//!
//! # Regimes
//!
//! Which kernel runs is a pure function of `(kh, kw, stride, pad, h, w)`:
//!
//! - **Whole plane** ([`forward_pixels`], [`dx_pixels`], [`dw_taps`]):
//!   per output the valid tap range is computed, not tested, so the tap
//!   loops carry no branch. For the small square maps of an EfficientNet
//!   ([`small_map`]: 1² to 4², and 8² at stride 2, where most taps of a
//!   5×5 kernel are padding) these are instantiated with literal
//!   geometry, so the ranges fold to constants and only valid taps are
//!   emitted. Any other geometry the row regimes do not take runs the
//!   same source with run-time ranges.
//! - **Rows, stride 1** (SAME padding, at least [`MIN_SPAN`] output
//!   columns that see every kernel column): input and output rows have
//!   one pitch, so tap `(ki, kj)` of *every* output is the input at one
//!   fixed distance, and a block of rows is one long unit-stride span
//!   ([`flat_rows`], [`row_taps`]: up to four [`LANES`]-wide registers
//!   of outputs advance together, accumulators in registers across all
//!   taps). The span runs from the first row's first interior column to
//!   the last row's last; the border columns it crosses on the way are
//!   computed through taps that wrapped into the next row, and are then
//!   overwritten tap by tap down the column ([`forward_cols`],
//!   [`dx_cols`]). `dx` is the same problem over `dy` with the taps in
//!   descending order.
//! - **Rows, stride 2**: the same after a phase split. Forward copies
//!   the input plane into its four (row parity × column parity) phase
//!   planes at the output's pitch, which makes every tap a fixed
//!   distance again; `dx` computes its four phases as four such problems
//!   over `dy` and interleaves them on store.
//!
//! `dw` in the row regimes keeps one accumulator vector per kernel row,
//! lanes over `kj` ([`dw_span`]): for one output the `kw` taps of a
//! kernel row read adjacent inputs, so the `kh` chains advance together
//! down the row in ascending `ow`.

use crate::ops::simd::{lane_path, LanePath};
use crate::scratch::scratch_f32;
use crate::shape::conv_out_dim;
use crate::tensor::Tensor;
use std::ops::Range;

/// Largest kernel side the row regimes keep per-tap state for; larger
/// kernels run the whole-plane kernels.
const MAX_K: usize = 5;
const MAX_TAPS: usize = MAX_K * MAX_K;
/// Outputs per register tile of the row kernels (one AVX2 register, two
/// SSE2 registers), and the lanes of a `dw` accumulator row.
const LANES: usize = 8;
/// Fewest interior columns (output columns that see every kernel
/// column) a row regime takes: below it the border columns, which run
/// one at a time, outweigh the rest.
const MIN_SPAN: usize = 4;

/// Geometry of one plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Geom {
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    h: usize,
    w: usize,
    h_out: usize,
    w_out: usize,
}

impl Geom {
    #[inline(always)]
    fn new(kh: usize, kw: usize, stride: usize, pad: usize, h: usize, w: usize) -> Geom {
        Geom {
            kh,
            kw,
            stride,
            pad,
            h,
            w,
            h_out: conv_out_dim(h, kh, stride, pad),
            w_out: conv_out_dim(w, kw, stride, pad),
        }
    }

    fn taps(&self) -> usize {
        self.kh * self.kw
    }
}

/// Kernel taps `k < klen` that output `o` reads inside the input:
/// `0 <= o·stride + k - pad < in_len`.
#[inline(always)]
fn taps_at(o: usize, klen: usize, stride: usize, pad: usize, in_len: usize) -> Range<usize> {
    let hi = (in_len + pad).saturating_sub(o * stride).min(klen);
    pad.saturating_sub(o * stride).min(hi)..hi
}

/// Outputs `o < out_len` for which tap `k` reads inside the input.
#[inline(always)]
fn outs_of(k: usize, stride: usize, pad: usize, in_len: usize, out_len: usize) -> Range<usize> {
    let hi = (in_len + pad)
        .saturating_sub(k)
        .div_ceil(stride)
        .min(out_len);
    pad.saturating_sub(k).div_ceil(stride).min(hi)..hi
}

/// Outputs `o < out_len` that read input `i` through some tap:
/// `0 <= i + pad - o·stride < klen`.
#[inline(always)]
fn outs_reading(i: usize, klen: usize, stride: usize, pad: usize, out_len: usize) -> Range<usize> {
    let hi = ((i + pad) / stride + 1).min(out_len);
    (i + pad + 1).saturating_sub(klen).div_ceil(stride).min(hi)..hi
}

// ------------------------------------------------------- whole-plane kernels

/// `y[.., cols]` of one plane: per output, the valid taps in ascending
/// order.
#[inline(always)]
fn forward_pixels(g: &Geom, x: &[f32], ker: &[f32], y: &mut [f32], cols: Range<usize>) {
    let (x, ker, y) = (
        &x[..g.h * g.w],
        &ker[..g.taps()],
        &mut y[..g.h_out * g.w_out],
    );
    for oh in 0..g.h_out {
        let kis = taps_at(oh, g.kh, g.stride, g.pad, g.h);
        for ow in cols.clone() {
            let kjs = taps_at(ow, g.kw, g.stride, g.pad, g.w);
            let mut acc = 0.0f32;
            for ki in kis.clone() {
                let xrow = &x[(oh * g.stride + ki - g.pad) * g.w..][..g.w];
                let krow = &ker[ki * g.kw..][..g.kw];
                for kj in kjs.clone() {
                    acc += krow[kj] * xrow[ow * g.stride + kj - g.pad];
                }
            }
            y[oh * g.w_out + ow] = acc;
        }
    }
}

/// `dx[.., cols]` of one plane: per input, the outputs that read it in
/// ascending `(oh, ow)`.
#[inline(always)]
fn dx_pixels(g: &Geom, dy: &[f32], ker: &[f32], dx: &mut [f32], cols: Range<usize>) {
    let (dy, ker, dx) = (
        &dy[..g.h_out * g.w_out],
        &ker[..g.taps()],
        &mut dx[..g.h * g.w],
    );
    for ih in 0..g.h {
        let ohs = outs_reading(ih, g.kh, g.stride, g.pad, g.h_out);
        for iw in cols.clone() {
            let ows = outs_reading(iw, g.kw, g.stride, g.pad, g.w_out);
            let mut acc = 0.0f32;
            for oh in ohs.clone() {
                let dyrow = &dy[oh * g.w_out..][..g.w_out];
                let krow = &ker[(ih + g.pad - oh * g.stride) * g.kw..][..g.kw];
                for ow in ows.clone() {
                    acc += dyrow[ow] * krow[iw + g.pad - ow * g.stride];
                }
            }
            dx[ih * g.w + iw] = acc;
        }
    }
}

/// One plane's `dw` partial: per tap, its outputs in ascending
/// `(oh, ow)`.
#[inline(always)]
fn dw_taps(g: &Geom, x: &[f32], dy: &[f32], part: &mut [f32]) {
    let (x, dy, part) = (
        &x[..g.h * g.w],
        &dy[..g.h_out * g.w_out],
        &mut part[..g.taps()],
    );
    for ki in 0..g.kh {
        let ohs = outs_of(ki, g.stride, g.pad, g.h, g.h_out);
        for kj in 0..g.kw {
            let ows = outs_of(kj, g.stride, g.pad, g.w, g.w_out);
            let mut acc = 0.0f32;
            for oh in ohs.clone() {
                let dyrow = &dy[oh * g.w_out..][..g.w_out];
                let xrow = &x[(oh * g.stride + ki - g.pad) * g.w..][..g.w];
                for ow in ows.clone() {
                    acc += dyrow[ow] * xrow[ow * g.stride + kj - g.pad];
                }
            }
            part[ki * g.kw + kj] = acc;
        }
    }
}

/// [`forward_pixels`] for the border columns of a tall plane: tap by
/// tap down the column, so the loops carry the per-tap row range instead
/// of a per-output tap range. Each output still sums its valid taps in
/// ascending order.
#[inline(always)]
fn forward_cols(g: &Geom, x: &[f32], ker: &[f32], y: &mut [f32], cols: Range<usize>) {
    for ow in cols {
        let kjs = taps_at(ow, g.kw, g.stride, g.pad, g.w);
        y.iter_mut()
            .skip(ow)
            .step_by(g.w_out)
            .for_each(|v| *v = 0.0);
        for ki in 0..g.kh {
            let ohs = outs_of(ki, g.stride, g.pad, g.h, g.h_out);
            for kj in kjs.clone() {
                let (wt, col) = (ker[ki * g.kw + kj], ow * g.stride + kj - g.pad);
                for oh in ohs.clone() {
                    y[oh * g.w_out + ow] += wt * x[(oh * g.stride + ki - g.pad) * g.w + col];
                }
            }
        }
    }
}

/// [`dx_pixels`] for the border columns of a tall plane, tap by tap down
/// the column: kernel rows descending and, within one, outputs
/// ascending, so each input still sums its outputs in ascending
/// `(oh, ow)`.
#[inline(always)]
fn dx_cols(g: &Geom, dy: &[f32], ker: &[f32], dx: &mut [f32], cols: Range<usize>) {
    for iw in cols {
        let ows = outs_reading(iw, g.kw, g.stride, g.pad, g.w_out);
        dx.iter_mut().skip(iw).step_by(g.w).for_each(|v| *v = 0.0);
        for ki in (0..g.kh).rev() {
            let ohs = outs_of(ki, g.stride, g.pad, g.h, g.h_out);
            for ow in ows.clone() {
                let wt = ker[ki * g.kw + iw + g.pad - ow * g.stride];
                for oh in ohs.clone() {
                    dx[(oh * g.stride + ki - g.pad) * g.w + iw] += dy[oh * g.w_out + ow] * wt;
                }
            }
        }
    }
}

/// Whole-plane forward: `(x, ker, y)`.
type ForwardPlane = fn(&[f32], &[f32], &mut [f32]);
/// Whole-plane backward: `(x, ker, dy, dx, dw_partial)`.
type BackwardPlane = fn(&[f32], &[f32], &[f32], &mut [f32], &mut [f32]);

/// The constant-geometry whole-plane kernels for `g`, if it is one of
/// the square SAME-padded maps every depthwise layer of an EfficientNet
/// with an output row shorter than a vector has: `(kernel, stride,
/// side)` below. The geometry is spelled as literals inside each
/// instance so that the tap ranges fold.
fn small_map(g: &Geom) -> Option<(ForwardPlane, BackwardPlane)> {
    macro_rules! instances {
        ($(($k:literal, $s:literal, $side:literal)),*) => {
            $(if *g == Geom::new($k, $k, $s, $k / 2, $side, $side) {
                return Some((
                    |x, ker, y| {
                        let g = Geom::new($k, $k, $s, $k / 2, $side, $side);
                        forward_pixels(&g, x, ker, y, 0..g.w_out)
                    },
                    |x, ker, dy, dx, part| {
                        let g = Geom::new($k, $k, $s, $k / 2, $side, $side);
                        // 64 inputs are too many to unroll one by one;
                        // tap by tap the loops are few and long.
                        if $side > 4 {
                            dx_cols(&g, dy, ker, dx, 0..g.w);
                        } else {
                            dx_pixels(&g, dy, ker, dx, 0..g.w);
                        }
                        dw_taps(&g, x, dy, part)
                    },
                ));
            })*
        };
    }
    instances! {
        (3, 1, 1), (3, 1, 2), (3, 1, 4), (3, 2, 1), (3, 2, 2), (3, 2, 4), (3, 2, 8),
        (5, 1, 1), (5, 1, 2), (5, 1, 4), (5, 2, 1), (5, 2, 2), (5, 2, 4), (5, 2, 8)
    }
    None
}

// --------------------------------------------------------------- row kernels

/// `out[i] = Σ_t wts[t] · src[at + i + shifts[t]]`, taps in slice order
/// from `+0.0`: a span of outputs for which every tap is a unit-stride
/// read. `N` outputs advance together, each its own chain; a remainder
/// shorter than `N` recomputes the last `N` outputs, which writes the
/// same values again. Needs `out.len() >= N`.
#[inline(always)]
fn row_taps_tiles<const N: usize>(
    out: &mut [f32],
    at: usize,
    src: &[f32],
    shifts: &[isize],
    wts: &[f32],
) {
    let tile = |i: usize| {
        let mut acc = [0.0f32; N];
        for (&shift, &wt) in shifts.iter().zip(wts) {
            let from = ((at + i) as isize + shift) as usize;
            let s: &[f32; N] = src[from..][..N].try_into().expect("N elements");
            for (a, &v) in acc.iter_mut().zip(s) {
                *a += wt * v;
            }
        }
        acc
    };
    let n = out.len();
    debug_assert!(n >= N || n == 0, "span of {n} under a tile of {N}");
    for i in (0..(n + 1).saturating_sub(N)).step_by(N) {
        out[i..i + N].copy_from_slice(&tile(i));
    }
    if !n.is_multiple_of(N) {
        out[n - N..].copy_from_slice(&tile(n - N));
    }
}

/// [`row_taps_tiles`] at the widest tile the span fills: four, two or
/// one [`LANES`]-wide registers, or half of one.
#[inline(always)]
fn row_taps_widest(out: &mut [f32], at: usize, src: &[f32], shifts: &[isize], wts: &[f32]) {
    const HALF: usize = LANES / 2;
    const TWO: usize = 2 * LANES;
    const FOUR: usize = 4 * LANES;
    match out.len() {
        0..HALF => row_taps_tiles::<1>(out, at, src, shifts, wts),
        HALF..LANES => row_taps_tiles::<HALF>(out, at, src, shifts, wts),
        LANES..TWO => row_taps_tiles::<LANES>(out, at, src, shifts, wts),
        TWO..FOUR => row_taps_tiles::<TWO>(out, at, src, shifts, wts),
        _ => row_taps_tiles::<FOUR>(out, at, src, shifts, wts),
    }
}

/// [`row_taps_widest`] compiled for 8-lane registers.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_taps_avx2(out: &mut [f32], at: usize, src: &[f32], shifts: &[isize], wts: &[f32]) {
    row_taps_widest(out, at, src, shifts, wts)
}

/// [`row_taps_tiles`] on `lane`. All widths run the same source, so they
/// agree bitwise; `Scalar` is the one-output-at-a-time twin the others
/// are tested against.
fn row_taps(
    lane: LanePath,
    out: &mut [f32],
    at: usize,
    src: &[f32],
    shifts: &[isize],
    wts: &[f32],
) {
    match lane {
        LanePath::Scalar => row_taps_tiles::<1>(out, at, src, shifts, wts),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `lane_path()` hands out `Avx2` only on hosts that have
        // it (detected, or forced through an `available()` assert).
        LanePath::Avx2 => unsafe { row_taps_avx2(out, at, src, shifts, wts) },
        _ => row_taps_widest(out, at, src, shifts, wts),
    }
}

/// One unit-stride problem over a plane of `rows` rows, `pitch` apart:
/// `out[o] = Σ_t wts[t] · src[o + shifts[t]]` on the `span` columns of
/// every row, where the taps come in groups of `per_group` and row `r`
/// sums the groups `groups_at(r)`. Consecutive rows with the same groups
/// run as *one* span, from the first row's `span.start` to the last
/// row's `span.end`, so a narrow map still fills the widest tile. In
/// between, the columns outside `span` are written too, through taps
/// that wrap into the neighbouring row: the caller overwrites them.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn flat_rows(
    lane: LanePath,
    out: &mut [f32],
    (rows, pitch): (usize, usize),
    span: &Range<usize>,
    groups_at: impl Fn(usize) -> Range<usize>,
    per_group: usize,
    src: &[f32],
    shifts: &[isize],
    wts: &[f32],
) {
    let mut first = if span.is_empty() { rows } else { 0 };
    while first < rows {
        let groups = groups_at(first);
        let mut end = first + 1;
        while end < rows && groups_at(end) == groups {
            end += 1;
        }
        let taps = groups.start * per_group..groups.end * per_group;
        let at = first * pitch + span.start;
        let to = (end - 1) * pitch + span.end;
        row_taps(
            lane,
            &mut out[at..to],
            at,
            src,
            &shifts[taps.clone()],
            &wts[taps],
        );
        first = end;
    }
}

/// `dw` accumulators of one plane in the row regimes: row `ki`, lane
/// `kj`. Lanes `kj >= kw` hold unspecified values and are never read.
type DwAcc = [[f32; LANES]; MAX_K];

/// `acc[k0 + r][kj] += dy[i] · x[r·w + i·stride + kj]` for `i` ascending:
/// the interior span of one output row against the `NK` input rows its
/// kernel rows read. Each kernel row is one [`LANES`]-wide chain, so
/// `x[r·w + i·stride..][..LANES]` must be in bounds for every `r`, `i`.
#[inline(always)]
fn dw_span_lanes<const NK: usize>(
    acc: &mut DwAcc,
    k0: usize,
    dy: &[f32],
    x: &[f32],
    w: usize,
    stride: usize,
) {
    let mut a = [[0.0f32; LANES]; NK];
    a.copy_from_slice(&acc[k0..k0 + NK]);
    for (i, &g) in dy.iter().enumerate() {
        for (r, row) in a.iter_mut().enumerate() {
            let s: &[f32; LANES] = x[r * w + i * stride..][..LANES]
                .try_into()
                .expect("LANES elements");
            for (p, &v) in row.iter_mut().zip(s) {
                *p += g * v;
            }
        }
    }
    acc[k0..k0 + NK].copy_from_slice(&a);
}

/// [`dw_span_lanes`] for a run-time count of kernel rows.
#[inline(always)]
fn dw_span_rows(
    acc: &mut DwAcc,
    kis: Range<usize>,
    dy: &[f32],
    x: &[f32],
    w: usize,
    stride: usize,
) {
    match kis.len() {
        0 => {}
        1 => dw_span_lanes::<1>(acc, kis.start, dy, x, w, stride),
        2 => dw_span_lanes::<2>(acc, kis.start, dy, x, w, stride),
        3 => dw_span_lanes::<3>(acc, kis.start, dy, x, w, stride),
        4 => dw_span_lanes::<4>(acc, kis.start, dy, x, w, stride),
        5 => dw_span_lanes::<5>(acc, kis.start, dy, x, w, stride),
        more => unreachable!("{more} kernel rows exceed MAX_K"),
    }
}

/// [`dw_span_rows`] compiled for 8-lane registers.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dw_span_avx2(
    acc: &mut DwAcc,
    kis: Range<usize>,
    dy: &[f32],
    x: &[f32],
    w: usize,
    stride: usize,
) {
    dw_span_rows(acc, kis, dy, x, w, stride)
}

/// Adds the interior span `dy` of one output row to the `dw`
/// accumulators of kernel rows `kis`; `x` starts at the input element
/// that tap `(kis.start, 0)` of the span's first output reads. The
/// vector lanes read [`LANES`] inputs per kernel row, so the outputs for
/// which that would leave `x` (the tail of a plane's last rows), and all
/// of them on the `Scalar` lane, take the exact `kw`-tap loop.
#[allow(clippy::too_many_arguments)]
fn dw_span(
    lane: LanePath,
    acc: &mut DwAcc,
    kis: Range<usize>,
    kw: usize,
    dy: &[f32],
    x: &[f32],
    w: usize,
    stride: usize,
) {
    let reach = kis.len().saturating_sub(1) * w + LANES;
    let wide = match lane {
        LanePath::Scalar => 0,
        _ if x.len() < reach => 0,
        _ => ((x.len() - reach) / stride + 1).min(dy.len()),
    };
    match lane {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `row_taps`.
        LanePath::Avx2 => unsafe { dw_span_avx2(acc, kis.clone(), &dy[..wide], x, w, stride) },
        _ => dw_span_rows(acc, kis.clone(), &dy[..wide], x, w, stride),
    }
    for (i, &g) in dy.iter().enumerate().skip(wide) {
        for (r, row) in acc[kis.clone()].iter_mut().enumerate() {
            let s = &x[r * w + i * stride..][..kw];
            for (p, &v) in row.iter_mut().zip(s) {
                *p += g * v;
            }
        }
    }
}

/// `dx` as unit-stride problems over `dy`: inputs `(stride·a + rh,
/// stride·b + rw)` of one phase `(rh, rw)` are read through the kernel
/// rows `ki ≡ rh + pad` and columns `kj ≡ rw + pad` (mod stride) only,
/// by output `(a + (rh + pad - ki) / stride, b + (rw + pad - kj) /
/// stride)`.
#[derive(Clone, Copy, Default)]
struct DxPhase {
    /// Kernel taps in chain order: ascending `(oh, ow)`, which is
    /// descending `(ki, kj)`.
    taps: [usize; MAX_TAPS],
    /// Per tap, the `dy` element it reads relative to `a·w_out + b`.
    shifts: [isize; MAX_TAPS],
    /// Kernel rows (tap groups) and kernel columns per row of the phase.
    groups: usize,
    per_group: usize,
    /// Group `i` reads output row `a + first_row + i`.
    first_row: isize,
}

/// The row regimes' per-call plan.
struct Rows {
    g: Geom,
    lane: LanePath,
    /// Output columns that read inside the input through every kernel
    /// column: forward's and `dw`'s interior span.
    span: Range<usize>,
    /// Forward: per tap `(ki, kj)`, the element it reads relative to
    /// `oh·w_out + ow` in the input plane (stride 2: in its phase
    /// planes).
    shifts: [isize; MAX_TAPS],
    /// `dx`: phase `(rh, rw)` at `rh·stride + rw`.
    dx: [DxPhase; 4],
    /// `dx`: the `b` of every phase that are read through every kernel
    /// column of the phase.
    dx_span: Range<usize>,
}

impl Rows {
    /// The plan for `g`, if the row kernels hold state for its kernel,
    /// its rows line up (`pitch` below) and it has a wide interior.
    fn plan(g: &Geom) -> Option<Rows> {
        let (s, pad) = (g.stride, g.pad);
        let lines_up = match s {
            1 => g.w_out == g.w,
            2 => g.w.div_ceil(2) <= g.w_out,
            _ => false,
        };
        let span =
            outs_of(0, s, pad, g.w, g.w_out).start..outs_of(g.kw - 1, s, pad, g.w, g.w_out).end;
        if !lines_up || g.kh > MAX_K || g.kw > MAX_K || span.len() < MIN_SPAN {
            return None;
        }
        let (pitch, plane) = (g.w_out as isize, (g.h.div_ceil(s) * g.w_out) as isize);
        let (si, padi) = (s as isize, pad as isize);
        let mut shifts = [0; MAX_TAPS];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let (di, dj) = (ki as isize - padi, kj as isize - padi);
                let phase = di.rem_euclid(si) * si + dj.rem_euclid(si);
                shifts[ki * g.kw + kj] =
                    phase * plane + di.div_euclid(si) * pitch + dj.div_euclid(si);
            }
        }
        let mut dx = [DxPhase::default(); 4];
        let (mut lo, mut hi) = (0, (g.w / s) as isize);
        for (p, phase) in dx.iter_mut().enumerate().take(s * s) {
            let (rh, rw) = (p / s, p % s);
            let of_phase =
                |k: usize, r: usize| (0..k).rev().filter(move |t| t % s == (r + pad) % s);
            let up = |r: usize, k: usize| ((r + pad) as isize - k as isize) / si;
            let mut n = 0;
            for ki in of_phase(g.kh, rh) {
                for kj in of_phase(g.kw, rw) {
                    phase.taps[n] = ki * g.kw + kj;
                    phase.shifts[n] = up(rh, ki) * pitch + up(rw, kj);
                    n += 1;
                    lo = lo.max(-up(rw, kj));
                    hi = hi.min(pitch - up(rw, kj));
                }
            }
            phase.groups = of_phase(g.kh, rh).count();
            phase.per_group = of_phase(g.kw, rw).count();
            phase.first_row = of_phase(g.kh, rh).next().map_or(0, |ki| up(rh, ki));
        }
        Some(Rows {
            g: *g,
            lane: lane_path(),
            span,
            shifts,
            dx,
            dx_span: lo as usize..hi.max(lo) as usize,
        })
    }

    /// Floats of scratch one plane needs: the stride-2 phase planes,
    /// `ceil(h / 2)` rows of `w_out` each.
    fn scratch_len(&self) -> usize {
        match self.g.stride {
            2 => 4 * self.g.h.div_ceil(2) * self.g.w_out,
            _ => 0,
        }
    }

    /// One forward plane.
    fn forward(&self, x: &[f32], ker: &[f32], y: &mut [f32], phases: &mut [f32]) {
        let g = &self.g;
        let src = if g.stride == 2 {
            // Input (2a + rh, 2b + rw) to (a, b) of phase plane (rh, rw).
            let plane = g.h.div_ceil(2) * g.w_out;
            for (ih, xrow) in x.chunks_exact(g.w).enumerate() {
                let (evens, odds) = phases[ih % 2 * 2 * plane..].split_at_mut(plane);
                let at = ih / 2 * g.w_out;
                for (b, pair) in xrow.chunks(2).enumerate() {
                    evens[at + b] = pair[0];
                    if let Some(&odd) = pair.get(1) {
                        odds[at + b] = odd;
                    }
                }
            }
            &*phases
        } else {
            x
        };
        flat_rows(
            self.lane,
            y,
            (g.h_out, g.w_out),
            &self.span,
            |oh| taps_at(oh, g.kh, g.stride, g.pad, g.h),
            g.kw,
            src,
            &self.shifts,
            ker,
        );
        forward_cols(g, x, ker, y, 0..self.span.start);
        forward_cols(g, x, ker, y, self.span.end..g.w_out);
    }

    /// One backward plane: `dx`, and the plane's `dw` partial into
    /// `part`.
    fn backward(
        &self,
        x: &[f32],
        ker: &[f32],
        dy: &[f32],
        dx: &mut [f32],
        part: &mut [f32],
        phases: &mut [f32],
    ) {
        self.dx(ker, dy, dx, phases);
        self.dw(x, dy, part)
    }

    /// One plane's `dx`: each phase a unit-stride problem over `dy`
    /// (stride 2: into its phase plane, interleaved into `dx` after),
    /// then the border columns.
    fn dx(&self, ker: &[f32], dy: &[f32], dx: &mut [f32], phases: &mut [f32]) {
        let (g, s) = (&self.g, self.g.stride);
        let plane = g.h.div_ceil(s) * g.w_out;
        for (p, phase) in self.dx.iter().enumerate().take(s * s) {
            let n = phase.groups * phase.per_group;
            let mut wts = [0.0f32; MAX_TAPS];
            for (wt, &tap) in wts.iter_mut().zip(&phase.taps[..n]) {
                *wt = ker[tap];
            }
            // Phase rows `a` with `stride·a + rh < h`; at stride 1 the
            // one phase is `dx` itself.
            let rows = (g.h + s - 1 - p / s) / s;
            let out = if s == 1 {
                &mut *dx
            } else {
                &mut phases[p * plane..][..plane]
            };
            flat_rows(
                self.lane,
                out,
                (rows, g.w_out),
                &self.dx_span,
                |a| {
                    let top = a as isize + phase.first_row;
                    let end = (g.h_out as isize - top).clamp(0, phase.groups as isize);
                    (-top).clamp(0, end) as usize..end as usize
                },
                phase.per_group,
                dy,
                &phase.shifts[..n],
                &wts[..n],
            );
        }
        let cols = self.dx_span.start * s..self.dx_span.end * s;
        if s == 2 {
            for (ih, dxrow) in dx.chunks_exact_mut(g.w).enumerate() {
                let (evens, odds) = phases[ih % 2 * 2 * plane..].split_at(plane);
                let at = ih / 2 * g.w_out;
                let from = evens[at..].iter().zip(&odds[at..]).skip(self.dx_span.start);
                for (pair, (&even, &odd)) in dxrow[cols.clone()].chunks_exact_mut(2).zip(from) {
                    pair[0] = even;
                    pair[1] = odd;
                }
            }
        }
        dx_cols(g, dy, ker, dx, 0..cols.start);
        dx_cols(g, dy, ker, dx, cols.end..g.w);
    }

    /// One plane's `dw` partial: output rows ascending, and within a row
    /// left border, interior span, right border, so every tap sums its
    /// outputs in ascending `(oh, ow)`.
    fn dw(&self, x: &[f32], dy: &[f32], part: &mut [f32]) {
        let (g, s) = (&self.g, self.g.stride);
        let mut acc: DwAcc = [[0.0; LANES]; MAX_K];
        for (oh, dyrow) in dy.chunks_exact(g.w_out).enumerate() {
            let kis = taps_at(oh, g.kh, s, g.pad, g.h);
            if kis.is_empty() {
                continue;
            }
            // From the first input row this output row reads.
            let x = &x[(oh * s + kis.start - g.pad) * g.w..];
            let border = |acc: &mut DwAcc, cols: Range<usize>| {
                for ow in cols {
                    let kjs = taps_at(ow, g.kw, s, g.pad, g.w);
                    for (r, row) in acc[kis.clone()].iter_mut().enumerate() {
                        let xrow = &x[r * g.w..][..g.w];
                        for kj in kjs.clone() {
                            row[kj] += dyrow[ow] * xrow[ow * s + kj - g.pad];
                        }
                    }
                }
            };
            border(&mut acc, 0..self.span.start);
            dw_span(
                self.lane,
                &mut acc,
                kis.clone(),
                g.kw,
                &dyrow[self.span.clone()],
                &x[self.span.start * s - g.pad..],
                g.w,
                s,
            );
            border(&mut acc, self.span.end..g.w_out);
        }
        for (prow, arow) in part.chunks_exact_mut(g.kw).zip(&acc) {
            prow.copy_from_slice(&arow[..g.kw]);
        }
    }
}

// -------------------------------------------------------------- entry points

/// Which kernels a geometry runs.
enum Regime {
    /// Constant-geometry whole-plane kernels.
    SmallMap(ForwardPlane, BackwardPlane),
    /// Interior spans on the row kernels, borders on the whole-plane ones.
    Rows(Box<Rows>),
    /// Whole-plane kernels with run-time ranges.
    Plane,
}

impl Regime {
    fn of(g: &Geom) -> Regime {
        if let Some((forward, backward)) = small_map(g) {
            Regime::SmallMap(forward, backward)
        } else if let Some(rows) = Rows::plan(g) {
            Regime::Rows(Box::new(rows))
        } else {
            Regime::Plane
        }
    }
}

/// Checks `x` against `w` and returns `(n, c, plane geometry)`.
fn geometry(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> (usize, usize, Geom) {
    let (n, c, h, wid) = (x.shape().n(), x.shape().c(), x.shape().h(), x.shape().w());
    assert_eq!(w.shape().rank(), 4, "depthwise weight must be [C,1,KH,KW]");
    assert_eq!(w.shape().dim(0), c, "depthwise weight C mismatch");
    assert_eq!(w.shape().dim(1), 1, "depthwise weight multiplier must be 1");
    let g = Geom::new(w.shape().dim(2), w.shape().dim(3), stride, pad, h, wid);
    (n, c, g)
}

/// Depthwise conv2d forward (`groups == channels`, multiplier 1), weight
/// shape `[C, 1, KH, KW]`, no bias. Bitwise equal to
/// [`depthwise_forward_reference`] on every lane path.
pub fn depthwise_forward(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Tensor {
    let (n, c, g) = geometry(x, w, stride, pad);
    let regime = Regime::of(&g);
    let (in_plane, out_plane, taps) = (g.h * g.w, g.h_out * g.w_out, g.taps());
    let mut y = Tensor::zeros([n, c, g.h_out, g.w_out]);
    let (xs, ws) = (x.data(), w.data());
    y.data_mut()
        .chunks_mut((c * out_plane).max(1))
        .enumerate()
        .for_each(|(img, yimg)| {
            let ximg = &xs[img * c * in_plane..][..c * in_plane];
            let mut phases = scratch_f32(match &regime {
                Regime::Rows(rows) => rows.scratch_len(),
                _ => 0,
            });
            for (ch, yp) in yimg.chunks_exact_mut(out_plane).enumerate() {
                let xp = &ximg[ch * in_plane..][..in_plane];
                let ker = &ws[ch * taps..][..taps];
                match &regime {
                    Regime::SmallMap(forward, _) => forward(xp, ker, yp),
                    Regime::Rows(rows) => rows.forward(xp, ker, yp, &mut phases),
                    Regime::Plane => forward_pixels(&g, xp, ker, yp, 0..g.w_out),
                }
            }
        });
    y
}

/// Gradients of depthwise conv2d: `(dx, dw)`, with `dw` freshly
/// allocated. Runs [`depthwise_backward_accumulate`] into a zeroed `dw`.
pub fn depthwise_backward(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    stride: usize,
    pad: usize,
) -> (Tensor, Tensor) {
    let mut dw = Tensor::zeros(w.shape().clone());
    let dx = depthwise_backward_accumulate(x, w, dy, stride, pad, &mut dw);
    (dx, dw)
}

/// Gradients of depthwise conv2d: returns `dx` and adds the weight
/// gradient into `dw` (shaped like `w`). Each plane's `dx` and `dw`
/// partial come from one pass, and the partials are added into `dw` in
/// ascending image order. Into a zeroed `dw`, bitwise equal to
/// [`depthwise_backward_reference`] on every lane path.
pub fn depthwise_backward_accumulate(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    stride: usize,
    pad: usize,
    dw: &mut Tensor,
) -> Tensor {
    let (n, c, g) = geometry(x, w, stride, pad);
    let expected = [n, c, g.h_out, g.w_out];
    assert!(
        dy.shape().dims() == expected,
        "depthwise dy shape {} != expected {expected:?}",
        dy.shape()
    );
    assert!(
        dw.shape().same_as(w.shape()),
        "depthwise dw shape {} != weight shape {}",
        dw.shape(),
        w.shape()
    );
    let regime = Regime::of(&g);
    let (in_plane, out_plane, taps) = (g.h * g.w, g.h_out * g.w_out, g.taps());
    let mut dx = Tensor::zeros(x.shape().clone());
    let (xs, ws, dys) = (x.data(), w.data(), dy.data());
    // Images in turn, so each channel's partials fold in image order;
    // an image's channel planes are independent.
    for (img, dximg) in dx
        .data_mut()
        .chunks_exact_mut((c * in_plane).max(1))
        .enumerate()
    {
        dximg
            .chunks_mut(in_plane)
            .zip(dw.data_mut().chunks_mut(taps))
            .enumerate()
            .for_each(|(ch, (dxp, dwc))| {
                let plane = img * c + ch;
                let xp = &xs[plane * in_plane..][..in_plane];
                let dyp = &dys[plane * out_plane..][..out_plane];
                let ker = &ws[ch * taps..][..taps];
                let (mut fixed, mut large) = ([0.0f32; MAX_TAPS], Vec::new());
                let part = if taps <= MAX_TAPS {
                    &mut fixed[..taps]
                } else {
                    large.resize(taps, 0.0);
                    &mut large[..]
                };
                match &regime {
                    Regime::SmallMap(_, backward) => backward(xp, ker, dyp, dxp, part),
                    Regime::Rows(rows) => {
                        let mut phases = scratch_f32(rows.scratch_len());
                        rows.backward(xp, ker, dyp, dxp, part, &mut phases)
                    }
                    Regime::Plane => {
                        dx_pixels(&g, dyp, ker, dxp, 0..g.w);
                        dw_taps(&g, xp, dyp, part);
                    }
                }
                for (d, &p) in dwc.iter_mut().zip(part.iter()) {
                    *d += p;
                }
            });
    }
    dx
}

// ----------------------------------------------------------------- reference

/// The per-pixel loop [`depthwise_forward`] replaced: every tap tested
/// against the input bounds. Test oracle only (what `gemm_naive` is to
/// the GEMM kernels); nothing outside tests calls it.
pub fn depthwise_forward_reference(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Tensor {
    let (n, c, g) = geometry(x, w, stride, pad);
    let (h, wid, kh, kw, h_out, w_out) = (g.h, g.w, g.kh, g.kw, g.h_out, g.w_out);
    let mut y = Tensor::zeros([n, c, h_out, w_out]);
    let (xs, ws) = (x.data(), w.data());
    for (plane, yout) in y.data_mut().chunks_mut(h_out * w_out).enumerate() {
        let xin = &xs[plane * h * wid..(plane + 1) * h * wid];
        let ker = &ws[plane % c * kh * kw..(plane % c + 1) * kh * kw];
        for oh in 0..h_out {
            for ow in 0..w_out {
                let mut acc = 0.0f32;
                for ki in 0..kh {
                    let ih = (oh * stride + ki) as isize - pad as isize;
                    if ih < 0 || ih >= h as isize {
                        continue;
                    }
                    for kj in 0..kw {
                        let iw = (ow * stride + kj) as isize - pad as isize;
                        if iw < 0 || iw >= wid as isize {
                            continue;
                        }
                        acc += ker[ki * kw + kj] * xin[ih as usize * wid + iw as usize];
                    }
                }
                yout[oh * w_out + ow] = acc;
            }
        }
    }
    y
}

/// The per-pixel loops [`depthwise_backward`] replaced: a scatter pass
/// for `dx`, a second pass for each plane's `dw` partial, and a fold of
/// the partials in ascending image order. No `dy == 0.0` skip: a zero
/// upstream gradient against a non-finite activation must still produce
/// NaN (the trainer's nan_guard contract). Test oracle only.
pub fn depthwise_backward_reference(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    stride: usize,
    pad: usize,
) -> (Tensor, Tensor) {
    let (n, c, g) = geometry(x, w, stride, pad);
    let (h, wid, kh, kw, h_out, w_out) = (g.h, g.w, g.kh, g.kw, g.h_out, g.w_out);
    assert_eq!(dy.shape().dims(), [n, c, h_out, w_out]);
    let (xs, ws, dys) = (x.data(), w.data(), dy.data());
    let mut dx = Tensor::zeros(x.shape().clone());
    let mut dw = Tensor::zeros(w.shape().clone());
    let mut partials = vec![0.0f32; n * c * kh * kw];
    let planes = dx
        .data_mut()
        .chunks_mut(h * wid)
        .zip(partials.chunks_mut(kh * kw));
    for (plane, (dximg, dker)) in planes.enumerate() {
        let xin = &xs[plane * h * wid..(plane + 1) * h * wid];
        let dyp = &dys[plane * h_out * w_out..(plane + 1) * h_out * w_out];
        let ker = &ws[plane % c * kh * kw..(plane % c + 1) * kh * kw];
        for oh in 0..h_out {
            for ow in 0..w_out {
                let g = dyp[oh * w_out + ow];
                for ki in 0..kh {
                    let ih = (oh * stride + ki) as isize - pad as isize;
                    if ih < 0 || ih >= h as isize {
                        continue;
                    }
                    for kj in 0..kw {
                        let iw = (ow * stride + kj) as isize - pad as isize;
                        if iw < 0 || iw >= wid as isize {
                            continue;
                        }
                        let at = ih as usize * wid + iw as usize;
                        dximg[at] += g * ker[ki * kw + kj];
                        dker[ki * kw + kj] += g * xin[at];
                    }
                }
            }
        }
    }
    for image in partials.chunks(c * kh * kw) {
        for (d, &p) in dw.data_mut().iter_mut().zip(image) {
            *d += p;
        }
    }
    (dx, dw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv::conv2d_forward;
    use crate::rng::Rng;

    fn rand_tensor(rng: &mut Rng, shape: &[usize]) -> Tensor {
        let mut t = Tensor::zeros(shape);
        rng.fill_uniform(t.data_mut(), -1.0, 1.0);
        t
    }

    /// The three range helpers against the bounds tests they replace.
    #[test]
    fn ranges_are_exactly_the_taps_inside_the_input() {
        for (klen, stride, pad, in_len) in [
            (3, 1, 1, 5),
            (5, 2, 2, 8),
            (5, 2, 2, 1),
            (3, 2, 3, 4),
            (7, 3, 0, 9),
        ] {
            let out_len = conv_out_dim(in_len, klen, stride, pad);
            let inside = |o: usize, k: usize| (pad..in_len + pad).contains(&(o * stride + k));
            for o in 0..out_len {
                let want: Vec<usize> = (0..klen).filter(|&k| inside(o, k)).collect();
                assert_eq!(
                    taps_at(o, klen, stride, pad, in_len).collect::<Vec<_>>(),
                    want
                );
            }
            for k in 0..klen {
                let want: Vec<usize> = (0..out_len).filter(|&o| inside(o, k)).collect();
                assert_eq!(
                    outs_of(k, stride, pad, in_len, out_len).collect::<Vec<_>>(),
                    want
                );
            }
            for i in 0..in_len {
                let reads = |o: &usize| (0..klen).any(|k| o * stride + k == i + pad);
                let want: Vec<usize> = (0..out_len).filter(reads).collect();
                assert_eq!(
                    outs_reading(i, klen, stride, pad, out_len).collect::<Vec<_>>(),
                    want
                );
            }
        }
    }

    /// `(x, w, dy)` shapes for a backward call.
    fn backward_of(x: [usize; 4], w: [usize; 4], dy: [usize; 4]) -> (Tensor, Tensor) {
        let (x, w, dy) = (Tensor::zeros(x), Tensor::zeros(w), Tensor::zeros(dy));
        depthwise_backward(&x, &w, &dy, 2, 1)
    }

    #[test]
    #[should_panic(expected = "depthwise weight C mismatch")]
    fn backward_rejects_a_weight_of_another_channel_count() {
        backward_of([1, 3, 8, 8], [4, 1, 3, 3], [1, 3, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "depthwise weight multiplier must be 1")]
    fn backward_rejects_a_channel_multiplier() {
        backward_of([1, 3, 8, 8], [3, 2, 3, 3], [1, 3, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "depthwise dy shape")]
    fn backward_rejects_a_dy_from_another_stride() {
        backward_of([1, 3, 8, 8], [3, 1, 3, 3], [1, 3, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "depthwise dy shape")]
    fn backward_rejects_a_dy_of_another_batch() {
        backward_of([2, 3, 8, 8], [3, 1, 3, 3], [1, 3, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "depthwise dw shape")]
    fn backward_rejects_a_gradient_of_another_shape() {
        let (x, w, dy) = (
            Tensor::zeros([1, 3, 8, 8]),
            Tensor::zeros([3, 1, 3, 3]),
            Tensor::zeros([1, 3, 4, 4]),
        );
        depthwise_backward_accumulate(&x, &w, &dy, 2, 1, &mut Tensor::zeros([3, 1, 5, 5]));
    }

    #[test]
    fn depthwise_matches_grouped_reference() {
        let mut rng = Rng::new(3);
        let (n, c, h, w, k, s, p) = (2, 4, 7, 7, 3, 1, 1);
        let x = rand_tensor(&mut rng, &[n, c, h, w]);
        let wt = rand_tensor(&mut rng, &[c, 1, k, k]);
        let y = depthwise_forward(&x, &wt, s, p);
        // Reference: per-channel dense conv with a 1-channel kernel.
        for ch in 0..c {
            let mut xc = Tensor::zeros([n, 1, h, w]);
            let mut wc = Tensor::zeros([1, 1, k, k]);
            for i in 0..n {
                for a in 0..h {
                    for b in 0..w {
                        *xc.at_mut(&[i, 0, a, b]) = x.at(&[i, ch, a, b]);
                    }
                }
            }
            for a in 0..k {
                for b in 0..k {
                    *wc.at_mut(&[0, 0, a, b]) = wt.at(&[ch, 0, a, b]);
                }
            }
            let yc = conv2d_forward(&xc, &wc, s, p);
            for i in 0..n {
                for a in 0..y.shape().h() {
                    for b in 0..y.shape().w() {
                        let d = (y.at(&[i, ch, a, b]) - yc.at(&[i, 0, a, b])).abs();
                        assert!(d < 1e-5, "channel {ch} mismatch {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn depthwise_backward_finite_difference() {
        let mut rng = Rng::new(4);
        let x = rand_tensor(&mut rng, &[1, 3, 6, 6]);
        let wt = rand_tensor(&mut rng, &[3, 1, 3, 3]);
        let (s, p) = (2, 1);
        let y0 = depthwise_forward(&x, &wt, s, p);
        let gout = rand_tensor(&mut rng, y0.shape().dims());
        let (dx, dw) = depthwise_backward(&x, &wt, &gout, s, p);
        let loss = |x: &Tensor, w: &Tensor| -> f64 {
            depthwise_forward(x, w, s, p)
                .data()
                .iter()
                .zip(gout.data())
                .map(|(&a, &b)| (a as f64) * (b as f64))
                .sum()
        };
        let eps = 1e-3f32;
        for &i in &[0usize, 31, 71, x.numel() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((loss(&xp, &wt) - loss(&xm, &wt)) / (2.0 * eps as f64)) as f32;
            assert!((num - dx.data()[i]).abs() < 2e-2 * (1.0 + num.abs()));
        }
        for &i in &[0usize, 13, wt.numel() - 1] {
            let mut wp = wt.clone();
            wp.data_mut()[i] += eps;
            let mut wm = wt.clone();
            wm.data_mut()[i] -= eps;
            let num = ((loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps as f64)) as f32;
            assert!((num - dw.data()[i]).abs() < 2e-2 * (1.0 + num.abs()));
        }
    }
}
