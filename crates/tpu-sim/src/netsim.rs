//! Message-level network simulation of the torus all-reduce.
//!
//! The analytic α–β model in `ets-collective::cost` is fast but coarse;
//! this module simulates the same 2-D algorithm *message by message* on
//! the chip torus with per-link serialization and per-hop latency, using
//! the discrete-event engine. It serves two purposes:
//!
//! 1. **Validation** — the analytic model must agree with the event-driven
//!    simulation within a small tolerance (a unit test enforces it), which
//!    keeps Table 1's all-reduce column honest.
//! 2. **What-if studies** — link degradation (a slow link on the ring) and
//!    payload skew, which the closed-form model cannot express.
//!
//! The simulated algorithm matches `ets-collective::ring`: each phase of a
//! ring all-reduce is `p−1` steps; in each step every member sends one
//! chunk to its right neighbor over its private link. A step completes
//! when the *slowest* link finishes (bulk-synchronous, as the XLA
//! collectives are), so heterogeneous links stretch every step.

use crate::event::EventSim;
use ets_collective::{LinkSpec, SliceShape};

/// A time-bounded bandwidth degradation on one link: during
/// `[from_s, until_s)` of simulated time, link `link` runs at `scale` of
/// its (already static-scaled) bandwidth. This is how transient fault
/// windows from a chaos plan reach the message-level simulation.
#[derive(Clone, Copy, Debug)]
pub struct DegradeWindow {
    /// Window start, absolute simulated seconds.
    pub from_s: f64,
    /// Window end (exclusive), absolute simulated seconds.
    pub until_s: f64,
    /// Which member's outgoing link degrades.
    pub link: usize,
    /// Bandwidth multiplier while the window is active (e.g. 0.5).
    pub scale: f64,
}

impl DegradeWindow {
    /// True when the window covers simulated time `t`.
    pub fn active_at(&self, t: f64) -> bool {
        t >= self.from_s && t < self.until_s
    }
}

/// Per-link condition multipliers (1.0 = nominal bandwidth), optionally
/// modulated by time-bounded degradation windows.
#[derive(Clone, Debug)]
pub struct LinkConditions {
    /// Static bandwidth multiplier per member's outgoing link
    /// (len = ring size).
    pub bandwidth_scale: Vec<f64>,
    /// Transient degradations layered on top of the static scales;
    /// windows on the same link multiply.
    pub windows: Vec<DegradeWindow>,
}

impl LinkConditions {
    /// All links nominal.
    pub fn nominal(p: usize) -> Self {
        LinkConditions {
            bandwidth_scale: vec![1.0; p],
            windows: Vec::new(),
        }
    }

    /// One degraded link at `index` running at `scale` of nominal.
    pub fn with_slow_link(p: usize, index: usize, scale: f64) -> Self {
        let mut c = Self::nominal(p);
        c.bandwidth_scale[index % p] = scale;
        c
    }

    /// Adds a time-bounded degradation window (builder style).
    pub fn with_window(mut self, w: DegradeWindow) -> Self {
        assert!(w.scale > 0.0, "window scale must be positive");
        assert!(
            w.until_s >= w.from_s,
            "window must not end before it starts"
        );
        self.windows.push(w);
        self
    }

    /// Effective bandwidth multiplier of `link` at simulated time `t`:
    /// the static scale times every active window on that link.
    pub fn scale_at(&self, link: usize, t: f64) -> f64 {
        let p = self.bandwidth_scale.len();
        let mut s = self.bandwidth_scale[link % p];
        for w in &self.windows {
            if w.link % p == link % p && w.active_at(t) {
                s *= w.scale;
            }
        }
        s
    }

    /// The slowest effective link multiplier at simulated time `t` — what
    /// gates a bulk-synchronous ring step starting at `t`.
    pub fn worst_scale_at(&self, t: f64) -> f64 {
        (0..self.bandwidth_scale.len())
            .map(|l| self.scale_at(l, t))
            .fold(f64::INFINITY, f64::min)
    }

    /// The earliest *finite* window edge (`from_s` or `until_s`) strictly
    /// after `t`, if any — the next instant the effective scales can
    /// change. Static scales never change, so between consecutive edges
    /// every link's bandwidth is constant.
    pub fn next_window_edge_after(&self, t: f64) -> Option<f64> {
        self.windows
            .iter()
            .flat_map(|w| [w.from_s, w.until_s])
            .filter(|&e| e.is_finite() && e > t)
            .fold(None, |best, e| match best {
                Some(b) if b <= e => Some(b),
                _ => Some(e),
            })
    }
}

/// Seconds one bulk-synchronous ring step takes when it starts at absolute
/// simulated time `start_s`: per-hop latency, then `chunk_bytes` streamed
/// at the *instantaneous* worst-link bandwidth, integrated piecewise
/// across window edges. A [`DegradeWindow`] opening (or closing) mid-step
/// therefore stretches exactly the bytes it covers — a window fully inside
/// one long step slows precisely its own duration's worth of transfer,
/// and a window whose edge coincides with the step's start follows the
/// half-open `[from_s, until_s)` convention of [`DegradeWindow::active_at`].
///
/// The step is priced on the *pessimal envelope*: at each instant the
/// slowest link's scale gates everyone (the collectives are
/// bulk-synchronous). When a single link is degraded — the chaos plans'
/// case — this is exact; when the identity of the worst link switches
/// mid-step it is a conservative upper bound.
pub fn bulk_step_seconds(
    link: LinkSpec,
    chunk_bytes: f64,
    conditions: &LinkConditions,
    start_s: f64,
) -> f64 {
    // The data phase begins after the per-hop latency (latency is not
    // bandwidth-scaled).
    let mut t = start_s + link.latency;
    let mut remaining = chunk_bytes;
    loop {
        let scale = conditions.worst_scale_at(t);
        let rate = link.bandwidth * link.duplex * scale;
        assert!(
            rate > 0.0,
            "non-positive effective bandwidth at t={t}: scale {scale}"
        );
        let need = remaining / rate;
        match conditions.next_window_edge_after(t) {
            // Scales change at `edge`: stream what fits, re-price there.
            Some(edge) if t + need > edge => {
                remaining -= rate * (edge - t);
                t = edge;
            }
            // Constant bandwidth to the finish line.
            _ => return t + need - start_s,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// All sends of step `step` have completed.
    StepDone { step: usize },
}

/// Simulates one ring phase (`p−1` bulk-synchronous steps) over `p`
/// members moving `chunk_bytes` per step per member; returns seconds.
pub fn simulate_ring_phase(
    p: usize,
    chunk_bytes: f64,
    link: LinkSpec,
    conditions: &LinkConditions,
) -> f64 {
    simulate_ring_phase_from(p, chunk_bytes, link, conditions, 0.0)
}

/// Like [`simulate_ring_phase`], but the phase starts at absolute
/// simulated time `start_s`, so `conditions.windows` with absolute
/// triggers line up across the phases of a larger collective. Returns the
/// phase *duration* (not the end time).
pub fn simulate_ring_phase_from(
    p: usize,
    chunk_bytes: f64,
    link: LinkSpec,
    conditions: &LinkConditions,
    start_s: f64,
) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    assert_eq!(conditions.bandwidth_scale.len(), p, "one scale per link");
    let mut sim: EventSim<Ev> = EventSim::new();
    let steps = p - 1;
    let mut step = 0usize;
    // Each bulk-synchronous step is priced by integrating the slowest
    // link's instantaneous bandwidth across window edges — a window
    // opening mid-step stretches exactly the bytes it covers (see
    // `bulk_step_seconds`), not nothing (the old start-sampled semantics).
    let step_secs =
        |at: f64| -> f64 { bulk_step_seconds(link, chunk_bytes, conditions, start_s + at) };
    // Kick off step 0.
    sim.schedule_in(step_secs(0.0), Ev::StepDone { step: 0 });
    while let Some(Ev::StepDone { step: s }) = sim.next() {
        step = s;
        if s + 1 < steps {
            sim.schedule_in(step_secs(sim.now()), Ev::StepDone { step: s + 1 });
        }
    }
    debug_assert_eq!(step, steps - 1);
    sim.now()
}

/// Event-driven time for a full ring all-reduce of `bytes` over `p`
/// members (reduce-scatter + all-gather; `2(p−1)` steps of `bytes/p`).
pub fn simulate_ring_all_reduce(
    p: usize,
    bytes: f64,
    link: LinkSpec,
    conditions: &LinkConditions,
) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let chunk = bytes / p as f64;
    2.0 * simulate_ring_phase(p, chunk, link, conditions)
}

/// Event-driven time for the 2-D torus all-reduce on `slice` (row
/// reduce-scatter, column all-reduce on `1/cols` of the payload, row
/// all-gather), with nominal links.
pub fn simulate_torus_all_reduce(bytes: f64, slice: SliceShape, link: LinkSpec) -> f64 {
    let row = LinkConditions::nominal(slice.cols.max(1));
    let col = LinkConditions::nominal(slice.rows.max(1));
    simulate_torus_all_reduce_with(bytes, slice, link, &row, &col)
}

/// [`simulate_torus_all_reduce`] under explicit link conditions: `row`
/// conditions (len = `slice.cols`) apply to the row rings, `col`
/// conditions (len = `slice.rows`) to the column rings. The three phases
/// run back to back on one absolute clock, so a `DegradeWindow` covering
/// only the tail of the collective stretches only the steps it overlaps.
pub fn simulate_torus_all_reduce_with(
    bytes: f64,
    slice: SliceShape,
    link: LinkSpec,
    row: &LinkConditions,
    col: &LinkConditions,
) -> f64 {
    if slice.chips() <= 1 {
        return 0.0;
    }
    let cols = slice.cols;
    let rows = slice.rows;
    let row_chunk = bytes / cols as f64;
    // Row reduce-scatter: cols−1 steps of bytes/cols.
    let rs = simulate_ring_phase_from(cols, row_chunk, link, row, 0.0);
    // Column all-reduce of bytes/cols: 2(rows−1) steps of bytes/(cols·rows)
    // — reduce-scatter then all-gather, phase-offset on the shared clock.
    let col_time = if rows > 1 {
        let c1 = simulate_ring_phase_from(rows, row_chunk / rows as f64, link, col, rs);
        let c2 = simulate_ring_phase_from(rows, row_chunk / rows as f64, link, col, rs + c1);
        c1 + c2
    } else {
        0.0
    };
    // Row all-gather mirrors the reduce-scatter, starting where the
    // column phase ended.
    let ag = simulate_ring_phase_from(cols, row_chunk, link, row, rs + col_time);
    rs + col_time + ag
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_collective::{ring_all_reduce_time, torus_all_reduce_time, TPU_V3_LINK};

    #[test]
    fn ring_matches_analytic_model() {
        for &p in &[2usize, 4, 8, 32] {
            for &bytes in &[1e5f64, 1e7, 1e9] {
                let sim =
                    simulate_ring_all_reduce(p, bytes, TPU_V3_LINK, &LinkConditions::nominal(p));
                let analytic = ring_all_reduce_time(bytes, p, TPU_V3_LINK);
                let rel = (sim - analytic).abs() / analytic;
                assert!(
                    rel < 0.01,
                    "p={p} bytes={bytes:.0}: sim {sim:.6} vs analytic {analytic:.6}"
                );
            }
        }
    }

    #[test]
    fn torus_matches_analytic_model() {
        for &cores in &[128usize, 512, 1024, 2048] {
            let slice = SliceShape::for_cores(cores);
            for &bytes in &[36.4e6f64, 122e6] {
                let sim = simulate_torus_all_reduce(bytes, slice, TPU_V3_LINK);
                let analytic = torus_all_reduce_time(bytes, slice, TPU_V3_LINK);
                let rel = (sim - analytic).abs() / analytic;
                assert!(
                    rel < 0.02,
                    "{cores} cores, {bytes:.1e} B: sim {sim:.6} vs analytic {analytic:.6} ({rel:.3})"
                );
            }
        }
    }

    #[test]
    fn executed_grid_exchange_matches_backend_pricing() {
        // The Torus2d backend routes over canonical_grid(world), not the
        // chip slice. The event-driven simulator run on that member grid
        // must agree with `grid_all_reduce_time` — the formula the
        // scaling bench's analytic per-backend rows use — so the
        // executed path and the analytic path price the same exchange.
        use ets_collective::{canonical_grid, grid_all_reduce_time};
        for &world in &[64usize, 1024, 2048, 4096] {
            let (rows, cols) = canonical_grid(world);
            let grid = SliceShape { rows, cols };
            for &bytes in &[36.4e6f64, 122e6] {
                let sim = simulate_torus_all_reduce(bytes, grid, TPU_V3_LINK);
                let analytic = grid_all_reduce_time(bytes, rows, cols, TPU_V3_LINK);
                let rel = (sim - analytic).abs() / analytic;
                assert!(
                    rel < 0.02,
                    "world {world} ({rows}x{cols}), {bytes:.1e} B: sim {sim:.6} vs analytic {analytic:.6} ({rel:.3})"
                );
            }
        }
    }

    #[test]
    fn one_slow_link_gates_the_whole_ring() {
        let p = 8;
        let bytes = 1e8;
        let nominal = simulate_ring_all_reduce(p, bytes, TPU_V3_LINK, &LinkConditions::nominal(p));
        let degraded = simulate_ring_all_reduce(
            p,
            bytes,
            TPU_V3_LINK,
            &LinkConditions::with_slow_link(p, 3, 0.5),
        );
        // Bulk-synchronous ring: halving ONE link halves effective
        // bandwidth of EVERY step.
        assert!(
            (degraded / nominal - 2.0).abs() < 0.05,
            "ratio {}",
            degraded / nominal
        );
    }

    #[test]
    fn singleton_and_empty_cases() {
        assert_eq!(
            simulate_ring_all_reduce(1, 1e9, TPU_V3_LINK, &LinkConditions::nominal(1)),
            0.0
        );
        let s = SliceShape { rows: 1, cols: 1 };
        assert_eq!(simulate_torus_all_reduce(1e9, s, TPU_V3_LINK), 0.0);
    }

    #[test]
    fn torus_with_nominal_conditions_matches_plain_torus() {
        for &cores in &[128usize, 512] {
            let slice = SliceShape::for_cores(cores);
            let bytes = 36.4e6;
            let plain = simulate_torus_all_reduce(bytes, slice, TPU_V3_LINK);
            let row = LinkConditions::nominal(slice.cols);
            let col = LinkConditions::nominal(slice.rows);
            let with = simulate_torus_all_reduce_with(bytes, slice, TPU_V3_LINK, &row, &col);
            assert_eq!(plain, with, "nominal conditions must be a no-op");
        }
    }

    #[test]
    fn inactive_window_changes_nothing() {
        let p = 8;
        let bytes = 1e8;
        let nominal = simulate_ring_all_reduce(p, bytes, TPU_V3_LINK, &LinkConditions::nominal(p));
        // Window far in the future: never active during the collective.
        let cond = LinkConditions::nominal(p).with_window(DegradeWindow {
            from_s: 1e6,
            until_s: 2e6,
            link: 0,
            scale: 0.1,
        });
        let t = simulate_ring_all_reduce(p, bytes, TPU_V3_LINK, &cond);
        assert_eq!(t, nominal);
    }

    #[test]
    fn always_on_window_matches_static_slow_link() {
        let p = 8;
        let bytes = 1e8;
        let windowed = LinkConditions::nominal(p).with_window(DegradeWindow {
            from_s: 0.0,
            until_s: f64::INFINITY,
            link: 3,
            scale: 0.5,
        });
        let a = simulate_ring_all_reduce(p, bytes, TPU_V3_LINK, &windowed);
        let b = simulate_ring_all_reduce(
            p,
            bytes,
            TPU_V3_LINK,
            &LinkConditions::with_slow_link(p, 3, 0.5),
        );
        assert!((a - b).abs() / b < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn partial_window_stretches_only_covered_steps() {
        let p = 8;
        let bytes = 1e8;
        let nominal = simulate_ring_all_reduce(p, bytes, TPU_V3_LINK, &LinkConditions::nominal(p));
        // Cover roughly the first half of the collective.
        let half = LinkConditions::nominal(p).with_window(DegradeWindow {
            from_s: 0.0,
            until_s: nominal / 2.0,
            link: 0,
            scale: 0.5,
        });
        let t_half = simulate_ring_all_reduce(p, bytes, TPU_V3_LINK, &half);
        let full = LinkConditions::with_slow_link(p, 0, 0.5);
        let t_full = simulate_ring_all_reduce(p, bytes, TPU_V3_LINK, &full);
        assert!(
            t_half > nominal && t_half < t_full,
            "partial window must land strictly between: {nominal} < {t_half} < {t_full}"
        );
    }

    #[test]
    fn windows_compose_multiplicatively_with_static_scale() {
        let mut c = LinkConditions::with_slow_link(4, 1, 0.5);
        c = c.with_window(DegradeWindow {
            from_s: 10.0,
            until_s: 20.0,
            link: 1,
            scale: 0.5,
        });
        assert_eq!(c.scale_at(1, 5.0), 0.5, "outside window: static only");
        assert_eq!(c.scale_at(1, 15.0), 0.25, "inside: static × window");
        assert_eq!(c.scale_at(1, 20.0), 0.5, "until is exclusive");
        assert_eq!(c.worst_scale_at(15.0), 0.25);
        assert_eq!(c.worst_scale_at(5.0), 0.5);
    }

    /// A `p = 2` ring phase is one single step — the sharpest lens on the
    /// mid-step window semantics.
    fn one_step_secs(cond: &LinkConditions, chunk: f64) -> f64 {
        simulate_ring_phase_from(2, chunk, TPU_V3_LINK, cond, 0.0)
    }

    #[test]
    fn window_fully_inside_one_step_stretches_exactly_its_own_span() {
        // Old start-sampled semantics silently ignored a window that
        // opened and closed inside one long step. Now it must stretch the
        // step by span · (1 − scale) exactly: during the window the link
        // moves only `scale` of its nominal bytes, and the deficit
        // `span·(1−scale)·rate` is made up at nominal rate afterwards.
        let chunk = 2e11; // one long step (~seconds)
        let nominal = one_step_secs(&LinkConditions::nominal(2), chunk);
        assert!(nominal > 0.1, "need a long step, got {nominal}");
        let (a, b) = (nominal * 0.25, nominal * 0.5);
        let cond = LinkConditions::nominal(2).with_window(DegradeWindow {
            from_s: a,
            until_s: b,
            link: 0,
            scale: 0.5,
        });
        let stretched = one_step_secs(&cond, chunk);
        let expect = nominal + (b - a) * (1.0 - 0.5);
        assert!(
            (stretched - expect).abs() < 1e-9 * expect,
            "stretched {stretched} vs expected {expect} (nominal {nominal})"
        );
    }

    #[test]
    fn window_opening_mid_step_charges_only_the_covered_tail() {
        // A window that opens mid-step and never closes: the head of the
        // step runs at nominal rate, the tail at the degraded rate.
        let chunk = 1e9;
        let nominal = one_step_secs(&LinkConditions::nominal(2), chunk);
        let open_at = nominal * 0.5;
        let cond = LinkConditions::nominal(2).with_window(DegradeWindow {
            from_s: open_at,
            until_s: f64::INFINITY,
            link: 0,
            scale: 0.5,
        });
        let stretched = one_step_secs(&cond, chunk);
        // Remaining half of the bytes take 2× as long: total = nominal·1.5
        // (latency is negligible at this payload; tolerance absorbs it).
        assert!(
            (stretched - 1.5 * nominal).abs() < 1e-6 * nominal,
            "stretched {stretched} vs 1.5×{nominal}"
        );
    }

    #[test]
    fn window_edges_at_exact_step_boundaries_are_half_open() {
        let chunk = 1e9;
        let nominal = one_step_secs(&LinkConditions::nominal(2), chunk);
        // Window ending exactly at the step's start: `until_s` is
        // exclusive, so the step is untouched.
        let before = LinkConditions::nominal(2).with_window(DegradeWindow {
            from_s: -5.0,
            until_s: 0.0,
            link: 0,
            scale: 0.1,
        });
        assert_eq!(one_step_secs(&before, chunk), nominal);
        // Window starting exactly at the step's start: `from_s` is
        // inclusive, so the whole step runs degraded.
        let at = LinkConditions::nominal(2).with_window(DegradeWindow {
            from_s: 0.0,
            until_s: f64::INFINITY,
            link: 0,
            scale: 0.5,
        });
        let degraded = one_step_secs(&at, chunk);
        let full = simulate_ring_phase_from(
            2,
            chunk,
            TPU_V3_LINK,
            &LinkConditions::with_slow_link(2, 0, 0.5),
            0.0,
        );
        assert!(
            (degraded - full).abs() < 1e-12 * full,
            "{degraded} vs {full}"
        );
        // Window closing exactly where the degraded transfer would have
        // *started* the tail (i.e. at the data-phase start): half-open on
        // both ends keeps the pricing continuous.
        let zero_len = LinkConditions::nominal(2).with_window(DegradeWindow {
            from_s: nominal * 0.5,
            until_s: nominal * 0.5,
            link: 0,
            scale: 0.5,
        });
        assert_eq!(one_step_secs(&zero_len, chunk), nominal);
    }

    #[test]
    fn bulk_step_integrates_across_multiple_edges() {
        // Two disjoint windows inside one step, plus one after it: the
        // step pays `span · (1 − scale)` for each of the first two spans
        // (both end well before even the nominal step does, so they are
        // fully covered) and ignores the third entirely.
        let chunk = 2e11;
        let nominal = one_step_secs(&LinkConditions::nominal(2), chunk);
        let (a1, b1) = (nominal * 0.1, nominal * 0.2);
        let (a2, b2) = (nominal * 0.4, nominal * 0.55);
        let cond = LinkConditions::nominal(2)
            .with_window(DegradeWindow {
                from_s: a1,
                until_s: b1,
                link: 0,
                scale: 0.5,
            })
            .with_window(DegradeWindow {
                from_s: a2,
                until_s: b2,
                link: 1,
                scale: 0.25,
            })
            .with_window(DegradeWindow {
                from_s: nominal * 100.0,
                until_s: nominal * 200.0,
                link: 0,
                scale: 0.01,
            });
        let stretched = one_step_secs(&cond, chunk);
        let expect = nominal + (b1 - a1) * (1.0 - 0.5) + (b2 - a2) * (1.0 - 0.25);
        assert!(
            (stretched - expect).abs() < 1e-9 * expect,
            "stretched {stretched} vs expected {expect}"
        );
    }

    #[test]
    fn next_window_edge_skips_infinite_and_past_edges() {
        let cond = LinkConditions::nominal(2)
            .with_window(DegradeWindow {
                from_s: 1.0,
                until_s: f64::INFINITY,
                link: 0,
                scale: 0.5,
            })
            .with_window(DegradeWindow {
                from_s: 3.0,
                until_s: 4.0,
                link: 1,
                scale: 0.5,
            });
        assert_eq!(cond.next_window_edge_after(0.0), Some(1.0));
        assert_eq!(cond.next_window_edge_after(1.0), Some(3.0));
        assert_eq!(cond.next_window_edge_after(3.5), Some(4.0));
        assert_eq!(cond.next_window_edge_after(4.0), None);
        assert_eq!(LinkConditions::nominal(2).next_window_edge_after(0.0), None);
    }

    #[test]
    fn latency_dominates_tiny_payloads() {
        let p = 16;
        let t_small = simulate_ring_all_reduce(p, 64.0, TPU_V3_LINK, &LinkConditions::nominal(p));
        // 2(p−1) steps of ~latency each.
        let floor = 2.0 * (p as f64 - 1.0) * TPU_V3_LINK.latency;
        assert!(t_small >= floor);
        assert!(t_small < 2.0 * floor);
    }
}
