//! Step-by-step network simulation of an all-reduce [`Schedule`].
//!
//! `ets-collective::cost` prices a schedule in closed form. This module
//! runs the same schedule one bulk-synchronous step at a time: each step
//! of each of [`Schedule::phases`] costs one hop's latency plus its chunk
//! at the link's bandwidth, and the next step starts when the slowest
//! link has delivered (as the XLA collectives are). It serves two
//! purposes:
//!
//! 1. **Validation**: for every `Backend`, the step-by-step time must
//!    agree with [`Schedule::time`] (a unit test enforces it), which keeps
//!    Table 1's all-reduce column honest.
//! 2. **What-if studies**: a slow link, which the closed form cannot
//!    express. One slow link stretches every step of a bulk-synchronous
//!    schedule.

use ets_collective::{LinkSpec, Schedule};

/// Seconds to all-reduce `bytes` under `schedule`, run step by step.
/// `slowest_link` is the bandwidth multiplier of the slowest link
/// (1.0 = nominal), which gates every step.
pub fn simulate_all_reduce(
    schedule: Schedule,
    bytes: f64,
    link: LinkSpec,
    slowest_link: f64,
) -> f64 {
    assert!(slowest_link > 0.0, "non-positive link scale {slowest_link}");
    let rate = link.bandwidth * link.duplex * slowest_link;
    let mut now = 0.0;
    for (steps, chunk) in schedule.phases(bytes) {
        for _ in 0..steps {
            now += link.latency + chunk / rate;
        }
    }
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_collective::{Backend, SliceShape, TPU_V3_LINK};

    fn agrees(schedule: Schedule, bytes: f64) {
        let sim = simulate_all_reduce(schedule, bytes, TPU_V3_LINK, 1.0);
        let analytic = schedule.time(bytes, TPU_V3_LINK);
        let rel = (sim - analytic).abs() / analytic;
        assert!(
            rel < 1e-9,
            "{schedule:?}, {bytes:.1e} B: sim {sim:.9} vs analytic {analytic:.9}"
        );
    }

    #[test]
    fn every_backend_matches_its_closed_form() {
        for backend in Backend::ALL {
            for p in [2usize, 3, 4, 7, 8, 32, 64, 1024, 2048, 4096] {
                for bytes in [64.0, 1e5, 36.4e6, 122e6, 1e9] {
                    let s = Schedule::for_backend(backend, p, bytes, TPU_V3_LINK);
                    agrees(s, bytes);
                }
            }
        }
    }

    #[test]
    fn chip_slice_torus_matches_its_closed_form() {
        for cores in [128usize, 256, 512, 1024, 2048] {
            let slice = SliceShape::for_cores(cores);
            for bytes in [36.4e6, 122e6] {
                agrees(slice.into(), bytes);
            }
        }
    }

    #[test]
    fn one_slow_link_gates_the_whole_ring() {
        let ring = Schedule::Ring(8);
        let nominal = simulate_all_reduce(ring, 1e8, TPU_V3_LINK, 1.0);
        let degraded = simulate_all_reduce(ring, 1e8, TPU_V3_LINK, 0.5);
        // Bulk-synchronous ring: halving ONE link halves effective
        // bandwidth of EVERY step.
        let ratio = degraded / nominal;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn singletons_take_no_time() {
        let torus = Schedule::Torus { rows: 1, cols: 1 };
        for s in [Schedule::Tree(1), Schedule::Ring(1), torus] {
            assert_eq!(simulate_all_reduce(s, 1e9, TPU_V3_LINK, 0.5), 0.0);
        }
    }

    #[test]
    fn latency_dominates_tiny_payloads() {
        let p = 16;
        let t_small = simulate_all_reduce(Schedule::Ring(p), 64.0, TPU_V3_LINK, 1.0);
        // 2(p−1) steps of ~latency each.
        let floor = 2.0 * (p as f64 - 1.0) * TPU_V3_LINK.latency;
        assert!(t_small >= floor);
        assert!(t_small < 2.0 * floor);
    }
}
