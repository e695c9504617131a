//! What-if analyses on top of the calibrated models: degraded interconnect
//! links (via the message-level network simulation) and host input-
//! pipeline ("infeed") limits — the operational questions a pod operator
//! actually asks.

use crate::calibration::calibrated_link;
use crate::netsim::{simulate_ring_all_reduce, LinkConditions};
use crate::step::{step_time, StepConfig};
use ets_collective::SliceShape;
use ets_efficientnet::{model_stats, ModelConfig};

/// Cores fed by one host machine on a TPU-v3 pod (one host per 4-chip
/// board).
pub const CORES_PER_HOST: usize = 8;

/// Step-time impact of one degraded ICI link.
#[derive(Clone, Copy, Debug)]
pub struct DegradedLinkReport {
    /// Healthy step seconds.
    pub nominal_step: f64,
    /// Step seconds with the slow link.
    pub degraded_step: f64,
    /// All-reduce share after degradation.
    pub degraded_ar_share: f64,
}

/// Simulates a slice where one link in every ring phase runs at
/// `link_scale` of nominal bandwidth (the bulk-synchronous collectives
/// stall on the slowest link).
pub fn degraded_link_impact(cfg: &StepConfig, link_scale: f64) -> DegradedLinkReport {
    assert!(link_scale > 0.0 && link_scale <= 1.0);
    let st = step_time(cfg);
    let slice = SliceShape::for_cores(cfg.cores);
    let bytes = model_stats(&ModelConfig::variant(cfg.variant)).gradient_bytes();
    let link = calibrated_link();
    // Approximate the torus as its dominant row phase for the degradation
    // ratio: one slow link stretches every step of the ring it sits on.
    let p = slice.cols.max(2);
    let nominal = simulate_ring_all_reduce(p, bytes, link, &LinkConditions::nominal(p));
    let degraded = simulate_ring_all_reduce(
        p,
        bytes,
        link,
        &LinkConditions::with_slow_link(p, 0, link_scale),
    );
    let scale = degraded / nominal;
    let new_ar = st.all_reduce * scale;
    let degraded_step = st.compute + st.bn_sync + new_ar;
    DegradedLinkReport {
        nominal_step: st.total(),
        degraded_step,
        degraded_ar_share: new_ar / degraded_step,
    }
}

/// Host input-pipeline analysis.
#[derive(Clone, Copy, Debug)]
pub struct InfeedReport {
    /// Images/second each host must produce to keep its cores fed.
    pub required_per_host: f64,
    /// Step seconds if hosts can only produce `available_per_host`.
    pub bound_step: f64,
    /// True when the input pipeline (not the TPUs) sets the step time.
    pub infeed_bound: bool,
}

/// Checks whether a host preprocessing rate keeps the slice busy.
pub fn infeed_analysis(cfg: &StepConfig, available_per_host: f64) -> InfeedReport {
    let st = step_time(cfg);
    let per_core = cfg.global_batch as f64 / cfg.cores as f64;
    let demand = per_core * CORES_PER_HOST as f64 / st.total();
    let supply_step = per_core * CORES_PER_HOST as f64 / available_per_host;
    let bound_step = st.total().max(supply_step);
    InfeedReport {
        required_per_host: demand,
        bound_step,
        infeed_bound: supply_step > st.total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_efficientnet::Variant;

    fn b2_1024() -> StepConfig {
        StepConfig::new(Variant::B2, 1024, 32768)
    }

    #[test]
    fn half_speed_link_roughly_doubles_allreduce() {
        let r = degraded_link_impact(&b2_1024(), 0.5);
        assert!(r.degraded_step > r.nominal_step);
        // AR was ~2.2% of the step; doubling it adds ~2% to the step.
        let growth = r.degraded_step / r.nominal_step;
        assert!(
            growth > 1.01 && growth < 1.05,
            "one slow link should cost a few percent: {growth}"
        );
        assert!(r.degraded_ar_share > 0.03 && r.degraded_ar_share < 0.08);
    }

    #[test]
    fn nominal_scale_changes_nothing() {
        let r = degraded_link_impact(&b2_1024(), 1.0);
        assert!((r.degraded_step - r.nominal_step).abs() / r.nominal_step < 1e-6);
    }

    #[test]
    fn infeed_demand_matches_throughput() {
        // B2@1024: ~450 img/ms over 128 hosts → ~3.5k img/s/host.
        let r = infeed_analysis(&b2_1024(), 1e9);
        assert!(
            r.required_per_host > 3_000.0 && r.required_per_host < 4_500.0,
            "required {}",
            r.required_per_host
        );
        assert!(!r.infeed_bound, "an infinite host is never the bottleneck");
    }

    #[test]
    fn slow_hosts_bound_the_step() {
        let r = infeed_analysis(&b2_1024(), 1_000.0); // 1k img/s/host
        assert!(r.infeed_bound);
        // Step time is now set by the host: 32 img/core × 8 cores / 1000.
        assert!((r.bound_step - 32.0 * 8.0 / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn big_models_need_less_infeed() {
        // B5 computes ~10× longer per image: hosts get 10× the time.
        let b2 = infeed_analysis(&b2_1024(), 1e9).required_per_host;
        let b5 = infeed_analysis(&StepConfig::new(Variant::B5, 1024, 32768), 1e9).required_per_host;
        assert!(b2 / b5 > 4.0, "B2 {b2} vs B5 {b5}");
    }
}
