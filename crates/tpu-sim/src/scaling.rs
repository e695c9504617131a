//! Scaling-efficiency analysis: how close the pod stays to ideal linear
//! speedup, and where the time goes as slices grow.
//!
//! This is the quantitative backing for the paper's §4 observation that
//! "throughput scales up linearly … which may be promising if we wish to
//! scale up even further": the model decomposes each configuration into
//! compute, all-reduce, and eval overhead, and reports parallel efficiency
//! relative to the smallest slice.

use crate::convergence::OptimizerKind;
use crate::e2e::{time_to_accuracy, RunConfig};
use crate::step::{step_time, StepConfig};
use ets_efficientnet::Variant;

/// One slice's scaling record.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    pub cores: usize,
    pub global_batch: usize,
    /// Throughput relative to the base slice, normalized per core
    /// (1.0 = perfectly linear).
    pub parallel_efficiency: f64,
    /// Share of step time in compute.
    pub compute_share: f64,
    /// Share of step time in the gradient all-reduce.
    pub all_reduce_share: f64,
    /// End-to-end speedup over the base slice for a full run.
    pub end_to_end_speedup: f64,
}

/// Scaling sweep for a model over power-of-two slices, per-core batch 32.
pub fn scaling_sweep(variant: Variant, slices: &[usize]) -> Vec<ScalingPoint> {
    assert!(!slices.is_empty());
    let base_cores = slices[0];
    let base_step = step_time(&StepConfig::new(variant, base_cores, base_cores * 32));
    let base_throughput_per_core =
        base_step.throughput_img_per_ms(base_cores * 32) / base_cores as f64;
    let base_run = time_to_accuracy(&RunConfig::paper(
        variant,
        base_cores,
        base_cores * 32,
        OptimizerKind::RmsProp,
    ));
    slices
        .iter()
        .map(|&cores| {
            let gbs = cores * 32;
            let st = step_time(&StepConfig::new(variant, cores, gbs));
            let opt = if gbs > 16384 {
                OptimizerKind::Lars
            } else {
                OptimizerKind::RmsProp
            };
            let run = time_to_accuracy(&RunConfig::paper(variant, cores, gbs, opt));
            ScalingPoint {
                cores,
                global_batch: gbs,
                parallel_efficiency: (st.throughput_img_per_ms(gbs) / cores as f64)
                    / base_throughput_per_core,
                compute_share: st.compute / st.total(),
                all_reduce_share: st.all_reduce_share(),
                end_to_end_speedup: base_run.seconds_to_peak / run.seconds_to_peak,
            }
        })
        .collect()
}

/// Fits the serial fraction `s` of Amdahl's law to the sweep's end-to-end
/// speedups (least squares over `1/speedup = s + (1−s)/p̂`, with `p̂` the
/// core ratio). Small `s` = the system scales.
pub fn amdahl_serial_fraction(points: &[ScalingPoint]) -> f64 {
    let base = points[0].cores as f64;
    let mut num = 0.0;
    let mut den = 0.0;
    for p in points.iter().skip(1) {
        let ratio = p.cores as f64 / base;
        // 1/speedup = s·(1 − 1/ratio) + 1/ratio  →  solve per point, average.
        let lhs = 1.0 / p.end_to_end_speedup - 1.0 / ratio;
        let coeff = 1.0 - 1.0 / ratio;
        num += lhs * coeff;
        den += coeff * coeff;
    }
    (num / den).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLICES: [usize; 4] = [128, 256, 512, 1024];

    #[test]
    fn efficiency_stays_high() {
        for v in [Variant::B2, Variant::B5] {
            let pts = scaling_sweep(v, &SLICES);
            for p in &pts {
                assert!(
                    p.parallel_efficiency > 0.95,
                    "{v:?}@{}: efficiency {}",
                    p.cores,
                    p.parallel_efficiency
                );
                assert!(p.compute_share > 0.9, "compute-dominated at every scale");
            }
        }
    }

    #[test]
    fn end_to_end_speedup_grows_monotonically() {
        let pts = scaling_sweep(Variant::B5, &SLICES);
        for w in pts.windows(2) {
            assert!(w[1].end_to_end_speedup > w[0].end_to_end_speedup);
        }
        // 8× cores: at least 5× end-to-end.
        assert!(pts.last().unwrap().end_to_end_speedup > 5.0);
    }

    #[test]
    fn amdahl_fraction_is_small() {
        let pts = scaling_sweep(Variant::B2, &SLICES);
        let s = amdahl_serial_fraction(&pts);
        assert!(s < 0.05, "serial fraction {s} should be tiny");
    }

    #[test]
    fn base_point_is_unity() {
        let pts = scaling_sweep(Variant::B2, &SLICES);
        assert!((pts[0].parallel_efficiency - 1.0).abs() < 1e-9);
        assert!((pts[0].end_to_end_speedup - 1.0).abs() < 1e-9);
    }
}
