//! Property tests of the optimizers and schedules: convergence on random
//! convex quadratics, LARS scale invariance over random magnitudes, and
//! schedule contracts for arbitrary configurations.

use ets_nn::{Layer, Mode, Param, ParamKind};
use ets_optim::{
    lars_paper_schedule, linear_scaled_lr, rmsprop_paper_schedule, steps_per_epoch, Adam,
    ExponentialDecay, Lamb, Lars, LrSchedule, Optimizer, PolynomialDecay, RmsProp, Sgd, Shifted,
    Sm3, Warmup,
};
use ets_tensor::{Rng, Tensor};
use proptest::prelude::*;

struct VecParam(Param);

impl Layer for VecParam {
    fn forward(&mut self, x: &Tensor, _m: Mode, _r: &mut Rng) -> Tensor {
        x.clone()
    }
    fn backward(&mut self, g: &Tensor) -> Tensor {
        g.clone()
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.0);
    }
}

/// Minimizes ½ Σ cᵢ·wᵢ² from a random start; returns the final |w|∞.
fn minimize(
    opt: &mut dyn Optimizer,
    curvature: &[f32],
    start: &[f32],
    lr: f32,
    steps: usize,
) -> f32 {
    let mut layer = VecParam(Param::new(
        "w",
        Tensor::from_vec([start.len()], start.to_vec()),
        ParamKind::Bias, // plain path for all optimizers
    ));
    for _ in 0..steps {
        let w: Vec<f32> = layer.0.value.data().to_vec();
        layer.0.zero_grad();
        for (g, (wv, cv)) in layer
            .0
            .grad
            .data_mut()
            .iter_mut()
            .zip(w.iter().zip(curvature))
        {
            *g = cv * wv;
        }
        opt.step(&mut layer, lr);
    }
    let max_abs = layer
        .0
        .value
        .data()
        .iter()
        .fold(0.0f32, |m, v| m.max(v.abs()));
    max_abs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn all_optimizers_converge_on_random_quadratics(
        seed in 0u64..1000,
        dim in 1usize..6,
    ) {
        let mut rng = Rng::new(seed);
        let curvature: Vec<f32> = (0..dim).map(|_| rng.uniform_in(0.5, 2.0)).collect();
        let start: Vec<f32> = (0..dim).map(|_| rng.uniform_in(-3.0, 3.0)).collect();
        let start_mag = start.iter().fold(0.0f32, |m, v| m.max(v.abs()));

        let cases: Vec<(Box<dyn Optimizer>, f32, usize)> = vec![
            (Box::new(Sgd::new(0.9, 0.0)), 0.05, 300),
            (Box::new(RmsProp::new(0.9, 0.0, 1e-3, 0.0)), 0.05, 400),
            (Box::new(Adam::default_config(0.0)), 0.05, 500),
            (Box::new(Sm3::new(0.0, 0.0)), 0.3, 500),
            (Box::new(Lamb::paper_default(0.0)), 0.05, 500),
        ];
        for (mut opt, lr, steps) in cases {
            let end = minimize(opt.as_mut(), &curvature, &start, lr, steps);
            prop_assert!(
                end < 0.3 * start_mag.max(0.5),
                "{} left |w|={end} from {start_mag}",
                opt.name()
            );
        }
    }

    #[test]
    fn lars_update_magnitude_ignores_gradient_scale(
        seed in 0u64..1000,
        dim in 1usize..6,
        log_scale in -6i32..7,
    ) {
        let mut rng = Rng::new(seed);
        let w0: Vec<f32> = (0..dim).map(|_| rng.uniform_in(0.5, 2.0)).collect();
        let g0: Vec<f32> = (0..dim).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        prop_assume!(g0.iter().any(|&g| g.abs() > 1e-3));
        let scale = 10f32.powi(log_scale);

        let run = |s: f32| -> Vec<f32> {
            let mut layer = VecParam(Param::new(
                "w",
                Tensor::from_vec([dim], w0.clone()),
                ParamKind::Weight,
            ));
            for (g, &v) in layer.0.grad.data_mut().iter_mut().zip(&g0) {
                *g = v * s;
            }
            let mut opt = Lars::new(0.0, 0.0, 0.01);
            opt.step(&mut layer, 1.0);
            let weights = layer.0.value.data().to_vec();
            weights
        };
        let base = run(1.0);
        let scaled = run(scale);
        for (a, b) in base.iter().zip(&scaled) {
            prop_assert!((a - b).abs() < 1e-4 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn warmup_target_continuity(
        warmup in 1u64..100,
        rate in 0.5f32..0.999,
        decay_steps in 1u64..200,
        peak in 0.001f32..5.0,
    ) {
        let s = Warmup::new(warmup, ExponentialDecay { peak, rate, decay_steps });
        // The last warmup step equals the inner schedule at the handover.
        let at_end = s.lr(warmup - 1);
        let handover = s.lr(warmup);
        prop_assert!((at_end - handover).abs() <= handover / warmup as f32 + 1e-6);
        // LR is finite & non-negative everywhere.
        for step in (0..500).step_by(17) {
            let lr = s.lr(step);
            prop_assert!(lr.is_finite() && lr >= 0.0);
        }
    }

    #[test]
    fn shifted_polynomial_peaks_exactly_at_offset(
        offset in 0u64..100,
        total in 1u64..300,
        peak in 0.01f32..10.0,
        power in 0.5f32..3.0,
    ) {
        let s = Shifted::new(offset, PolynomialDecay { peak, end: 0.0, power, total_steps: total });
        prop_assert_eq!(s.lr(offset), peak);
        prop_assert!(s.lr(offset + total) == 0.0);
        // Before the offset the schedule holds at the peak (step clamps).
        prop_assert_eq!(s.lr(0), peak);
    }

    #[test]
    fn paper_presets_scale_linearly_with_batch(
        batch_pow in 8u32..17, // 256 .. 65536
    ) {
        const N: u64 = 1_281_167;
        let batch = 2usize.pow(batch_pow);
        let spe = steps_per_epoch(N, batch as u64);
        let r = rmsprop_paper_schedule(batch, N);
        // Peak (end of warmup) tracks the linear-scaling rule modulo the
        // staircase decays already applied during warmup.
        let decays = (5 * spe) / ((2.4 * spe as f64).round() as u64).max(1);
        let expect = linear_scaled_lr(0.016, batch) * 0.97f32.powi(decays as i32);
        prop_assert!((r.lr(5 * spe) - expect).abs() < 1e-3 * expect.max(1.0));

        let l = lars_paper_schedule(0.081, 43, 350, batch, N);
        let peak = linear_scaled_lr(0.081, batch);
        prop_assert!((l.lr(43 * spe) - peak).abs() < 1e-3 * peak);
    }
}
