//! Learning-rate schedules (§3.2 of the paper).
//!
//! Three pieces compose the paper's recipe:
//! 1. **Linear scaling** — the base LR is specified *per 256 samples* and
//!    multiplied by `global_batch / 256` (Goyal et al.).
//! 2. **Warmup** — LR ramps linearly to the scaled peak over a tunable
//!    number of epochs (5 for RMSProp, 50 / 43 for LARS rows of Table 2);
//!    step 0 starts one ramp increment above zero — see [`Warmup`] for the
//!    deliberate deviation from TF's convention.
//! 3. **Decay** — exponential decay (0.97 every 2.4 epochs; RMSProp
//!    baseline) or polynomial decay to ~0 with power 2 (LARS; the paper
//!    found polynomial beats exponential for LARS).
//!
//! Schedules are pure functions of the step index, so replicas can evaluate
//! them independently and bit-identically.

/// A learning-rate schedule: maps a 0-based step index to an LR.
pub trait LrSchedule: Send + Sync {
    /// Learning rate at `step` (0-based).
    fn lr(&self, step: u64) -> f32;
}

/// The linear-scaling rule: peak LR = `base_per_256 · global_batch / 256`.
pub fn linear_scaled_lr(base_per_256: f32, global_batch: usize) -> f32 {
    base_per_256 * global_batch as f32 / 256.0
}

/// Constant learning rate.
#[derive(Clone, Debug)]
pub struct Constant(pub f32);

impl LrSchedule for Constant {
    fn lr(&self, _step: u64) -> f32 {
        self.0
    }
}

/// Staircase exponential decay: `peak · rate^floor(step / decay_steps)` —
/// TF's `exponential_decay(..., staircase=True)`, EfficientNet's default
/// (0.97 every 2.4 epochs).
#[derive(Clone, Debug)]
pub struct ExponentialDecay {
    pub peak: f32,
    pub rate: f32,
    pub decay_steps: u64,
}

impl LrSchedule for ExponentialDecay {
    fn lr(&self, step: u64) -> f32 {
        self.peak * self.rate.powi((step / self.decay_steps.max(1)) as i32)
    }
}

/// Polynomial decay: `(peak − end) · (1 − step/total)^power + end`, clamped
/// at `end` after `total`. The paper uses power 2 with end ≈ 0 for LARS.
#[derive(Clone, Debug)]
pub struct PolynomialDecay {
    pub peak: f32,
    pub end: f32,
    pub power: f32,
    pub total_steps: u64,
}

impl LrSchedule for PolynomialDecay {
    fn lr(&self, step: u64) -> f32 {
        // Degenerate budget: a zero-step decay has already finished, so
        // every step gets `end`. (The `step >= total_steps` early return
        // happens to cover this case too, but only by accident of its
        // ordering before the division — make the guard explicit so a
        // future reorder cannot reintroduce a 0/0 NaN.)
        if self.total_steps == 0 {
            return self.end;
        }
        if step >= self.total_steps {
            return self.end;
        }
        let frac = 1.0 - step as f32 / self.total_steps as f32;
        (self.peak - self.end) * frac.powf(self.power) + self.end
    }
}

/// Cosine decay to zero over `total_steps`.
#[derive(Clone, Debug)]
pub struct CosineDecay {
    pub peak: f32,
    pub total_steps: u64,
}

impl LrSchedule for CosineDecay {
    fn lr(&self, step: u64) -> f32 {
        // Degenerate budget: without the guard, `0 / 0` makes every step's
        // LR NaN, which silently poisons the whole run. A zero-step cosine
        // never leaves its starting point, so return `peak`.
        if self.total_steps == 0 {
            return self.peak;
        }
        let s = (step.min(self.total_steps)) as f32 / self.total_steps as f32;
        0.5 * self.peak * (1.0 + (std::f32::consts::PI * s).cos())
    }
}

/// Linear warmup wrapped around any schedule: during the first
/// `warmup_steps`, LR ramps linearly **toward** the inner schedule's value
/// at the handover step, taking `target · (step + 1) / warmup_steps` —
/// i.e. step 0 applies `target / warmup_steps`, *not* 0, and step
/// `warmup_steps − 1` applies the full target. Afterwards the inner
/// schedule (evaluated at the *global* step) takes over.
///
/// This deliberately differs from TF EfficientNet's
/// `lr · step / warmup_steps` convention in two ways, both intentional:
///
/// 1. **No wasted step.** TF's ramp applies a zero LR at global step 0 —
///    a full forward/backward pass whose update is discarded. Starting at
///    `target / warmup_steps` spends that step learning; with the paper's
///    warmups (5–50 epochs) the two ramps are otherwise indistinguishable
///    (they differ by one ramp increment everywhere).
/// 2. **Exact handover.** Reaching the target at step `warmup_steps − 1`
///    makes the boundary seamless when the decay is [`Shifted`] to start
///    at the handover (the [`lars_paper_schedule`] construction):
///    `lr(warmup_steps − 1) = lr(warmup_steps) = peak`, so the LR curve
///    is flat across the boundary instead of double-counting the peak or
///    jumping by a ramp increment.
pub struct Warmup<S> {
    pub warmup_steps: u64,
    pub inner: S,
}

impl<S: LrSchedule> Warmup<S> {
    pub fn new(warmup_steps: u64, inner: S) -> Self {
        Warmup {
            warmup_steps,
            inner,
        }
    }
}

impl<S: LrSchedule> LrSchedule for Warmup<S> {
    fn lr(&self, step: u64) -> f32 {
        if step < self.warmup_steps && self.warmup_steps > 0 {
            let target = self.inner.lr(self.warmup_steps);
            target * (step + 1) as f32 / self.warmup_steps as f32
        } else {
            self.inner.lr(step)
        }
    }
}

/// Evaluates the inner schedule at `step − offset` (clamped at 0): used to
/// start a decay *after* warmup finishes, the MLPerf/LARS convention, as
/// opposed to decaying on the global step (the TF EfficientNet/RMSProp
/// convention).
pub struct Shifted<S> {
    pub offset: u64,
    pub inner: S,
}

impl<S: LrSchedule> Shifted<S> {
    pub fn new(offset: u64, inner: S) -> Self {
        Shifted { offset, inner }
    }
}

impl<S: LrSchedule> LrSchedule for Shifted<S> {
    fn lr(&self, step: u64) -> f32 {
        self.inner.lr(step.saturating_sub(self.offset))
    }
}

/// A boxed schedule (for configs resolved at runtime).
pub type BoxedSchedule = Box<dyn LrSchedule>;

impl LrSchedule for BoxedSchedule {
    fn lr(&self, step: u64) -> f32 {
        (**self).lr(step)
    }
}

/// Steps per epoch for a dataset/batch combination, rounding up (the
/// remainder batch still counts as a step).
pub fn steps_per_epoch(dataset_size: u64, global_batch: u64) -> u64 {
    dataset_size.div_ceil(global_batch)
}

/// Builds the paper's RMSProp baseline schedule: LR 0.016/256 linear-scaled,
/// 5-epoch warmup, exponential 0.97 decay every 2.4 epochs.
pub fn rmsprop_paper_schedule(global_batch: usize, dataset_size: u64) -> Warmup<ExponentialDecay> {
    let spe = steps_per_epoch(dataset_size, global_batch as u64);
    Warmup::new(
        5 * spe,
        ExponentialDecay {
            peak: linear_scaled_lr(0.016, global_batch),
            rate: 0.97,
            decay_steps: ((2.4 * spe as f64).round() as u64).max(1),
        },
    )
}

/// Builds the paper's LARS schedule: given base LR per 256 (Table 2: 0.236,
/// 0.118 or 0.081), warmup epochs (50 or 43), polynomial decay power 2 to
/// ~0 over the full 350-epoch budget.
pub fn lars_paper_schedule(
    base_per_256: f32,
    warmup_epochs: u64,
    total_epochs: u64,
    global_batch: usize,
    dataset_size: u64,
) -> Warmup<Shifted<PolynomialDecay>> {
    let spe = steps_per_epoch(dataset_size, global_batch as u64);
    let warmup_steps = warmup_epochs * spe;
    // Decay runs over the post-warmup remainder, so the LR tops out at the
    // full linear-scaled peak exactly when warmup hands over.
    Warmup::new(
        warmup_steps,
        Shifted::new(
            warmup_steps,
            PolynomialDecay {
                peak: linear_scaled_lr(base_per_256, global_batch),
                end: 1e-4,
                power: 2.0,
                total_steps: (total_epochs * spe).saturating_sub(warmup_steps).max(1),
            },
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_scaling_rule() {
        assert!((linear_scaled_lr(0.016, 256) - 0.016).abs() < 1e-7);
        assert!((linear_scaled_lr(0.016, 4096) - 0.256).abs() < 1e-6);
        // Table 2's B5@65536 LARS row: 0.081 per 256 → peak 20.736.
        assert!((linear_scaled_lr(0.081, 65536) - 20.736).abs() < 1e-3);
    }

    #[test]
    fn exponential_staircase() {
        let s = ExponentialDecay {
            peak: 1.0,
            rate: 0.5,
            decay_steps: 10,
        };
        assert_eq!(s.lr(0), 1.0);
        assert_eq!(s.lr(9), 1.0);
        assert_eq!(s.lr(10), 0.5);
        assert_eq!(s.lr(25), 0.25);
    }

    #[test]
    fn polynomial_decay_shape() {
        let s = PolynomialDecay {
            peak: 4.0,
            end: 0.0,
            power: 2.0,
            total_steps: 100,
        };
        assert_eq!(s.lr(0), 4.0);
        assert!((s.lr(50) - 1.0).abs() < 1e-6); // (1/2)² · 4
        assert_eq!(s.lr(100), 0.0);
        assert_eq!(s.lr(1000), 0.0);
        // Monotone decreasing.
        for t in 1..100 {
            assert!(s.lr(t) <= s.lr(t - 1));
        }
    }

    #[test]
    fn cosine_endpoints() {
        let s = CosineDecay {
            peak: 2.0,
            total_steps: 50,
        };
        assert!((s.lr(0) - 2.0).abs() < 1e-6);
        assert!(s.lr(50).abs() < 1e-6);
        assert!((s.lr(25) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn warmup_ramps_then_hands_over() {
        let s = Warmup::new(10, Constant(1.0));
        assert!((s.lr(0) - 0.1).abs() < 1e-6);
        assert!((s.lr(4) - 0.5).abs() < 1e-6);
        assert!((s.lr(9) - 1.0).abs() < 1e-6);
        assert_eq!(s.lr(10), 1.0);
        assert_eq!(s.lr(500), 1.0);
        // No discontinuity bigger than one ramp increment at the boundary.
        assert!((s.lr(10) - s.lr(9)).abs() < 0.11);
    }

    #[test]
    fn warmup_zero_is_identity() {
        let s = Warmup::new(0, Constant(0.7));
        assert_eq!(s.lr(0), 0.7);
    }

    #[test]
    fn paper_schedules_peaks() {
        const IMAGENET: u64 = 1_281_167;
        // RMSProp @ 4096: peak 0.016·16 = 0.256, but by the end of the
        // 5-epoch warmup the staircase decay has fired twice
        // (floor(5/2.4) = 2), so the handover LR is 0.256·0.97².
        let r = rmsprop_paper_schedule(4096, IMAGENET);
        let spe = steps_per_epoch(IMAGENET, 4096);
        assert!((r.lr(5 * spe) - 0.256 * 0.97f32.powi(2)).abs() < 1e-3);
        assert!((r.lr(0) - 0.256 * 0.97f32.powi(2) / (5 * spe) as f32).abs() < 1e-5);
        // LARS @ 65536 (B5 row): peak 20.736 after 43-epoch warmup.
        let l = lars_paper_schedule(0.081, 43, 350, 65536, IMAGENET);
        let spe = steps_per_epoch(IMAGENET, 65536);
        let peak = l.lr(43 * spe);
        assert!((peak - 20.7).abs() < 0.5, "peak {peak}");
        // End of training: ≈ end LR.
        assert!(l.lr(350 * spe) < 1e-3);
    }

    #[test]
    fn steps_per_epoch_rounds_up() {
        assert_eq!(steps_per_epoch(100, 32), 4);
        assert_eq!(steps_per_epoch(96, 32), 3);
    }

    #[test]
    fn cosine_zero_total_steps_is_peak_not_nan() {
        let s = CosineDecay {
            peak: 2.0,
            total_steps: 0,
        };
        for step in [0u64, 1, 17, u64::MAX] {
            let lr = s.lr(step);
            assert!(lr.is_finite(), "step {step} produced {lr}");
            assert_eq!(lr, 2.0);
        }
    }

    #[test]
    fn polynomial_zero_total_steps_is_end_not_nan() {
        let s = PolynomialDecay {
            peak: 4.0,
            end: 1e-4,
            power: 2.0,
            total_steps: 0,
        };
        for step in [0u64, 1, 17, u64::MAX] {
            let lr = s.lr(step);
            assert!(lr.is_finite(), "step {step} produced {lr}");
            assert_eq!(lr, 1e-4);
        }
    }

    #[test]
    fn schedules_never_produce_nan_on_edge_budgets() {
        // Sweep tiny budgets (incl. the degenerate 0) across every decay:
        // the whole family must stay finite everywhere.
        for total in 0..4u64 {
            let schedules: Vec<BoxedSchedule> = vec![
                Box::new(CosineDecay {
                    peak: 1.0,
                    total_steps: total,
                }),
                Box::new(PolynomialDecay {
                    peak: 1.0,
                    end: 0.0,
                    power: 2.0,
                    total_steps: total,
                }),
                Box::new(ExponentialDecay {
                    peak: 1.0,
                    rate: 0.97,
                    decay_steps: total,
                }),
                Box::new(Warmup::new(
                    total,
                    CosineDecay {
                        peak: 1.0,
                        total_steps: total,
                    },
                )),
            ];
            for s in &schedules {
                for step in 0..6u64 {
                    let lr = s.lr(step);
                    assert!(lr.is_finite(), "total {total} step {step}: {lr}");
                }
            }
        }
    }

    #[test]
    fn warmup_step_zero_is_one_ramp_increment_not_zero() {
        // The documented convention: step 0 applies target/warmup_steps
        // (one ramp increment), deliberately not TF's zero-LR first step.
        let s = Warmup::new(10, Constant(1.0));
        assert!((s.lr(0) - 0.1).abs() < 1e-7);
        assert!(s.lr(0) > 0.0, "step 0 must not waste a zero-LR update");
        // Full target is reached at the LAST warmup step, not after it.
        assert!((s.lr(9) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn lars_schedule_handover_is_flat_across_the_boundary() {
        // The Shifted construction in lars_paper_schedule must make the
        // warmup→decay boundary seamless: the last warmup step, the first
        // decay step, and the decay's own peak all coincide.
        const IMAGENET: u64 = 1_281_167;
        let l = lars_paper_schedule(0.236, 50, 350, 16384, IMAGENET);
        let spe = steps_per_epoch(IMAGENET, 16384);
        let ws = 50 * spe;
        let peak = linear_scaled_lr(0.236, 16384);
        assert!((l.lr(ws - 1) - peak).abs() < 1e-4, "last warmup step");
        assert!((l.lr(ws) - peak).abs() < 1e-4, "first decay step");
        assert_eq!(
            l.lr(ws - 1).to_bits(),
            l.lr(ws).to_bits(),
            "handover must be exactly flat"
        );
        // Strictly on the ramp just before, strictly decaying just after.
        assert!(l.lr(ws - 2) < l.lr(ws - 1));
        assert!(l.lr(ws + spe) < l.lr(ws));
        // And monotone non-increasing for the rest of the run.
        let mut prev = l.lr(ws);
        for e in 51..=350 {
            let lr = l.lr(e * spe);
            assert!(lr <= prev + 1e-7, "epoch {e}: {lr} > {prev}");
            prev = lr;
        }
    }
}
