//! Convergence model: peak accuracy and when it is reached.
//!
//! This is the *quality* half of the simulator, calibrated to Table 2 of
//! the paper (every row is embedded below as an anchor). For batch sizes
//! between anchors we interpolate piecewise-linearly in log₂(batch); for
//! variants other than B2/B5 we shift the nearest calibrated curve by the
//! published single-accelerator baseline accuracy difference.
//!
//! The *measured* counterpart of this model — real training of a reduced
//! EfficientNet through the real distributed engine, showing the same
//! RMSProp-degrades / LARS-holds ordering — lives in `ets-train` and the
//! `table2 --proxy` harness; see EXPERIMENTS.md.

use ets_efficientnet::Variant;

/// Which optimizer recipe a run uses (§3.1/§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OptimizerKind {
    /// RMSProp + exponential decay (0.016/256, 5-epoch warmup).
    RmsProp,
    /// LARS + polynomial decay (Table 2's large-batch rows).
    Lars,
}

/// One row of Table 2.
#[derive(Clone, Copy, Debug)]
pub struct Table2Row {
    pub variant: Variant,
    pub cores: usize,
    pub global_batch: usize,
    pub optimizer: OptimizerKind,
    pub lr_per_256: f32,
    pub warmup_epochs: u64,
    pub peak_top1: f64,
}

/// Every row of the paper's Table 2.
pub const TABLE2: [Table2Row; 11] = [
    Table2Row {
        variant: Variant::B2,
        cores: 128,
        global_batch: 4096,
        optimizer: OptimizerKind::RmsProp,
        lr_per_256: 0.016,
        warmup_epochs: 5,
        peak_top1: 0.801,
    },
    Table2Row {
        variant: Variant::B2,
        cores: 256,
        global_batch: 8192,
        optimizer: OptimizerKind::RmsProp,
        lr_per_256: 0.016,
        warmup_epochs: 5,
        peak_top1: 0.800,
    },
    Table2Row {
        variant: Variant::B2,
        cores: 512,
        global_batch: 16384,
        optimizer: OptimizerKind::RmsProp,
        lr_per_256: 0.016,
        warmup_epochs: 5,
        peak_top1: 0.799,
    },
    Table2Row {
        variant: Variant::B2,
        cores: 512,
        global_batch: 16384,
        optimizer: OptimizerKind::Lars,
        lr_per_256: 0.236,
        warmup_epochs: 50,
        peak_top1: 0.795,
    },
    Table2Row {
        variant: Variant::B2,
        cores: 1024,
        global_batch: 32768,
        optimizer: OptimizerKind::Lars,
        lr_per_256: 0.118,
        warmup_epochs: 50,
        peak_top1: 0.797,
    },
    Table2Row {
        variant: Variant::B5,
        cores: 128,
        global_batch: 4096,
        optimizer: OptimizerKind::RmsProp,
        lr_per_256: 0.016,
        warmup_epochs: 5,
        peak_top1: 0.835,
    },
    Table2Row {
        variant: Variant::B5,
        cores: 256,
        global_batch: 8192,
        optimizer: OptimizerKind::RmsProp,
        lr_per_256: 0.016,
        warmup_epochs: 5,
        peak_top1: 0.834,
    },
    Table2Row {
        variant: Variant::B5,
        cores: 512,
        global_batch: 16384,
        optimizer: OptimizerKind::RmsProp,
        lr_per_256: 0.016,
        warmup_epochs: 5,
        peak_top1: 0.834,
    },
    Table2Row {
        variant: Variant::B5,
        cores: 512,
        global_batch: 16384,
        optimizer: OptimizerKind::Lars,
        lr_per_256: 0.236,
        warmup_epochs: 50,
        peak_top1: 0.833,
    },
    Table2Row {
        variant: Variant::B5,
        cores: 1024,
        global_batch: 32768,
        optimizer: OptimizerKind::Lars,
        lr_per_256: 0.118,
        warmup_epochs: 50,
        peak_top1: 0.832,
    },
    Table2Row {
        variant: Variant::B5,
        cores: 1024,
        global_batch: 65536,
        optimizer: OptimizerKind::Lars,
        lr_per_256: 0.081,
        warmup_epochs: 43,
        peak_top1: 0.830,
    },
];

/// Published single-accelerator baselines (Tan & Le), used to shift the
/// calibrated B2/B5 curves onto other variants.
fn baseline_top1(v: Variant) -> f64 {
    match v {
        Variant::B0 => 0.771,
        Variant::B1 => 0.791,
        Variant::B2 => 0.801,
        Variant::B3 => 0.816,
        Variant::B4 => 0.829,
        Variant::B5 => 0.836,
        Variant::B6 => 0.840,
        Variant::B7 => 0.844,
    }
}

/// Anchor curve for one (variant, optimizer): (log₂ batch, top-1) points in
/// ascending batch order.
fn anchors(variant: Variant, optimizer: OptimizerKind) -> Vec<(f64, f64)> {
    let mut pts: Vec<(f64, f64)> = TABLE2
        .iter()
        .filter(|r| r.variant == variant && r.optimizer == optimizer)
        .map(|r| ((r.global_batch as f64).log2(), r.peak_top1))
        .collect();
    pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    pts
}

/// Large-batch degradation beyond the last anchor, in top-1 per doubling.
/// RMSProp collapses quickly past 16k (the generalization-gap motivation
/// for LARS, §3.1); LARS degrades gently (Table 2: −0.002 from 32k→65k).
fn extrapolation_slope(optimizer: OptimizerKind) -> f64 {
    match optimizer {
        OptimizerKind::RmsProp => -0.025,
        OptimizerKind::Lars => -0.004,
    }
}

/// Predicted peak top-1 accuracy for a configuration.
///
/// Exact on Table 2 rows; interpolated/extrapolated elsewhere; shifted by
/// the baseline delta for variants without calibrated rows.
pub fn predict_peak_accuracy(
    variant: Variant,
    optimizer: OptimizerKind,
    global_batch: usize,
) -> f64 {
    // Pick the calibrated curve: the requested variant when available,
    // otherwise B2 (small models) or B5 (large).
    let curve_variant = match variant {
        Variant::B2 | Variant::B5 => variant,
        Variant::B0 | Variant::B1 | Variant::B3 => Variant::B2,
        _ => Variant::B5,
    };
    let shift = baseline_top1(variant) - baseline_top1(curve_variant);
    let pts = anchors(curve_variant, optimizer);
    assert!(
        !pts.is_empty(),
        "no anchors for {curve_variant:?}/{optimizer:?}"
    );
    let x = (global_batch as f64).log2();
    let first = pts[0];
    let last = *pts.last().unwrap();
    let y = if x <= first.0 {
        // Below the smallest calibrated batch, quality saturates at the
        // small-batch value (both optimizers are fine at small batch).
        first.1
    } else if x >= last.0 {
        last.1 + extrapolation_slope(optimizer) * (x - last.0)
    } else {
        let mut y = last.1;
        for w in pts.windows(2) {
            if x >= w[0].0 && x <= w[1].0 {
                let t = (x - w[0].0) / (w[1].0 - w[0].0);
                y = w[0].1 + t * (w[1].1 - w[0].1);
                break;
            }
        }
        y
    };
    (y + shift).clamp(0.0, 1.0)
}

/// Fraction of the 350-epoch budget at which eval accuracy peaks.
///
/// Calibrated: RMSProp runs improve to the very end of the exponential
/// decay (0.97); LARS's polynomial-to-zero schedule plateaus earlier
/// (0.92), which is also what reconciles Figure 1's B5@65536 point (64
/// min) with the step-time model.
pub fn peak_epoch_fraction(optimizer: OptimizerKind) -> f64 {
    match optimizer {
        OptimizerKind::RmsProp => 0.97,
        OptimizerKind::Lars => 0.92,
    }
}

/// Top-1 accuracy as a function of training progress, for the eval-loop
/// simulation: a saturating-exponential learning curve that reaches the
/// peak at `peak_epoch` and holds (slightly decaying after, as over-trained
/// runs do).
pub fn accuracy_at_epoch(peak_acc: f64, peak_epoch: f64, warmup_epochs: f64, epoch: f64) -> f64 {
    if epoch <= warmup_epochs {
        // During warmup accuracy climbs from chance slowly.
        return peak_acc * 0.3 * (epoch / warmup_epochs.max(1.0));
    }
    let t = (epoch - warmup_epochs) / (peak_epoch - warmup_epochs).max(1.0);
    if t >= 1.0 {
        // Tiny post-peak decay so the *first* epoch at peak is the peak.
        peak_acc * (1.0 - 0.002 * (t - 1.0))
    } else {
        // Rises to exactly peak_acc at t = 1.
        let rise = (1.0 - (-4.0 * t).exp()) / (1.0 - (-4.0f64).exp());
        peak_acc * (0.3 + 0.7 * rise)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_on_table2_rows() {
        for row in &TABLE2 {
            let p = predict_peak_accuracy(row.variant, row.optimizer, row.global_batch);
            assert!((p - row.peak_top1).abs() < 1e-9, "{row:?}: predicted {p}");
        }
    }

    #[test]
    fn rmsprop_collapses_past_16k_lars_does_not() {
        let rms_32k = predict_peak_accuracy(Variant::B2, OptimizerKind::RmsProp, 32768);
        let lars_32k = predict_peak_accuracy(Variant::B2, OptimizerKind::Lars, 32768);
        assert!(
            lars_32k > rms_32k,
            "LARS {lars_32k} must beat RMSProp {rms_32k} at 32k"
        );
        let rms_64k = predict_peak_accuracy(Variant::B5, OptimizerKind::RmsProp, 65536);
        let lars_64k = predict_peak_accuracy(Variant::B5, OptimizerKind::Lars, 65536);
        assert!(
            lars_64k - rms_64k > 0.02,
            "gap at 65k: {lars_64k} vs {rms_64k}"
        );
        // And the headline number: B5 LARS at 65536 stays at 83%.
        assert!((lars_64k - 0.830).abs() < 1e-9);
    }

    #[test]
    fn small_batches_saturate() {
        let a = predict_peak_accuracy(Variant::B2, OptimizerKind::RmsProp, 1024);
        let b = predict_peak_accuracy(Variant::B2, OptimizerKind::RmsProp, 4096);
        assert_eq!(a, b);
    }

    #[test]
    fn other_variants_shift_sensibly() {
        let b0 = predict_peak_accuracy(Variant::B0, OptimizerKind::RmsProp, 4096);
        assert!((b0 - 0.771).abs() < 0.01, "B0 near its baseline, got {b0}");
        let b7 = predict_peak_accuracy(Variant::B7, OptimizerKind::Lars, 32768);
        assert!(b7 > predict_peak_accuracy(Variant::B5, OptimizerKind::Lars, 32768));
    }

    #[test]
    fn accuracy_curve_shape() {
        let peak = 0.83;
        let f = |e: f64| accuracy_at_epoch(peak, 322.0, 43.0, e);
        assert!(f(0.0) < 0.01);
        assert!(f(43.0) <= 0.3 * peak + 1e-9);
        // Monotone rise to the peak epoch.
        let mut prev = 0.0;
        for e in (0..=322).step_by(10) {
            let v = f(e as f64);
            assert!(v >= prev - 1e-12, "non-monotone at {e}");
            prev = v;
        }
        assert!((f(322.0) - peak).abs() < 1e-9, "peak hit exactly");
        assert!(f(350.0) < peak, "post-peak decays slightly");
    }

    #[test]
    fn table2_has_eleven_rows_matching_paper() {
        assert_eq!(TABLE2.len(), 11);
        assert_eq!(
            TABLE2
                .iter()
                .filter(|r| r.optimizer == OptimizerKind::Lars)
                .count(),
            5
        );
    }
}
