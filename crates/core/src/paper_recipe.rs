//! Principled mapping from the paper's Table 2 configurations to
//! proxy-scale experiments.
//!
//! What transfers across a 1/1000 change of scale is the *structure* of a
//! configuration, not its absolute numbers. The mapping preserves:
//!
//! - the **batch-to-dataset ratio** (batch 65536 on 1.28 M images ≈ 1/20
//!   of the dataset per step → the proxy uses 1/20 of its dataset),
//! - the **warmup fraction** of the epoch budget (50/350 → the same
//!   fraction of the proxy budget),
//! - the **optimizer + decay family** (RMSProp/exponential vs
//!   LARS/polynomial),
//! - the **linear-scaling rule** for the LR.
//!
//! The per-256 base LR is re-tuned once per optimizer on the proxy task
//! (the loss surface of a tiny model on SynthNet is not ImageNet's) and
//! then held fixed across batch sizes — exactly how the paper holds its
//! base LR fixed while the linear scaling rule adjusts the peak.

use crate::experiment::{DecayChoice, Experiment, OptimizerChoice};
use ets_tpu_sim::{OptimizerKind, Table2Row};

/// Proxy-tuned base LRs (per 256 samples), one per optimizer family.
pub const PROXY_RMSPROP_LR: f32 = 0.05;
pub const PROXY_LARS_LR: f32 = 1.0;
/// Proxy-tuned LARS trust coefficient.
pub const PROXY_LARS_TRUST: f32 = 0.05;

/// Maps a Table 2 row onto a proxy experiment derived from `base`
/// (which fixes dataset size, model, replica count, epoch budget).
pub fn proxy_of(row: &Table2Row, base: &Experiment) -> Experiment {
    let mut e = base.clone();
    // Batch-to-dataset ratio, rounded to a replica-divisible batch ≥ replicas.
    let ratio = row.global_batch as f64 / ets_data::imagenet::TRAIN_IMAGES as f64;
    let target = (ratio * e.train_samples as f64).round() as usize;
    let per_replica = (target / e.replicas).max(1);
    e.per_replica_batch = per_replica;
    // Warmup fraction of the budget.
    let frac = row.warmup_epochs as f64 / 350.0;
    e.warmup_epochs = ((frac * e.epochs as f64).round() as u64).clamp(1, e.epochs - 1);
    match row.optimizer {
        OptimizerKind::RmsProp => {
            e.optimizer = OptimizerChoice::RmsProp;
            e.decay = DecayChoice::Exponential {
                rate: 0.97,
                epochs: 2.4,
            };
            e.lr_per_256 = PROXY_RMSPROP_LR;
        }
        OptimizerKind::Lars => {
            e.optimizer = OptimizerChoice::Lars {
                trust_coeff: PROXY_LARS_TRUST,
            };
            e.decay = DecayChoice::Polynomial { power: 2.0 };
            e.lr_per_256 = PROXY_LARS_LR;
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_tpu_sim::TABLE2;

    fn base() -> Experiment {
        let mut b = Experiment::proxy_default();
        b.replicas = 4;
        b.epochs = 16;
        b.train_samples = 2048;
        b
    }

    #[test]
    fn batch_ratio_preserved() {
        let b = base();
        for row in &TABLE2 {
            let e = proxy_of(row, &b);
            e.validate();
            let paper_ratio = row.global_batch as f64 / 1_281_167.0;
            let proxy_ratio = e.global_batch() as f64 / e.train_samples as f64;
            // Rounding to replica multiples allows some slack at tiny batches.
            assert!(
                (proxy_ratio / paper_ratio - 1.0).abs() < 0.5,
                "row {row:?}: {proxy_ratio} vs {paper_ratio}"
            );
        }
    }

    #[test]
    fn optimizer_families_map() {
        let b = base();
        let rms_row = &TABLE2[0];
        let lars_row = &TABLE2[10];
        let er = proxy_of(rms_row, &b);
        assert_eq!(er.optimizer, OptimizerChoice::RmsProp);
        assert!(matches!(er.decay, DecayChoice::Exponential { .. }));
        let el = proxy_of(lars_row, &b);
        assert!(matches!(el.optimizer, OptimizerChoice::Lars { .. }));
        assert!(matches!(el.decay, DecayChoice::Polynomial { .. }));
    }

    #[test]
    fn warmup_fraction_preserved() {
        let b = base();
        // LARS rows warm up 50/350 ≈ 14% of the budget → 2/16 epochs.
        let e = proxy_of(&TABLE2[4], &b);
        assert_eq!(e.warmup_epochs, 2);
        // RMSProp rows: 5/350 ≈ 1.4% → clamped to ≥ 1 epoch.
        let e2 = proxy_of(&TABLE2[0], &b);
        assert_eq!(e2.warmup_epochs, 1);
    }

    #[test]
    fn biggest_row_is_a_big_proxy_batch() {
        let b = base();
        // B5@65536 is 5.1% of ImageNet → ~105 of 2048 → 26/replica.
        let e = proxy_of(&TABLE2[10], &b);
        assert!(
            e.global_batch() >= 96 && e.global_batch() <= 116,
            "{}",
            e.global_batch()
        );
    }
}
