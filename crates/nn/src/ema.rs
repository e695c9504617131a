//! Exponential moving average of model weights.
//!
//! The EfficientNet reference evaluates an EMA of the training weights
//! (decay 0.9999); peak top-1 numbers in the paper are EMA accuracies. The
//! averager is keyed positionally to the model's `visit_params` order, with
//! name checks to catch wiring mistakes. Its shadow is its own copy of
//! the weights, never a share of them.

use crate::layer::Layer;
use crate::param::Weight;
use ets_tensor::Tensor;

/// Weight averager with TF-style decay warmup.
///
/// `Clone` gives a deep, bit-exact copy (shadow tensors included) — the
/// trainer's preemption snapshots rely on it.
#[derive(Clone)]
pub struct Ema {
    decay: f32,
    shadow: Vec<(String, Tensor)>,
    updates: u64,
}

impl Ema {
    /// Captures the initial shadow copy from `model`.
    pub fn new(model: &mut dyn Layer, decay: f32) -> Self {
        assert!((0.0..1.0).contains(&decay), "decay must be in [0,1)");
        let mut shadow = Vec::new();
        model.visit_params(&mut |p| shadow.push((p.name.clone(), p.value.read().clone())));
        Ema {
            decay,
            shadow,
            updates: 0,
        }
    }

    /// Effective decay after `updates` steps: `min(decay, (1+t)/(10+t))`,
    /// TF's warmup that keeps early averages from being dominated by the
    /// random init.
    pub fn effective_decay(&self) -> f32 {
        let t = self.updates as f32;
        self.decay.min((1.0 + t) / (10.0 + t))
    }

    /// Folds the current weights into the shadow copy.
    pub fn update(&mut self, model: &mut dyn Layer) {
        let d = self.effective_decay();
        let mut i = 0;
        model.visit_params(&mut |p| {
            let (name, shadow) = &mut self.shadow[i];
            debug_assert_eq!(name, &p.name, "EMA param order changed");
            // shadow = d·shadow + (1−d)·value
            shadow.scale(d);
            shadow.axpy(1.0 - d, &p.value.read());
            i += 1;
        });
        assert_eq!(i, self.shadow.len(), "model params changed under EMA");
        self.updates += 1;
    }

    /// Puts a copy of the shadow weights into the model, returning the
    /// model's own weight handles so the caller can restore them after
    /// evaluation. Only this model's handles change: a replica sharing
    /// its weights reads them as they were.
    pub fn swap_in(&self, model: &mut dyn Layer) -> Vec<Weight> {
        let mut saved = Vec::with_capacity(self.shadow.len());
        let mut i = 0;
        model.visit_params(&mut |p| {
            let copy = Weight::new(self.shadow[i].1.clone());
            saved.push(std::mem::replace(&mut p.value, copy));
            i += 1;
        });
        saved
    }

    /// Restores the weight handles taken by [`Ema::swap_in`].
    pub fn restore(&self, model: &mut dyn Layer, saved: Vec<Weight>) {
        let mut it = saved.into_iter();
        model.visit_params(&mut |p| {
            p.value = it.next().expect("saved weights exhausted");
        });
    }

    /// Number of updates applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Exports the averager's full state, bit-exactly — the durable
    /// checkpoint store persists this alongside weights and optimizer
    /// state so an elastic restart resumes the same average.
    pub fn export_state(&self) -> EmaState {
        EmaState {
            decay_bits: self.decay.to_bits(),
            updates: self.updates,
            shadow: self
                .shadow
                .iter()
                .map(|(name, t)| {
                    (
                        name.clone(),
                        t.shape().dims().to_vec(),
                        t.data().iter().map(|v| v.to_bits()).collect(),
                    )
                })
                .collect(),
        }
    }

    /// Imports state exported by [`Ema::export_state`] into an averager
    /// freshly constructed over a structurally-identical model. Panics
    /// with a descriptive message on any name/shape mismatch — a silent
    /// partial import is exactly the failure mode the durable store is
    /// built to prevent.
    pub fn import_state(&mut self, state: &EmaState) {
        assert_eq!(
            state.shadow.len(),
            self.shadow.len(),
            "EMA state has {} shadow tensors, model has {}",
            state.shadow.len(),
            self.shadow.len()
        );
        self.decay = f32::from_bits(state.decay_bits);
        self.updates = state.updates;
        for ((name, t), (sname, sshape, sbits)) in self.shadow.iter_mut().zip(&state.shadow) {
            assert_eq!(name, sname, "EMA shadow name mismatch");
            assert_eq!(t.shape().dims(), &sshape[..], "EMA shadow shape mismatch");
            for (dst, &bits) in t.data_mut().iter_mut().zip(sbits) {
                *dst = f32::from_bits(bits);
            }
        }
    }
}

/// Bit-exact serialized form of an [`Ema`]: decay (f32 bit pattern),
/// update counter, and the named, shaped shadow tensors as `u32` bit
/// patterns.
#[derive(Clone, Debug, PartialEq)]
pub struct EmaState {
    pub decay_bits: u32,
    pub updates: u64,
    pub shadow: Vec<(String, Vec<usize>, Vec<u32>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Mode, Sequential};
    use crate::linear::Linear;
    use ets_tensor::Rng;

    fn tiny_model() -> Sequential {
        let mut rng = Rng::new(1);
        Sequential::new("m").push(Linear::new("fc", 2, 2, true, &mut rng))
    }

    #[test]
    fn warmup_decay_grows() {
        let mut m = tiny_model();
        let ema = Ema::new(&mut m, 0.9999);
        assert!((ema.effective_decay() - 0.1).abs() < 1e-6); // (1+0)/(10+0)
    }

    #[test]
    fn converges_to_constant_weights() {
        let mut m = tiny_model();
        let mut ema = Ema::new(&mut m, 0.5);
        // Hold weights constant; shadow must converge to them.
        for _ in 0..50 {
            ema.update(&mut m);
        }
        let mut max_diff = 0.0f32;
        let mut i = 0;
        m.visit_params(&mut |p| {
            max_diff = max_diff.max(p.value.read().max_abs_diff(&ema.shadow[i].1));
            i += 1;
        });
        assert!(max_diff < 1e-5, "shadow should converge, diff {max_diff}");
    }

    #[test]
    fn export_import_round_trips_bit_exactly() {
        let mut m = tiny_model();
        let mut ema = Ema::new(&mut m, 0.75);
        m.visit_params(&mut |p| {
            p.value.write().map_inplace(|v| v * 1.5 + 0.25);
        });
        ema.update(&mut m);
        ema.update(&mut m);
        let state = ema.export_state();

        let mut m2 = tiny_model();
        let mut ema2 = Ema::new(&mut m2, 0.75);
        ema2.import_state(&state);
        assert_eq!(ema2.updates(), ema.updates());
        assert_eq!(ema2.export_state(), state, "round trip must be bit-exact");
    }

    #[test]
    fn swap_and_restore_round_trip() {
        let mut m = tiny_model();
        let mut ema = Ema::new(&mut m, 0.5);
        // Perturb weights so shadow differs.
        m.visit_params(&mut |p| {
            p.value.write().map_inplace(|v| v + 1.0);
        });
        ema.update(&mut m);
        let before = crate::layer::snapshot_params(&mut m);
        let mut peer = Vec::new();
        m.visit_params(&mut |p| peer.push(p.value.share()));
        let saved = ema.swap_in(&mut m);
        let during = crate::layer::snapshot_params(&mut m);
        // A holder of a share still reads the trained weights.
        for (w, b) in peer.iter().zip(&before) {
            assert_eq!(&*w.read(), b);
        }
        // Shadow differs from live weights.
        assert!(before
            .iter()
            .zip(&during)
            .any(|(a, b)| a.max_abs_diff(b) > 1e-6));
        ema.restore(&mut m, saved);
        let mut i = 0;
        m.visit_params(&mut |p| {
            assert!(
                p.value.is_shared_with(&peer[i]),
                "restore puts the handles back"
            );
            i += 1;
        });
        let after = crate::layer::snapshot_params(&mut m);
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
        let _ = Mode::Train;
    }
}
