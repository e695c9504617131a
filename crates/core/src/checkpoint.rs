//! Checkpointing: capture model weights (and BN running statistics) so
//! runs can pause/resume and evaluators can restore training snapshots —
//! the artifact the §3.3 evaluator pipeline ships between TPUs.
//!
//! A [`Checkpoint`] is the in-memory form: named, shaped f32 tensors held
//! as `u32` bit patterns, so save/restore round-trips are bitwise and a
//! resumed run stays on the original's trajectory. On disk it travels
//! inside a [`crate::ckpt_store::DurableSnapshot`], the one checksummed
//! format.

use ets_collective::Collective;
use ets_efficientnet::EfficientNet;
use ets_nn::Layer;

/// Serialized tensor: shape + exact f32 bit patterns.
#[derive(Clone, Debug)]
pub struct TensorRecord {
    pub name: String,
    pub shape: Vec<usize>,
    pub bits: Vec<u32>,
}

impl TensorRecord {
    fn from_values(name: &str, shape: &[usize], values: &[f32]) -> Self {
        TensorRecord {
            name: name.to_string(),
            shape: shape.to_vec(),
            bits: values.iter().map(|v| v.to_bits()).collect(),
        }
    }

    fn values(&self) -> Vec<f32> {
        self.bits.iter().map(|&b| f32::from_bits(b)).collect()
    }
}

/// A full model snapshot.
#[derive(Clone)]
pub struct Checkpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Global step at which the snapshot was taken.
    pub step: u64,
    pub params: Vec<TensorRecord>,
    /// BN running means/variances, in `visit_bns` order.
    pub bn_running: Vec<(Vec<u32>, Vec<u32>)>,
}

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Captures a checkpoint from a model.
pub fn save(model: &mut EfficientNet, step: u64) -> Checkpoint {
    let mut params = Vec::new();
    model.visit_params(&mut |p| {
        params.push(TensorRecord::from_values(
            &p.name,
            p.value.shape().dims(),
            p.value.data(),
        ));
    });
    let mut bn_running = Vec::new();
    model.visit_bns(&mut |bn| {
        bn_running.push((
            bn.running_mean.iter().map(|v| v.to_bits()).collect(),
            bn.running_var.iter().map(|v| v.to_bits()).collect(),
        ));
    });
    Checkpoint {
        version: CHECKPOINT_VERSION,
        step,
        params,
        bn_running,
    }
}

/// Restores a checkpoint into a structurally-identical model. Panics with
/// a descriptive message on any mismatch (name, shape, count).
pub fn restore(model: &mut EfficientNet, ckpt: &Checkpoint) {
    assert_eq!(
        ckpt.version, CHECKPOINT_VERSION,
        "unsupported checkpoint version {}",
        ckpt.version
    );
    let mut i = 0;
    model.visit_params(&mut |p| {
        let rec = ckpt
            .params
            .get(i)
            .unwrap_or_else(|| panic!("checkpoint too short at param {i} ({})", p.name));
        assert_eq!(rec.name, p.name, "param order/name mismatch at {i}");
        assert_eq!(
            rec.shape,
            p.value.shape().dims(),
            "shape mismatch for {}",
            p.name
        );
        p.value.data_mut().copy_from_slice(&rec.values());
        i += 1;
    });
    assert_eq!(i, ckpt.params.len(), "checkpoint has extra params");
    let mut j = 0;
    model.visit_bns(&mut |bn| {
        let (m, v) = &ckpt.bn_running[j];
        assert_eq!(m.len(), bn.running_mean.len(), "BN {j} channel mismatch");
        for (dst, &bits) in bn.running_mean.iter_mut().zip(m) {
            *dst = f32::from_bits(bits);
        }
        for (dst, &bits) in bn.running_var.iter_mut().zip(v) {
            *dst = f32::from_bits(bits);
        }
        j += 1;
    });
    assert_eq!(j, ckpt.bn_running.len(), "checkpoint has extra BN records");
}

/// Broadcasts `root`'s full model state — parameters *and* BN running
/// statistics — to every member of `comm`, bit-exactly (f32 payloads are
/// copied, never re-reduced). This is the in-memory analogue of shipping
/// a checkpoint between hosts: multi-host jobs synchronize initialization
/// (and resumed state) by electing a root and broadcasting its snapshot.
///
/// SPMD: every member of the group must call this with a structurally
/// identical model.
pub fn broadcast(model: &mut EfficientNet, comm: &dyn Collective, root: usize) {
    if comm.size() == 1 {
        return;
    }
    let mut flat: Vec<f32> = Vec::new();
    model.visit_params(&mut |p| flat.extend_from_slice(p.value.data()));
    model.visit_bns(&mut |bn| {
        flat.extend_from_slice(&bn.running_mean);
        flat.extend_from_slice(&bn.running_var);
    });
    comm.broadcast(&mut flat, root);
    let mut off = 0usize;
    model.visit_params(&mut |p| {
        let n = p.value.numel();
        p.value.data_mut().copy_from_slice(&flat[off..off + n]);
        off += n;
    });
    model.visit_bns(&mut |bn| {
        let c = bn.running_mean.len();
        bn.running_mean.copy_from_slice(&flat[off..off + c]);
        off += c;
        bn.running_var.copy_from_slice(&flat[off..off + c]);
        off += c;
    });
    assert_eq!(off, flat.len(), "model structure mismatch after broadcast");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::checksum_f32;
    use ets_efficientnet::ModelConfig;
    use ets_nn::{Mode, Precision};
    use ets_tensor::{Rng, Tensor};

    fn model(seed: u64) -> EfficientNet {
        let mut rng = Rng::new(seed);
        EfficientNet::new(ModelConfig::tiny(16, 4), Precision::F32, &mut rng)
    }

    fn weights_checksum(m: &mut EfficientNet) -> u64 {
        let mut w = Vec::new();
        m.visit_params(&mut |p| w.extend_from_slice(p.value.data()));
        checksum_f32(w.into_iter())
    }

    #[test]
    fn round_trip_is_bitwise() {
        let mut a = model(1);
        // Perturb running stats so they're non-trivial.
        let mut rng = Rng::new(9);
        let mut x = Tensor::zeros([2, 3, 16, 16]);
        rng.fill_normal(x.data_mut(), 0.0, 1.0);
        let _ = a.forward(&x, Mode::Train, &mut rng);

        let ckpt = save(&mut a, 123);
        let mut b = model(2); // different init
        assert_ne!(weights_checksum(&mut a), weights_checksum(&mut b));
        restore(&mut b, &ckpt);
        assert_eq!(weights_checksum(&mut a), weights_checksum(&mut b));
        // BN running stats restored too.
        let mut ra = Vec::new();
        a.visit_bns(&mut |bn| ra.extend_from_slice(&bn.running_mean));
        let mut rb = Vec::new();
        b.visit_bns(&mut |bn| rb.extend_from_slice(&bn.running_mean));
        assert_eq!(ra, rb);
        assert_eq!(ckpt.step, 123);
    }

    #[test]
    #[should_panic(expected = "unsupported checkpoint version")]
    fn version_mismatch_rejected() {
        let mut m = model(5);
        let mut ckpt = save(&mut m, 0);
        ckpt.version = 999;
        restore(&mut m, &ckpt);
    }

    #[test]
    fn broadcast_equalizes_params_and_running_stats() {
        use ets_collective::{create_collective, Backend};
        for backend in [Backend::Tree, Backend::Ring] {
            let world = create_collective(backend, 3);
            let checksums: Vec<(u64, Vec<f32>)> = world
                .into_iter()
                .map(|c| {
                    std::thread::spawn(move || {
                        // Independent inits, perturbed running stats.
                        let mut m = model(10 + c.rank() as u64);
                        let mut rng = Rng::new(20 + c.rank() as u64);
                        let mut x = Tensor::zeros([2, 3, 16, 16]);
                        rng.fill_normal(x.data_mut(), 0.0, 1.0);
                        let _ = m.forward(&x, Mode::Train, &mut rng);
                        broadcast(&mut m, c.as_ref(), 1);
                        let mut stats = Vec::new();
                        m.visit_bns(&mut |bn| {
                            stats.extend_from_slice(&bn.running_mean);
                            stats.extend_from_slice(&bn.running_var);
                        });
                        (weights_checksum(&mut m), stats)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect();
            for (sum, stats) in &checksums[1..] {
                assert_eq!(*sum, checksums[0].0, "{backend}: weights diverged");
                assert_eq!(stats, &checksums[0].1, "{backend}: BN stats diverged");
            }
        }
    }

    #[test]
    fn restored_model_produces_identical_outputs() {
        let mut a = model(6);
        let ckpt = save(&mut a, 0);
        let mut b = model(7);
        restore(&mut b, &ckpt);
        let mut rng = Rng::new(0);
        let mut x = Tensor::zeros([1, 3, 16, 16]);
        rng.fill_normal(x.data_mut(), 0.0, 1.0);
        let mut r1 = Rng::new(1);
        let mut r2 = Rng::new(1);
        let ya = a.forward(&x, Mode::Eval, &mut r1);
        let yb = b.forward(&x, Mode::Eval, &mut r2);
        assert_eq!(ya.max_abs_diff(&yb), 0.0);
    }
}
