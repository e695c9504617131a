//! Batch normalization with pluggable cross-replica statistics (§3.4).
//!
//! At pod scale the per-core batch is tiny (e.g. 32), so normalizing with
//! purely local statistics hurts accuracy, while normalizing over the full
//! global batch costs an all-reduce per BN layer and over-normalizes.
//! Ying et al.'s scheme — adopted by the paper — computes moments over a
//! *subset* of replicas (the "BN group"). This layer abstracts where the
//! moments come from behind [`StatSync`]: the default [`LocalStats`] is a
//! no-op (single-replica semantics); the distributed trainer injects a
//! group all-reduce implementation from `ets-collective`.
//!
//! The backward pass reduces its two per-channel sums over the same group,
//! so gradients are exact for the synced forward.

use crate::layer::{Layer, Mode};
use crate::param::{Param, ParamKind};
use ets_tensor::ops::reduce::{bn_apply, bn_backward_apply, bn_backward_reduce, bn_moments, Act};
use ets_tensor::{Rng, Tensor};
use std::sync::Arc;

/// Source of batch-norm statistics: combines per-replica partial sums over
/// the replica group this layer normalizes across.
pub trait StatSync: Send + Sync {
    /// Reduces two per-channel partial-sum vectors (in place) across the BN
    /// group, and returns the *total* element count per channel given the
    /// local count. Called once in forward (sum, sum_sq) and once in
    /// backward (sum_g, sum_g_xhat).
    fn reduce_pair(&self, a: &mut [f32], b: &mut [f32], local_count: f32) -> f32;

    /// Number of replicas participating (1 for local).
    fn group_size(&self) -> usize;
}

/// Single-replica statistics: the identity reduction.
pub struct LocalStats;

impl StatSync for LocalStats {
    fn reduce_pair(&self, _a: &mut [f32], _b: &mut [f32], local_count: f32) -> f32 {
        local_count
    }
    fn group_size(&self) -> usize {
        1
    }
}

/// 2-D batch normalization over `(N, H, W)` per channel, optionally
/// followed by swish in the same pass ([`BatchNorm2d::with_swish`]).
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    /// Running mean/variance used in [`Mode::Eval`]; updated with the
    /// (group-synced) batch moments using TF momentum semantics.
    pub running_mean: Vec<f32>,
    pub running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    sync: Arc<dyn StatSync>,
    act: Act,
    // Per-channel workspace, sized once: the pair of sums each direction
    // hands to `sync` (and the eval scale), the batch mean, and the
    // `1/σ` the backward reads again.
    pair: (Vec<f32>, Vec<f32>),
    mean: Vec<f32>,
    inv_std: Vec<f32>,
    // Backward cache: x̂ and the group's element count per channel.
    cache: Option<(Tensor, f32)>,
    label: String,
    channels: usize,
}

/// TF EfficientNet defaults: momentum 0.99, epsilon 1e-3.
pub const BN_MOMENTUM: f32 = 0.99;
pub const BN_EPS: f32 = 1e-3;

impl BatchNorm2d {
    /// Creates a batch-norm layer with γ=1, β=0 and local statistics.
    pub fn new(label: impl Into<String>, channels: usize) -> Self {
        Self::with_sync(label, channels, Arc::new(LocalStats))
    }

    /// Creates a batch-norm layer with an injected statistics reducer.
    pub fn with_sync(label: impl Into<String>, channels: usize, sync: Arc<dyn StatSync>) -> Self {
        let label = label.into();
        BatchNorm2d {
            gamma: Param::new(
                format!("{label}.gamma"),
                Tensor::ones([channels]),
                ParamKind::BnGamma,
            ),
            beta: Param::new(
                format!("{label}.beta"),
                Tensor::zeros([channels]),
                ParamKind::BnBeta,
            ),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: BN_MOMENTUM,
            eps: BN_EPS,
            sync,
            act: Act::Identity,
            pair: (vec![0.0; channels], vec![0.0; channels]),
            mean: vec![0.0; channels],
            inv_std: vec![0.0; channels],
            cache: None,
            label,
            channels,
        }
    }

    /// Makes the layer compute `swish(γ·x̂ + β)`: the activation runs in
    /// the pass that normalizes, and the backward recomputes it from
    /// `x̂`, so a BN → swish site keeps one activation instead of two.
    /// Bitwise equal, forward and backward, to this layer without it
    /// followed by [`crate::Swish`].
    pub fn with_swish(mut self) -> Self {
        self.act = Act::Swish;
        self
    }

    /// Replaces the statistics reducer (used when wiring distributed BN).
    pub fn set_sync(&mut self, sync: Arc<dyn StatSync>) {
        self.sync = sync;
    }

    /// Overrides momentum (tests use lower values to converge faster).
    pub fn set_momentum(&mut self, m: f32) {
        self.momentum = m;
    }

    /// The number of replicas whose samples this layer normalizes over.
    pub fn bn_group_size(&self) -> usize {
        self.sync.group_size()
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, mode: Mode, _rng: &mut Rng) -> Tensor {
        assert_eq!(x.shape().c(), self.channels, "BatchNorm2d channel mismatch");
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        let mut y = Tensor::zeros(x.shape().clone());
        match mode {
            Mode::Train => {
                let local_count = (x.shape().n() * x.shape().h() * x.shape().w()) as f32;
                let (sums, sum_sqs) = (&mut self.pair.0, &mut self.pair.1);
                bn_moments(x, sums, sum_sqs);
                let count = self.sync.reduce_pair(sums, sum_sqs, local_count);
                for ch in 0..self.channels {
                    let mean = sums[ch] / count;
                    let var = (sum_sqs[ch] / count - mean * mean).max(0.0);
                    self.mean[ch] = mean;
                    self.inv_std[ch] = 1.0 / (var + self.eps).sqrt();
                    // Running stats (TF semantics: new = m·old + (1−m)·batch).
                    self.running_mean[ch] =
                        self.momentum * self.running_mean[ch] + (1.0 - self.momentum) * mean;
                    self.running_var[ch] =
                        self.momentum * self.running_var[ch] + (1.0 - self.momentum) * var;
                }
                let mut xhat = Tensor::zeros(x.shape().clone());
                let (mean, inv_std) = (&self.mean, &self.inv_std);
                bn_apply(
                    x,
                    mean,
                    inv_std,
                    gamma,
                    beta,
                    self.act,
                    Some(&mut xhat),
                    &mut y,
                );
                self.cache = Some((xhat, count));
            }
            Mode::Eval => {
                // act(scale·(x − μ) + β): the apply pass with the affine
                // scale folded into its `inv_std` and a γ of one.
                let (scale, ones) = (&mut self.pair.0, &mut self.pair.1);
                for ch in 0..self.channels {
                    scale[ch] = gamma[ch] / (self.running_var[ch] + self.eps).sqrt();
                }
                ones.fill(1.0);
                bn_apply(
                    x,
                    &self.running_mean,
                    scale,
                    ones,
                    beta,
                    self.act,
                    None,
                    &mut y,
                );
            }
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (xhat, count) = self
            .cache
            .take()
            .expect("BatchNorm2d: forward before backward");
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        let (sum_g, sum_g_xhat) = (&mut self.pair.0, &mut self.pair.1);
        let mut dx = Tensor::zeros(grad.shape().clone());
        bn_backward_reduce(
            grad, &xhat, gamma, beta, self.act, &mut dx, sum_g, sum_g_xhat,
        );
        // dγ/dβ use the *local* contributions only — the gradient all-reduce
        // later sums them across replicas, exactly once.
        for ch in 0..self.channels {
            self.gamma.grad.data_mut()[ch] += sum_g_xhat[ch];
            self.beta.grad.data_mut()[ch] += sum_g[ch];
        }
        // dx needs the group-wide means of g and g·x̂ (the BN group's
        // normalization set), so reduce the same pair across the group.
        let local_count = count / self.sync.group_size() as f32;
        let total = self.sync.reduce_pair(sum_g, sum_g_xhat, local_count);
        debug_assert!((total - count).abs() < 1.0, "count drift");
        bn_backward_apply(
            &mut dx,
            &xhat,
            gamma,
            &self.inv_std,
            sum_g,
            sum_g_xhat,
            count,
        );
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn cached_elems(&self) -> usize {
        self.cache.as_ref().map_or(0, |(xhat, _)| xhat.numel())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_tensor::ops::reduce::bn_moments;

    fn rand_x(seed: u64, shape: &[usize]) -> Tensor {
        let mut rng = Rng::new(seed);
        let mut t = Tensor::zeros(shape);
        rng.fill_normal(t.data_mut(), 3.0, 2.0);
        t
    }

    #[test]
    fn train_output_is_normalized() {
        let mut bn = BatchNorm2d::new("bn", 4);
        let mut rng = Rng::new(0);
        let x = rand_x(1, &[8, 4, 6, 6]);
        let y = bn.forward(&x, Mode::Train, &mut rng);
        let (mut sums, mut sum_sqs) = ([0.0; 4], [0.0; 4]);
        bn_moments(&y, &mut sums, &mut sum_sqs);
        let count = (8 * 6 * 6) as f32;
        for ch in 0..4 {
            let mean = sums[ch] / count;
            assert!(mean.abs() < 1e-4, "channel {ch} mean {mean}");
            // Variance ≈ 1 (eps slightly shrinks it).
            let v = sum_sqs[ch] / count;
            assert!((v - 1.0).abs() < 0.05, "channel {ch} var {v}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new("bn", 2);
        bn.set_momentum(0.0); // running = last batch stats
        let mut rng = Rng::new(0);
        let x = rand_x(2, &[16, 2, 4, 4]);
        let y_train = bn.forward(&x, Mode::Train, &mut rng);
        let _ = bn.backward(&Tensor::zeros(y_train.shape().dims()));
        let y_eval = bn.forward(&x, Mode::Eval, &mut rng);
        // With momentum 0 the running stats equal the batch stats, so eval
        // output matches train output closely (biased-vs-biased variance).
        assert!(y_train.max_abs_diff(&y_eval) < 1e-3);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = Rng::new(0);
        let x = rand_x(3, &[3, 2, 3, 3]);
        let mut g = Tensor::zeros(x.shape().dims());
        let mut grng = Rng::new(4);
        grng.fill_uniform(g.data_mut(), -1.0, 1.0);

        let mut bn = BatchNorm2d::new("bn", 2);
        // Nontrivial affine params.
        bn.gamma.value.data_mut().copy_from_slice(&[1.3, 0.7]);
        bn.beta.value.data_mut().copy_from_slice(&[0.2, -0.1]);

        let _y = bn.forward(&x, Mode::Train, &mut rng);
        let dx = bn.backward(&g);

        let loss = |x: &Tensor| -> f64 {
            let mut bn2 = BatchNorm2d::new("bn", 2);
            bn2.gamma.value.data_mut().copy_from_slice(&[1.3, 0.7]);
            bn2.beta.value.data_mut().copy_from_slice(&[0.2, -0.1]);
            let mut r = Rng::new(0);
            let y = bn2.forward(x, Mode::Train, &mut r);
            y.data()
                .iter()
                .zip(g.data())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum()
        };
        let eps = 1e-2f32;
        for &i in &[0usize, 7, 19, 35, x.numel() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((loss(&xp) - loss(&xm)) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - dx.data()[i]).abs() < 3e-2 * (1.0 + num.abs()),
                "dx[{i}] numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn gamma_beta_grads() {
        let mut rng = Rng::new(0);
        let x = rand_x(5, &[4, 3, 2, 2]);
        let mut bn = BatchNorm2d::new("bn", 3);
        let y = bn.forward(&x, Mode::Train, &mut rng);
        let g = Tensor::ones(y.shape().dims());
        let _ = bn.backward(&g);
        // dβ = Σg = count per channel.
        let count = (4 * 2 * 2) as f32;
        for ch in 0..3 {
            assert!((bn.beta.grad.data()[ch] - count).abs() < 1e-3);
        }
        // dγ = Σ g·x̂ ≈ Σ x̂ ≈ 0 for uniform upstream.
        for ch in 0..3 {
            assert!(bn.gamma.grad.data()[ch].abs() < 1e-2);
        }
    }

    /// A fake 2-replica sync that doubles sums (both replicas see identical
    /// data), verifying the sync plumbing changes moments & counts.
    struct FakePairSync;
    impl StatSync for FakePairSync {
        fn reduce_pair(&self, a: &mut [f32], b: &mut [f32], local_count: f32) -> f32 {
            a.iter_mut().for_each(|v| *v *= 2.0);
            b.iter_mut().for_each(|v| *v *= 2.0);
            local_count * 2.0
        }
        fn group_size(&self) -> usize {
            2
        }
    }

    /// Forward output, input gradient, dγ and dβ of `bn` (followed by
    /// `then`, if any) on seeded inputs, as bits.
    fn train_step_bits(mut bn: BatchNorm2d, mut then: Option<crate::Swish>) -> [Vec<u32>; 4] {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = Rng::new(0);
        let x = rand_x(11, &[3, 5, 6, 7]);
        let g = rand_x(12, &[3, 5, 6, 7]);
        bn.gamma.value = rand_x(13, &[5]);
        bn.beta.value = rand_x(14, &[5]);
        let mut y = bn.forward(&x, Mode::Train, &mut rng);
        if let Some(act) = &mut then {
            y = act.forward(&y, Mode::Train, &mut rng);
        }
        let g = then.as_mut().map_or(g.clone(), |act| act.backward(&g));
        let dx = bn.backward(&g);
        [
            bits(y.data()),
            bits(dx.data()),
            bits(bn.gamma.grad.data()),
            bits(bn.beta.grad.data()),
        ]
    }

    #[test]
    fn fused_swish_equals_batchnorm_then_swish_bitwise() {
        let syncs: [fn() -> Arc<dyn StatSync>; 2] =
            [|| Arc::new(LocalStats), || Arc::new(FakePairSync)];
        for sync in syncs {
            let fused = BatchNorm2d::with_sync("f", 5, sync()).with_swish();
            let plain = BatchNorm2d::with_sync("p", 5, sync());
            assert_eq!(
                train_step_bits(fused, None),
                train_step_bits(plain, Some(crate::Swish::new()))
            );
        }
    }

    #[test]
    fn fused_eval_equals_batchnorm_then_swish_bitwise() {
        let mut rng = Rng::new(0);
        let x = rand_x(15, &[2, 3, 4, 4]);
        let mut fused = BatchNorm2d::new("f", 3).with_swish();
        let mut plain = BatchNorm2d::new("p", 3);
        for bn in [&mut fused, &mut plain] {
            bn.running_mean = vec![0.3, -0.2, 1.1];
            bn.running_var = vec![0.5, 2.0, 1.3];
        }
        let want = crate::Swish::new().forward(
            &plain.forward(&x, Mode::Eval, &mut rng),
            Mode::Eval,
            &mut rng,
        );
        assert!(fused.forward(&x, Mode::Eval, &mut rng) == want);
    }

    #[test]
    fn synced_stats_equal_local_for_identical_replicas() {
        let x = rand_x(6, &[4, 2, 3, 3]);
        let mut rng = Rng::new(0);
        let mut local = BatchNorm2d::new("l", 2);
        let mut synced = BatchNorm2d::with_sync("s", 2, Arc::new(FakePairSync));
        let yl = local.forward(&x, Mode::Train, &mut rng);
        let ys = synced.forward(&x, Mode::Train, &mut rng);
        // Two identical replicas have the same moments as one.
        assert!(yl.max_abs_diff(&ys) < 1e-5);
        // And the backward pass agrees too.
        let g = rand_x(7, &[4, 2, 3, 3]);
        let dl = local.backward(&g);
        let ds = synced.backward(&g);
        assert!(dl.max_abs_diff(&ds) < 1e-5);
    }
}
