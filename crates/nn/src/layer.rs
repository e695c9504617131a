//! The layer abstraction: stateful modules with explicit forward/backward.
//!
//! Instead of a tape autograd, every layer caches whatever activations its
//! backward pass needs during `forward` and consumes them in `backward`.
//! This keeps memory explicit (one cached activation set per layer) and the
//! call graph obvious — the idiom large training systems use when they hand
//! -tune memory.
//!
//! Contract: `backward` must be called at most once per `forward`, with the
//! upstream gradient matching the forward output's shape; parameter
//! gradients *accumulate* into `Param::grad` (callers zero them between
//! steps).

use crate::param::{Param, Weight};
use ets_tensor::{Rng, Tensor};

/// Whether the network is training (batch stats, dropout active) or
/// evaluating (running stats, no dropout).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Train,
    Eval,
}

/// A differentiable module.
pub trait Layer: Send {
    /// Computes the output, caching anything backward will need.
    /// `rng` drives stochastic layers (dropout, stochastic depth); it is
    /// ignored by deterministic layers.
    fn forward(&mut self, x: &Tensor, mode: Mode, rng: &mut Rng) -> Tensor;

    /// Propagates `grad` (d loss / d output) to d loss / d input, adding
    /// parameter gradients into `Param::grad`.
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// Visits every trainable parameter, in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Human-readable layer name for diagnostics.
    fn name(&self) -> String {
        "layer".into()
    }

    /// `f32` elements this layer (and its sub-layers) holds right now
    /// for a pending `backward`: the activation memory a training step
    /// keeps alive between the two passes. Zero before `forward` and
    /// after `backward`.
    fn cached_elems(&self) -> usize {
        0
    }
}

/// Backward with gradient-readiness hooks, enabling communication to
/// overlap with the rest of the backward pass.
///
/// Contract: `backward_hooked(grad, ready)` performs **bitwise the same
/// computation** as [`Layer::backward`] (same gradients, same return
/// value), additionally calling `ready` as gradients finalize. Because a
/// model's backward pass visits layers in reverse network order while
/// `visit_params` walks forward order, gradients finalize from the *tail*
/// of the parameter list: each `ready(seg)` call hands a sub-layer whose
/// parameters form the next contiguous suffix segment of the
/// `visit_params` order (strictly descending, no gaps), with all of that
/// segment's gradients fully accumulated. Every parameter is covered by
/// exactly one `ready` call by the time `backward_hooked` returns.
///
/// Each finished sub-layer is lent for `'s`, the whole borrow of the
/// model, so the consumer may keep it past the `ready` call (on another
/// thread, say) while backward goes on with the layers before it: the
/// borrows are disjoint, and backward never touches a layer again after
/// announcing it.
///
/// Consumers (the bucketized gradient exchange) use the hook to reduce
/// finished gradient buckets in place while earlier layers are still
/// differentiating.
pub trait HookedBackward: Layer {
    /// Runs backward, announcing finalized trailing parameter segments
    /// through `ready`.
    fn backward_hooked<'s>(
        &'s mut self,
        grad: &Tensor,
        ready: &mut dyn FnMut(&'s mut dyn Layer),
    ) -> Tensor;
}

/// A sequential container: layers applied in order.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    label: String,
}

impl Sequential {
    /// Creates an empty container with a diagnostic label.
    pub fn new(label: impl Into<String>) -> Self {
        Sequential {
            layers: Vec::new(),
            label: label.into(),
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the container is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, mode: Mode, rng: &mut Rng) -> Tensor {
        let mut cur = x.clone();
        for l in &mut self.layers {
            cur = l.forward(&cur, mode, rng);
        }
        cur
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_hooked(grad, &mut |_| {})
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn cached_elems(&self) -> usize {
        self.layers.iter().map(|l| l.cached_elems()).sum()
    }
}

impl HookedBackward for Sequential {
    fn backward_hooked<'s>(
        &'s mut self,
        grad: &Tensor,
        ready: &mut dyn FnMut(&'s mut dyn Layer),
    ) -> Tensor {
        let mut cur = grad.clone();
        for l in self.layers.iter_mut().rev() {
            cur = l.backward(&cur);
            // Reverse traversal of forward visit order: each finished
            // layer is the next suffix segment of the parameter list.
            ready(l.as_mut());
        }
        cur
    }
}

/// Collects copies of all parameter values (for EMA / checkpoint tests).
pub fn snapshot_params(layer: &mut dyn Layer) -> Vec<Tensor> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(p.value.read().clone()));
    out
}

/// A replica of `layer`: a clone with its own gradients, caches and
/// statistics whose parameters hold `layer`'s weight buffers
/// ([`Weight::share`]) instead of copies of them. A data-parallel trainer
/// builds one model and a replica of it for every further worker.
pub fn replicate<L: Layer + Clone>(layer: &mut L) -> L {
    // A clone deep-copies every weight, so the weights step out first
    // and the clone copies empty placeholders.
    let mut weights = Vec::new();
    layer.visit_params(&mut |p| {
        weights.push(std::mem::replace(
            &mut p.value,
            Weight::new(Tensor::zeros([0])),
        ))
    });
    let mut replica = layer.clone();
    let mut shared = weights.iter();
    replica.visit_params(&mut |p| p.value = shared.next().expect("same parameters").share());
    let mut own = weights.into_iter();
    layer.visit_params(&mut |p| p.value = own.next().expect("same parameters"));
    replica
}

/// Zeroes every parameter gradient under `layer`.
pub fn zero_grads(layer: &mut dyn Layer) {
    layer.visit_params(&mut |p| p.zero_grad());
}

/// Counts trainable scalars under `layer`.
pub fn param_count(layer: &mut dyn Layer) -> usize {
    let mut n = 0;
    layer.visit_params(&mut |p| n += p.numel());
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamKind;

    /// y = x * k, dk accumulates sum(x ⊙ g).
    #[derive(Clone)]
    struct ScaleLayer {
        k: Param,
        cache: Option<Tensor>,
    }

    impl ScaleLayer {
        fn new(k: f32) -> Self {
            ScaleLayer {
                k: Param::new("k", Tensor::scalar(k), ParamKind::Weight),
                cache: None,
            }
        }
    }

    impl Layer for ScaleLayer {
        fn forward(&mut self, x: &Tensor, _m: Mode, _r: &mut Rng) -> Tensor {
            self.cache = Some(x.clone());
            let k = self.k.value.data()[0];
            x.map(|v| v * k)
        }
        fn backward(&mut self, grad: &Tensor) -> Tensor {
            let x = self.cache.take().expect("forward before backward");
            let dk: f32 = x.data().iter().zip(grad.data()).map(|(&a, &b)| a * b).sum();
            self.k.grad.data_mut()[0] += dk;
            let k = self.k.value.data()[0];
            grad.map(|v| v * k)
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.k);
        }
    }

    #[test]
    fn sequential_composes_forward_and_backward() {
        let mut seq = Sequential::new("test")
            .push(ScaleLayer::new(2.0))
            .push(ScaleLayer::new(3.0));
        let mut rng = Rng::new(0);
        let x = Tensor::from_vec([2], vec![1.0, -1.0]);
        let y = seq.forward(&x, Mode::Train, &mut rng);
        assert_eq!(y.data(), &[6.0, -6.0]);
        let dx = seq.backward(&Tensor::ones([2]));
        assert_eq!(dx.data(), &[6.0, 6.0]);
        assert_eq!(param_count(&mut seq), 2);
        // Gradients accumulated: d/dk2 = sum(2x) = 0, d/dk1 = sum(3x) = 0 here;
        // use a nonsymmetric upstream to check nonzero accumulation.
        zero_grads(&mut seq);
        let _ = seq.forward(&x, Mode::Train, &mut rng);
        let _ = seq.backward(&Tensor::from_vec([2], vec![1.0, 0.0]));
        let mut grads = Vec::new();
        seq.visit_params(&mut |p| grads.push(p.grad.data()[0]));
        assert_eq!(grads, vec![3.0, 2.0]); // k1 sees 3·x₀·g₀, k2 sees 2·x₀·g₀
    }

    #[test]
    fn hooked_backward_matches_backward_and_reports_suffix_segments() {
        let mut rng = Rng::new(0);
        let x = Tensor::from_vec([2], vec![1.5, -0.5]);
        let g = Tensor::from_vec([2], vec![1.0, 2.0]);

        let mut plain = Sequential::new("plain")
            .push(ScaleLayer::new(2.0))
            .push(ScaleLayer::new(3.0));
        let _ = plain.forward(&x, Mode::Train, &mut rng);
        let dx_plain = plain.backward(&g);
        let mut grads_plain = Vec::new();
        plain.visit_params(&mut |p| grads_plain.push(p.grad.data()[0].to_bits()));

        let mut hooked = Sequential::new("hooked")
            .push(ScaleLayer::new(2.0))
            .push(ScaleLayer::new(3.0));
        let _ = hooked.forward(&x, Mode::Train, &mut rng);
        let mut seen = Vec::new();
        let dx_hooked = hooked.backward_hooked(&g, &mut |seg| {
            let mut vals = Vec::new();
            seg.visit_params(&mut |p| vals.push(p.value.data()[0]));
            seen.push(vals);
        });
        let mut grads_hooked = Vec::new();
        hooked.visit_params(&mut |p| grads_hooked.push(p.grad.data()[0].to_bits()));

        // Bitwise-identical computation...
        assert_eq!(
            dx_plain
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            dx_hooked
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        assert_eq!(grads_plain, grads_hooked);
        // ...with suffix segments announced in strictly descending order.
        assert_eq!(seen, vec![vec![3.0], vec![2.0]]);
    }

    #[derive(Clone)]
    struct Pair(ScaleLayer, ScaleLayer);

    impl Layer for Pair {
        fn forward(&mut self, x: &Tensor, _m: Mode, _r: &mut Rng) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, grad: &Tensor) -> Tensor {
            grad.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.0.k);
            f(&mut self.1.k);
        }
    }

    #[test]
    fn a_replica_shares_the_weights_and_owns_the_rest() {
        let mut model = Pair(ScaleLayer::new(2.0), ScaleLayer::new(3.0));
        model.0.k.grad.fill(7.0);
        let mut replica = replicate(&mut model);
        assert!(replica.0.k.value.is_shared_with(&model.0.k.value));
        assert!(replica.1.k.value.is_shared_with(&model.1.k.value));
        assert_eq!(snapshot_params(&mut model), snapshot_params(&mut replica));
        // A write through one handle is what the other reads; the
        // gradients stay apart.
        replica.1.k.value.write().fill(5.0);
        assert_eq!(model.1.k.value.data()[0], 5.0);
        replica.0.k.grad.fill(1.0);
        assert_eq!(model.0.k.grad.data()[0], 7.0);
    }

    #[test]
    fn snapshot_orders_stable() {
        let mut seq = Sequential::new("t")
            .push(ScaleLayer::new(1.0))
            .push(ScaleLayer::new(5.0));
        let snap = snapshot_params(&mut seq);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[1].data()[0], 5.0);
    }
}
