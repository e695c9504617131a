//! Optimizer abstraction.
//!
//! Optimizers walk a model's parameters (via `Layer::visit_params`, which
//! guarantees a stable order) and keep their per-parameter state in
//! positionally-keyed vectors, initialized lazily on the first step. All
//! replicas of a data-parallel job run the *same* optimizer step on the
//! *same* all-reduced gradients, so their states stay bitwise identical —
//! the invariant the integration tests assert.
//!
//! For checkpoint-based preemption recovery the trait also exposes
//! [`Optimizer::export_state`] / [`Optimizer::import_state`]: the full
//! slot state round-trips **bit-exactly** through [`OptimizerState`] (f32
//! words are stored as raw `u32` bits), so a resumed run replays the
//! identical trajectory the uninterrupted run would have taken.

use ets_nn::Layer;
use ets_tensor::Tensor;

/// A portable, bit-exact snapshot of an optimizer's mutable state.
///
/// Layout is optimizer-specific but always positional:
///
/// - `scalars` — integer bookkeeping (e.g. Adam/LAMB's step counter `t`).
/// - `banks` — flat f32 buffers as raw `u32` bit patterns, one bank per
///   state slot, in the optimizer's documented slot order. Empty when the
///   optimizer is stateless or has not yet taken a step.
///
/// Shapes are *not* stored: [`Optimizer::import_state`] recovers them from
/// the model it is handed (state is positionally keyed to `visit_params`
/// order, exactly like the optimizer's live slots).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OptimizerState {
    /// Integer bookkeeping words (optimizer-specific meaning).
    pub scalars: Vec<u64>,
    /// Per-slot flat f32 data as raw bits (bit-exact round trip).
    pub banks: Vec<Vec<u32>>,
}

impl OptimizerState {
    /// True when nothing has been captured (fresh optimizer).
    pub fn is_empty(&self) -> bool {
        self.scalars.is_empty() && self.banks.is_empty()
    }
}

/// Flattens a tensor's data into a bit-exact bank.
pub(crate) fn tensor_bank(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Flattens a plain f32 slice into a bit-exact bank.
pub(crate) fn slice_bank(v: &[f32]) -> Vec<u32> {
    v.iter().map(|v| v.to_bits()).collect()
}

/// Restores a bank into a tensor of the given shape.
pub(crate) fn bank_tensor(bank: &[u32], dims: &[usize]) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for (slot, &bits) in t.data_mut().iter_mut().zip(bank) {
        *slot = f32::from_bits(bits);
    }
    t
}

/// Restores a bank into a plain f32 vector.
pub(crate) fn bank_slice(bank: &[u32]) -> Vec<f32> {
    bank.iter().map(|&b| f32::from_bits(b)).collect()
}

/// Parameter shapes in `visit_params` order — the key that lets
/// `import_state` rebuild positionally-keyed slots without stored shapes.
pub(crate) fn param_dims(model: &mut dyn Layer) -> Vec<Vec<usize>> {
    let mut dims = Vec::new();
    model.visit_params(&mut |p| dims.push(p.value.shape().dims().to_vec()));
    dims
}

/// A gradient-based optimizer.
pub trait Optimizer: Send {
    /// Applies one update with the given learning rate. Gradients must
    /// already be populated (and averaged across replicas, if distributed).
    fn step(&mut self, model: &mut dyn Layer, lr: f32);

    /// Diagnostic name ("rmsprop", "lars", ...).
    fn name(&self) -> &'static str;

    /// Captures the full mutable state, bit-exactly. The default covers
    /// stateless optimizers (nothing to save).
    fn export_state(&self) -> OptimizerState {
        OptimizerState::default()
    }

    /// Restores state captured by [`Optimizer::export_state`]. `model`
    /// supplies parameter shapes (the snapshot stores none); it must be
    /// the same architecture the state was exported from. Importing an
    /// empty state resets the optimizer to fresh.
    fn import_state(&mut self, state: &OptimizerState, model: &mut dyn Layer) {
        let _ = (state, model);
    }
}

/// Per-parameter state holder, lazily sized on first use.
pub(crate) struct StateVec<T> {
    slots: Vec<T>,
}

impl<T> StateVec<T> {
    pub fn new() -> Self {
        StateVec { slots: Vec::new() }
    }

    /// Gets slot `i`, creating it (and all before it) with `make` on first
    /// touch.
    pub fn get_or_init(&mut self, i: usize, make: impl Fn() -> T) -> &mut T {
        while self.slots.len() <= i {
            self.slots.push(make());
        }
        &mut self.slots[i]
    }

    /// All initialized slots, in parameter order.
    pub fn slots(&self) -> &[T] {
        &self.slots
    }

    /// Replaces the slot population wholesale (checkpoint import).
    pub fn set_slots(&mut self, slots: Vec<T>) {
        self.slots = slots;
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_vec_grows_on_demand() {
        let mut sv: StateVec<Vec<f32>> = StateVec::new();
        sv.get_or_init(2, || vec![0.0; 3])[0] = 1.0;
        assert_eq!(sv.len(), 3);
        assert_eq!(sv.get_or_init(2, Vec::new)[0], 1.0);
    }

    #[test]
    fn banks_round_trip_bit_exactly() {
        // Include values whose bit patterns are easy to corrupt through a
        // decimal detour: subnormals, negative zero, and an odd mantissa.
        let src = vec![1.0f32, -0.0, f32::MIN_POSITIVE / 2.0, 0.1 + 0.2];
        let bank = slice_bank(&src);
        let back = bank_slice(&bank);
        for (a, b) in src.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let t = bank_tensor(&bank, &[4]);
        for (a, b) in src.iter().zip(t.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(tensor_bank(&t), bank);
    }

    #[test]
    fn empty_state_is_empty() {
        assert!(OptimizerState::default().is_empty());
        let s = OptimizerState {
            scalars: vec![1],
            banks: vec![],
        };
        assert!(!s.is_empty());
    }
}
