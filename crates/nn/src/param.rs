//! Trainable parameters.
//!
//! Each parameter carries its gradient buffer and a [`ParamKind`] tag. The
//! kind matters for large-batch training: LARS (§3.1) skips trust-ratio
//! adaptation and weight decay for batch-norm scales/shifts and biases,
//! exactly as in You et al. — the tag is how optimizers implement that rule
//! without string-matching names.
//!
//! A parameter's value is a [`Weight`]: one tensor that the parameters of
//! several model replicas in one process can hold at once
//! ([`Weight::share`]), so a data-parallel trainer keeps one set of
//! weights however many replicas read it.

use ets_tensor::Tensor;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// What role a parameter plays, which controls weight decay and LARS
/// adaptation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Conv/dense kernels: decayed, LARS-adapted.
    Weight,
    /// Dense bias: no decay, no LARS adaptation.
    Bias,
    /// Batch-norm scale (γ): no decay, no LARS adaptation.
    BnGamma,
    /// Batch-norm shift (β): no decay, no LARS adaptation.
    BnBeta,
}

impl ParamKind {
    /// Whether LARS should apply its layer-wise trust ratio (and weight
    /// decay) to this parameter.
    #[inline]
    pub fn lars_adapted(self) -> bool {
        matches!(self, ParamKind::Weight)
    }

    /// Whether L2 weight decay applies.
    #[inline]
    pub fn decayed(self) -> bool {
        matches!(self, ParamKind::Weight)
    }
}

const WRITER_PANICKED: &str = "a thread panicked while writing these weights";

/// A parameter's value: a tensor behind a reader-writer lock, which the
/// handles that [`Weight::share`] makes all reach.
///
/// Layers hold a [read guard](Weight::read) for the length of a product
/// and optimizers write through a [write guard](Weight::write). A thread
/// holds one guard of a weight at a time: with a writer waiting, a
/// second read guard would wait for ever. The lock keeps a read and a
/// write of one buffer apart; it does not order them. Replicas that
/// share weights order them themselves: every read of a step ends
/// before any owner writes, and every write before the next read.
///
/// `clone` deep-copies: the copy is a new, unshared buffer. The one way
/// to reach the same buffer twice is [`Weight::share`], and replacing a
/// handle (`param.value = Weight::new(..)`) changes only that handle's
/// holder.
pub struct Weight(Arc<RwLock<Tensor>>);

impl Weight {
    /// A weight of its own, shared with nobody yet.
    pub fn new(value: Tensor) -> Self {
        Weight(Arc::new(RwLock::new(value)))
    }

    /// Another handle to this weight's buffer.
    pub fn share(&self) -> Weight {
        Weight(Arc::clone(&self.0))
    }

    /// Whether `self` and `other` reach one buffer.
    pub fn is_shared_with(&self, other: &Weight) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The tensor, read-locked while the guard lives.
    pub fn read(&self) -> RwLockReadGuard<'_, Tensor> {
        self.0.read().expect(WRITER_PANICKED)
    }

    /// The tensor, write-locked while the guard lives.
    pub fn write(&mut self) -> RwLockWriteGuard<'_, Tensor> {
        self.0.write().expect(WRITER_PANICKED)
    }

    /// The elements, read-locked while the guard lives.
    pub fn data(&self) -> WeightData<'_> {
        WeightData(self.read())
    }
}

impl Clone for Weight {
    fn clone(&self) -> Self {
        Weight::new(self.read().clone())
    }
}

impl fmt::Debug for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.read().fmt(f)
    }
}

/// A weight's elements under its read guard ([`Weight::data`]).
pub struct WeightData<'a>(RwLockReadGuard<'a, Tensor>);

impl Deref for WeightData<'_> {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        self.0.data()
    }
}

/// A named, trainable tensor with an accumulated gradient.
///
/// `clone` deep-copies the value too ([`Weight`]).
#[derive(Clone, Debug)]
pub struct Param {
    /// Stable identifier, e.g. `"stem.conv.w"`. Used for EMA bookkeeping
    /// and debugging; optimizer state is keyed positionally.
    pub name: String,
    /// Current value, possibly shared with other replicas' parameters.
    pub value: Weight,
    /// Gradient accumulated by the backward pass; zeroed by
    /// [`Param::zero_grad`] at the start of each step.
    pub grad: Tensor,
    /// Role tag.
    pub kind: ParamKind,
}

impl Param {
    /// Creates a parameter with a zeroed gradient of matching shape.
    pub fn new(name: impl Into<String>, value: Tensor, kind: ParamKind) -> Self {
        let grad = Tensor::zeros(value.shape().dims());
        Param {
            name: name.into(),
            value: Weight::new(value),
            grad,
            kind,
        }
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// The value's dimensions, read off the gradient, which has them
    /// too: no lock is taken.
    pub fn dims(&self) -> &[usize] {
        self.grad.shape().dims()
    }

    /// Number of scalar elements.
    pub fn numel(&self) -> usize {
        self.grad.numel()
    }
}

/// Convenience: total parameter count over a set.
pub fn total_params<'a>(params: impl IntoIterator<Item = &'a Param>) -> usize {
    params.into_iter().map(|p| p.numel()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_control_adaptation() {
        assert!(ParamKind::Weight.lars_adapted());
        assert!(ParamKind::Weight.decayed());
        for k in [ParamKind::Bias, ParamKind::BnGamma, ParamKind::BnBeta] {
            assert!(!k.lars_adapted());
            assert!(!k.decayed());
        }
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new("w", Tensor::ones([3]), ParamKind::Weight);
        p.grad.fill(5.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.numel(), 3);
    }

    #[test]
    fn a_clone_is_a_copy_and_a_share_is_the_buffer() {
        let mut p = Param::new("w", Tensor::ones([2]), ParamKind::Weight);
        let copy = p.clone();
        let shared = p.value.share();
        assert!(shared.is_shared_with(&p.value));
        assert!(!copy.value.is_shared_with(&p.value));
        p.value.write().fill(3.0);
        assert_eq!(&*shared.data(), &[3.0, 3.0]);
        assert_eq!(&*copy.value.data(), &[1.0, 1.0]);
        // A replaced handle leaves the buffer to the other holders.
        p.value = Weight::new(Tensor::zeros([2]));
        assert_eq!(&*shared.data(), &[3.0, 3.0]);
        assert_eq!((p.dims(), p.numel()), (&[2][..], 2));
    }

    #[test]
    fn total_counts() {
        let a = Param::new("a", Tensor::zeros([2, 3]), ParamKind::Weight);
        let b = Param::new("b", Tensor::zeros([4]), ParamKind::Bias);
        assert_eq!(total_params([&a, &b]), 10);
    }
}
