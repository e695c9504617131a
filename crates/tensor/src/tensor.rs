//! The dense `f32` tensor type used throughout the workspace.
//!
//! Tensors are always contiguous row-major; views and fancy striding are
//! deliberately out of scope. The kernels that matter (GEMM, im2col conv)
//! operate on raw slices for speed, so the tensor type stays a simple
//! (shape, Vec) pair with checked constructors and elementwise helpers.

use crate::shape::Shape;
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Wraps an existing buffer. Panics if `data.len()` doesn't match the
    /// shape's element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            data.len(),
            "shape {shape} expects {} elements, got {}",
            shape.numel(),
            data.len()
        );
        Tensor { shape, data }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor {
            shape: Shape::new(&[]),
            data: vec![v],
        }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total element count.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the backing buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Mutable element at a multi-index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = self.shape.offset(idx);
        &mut self.data[off]
    }

    /// Reinterprets the tensor with a new shape of identical element count.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.data.len(),
            "reshape to {shape} incompatible with {} elements",
            self.data.len()
        );
        self.shape = shape;
        self
    }

    /// Sets every element to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sets every element to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place elementwise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// Elementwise combine with another same-shaped tensor.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert!(
            self.shape.same_as(&other.shape),
            "zip shape mismatch: {} vs {}",
            self.shape,
            other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += other` elementwise.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert!(
            self.shape.same_as(&other.shape),
            "add_assign shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self -= other` elementwise.
    pub fn sub_assign(&mut self, other: &Tensor) {
        assert!(
            self.shape.same_as(&other.shape),
            "sub_assign shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// `self *= s` for a scalar.
    pub fn scale(&mut self, s: f32) {
        self.data.iter_mut().for_each(|x| *x *= s);
    }

    /// `self += alpha * other` (BLAS axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert!(self.shape.same_as(&other.shape), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// L2 norm of the flattened tensor: [`sum_sq`](crate::ops::reduce::sum_sq)
    /// in `f64`, rounded to `f32` after the root.
    pub fn l2_norm(&self) -> f32 {
        crate::ops::reduce::sum_sq(&self.data).sqrt() as f32
    }

    /// Maximum element. Panics on empty tensors.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element. Panics on empty tensors.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first on ties).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut bv = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > bv {
                bv = v;
                best = i;
            }
        }
        best
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Maximum absolute difference to another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert!(
            self.shape.same_as(&other.shape),
            "max_abs_diff shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor({} {:?}{})",
            self.shape,
            preview,
            if self.data.len() > 8 { "…" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let o = Tensor::ones([4]);
        assert_eq!(o.sum(), 4.0);
        let s = Tensor::scalar(2.5);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.shape().rank(), 0);
    }

    #[test]
    #[should_panic]
    fn from_vec_len_mismatch_panics() {
        Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros([2, 3, 4]);
        *t.at_mut(&[1, 2, 3]) = 7.0;
        assert_eq!(t.at(&[1, 2, 3]), 7.0);
        assert_eq!(t.data()[t.numel() - 1], 7.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|i| i as f32).collect());
        let r = t.reshape([3, 2]);
        assert_eq!(r.at(&[2, 1]), 5.0);
    }

    #[test]
    fn elementwise_helpers() {
        let a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec([3], vec![10.0, 20.0, 30.0]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0]);
        c.sub_assign(&b);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0]);
        c.axpy(2.0, &b);
        assert_eq!(c.data(), &[21.0, 42.0, 63.0]);
        c.scale(0.5);
        assert_eq!(c.data(), &[10.5, 21.0, 31.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], vec![-1.0, 0.5, 3.0, -2.0]);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.argmax(), 2);
        assert!((t.mean() - 0.125).abs() < 1e-6);
        assert!((t.l2_norm() - (1.0f32 + 0.25 + 9.0 + 4.0).sqrt()).abs() < 1e-5);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros([3]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }

    #[test]
    fn zip_and_map() {
        let a = Tensor::from_vec([2], vec![1.0, 4.0]);
        let b = Tensor::from_vec([2], vec![2.0, 2.0]);
        assert_eq!(a.zip(&b, |x, y| x * y).data(), &[2.0, 8.0]);
        assert_eq!(a.map(|x| x + 1.0).data(), &[2.0, 5.0]);
    }
}
