//! The core owned, row-major, `f32` n-dimensional array.

use crate::error::TensorError;
use crate::Result;

/// An owned, row-major (C-order), dense `f32` tensor.
///
/// Shapes are arbitrary-rank; CNN code in this workspace uses the NCHW
/// convention for rank-4 tensors (batch, channels, height, width) and
/// `[rows, cols]` for rank-2 matrices. A rank-0 tensor (empty shape) is a
/// scalar holding exactly one element.
///
/// # Examples
///
/// ```
/// use nf_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.numel(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Default for Tensor {
    /// An empty rank-1 tensor (`shape == [0]`), the canonical seed for
    /// grow-only buffers resized with [`Tensor::reuse_as`]. The shape
    /// vector starts with room for rank 4, so growing the seed into an
    /// activation costs one allocation for the shape and one for the data.
    fn default() -> Self {
        let mut shape = Vec::with_capacity(4);
        shape.push(0);
        Tensor {
            shape,
            data: Vec::new(),
        }
    }
}

impl Tensor {
    /// Creates a tensor from a shape and a data buffer.
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the product of the
    /// shape's dimensions does not equal `data.len()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use nf_tensor::Tensor;
    ///
    /// let t = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
    /// assert_eq!(t.at(&[1, 0]), 3.0);
    /// ```
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; numel],
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; numel],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use nf_tensor::Tensor;
    ///
    /// let i = Tensor::eye(3);
    /// assert_eq!(i.at(&[1, 1]), 1.0);
    /// assert_eq!(i.at(&[1, 2]), 0.0);
    /// ```
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: vec![],
            data: vec![value],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The tensor's rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Converts a multi-dimensional index into a flat offset.
    fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.shape.len() {
            return Err(TensorError::index_out_of_bounds(index, &self.shape));
        }
        let mut off = 0;
        let mut stride = 1;
        for d in (0..self.shape.len()).rev() {
            if index[d] >= self.shape[d] {
                return Err(TensorError::index_out_of_bounds(index, &self.shape));
            }
            off += index[d] * stride;
            stride *= self.shape[d];
        }
        Ok(off)
    }

    /// Returns the element at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds; use [`Tensor::get`] for the
    /// fallible variant.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.get(index).expect("index out of bounds")
    }

    /// Returns the element at `index`, or an error if out of bounds.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.offset(index)?])
    }

    /// Sets the element at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index).expect("index out of bounds");
        self.data[off] = value;
    }

    /// Reinterprets the tensor with a new shape of identical element count.
    ///
    /// This is a metadata-only operation; the buffer is moved, not copied.
    ///
    /// # Examples
    ///
    /// ```
    /// use nf_tensor::Tensor;
    ///
    /// let t = Tensor::zeros(&[2, 6]).reshape(&[3, 4]).unwrap();
    /// assert_eq!(t.shape(), &[3, 4]);
    /// ```
    pub fn reshape(self, new_shape: &[usize]) -> Result<Self> {
        let expected: usize = new_shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected,
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            shape: new_shape.to_vec(),
            data: self.data,
        })
    }

    /// Interprets a rank-4 tensor's shape as `(n, c, h, w)`.
    ///
    /// Returns [`TensorError::RankMismatch`] for other ranks.
    pub fn dims4(&self) -> Result<(usize, usize, usize, usize)> {
        if self.shape.len() != 4 {
            return Err(TensorError::RankMismatch {
                op: "dims4",
                expected: 4,
                actual: self.shape.len(),
            });
        }
        Ok((self.shape[0], self.shape[1], self.shape[2], self.shape[3]))
    }

    /// Interprets a rank-2 tensor's shape as `(rows, cols)`.
    pub fn dims2(&self) -> Result<(usize, usize)> {
        if self.shape.len() != 2 {
            return Err(TensorError::RankMismatch {
                op: "dims2",
                expected: 2,
                actual: self.shape.len(),
            });
        }
        Ok((self.shape[0], self.shape[1]))
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        self.map_inplace(|v| v * s);
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Reshapes `self` in place to `shape`, reusing both the shape vector
    /// and the data allocation (grow-only: capacity never shrinks, so a
    /// warmed-up buffer is never reallocated for an equal-or-smaller
    /// shape). Element values after the call are **unspecified** — callers
    /// must overwrite every element, or use [`Tensor::reuse_zeroed`].
    ///
    /// This is the primitive the `*_into` hot-path entry points are built
    /// on; see [`crate::Workspace`].
    pub fn reuse_as(&mut self, shape: &[usize]) {
        let numel = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(numel, 0.0);
    }

    /// [`Tensor::reuse_as`], then zeroes every element — for outputs that
    /// are written sparsely (`im2col` padding gaps) or accumulated into
    /// (`col2im`).
    pub fn reuse_zeroed(&mut self, shape: &[usize]) {
        self.reuse_as(shape);
        self.fill_zero();
    }

    /// Makes `self` an exact copy of `src`, reusing `self`'s allocations
    /// (grow-only). The zero-allocation steady-state alternative to
    /// `*self = src.clone()`.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(&src.shape);
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Capacity (in elements) of the underlying buffer. Exposed so tests
    /// can assert that reused workspace buffers stop growing after
    /// warm-up.
    pub fn data_capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Extracts samples `[start, end)` along the batch (first) axis of any
    /// rank ≥ 1 tensor.
    pub fn slice_batch(&self, start: usize, end: usize) -> Result<Self> {
        let mut out = Tensor::default();
        self.slice_batch_into(start, end, &mut out)?;
        Ok(out)
    }

    /// [`Tensor::slice_batch`] into a caller-provided tensor (grow-only) —
    /// the f32 sibling of [`crate::QuantTensor::slice_batch_into`], so a
    /// minibatch loop reuses one batch buffer for the whole run.
    pub fn slice_batch_into(&self, start: usize, end: usize, out: &mut Tensor) -> Result<()> {
        let per = self.batch_range(start, end)?;
        out.shape.clear();
        out.shape.extend_from_slice(&self.shape);
        out.shape[0] = end - start;
        out.data.clear();
        out.data
            .extend_from_slice(&self.data[start * per..end * per]);
        Ok(())
    }

    /// Validates `[start, end)` against the batch axis and returns the
    /// element count of one sample.
    fn batch_range(&self, start: usize, end: usize) -> Result<usize> {
        if self.shape.is_empty() {
            return Err(TensorError::RankMismatch {
                op: "slice_batch",
                expected: 1,
                actual: 0,
            });
        }
        if start > end || end > self.shape[0] {
            return Err(TensorError::index_out_of_bounds(&[start, end], &self.shape));
        }
        Ok(self.shape[1..].iter().product())
    }

    /// Concatenates tensors along the batch (first) axis.
    ///
    /// All inputs must agree on every non-batch dimension.
    pub fn cat_batch(parts: &[&Tensor]) -> Result<Self> {
        let first = parts.first().ok_or(TensorError::InvalidGeometry(
            "cat_batch of zero tensors".to_string(),
        ))?;
        let tail = &first.shape[1..];
        let mut total = 0;
        for p in parts {
            if p.shape.is_empty() || &p.shape[1..] != tail {
                return Err(TensorError::shape_mismatch(
                    "cat_batch",
                    &first.shape,
                    &p.shape,
                ));
            }
            total += p.shape[0];
        }
        let mut shape = first.shape.clone();
        shape[0] = total;
        let mut data = Vec::with_capacity(shape.iter().product());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Ok(Tensor { shape, data })
    }

    /// Frobenius norm of the tensor (`sqrt(Σ x²)`).
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![0.0; 4]).is_ok());
        let err = Tensor::from_vec(vec![2, 2], vec![0.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::ShapeDataMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 7.5);
        assert_eq!(t.at(&[1, 2, 3]), 7.5);
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        // Flat layout: index (1,2,3) = 1*12 + 2*4 + 3 = 23.
        assert_eq!(t.data()[23], 7.5);
    }

    #[test]
    fn get_rejects_bad_indices() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(t.get(&[2, 0]).is_err());
        assert!(t.get(&[0]).is_err());
        assert!(t.get(&[0, 0, 0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.clone().reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i.at(&[r, c]), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn slice_and_cat_batch_round_trip() {
        let t = Tensor::from_vec(vec![4, 1, 2, 2], (0..16).map(|i| i as f32).collect()).unwrap();
        let a = t.slice_batch(0, 1).unwrap();
        let b = t.slice_batch(1, 4).unwrap();
        let r = Tensor::cat_batch(&[&a, &b]).unwrap();
        assert_eq!(r, t);
    }

    #[test]
    fn slice_batch_into_reuses_the_buffer() {
        let t = Tensor::from_vec(vec![4, 1, 2, 2], (0..16).map(|i| i as f32).collect()).unwrap();
        let mut part = Tensor::default();
        t.slice_batch_into(0, 3, &mut part).unwrap();
        let cap = part.data_capacity();
        t.slice_batch_into(2, 4, &mut part).unwrap();
        assert_eq!(part, t.slice_batch(2, 4).unwrap());
        assert_eq!(
            part.data_capacity(),
            cap,
            "a smaller slice must not reallocate"
        );
        assert!(t.slice_batch_into(3, 5, &mut part).is_err());
        assert!(Tensor::scalar(1.0)
            .slice_batch_into(0, 1, &mut part)
            .is_err());
    }

    #[test]
    fn cat_batch_rejects_mismatched_tails() {
        let a = Tensor::zeros(&[1, 2]);
        let b = Tensor::zeros(&[1, 3]);
        assert!(Tensor::cat_batch(&[&a, &b]).is_err());
        assert!(Tensor::cat_batch(&[]).is_err());
    }

    #[test]
    fn map_and_scale() {
        let mut t = Tensor::ones(&[3]);
        t.scale_inplace(2.0);
        assert_eq!(t.data(), &[2.0, 2.0, 2.0]);
        let u = t.map(|v| v - 1.0);
        assert_eq!(u.data(), &[1.0, 1.0, 1.0]);
        t.fill_zero();
        assert_eq!(t.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn norm_and_finite_checks() {
        let t = Tensor::from_vec(vec![2], vec![3.0, 4.0]).unwrap();
        assert!((t.norm() - 5.0).abs() < 1e-6);
        let bad = Tensor::from_vec(vec![1], vec![f32::NAN]).unwrap();
        assert!(bad.norm().is_nan());
    }
}
