//! Affine-`u8` quantized tensors — the in-memory form of int8-cached
//! activations on the quantized compute path.
//!
//! A [`QuantTensor`] is the `u8` sibling of [`Tensor`]: row-major bytes
//! plus one per-tensor affine encoding `x = min + scale · q`
//! (`q ∈ 0..=255`, the scheme of [`crate::convert`]). The activation
//! cache hands these to the frozen-block forward pass so already-trained
//! layers can run the [`crate::kernels::int8`] GEMM directly on the
//! stored bytes instead of decoding everything back to f32 first; any
//! consumer that does need floats calls [`QuantTensor::dequantize_into`].

use crate::convert;
use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;

/// A row-major `u8` tensor under a per-tensor affine encoding.
///
/// Buffers are grow-only, mirroring [`Tensor::reuse_as`]: a
/// default-constructed value is meant to be reused across reads.
///
/// # Examples
///
/// ```
/// use nf_tensor::{QuantTensor, Tensor};
///
/// let x = Tensor::from_vec(vec![2, 2], vec![0.0, 1.0, 2.0, 3.0]).unwrap();
/// let q = QuantTensor::from_f32(&x);
/// let back = q.dequantize().unwrap();
/// for (a, b) in x.data().iter().zip(back.data()) {
///     assert!((a - b).abs() < 3.0 / 255.0);
/// }
/// ```
#[derive(Debug, Default, Clone, PartialEq)]
pub struct QuantTensor {
    data: Vec<u8>,
    shape: Vec<usize>,
    scale: f32,
    min: f32,
}

impl QuantTensor {
    /// An empty quantized tensor (shape `[0]`-like; fill via
    /// [`QuantTensor::reuse_as`] or [`QuantTensor::quantize_from`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Quantizes an f32 tensor with min/max over all elements.
    pub fn from_f32(x: &Tensor) -> Self {
        let mut q = Self::default();
        q.quantize_from(x);
        q
    }

    /// Re-quantizes `x` into this buffer (grow-only).
    pub fn quantize_from(&mut self, x: &Tensor) {
        let (lo, hi) = convert::minmax_slice(x.data());
        let scale = if hi > lo { (hi - lo) / 255.0 } else { 0.0 };
        self.reuse_as(x.shape(), scale, lo);
        convert::quantize_u8_slice(x.data(), lo, scale, &mut self.data);
    }

    /// Resizes to `shape` under the given affine parameters and hands the
    /// caller the byte buffer to fill — the entry point cache codecs use
    /// when materialising stored activations without an f32 detour.
    pub fn reuse_as(&mut self, shape: &[usize], scale: f32, min: f32) -> &mut [u8] {
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.scale = scale;
        self.min = min;
        self.data.resize(shape.iter().product(), 0);
        &mut self.data
    }

    /// The quantized bytes, row-major.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Affine scale (`x = min + scale · q`).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Affine offset.
    pub fn min(&self) -> f32 {
        self.min
    }

    /// Shape as `(n, c, h, w)`, erroring unless rank 4 — mirrors
    /// [`Tensor::dims4`].
    pub fn dims4(&self) -> Result<(usize, usize, usize, usize)> {
        match self.shape[..] {
            [n, c, h, w] => Ok((n, c, h, w)),
            _ => Err(TensorError::RankMismatch {
                op: "dims4",
                expected: 4,
                actual: self.shape.len(),
            }),
        }
    }

    /// Shape as `(rows, cols)`, erroring unless rank 2 — mirrors
    /// [`Tensor::dims2`].
    pub fn dims2(&self) -> Result<(usize, usize)> {
        match self.shape[..] {
            [r, c] => Ok((r, c)),
            _ => Err(TensorError::RankMismatch {
                op: "dims2",
                expected: 2,
                actual: self.shape.len(),
            }),
        }
    }

    /// Decodes into a caller-provided f32 tensor (grow-only).
    pub fn dequantize_into(&self, out: &mut Tensor) -> Result<()> {
        if self.shape.is_empty() {
            return Err(TensorError::RankMismatch {
                op: "dequantize",
                expected: 1,
                actual: 0,
            });
        }
        out.reuse_as(&self.shape);
        convert::dequantize_u8_slice(&self.data, self.min, self.scale, out.data_mut());
        Ok(())
    }

    /// Decodes into a fresh f32 tensor.
    pub fn dequantize(&self) -> Result<Tensor> {
        let mut out = Tensor::zeros(&[0]);
        self.dequantize_into(&mut out)?;
        Ok(out)
    }

    /// Copies samples `start..end` along the batch (first) dimension into
    /// `out`, keeping the affine encoding — the quantized counterpart of
    /// [`Tensor::slice_batch`], buffer-reusing so the worker's
    /// regeneration loop stays allocation-free in steady state.
    pub fn slice_batch_into(&self, start: usize, end: usize, out: &mut QuantTensor) -> Result<()> {
        if self.shape.is_empty() || start > end || end > self.shape[0] {
            return Err(TensorError::index_out_of_bounds(&[start, end], &self.shape));
        }
        let sample: usize = self.shape[1..].iter().product();
        // In place, like `reuse_as`: a warmed-up `out` never allocates.
        out.shape.clear();
        out.shape.extend_from_slice(&self.shape);
        out.shape[0] = end - start;
        out.scale = self.scale;
        out.min = self.min;
        out.data.clear();
        out.data
            .extend_from_slice(&self.data[start * sample..end * sample]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_within_one_step() {
        let x = Tensor::from_vec(vec![2, 3], vec![-1.0, -0.25, 0.0, 0.5, 2.0, 4.0]).unwrap();
        let q = QuantTensor::from_f32(&x);
        assert_eq!(q.shape(), &[2, 3]);
        let back = q.dequantize().unwrap();
        for (a, b) in x.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= q.scale() * 0.5 + 1e-6, "{a} vs {b}");
        }
        // Extremes are exact.
        assert_eq!(back.data()[0], -1.0);
        assert!((back.data()[5] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn constant_tensor_degenerates_gracefully() {
        let x = Tensor::from_vec(vec![4], vec![2.5; 4]).unwrap();
        let q = QuantTensor::from_f32(&x);
        assert_eq!(q.scale(), 0.0);
        assert_eq!(q.dequantize().unwrap().data(), &[2.5; 4]);
    }

    #[test]
    fn slice_batch_preserves_encoding() {
        let x = Tensor::from_vec(vec![3, 2], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let q = QuantTensor::from_f32(&x);
        let mut part = QuantTensor::new();
        q.slice_batch_into(1, 3, &mut part).unwrap();
        assert_eq!(part.shape(), &[2, 2]);
        assert_eq!(part.scale(), q.scale());
        assert_eq!(part.min(), q.min());
        assert_eq!(part.data(), &q.data()[2..6]);
        assert!(q.slice_batch_into(2, 4, &mut part).is_err());
    }
}
