//! In-memory dataset and batching.

use crate::spec::SyntheticSpec;
use nf_tensor::{Tensor, TensorError};

/// An in-memory labelled image dataset (NCHW images + integer labels).
#[derive(Debug, Clone)]
pub struct Dataset {
    images: Tensor,
    labels: Vec<usize>,
}

impl Dataset {
    /// Wraps images and labels, validating that the label count matches the
    /// batch dimension.
    pub fn new(images: Tensor, labels: Vec<usize>) -> Result<Self, TensorError> {
        let n = images.shape().first().copied().unwrap_or(0);
        if n != labels.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: n,
                actual: labels.len(),
            });
        }
        Ok(Dataset { images, labels })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The image tensor `(N, C, H, W)`.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// The labels, one per sample.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Extracts the batch starting at `start` with up to `size` samples
    /// (clamped at the dataset end).
    ///
    /// # Panics
    ///
    /// Panics if `start >= len()` on a non-empty request.
    pub fn batch(&self, start: usize, size: usize) -> (Tensor, Vec<usize>) {
        let end = (start + size).min(self.len());
        assert!(start <= end, "batch start {start} beyond dataset");
        (
            self.images
                .slice_batch(start, end)
                .expect("bounds checked above"),
            self.labels[start..end].to_vec(),
        )
    }

    /// Iterates over consecutive batches of `size` (last batch may be
    /// short).
    pub fn batches(&self, size: usize) -> impl Iterator<Item = (Tensor, Vec<usize>)> + '_ {
        let size = size.max(1);
        (0..self.len().div_ceil(size)).map(move |i| self.batch(i * size, size))
    }

    /// Builds a new dataset from the samples at `indices` (in order;
    /// indices may repeat or reorder).
    pub fn select(&self, indices: &[usize]) -> Result<Self, TensorError> {
        let per: usize = self.images.shape()[1..].iter().product();
        let mut data = Vec::with_capacity(indices.len() * per);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= self.len() {
                return Err(TensorError::index_out_of_bounds(&[i], self.images.shape()));
            }
            data.extend_from_slice(&self.images.data()[i * per..(i + 1) * per]);
            labels.push(self.labels[i]);
        }
        let mut shape = self.images.shape().to_vec();
        shape[0] = indices.len();
        Dataset::new(Tensor::from_vec(shape, data)?, labels)
    }
}

/// Train/validation/test splits plus the generating spec.
#[derive(Debug, Clone)]
pub struct SplitDataset {
    /// Training split.
    pub train: Dataset,
    /// Validation split (used for early-exit selection).
    pub val: Dataset,
    /// Test split (reported accuracy).
    pub test: Dataset,
    /// The spec that generated this data.
    pub spec: SyntheticSpec,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let images =
            Tensor::from_vec(vec![5, 1, 2, 2], (0..20).map(|i| i as f32).collect()).unwrap();
        Dataset::new(images, vec![0, 1, 0, 1, 0]).unwrap()
    }

    #[test]
    fn new_validates_label_count() {
        let images = Tensor::zeros(&[3, 1, 2, 2]);
        assert!(Dataset::new(images.clone(), vec![0, 1]).is_err());
        assert!(Dataset::new(images, vec![0, 1, 2]).is_ok());
    }

    #[test]
    fn batch_clamps_at_end() {
        let ds = tiny();
        let (imgs, labels) = ds.batch(4, 10);
        assert_eq!(imgs.shape(), &[1, 1, 2, 2]);
        assert_eq!(labels, vec![0]);
    }

    #[test]
    fn batches_cover_everything_once() {
        let ds = tiny();
        let mut seen = 0;
        for (imgs, labels) in ds.batches(2) {
            assert_eq!(imgs.shape()[0], labels.len());
            seen += labels.len();
        }
        assert_eq!(seen, 5);
    }
}
