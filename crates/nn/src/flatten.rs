//! Flatten layer: collapses all non-batch dimensions.

use crate::error::NnError;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::Result;
use nf_tensor::Tensor;

/// Reshapes `(N, d₁, d₂, …)` to `(N, d₁·d₂·…)`.
///
/// # Examples
///
/// ```
/// use nf_nn::{Flatten, Layer, Mode};
/// use nf_tensor::Tensor;
///
/// let mut f = Flatten::new();
/// let y = f.forward(&Tensor::zeros(&[2, 3, 4, 4]), Mode::Eval).unwrap();
/// assert_eq!(y.shape(), &[2, 48]);
/// ```
#[derive(Debug, Default)]
pub struct Flatten {
    /// Input shape of the last Train forward; empty when none is pending.
    cached_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> String {
        "flatten".to_string()
    }

    fn forward_into(&mut self, x: &Tensor, mode: Mode, out: &mut Tensor) -> Result<()> {
        if x.rank() < 1 {
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: "rank-0 input".to_string(),
            });
        }
        let n = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        if mode == Mode::Train {
            self.cached_shape.clear();
            self.cached_shape.extend_from_slice(x.shape());
        }
        out.reuse_as(&[n, rest]);
        out.data_mut().copy_from_slice(x.data());
        Ok(())
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) -> Result<()> {
        if self.cached_shape.is_empty() {
            return Err(NnError::NoForwardCache { layer: self.name() });
        }
        let expected = self.cached_shape.iter().product();
        if grad_out.numel() != expected {
            return Err(nf_tensor::TensorError::ShapeDataMismatch {
                expected,
                actual: grad_out.numel(),
            }
            .into());
        }
        grad_in.reuse_as(&self.cached_shape);
        grad_in.data_mut().copy_from_slice(grad_out.data());
        self.cached_shape.clear();
        Ok(())
    }

    /// No parameters and no input gradient wanted: only spend the cache
    /// (the deep head's first layer, so its step allocates nothing).
    fn backward_params(&mut self, _grad_out: &Tensor) -> Result<()> {
        if self.cached_shape.is_empty() {
            return Err(NnError::NoForwardCache { layer: self.name() });
        }
        self.cached_shape.clear();
        Ok(())
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn clear_cache(&mut self) {
        self.cached_shape.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_shapes() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 2, 2]);
        let y = f.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.shape(), &[2, 12]);
        let gi = f.backward(&Tensor::ones(&[2, 12])).unwrap();
        assert_eq!(gi.shape(), x.shape());
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut f = Flatten::new();
        assert!(f.backward(&Tensor::zeros(&[1, 4])).is_err());
    }

    #[test]
    fn rejects_scalar() {
        let mut f = Flatten::new();
        assert!(f.forward(&Tensor::scalar(1.0), Mode::Train).is_err());
    }
}
