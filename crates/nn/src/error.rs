//! Error type for layer operations.

use nf_tensor::TensorError;
use std::fmt;

/// Errors produced by layers, losses, and optimizers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// A tensor operation inside the layer failed (shape mismatch etc.).
    Tensor(TensorError),
    /// `backward` was called without a preceding `forward` in `Train` mode.
    NoForwardCache {
        /// Name of the layer.
        layer: String,
    },
    /// Input shape is incompatible with the layer's configuration.
    BadInput {
        /// Name of the layer.
        layer: String,
        /// Description of the problem.
        reason: String,
    },
    /// Labels are inconsistent with the logits (length or class range).
    BadLabels {
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::NoForwardCache { layer } => {
                write!(f, "{layer}: backward called without a cached forward pass")
            }
            NnError::BadInput { layer, reason } => write!(f, "{layer}: bad input: {reason}"),
            NnError::BadLabels { reason } => write!(f, "bad labels: {reason}"),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_and_display() {
        let te = TensorError::ShapeDataMismatch {
            expected: 1,
            actual: 2,
        };
        let ne: NnError = te.clone().into();
        assert_eq!(ne, NnError::Tensor(te));
        assert!(ne.to_string().contains("tensor error"));
        let e = NnError::NoForwardCache {
            layer: "conv1".into(),
        };
        assert!(e.to_string().contains("conv1"));
    }
}
