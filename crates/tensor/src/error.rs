//! Error type shared by all tensor operations.

use std::fmt;

/// Errors produced by tensor constructors and operations.
///
/// The library favours returning these over panicking wherever the failure
/// can be triggered by caller-supplied shapes or data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The element count implied by a shape does not match the data length.
    ShapeDataMismatch {
        /// Element count implied by the requested shape.
        expected: usize,
        /// Length of the provided data buffer.
        actual: usize,
    },
    /// Two operands have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
    },
    /// The operation requires a tensor of a different rank.
    RankMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Rank the operation requires.
        expected: usize,
        /// Rank of the tensor supplied.
        actual: usize,
    },
    /// A convolution/pooling geometry is inconsistent (e.g. kernel larger
    /// than the padded input).
    InvalidGeometry(String),
    /// An index is out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor's shape.
        shape: Vec<usize>,
    },
    /// A gather operand's offset tables reach past the buffer they index
    /// (see [`crate::kernels::GatherA`]).
    OffsetOutOfBounds {
        /// Largest element offset the tables address.
        reach: u64,
        /// Length of the indexed buffer.
        len: usize,
    },
}

impl TensorError {
    /// A [`TensorError::ShapeMismatch`] from borrowed shapes: the copies
    /// are made here, on the cold error path, so a hot caller never
    /// allocates to check its operands.
    #[cold]
    pub fn shape_mismatch(op: &'static str, lhs: &[usize], rhs: &[usize]) -> Self {
        TensorError::ShapeMismatch {
            op,
            lhs: lhs.to_vec(),
            rhs: rhs.to_vec(),
        }
    }

    /// A [`TensorError::IndexOutOfBounds`] from borrowed parts, like
    /// [`TensorError::shape_mismatch`].
    #[cold]
    pub fn index_out_of_bounds(index: &[usize], shape: &[usize]) -> Self {
        TensorError::IndexOutOfBounds {
            index: index.to_vec(),
            shape: shape.to_vec(),
        }
    }
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { expected, actual } => {
                write!(f, "shape implies {expected} elements but data has {actual}")
            }
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: incompatible shapes {lhs:?} and {rhs:?}")
            }
            TensorError::RankMismatch {
                op,
                expected,
                actual,
            } => write!(f, "{op}: expected rank {expected}, got rank {actual}"),
            TensorError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::OffsetOutOfBounds { reach, len } => {
                write!(
                    f,
                    "gather offsets reach element {reach} of a {len}-element buffer"
                )
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TensorError::ShapeDataMismatch {
            expected: 4,
            actual: 3,
        };
        assert!(e.to_string().contains("4"));
        assert!(e.to_string().contains("3"));

        let e = TensorError::shape_mismatch("matmul", &[2, 3], &[4, 5]);
        assert_eq!(
            e.to_string(),
            "matmul: incompatible shapes [2, 3] and [4, 5]"
        );
        let e = TensorError::index_out_of_bounds(&[1, 5], &[3, 2]);
        assert_eq!(e.to_string(), "index [1, 5] out of bounds for shape [3, 2]");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
