//! Element-wise arithmetic between tensors.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;

fn check_same_shape(op: &'static str, a: &Tensor, b: &Tensor) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(TensorError::shape_mismatch(op, a.shape(), b.shape()));
    }
    Ok(())
}

/// Element-wise sum `a + b` of two same-shaped tensors.
///
/// # Examples
///
/// ```
/// use nf_tensor::{add, Tensor};
///
/// let a = Tensor::ones(&[2]);
/// let b = Tensor::full(&[2], 2.0);
/// assert_eq!(add(&a, &b).unwrap().data(), &[3.0, 3.0]);
/// ```
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_same_shape("add", a, b)?;
    let data = a.data().iter().zip(b.data()).map(|(x, y)| x + y).collect();
    Tensor::from_vec(a.shape().to_vec(), data)
}

/// Element-wise difference `a - b` of two same-shaped tensors.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_same_shape("sub", a, b)?;
    let data = a.data().iter().zip(b.data()).map(|(x, y)| x - y).collect();
    Tensor::from_vec(a.shape().to_vec(), data)
}

/// Element-wise (Hadamard) product of two same-shaped tensors.
pub fn hadamard(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_same_shape("hadamard", a, b)?;
    let data = a.data().iter().zip(b.data()).map(|(x, y)| x * y).collect();
    Tensor::from_vec(a.shape().to_vec(), data)
}

/// In-place scaled accumulation `y += alpha * x` (BLAS `axpy`).
///
/// This is the primitive every optimizer step reduces to.
pub fn axpy(alpha: f32, x: &Tensor, y: &mut Tensor) -> Result<()> {
    check_same_shape("axpy", x, y)?;
    for (yi, xi) in y.data_mut().iter_mut().zip(x.data()) {
        *yi += alpha * xi;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_sub_hadamard_small() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(vec![2, 2], vec![4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!(add(&a, &b).unwrap().data(), &[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(sub(&a, &b).unwrap().data(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(hadamard(&a, &b).unwrap().data(), &[4.0, 6.0, 6.0, 4.0]);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(add(&a, &b).is_err());
        assert!(sub(&a, &b).is_err());
        assert!(hadamard(&a, &b).is_err());
        let mut y = Tensor::zeros(&[3]);
        assert!(axpy(1.0, &a, &mut y).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let x = Tensor::ones(&[3]);
        let mut y = Tensor::full(&[3], 2.0);
        axpy(0.5, &x, &mut y).unwrap();
        assert_eq!(y.data(), &[2.5, 2.5, 2.5]);
    }

    fn small_tensor() -> impl Strategy<Value = Tensor> {
        (1usize..6, 1usize..6).prop_flat_map(|(r, c)| {
            proptest::collection::vec(-10.0f32..10.0, r * c)
                .prop_map(move |data| Tensor::from_vec(vec![r, c], data).unwrap())
        })
    }

    proptest! {
        #[test]
        fn add_commutes(a in small_tensor()) {
            let b = a.map(|v| v * 0.5 - 1.0);
            prop_assert_eq!(add(&a, &b).unwrap(), add(&b, &a).unwrap());
        }

        #[test]
        fn sub_then_add_is_identity(a in small_tensor()) {
            let b = a.map(|v| v + 3.0);
            let d = sub(&a, &b).unwrap();
            let r = add(&d, &b).unwrap();
            for (x, y) in r.data().iter().zip(a.data()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn hadamard_with_ones_is_identity(a in small_tensor()) {
            let ones = Tensor::ones(a.shape());
            prop_assert_eq!(hadamard(&a, &ones).unwrap(), a);
        }
    }
}
