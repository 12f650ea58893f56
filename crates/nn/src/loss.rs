//! Loss functions returning `(scalar loss, gradient w.r.t. input)`.
//!
//! Returning the gradient together with the loss keeps the training loop a
//! pure composition: `loss ∘ forward`, then feed the returned gradient into
//! `backward`. Both losses average over the batch.

use crate::error::NnError;
use crate::Result;
use nf_tensor::{softmax_rows_into, sub, Tensor};

/// Softmax cross-entropy against integer class labels.
///
/// `logits` is `(batch, classes)`. The returned gradient is
/// `(softmax(logits) − onehot(labels)) / batch`, the exact analytic
/// gradient of the mean loss.
///
/// # Examples
///
/// ```
/// use nf_nn::loss::cross_entropy;
/// use nf_tensor::Tensor;
///
/// let logits = Tensor::from_vec(vec![1, 2], vec![10.0, -10.0]).unwrap();
/// let (loss, _grad) = cross_entropy(&logits, &[0]).unwrap();
/// assert!(loss < 1e-3); // confident and correct
/// ```
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor)> {
    let mut grad = Tensor::default();
    let loss = cross_entropy_into(logits, labels, &mut grad)?;
    Ok((loss, grad))
}

/// [`cross_entropy`] writing the gradient into a caller-provided buffer
/// (grow-only; every element is overwritten) and returning the loss.
pub fn cross_entropy_into(logits: &Tensor, labels: &[usize], grad: &mut Tensor) -> Result<f32> {
    let (batch, classes) = logits.dims2().map_err(NnError::Tensor)?;
    if labels.len() != batch {
        return Err(NnError::BadLabels {
            reason: format!("{} labels for batch of {batch}", labels.len()),
        });
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
        return Err(NnError::BadLabels {
            reason: format!("label {bad} out of range for {classes} classes"),
        });
    }
    // The gradient starts as the probabilities and is edited in place.
    softmax_rows_into(logits, grad)?;
    let mut loss = 0.0f32;
    let inv_batch = 1.0 / batch as f32;
    for (r, &label) in labels.iter().enumerate() {
        let p = &mut grad.data_mut()[r * classes + label];
        loss -= p.max(1e-12).ln();
        *p -= 1.0;
    }
    grad.scale_inplace(inv_batch);
    Ok(loss * inv_batch)
}

/// Mean-squared error between `pred` and `target` (same shape).
///
/// Loss is `mean((pred − target)²)`; gradient is
/// `2(pred − target)/numel`.
pub fn mse(pred: &Tensor, target: &Tensor) -> Result<(f32, Tensor)> {
    let diff = sub(pred, target)?;
    let n = diff.numel().max(1) as f32;
    let loss = diff.data().iter().map(|v| v * v).sum::<f32>() / n;
    let grad = diff.map(|v| 2.0 * v / n);
    Ok((loss, grad))
}

/// Classification accuracy of logits against labels, in `[0, 1]`.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    let hits = correct(logits, labels)?;
    Ok(if labels.is_empty() {
        0.0
    } else {
        hits as f32 / labels.len() as f32
    })
}

/// Rows of `logits` whose argmax is their label.
pub fn correct(logits: &Tensor, labels: &[usize]) -> Result<usize> {
    let preds = nf_tensor::argmax_rows(logits)?;
    if preds.len() != labels.len() {
        return Err(NnError::BadLabels {
            reason: format!("{} labels for batch of {}", labels.len(), preds.len()),
        });
    }
    Ok(preds.iter().zip(labels).filter(|(p, l)| p == l).count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, grad) = cross_entropy(&logits, &[0, 3]).unwrap();
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        // Gradient rows sum to zero.
        for r in 0..2 {
            let s: f32 = grad.data()[r * 4..(r + 1) * 4].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.5, -1.0, 2.0, 0.1, 0.2, -0.3]).unwrap();
        let labels = [2usize, 0];
        let (_, grad) = cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3f32;
        for i in 0..logits.numel() {
            let mut plus = logits.clone();
            plus.data_mut()[i] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[i] -= eps;
            let (lp, _) = cross_entropy(&plus, &labels).unwrap();
            let (lm, _) = cross_entropy(&minus, &labels).unwrap();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad.data()[i]).abs() < 1e-3,
                "index {i}: numeric {num} vs analytic {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn cross_entropy_validates_labels() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(cross_entropy(&logits, &[0]).is_err());
        assert!(cross_entropy(&logits, &[0, 3]).is_err());
        assert!(cross_entropy(&Tensor::zeros(&[3]), &[0]).is_err());
    }

    #[test]
    fn mse_known_value_and_gradient() {
        let pred = Tensor::from_vec(vec![2], vec![1.0, 3.0]).unwrap();
        let target = Tensor::from_vec(vec![2], vec![0.0, 1.0]).unwrap();
        let (loss, grad) = mse(&pred, &target).unwrap();
        assert!((loss - 2.5).abs() < 1e-6);
        assert_eq!(grad.data(), &[1.0, 2.0]);
    }

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits = Tensor::from_vec(vec![3, 2], vec![2.0, 1.0, 0.0, 5.0, 1.0, 0.0]).unwrap();
        assert_eq!(accuracy(&logits, &[0, 1, 1]).unwrap(), 2.0 / 3.0);
        assert!(accuracy(&logits, &[0]).is_err());
    }
}
