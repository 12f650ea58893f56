//! Reductions and row-wise softmax.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;

/// Sum of all elements.
pub fn sum_all(t: &Tensor) -> f32 {
    t.data().iter().sum()
}

/// Mean of all elements; `0.0` for an empty tensor.
pub fn mean_all(t: &Tensor) -> f32 {
    if t.numel() == 0 {
        0.0
    } else {
        sum_all(t) / t.numel() as f32
    }
}

/// Sums a rank-2 tensor over its rows, producing a length-`cols` vector.
///
/// This is the bias-gradient reduction used by every layer backward.
pub fn sum_axis0(t: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::zeros(&[t.shape().last().copied().unwrap_or(0)]);
    sum_axis0_acc(t, &mut out)?;
    Ok(out)
}

/// Accumulates the column sums of a rank-2 tensor into `acc` (length
/// `cols`, rank 1) without allocating — the in-place bias-gradient
/// reduction (`db += Σ_rows g`) every layer backward runs.
pub fn sum_axis0_acc(t: &Tensor, acc: &mut Tensor) -> Result<()> {
    let (rows, cols) = t.dims2()?;
    if acc.rank() != 1 || acc.numel() != cols {
        return Err(TensorError::shape_mismatch(
            "sum_axis0_acc",
            t.shape(),
            acc.shape(),
        ));
    }
    let av = acc.data_mut();
    for r in 0..rows {
        let row = &t.data()[r * cols..(r + 1) * cols];
        for (o, v) in av.iter_mut().zip(row) {
            *o += v;
        }
    }
    Ok(())
}

/// Index of the maximum element of each row of a rank-2 tensor.
///
/// Ties resolve to the first maximal index, matching `argmax` conventions.
pub fn argmax_rows(t: &Tensor) -> Result<Vec<usize>> {
    let (rows, cols) = t.dims2()?;
    if cols == 0 {
        return Err(TensorError::InvalidGeometry(
            "argmax over zero columns".into(),
        ));
    }
    let mut out = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = &t.data()[r * cols..(r + 1) * cols];
        let mut best = 0usize;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        out.push(best);
    }
    Ok(out)
}

/// Numerically stable row-wise softmax of a rank-2 logits tensor.
///
/// # Examples
///
/// ```
/// use nf_tensor::{softmax_rows, Tensor};
///
/// let logits = Tensor::from_vec(vec![1, 2], vec![0.0, 0.0]).unwrap();
/// let p = softmax_rows(&logits).unwrap();
/// assert!((p.data()[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_rows(t: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::default();
    softmax_rows_into(t, &mut out)?;
    Ok(out)
}

/// [`softmax_rows`] writing into a caller-provided buffer (grow-only;
/// every element is overwritten).
pub fn softmax_rows_into(t: &Tensor, out: &mut Tensor) -> Result<()> {
    let (rows, cols) = t.dims2()?;
    out.reuse_as(&[rows, cols]);
    if cols == 0 {
        return Ok(());
    }
    let rows_in = t.data().chunks_exact(cols);
    for (row, dst) in rows_in.zip(out.data_mut().chunks_exact_mut(cols)) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for (d, &v) in dst.iter_mut().zip(row) {
            let e = (v - max).exp();
            *d = e;
            z += e;
        }
        let inv = 1.0 / z;
        for d in dst.iter_mut() {
            *d *= inv;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sums_and_means() {
        let t = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]).unwrap();
        assert_eq!(sum_all(&t), 10.0);
        assert_eq!(mean_all(&t), 2.5);
        assert_eq!(mean_all(&Tensor::zeros(&[0])), 0.0);
    }

    #[test]
    fn sum_axis0_matches_manual() {
        let t = Tensor::from_vec(vec![3, 2], vec![1., 10., 2., 20., 3., 30.]).unwrap();
        let s = sum_axis0(&t).unwrap();
        assert_eq!(s.data(), &[6.0, 60.0]);
        assert!(sum_axis0(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn argmax_ties_take_first() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 3., 3., 5., 4., 2.]).unwrap();
        assert_eq!(argmax_rows(&t).unwrap(), vec![1, 0]);
        assert!(argmax_rows(&Tensor::zeros(&[2, 0])).is_err());
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::from_vec(vec![1, 3], vec![1000.0, 1000.0, 1000.0]).unwrap();
        let p = softmax_rows(&t).unwrap();
        for &v in p.data() {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    proptest! {
        #[test]
        fn softmax_rows_sum_to_one(
            rows in 1usize..4,
            cols in 1usize..6,
            seed in 0u64..500,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let t = Tensor::from_vec(
                vec![rows, cols],
                (0..rows * cols).map(|_| rng.gen_range(-8.0..8.0)).collect(),
            ).unwrap();
            let p = softmax_rows(&t).unwrap();
            for r in 0..rows {
                let s: f32 = p.data()[r * cols..(r + 1) * cols].iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-4);
            }
            // Softmax preserves the argmax.
            prop_assert_eq!(argmax_rows(&t).unwrap(), argmax_rows(&p).unwrap());
        }
    }
}
