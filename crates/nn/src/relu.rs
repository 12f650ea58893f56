//! Rectified linear unit.

use crate::error::NnError;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::scratch::InputCache;
use crate::Result;
use nf_tensor::Tensor;

/// Element-wise `max(0, x)` with a cached mask for the backward pass.
///
/// # Examples
///
/// ```
/// use nf_nn::{Layer, Mode, relu::ReLU};
/// use nf_tensor::Tensor;
///
/// let mut r = ReLU::new();
/// let x = Tensor::from_vec(vec![3], vec![-1.0, 0.0, 2.0]).unwrap();
/// let y = r.forward(&x, Mode::Eval).unwrap();
/// assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
/// ```
#[derive(Debug, Default)]
pub struct ReLU {
    mask: InputCache<ReluMask>,
}

impl ReLU {
    /// Creates a new ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Which inputs of a ReLU forward were positive, one bit each: bit `i` of
/// word `w` answers for element `64·w + i`. An eighth of a byte mask and a
/// 32nd of the activation it describes — retained masks are most of what
/// a ReLU adds to a block's footprint.
#[derive(Debug, Default)]
struct ReluMask {
    words: Vec<u64>,
    len: usize,
}

impl Layer for ReLU {
    fn name(&self) -> String {
        "relu".to_string()
    }

    fn forward_into(&mut self, x: &Tensor, mode: Mode, out: &mut Tensor) -> Result<()> {
        out.reuse_as(x.shape());
        if mode == Mode::Eval {
            for (&v, o) in x.data().iter().zip(out.data_mut()) {
                *o = v.max(0.0);
            }
            return Ok(());
        }
        // Output and mask in one pass over the input.
        let mut mask = self.mask.recycle();
        mask.len = x.numel();
        mask.words.resize(x.numel().div_ceil(64), 0);
        let chunks = x.data().chunks(64).zip(out.data_mut().chunks_mut(64));
        for ((xs, os), word) in chunks.zip(mask.words.iter_mut()) {
            let mut bits = 0u64;
            for (i, (&v, o)) in xs.iter().zip(os.iter_mut()).enumerate() {
                *o = v.max(0.0);
                bits |= u64::from(v > 0.0) << i;
            }
            *word = bits;
        }
        self.mask.put_back(mask);
        Ok(())
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) -> Result<()> {
        let mask = self
            .mask
            .take()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        if mask.len != grad_out.numel() {
            let reason = format!(
                "grad has {} elements but cached mask has {}",
                grad_out.numel(),
                mask.len
            );
            self.mask.put_back(mask);
            return Err(NnError::BadInput {
                layer: self.name(),
                reason,
            });
        }
        grad_in.reuse_as(grad_out.shape());
        let chunks = grad_out.data().chunks(64);
        for ((gs, gis), &word) in chunks
            .zip(grad_in.data_mut().chunks_mut(64))
            .zip(&mask.words)
        {
            for (i, (&g, gi)) in gs.iter().zip(gis.iter_mut()).enumerate() {
                *gi = if (word >> i) & 1 != 0 { g } else { 0.0 };
            }
        }
        self.mask.retire(mask);
        Ok(())
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn clear_cache(&mut self) {
        self.mask.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_masks_negative_inputs() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![4], vec![-2.0, -0.0, 0.5, 3.0]).unwrap();
        r.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones(&[4]);
        let gi = r.backward(&g).unwrap();
        assert_eq!(gi.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn double_backward_errors() {
        let mut r = ReLU::new();
        r.forward(&Tensor::ones(&[2]), Mode::Train).unwrap();
        r.backward(&Tensor::ones(&[2])).unwrap();
        assert!(r.backward(&Tensor::ones(&[2])).is_err());
    }

    #[test]
    fn mismatched_grad_shape_errors() {
        let mut r = ReLU::new();
        r.forward(&Tensor::ones(&[2]), Mode::Train).unwrap();
        assert!(r.backward(&Tensor::ones(&[3])).is_err());
    }

    #[test]
    fn packed_mask_matches_the_elementwise_definition() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        // Lengths around the 64-bit mask word, zeros of both signs and NaN.
        for len in [1usize, 63, 64, 65, 128, 1000] {
            let x: Vec<f32> = (0..len)
                .map(|_| match rng.gen_range(0..8) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::NAN,
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect();
            let g: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let x = Tensor::from_vec(vec![len], x).unwrap();
            let g = Tensor::from_vec(vec![len], g).unwrap();
            let mut r = ReLU::new();
            let mut y = Tensor::full(&[len + 70], f32::NAN);
            r.forward_into(&x, Mode::Train, &mut y).unwrap();
            let mut gi = Tensor::full(&[len + 70], f32::NAN);
            r.backward_into(&g, &mut gi).unwrap();
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            // The loops this layer ran before the mask was packed.
            let want_y: Vec<f32> = x.data().iter().map(|v| v.max(0.0)).collect();
            let want_gi: Vec<f32> = x
                .data()
                .iter()
                .zip(g.data())
                .map(|(&v, &g)| if v > 0.0 { g } else { 0.0 })
                .collect();
            assert_eq!(bits(y.data()), bits(&want_y), "len {len}");
            assert_eq!(bits(gi.data()), bits(&want_gi), "len {len}");
            // Eval takes the maskless loop: same values, cache untouched.
            assert_eq!(r.forward(&x, Mode::Eval).unwrap().data().len(), len);
            assert!(r.backward(&g).is_err());
        }
    }

    #[test]
    fn has_no_params() {
        let mut r = ReLU::new();
        assert_eq!(r.param_count(), 0);
    }

    #[test]
    fn gradcheck_relu() {
        crate::gradcheck::check_layer(ReLU::new(), &[2, 5], 2e-2, 3);
    }
}
