//! Fully-connected layer.

use crate::error::NnError;
use crate::layer::{forward_dequantized, Layer, Mode};
use crate::param::Param;
use crate::scratch::{InputCache, PackedPanel, QuantPanel};
use crate::Result;
use nf_tensor::kernels::int8;
use nf_tensor::{
    he_normal, lock_workspace, matmul_at_b_into, matmul_into, shared_workspace, sum_axis0_acc,
    transpose2d_into, KernelBackend, QuantTensor, SharedWorkspace, Tensor,
};
use rand::Rng;
use std::sync::Arc;

/// Fully-connected layer: `y = x·W + b` with `W: (in, out)`, `b: (out)`.
///
/// Accepts rank-2 input `(batch, in_features)`. Matrix products run on the
/// layer's [`KernelBackend`]: the default until
/// [`Layer::set_kernel_backend`] (or [`Linear::with_backend`]) pins another.
/// With a feedback matrix installed on the weight
/// ([`Param::set_feedback`]) the input gradient is `g·Bᵀ` instead of
/// `g·Wᵀ` (feedback alignment); nothing else changes.
///
/// # Examples
///
/// ```
/// use nf_nn::{Layer, Linear, Mode};
/// use nf_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut l = Linear::new(&mut rng, 3, 5);
/// let y = l.forward(&Tensor::zeros(&[2, 3]), Mode::Eval).unwrap();
/// assert_eq!(y.shape(), &[2, 5]);
/// ```
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    backend: KernelBackend,
    ws: SharedWorkspace,
    /// The weights — or their feedback matrix, [`Param::set_feedback`] —
    /// transposed to `(out, in)`: the `B` operand of the input-gradient
    /// GEMM, re-packed only when the weight version moves.
    packed_wt: PackedPanel,
    /// Per-output-feature `i8` form of `weight.value` (already `K×N`) for
    /// [`Layer::forward_quant`], keyed by the weight version.
    quant_wt: QuantPanel,
    /// Quantized input rows (the int8 GEMM `A` operand), reused across
    /// calls.
    qlhs: int8::QuantizedLhs,
    /// `i32` accumulator buffer for the int8 GEMM, reused across calls.
    qacc: Vec<i32>,
    cached_input: InputCache,
}

impl Linear {
    /// Creates a layer with He-normal weights and zero bias.
    pub fn new<R: Rng>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        Linear {
            weight: Param::new(he_normal(rng, &[in_features, out_features], in_features)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            backend: KernelBackend::default(),
            ws: shared_workspace(),
            packed_wt: PackedPanel::new(),
            quant_wt: QuantPanel::new(),
            qlhs: int8::QuantizedLhs::default(),
            qacc: Vec::new(),
            cached_input: InputCache::new(),
        }
    }

    /// Pins the GEMM backend this layer runs on (builder form).
    pub fn with_backend(mut self, backend: KernelBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Read-only access to the weight parameter (for tests/inspection).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Validates a `(rows, in_features)` input shape and returns `rows`.
    fn check_features(&self, shape: &[usize]) -> Result<usize> {
        let &[rows, cols] = shape else {
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: format!("expected rank-2 input, got shape {shape:?}"),
            });
        };
        if cols != self.in_features {
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: format!("expected {} features, got {cols}", self.in_features),
            });
        }
        Ok(rows)
    }
}

impl Layer for Linear {
    fn name(&self) -> String {
        format!("linear({}→{})", self.in_features, self.out_features)
    }

    fn forward_into(&mut self, x: &Tensor, mode: Mode, out: &mut Tensor) -> Result<()> {
        self.check_features(x.shape())?;
        matmul_into(self.backend, x, &self.weight.value, out)?;
        let b = self.bias.value.data();
        for row in out.data_mut().chunks_mut(self.out_features) {
            for (v, bv) in row.iter_mut().zip(b) {
                *v += bv;
            }
        }
        if mode == Mode::Train {
            self.cached_input.store(x);
        }
        Ok(())
    }

    fn forward_quant_into(&mut self, x: &QuantTensor, mode: Mode, out: &mut Tensor) -> Result<()> {
        if mode == Mode::Train {
            // Backward differentiates against an f32 cached input, so the
            // training path must run the f32 forward.
            return forward_dequantized(self, x, mode, out);
        }
        let rows = self.check_features(x.shape())?;
        // `weight.value` is already the `K×N` GEMM panel, so the quantized
        // panel packs straight from it; the input bytes repack into the
        // 4-padded row stride the kernel wants without re-quantizing.
        let rhs = self
            .quant_wt
            .get(self.weight.version(), &self.weight.value)?;
        self.qlhs
            .from_rows_u8(x.data(), rows, self.in_features, x.scale(), x.min());
        int8::gemm_i32(&self.qlhs, rhs, &mut self.qacc);
        out.reuse_as(&[rows, self.out_features]);
        int8::dequantize_into(
            x.scale(),
            x.min(),
            rhs,
            &self.qacc,
            Some(self.bias.value.data()),
            lock_workspace(&self.ws).parts().pack,
            out.data_mut(),
        );
        Ok(())
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) -> Result<()> {
        self.backward_params(grad_out)?;
        // dx = g · Wᵀ as a plain GEMM against the packed panel (g · Bᵀ
        // when a feedback matrix is installed on the weight).
        let w_back = self.weight.backward_operand();
        let wt = self
            .packed_wt
            .get_with(self.weight.version(), w_back, transpose2d_into)?;
        Ok(matmul_into(self.backend, grad_out, wt, grad_in)?)
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        // Rank check before consuming the cache, so a malformed grad
        // leaves the forward state intact.
        let (gr, gc) = grad_out.dims2()?;
        let x = self
            .cached_input
            .take()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        // dW = xᵀ · g, db = Σ_rows g.
        if gr != x.shape()[0] || gc != self.out_features {
            self.cached_input.put_back(x);
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: format!("grad shape {:?} inconsistent with layer", grad_out.shape()),
            });
        }
        {
            let mut ws = lock_workspace(&self.ws);
            let p = ws.parts();
            matmul_at_b_into(self.backend, &x, grad_out, p.out, p.pack)?;
            nf_tensor::axpy(1.0, p.out, &mut self.weight.grad)?;
        }
        // db += column sums of g, accumulated in place.
        sum_axis0_acc(grad_out, &mut self.bias.grad)?;
        self.cached_input.retire(x);
        Ok(())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn clear_cache(&mut self) {
        self.cached_input.clear();
    }

    fn set_kernel_backend(&mut self, backend: KernelBackend) {
        self.backend = backend;
    }

    fn set_workspace(&mut self, ws: &SharedWorkspace) {
        self.ws = Arc::clone(ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual_computation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut l = Linear::new(&mut rng, 2, 2);
        l.weight.value = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]).unwrap();
        l.bias.value = Tensor::from_vec(vec![2], vec![0.5, -0.5]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1., 1.]).unwrap();
        let y = l.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn rejects_wrong_feature_count() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut l = Linear::new(&mut rng, 3, 2);
        assert!(matches!(
            l.forward(&Tensor::zeros(&[1, 4]), Mode::Train),
            Err(NnError::BadInput { .. })
        ));
        assert!(l.forward(&Tensor::zeros(&[4]), Mode::Train).is_err());
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut l = Linear::new(&mut rng, 2, 2);
        assert!(matches!(
            l.backward(&Tensor::zeros(&[1, 2])),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut l = Linear::new(&mut rng, 2, 2);
        l.forward(&Tensor::zeros(&[1, 2]), Mode::Eval).unwrap();
        assert!(l.backward(&Tensor::zeros(&[1, 2])).is_err());
    }

    #[test]
    fn param_count_is_correct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut l = Linear::new(&mut rng, 3, 5);
        assert_eq!(l.param_count(), 3 * 5 + 5);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut l = Linear::new(&mut rng, 2, 1);
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 1]);
        l.forward(&x, Mode::Train).unwrap();
        l.backward(&g).unwrap();
        let first = l.weight.grad.clone();
        l.forward(&x, Mode::Train).unwrap();
        l.backward(&g).unwrap();
        for (a, b) in l.weight.grad.data().iter().zip(first.data()) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
        l.zero_grad();
        assert!(l.weight.grad.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn forward_quant_matches_f32_forward_on_exact_grid_weights() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut l = Linear::new(&mut rng, 5, 4);
        // Exact int8-grid weights (integers / 63, every column touching
        // 1.0): quantization is lossless, so the integer path must track
        // the f32 forward to rounding error.
        let mut wdata: Vec<f32> = (0..20)
            .map(|i| (((i * 11) % 127) as f32 - 63.0) / 63.0)
            .collect();
        for w in wdata.iter_mut().take(4) {
            *w = 1.0;
        }
        l.weight.value = Tensor::from_vec(vec![5, 4], wdata).unwrap();
        l.bias.value = Tensor::from_vec(vec![4], vec![0.5, -0.5, 0.25, 0.0]).unwrap();
        let x =
            Tensor::from_vec(vec![3, 5], (0..15).map(|i| i as f32 / 7.0 - 1.0).collect()).unwrap();
        let xq = QuantTensor::from_f32(&x);
        let want = l.forward(&xq.dequantize().unwrap(), Mode::Eval).unwrap();
        let got = l.forward_quant(&xq, Mode::Eval).unwrap();
        assert_eq!(got.shape(), want.shape());
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() < 1e-3 * (1.0 + w.abs()), "{g} vs {w}");
        }
    }

    #[test]
    fn forward_quant_train_falls_back_and_caches() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut l = Linear::new(&mut rng, 3, 2);
        let x = Tensor::from_vec(vec![2, 3], vec![0., 1., 2., 3., 4., 5.]).unwrap();
        let xq = QuantTensor::from_f32(&x);
        l.forward_quant(&xq, Mode::Train).unwrap();
        assert!(l.backward(&Tensor::ones(&[2, 2])).is_ok());
        // Wrong feature count is rejected on the quant path too.
        let bad = QuantTensor::from_f32(&Tensor::zeros(&[2, 4]));
        assert!(l.forward_quant(&bad, Mode::Eval).is_err());
    }

    #[test]
    fn gradcheck_linear() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let layer = Linear::new(&mut rng, 3, 2);
        crate::gradcheck::check_layer(layer, &[2, 3], 4e-2, 11);
    }
}
