//! 2-D convolution layer (NCHW), lowered to matrix products over a patch
//! matrix that is gathered in place, never built.

use crate::error::NnError;
use crate::layer::{forward_dequantized, Layer, Mode};
use crate::param::Param;
use crate::scratch::{InputCache, PackedPanel, QuantPanel};
use crate::Result;
use nf_tensor::kernels::positions_fit;
use nf_tensor::{
    col2im_batch_into, flip_kernel_panel_into, he_normal, lock_workspace, matmul_into,
    nchw_to_posrows_into, pad_nchw_into, shared_workspace, sum_axis0_acc, Conv2dGeometry,
    ConvGather, KernelBackend, QuantTensor, SharedWorkspace, Tensor,
};
use rand::Rng;
use std::sync::Arc;

/// 2-D convolution over NCHW input.
///
/// Weights are stored pre-flattened as `(c_out, c_in·k·k)`. The whole
/// minibatch is one `(N·OH·OW) × (C·KH·KW)` patch matrix and a *single*
/// large GEMM per pass — large products are what the blocked kernel is
/// fast at — but the matrix is never written: the GEMM reads each element
/// out of the input padded once, through cached offset tables
/// ([`ConvGather`]). Forward, weight gradient and (at stride 1) input
/// gradient are all that one kind of product; only the strided input
/// gradient still runs a dense GEMM and scatters it back with `col2im`.
///
/// Where [`nf_tensor::kernels::positions_fit`] admits the shape (stride
/// 1, output rows at least 16 wide and twice the output channels) the
/// weight and bias gradients are instead one reduction over the output
/// positions ([`ConvGather::wgrad_positions_into`]): the output gradient
/// is read in place as NCHW and the padded input as runs, `dW` is summed in
/// its own layout and the bias alongside, so no position-row copy of the
/// gradient, no `dWᵀ` and no column sums exist. It adds the same terms in
/// another order than the gathered `dWᵀ` product, which the other shapes
/// (and the naive backend) keep. Its lane sums are smaller than the
/// buffers it drops: measured on the repo benchmark (medians of ten runs
/// each), `peak_rss_mb` 18.10 → 18.07 on `compute`, 28.94 → 28.74 on
/// `cache_io` and 30.23 → 29.88 on `quant`.
///
/// A Train forward pads its input once, into the layer's own cache: the
/// forward product reads it there and backward's weight gradient reads it
/// again, so a training step makes one pad and no copy per conv. What
/// backward retains is therefore the *padded* input, larger than the input
/// by its rim (13 % at 32², 27 % at 16²) — measured on the repo benchmark
/// (medians of ten runs each), `peak_rss_mb` +2.9 % on `compute` (17.60 →
/// 18.10 MB: eight convs and eight aux-head convs retained in one block),
/// 0.0 % on `cache_io` and −1.2 % on `quant`, where dropping the copy and
/// the second pad outweighs it.
///
/// Nor is the product ever held as position rows: the GEMM writes the
/// caller's NCHW tensor itself (`nf_tensor::kernels::Dest::Nchw`), the bias
/// added to each finished sum on the way — for a stride-1 layer whose
/// output rows fill a 16-float vector (AVX-512 hosts) with the output
/// positions on the vector lanes, each run stored straight into its
/// channel's plane (`nf_tensor::kernels::lanes_fit`), otherwise a few row
/// panels at a time, transposed while they are cache-hot — so a forward
/// pass and a stride-1 input gradient each make one pass over their output
/// and need no activation-sized scratch for it.
///
/// What scratch there is (the padded input of an eval forward, the padded
/// output gradient, the GEMM's row group, the positions reduction's lane
/// sums — `16·(c_in·k·k + 1)` floats per output channel) lives in a shared
/// [`SharedWorkspace`] (grow-only, installed per
/// block by [`Layer::set_workspace`]), and the weight panels the GEMMs
/// consume (transposed for forward, flipped for the input gradient; read
/// in place as columns by the lane orientation) are cached across the
/// minibatch loop, re-packed only when [`crate::Param::version`] says the
/// weights actually changed — so the steady-state hot path allocates
/// nothing.
/// [`Layer::forward_quant_into`] is the same gathered product in integer
/// arithmetic over an int8-cached input (padded once with its zero-point
/// byte, read through the same position table), dequantized per output
/// channel in the integer tile's registers on its way out to NCHW.
///
/// Matrix products run on the layer's [`KernelBackend`]: the default
/// until [`Layer::set_kernel_backend`] (or [`Conv2d::with_backend`]) pins
/// another.
///
/// With a feedback matrix installed on the weight
/// ([`Param::set_feedback`]) the input gradient multiplies by it where
/// backprop multiplies by the weights — feedback alignment; forward,
/// weight and bias gradients are unchanged.
///
/// # Examples
///
/// ```
/// use nf_nn::{Conv2d, Layer, Mode};
/// use nf_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(&mut rng, 3, 8, 3, 1, 1).unwrap();
/// let y = conv.forward(&Tensor::zeros(&[2, 3, 8, 8]), Mode::Eval).unwrap();
/// assert_eq!(y.shape(), &[2, 8, 8, 8]);
/// ```
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    backend: KernelBackend,
    ws: SharedWorkspace,
    /// Offset tables addressing the input's patch matrix (forward and
    /// weight gradient), rebuilt only when the input geometry changes.
    patches: ConvGather,
    /// The same for the output gradient's patch matrix (input gradient).
    grad_patches: ConvGather,
    /// `weight.value` transposed to `(c_in·k·k, c_out)` — the `B` operand
    /// of the forward GEMM — re-packed only when the weight version moves.
    packed_wt: PackedPanel,
    /// The `(c_out·k·k, c_in)` flipped panel of the weights — or of their
    /// feedback matrix, [`Param::set_feedback`] — the `B` operand of the
    /// input-gradient GEMM, keyed the same way.
    flipped_w: PackedPanel,
    /// Per-output-channel `i8` form of the same panel for
    /// [`Layer::forward_quant`], one quad per kernel row, keyed by the
    /// same weight version.
    quant_wt: QuantPanel,
    /// `i32` accumulators of the int8 product's row blocks that its
    /// decoding tile cannot take (one block per thread), reused across
    /// calls.
    qacc: Vec<i32>,
    cached_input: InputCache,
}

impl Conv2d {
    /// Creates a conv layer with He-normal weights and zero bias.
    ///
    /// `kernel`, `stride`, and `pad` are symmetric in both spatial
    /// dimensions. Returns an error for a zero-sized kernel or stride.
    pub fn new<R: Rng>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self> {
        if kernel == 0 || stride == 0 {
            return Err(NnError::BadInput {
                layer: "conv2d".to_string(),
                reason: "kernel and stride must be positive".to_string(),
            });
        }
        let fan_in = in_channels * kernel * kernel;
        Ok(Conv2d {
            weight: Param::new(he_normal(rng, &[out_channels, fan_in], fan_in)),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            backend: KernelBackend::default(),
            ws: shared_workspace(),
            patches: ConvGather::new(),
            grad_patches: ConvGather::new(),
            packed_wt: PackedPanel::new(),
            flipped_w: PackedPanel::new(),
            quant_wt: QuantPanel::new(),
            qacc: Vec::new(),
            cached_input: InputCache::new(),
        })
    }

    /// Pins the GEMM backend this layer runs on (builder form).
    pub fn with_backend(mut self, backend: KernelBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    fn geometry(&self, h: usize, w: usize) -> Result<Conv2dGeometry> {
        Ok(Conv2dGeometry::new(
            h,
            w,
            self.kernel,
            self.kernel,
            self.stride,
            self.pad,
        )?)
    }

    /// Validates an NCHW input shape against the layer's channel count.
    fn check_input(&self, shape: &[usize]) -> Result<(usize, usize, usize, usize)> {
        let &[n, c, h, w] = shape else {
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: format!("expected NCHW input, got shape {shape:?}"),
            });
        };
        if c != self.in_channels {
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: format!("expected {} input channels, got {c}", self.in_channels),
            });
        }
        Ok((n, c, h, w))
    }

    /// The backward pass; without `grad_in` the input-gradient product is
    /// skipped ([`Layer::backward_params`]).
    fn backward_impl(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) -> Result<()> {
        // Rank check before consuming the cache, so a malformed grad
        // leaves the forward state intact (same contract as the shape
        // check below).
        let (gn, gc, goh, gow) = grad_out.dims4()?;
        let padded = self
            .cached_input
            .take()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        let (n, c, hp, wp) = padded.dims4()?;
        let geom = self.geometry(hp - 2 * self.pad, wp - 2 * self.pad)?;
        if gn != n || gc != self.out_channels || goh != geom.out_h || gow != geom.out_w {
            self.cached_input.put_back(padded);
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: format!(
                    "grad shape {:?} inconsistent with cached input",
                    grad_out.shape(),
                ),
            });
        }
        let backend = self.backend;
        let mut ws = lock_workspace(&self.ws);
        let p = ws.parts();
        let g = p.posrows;
        // Where the shape admits it, dW and db are one reduction over the
        // output positions: `grad_out` read in place, the padded input the
        // forward cached read as runs, `dW` summed in its own layout. The
        // naive backend keeps the composition below, whose oracle it is.
        let on_positions = backend == KernelBackend::Blocked
            && positions_fit(geom.stride, geom.out_w, self.out_channels);
        if on_positions {
            let (dw, db) = (&mut self.weight.grad, &mut self.bias.grad);
            self.patches
                .wgrad_positions_into(&padded, &geom, grad_out, p.pack, dw, db)?;
        } else {
            // g is N·P × C_out; dWᵀ = patchesᵀ · g (C·K·K × C_out), the
            // forward tables swapped over the padded input the forward
            // cached.
            nchw_to_posrows_into(grad_out, g)?;
            self.patches
                .wgrad_into(backend, &padded, &geom, g, p.pack, p.out)?;
            let fan_in = self.weight.grad.shape()[1];
            for (q, dwt_row) in p.out.data().chunks_exact(self.out_channels).enumerate() {
                let dw_col = self.weight.grad.data_mut()[q..].iter_mut().step_by(fan_in);
                for (dw, &v) in dw_col.zip(dwt_row) {
                    *dw += v;
                }
            }
            // db += column sums of g.
            sum_axis0_acc(g, &mut self.bias.grad)?;
        }
        if let Some(dx) = grad_in {
            // Backprop sends the error back through W itself, feedback
            // alignment through the fixed matrix installed on the weight.
            let (version, w_back) = (self.weight.version(), self.weight.backward_operand());
            if let Some(dgeom) = geom.input_grad_geometry() {
                // dx = patches(grad_out) · flipped(W): a stride-1
                // convolution of the padded gradient, every dx element
                // gathered once instead of scatter-added K·K times, the
                // product written as NCHW like the forward's.
                let (cin, k) = (self.in_channels, self.kernel);
                let flipped = self.flipped_w.get_with(version, w_back, |w, out| {
                    flip_kernel_panel_into(w, cin, k, k, out)
                })?;
                let g_padded = padded_operand(grad_out, dgeom.pad, p.cols)?;
                self.grad_patches
                    .dgrad_into(backend, g_padded, &dgeom, flipped, p.pack, dx)?;
            } else {
                // Strided (or over-padded) convolutions: dcols = g · W
                // (N·P × C·K·K), scattered back to image space.
                if on_positions {
                    nchw_to_posrows_into(grad_out, g)?;
                }
                matmul_into(backend, g, w_back, p.out)?;
                col2im_batch_into(p.out, n, c, &geom, dx)?;
            }
        }
        drop(ws);
        // Retire the consumed cache buffer for the next forward to pad into.
        self.cached_input.retire(padded);
        Ok(())
    }
}

/// `x` padded by `pad` into `buf`, or `x` itself when there is no padding:
/// the operand a gathered product reads.
fn padded_operand<'a>(
    x: &'a Tensor,
    pad: usize,
    buf: &'a mut Tensor,
) -> nf_tensor::Result<&'a Tensor> {
    if pad == 0 {
        return Ok(x);
    }
    pad_nchw_into(x, pad, buf)?;
    Ok(buf)
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!(
            "conv2d({}→{}, k{}, s{}, p{})",
            self.in_channels, self.out_channels, self.kernel, self.stride, self.pad
        )
    }

    fn forward_into(&mut self, x: &Tensor, mode: Mode, out: &mut Tensor) -> Result<()> {
        let (_, _, h, w) = self.check_input(x.shape())?;
        let geom = self.geometry(h, w)?;
        let wt = self.packed_wt.get(&self.weight)?;
        // One gathered GEMM for the whole minibatch:
        // (N·P × C·K·K) · (C·K·K × C_out), its rows (positions) × columns
        // (output channels) written straight into `out` as NCHW, the
        // per-channel bias added on the way.
        let mut ws = lock_workspace(&self.ws);
        let p = ws.parts();
        let bias = Some(self.bias.value.data());
        // The product reads the input padded once: in training into the
        // layer's cache, which the weight gradient reads again in backward;
        // otherwise into workspace scratch.
        let mut cache = (mode == Mode::Train).then(|| self.cached_input.recycle());
        let done = match cache.as_mut() {
            Some(buf) => pad_nchw_into(x, self.pad, buf).map(|()| &*buf),
            None => padded_operand(x, self.pad, p.cols),
        }
        .and_then(|padded| {
            self.patches
                .forward_into(self.backend, padded, &geom, wt, bias, p.pack, out)
        });
        match (cache, &done) {
            (Some(buf), Ok(())) => self.cached_input.put_back(buf),
            (Some(buf), Err(_)) => self.cached_input.retire(buf),
            (None, _) => {}
        }
        Ok(done?)
    }

    fn forward_quant_into(&mut self, x: &QuantTensor, mode: Mode, out: &mut Tensor) -> Result<()> {
        if mode == Mode::Train {
            // Backward differentiates against an f32 cached input, so the
            // training path must run the f32 forward.
            return forward_dequantized(self, x, mode, out);
        }
        let (_, _, h, w) = self.check_input(x.shape())?;
        let geom = self.geometry(h, w)?;
        let version = self.weight.version();
        let wt = self.packed_wt.get(&self.weight)?;
        let rhs = self.quant_wt.get_runs(version, wt, self.kernel)?;
        // The same gathered product as the f32 forward, in the quantized
        // domain: the input is padded once with the code for real 0.0, so
        // the integer GEMM sees exactly what the f32 lowering would have
        // encoded, and reads it in place through the same tables. Its
        // accumulators are dequantized, bias added, on the way to NCHW.
        let mut ws = lock_workspace(&self.ws);
        let p = ws.parts();
        let bias = self.bias.value.data();
        self.patches.forward_quant_nchw_into(
            x,
            &geom,
            rhs,
            bias,
            p.cols_u8,
            &mut self.qacc,
            out,
        )?;
        Ok(())
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) -> Result<()> {
        self.backward_impl(grad_out, Some(grad_in))
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.backward_impl(grad_out, None)
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
    fn identity_kernel_passes_input_through() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 1, 1, 1, 1, 0).unwrap();
        conv.weight.value = Tensor::ones(&[1, 1]);
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 1, 1, 3, 1, 1).unwrap();
        // Sum-of-window kernel, bias 1.
        conv.weight.value = Tensor::ones(&[1, 9]);
        conv.bias.value = Tensor::from_vec(vec![1], vec![1.0]).unwrap();
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x, Mode::Eval).unwrap();
        // Centre sees 9 ones + bias; corners see 4 ones + bias.
        assert_eq!(y.at(&[0, 0, 1, 1]), 10.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 5.0);
    }

    #[test]
    fn stride_halves_spatial_dims() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 2, 4, 3, 2, 1).unwrap();
        let y = conv
            .forward(&Tensor::zeros(&[1, 2, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn rejects_wrong_channels_and_rank() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 3, 4, 3, 1, 1).unwrap();
        assert!(conv
            .forward(&Tensor::zeros(&[1, 2, 4, 4]), Mode::Train)
            .is_err());
        assert!(conv
            .forward(&Tensor::zeros(&[3, 4, 4]), Mode::Train)
            .is_err());
        assert!(Conv2d::new(&mut rng, 1, 1, 0, 1, 0).is_err());
        assert!(Conv2d::new(&mut rng, 1, 1, 3, 0, 0).is_err());
    }

    #[test]
    fn backward_needs_forward_and_consistent_grad() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 1, 2, 3, 1, 1).unwrap();
        assert!(conv.backward(&Tensor::zeros(&[1, 2, 4, 4])).is_err());
        conv.forward(&Tensor::zeros(&[1, 1, 4, 4]), Mode::Train)
            .unwrap();
        assert!(conv.backward(&Tensor::zeros(&[1, 2, 3, 3])).is_err());
    }

    #[test]
    fn param_count_matches_formula() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 3, 16, 3, 1, 1).unwrap();
        assert_eq!(conv.param_count(), 16 * 3 * 9 + 16);
    }

    #[test]
    fn forward_quant_matches_f32_forward_on_exact_grid_weights() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(&mut rng, 2, 3, 3, 1, 1).unwrap();
        // Weights on the exact int8 grid (integers / 63, every output
        // channel touching ±1.0): per-channel quantization is lossless,
        // so the integer path must track the f32 forward to f32 rounding
        // error — any structural bug (packing, padding byte, bias fusion,
        // NCHW scatter) shows up far above the tolerance.
        let fan_in = 2 * 3 * 3;
        let mut wdata: Vec<f32> = (0..3 * fan_in)
            .map(|i| (((i * 5) % 127) as f32 - 63.0) / 63.0)
            .collect();
        for ch in 0..3 {
            wdata[ch * fan_in] = 1.0;
        }
        conv.weight.value = Tensor::from_vec(vec![3, fan_in], wdata).unwrap();
        conv.bias.value = Tensor::from_vec(vec![3], vec![0.1, -0.2, 0.3]).unwrap();
        // Encoding with real 0.0 exactly on the grid (byte 128), so the
        // quantized pad byte decodes to the same 0.0 the f32 oracle pads
        // with.
        let mut xq = QuantTensor::new();
        let bytes: Vec<u8> = (0..2 * 2 * 5 * 5).map(|i| ((i * 37) % 256) as u8).collect();
        xq.reuse_as(&[2, 2, 5, 5], 1.0 / 128.0, -1.0)
            .copy_from_slice(&bytes);
        let want = conv.forward(&xq.dequantize().unwrap(), Mode::Eval).unwrap();
        let got = conv.forward_quant(&xq, Mode::Eval).unwrap();
        assert_eq!(got.shape(), want.shape());
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() < 1e-3 * (1.0 + w.abs()), "{g} vs {w}");
        }
        // Second call reuses the cached quantized panel — must be
        // bitwise-identical.
        let again = conv.forward_quant(&xq, Mode::Eval).unwrap();
        assert_eq!(again.data(), got.data());
    }

    #[test]
    fn forward_quant_is_the_explicit_composition_bit_for_bit() {
        use nf_tensor::kernels::int8::{self, QuantizedLhs, QuantizedRhs};
        use nf_tensor::{im2col_batch_u8_into, posrows_to_nchw, transpose2d};
        // The gathered layer against the lowering it replaced, spelled
        // out: u8 im2col → dense i32 GEMM → dequantize + bias → NCHW. The
        // repo benchmark's three `quant` entry layers at their
        // regeneration batch, one strided and one 5×5 (two quads per
        // kernel row) layer on a non-square input.
        for (n, c_in, c_out, h, w, k, stride, pad) in [
            (
                6usize, 8usize, 8usize, 48usize, 48usize, 3usize, 1usize, 1usize,
            ),
            (17, 8, 12, 24, 24, 3, 1, 1),
            (17, 12, 12, 24, 24, 3, 1, 1),
            (3, 4, 5, 9, 11, 3, 2, 1),
            (2, 3, 20, 7, 10, 5, 1, 2),
        ] {
            let mut rng = rand::rngs::StdRng::seed_from_u64((n * c_out + k) as u64);
            let mut conv = Conv2d::new(&mut rng, c_in, c_out, k, stride, pad).unwrap();
            conv.bias.value = nf_tensor::uniform_init(&mut rng, &[c_out], -0.5, 0.5);
            let x = nf_tensor::uniform_init(&mut rng, &[n, c_in, h, w], -1.0, 3.0);
            let xq = QuantTensor::from_f32(&x);
            let got = conv.forward_quant(&xq, Mode::Eval).unwrap();

            let geom = conv.geometry(h, w).unwrap();
            let wt = transpose2d(&conv.weight.value).unwrap();
            let mut rhs = QuantizedRhs::default();
            rhs.pack_from_f32(wt.data(), c_in * k * k, c_out);
            let mut lhs = QuantizedLhs::default();
            let pad_byte = int8::zero_point(xq.min(), xq.scale());
            let (rows, _) = im2col_batch_u8_into(&xq, &geom, pad_byte, &mut lhs).unwrap();
            let mut acc = Vec::new();
            int8::gemm_i32(&lhs, &rhs, &mut acc);
            let mut out = Tensor::zeros(&[rows, c_out]);
            int8::dequantize_into(
                xq.scale(),
                xq.min(),
                &rhs,
                &acc,
                Some(conv.bias.value.data()),
                &mut Vec::new(),
                out.data_mut(),
            );
            let want = posrows_to_nchw(&out, n, c_out, geom.out_h, geom.out_w).unwrap();
            assert_eq!(got.shape(), want.shape());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{}", conv.name());
        }
    }

    #[test]
    fn forward_quant_train_falls_back_and_caches() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut conv = Conv2d::new(&mut rng, 1, 2, 3, 1, 1).unwrap();
        let x = Tensor::from_vec(vec![1, 1, 4, 4], (0..16).map(|i| i as f32).collect()).unwrap();
        let xq = QuantTensor::from_f32(&x);
        let y = conv.forward_quant(&xq, Mode::Train).unwrap();
        assert!(conv.backward(&Tensor::ones(y.shape())).is_ok());
        // Wrong channel count is rejected on the quant path too.
        let bad = QuantTensor::from_f32(&Tensor::zeros(&[1, 2, 4, 4]));
        assert!(conv.forward_quant(&bad, Mode::Eval).is_err());
    }

    #[test]
    fn gradcheck_conv2d() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let conv = Conv2d::new(&mut rng, 2, 3, 3, 1, 1).unwrap();
        crate::gradcheck::check_layer(conv, &[2, 2, 4, 4], 5e-2, 21);
    }

    #[test]
    fn gradcheck_strided_conv2d() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let conv = Conv2d::new(&mut rng, 1, 2, 2, 2, 0).unwrap();
        crate::gradcheck::check_layer(conv, &[1, 1, 4, 4], 5e-2, 22);
    }
}
