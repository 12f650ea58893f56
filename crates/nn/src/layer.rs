//! The [`Layer`] trait: explicit forward/backward into caller-owned
//! buffers, with layer-owned caches.

use crate::param::Param;
use crate::Result;
use nf_tensor::{QuantTensor, Tensor};

/// Whether a forward pass is part of training or evaluation.
///
/// Training forwards cache whatever the backward pass needs (inputs, masks,
/// batch statistics) and update running statistics; evaluation forwards are
/// cache-free and use running statistics. This distinction is precisely the
/// "training needs all the activations, inference does not" asymmetry that
/// motivates the paper (Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: cache for backward, use batch statistics.
    Train,
    /// Inference: no caching, use running statistics.
    Eval,
}

/// A differentiable network component with explicit state.
///
/// A layer **writes into the caller's buffer**: [`Layer::forward_into`] and
/// [`Layer::backward_into`] are the one forward and one backward body every
/// implementation has, built on [`Tensor::reuse_as`] so a caller that keeps
/// its tensors across steps (the Worker, [`crate::Sequential`]) runs a
/// warmed-up step without allocating. The owning entry points
/// ([`Layer::forward`], [`Layer::backward`], [`Layer::forward_quant`]) are
/// provided wrappers that allocate the output and call the `_into` form.
///
/// Contract:
/// - `forward_into(x, Mode::Train, out)` must cache enough to answer one
///   subsequent backward call; `forward_into(x, Mode::Eval, out)` must not
///   touch the caches. `out` arrives with unspecified shape and contents
///   (often the previous step's output) and leaves fully overwritten.
/// - `backward_into(grad_out, grad_in)` consumes the cache, **accumulates**
///   parameter gradients into [`Param::grad`], and writes the gradient with
///   respect to the layer input over `grad_in` (same buffer contract as
///   `out`). Calling it twice without an intervening forward is an error
///   ([`crate::NnError::NoForwardCache`]).
/// - Gradients accumulate across backward calls until [`Layer::zero_grad`].
/// - Cache *storage* (cached inputs, masks, normalised activations) is
///   kept and refilled step after step; [`Layer::clear_cache`] releases it.
///
/// `Send` is a supertrait so trained models can move between threads:
/// the serve path hands each bit-identical model replica to its own
/// batcher thread. Layers own plain tensor state, so this costs
/// implementors nothing.
pub trait Layer: Send {
    /// Human-readable layer name (used in error messages and reports).
    fn name(&self) -> String;

    /// Computes the layer output for `x` into `out`.
    fn forward_into(&mut self, x: &Tensor, mode: Mode, out: &mut Tensor) -> Result<()>;

    /// [`Layer::forward_into`] returning a freshly allocated output.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut out = Tensor::default();
        self.forward_into(x, mode, &mut out)?;
        Ok(out)
    }

    /// Computes the layer output for an affine-`u8` quantized input — the
    /// frozen-block regeneration entry point, where inputs arrive straight
    /// from the int8 activation cache.
    ///
    /// The default decodes to f32 and runs [`Layer::forward_into`], so
    /// every layer accepts quantized input; the GEMM-backed layers
    /// override it in `Eval` mode with the [`nf_tensor::kernels::int8`]
    /// integer kernel, skipping the decode entirely.
    fn forward_quant_into(&mut self, x: &QuantTensor, mode: Mode, out: &mut Tensor) -> Result<()> {
        forward_dequantized(self, x, mode, out)
    }

    /// [`Layer::forward_quant_into`] returning a freshly allocated output.
    fn forward_quant(&mut self, x: &QuantTensor, mode: Mode) -> Result<Tensor> {
        let mut out = Tensor::default();
        self.forward_quant_into(x, mode, &mut out)?;
        Ok(out)
    }

    /// Computes the input gradient from the output gradient into
    /// `grad_in`, accumulating parameter gradients.
    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) -> Result<()>;

    /// [`Layer::backward_into`] returning a freshly allocated gradient.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut grad_in = Tensor::default();
        self.backward_into(grad_out, &mut grad_in)?;
        Ok(grad_in)
    }

    /// The backward pass for a caller that will not read the input
    /// gradient: local learning sends no gradient across a unit boundary,
    /// so the first layer of a locally trained unit never needs one.
    /// Parameter gradients must come out bit-identical to
    /// [`Layer::backward_into`]'s.
    ///
    /// The default runs `backward_into` into a throw-away tensor; layers
    /// whose input gradient is a product of its own (`Conv2d`, `Linear`)
    /// skip it, parameterless `Flatten` and `GlobalAvgPool` only spend
    /// their cache, and containers hand the saving to their first layer.
    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.backward_into(grad_out, &mut Tensor::default())
    }

    /// Visits every trainable parameter (used by optimizers and reporting).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits every persistent non-trainable buffer — state that is not a
    /// parameter but must survive serialisation for inference to
    /// reproduce, such as batch-norm running statistics. Layers without
    /// such state (the default) visit nothing. Buffers are visited in a
    /// deterministic order, the contract checkpointing relies on.
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}

    /// Total number of scalar trainable parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }

    /// Zeroes all accumulated parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Drops any cached forward state (e.g. when evicting a trained block
    /// from "GPU memory" in the NeuroFlux worker).
    fn clear_cache(&mut self) {}

    /// Pins the GEMM kernel backend this layer (and any child layers) runs
    /// its matrix products on. Layers without a GEMM hot path ignore it;
    /// layers that have one run on [`nf_tensor::KernelBackend::default`]
    /// until pinned.
    fn set_kernel_backend(&mut self, _backend: nf_tensor::KernelBackend) {}

    /// Installs the scratch [`nf_tensor::Workspace`] this layer (and any
    /// child layers) lowers its convolutions and matrix products in.
    ///
    /// Layers with a GEMM hot path start with a private workspace, so they
    /// are allocation-free in steady state even standalone; the Worker and
    /// the baseline trainers call this to share **one** workspace across
    /// all layers of a block, bounding scratch to the largest layer's
    /// working set. Layers without a hot path ignore it.
    fn set_workspace(&mut self, _ws: &nf_tensor::SharedWorkspace) {}
}

/// Decodes `x` to f32 and runs `layer`'s f32 forward on it: what a layer
/// without an integer path does with quantized input, and what the ones
/// with one do in `Train` mode (backward differentiates against an f32
/// cached input).
pub(crate) fn forward_dequantized<L: Layer + ?Sized>(
    layer: &mut L,
    x: &QuantTensor,
    mode: Mode,
    out: &mut Tensor,
) -> Result<()> {
    let mut decoded = Tensor::default();
    x.dequantize_into(&mut decoded)?;
    layer.forward_into(&decoded, mode, out)
}

impl Layer for Box<dyn Layer> {
    fn name(&self) -> String {
        self.as_ref().name()
    }

    fn forward_into(&mut self, x: &Tensor, mode: Mode, out: &mut Tensor) -> Result<()> {
        self.as_mut().forward_into(x, mode, out)
    }

    fn forward_quant_into(&mut self, x: &QuantTensor, mode: Mode, out: &mut Tensor) -> Result<()> {
        // Must forward explicitly: the blanket default would dispatch the
        // decoded forward on the *box*, never reaching an override on the
        // boxed layer.
        self.as_mut().forward_quant_into(x, mode, out)
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) -> Result<()> {
        self.as_mut().backward_into(grad_out, grad_in)
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.as_mut().backward_params(grad_out)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.as_mut().visit_params(f)
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.as_mut().visit_buffers(f)
    }

    fn clear_cache(&mut self) {
        self.as_mut().clear_cache()
    }

    fn set_kernel_backend(&mut self, backend: nf_tensor::KernelBackend) {
        self.as_mut().set_kernel_backend(backend)
    }

    fn set_workspace(&mut self, ws: &nf_tensor::SharedWorkspace) {
        self.as_mut().set_workspace(ws)
    }
}
