//! The [`Layer`] trait: explicit forward/backward with owned caches.

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
/// Contract:
/// - `forward(x, Mode::Train)` must cache enough to answer one subsequent
///   `backward` call; `forward(x, Mode::Eval)` must not allocate caches.
/// - `backward(grad_out)` consumes the cache, **accumulates** parameter
///   gradients into [`Param::grad`], and returns the gradient with respect
///   to the layer input. Calling it twice without an intervening forward is
///   an error ([`crate::NnError::NoForwardCache`]).
/// - Gradients accumulate across backward calls until [`Layer::zero_grad`].
///
/// `Send` is a supertrait so trained models can move between threads —
/// the federated engine trains clients in parallel and the serve path
/// hands the built model to a dedicated batcher thread. Layers own plain
/// tensor state, so this costs implementors nothing.
pub trait Layer: Send {
    /// Human-readable layer name (used in error messages and reports).
    fn name(&self) -> String;

    /// Computes the layer output for `x`.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Computes the layer output for an affine-`u8` quantized input — the
    /// frozen-block regeneration entry point, where inputs arrive straight
    /// from the int8 activation cache.
    ///
    /// The default decodes to f32 and runs [`Layer::forward`], so every
    /// layer accepts quantized input; the GEMM-backed layers override it
    /// in `Eval` mode with the [`nf_tensor::kernels::int8`] integer
    /// kernel, skipping the decode entirely.
    fn forward_quant(&mut self, x: &QuantTensor, mode: Mode) -> Result<Tensor> {
        self.forward(&x.dequantize()?, mode)
    }

    /// Computes the input gradient from the output gradient, accumulating
    /// parameter gradients.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// [`Layer::backward`] for a caller that will not read the input
    /// gradient: local learning sends no gradient across a unit boundary,
    /// so the first layer of a locally trained unit never needs one.
    /// Parameter gradients must come out bit-identical to `backward`'s.
    ///
    /// The default runs `backward` and drops the result; layers whose
    /// input gradient is a product of its own (`Conv2d`, `Linear`) skip
    /// it, and containers hand the saving to their first layer.
    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.backward(grad_out).map(drop)
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

impl Layer for Box<dyn Layer> {
    fn name(&self) -> String {
        self.as_ref().name()
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        self.as_mut().forward(x, mode)
    }

    fn forward_quant(&mut self, x: &QuantTensor, mode: Mode) -> Result<Tensor> {
        // Must forward explicitly: the blanket default would dispatch the
        // decoded forward on the *box*, never reaching an override on the
        // boxed layer.
        self.as_mut().forward_quant(x, mode)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.as_mut().backward(grad_out)
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
