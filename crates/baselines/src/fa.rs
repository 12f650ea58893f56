//! Feedback Alignment (Lillicrap et al.): backprop with fixed random
//! feedback weights.
//!
//! FA resolves the "weight transport problem" by propagating error signals
//! through fixed random matrices `B` instead of the transposed forward
//! weights `Wᵀ`. Weight gradients are computed normally (from the incoming
//! error and the cached input), so FA's memory footprint matches BP's —
//! which is why Figure 3 places FA at high memory / low accuracy for CNNs.

use crate::report::TrainReport;
use nf_data::Dataset;
use nf_nn::loss::{accuracy, cross_entropy};
use nf_nn::optim::Sgd;
use nf_nn::{InputCache, Layer, Mode, NnError, PackedPanel, Param};
use nf_tensor::{
    col2im_batch_into, he_normal, im2col_batch_into, lock_workspace, matmul_at_b_into, matmul_into,
    nchw_to_posrows_into, new_owner_token, posrows_to_nchw_into, shared_workspace, sum_axis0_acc,
    transpose2d_into, Conv2dGeometry, KernelBackend, SharedWorkspace, Tensor,
};
use rand::Rng;
use std::sync::Arc;

/// Linear layer whose backward pass uses a fixed random feedback matrix.
pub struct FaLinear {
    weight: Param,
    bias: Param,
    /// Fixed random feedback matrix, same shape as `weight`; never
    /// updated. The hot path reads only its packed transpose below;
    /// retained for tests and introspection.
    #[cfg_attr(not(test), allow(dead_code))]
    feedback: Tensor,
    /// `feedback` transposed `(out, in)` — packed once ever, since the
    /// feedback path is frozen by construction.
    packed_fb: Tensor,
    in_features: usize,
    out_features: usize,
    backend: KernelBackend,
    ws: SharedWorkspace,
    cached_input: InputCache,
}

impl FaLinear {
    /// Creates the layer with independent forward and feedback weights.
    pub fn new<R: Rng>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        let feedback = he_normal(rng, &[in_features, out_features], in_features);
        let mut packed_fb = Tensor::default();
        transpose2d_into(&feedback, &mut packed_fb).expect("feedback is rank-2");
        FaLinear {
            weight: Param::new(he_normal(rng, &[in_features, out_features], in_features)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            feedback,
            packed_fb,
            in_features,
            out_features,
            backend: KernelBackend::default(),
            ws: shared_workspace(),
            cached_input: InputCache::new(),
        }
    }
}

impl Layer for FaLinear {
    fn name(&self) -> String {
        format!("fa_linear({}→{})", self.in_features, self.out_features)
    }

    fn forward_into(&mut self, x: &Tensor, mode: Mode, out: &mut Tensor) -> nf_nn::Result<()> {
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

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) -> nf_nn::Result<()> {
        // Rank check before consuming the cache (see nf-nn's Linear).
        let (gr, gc) = grad_out.dims2()?;
        let x = self
            .cached_input
            .take()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        let backend = self.backend;
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
            matmul_at_b_into(backend, &x, grad_out, p.out, p.pack)?;
            nf_tensor::axpy(1.0, p.out, &mut self.weight.grad)?;
        }
        // db += column sums of g, accumulated in place.
        sum_axis0_acc(grad_out, &mut self.bias.grad)?;
        self.cached_input.retire(x);
        // The error signal travels through the *feedback* matrix (packed
        // at construction, so this is a plain GEMM).
        Ok(matmul_into(backend, grad_out, &self.packed_fb, grad_in)?)
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

/// Convolution whose backward input-gradient uses fixed random feedback
/// filters.
pub struct FaConv2d {
    weight: Param,
    bias: Param,
    feedback: Tensor,
    /// `weight.value` transposed to `(c_in·k·k, c_out)`, re-packed only
    /// when the weight version moves (once per optimizer step).
    packed_wt: PackedPanel,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    backend: KernelBackend,
    ws: SharedWorkspace,
    /// Stamp for the workspace `cols` slot (backward lowering reuse).
    owner_token: u64,
    cached_input: InputCache,
}

impl FaConv2d {
    /// Creates the layer with independent forward and feedback filters.
    pub fn new<R: Rng>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        FaConv2d {
            weight: Param::new(he_normal(rng, &[out_channels, fan_in], fan_in)),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            feedback: he_normal(rng, &[out_channels, fan_in], fan_in),
            packed_wt: PackedPanel::new(),
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            backend: KernelBackend::default(),
            ws: shared_workspace(),
            owner_token: new_owner_token(),
            cached_input: InputCache::new(),
        }
    }

    fn geometry(&self, h: usize, w: usize) -> nf_nn::Result<Conv2dGeometry> {
        Ok(Conv2dGeometry::new(
            h,
            w,
            self.kernel,
            self.kernel,
            self.stride,
            self.pad,
        )?)
    }
}

impl Layer for FaConv2d {
    fn name(&self) -> String {
        format!("fa_conv2d({}→{})", self.in_channels, self.out_channels)
    }

    fn forward_into(&mut self, x: &Tensor, mode: Mode, out: &mut Tensor) -> nf_nn::Result<()> {
        let (n, c, h, w) = x.dims4().map_err(NnError::Tensor)?;
        if c != self.in_channels {
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: format!("expected {} channels, got {c}", self.in_channels),
            });
        }
        let geom = self.geometry(h, w)?;
        let wt = self.packed_wt.get(&self.weight)?;
        // Batched lowering: one GEMM for the whole minibatch (same shape
        // as nf-nn's Conv2d fast path), entirely in workspace scratch.
        let mut ws = lock_workspace(&self.ws);
        let p = ws.parts();
        im2col_batch_into(x, &geom, p.cols)?;
        // Claimed for backward reuse only when backward will see this
        // exact input (see nf-nn's Conv2d).
        *p.cols_owner = if mode == Mode::Train {
            self.owner_token
        } else {
            0
        };
        matmul_into(self.backend, p.cols, wt, p.out)?; // N·P × C_out
        if mode == Mode::Train {
            self.cached_input.store(x);
        }
        // The per-channel bias rides on the transpose back to NCHW.
        let bias = Some(self.bias.value.data());
        let (c_out, oh, ow) = (self.out_channels, geom.out_h, geom.out_w);
        Ok(posrows_to_nchw_into(p.out, bias, n, c_out, oh, ow, out)?)
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) -> nf_nn::Result<()> {
        // Rank check before consuming the cache (see nf-nn's Conv2d).
        let (gn, gc, goh, gow) = grad_out.dims4()?;
        let x = self
            .cached_input
            .take()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        let (n, c, h, w) = x.dims4()?;
        let geom = self.geometry(h, w)?;
        if gn != n || gc != self.out_channels || goh != geom.out_h || gow != geom.out_w {
            self.cached_input.put_back(x);
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
        if *p.cols_owner != self.owner_token {
            im2col_batch_into(&x, &geom, p.cols)?;
            *p.cols_owner = self.owner_token;
        }
        let g = p.posrows; // N·P × C_out
        nchw_to_posrows_into(grad_out, g)?;
        matmul_at_b_into(backend, g, p.cols, p.out, p.pack)?;
        nf_tensor::axpy(1.0, p.out, &mut self.weight.grad)?;
        sum_axis0_acc(g, &mut self.bias.grad)?;
        // Input gradient through the fixed feedback filters (reusing the
        // consumed dW slot).
        matmul_into(backend, g, &self.feedback, p.out)?; // N·P × C·K·K
        col2im_batch_into(p.out, n, c, &geom, grad_in)?;
        drop(ws);
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

/// Feedback-alignment trainer over a small FA CNN built to mirror a spec's
/// depth: FA convs with 2×2 pooling, flatten, FA linear head.
pub struct FaTrainer {
    /// Optimizer configuration.
    pub sgd: Sgd,
    /// Number of epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch: usize,
    /// GEMM kernel backend the run computes on.
    pub kernel_backend: nf_tensor::KernelBackend,
}

/// An FA network: conv stack + linear head, all FA layers.
pub struct FaNetwork {
    layers: Vec<Box<dyn Layer>>,
}

impl FaNetwork {
    /// Builds an FA CNN: one FA conv (+ReLU, pool every second layer) per
    /// channel entry, then flatten + FA linear to `classes`.
    pub fn build<R: Rng>(rng: &mut R, input_hw: usize, channels: &[usize], classes: usize) -> Self {
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let mut in_ch = 3usize;
        let mut hw = input_hw;
        for (i, &out_ch) in channels.iter().enumerate() {
            layers.push(Box::new(FaConv2d::new(rng, in_ch, out_ch, 3, 1, 1)));
            layers.push(Box::new(nf_nn::relu::ReLU::new()));
            if i % 2 == 1 && hw >= 4 {
                layers.push(Box::new(nf_nn::MaxPool2d::new(2, 2)));
                hw /= 2;
            }
            in_ch = out_ch;
        }
        layers.push(Box::new(nf_nn::Flatten::new()));
        layers.push(Box::new(FaLinear::new(rng, in_ch * hw * hw, classes)));
        FaNetwork { layers }
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> nf_nn::Result<Tensor> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, mode)?;
        }
        Ok(cur)
    }
}

impl FaTrainer {
    /// Creates an FA trainer.
    pub fn new(lr: f32, epochs: usize, batch: usize) -> Self {
        FaTrainer {
            sgd: Sgd::new(lr).with_momentum(0.9),
            epochs,
            batch,
            kernel_backend: nf_tensor::KernelBackend::default(),
        }
    }

    /// Trains the FA network, evaluating after every epoch.
    pub fn train(
        &self,
        net: &mut FaNetwork,
        train: &Dataset,
        test: &Dataset,
    ) -> nf_nn::Result<TrainReport> {
        // Pin every layer to the configured backend, sharing one scratch
        // workspace across the whole network.
        let ws = shared_workspace();
        for layer in &mut net.layers {
            layer.set_kernel_backend(self.kernel_backend);
            layer.set_workspace(&ws);
        }
        let mut report = TrainReport::default();
        for _ in 0..self.epochs {
            let mut losses = Vec::new();
            for (images, labels) in train.batches(self.batch) {
                let logits = net.forward(&images, Mode::Train)?;
                let (loss, grad) = cross_entropy(&logits, &labels)?;
                losses.push(loss);
                let mut g = grad;
                for layer in net.layers.iter_mut().rev() {
                    g = layer.backward(&g)?;
                }
                for layer in &mut net.layers {
                    self.sgd.step(layer.as_mut());
                }
            }
            report
                .epoch_loss
                .push(losses.iter().sum::<f32>() / losses.len().max(1) as f32);
            report.train_accuracy.push(self.evaluate(net, train)?);
            report.test_accuracy.push(self.evaluate(net, test)?);
        }
        Ok(report)
    }

    fn evaluate(&self, net: &mut FaNetwork, data: &Dataset) -> nf_nn::Result<f32> {
        if data.is_empty() {
            return Ok(0.0);
        }
        let mut correct = 0.0f32;
        let mut seen = 0usize;
        for (images, labels) in data.batches(64) {
            let logits = net.forward(&images, Mode::Eval)?;
            correct += accuracy(&logits, &labels)? * labels.len() as f32;
            seen += labels.len();
        }
        Ok(correct / seen as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_data::SyntheticSpec;
    use rand::SeedableRng;

    #[test]
    fn fa_linear_uses_feedback_not_transpose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut fa = FaLinear::new(&mut rng, 3, 2);
        let x = Tensor::ones(&[1, 3]);
        fa.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones(&[1, 2]);
        let gi = fa.backward(&g).unwrap();
        // Input grad equals g·Bᵀ, not g·Wᵀ.
        let expected = nf_tensor::matmul_a_bt(&g, &fa.feedback).unwrap();
        assert_eq!(gi, expected);
        let not_expected = nf_tensor::matmul_a_bt(&g, &fa.weight.value).unwrap();
        assert_ne!(gi, not_expected);
    }

    #[test]
    fn fa_learns_something_on_easy_task() {
        // FA is weaker than BP but must still beat chance on an easy task
        // (that is its entire role in Figure 3).
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let ds = SyntheticSpec::quick(2, 8, 64).generate();
        let mut net = FaNetwork::build(&mut rng, 8, &[6, 6], 2);
        let report = FaTrainer::new(0.02, 6, 16)
            .train(&mut net, &ds.train, &ds.test)
            .unwrap();
        assert!(report.loss_improved());
        assert!(
            report.final_test_accuracy() > 0.55,
            "acc {:?}",
            report.test_accuracy
        );
    }

    #[test]
    fn fa_layers_write_into_stale_buffers_what_the_wrappers_return() {
        let bits = |t: &Tensor| {
            let data: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
            (t.shape().to_vec(), data)
        };
        type Build = fn() -> Box<dyn Layer>;
        let builds: [(&[usize], Build); 2] = [
            (&[3, 7], || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(4);
                Box::new(FaLinear::new(&mut rng, 7, 5))
            }),
            (&[2, 3, 6, 5], || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(4);
                Box::new(FaConv2d::new(&mut rng, 3, 4, 3, 1, 1))
            }),
        ];
        for (shape, build) in builds {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let x = nf_tensor::uniform_init(&mut rng, shape, -1.0, 1.0);
            let (mut owning, mut writing) = (build(), build());
            let want = owning.forward(&x, Mode::Train).unwrap();
            let mut got = Tensor::full(&[2, 999], f32::NAN);
            writing.forward_into(&x, Mode::Train, &mut got).unwrap();
            assert_eq!(bits(&got), bits(&want), "{}", owning.name());
            let g = nf_tensor::uniform_init(&mut rng, want.shape(), -1.0, 1.0);
            let want_dx = owning.backward(&g).unwrap();
            let mut dx = Tensor::full(&[2, 999], f32::NAN);
            writing.backward_into(&g, &mut dx).unwrap();
            assert_eq!(bits(&dx), bits(&want_dx), "{}", owning.name());
        }
    }

    #[test]
    fn fa_conv_backward_requires_forward() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut conv = FaConv2d::new(&mut rng, 1, 2, 3, 1, 1);
        assert!(conv.backward(&Tensor::zeros(&[1, 2, 4, 4])).is_err());
    }
}
