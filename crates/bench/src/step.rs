//! The training step `bench_json` times: one minibatch through every unit
//! of a model under local learning (Algorithm 2's inner loop).
//!
//! It is written out here rather than driven through the Worker so the
//! timed region holds the step and nothing else (no slicing of a dataset,
//! no epoch bookkeeping). `tests/step_matches_worker.rs` holds it to the
//! parameters `Worker::train_block` leaves, bit for bit, so it cannot
//! drift from the product.

use nf_models::{assign_aux, build_aux_head, AuxPolicy, BuiltModel, ModelSpec};
use nf_nn::loss::cross_entropy_into;
use nf_nn::optim::Sgd;
use nf_nn::{Layer, Mode, Sequential};
use nf_tensor::Tensor;
use rand::rngs::StdRng;

/// A model, its adaptive auxiliary heads, and the tensors one step
/// threads through them, kept across steps as the Worker keeps them.
pub struct LocalStep {
    /// The model whose units the step trains.
    pub model: BuiltModel,
    /// One auxiliary head per unit.
    pub heads: Vec<Sequential>,
    sgd: Sgd,
    cur: Tensor,
    out: Tensor,
    logits: Tensor,
    grad_logits: Tensor,
}

impl LocalStep {
    /// Builds `spec` and then its adaptive heads from `rng`, arranged as
    /// the Worker arranges them: one shared workspace for the unit chain,
    /// one for the heads (a private workspace per layer would read
    /// systematically faster than `nf train`).
    pub fn new(rng: &mut StdRng, spec: &ModelSpec, sgd: Sgd) -> nf_nn::Result<Self> {
        let mut model = spec.build(rng)?;
        let mut heads = assign_aux(spec, AuxPolicy::Adaptive)
            .iter()
            .map(|a| build_aux_head(rng, a))
            .collect::<nf_nn::Result<Vec<_>>>()?;
        let ws_units = nf_tensor::shared_workspace();
        let ws_heads = nf_tensor::shared_workspace();
        for (unit, head) in model.units.iter_mut().zip(heads.iter_mut()) {
            unit.set_workspace(&ws_units);
            head.set_workspace(&ws_heads);
        }
        Ok(LocalStep {
            model,
            heads,
            sgd,
            cur: Tensor::default(),
            out: Tensor::default(),
            logits: Tensor::default(),
            grad_logits: Tensor::default(),
        })
    }

    /// One step on `images` / `labels`: per unit, forward → auxiliary
    /// forward → loss → auxiliary backward → the unit's parameter
    /// gradients → SGD on both; the unit's spent input takes the gradient.
    pub fn run(&mut self, images: &Tensor, labels: &[usize]) -> nf_nn::Result<()> {
        self.cur.copy_from(images);
        for (unit, head) in self.model.units.iter_mut().zip(self.heads.iter_mut()) {
            unit.forward_into(&self.cur, Mode::Train, &mut self.out)?;
            head.forward_into(&self.out, Mode::Train, &mut self.logits)?;
            cross_entropy_into(&self.logits, labels, &mut self.grad_logits)?;
            head.backward_into(&self.grad_logits, &mut self.cur)?;
            unit.backward_params(&self.cur)?;
            self.sgd.step(unit);
            self.sgd.step(head);
            std::mem::swap(&mut self.cur, &mut self.out);
        }
        Ok(())
    }
}
