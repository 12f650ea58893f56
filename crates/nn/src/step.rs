//! The local-learning step (Algorithm 2, lines 3–7), written once for every
//! trainer that runs it: the NeuroFlux Worker, the classic-LL baseline and
//! the step `bench_json` times.

use crate::loss::cross_entropy_into;
use crate::optim::Sgd;
use crate::{Layer, Mode, Result};
use nf_tensor::Tensor;

/// The tensors one local-learning step threads through the layers, kept
/// for a whole run: every layer writes into them in place
/// ([`Layer::forward_into`]), so after the first step of the widest unit no
/// step allocates.
///
/// The caller loads a batch into [`LocalStep::cur`] (`slice_batch_into`,
/// `copy_from`), then runs [`LocalStep::train_unit`] for each unit in
/// order and, where the deep head trains too, [`LocalStep::train_head`].
#[derive(Default)]
pub struct LocalStep {
    /// The current unit's input. Once its forward has run (and its layers
    /// have cached what they need) the buffer is free, and takes the
    /// gradient arriving from the auxiliary head; after the step it holds
    /// the unit's output, the next unit's input.
    pub cur: Tensor,
    /// The current unit's output, swapped into `cur` at the end of the
    /// step. Free between steps: forward-only passes may borrow it.
    pub out: Tensor,
    logits: Tensor,
    grad_logits: Tensor,
}

impl LocalStep {
    /// One unit trained from its local loss: `unit` forward on `cur`,
    /// auxiliary `head` forward, cross-entropy against `labels`, head
    /// backward into the spent input, the unit's parameter gradients (no
    /// input gradient: nothing upstream reads it), then SGD on the unit
    /// and on the head. Returns the local loss.
    pub fn train_unit(
        &mut self,
        sgd: &Sgd,
        unit: &mut dyn Layer,
        head: &mut dyn Layer,
        labels: &[usize],
    ) -> Result<f32> {
        unit.forward_into(&self.cur, Mode::Train, &mut self.out)?;
        head.forward_into(&self.out, Mode::Train, &mut self.logits)?;
        let loss = cross_entropy_into(&self.logits, labels, &mut self.grad_logits)?;
        head.backward_into(&self.grad_logits, &mut self.cur)?;
        unit.backward_params(&self.cur)?;
        sgd.step(unit);
        sgd.step(head);
        std::mem::swap(&mut self.cur, &mut self.out);
        Ok(loss)
    }

    /// The deep head trained on `cur` (the last unit's detached output):
    /// forward, cross-entropy against `labels`, parameter gradients, SGD.
    /// Returns the loss.
    pub fn train_head(&mut self, sgd: &Sgd, head: &mut dyn Layer, labels: &[usize]) -> Result<f32> {
        head.forward_into(&self.cur, Mode::Train, &mut self.logits)?;
        let loss = cross_entropy_into(&self.logits, labels, &mut self.grad_logits)?;
        head.backward_params(&self.grad_logits)?;
        sgd.step(head);
        Ok(loss)
    }
}
