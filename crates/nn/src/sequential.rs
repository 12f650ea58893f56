//! Ordered container of layers.

use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::Result;
use nf_tensor::{lock_workspace, QuantTensor, SharedWorkspace, Tensor};
use std::sync::Arc;

/// A stack of layers applied in order; backward runs in reverse.
///
/// End-to-end backpropagation over a `Sequential` is the paper's BP
/// baseline; NeuroFlux instead builds many small `Sequential`s (one per
/// layer + auxiliary head) and trains them locally.
///
/// Activations travel from one layer to the next through two hand-off
/// buffers that live in the chain's [`SharedWorkspace`] — one pair per
/// arena, shared by every chain installed on it — while the entry layer
/// reads the caller's tensor and the exit layer writes the caller's
/// buffer, so a warmed-up pass through the container allocates nothing
/// and copies nothing it does not compute.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    ws: SharedWorkspace,
}

/// The hand-off buffers of one pass through a container, taken *out* of
/// the workspace for its duration: the layers of the chain lock the
/// workspace themselves, and the mutex is not re-entrant.
pub(crate) fn take_handoff<const N: usize>(ws: &SharedWorkspace) -> [Tensor; N] {
    let mut ws = lock_workspace(ws);
    std::array::from_fn(|_| ws.take_handoff())
}

/// Returns [`take_handoff`]'s buffers, last out first in, so the
/// container's next pass pops the same ones (a nested container's sit
/// below).
pub(crate) fn give_handoff<const N: usize>(ws: &SharedWorkspace, bufs: [Tensor; N]) {
    let mut ws = lock_workspace(ws);
    bufs.into_iter().rev().for_each(|buf| ws.give_handoff(buf));
}

impl Sequential {
    /// Creates a container from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential {
            layers,
            ..Self::default()
        }
    }

    /// Creates an empty container.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layers.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Runs a forward pass up to (excluding) `end` into `out`, the
    /// intermediate activation. `end = len()` is the full forward pass.
    pub fn forward_until_into(
        &mut self,
        x: &Tensor,
        mode: Mode,
        end: usize,
        out: &mut Tensor,
    ) -> Result<()> {
        if end == 0 || self.layers.is_empty() {
            out.copy_from(x);
            return Ok(());
        }
        self.forward_chain(mode, end, out, |entry, out| {
            entry.forward_into(x, mode, out)
        })
    }

    /// Forward through the first `end ≥ 1` layers of a non-empty chain:
    /// `enter` runs the entry layer on the caller's input, the rest read
    /// the hand-off buffers, the last writes `out`.
    fn forward_chain(
        &mut self,
        mode: Mode,
        end: usize,
        out: &mut Tensor,
        enter: impl FnOnce(&mut dyn Layer, &mut Tensor) -> Result<()>,
    ) -> Result<()> {
        let end = end.min(self.layers.len());
        let (entry, rest) = self.layers[..end]
            .split_first_mut()
            .expect("callers handle the empty chain");
        let Some((exit, middle)) = rest.split_last_mut() else {
            return enter(entry, out);
        };
        let [mut cur, mut next] = take_handoff(&self.ws);
        let pass = || {
            enter(entry, &mut cur)?;
            for layer in middle {
                layer.forward_into(&cur, mode, &mut next)?;
                std::mem::swap(&mut cur, &mut next);
            }
            exit.forward_into(&cur, mode, out)
        };
        let result = pass();
        give_handoff(&self.ws, [cur, next]);
        result
    }

    /// Backward through the whole chain, last layer first. With `grad_in`
    /// the first layer writes the input gradient there; without, it runs
    /// [`Layer::backward_params`] — every layer but the first feeds the
    /// one before it, so only the first layer's input gradient can be
    /// skipped.
    fn backward_chain(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) -> Result<()> {
        let Some((entry, rest)) = self.layers.split_first_mut() else {
            if let Some(grad_in) = grad_in {
                grad_in.copy_from(grad_out);
            }
            return Ok(());
        };
        let leave = |entry: &mut Box<dyn Layer>, grad: &Tensor| match grad_in {
            Some(grad_in) => entry.backward_into(grad, grad_in),
            None => entry.backward_params(grad),
        };
        let Some((exit, middle)) = rest.split_last_mut() else {
            return leave(entry, grad_out);
        };
        let [mut cur, mut next] = take_handoff(&self.ws);
        let pass = || {
            exit.backward_into(grad_out, &mut cur)?;
            for layer in middle.iter_mut().rev() {
                layer.backward_into(&cur, &mut next)?;
                std::mem::swap(&mut cur, &mut next);
            }
            leave(entry, &cur)
        };
        let result = pass();
        give_handoff(&self.ws, [cur, next]);
        result
    }
}

impl Layer for Sequential {
    fn name(&self) -> String {
        format!("sequential[{}]", self.layers.len())
    }

    fn forward_into(&mut self, x: &Tensor, mode: Mode, out: &mut Tensor) -> Result<()> {
        self.forward_until_into(x, mode, self.layers.len(), out)
    }

    fn forward_quant_into(&mut self, x: &QuantTensor, mode: Mode, out: &mut Tensor) -> Result<()> {
        if self.layers.is_empty() {
            return Ok(x.dequantize_into(out)?);
        }
        // Only the entry layer sees quantized input (that is where the
        // int8-cached activation arrives); everything downstream is f32.
        self.forward_chain(mode, self.layers.len(), out, |entry, out| {
            entry.forward_quant_into(x, mode, out)
        })
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) -> Result<()> {
        self.backward_chain(grad_out, Some(grad_in))
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.backward_chain(grad_out, None)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }

    fn clear_cache(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }

    fn set_kernel_backend(&mut self, backend: nf_tensor::KernelBackend) {
        for layer in &mut self.layers {
            layer.set_kernel_backend(backend);
        }
    }

    fn set_workspace(&mut self, ws: &SharedWorkspace) {
        self.ws = Arc::clone(ws);
        for layer in &mut self.layers {
            layer.set_workspace(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::relu::ReLU;
    use rand::SeedableRng;

    fn two_layer() -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        Sequential::new(vec![
            Box::new(Linear::new(&mut rng, 3, 4)),
            Box::new(ReLU::new()),
            Box::new(Linear::new(&mut rng, 4, 2)),
        ])
    }

    #[test]
    fn forward_backward_chain() {
        let mut net = two_layer();
        let x = Tensor::ones(&[2, 3]);
        let y = net.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.shape(), &[2, 2]);
        let gi = net.backward(&Tensor::ones(&[2, 2])).unwrap();
        assert_eq!(gi.shape(), &[2, 3]);
    }

    #[test]
    fn forward_until_stops_early() {
        let mut net = two_layer();
        let x = Tensor::ones(&[2, 3]);
        let mut out = Tensor::default();
        net.forward_until_into(&x, Mode::Eval, 1, &mut out).unwrap();
        assert_eq!(out.shape(), &[2, 4]);
        net.forward_until_into(&x, Mode::Eval, 0, &mut out).unwrap();
        assert_eq!(out, x);
    }

    #[test]
    fn param_count_sums_children() {
        let mut net = two_layer();
        assert_eq!(net.param_count(), (3 * 4 + 4) + (4 * 2 + 2));
    }

    #[test]
    fn clear_cache_prevents_backward() {
        let mut net = two_layer();
        net.forward(&Tensor::ones(&[1, 3]), Mode::Train).unwrap();
        net.clear_cache();
        assert!(net.backward(&Tensor::ones(&[1, 2])).is_err());
    }

    #[test]
    fn forward_quant_runs_first_layer_quantized() {
        let x = Tensor::from_vec(vec![2, 3], vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5]).unwrap();
        let xq = QuantTensor::from_f32(&x);
        let mut net = two_layer();
        let y = net.forward_quant(&xq, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[2, 2]);
        // Semantics: entry layer quantized, downstream f32 — rebuild the
        // same net and drive the stages by hand.
        let mut net2 = two_layer();
        let mut cur = net2.layers_mut()[0].forward_quant(&xq, Mode::Eval).unwrap();
        for layer in &mut net2.layers_mut()[1..] {
            cur = layer.forward(&cur, Mode::Eval).unwrap();
        }
        assert_eq!(y.data(), cur.data());
        // Empty container: forward_quant is just the decode.
        let mut empty = Sequential::empty();
        let out = empty.forward_quant(&xq, Mode::Eval).unwrap();
        assert_eq!(out, xq.dequantize().unwrap());
    }

    #[test]
    fn boxed_forward_quant_dispatches_to_the_override() {
        // Deliberately lossy (random) weights: the int8 path differs
        // measurably from the f32 path, so bitwise-identical outputs prove
        // the Box impl forwarded to Linear's override rather than taking
        // the decode-then-forward default.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut lin = Linear::new(&mut rng, 16, 8);
        let x = Tensor::from_vec(
            vec![4, 16],
            (0..64)
                .map(|i| ((i * 13) % 31) as f32 / 15.0 - 1.0)
                .collect(),
        )
        .unwrap();
        let xq = QuantTensor::from_f32(&x);
        let direct = lin.forward_quant(&xq, Mode::Eval).unwrap();
        let mut boxed: Box<dyn Layer> = Box::new(lin);
        let via_box = boxed.forward_quant(&xq, Mode::Eval).unwrap();
        assert_eq!(direct.data(), via_box.data());
    }

    #[test]
    fn gradcheck_sequential() {
        crate::gradcheck::check_layer(two_layer(), &[2, 3], 4e-2, 51);
    }
}
