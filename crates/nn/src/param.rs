//! Trainable parameter: value, gradient, and optimizer scratch state.

use nf_tensor::Tensor;

/// A trainable parameter tensor with its accumulated gradient and optimizer
/// scratch slots.
///
/// Optimizers store per-parameter state (momentum velocity, Adam moments)
/// in [`Param::state`], created lazily on the first step. Keeping the state
/// with the parameter — rather than in the optimizer, keyed by traversal
/// order — means parameters can move between blocks (as NeuroFlux's
/// Partitioner does) without invalidating optimizer state.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter values.
    ///
    /// Code that rewrites this tensor directly (rather than through an
    /// optimizer) must call [`Param::note_update`] afterwards, so layers
    /// caching derived panels (packed transposed weights) re-derive them.
    pub value: Tensor,
    /// Accumulated gradient, same shape as `value`.
    pub grad: Tensor,
    /// Optimizer scratch tensors (e.g. `[velocity]` for momentum SGD,
    /// `[m, v]` for Adam), same shape as `value`.
    pub state: Vec<Tensor>,
    /// Adam-style step counter; unused by plain SGD.
    pub steps: u64,
    /// Monotonic value-mutation counter; see [`Param::note_update`].
    version: u64,
    /// Fixed feedback matrix (feedback alignment), same shape as `value`;
    /// see [`Param::set_feedback`].
    feedback: Option<Tensor>,
}

impl Param {
    /// Wraps an initial value, with a zeroed gradient and no optimizer state.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param {
            value,
            grad,
            state: Vec::new(),
            steps: 0,
            version: 0,
            feedback: None,
        }
    }

    /// Records that [`Param::value`] was mutated. Optimizer steps,
    /// checkpoint restores, and gradient-check perturbations all call
    /// this; layers that cache packed weight panels compare against
    /// [`Param::version`] to know when to re-pack.
    pub fn note_update(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    /// Current value-mutation version (bumped by [`Param::note_update`]).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Installs a fixed feedback matrix `B` of `value`'s shape: `Conv2d`
    /// and `Linear` then propagate the error to their input through `B`
    /// where backprop uses `value` (feedback alignment, Lillicrap et al.).
    /// Forward, weight gradient and bias gradient still use `value`; `B`
    /// is not a parameter — no optimizer, visitor, parameter count or
    /// checkpoint sees it. Bumps the version, so panels packed from the
    /// previous backward operand are re-derived.
    pub fn set_feedback(&mut self, feedback: Tensor) -> nf_tensor::Result<()> {
        if feedback.shape() != self.value.shape() {
            return Err(nf_tensor::TensorError::shape_mismatch(
                "set_feedback",
                self.value.shape(),
                feedback.shape(),
            ));
        }
        self.feedback = Some(feedback);
        self.note_update();
        Ok(())
    }

    /// The installed feedback matrix, if any.
    pub fn feedback(&self) -> Option<&Tensor> {
        self.feedback.as_ref()
    }

    /// The matrix the input-gradient product multiplies by: the feedback
    /// matrix when one is installed, the weights themselves otherwise.
    pub(crate) fn backward_operand(&self) -> &Tensor {
        self.feedback.as_ref().unwrap_or(&self.value)
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Zeroes the accumulated gradient, keeping the allocation.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Ensures `state` holds exactly `n` zero-initialised tensors of the
    /// parameter's shape, returning a mutable reference to them.
    pub fn ensure_state(&mut self, n: usize) -> &mut [Tensor] {
        while self.state.len() < n {
            self.state.push(Tensor::zeros(self.value.shape()));
        }
        &mut self.state[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.grad.shape(), &[2, 3]);
        assert!(p.grad.data().iter().all(|&v| v == 0.0));
        assert_eq!(p.numel(), 6);
    }

    #[test]
    fn ensure_state_is_idempotent() {
        let mut p = Param::new(Tensor::ones(&[4]));
        p.ensure_state(2);
        assert_eq!(p.state.len(), 2);
        p.state[0].data_mut()[0] = 5.0;
        p.ensure_state(2);
        assert_eq!(p.state[0].data()[0], 5.0, "state must not be reset");
        p.ensure_state(1);
        assert_eq!(p.state.len(), 2, "ensure never shrinks");
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(&[2]));
        p.grad.data_mut()[0] = 3.0;
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }
}
