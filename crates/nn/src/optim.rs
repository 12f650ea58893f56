//! The optimizer every trainer runs: SGD with momentum and weight decay.
//!
//! Per-parameter state lives in [`Param::state`], so the GPU-memory cost of
//! the optimizer (one extra tensor per parameter with momentum) is explicit
//! — exactly the "optimizer" slice of Figure 1's memory breakdown.

use crate::layer::Layer;
use crate::param::Param;

/// Stochastic gradient descent with optional momentum and weight decay.
///
/// Update rule (PyTorch semantics):
/// `v ← μ·v + (g + λ·w)`, `w ← w − lr·v` (or `w ← w − lr·(g + λ·w)` when
/// `momentum == 0`).
///
/// # Examples
///
/// ```
/// use nf_nn::optim::Sgd;
///
/// let opt = Sgd::new(0.1).with_momentum(0.9).with_weight_decay(5e-4);
/// assert_eq!(opt.lr, 0.1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient μ (0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay λ.
    pub weight_decay: f32,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
        }
    }

    /// Sets the momentum coefficient.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Sets the L2 weight-decay coefficient.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Applies one update to a single parameter.
    pub fn step_param(&self, p: &mut Param) {
        let lr = self.lr;
        let wd = self.weight_decay;
        if self.momentum == 0.0 {
            let (grad, value) = (&p.grad, &mut p.value);
            for (w, &g) in value.data_mut().iter_mut().zip(grad.data()) {
                *w -= lr * (g + wd * *w);
            }
        } else {
            let mu = self.momentum;
            // Split borrows: velocity lives in state[0].
            p.ensure_state(1);
            let Param {
                value, grad, state, ..
            } = p;
            let velocity = &mut state[0];
            for ((w, &g), v) in value
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(velocity.data_mut())
            {
                let eff = g + wd * *w;
                *v = mu * *v + eff;
                *w -= lr * *v;
            }
        }
        p.steps += 1;
        p.note_update();
    }

    /// Applies one update to every parameter of `layer`, then zeroes grads.
    pub fn step(&self, layer: &mut dyn Layer) {
        layer.visit_params(&mut |p| {
            self.step_param(p);
            p.zero_grad();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_tensor::Tensor;

    fn param_with_grad(value: f32, grad: f32) -> Param {
        let mut p = Param::new(Tensor::full(&[2], value));
        p.grad = Tensor::full(&[2], grad);
        p
    }

    #[test]
    fn plain_sgd_descends() {
        let mut p = param_with_grad(1.0, 0.5);
        Sgd::new(0.1).step_param(&mut p);
        for &w in p.value.data() {
            assert!((w - 0.95).abs() < 1e-6);
        }
        assert!(p.state.is_empty(), "plain SGD keeps no state");
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let opt = Sgd::new(0.1).with_momentum(0.9);
        let mut p = param_with_grad(0.0, 1.0);
        opt.step_param(&mut p);
        let w1 = p.value.data()[0];
        assert!((w1 + 0.1).abs() < 1e-6); // v = 1, w = -0.1
        p.grad = Tensor::full(&[2], 1.0);
        opt.step_param(&mut p);
        // v = 0.9 + 1 = 1.9, w = -0.1 - 0.19 = -0.29
        assert!((p.value.data()[0] + 0.29).abs() < 1e-5);
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let opt = Sgd::new(0.1).with_weight_decay(0.1);
        let mut p = param_with_grad(1.0, 0.0);
        opt.step_param(&mut p);
        assert!((p.value.data()[0] - 0.99).abs() < 1e-6);
    }

    #[test]
    fn step_zeroes_grads_via_layer() {
        use crate::layer::{Layer, Mode};
        use crate::linear::Linear;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut l = Linear::new(&mut rng, 2, 2);
        l.forward(&Tensor::ones(&[1, 2]), Mode::Train).unwrap();
        l.backward(&Tensor::ones(&[1, 2])).unwrap();
        Sgd::new(0.1).step(&mut l);
        let mut all_zero = true;
        l.visit_params(&mut |p| {
            if p.grad.data().iter().any(|&v| v != 0.0) {
                all_zero = false;
            }
        });
        assert!(all_zero);
    }
}
