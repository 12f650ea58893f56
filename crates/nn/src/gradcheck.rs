//! Finite-difference gradient checking for layers.
//!
//! Every layer in this crate is validated by comparing its analytic
//! backward pass against central finite differences of a scalar probe loss
//! `L(y) = Σ cᵢ·yᵢ` with fixed random coefficients `c`. Because the probe is
//! linear in the output, `∂L/∂y = c` exactly, isolating the layer's own
//! gradient from probe error.

use crate::layer::{Layer, Mode};
use nf_tensor::Tensor;
use rand::{Rng, SeedableRng};

/// Checks a layer's input and parameter gradients against central finite
/// differences.
///
/// Inputs are sampled away from zero (|x| ∈ [0.2, 1.0]) so kinked
/// activations (ReLU, max-pool) are differentiable at every probe point.
///
/// # Panics
///
/// Panics (failing the test) if any gradient component deviates from the
/// numeric estimate by more than `tol` relative error, or if the layer
/// errors during any pass.
pub fn check_layer<L: Layer>(mut layer: L, input_shape: &[usize], tol: f32, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let numel: usize = input_shape.iter().product();
    let x = Tensor::from_vec(
        input_shape.to_vec(),
        (0..numel)
            .map(|_| {
                let mag: f32 = rng.gen_range(0.2..1.0);
                if rng.gen_bool(0.5) {
                    mag
                } else {
                    -mag
                }
            })
            .collect(),
    )
    .expect("shape/product invariant");

    // Fixed probe coefficients c, so L(y) = Σ c·y and dL/dy = c.
    let y0 = layer.forward(&x, Mode::Train).expect("forward failed");
    let coeffs: Vec<f32> = (0..y0.numel()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let probe = |y: &Tensor| -> f32 { y.data().iter().zip(&coeffs).map(|(a, b)| a * b).sum() };
    let grad_out = Tensor::from_vec(y0.shape().to_vec(), coeffs.clone()).expect("shape");

    layer.zero_grad();
    let analytic_input_grad = layer.backward(&grad_out).expect("backward failed");

    // Collect analytic parameter gradients.
    let mut param_grads: Vec<Tensor> = Vec::new();
    layer.visit_params(&mut |p| param_grads.push(p.grad.clone()));

    let eps = 1e-2f32;

    // --- Input gradient ---
    // Probes run in Train mode so statistics-dependent layers (batch norm)
    // compute the same function the analytic backward differentiated.
    let n_checks = numel.min(24);
    for i in sample_indices(&mut rng, numel, n_checks) {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let yp = layer.forward(&xp, Mode::Train).expect("forward+");
        layer.clear_cache();
        let ym = layer.forward(&xm, Mode::Train).expect("forward-");
        layer.clear_cache();
        let numeric = (probe(&yp) - probe(&ym)) / (2.0 * eps);
        let analytic = analytic_input_grad.data()[i];
        assert_close(analytic, numeric, tol, &format!("input grad [{i}]"));
    }

    // --- Parameter gradients ---
    // Perturb each parameter through visit_params; index by (param, element).
    let mut param_sizes = Vec::new();
    layer.visit_params(&mut |p| param_sizes.push(p.numel()));
    for (pi, &size) in param_sizes.iter().enumerate() {
        let n_checks = size.min(12);
        for i in sample_indices(&mut rng, size, n_checks) {
            let lp = probe_with_perturbed_param(&mut layer, &x, pi, i, eps, &probe);
            let lm = probe_with_perturbed_param(&mut layer, &x, pi, i, -eps, &probe);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = param_grads[pi].data()[i];
            assert_close(
                analytic,
                numeric,
                tol,
                &format!("param {pi} grad [{i}] of {}", layer.name()),
            );
        }
    }
}

fn probe_with_perturbed_param<L: Layer>(
    layer: &mut L,
    x: &Tensor,
    param_index: usize,
    elem: usize,
    delta: f32,
    probe: &dyn Fn(&Tensor) -> f32,
) -> f32 {
    set_param_delta(layer, param_index, elem, delta);
    // Train mode: batch-norm must re-normalise with the perturbed γ/β, and
    // the numeric gradient must see the same statistics path as backward.
    // Running-stat drift is irrelevant to the probe.
    let y = layer.forward(x, Mode::Train).expect("perturbed forward");
    layer.clear_cache();
    let l = probe(&y);
    set_param_delta(layer, param_index, elem, -delta);
    l
}

fn set_param_delta<L: Layer>(layer: &mut L, param_index: usize, elem: usize, delta: f32) {
    let mut seen = 0usize;
    layer.visit_params(&mut |p| {
        if seen == param_index {
            p.value.data_mut()[elem] += delta;
            // Direct mutation: invalidate any packed-weight panel the
            // layer caches, or the probe forward would use stale weights.
            p.note_update();
        }
        seen += 1;
    });
}

fn sample_indices<R: Rng>(rng: &mut R, len: usize, n: usize) -> Vec<usize> {
    if n >= len {
        return (0..len).collect();
    }
    let mut idx: Vec<usize> = (0..len).collect();
    for i in 0..n {
        let j = rng.gen_range(i..len);
        idx.swap(i, j);
    }
    idx.truncate(n);
    idx
}

fn assert_close(analytic: f32, numeric: f32, tol: f32, what: &str) {
    let denom = 1.0f32.max(analytic.abs()).max(numeric.abs());
    let rel = (analytic - numeric).abs() / denom;
    assert!(
        rel <= tol,
        "{what}: analytic {analytic} vs numeric {numeric} (rel err {rel}, tol {tol})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    /// A layer with a deliberately wrong backward pass; the checker must
    /// catch it.
    struct BrokenScale {
        p: Param,
        cached: Option<Tensor>,
    }

    impl Layer for BrokenScale {
        fn name(&self) -> String {
            "broken_scale".into()
        }

        fn forward_into(&mut self, x: &Tensor, mode: Mode, out: &mut Tensor) -> crate::Result<()> {
            if mode == Mode::Train {
                self.cached = Some(x.clone());
            }
            *out = x.map(|v| v * self.p.value.data()[0]);
            Ok(())
        }

        fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) -> crate::Result<()> {
            let _ = self.cached.take();
            // Wrong: ignores the scale parameter entirely.
            self.p.grad.data_mut()[0] += 123.0;
            grad_in.copy_from(grad_out);
            Ok(())
        }

        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.p);
        }
    }

    #[test]
    #[should_panic(expected = "grad")]
    fn checker_catches_broken_backward() {
        let layer = BrokenScale {
            p: Param::new(Tensor::full(&[1], 2.0)),
            cached: None,
        };
        check_layer(layer, &[2, 3], 1e-2, 99);
    }

    #[test]
    fn sample_indices_unique_and_bounded() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let idx = sample_indices(&mut rng, 10, 5);
        assert_eq!(idx.len(), 5);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        assert!(idx.iter().all(|&i| i < 10));
        assert_eq!(sample_indices(&mut rng, 3, 10), vec![0, 1, 2]);
    }
}
