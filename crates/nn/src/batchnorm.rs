//! Batch normalisation over the channel dimension of NCHW tensors.

use crate::error::NnError;
use crate::lanes::{fold_lanes, lanes, sum_lanes, LANES};
use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::scratch::InputCache;
use crate::Result;
use nf_tensor::Tensor;

/// Per-channel batch normalisation (training uses batch statistics and
/// updates exponential running statistics; evaluation uses the running
/// statistics).
///
/// `y = γ·(x − μ)/√(σ² + ε) + β`, with μ/σ² computed over `(N, H, W)` for
/// each channel. The biased variance (divide by `m`) is used both for
/// normalisation and for the running estimate, keeping the backward pass
/// exact.
///
/// The channel reductions (μ, σ², and backward's Σdy, Σdy·x̂) run eight
/// channels side by side (the crate's `lanes` module); each channel's sum
/// keeps its order — per-image partial sums for the mean, one running sum
/// over the batch for the rest — so the statistics are the bits a
/// channel-at-a-time loop gives.
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    channels: usize,
    eps: f32,
    momentum: f32,
    cache: InputCache<BnCache>,
}

/// What backward needs from a Train forward; `x_hat` carries the shape.
#[derive(Default)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` channels
    /// (γ = 1, β = 0, ε = 1e-5, running-stat momentum = 0.1).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            channels,
            eps: 1e-5,
            momentum: 0.1,
            cache: InputCache::new(),
        }
    }

    /// Running mean estimate (for tests/inspection).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance estimate (for tests/inspection).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    fn check_input(&self, x: &Tensor) -> Result<(usize, usize, usize, usize)> {
        let dims = x.dims4().map_err(|_| NnError::BadInput {
            layer: self.name(),
            reason: format!("expected NCHW input, got shape {:?}", x.shape()),
        })?;
        if dims.1 != self.channels {
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: format!("expected {} channels, got {}", self.channels, dims.1),
            });
        }
        Ok(dims)
    }
}

/// Batch mean and biased variance over `(N, H, W)` of the `count` channels
/// starting at `ch0`, one channel per lane.
fn batch_stats(
    xv: &[f32],
    (n, c, plane): (usize, usize, usize),
    ch0: usize,
    count: usize,
) -> ([f32; LANES], [f32; LANES]) {
    let m = (n * plane) as f32;
    let mut mean = [0.0f32; LANES];
    for img in 0..n {
        let part = sum_lanes(&lanes(xv, img * c + ch0, count, plane), plane);
        for (mu, p) in mean.iter_mut().zip(part) {
            *mu += p;
        }
    }
    mean.iter_mut().for_each(|mu| *mu /= m);
    let mut var = [0.0f32; LANES];
    for img in 0..n {
        let rows = lanes(xv, img * c + ch0, count, plane);
        var = fold_lanes([&rows], plane, var, |k, acc, [v]| {
            let d = v - mean[k];
            acc + d * d
        });
    }
    var.iter_mut().for_each(|v| *v /= m);
    (mean, var)
}

impl Layer for BatchNorm2d {
    fn name(&self) -> String {
        format!("batchnorm2d({})", self.channels)
    }

    fn forward_into(&mut self, x: &Tensor, mode: Mode, out: &mut Tensor) -> Result<()> {
        let (n, c, h, w) = self.check_input(x)?;
        let plane = h * w;
        out.reuse_as(x.shape());
        // All channel loops below walk contiguous `plane`-sized slices —
        // indexing element-by-element through `data()[i]` costs a bounds
        // check per element and blocks vectorisation on what is otherwise
        // pure streaming arithmetic.
        let xv = x.data();
        let out_all = out.data_mut();
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        match mode {
            Mode::Train => {
                let mut cache = self.cache.recycle();
                cache.x_hat.reuse_as(x.shape());
                cache.inv_std.resize(c, 0.0);
                let xh_all = cache.x_hat.data_mut();
                for ch0 in (0..c).step_by(LANES) {
                    let count = LANES.min(c - ch0);
                    let (means, vars) = batch_stats(xv, (n, c, plane), ch0, count);
                    for (ch, (mean, var)) in (ch0..ch0 + count).zip(means.into_iter().zip(vars)) {
                        let inv_std = 1.0 / (var + self.eps).sqrt();
                        cache.inv_std[ch] = inv_std;
                        let (g, b) = (gamma[ch], beta[ch]);
                        for img in 0..n {
                            let base = (img * c + ch) * plane;
                            let xs = &xv[base..base + plane];
                            let xhs = &mut xh_all[base..base + plane];
                            let os = &mut out_all[base..base + plane];
                            // One output stream per loop, x̂ read back
                            // from L1: interleaving two store streams that
                            // sit at the same page offset (as two large
                            // allocations do) measured 2.5× slower.
                            for (&v, xh) in xs.iter().zip(xhs.iter_mut()) {
                                *xh = (v - mean) * inv_std;
                            }
                            for (&h, o) in xhs.iter().zip(os.iter_mut()) {
                                *o = g * h + b;
                            }
                        }
                        let rm = &mut self.running_mean.data_mut()[ch];
                        *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
                        let rv = &mut self.running_var.data_mut()[ch];
                        *rv = (1.0 - self.momentum) * *rv + self.momentum * var;
                    }
                }
                self.cache.put_back(cache);
            }
            Mode::Eval => {
                for ch in 0..c {
                    let mean = self.running_mean.data()[ch];
                    let inv_std = 1.0 / (self.running_var.data()[ch] + self.eps).sqrt();
                    let (g, b) = (gamma[ch], beta[ch]);
                    for img in 0..n {
                        let base = (img * c + ch) * plane;
                        let xs = &xv[base..base + plane];
                        let os = &mut out_all[base..base + plane];
                        for (&v, o) in xs.iter().zip(os.iter_mut()) {
                            *o = g * (v - mean) * inv_std + b;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) -> Result<()> {
        let cache = self
            .cache
            .take()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        if grad_out.shape() != cache.x_hat.shape() {
            let reason = format!(
                "grad shape {:?} inconsistent with cached input {:?}",
                grad_out.shape(),
                cache.x_hat.shape()
            );
            self.cache.put_back(cache);
            return Err(NnError::BadInput {
                layer: self.name(),
                reason,
            });
        }
        let (n, c, h, w) = grad_out.dims4()?;
        let plane = h * w;
        let m = (n * plane) as f32;
        grad_in.reuse_as(grad_out.shape());
        let dy_all = grad_out.data();
        let xh_all = cache.x_hat.data();
        let gi_all = grad_in.data_mut();
        for ch0 in (0..c).step_by(LANES) {
            let count = LANES.min(c - ch0);
            // Channel-wise reductions: (Σdy, Σdy·x̂).
            let mut sums = [(0.0f32, 0.0f32); LANES];
            for img in 0..n {
                let dys = lanes(dy_all, img * c + ch0, count, plane);
                let xhs = lanes(xh_all, img * c + ch0, count, plane);
                sums = fold_lanes([&dys, &xhs], plane, sums, |_, (s, sx), [dy, xh]| {
                    (s + dy, sx + dy * xh)
                });
            }
            for (ch, (sum_dy, sum_dy_xhat)) in (ch0..ch0 + count).zip(sums) {
                self.beta.grad.data_mut()[ch] += sum_dy;
                self.gamma.grad.data_mut()[ch] += sum_dy_xhat;
                // dx = (γ/√(σ²+ε)) · (dy − Σdy/m − x̂·Σ(dy·x̂)/m)
                let scale = self.gamma.value.data()[ch] * cache.inv_std[ch];
                let (mean_dy, mean_dy_xhat) = (sum_dy / m, sum_dy_xhat / m);
                for img in 0..n {
                    let base = (img * c + ch) * plane;
                    let dys = &dy_all[base..base + plane];
                    let xhs = &xh_all[base..base + plane];
                    let gis = &mut gi_all[base..base + plane];
                    for ((&dy, &xh), gi) in dys.iter().zip(xhs).zip(gis.iter_mut()) {
                        *gi = scale * (dy - mean_dy - xh * mean_dy_xhat);
                    }
                }
            }
        }
        self.cache.retire(cache);
        Ok(())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_output_is_normalised() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(vec![2, 1, 1, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = bn.forward(&x, Mode::Train).unwrap();
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        let var: f32 = y
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn running_stats_move_toward_batch_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full(&[4, 1, 2, 2], 10.0);
        bn.forward(&x, Mode::Train).unwrap();
        // mean moves from 0 toward 10 by momentum 0.1.
        assert!((bn.running_mean().data()[0] - 1.0).abs() < 1e-5);
        // var moves from 1 toward 0.
        assert!((bn.running_var().data()[0] - 0.9).abs() < 1e-5);
    }

    #[test]
    fn eval_uses_running_stats_and_does_not_cache() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full(&[1, 1, 1, 2], 3.0);
        let y = bn.forward(&x, Mode::Eval).unwrap();
        // Running stats are (0, 1): y ≈ x.
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-3);
        }
        assert!(bn.backward(&Tensor::ones(&[1, 1, 1, 2])).is_err());
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut bn = BatchNorm2d::new(3);
        assert!(bn
            .forward(&Tensor::zeros(&[1, 2, 2, 2]), Mode::Train)
            .is_err());
        assert!(bn.forward(&Tensor::zeros(&[2, 2]), Mode::Train).is_err());
    }

    #[test]
    fn param_count_is_two_per_channel() {
        let mut bn = BatchNorm2d::new(8);
        assert_eq!(bn.param_count(), 16);
    }

    /// The channel-at-a-time loops this layer ran before its reductions
    /// went side by side — kept as the bit-level oracle. Returns
    /// `(out, x_hat, inv_std, mean, var)` of a Train forward.
    #[allow(clippy::type_complexity)]
    fn forward_oracle(
        x: &Tensor,
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let (n, c, h, w) = x.dims4().unwrap();
        let plane = h * w;
        let m = (n * plane) as f32;
        let xv = x.data();
        let (mut out, mut x_hat) = (vec![0.0f32; xv.len()], vec![0.0f32; xv.len()]);
        let (mut inv_stds, mut means, mut vars) = (vec![0.0; c], vec![0.0; c], vec![0.0; c]);
        for ch in 0..c {
            let mut mean = 0.0f32;
            for img in 0..n {
                let base = (img * c + ch) * plane;
                mean += xv[base..base + plane].iter().sum::<f32>();
            }
            mean /= m;
            let mut var = 0.0f32;
            for img in 0..n {
                let base = (img * c + ch) * plane;
                for &v in &xv[base..base + plane] {
                    let d = v - mean;
                    var += d * d;
                }
            }
            var /= m;
            let inv_std = 1.0 / (var + eps).sqrt();
            (inv_stds[ch], means[ch], vars[ch]) = (inv_std, mean, var);
            for img in 0..n {
                let base = (img * c + ch) * plane;
                for i in base..base + plane {
                    let h = (xv[i] - mean) * inv_std;
                    x_hat[i] = h;
                    out[i] = gamma[ch] * h + beta[ch];
                }
            }
        }
        (out, x_hat, inv_stds, means, vars)
    }

    /// Backward oracle: `(grad_in, d_gamma, d_beta)`.
    fn backward_oracle(
        dy: &Tensor,
        x_hat: &[f32],
        inv_std: &[f32],
        gamma: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (n, c, h, w) = dy.dims4().unwrap();
        let plane = h * w;
        let m = (n * plane) as f32;
        let dyv = dy.data();
        let mut gi = vec![0.0f32; dyv.len()];
        let (mut d_gamma, mut d_beta) = (vec![0.0f32; c], vec![0.0f32; c]);
        for ch in 0..c {
            let (mut sum_dy, mut sum_dy_xhat) = (0.0f32, 0.0f32);
            for img in 0..n {
                let base = (img * c + ch) * plane;
                for i in base..base + plane {
                    sum_dy += dyv[i];
                    sum_dy_xhat += dyv[i] * x_hat[i];
                }
            }
            d_beta[ch] += sum_dy;
            d_gamma[ch] += sum_dy_xhat;
            let k = gamma[ch] * inv_std[ch];
            let (mean_dy, mean_dy_xhat) = (sum_dy / m, sum_dy_xhat / m);
            for img in 0..n {
                let base = (img * c + ch) * plane;
                for i in base..base + plane {
                    gi[i] = k * (dyv[i] - mean_dy - x_hat[i] * mean_dy_xhat);
                }
            }
        }
        (gi, d_gamma, d_beta)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn side_by_side_reductions_keep_the_channel_at_a_time_bits() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        // Channel counts around the lane width (full groups, short tails,
        // one lone channel), planes around the tile width, odd H/W.
        for c in [1usize, 3, 4, 6, 8, 12, 16, 17] {
            for (h, w) in [(1usize, 1usize), (2, 2), (4, 4), (3, 5), (32, 32)] {
                for n in [1usize, 8] {
                    let shape = [n, c, h, w];
                    // Values spread over magnitudes, so any reordering of
                    // a sum shows in its low bits.
                    let mut draw = |len: usize| -> Vec<f32> {
                        (0..len)
                            .map(|_| rng.gen_range(-1.0f32..1.0) * 10f32.powi(rng.gen_range(-3..3)))
                            .collect()
                    };
                    let x = Tensor::from_vec(shape.to_vec(), draw(n * c * h * w)).unwrap();
                    let dy = Tensor::from_vec(shape.to_vec(), draw(n * c * h * w)).unwrap();
                    let mut bn = BatchNorm2d::new(c);
                    bn.gamma.value = Tensor::from_vec(vec![c], draw(c)).unwrap();
                    bn.beta.value = Tensor::from_vec(vec![c], draw(c)).unwrap();
                    let (gamma, beta) = (
                        bn.gamma.value.data().to_vec(),
                        bn.beta.value.data().to_vec(),
                    );
                    let (out, x_hat, inv_std, mean, var) =
                        forward_oracle(&x, &gamma, &beta, bn.eps);
                    let (gi, d_gamma, d_beta) = backward_oracle(&dy, &x_hat, &inv_std, &gamma);

                    // Into stale, oversized buffers: nothing may lean on
                    // what they held.
                    let mut y = Tensor::full(&[out.len() + 3], f32::NAN);
                    bn.forward_into(&x, Mode::Train, &mut y).unwrap();
                    assert_eq!(y.shape(), &shape);
                    assert_eq!(bits(y.data()), bits(&out), "forward {shape:?}");
                    let run_mean: Vec<f32> = mean.iter().map(|m| 0.9 * 0.0 + 0.1 * m).collect();
                    let run_var: Vec<f32> = var.iter().map(|v| 0.9 * 1.0 + 0.1 * v).collect();
                    assert_eq!(bits(bn.running_mean.data()), bits(&run_mean), "{shape:?}");
                    assert_eq!(bits(bn.running_var.data()), bits(&run_var), "{shape:?}");
                    let mut dx = Tensor::full(&[out.len() + 3], f32::NAN);
                    bn.backward_into(&dy, &mut dx).unwrap();
                    assert_eq!(bits(dx.data()), bits(&gi), "backward {shape:?}");
                    assert_eq!(bits(bn.gamma.grad.data()), bits(&d_gamma), "{shape:?}");
                    assert_eq!(bits(bn.beta.grad.data()), bits(&d_beta), "{shape:?}");
                }
            }
        }
    }

    #[test]
    fn eval_rows_do_not_depend_on_their_batch() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut bn = BatchNorm2d::new(5);
        bn.running_mean = nf_tensor::uniform_init(&mut rng, &[5], -1.0, 1.0);
        bn.running_var = nf_tensor::uniform_init(&mut rng, &[5], 0.5, 2.0);
        let x = nf_tensor::uniform_init(&mut rng, &[8, 5, 3, 3], -2.0, 2.0);
        let batched = bn.forward(&x, Mode::Eval).unwrap();
        for i in 0..8 {
            let alone = bn
                .forward(&x.slice_batch(i, i + 1).unwrap(), Mode::Eval)
                .unwrap();
            let row = batched.slice_batch(i, i + 1).unwrap();
            assert_eq!(bits(alone.data()), bits(row.data()), "sample {i}");
        }
    }

    #[test]
    fn backward_spends_the_cache_and_a_malformed_grad_does_not() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::ones(&[2, 2, 4, 4]);
        let g = Tensor::ones(&[2, 2, 4, 4]);
        bn.forward(&x, Mode::Train).unwrap();
        bn.backward(&g).unwrap();
        // Spent; a malformed gradient, though, leaves a pending cache be.
        assert!(bn.backward(&g).is_err());
        bn.forward(&x, Mode::Train).unwrap();
        assert!(bn.backward(&Tensor::ones(&[2, 2, 4, 3])).is_err());
        bn.backward(&g).unwrap();
        bn.forward(&x, Mode::Train).unwrap();
        bn.clear_cache();
        assert!(bn.backward(&g).is_err());
    }

    #[test]
    fn gradcheck_batchnorm() {
        crate::gradcheck::check_layer(BatchNorm2d::new(2), &[3, 2, 2, 2], 5e-2, 41);
    }
}
