//! Pooling layers over NCHW tensors.
//!
//! Pooling has no GEMM hot path, so these layers are unaffected by the
//! kernel-backend selection seam ([`Layer::set_kernel_backend`] is a
//! no-op here); their cost is a linear scan the memory system bounds.

use crate::error::NnError;
use crate::lanes::{lanes, sum_lanes, LANES};
use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::scratch::InputCache;
use crate::Result;
use nf_tensor::{
    avg_pool2d_backward_into, avg_pool2d_into, max_pool2d_backward_into, max_pool2d_into,
    Conv2dGeometry, Tensor,
};

/// The window geometry of the square pooling layer `layer` over `x`.
fn pool_geometry(
    layer: &dyn Layer,
    x: &Tensor,
    kernel: usize,
    stride: usize,
) -> Result<Conv2dGeometry> {
    let (_, _, h, w) = x.dims4().map_err(|_| NnError::BadInput {
        layer: layer.name(),
        reason: format!("expected NCHW input, got shape {:?}", x.shape()),
    })?;
    Ok(Conv2dGeometry::new(h, w, kernel, kernel, stride, 0)?)
}

/// Max pooling with a square window.
///
/// # Examples
///
/// ```
/// use nf_nn::{Layer, MaxPool2d, Mode};
/// use nf_tensor::Tensor;
///
/// let mut p = MaxPool2d::new(2, 2);
/// let y = p.forward(&Tensor::zeros(&[1, 3, 8, 8]), Mode::Eval).unwrap();
/// assert_eq!(y.shape(), &[1, 3, 4, 4]);
/// ```
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    cache: InputCache<MaxPoolCache>,
    /// Code scratch of Eval forwards, which must leave `cache` alone.
    eval_codes: Vec<u8>,
}

/// Window-local argmax codes (one byte per output) and the input height
/// and width they were taken under.
#[derive(Default)]
struct MaxPoolCache {
    codes: Vec<u8>,
    in_hw: (usize, usize),
}

impl MaxPool2d {
    /// Creates a max-pooling layer with the given square kernel and stride.
    pub fn new(kernel: usize, stride: usize) -> Self {
        MaxPool2d {
            kernel,
            stride,
            cache: InputCache::new(),
            eval_codes: Vec::new(),
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        format!("maxpool({}x{}, s{})", self.kernel, self.kernel, self.stride)
    }

    fn forward_into(&mut self, x: &Tensor, mode: Mode, out: &mut Tensor) -> Result<()> {
        let geom = pool_geometry(self, x, self.kernel, self.stride)?;
        if mode == Mode::Train {
            let mut cache = self.cache.recycle();
            max_pool2d_into(x, &geom, out, &mut cache.codes)?;
            cache.in_hw = (geom.in_h, geom.in_w);
            self.cache.put_back(cache);
        } else {
            max_pool2d_into(x, &geom, out, &mut self.eval_codes)?;
        }
        Ok(())
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) -> Result<()> {
        let cache = self
            .cache
            .take()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        let (h, w) = cache.in_hw;
        let geom = Conv2dGeometry::new(h, w, self.kernel, self.kernel, self.stride, 0)?;
        max_pool2d_backward_into(grad_out, &cache.codes, &geom, grad_in)?;
        self.cache.retire(cache);
        Ok(())
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn clear_cache(&mut self) {
        self.cache.clear();
        self.eval_codes = Vec::new();
    }
}

/// Average pooling with a square window.
pub struct AvgPool2d {
    kernel: usize,
    stride: usize,
    cache: Option<Conv2dGeometry>,
}

impl AvgPool2d {
    /// Creates an average-pooling layer with the given square kernel/stride.
    pub fn new(kernel: usize, stride: usize) -> Self {
        AvgPool2d {
            kernel,
            stride,
            cache: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> String {
        format!("avgpool({}x{}, s{})", self.kernel, self.kernel, self.stride)
    }

    fn forward_into(&mut self, x: &Tensor, mode: Mode, out: &mut Tensor) -> Result<()> {
        let geom = pool_geometry(self, x, self.kernel, self.stride)?;
        avg_pool2d_into(x, &geom, out)?;
        if mode == Mode::Train {
            self.cache = Some(geom);
        }
        Ok(())
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) -> Result<()> {
        let geom = self
            .cache
            .take()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        Ok(avg_pool2d_backward_into(grad_out, &geom, grad_in)?)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn clear_cache(&mut self) {
        self.cache = None;
    }
}

/// Global average pooling: `(N, C, H, W) → (N, C)`.
///
/// Used as the downsampling stage of every auxiliary network (Equation 2's
/// `F_n`) and before the final classifier of ResNet. Plane sums run eight
/// planes side by side (the crate's `lanes` module), each in index order.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    /// `(n, c, h, w)` of the last Train forward's input.
    cache: Option<(usize, usize, usize, usize)>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { cache: None }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> String {
        "global_avgpool".to_string()
    }

    fn forward_into(&mut self, x: &Tensor, mode: Mode, out: &mut Tensor) -> Result<()> {
        let (n, c, h, w) = x.dims4().map_err(|_| NnError::BadInput {
            layer: self.name(),
            reason: format!("expected NCHW input, got shape {:?}", x.shape()),
        })?;
        let plane = h * w;
        let inv = 1.0 / plane as f32;
        out.reuse_as(&[n, c]);
        for (group, means) in out.data_mut().chunks_mut(LANES).enumerate() {
            let rows = lanes(x.data(), group * LANES, means.len(), plane);
            for (mean, sum) in means.iter_mut().zip(sum_lanes(&rows, plane)) {
                *mean = sum * inv;
            }
        }
        if mode == Mode::Train {
            self.cache = Some((n, c, h, w));
        }
        Ok(())
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) -> Result<()> {
        let (n, c, h, w) = self
            .cache
            .take()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        if grad_out.dims2()? != (n, c) {
            return Err(NnError::BadInput {
                layer: self.name(),
                reason: format!(
                    "grad shape {:?} inconsistent with cached input {:?}",
                    grad_out.shape(),
                    [n, c, h, w]
                ),
            });
        }
        let inv = 1.0 / (h * w) as f32;
        grad_in.reuse_as(&[n, c, h, w]);
        if h * w > 0 {
            let planes = grad_in.data_mut().chunks_exact_mut(h * w);
            for (plane, &g) in planes.zip(grad_out.data()) {
                plane.fill(g * inv);
            }
        }
        Ok(())
    }

    /// No parameters and no input gradient wanted: only spend the cache
    /// (the deep head's first layer, so its step allocates nothing).
    fn backward_params(&mut self, _grad_out: &Tensor) -> Result<()> {
        self.cache
            .take()
            .map(drop)
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn clear_cache(&mut self) {
        self.cache = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_layer_shapes_and_backward() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 5.0, 2.0, 3.0]).unwrap();
        let y = p.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[5.0]);
        let gi = p.backward(&Tensor::ones(&[1, 1, 1, 1])).unwrap();
        assert_eq!(gi.data(), &[0.0, 1.0, 0.0, 0.0]);
        assert!(p.backward(&Tensor::ones(&[1, 1, 1, 1])).is_err());
    }

    #[test]
    fn global_avg_pool_means_planes() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1, 2, 1, 2], vec![1.0, 3.0, 5.0, 7.0]).unwrap();
        let y = p.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[2.0, 6.0]);
        let gi = p.backward(&Tensor::ones(&[1, 2])).unwrap();
        assert_eq!(gi.data(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn global_avg_pool_keeps_the_plane_at_a_time_bits() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        // Plane counts around the lane width, planes around the tile width.
        for c in [1usize, 3, 4, 6, 8, 12, 16, 17] {
            for (h, w) in [(1usize, 1usize), (2, 2), (4, 4), (3, 5), (32, 32)] {
                for n in [1usize, 8] {
                    let data = (0..n * c * h * w)
                        .map(|_| rng.gen_range(-1.0f32..1.0) * 10f32.powi(rng.gen_range(-3..3)))
                        .collect();
                    let x = Tensor::from_vec(vec![n, c, h, w], data).unwrap();
                    // The loop this layer ran before planes went side by side.
                    let inv = 1.0 / (h * w) as f32;
                    let want: Vec<u32> = x
                        .data()
                        .chunks(h * w)
                        .map(|p| (p.iter().sum::<f32>() * inv).to_bits())
                        .collect();
                    let mut y = Tensor::full(&[n * c + 9], f32::NAN);
                    GlobalAvgPool::new()
                        .forward_into(&x, Mode::Eval, &mut y)
                        .unwrap();
                    assert_eq!(y.shape(), &[n, c]);
                    let got: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{n}x{c}x{h}x{w}");
                }
            }
        }
    }

    #[test]
    fn pooled_rows_do_not_depend_on_their_batch() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let x = nf_tensor::uniform_init(&mut rng, &[8, 3, 7, 6], -1.0, 1.0);
        let layers: [&mut dyn Layer; 3] = [
            &mut MaxPool2d::new(2, 2),
            &mut AvgPool2d::new(2, 2),
            &mut GlobalAvgPool::new(),
        ];
        for layer in layers {
            let batched = layer.forward(&x, Mode::Eval).unwrap();
            for i in 0..8 {
                let alone = layer
                    .forward(&x.slice_batch(i, i + 1).unwrap(), Mode::Eval)
                    .unwrap();
                assert_eq!(
                    alone,
                    batched.slice_batch(i, i + 1).unwrap(),
                    "{}",
                    layer.name()
                );
            }
        }
    }

    #[test]
    fn max_pool_eval_leaves_the_pending_codes_alone() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 5.0, 2.0, 3.0]).unwrap();
        p.forward(&x, Mode::Train).unwrap();
        // An Eval pass over different data in between…
        let other = Tensor::from_vec(vec![1, 1, 2, 2], vec![9.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(p.forward(&other, Mode::Eval).unwrap().data(), &[9.0]);
        // …does not move where the Train pass's gradient goes.
        let gi = p.backward(&Tensor::ones(&[1, 1, 1, 1])).unwrap();
        assert_eq!(gi.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn pools_reject_non_nchw() {
        assert!(MaxPool2d::new(2, 2)
            .forward(&Tensor::zeros(&[4, 4]), Mode::Train)
            .is_err());
        assert!(AvgPool2d::new(2, 2)
            .forward(&Tensor::zeros(&[4, 4]), Mode::Train)
            .is_err());
        assert!(GlobalAvgPool::new()
            .forward(&Tensor::zeros(&[4, 4]), Mode::Train)
            .is_err());
    }

    #[test]
    fn gradcheck_pools() {
        crate::gradcheck::check_layer(MaxPool2d::new(2, 2), &[1, 2, 4, 4], 2e-2, 31);
        crate::gradcheck::check_layer(AvgPool2d::new(2, 2), &[1, 2, 4, 4], 2e-2, 32);
        crate::gradcheck::check_layer(GlobalAvgPool::new(), &[2, 3, 4, 4], 2e-2, 33);
    }

    #[test]
    fn avg_pool_layer_shape() {
        let mut p = AvgPool2d::new(2, 2);
        let y = p.forward(&Tensor::ones(&[2, 3, 8, 8]), Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[2, 3, 4, 4]);
        for &v in y.data() {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }
}
