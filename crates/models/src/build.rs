//! Instantiating real, trainable networks from a [`ModelSpec`].

use crate::aux::AuxSpec;
use crate::spec::{HeadSpec, LayerKind, ModelSpec, UnitSpec};
use nf_nn::{
    BasicBlock, BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Layer, Linear, MaxPool2d, Sequential,
};
use rand::Rng;

/// A runnable model: one [`Sequential`] per local-learning unit plus the
/// classifier head.
///
/// Keeping the units separate (instead of one flat layer list) is what lets
/// local-learning trainers update unit `n` in isolation and lets the
/// NeuroFlux worker move whole blocks of units in and out of "GPU memory".
pub struct BuiltModel {
    /// The architecture this model was built from.
    pub spec: ModelSpec,
    /// One trainable unit per spec unit, in order.
    pub units: Vec<Sequential>,
    /// The classifier head (flatten/GAP + linear).
    pub head: Sequential,
}

impl BuiltModel {
    /// Total trainable parameters across units and head.
    pub fn param_count(&mut self) -> usize {
        let units: usize = self.units.iter_mut().map(|u| u.param_count()).sum();
        units + self.head.param_count()
    }

    /// Arranges the model and its auxiliary heads for local learning: every
    /// layer computes on `backend`, and two workspace arenas serve the
    /// whole run — one shared by the units and the deep head, one by the
    /// auxiliary heads. Blocks train strictly sequentially, so run-wide
    /// arenas bound scratch to the largest layer of each chain (the
    /// steady-state assumption behind the paper's Figure-11 budget sweeps)
    /// instead of pinning one arena per layer or per block. Units and aux
    /// heads get *separate* arenas because they interleave within every
    /// step (unit fwd → head fwd → head bwd → unit bwd), and the memory
    /// model's workspace term
    /// (`nf_memsim::memory::ll_unit_workspace_bytes_per_sample`) charges a
    /// unit's and its head's scratch side by side — which is what two
    /// arenas reserve.
    pub fn prepare_local_learning(
        &mut self,
        aux_heads: &mut [Sequential],
        backend: nf_tensor::KernelBackend,
    ) {
        let ws_units = nf_tensor::shared_workspace();
        let ws_heads = nf_tensor::shared_workspace();
        for layer in self.units.iter_mut().chain(std::iter::once(&mut self.head)) {
            layer.set_kernel_backend(backend);
            layer.set_workspace(&ws_units);
        }
        for head in aux_heads {
            head.set_kernel_backend(backend);
            head.set_workspace(&ws_heads);
        }
    }

    /// Runs an inference forward pass through all units and the head.
    pub fn infer(&mut self, x: &nf_tensor::Tensor) -> nf_nn::Result<nf_tensor::Tensor> {
        // The first unit reads the caller's tensor; no copy to own it.
        let mut cur = None;
        for unit in &mut self.units {
            cur = Some(unit.forward(cur.as_ref().unwrap_or(x), nf_nn::Mode::Eval)?);
        }
        self.head
            .forward(cur.as_ref().unwrap_or(x), nf_nn::Mode::Eval)
    }
}

fn build_unit<R: Rng>(rng: &mut R, unit: &UnitSpec) -> nf_nn::Result<Sequential> {
    let mut seq = Sequential::empty();
    match unit.kind {
        LayerKind::Conv {
            in_ch,
            out_ch,
            kernel,
            stride,
            pad,
            pool,
        } => {
            seq.push(Box::new(Conv2d::new(
                rng, in_ch, out_ch, kernel, stride, pad,
            )?));
            seq.push(Box::new(BatchNorm2d::new(out_ch)));
            seq.push(Box::new(nf_nn::relu::ReLU::new()));
            if pool {
                seq.push(Box::new(MaxPool2d::new(2, 2)));
            }
        }
        LayerKind::Residual {
            in_ch,
            out_ch,
            stride,
        } => {
            seq.push(Box::new(BasicBlock::new(rng, in_ch, out_ch, stride)?));
        }
        LayerKind::DepthwiseSeparable { .. } => {
            return Err(nf_nn::NnError::BadInput {
                layer: "depthwise-separable".into(),
                reason: "channel-grouped convolution is not implemented, \
                         so the unit cannot be built as its spec prices it"
                    .into(),
            });
        }
    }
    Ok(seq)
}

fn build_head<R: Rng>(rng: &mut R, head: &HeadSpec) -> Sequential {
    let mut seq = Sequential::empty();
    match *head {
        HeadSpec::Linear {
            in_features,
            classes,
        } => {
            seq.push(Box::new(Flatten::new()));
            seq.push(Box::new(Linear::new(rng, in_features, classes)));
        }
        HeadSpec::GapLinear { in_ch, classes } => {
            seq.push(Box::new(GlobalAvgPool::new()));
            seq.push(Box::new(Linear::new(rng, in_ch, classes)));
        }
    }
    seq
}

impl ModelSpec {
    /// Instantiates a trainable network with seeded random initialisation.
    ///
    /// # Examples
    ///
    /// ```
    /// use nf_models::ModelSpec;
    /// use rand::SeedableRng;
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    /// let mut model = ModelSpec::tiny("t", 8, &[4, 8], 3).build(&mut rng).unwrap();
    /// let x = nf_tensor::Tensor::zeros(&[2, 3, 8, 8]);
    /// let logits = model.infer(&x).unwrap();
    /// assert_eq!(logits.shape(), &[2, 3]);
    /// ```
    pub fn build<R: Rng>(&self, rng: &mut R) -> nf_nn::Result<BuiltModel> {
        let mut units = Vec::with_capacity(self.units.len());
        for unit in &self.units {
            units.push(build_unit(rng, unit)?);
        }
        let head = build_head(rng, &self.head);
        Ok(BuiltModel {
            spec: self.clone(),
            units,
            head,
        })
    }
}

/// Builds the runnable auxiliary head described by `aux`:
/// `conv3×3(c → f) → global-avg-pool → linear(f → classes)`.
pub fn build_aux_head<R: Rng>(rng: &mut R, aux: &AuxSpec) -> nf_nn::Result<Sequential> {
    let mut seq = Sequential::empty();
    seq.push(Box::new(Conv2d::new(rng, aux.in_ch, aux.filters, 3, 1, 1)?));
    seq.push(Box::new(nf_nn::relu::ReLU::new()));
    seq.push(Box::new(GlobalAvgPool::new()));
    seq.push(Box::new(Linear::new(rng, aux.filters, aux.classes)));
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aux::{assign_aux, AuxPolicy};
    use nf_nn::Mode;
    use nf_tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn built_model_param_count_matches_analytics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let spec = ModelSpec::tiny("t", 8, &[4, 8], 3);
        let mut model = spec.build(&mut rng).unwrap();
        assert_eq!(model.param_count(), spec.total_params());
    }

    #[test]
    fn resnet_units_built_param_count_matches() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let spec = ModelSpec::resnet18(10).scale_channels(0.125, 4);
        let mut model = spec.build(&mut rng).unwrap();
        assert_eq!(model.param_count(), spec.total_params());
    }

    /// One spec, one network: every buildable preset builds the parameters
    /// and unit shapes its spec prices; MobileNet's is a typed error.
    #[test]
    fn every_buildable_preset_matches_its_analytics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for name in ModelSpec::preset_names() {
            for size in [32, 64] {
                let spec = ModelSpec::by_name(name, 10)
                    .unwrap()
                    .scale_channels(0.125, 4)
                    .try_with_input_size(size)
                    .unwrap();
                let (at, built) = (format!("{name} @ {size}"), spec.build(&mut rng));
                if name == "mobilenet" {
                    assert!(matches!(built, Err(nf_nn::NnError::BadInput { .. })));
                    continue;
                }
                let mut model = built.unwrap();
                assert_eq!(model.param_count(), spec.total_params(), "{at}");
                let mut cur = Tensor::zeros(&[1, 3, size, size]);
                for (unit, a) in model.units.iter_mut().zip(spec.analyze()) {
                    cur = unit.forward(&cur, Mode::Eval).unwrap();
                    let (c, h, w) = a.out_shape;
                    assert_eq!(cur.shape(), &[1, c, h, w], "{at} unit {}", a.index);
                }
            }
        }
    }

    #[test]
    fn unit_outputs_match_analytics_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let spec = ModelSpec::tiny("t", 16, &[4, 8, 8, 16], 5);
        let mut model = spec.build(&mut rng).unwrap();
        let analytics = spec.analyze();
        let mut cur = Tensor::zeros(&[2, 3, 16, 16]);
        for (unit, a) in model.units.iter_mut().zip(&analytics) {
            cur = unit.forward(&cur, Mode::Eval).unwrap();
            let (c, h, w) = a.out_shape;
            assert_eq!(cur.shape(), &[2, c, h, w]);
        }
    }

    #[test]
    fn aux_head_predicts_classes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let spec = ModelSpec::tiny("t", 8, &[4], 7);
        let aux = assign_aux(&spec, AuxPolicy::Fixed(6));
        let mut head = build_aux_head(&mut rng, &aux[0]).unwrap();
        let x = Tensor::zeros(&[2, 4, 8, 8]);
        let logits = head.forward(&x, Mode::Eval).unwrap();
        assert_eq!(logits.shape(), &[2, 7]);
    }

    #[test]
    fn aux_head_param_count_matches_spec() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let spec = ModelSpec::tiny("t", 8, &[4, 8], 5);
        for aux in assign_aux(&spec, AuxPolicy::Adaptive) {
            let mut head = build_aux_head(&mut rng, &aux).unwrap();
            assert_eq!(head.param_count(), aux.params());
        }
    }

    #[test]
    fn full_scaled_vgg_builds_and_infers() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let spec = ModelSpec::vgg11(10).scale_channels(0.0625, 2);
        let mut model = spec.build(&mut rng).unwrap();
        let x = Tensor::zeros(&[1, 3, 32, 32]);
        let y = model.infer(&x).unwrap();
        assert_eq!(y.shape(), &[1, 10]);
    }
}
