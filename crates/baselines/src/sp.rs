//! Simplified Signal Propagation (Kohan et al.) stand-in.
//!
//! True SP recasts labels into the input space ("context") and trains each
//! layer so that sample activations align with their class context — all
//! with forward passes, no auxiliary classifiers. This module implements
//! the same *systems* profile with a simpler learning rule: each layer
//! maintains an exponential moving average **prototype** of its output per
//! class and trains, layer-locally, to pull outputs toward their class
//! prototype and away from the nearest rival (a forward-only, aux-free
//! objective). Prediction at the last layer is nearest-prototype.
//!
//! What matters for the paper's Figure 3 is the quadrant placement: SP
//! needs only one layer's activations at a time (memory ≈ inference, far
//! below BP/LL) but reaches lower accuracy than BP/LL — both properties
//! hold for this stand-in. The substitution is documented in DESIGN.md §2.

use crate::report::TrainReport;
use nf_data::Dataset;
use nf_models::BuiltModel;
use nf_nn::loss::mse;
use nf_nn::optim::Sgd;
use nf_nn::{Layer, Mode};
use nf_tensor::Tensor;

/// Signal-propagation-style trainer.
pub struct SpTrainer {
    /// Optimizer configuration.
    pub sgd: Sgd,
    /// Number of epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch: usize,
    /// Prototype EMA momentum.
    pub proto_momentum: f32,
    /// GEMM kernel backend the run computes on.
    pub kernel_backend: nf_tensor::KernelBackend,
}

/// Per-layer class prototypes in flattened output space.
struct Prototypes {
    /// `classes × dim`, row per class.
    data: Vec<Vec<f32>>,
    initialised: Vec<bool>,
}

impl Prototypes {
    fn new(classes: usize) -> Self {
        Prototypes {
            data: vec![Vec::new(); classes],
            initialised: vec![false; classes],
        }
    }

    fn update(&mut self, label: usize, sample: &[f32], momentum: f32) {
        if !self.initialised[label] {
            self.data[label] = sample.to_vec();
            self.initialised[label] = true;
            return;
        }
        for (p, &s) in self.data[label].iter_mut().zip(sample) {
            *p = (1.0 - momentum) * *p + momentum * s;
        }
    }

    fn target_for(&self, label: usize, dim: usize) -> Vec<f32> {
        if self.initialised[label] {
            self.data[label].clone()
        } else {
            vec![0.0; dim]
        }
    }

    fn nearest(&self, sample: &[f32]) -> usize {
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (k, proto) in self.data.iter().enumerate() {
            if !self.initialised[k] {
                continue;
            }
            let d: f32 = sample
                .iter()
                .zip(proto)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            if d < best_d {
                best_d = d;
                best = k;
            }
        }
        best
    }
}

impl SpTrainer {
    /// Creates an SP trainer on plain SGD, deliberately without momentum:
    /// the prototype targets move every batch, and a velocity would keep
    /// pulling outputs toward where a target used to be. `nf baseline sp`
    /// keeps it at 0.0 whatever `[train] momentum` says.
    pub fn new(lr: f32, epochs: usize, batch: usize) -> Self {
        SpTrainer {
            sgd: Sgd::new(lr).with_momentum(0.0),
            epochs,
            batch,
            proto_momentum: 0.2,
            kernel_backend: nf_tensor::KernelBackend::default(),
        }
    }

    /// Trains `model`'s units layer-locally with prototype targets;
    /// reports nearest-prototype accuracy at the deepest layer.
    pub fn train(
        &self,
        model: &mut BuiltModel,
        train: &Dataset,
        test: &Dataset,
    ) -> nf_nn::Result<TrainReport> {
        // Pin every layer to the configured backend, sharing one scratch
        // workspace across the sequentially trained units.
        let ws = nf_tensor::shared_workspace();
        for unit in &mut model.units {
            unit.set_kernel_backend(self.kernel_backend);
            unit.set_workspace(&ws);
        }
        let classes = model.spec.classes;
        let n_units = model.units.len();
        let mut protos: Vec<Prototypes> = (0..n_units).map(|_| Prototypes::new(classes)).collect();
        let mut report = TrainReport::default();
        for _ in 0..self.epochs {
            let mut losses = Vec::new();
            for (images, labels) in train.batches(self.batch) {
                let mut cur = images;
                for (unit, proto) in model.units.iter_mut().zip(&mut protos) {
                    let out = unit.forward(&cur, Mode::Train)?;
                    let n = out.shape()[0];
                    let dim = out.numel() / n;
                    // Update prototypes from the fresh outputs, then build a
                    // per-sample target tensor.
                    let mut target = Vec::with_capacity(out.numel());
                    for (i, &label) in labels.iter().enumerate() {
                        let sample = &out.data()[i * dim..(i + 1) * dim];
                        proto.update(label, sample, self.proto_momentum);
                        target.extend(proto.target_for(label, dim));
                    }
                    let target = Tensor::from_vec(out.shape().to_vec(), target)?;
                    let (loss, grad) = mse(&out, &target)?;
                    losses.push(loss);
                    // Layer-local: no unit reads another's input gradient.
                    unit.backward_params(&grad)?;
                    self.sgd.step(unit);
                    cur = out;
                }
            }
            report
                .epoch_loss
                .push(losses.iter().sum::<f32>() / losses.len().max(1) as f32);
            report
                .train_accuracy
                .push(self.evaluate(model, &protos, train)?);
            report
                .test_accuracy
                .push(self.evaluate(model, &protos, test)?);
        }
        Ok(report)
    }

    fn evaluate(
        &self,
        model: &mut BuiltModel,
        protos: &[Prototypes],
        data: &Dataset,
    ) -> nf_nn::Result<f32> {
        if data.is_empty() || protos.is_empty() {
            return Ok(0.0);
        }
        let last = protos.len() - 1;
        let mut correct = 0usize;
        let mut seen = 0usize;
        for (images, labels) in data.batches(64) {
            let mut cur = images;
            for unit in &mut model.units {
                cur = unit.forward(&cur, Mode::Eval)?;
            }
            let n = cur.shape()[0];
            let dim = cur.numel() / n;
            for (i, &label) in labels.iter().enumerate() {
                let sample = &cur.data()[i * dim..(i + 1) * dim];
                if protos[last].nearest(sample) == label {
                    correct += 1;
                }
            }
            seen += labels.len();
        }
        Ok(correct as f32 / seen as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_data::SyntheticSpec;
    use nf_models::ModelSpec;
    use rand::SeedableRng;

    #[test]
    fn sp_beats_chance_on_easy_task() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let ds = SyntheticSpec::quick(2, 8, 64).generate();
        let spec = ModelSpec::tiny("t", 8, &[6, 8], 2);
        let mut model = spec.build(&mut rng).unwrap();
        let report = SpTrainer::new(0.01, 5, 16)
            .train(&mut model, &ds.train, &ds.test)
            .unwrap();
        assert!(
            report.final_test_accuracy() > 0.55,
            "acc {:?}",
            report.test_accuracy
        );
    }

    #[test]
    fn skipping_input_gradients_changes_no_bits() {
        // `train` never computes a unit's input gradient. Against the same
        // loop written with the full `backward`, the epoch loss and every
        // trained weight keep their bits.
        let ds = SyntheticSpec::quick(2, 8, 32).generate();
        let trainer = SpTrainer::new(0.01, 1, 16);
        let build = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            ModelSpec::tiny("lean", 8, &[4, 6], 2)
                .build(&mut rng)
                .unwrap()
        };
        let mut lean = build();
        let report = trainer.train(&mut lean, &ds.train, &ds.test).unwrap();

        let mut full = build();
        let mut protos: Vec<Prototypes> = full.units.iter().map(|_| Prototypes::new(2)).collect();
        let mut losses = Vec::new();
        for (images, labels) in ds.train.batches(trainer.batch) {
            let mut cur = images;
            for (unit, proto) in full.units.iter_mut().zip(&mut protos) {
                let out = unit.forward(&cur, Mode::Train).unwrap();
                let dim = out.numel() / out.shape()[0];
                let mut target = Vec::with_capacity(out.numel());
                for (i, &label) in labels.iter().enumerate() {
                    proto.update(
                        label,
                        &out.data()[i * dim..(i + 1) * dim],
                        trainer.proto_momentum,
                    );
                    target.extend(proto.target_for(label, dim));
                }
                let target = Tensor::from_vec(out.shape().to_vec(), target).unwrap();
                let (loss, grad) = mse(&out, &target).unwrap();
                losses.push(loss);
                assert_eq!(unit.backward(&grad).unwrap().shape(), cur.shape());
                trainer.sgd.step(unit);
                cur = out;
            }
        }
        let want = losses.iter().sum::<f32>() / losses.len() as f32;
        assert_eq!(report.epoch_loss[0].to_bits(), want.to_bits());
        let weights = |model: &mut BuiltModel| {
            let mut bits: Vec<u32> = Vec::new();
            for unit in &mut model.units {
                unit.visit_params(&mut |p| bits.extend(p.value.data().iter().map(|v| v.to_bits())));
            }
            bits
        };
        assert_eq!(weights(&mut lean), weights(&mut full));
    }

    #[test]
    fn prototypes_track_class_means() {
        let mut p = Prototypes::new(2);
        p.update(0, &[1.0, 0.0], 0.5);
        assert_eq!(p.target_for(0, 2), vec![1.0, 0.0]);
        p.update(0, &[0.0, 0.0], 0.5);
        assert_eq!(p.target_for(0, 2), vec![0.5, 0.0]);
        // Uninitialised class yields zeros and never wins nearest().
        assert_eq!(p.target_for(1, 2), vec![0.0, 0.0]);
        assert_eq!(p.nearest(&[0.4, 0.0]), 0);
    }
}
