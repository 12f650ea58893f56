//! Vanilla end-to-end backpropagation — the paper's primary baseline.

use crate::report::TrainReport;
use nf_data::Dataset;
use nf_models::BuiltModel;
use nf_nn::loss::{accuracy, cross_entropy};
use nf_nn::optim::Sgd;
use nf_nn::{Layer, Mode};
use nf_tensor::Tensor;

/// End-to-end BP trainer: one global cross-entropy loss at the head,
/// gradients chained backwards through every unit.
///
/// This is "vanilla Backpropagation, which includes no activation/gradient
/// checkpointing" (Section 6) — every unit keeps its forward cache alive
/// for the whole batch, which is exactly the memory behaviour the
/// `nf-memsim` BP model charges for.
#[derive(Debug, Clone, Copy)]
pub struct BpTrainer {
    /// Optimizer configuration.
    pub sgd: Sgd,
    /// Number of epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch: usize,
    /// GEMM kernel backend the run computes on (blocked parallel unless
    /// overridden).
    pub kernel_backend: nf_tensor::KernelBackend,
}

impl BpTrainer {
    /// Creates a trainer with momentum-0.9 SGD.
    pub fn new(lr: f32, epochs: usize, batch: usize) -> Self {
        BpTrainer {
            sgd: Sgd::new(lr).with_momentum(0.9),
            epochs,
            batch,
            kernel_backend: nf_tensor::KernelBackend::default(),
        }
    }

    /// Runs one optimisation step on a batch, returning the loss.
    pub fn step(
        &self,
        model: &mut BuiltModel,
        images: &Tensor,
        labels: &[usize],
    ) -> nf_nn::Result<f32> {
        let mut cur = images.clone();
        for unit in &mut model.units {
            cur = unit.forward(&cur, Mode::Train)?;
        }
        let logits = model.head.forward(&cur, Mode::Train)?;
        let (loss, grad) = cross_entropy(&logits, labels)?;
        let mut grad = model.head.backward(&grad)?;
        for unit in model.units.iter_mut().rev() {
            grad = unit.backward(&grad)?;
        }
        for unit in &mut model.units {
            self.sgd.step(unit);
        }
        self.sgd.step(&mut model.head);
        Ok(loss)
    }

    /// Trains for the configured epochs, evaluating after each.
    pub fn train(
        &self,
        model: &mut BuiltModel,
        train: &Dataset,
        test: &Dataset,
    ) -> nf_nn::Result<TrainReport> {
        // Pin every layer to the configured backend and share one scratch
        // workspace across the whole network — BP trains end-to-end, so the
        // network is a single "block".
        let ws = nf_tensor::shared_workspace();
        for unit in &mut model.units {
            unit.set_kernel_backend(self.kernel_backend);
            unit.set_workspace(&ws);
        }
        model.head.set_kernel_backend(self.kernel_backend);
        model.head.set_workspace(&ws);
        let mut report = TrainReport::default();
        for _ in 0..self.epochs {
            let mut losses = Vec::new();
            for (images, labels) in train.batches(self.batch) {
                losses.push(self.step(model, &images, &labels)?);
            }
            report
                .epoch_loss
                .push(losses.iter().sum::<f32>() / losses.len().max(1) as f32);
            report.train_accuracy.push(evaluate(model, train)?);
            report.test_accuracy.push(evaluate(model, test)?);
        }
        Ok(report)
    }
}

/// Full-model inference accuracy on a dataset (batched to bound memory).
pub fn evaluate(model: &mut BuiltModel, data: &Dataset) -> nf_nn::Result<f32> {
    if data.is_empty() {
        return Ok(0.0);
    }
    let mut correct = 0.0f32;
    let mut seen = 0usize;
    for (images, labels) in data.batches(64) {
        let logits = model.infer(&images)?;
        correct += accuracy(&logits, &labels)? * labels.len() as f32;
        seen += labels.len();
    }
    Ok(correct / seen as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_data::SyntheticSpec;
    use nf_models::ModelSpec;
    use rand::SeedableRng;

    #[test]
    fn bp_learns_separable_synthetic_task() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let ds = SyntheticSpec::quick(3, 8, 96).generate();
        let spec = ModelSpec::tiny("t", 8, &[8, 16], 3);
        let mut model = spec.build(&mut rng).unwrap();
        let trainer = BpTrainer::new(0.05, 6, 16);
        let report = trainer.train(&mut model, &ds.train, &ds.test).unwrap();
        assert!(report.loss_improved(), "loss: {:?}", report.epoch_loss);
        assert!(
            report.final_test_accuracy() > 0.6,
            "test acc {:?}",
            report.test_accuracy
        );
    }

    #[test]
    fn step_reduces_loss_on_repeated_batch() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let ds = SyntheticSpec::quick(2, 8, 16).generate();
        let spec = ModelSpec::tiny("t", 8, &[4], 2);
        let mut model = spec.build(&mut rng).unwrap();
        let trainer = BpTrainer::new(0.05, 1, 16);
        let (images, labels) = ds.train.batch(0, 16);
        let first = trainer.step(&mut model, &images, &labels).unwrap();
        let mut last = first;
        for _ in 0..10 {
            last = trainer.step(&mut model, &images, &labels).unwrap();
        }
        assert!(last < first, "{last} !< {first}");
    }

    #[test]
    fn evaluate_empty_dataset_is_zero() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let spec = ModelSpec::tiny("t", 8, &[4], 2);
        let mut model = spec.build(&mut rng).unwrap();
        let empty = nf_data::Dataset::new(nf_tensor::Tensor::zeros(&[0, 3, 8, 8]), vec![]).unwrap();
        assert_eq!(evaluate(&mut model, &empty).unwrap(), 0.0);
    }
}
