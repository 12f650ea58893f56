//! Classic greedy local learning (Belilovsky et al.) — the paper's second
//! baseline and the algorithmic substrate NeuroFlux adapts.

use crate::report::TrainReport;
use nf_data::Dataset;
use nf_models::{assign_aux, build_aux_head, exit_accuracy, AuxPolicy, BuiltModel, ExitCandidate};
use nf_nn::optim::Sgd;
use nf_nn::{LocalStep, Sequential};
use nf_tensor::Tensor;

/// Local-learning trainer: every unit paired with an auxiliary classifier,
/// updated from a *local* loss; no feedback between units (Figure 2).
///
/// With [`AuxPolicy::CLASSIC`] this is the classic-LL baseline. The same
/// machinery with [`AuxPolicy::Adaptive`] is AAN-LL — NeuroFlux's first
/// opportunity — which the core crate layers block management on top of.
pub struct LocalLearningTrainer {
    /// Optimizer configuration.
    pub sgd: Sgd,
    /// Number of epochs.
    pub epochs: usize,
    /// Fixed batch size (classic LL cannot adapt it; Section 3, Opp. 2).
    pub batch: usize,
    /// How auxiliary heads are sized.
    pub policy: AuxPolicy,
    /// GEMM kernel backend the run computes on.
    pub kernel_backend: nf_tensor::KernelBackend,
}

/// A model trained by local learning: backbone units plus one trained
/// auxiliary head per unit. Every head is a candidate early exit.
pub struct LocallyTrainedModel {
    /// The backbone (units + original head, which is trained on the final
    /// unit's output).
    pub model: BuiltModel,
    /// One trained auxiliary head per unit.
    pub aux_heads: Vec<Sequential>,
    /// The auxiliary specs used to build the heads.
    pub aux_specs: Vec<nf_models::AuxSpec>,
}

impl LocallyTrainedModel {
    /// Accuracy when predicting from auxiliary head `exit` (backbone is run
    /// in eval mode up to and including unit `exit`):
    /// [`nf_models::exit_accuracy`].
    pub fn exit_accuracy(&mut self, exit: usize, data: &Dataset) -> nf_nn::Result<f32> {
        exit_accuracy(&mut self.model, &mut self.aux_heads, exit, data, 64)
    }

    /// Measures validation accuracy at every exit — one pass over `val`,
    /// [`nf_models::exit_accuracies`] — returning the filled-in candidate
    /// list (Section 5.4's exit evaluation).
    pub fn measure_exits(&mut self, val: &Dataset) -> nf_nn::Result<Vec<ExitCandidate>> {
        let mut cands = nf_models::exit_candidates(&self.model.spec, &self.aux_specs);
        let (model, heads) = (&mut self.model, &mut self.aux_heads);
        let accs = nf_models::exit_accuracies(model, heads, val.images(), val.labels(), 64)?;
        for (cand, acc) in cands.iter_mut().zip(accs) {
            cand.val_accuracy = Some(acc);
        }
        Ok(cands)
    }
}

impl LocalLearningTrainer {
    /// Classic-LL trainer (256-filter heads, momentum-0.9 SGD).
    pub fn classic(lr: f32, epochs: usize, batch: usize) -> Self {
        LocalLearningTrainer {
            sgd: Sgd::new(lr).with_momentum(0.9),
            epochs,
            batch,
            policy: AuxPolicy::CLASSIC,
            kernel_backend: nf_tensor::KernelBackend::default(),
        }
    }

    /// One local-learning pass of a batch through the whole model
    /// (Algorithm 2 applied to all units): per unit,
    /// [`LocalStep::train_unit`], passing activations on (detached); then
    /// the deep head, [`LocalStep::train_head`]. `tensors` carries the
    /// step's buffers from one batch to the next.
    ///
    /// Returns the mean local loss across units and the deep head.
    pub fn step(
        &self,
        tensors: &mut LocalStep,
        model: &mut BuiltModel,
        aux_heads: &mut [Sequential],
        images: &Tensor,
        labels: &[usize],
    ) -> nf_nn::Result<f32> {
        tensors.cur.copy_from(images);
        let mut total_loss = 0.0f32;
        for (unit, head) in model.units.iter_mut().zip(aux_heads) {
            total_loss += tensors.train_unit(&self.sgd, unit, head, labels)?;
        }
        // The original head trains on the final unit's (detached) output —
        // the model's own final exit.
        total_loss += tensors.train_head(&self.sgd, &mut model.head, labels)?;
        Ok(total_loss / (model.units.len() + 1) as f32)
    }

    /// Trains a freshly built model with local learning.
    pub fn train<R: rand::Rng>(
        &self,
        rng: &mut R,
        mut model: BuiltModel,
        train: &Dataset,
        test: &Dataset,
    ) -> nf_nn::Result<(LocallyTrainedModel, TrainReport)> {
        let aux_specs = assign_aux(&model.spec, self.policy);
        let mut aux_heads = aux_specs
            .iter()
            .map(|spec| build_aux_head(rng, spec))
            .collect::<nf_nn::Result<Vec<_>>>()?;
        model.prepare_local_learning(&mut aux_heads, self.kernel_backend);
        let mut tensors = LocalStep::default();
        let last = model.units.len() - 1;
        let mut report = TrainReport::default();
        for _ in 0..self.epochs {
            let mut losses = Vec::new();
            for (images, labels) in train.batches(self.batch) {
                let loss = self.step(&mut tensors, &mut model, &mut aux_heads, &images, &labels)?;
                losses.push(loss);
            }
            report
                .epoch_loss
                .push(losses.iter().sum::<f32>() / losses.len().max(1) as f32);
            let (model, heads) = (&mut model, &mut aux_heads);
            report
                .train_accuracy
                .push(exit_accuracy(model, heads, last, train, 64)?);
            report
                .test_accuracy
                .push(exit_accuracy(model, heads, last, test, 64)?);
        }
        Ok((
            LocallyTrainedModel {
                model,
                aux_heads,
                aux_specs,
            },
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_data::SyntheticSpec;
    use nf_models::ModelSpec;
    use nf_nn::loss::cross_entropy;
    use nf_nn::{Layer, Mode};
    use rand::SeedableRng;

    #[test]
    fn classic_ll_learns_separable_task() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let ds = SyntheticSpec::quick(3, 8, 96).generate();
        let spec = ModelSpec::tiny("t", 8, &[8, 16], 3);
        let model = spec.build(&mut rng).unwrap();
        let trainer = LocalLearningTrainer {
            policy: AuxPolicy::Fixed(8),
            ..LocalLearningTrainer::classic(0.05, 6, 16)
        };
        let (mut trained, report) = trainer.train(&mut rng, model, &ds.train, &ds.test).unwrap();
        assert!(report.loss_improved());
        assert!(
            report.final_test_accuracy() > 0.55,
            "test acc {:?}",
            report.test_accuracy
        );
        // Every exit is usable.
        for exit in 0..trained.model.units.len() {
            let acc = trained.exit_accuracy(exit, &ds.test).unwrap();
            assert!(acc > 0.3, "exit {exit} accuracy {acc}");
        }
    }

    #[test]
    fn no_feedback_between_units() {
        // Unit 0's parameters must be identical whether or not unit 1
        // exists: local learning has no cross-unit gradients.
        let ds = SyntheticSpec::quick(2, 8, 16).generate();
        let (images, labels) = ds.train.batch(0, 8);

        let trainer = LocalLearningTrainer {
            policy: AuxPolicy::Fixed(4),
            ..LocalLearningTrainer::classic(0.1, 1, 8)
        };

        // Shared-prefix initialisation: unit 0 and its head are drawn from
        // identical dedicated RNG streams in both configurations.
        let spec2 = ModelSpec::tiny("two", 8, &[4, 8], 2);
        let spec1 = ModelSpec::tiny("one", 8, &[4], 2);
        let aux2 = assign_aux(&spec2, trainer.policy);
        let aux1 = assign_aux(&spec1, trainer.policy);

        let mut rng_u0 = rand::rngs::StdRng::seed_from_u64(7);
        let mut model2 = spec2.build(&mut rng_u0).unwrap();
        let mut rng_u0 = rand::rngs::StdRng::seed_from_u64(7);
        let mut model1 = spec1.build(&mut rng_u0).unwrap();

        let mut rng_h = rand::rngs::StdRng::seed_from_u64(99);
        let mut heads2: Vec<Sequential> = aux2
            .iter()
            .map(|a| build_aux_head(&mut rng_h, a).unwrap())
            .collect();
        let mut rng_h = rand::rngs::StdRng::seed_from_u64(99);
        let mut heads1: Vec<Sequential> = aux1
            .iter()
            .map(|a| build_aux_head(&mut rng_h, a).unwrap())
            .collect();

        let mut tensors = LocalStep::default();
        trainer
            .step(&mut tensors, &mut model2, &mut heads2, &images, &labels)
            .unwrap();
        trainer
            .step(&mut tensors, &mut model1, &mut heads1, &images, &labels)
            .unwrap();

        let mut params2 = Vec::new();
        model2.units[0].visit_params(&mut |p| params2.push(p.value.clone()));
        let mut params1 = Vec::new();
        model1.units[0].visit_params(&mut |p| params1.push(p.value.clone()));
        assert_eq!(params1, params2);
    }

    #[test]
    fn skipping_input_gradients_changes_no_bits() {
        // `step` never computes a unit's (or the deep head's) input
        // gradient. Against the same update written with the full
        // `backward`, every loss and every trained weight keeps its bits.
        let ds = SyntheticSpec::quick(3, 8, 32).generate();
        let trainer = LocalLearningTrainer {
            policy: AuxPolicy::Fixed(4),
            ..LocalLearningTrainer::classic(0.1, 1, 8)
        };
        let setup = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let spec = ModelSpec::tiny("lean", 8, &[4, 6], 3);
            let model = spec.build(&mut rng).unwrap();
            let heads: Vec<Sequential> = assign_aux(&spec, trainer.policy)
                .iter()
                .map(|a| build_aux_head(&mut rng, a).unwrap())
                .collect();
            (model, heads)
        };
        let (mut lean, mut lean_heads) = setup();
        let (mut full, mut full_heads) = setup();
        let mut tensors = LocalStep::default();
        for (images, labels) in ds.train.batches(8).take(3) {
            let got = trainer
                .step(&mut tensors, &mut lean, &mut lean_heads, &images, &labels)
                .unwrap();
            let mut cur = images.clone();
            let mut want = 0.0f32;
            for (unit, head) in full.units.iter_mut().zip(&mut full_heads) {
                let out = unit.forward(&cur, Mode::Train).unwrap();
                let logits = head.forward(&out, Mode::Train).unwrap();
                let (loss, grad_logits) = cross_entropy(&logits, &labels).unwrap();
                want += loss;
                let grad_out = head.backward(&grad_logits).unwrap();
                assert_eq!(unit.backward(&grad_out).unwrap().shape(), cur.shape());
                trainer.sgd.step(unit);
                trainer.sgd.step(head);
                cur = out;
            }
            let logits = full.head.forward(&cur, Mode::Train).unwrap();
            let (loss, grad_logits) = cross_entropy(&logits, &labels).unwrap();
            full.head.backward(&grad_logits).unwrap();
            trainer.sgd.step(&mut full.head);
            want = (want + loss) / (full.units.len() + 1) as f32;
            assert_eq!(got.to_bits(), want.to_bits());
        }
        let weights = |model: &mut BuiltModel, heads: &mut [Sequential]| {
            let mut bits: Vec<u32> = Vec::new();
            let units = model.units.iter_mut().chain(heads.iter_mut());
            for layer in units.chain(std::iter::once(&mut model.head)) {
                layer
                    .visit_params(&mut |p| bits.extend(p.value.data().iter().map(|v| v.to_bits())));
            }
            bits
        };
        assert_eq!(
            weights(&mut lean, &mut lean_heads),
            weights(&mut full, &mut full_heads)
        );
    }

    #[test]
    fn measure_exits_fills_accuracies() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let ds = SyntheticSpec::quick(2, 8, 32).generate();
        let spec = ModelSpec::tiny("t", 8, &[4, 4], 2);
        let model = spec.build(&mut rng).unwrap();
        let trainer = LocalLearningTrainer {
            policy: AuxPolicy::Fixed(4),
            ..LocalLearningTrainer::classic(0.05, 1, 16)
        };
        let (mut trained, _) = trainer.train(&mut rng, model, &ds.train, &ds.test).unwrap();
        let cands = trained.measure_exits(&ds.val).unwrap();
        assert_eq!(cands.len(), 2);
        // One pass over the split scores what each exit scores alone.
        for (i, c) in cands.iter().enumerate() {
            let alone = trained.exit_accuracy(i, &ds.val).unwrap();
            assert_eq!(c.val_accuracy.map(f32::to_bits), Some(alone.to_bits()));
        }
    }

    #[test]
    fn classic_ll_bits_match_the_committed_digest() {
        // Two epochs of the classic baseline (256-filter heads) on a fixed
        // seed, over a split whose last batch is short: the per-epoch
        // losses and accuracies, then every trained weight and batch-norm
        // statistic of the units, the auxiliary heads and the deep head,
        // digest (FNV-1a over the f32 bits) to a committed value.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let ds = SyntheticSpec::quick(3, 8, 40).generate();
        let model = ModelSpec::tiny("pin", 8, &[4, 6, 8], 3)
            .build(&mut rng)
            .unwrap();
        let trainer = LocalLearningTrainer::classic(0.05, 2, 16);
        let (mut trained, report) = trainer.train(&mut rng, model, &ds.train, &ds.test).unwrap();
        let mut bits: Vec<u32> = [
            report.epoch_loss,
            report.train_accuracy,
            report.test_accuracy,
        ]
        .iter()
        .flatten()
        .map(|v| v.to_bits())
        .collect();
        let units = trained.model.units.iter_mut().chain(&mut trained.aux_heads);
        for layer in units.chain(std::iter::once(&mut trained.model.head)) {
            layer.visit_params(&mut |p| bits.extend(p.value.data().iter().map(|v| v.to_bits())));
            layer.visit_buffers(&mut |t| bits.extend(t.data().iter().map(|v| v.to_bits())));
        }
        let digest = bits
            .iter()
            .flat_map(|b| b.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(format!("{digest:016x}"), "a2e938de90370c85");
    }
}
