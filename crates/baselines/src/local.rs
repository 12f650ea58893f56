//! Classic greedy local learning (Belilovsky et al.) — the paper's second
//! baseline and the algorithmic substrate NeuroFlux adapts: every unit
//! paired with an auxiliary classifier and updated from its *local* loss,
//! with no feedback between units (Figure 2).
//!
//! It is the NeuroFlux Worker over a one-block plan: all units at one
//! batch size (classic LL cannot adapt it; §3, Opportunity 2), the block's
//! output cached and the deep head trained on it afterwards. With
//! [`nf_models::AuxPolicy::CLASSIC`] heads this is the classic-LL
//! baseline; with `Adaptive` heads it is AAN-LL, NeuroFlux's first
//! opportunity.

use crate::report::TrainReport;
use neuroflux_core::{ActivationStore, Block, NeuroFluxConfig, Result, RunHooks, Worker};
use nf_data::Dataset;
use nf_models::{exit_accuracy, BuiltModel};
use nf_nn::Sequential;

/// Trains `model` and its `aux_heads` (one per unit) by local learning:
/// [`Worker::run_with`] over one [`Block`] of every unit at `batch`, the
/// block's output streamed through `store`. `config` supplies the
/// optimizer, the epochs and the cache codec; its budget, batch limit and
/// ρ plan nothing here.
///
/// `epoch_loss` is the block's mean local loss per epoch (the units' only;
/// the deep head trains after them). After every epoch the Worker's epoch
/// hook scores the last unit's exit on `train` and `test` at batch 64.
pub fn train_local(
    config: NeuroFluxConfig,
    store: &mut dyn ActivationStore,
    model: &mut BuiltModel,
    aux_heads: &mut [Sequential],
    batch: usize,
    train: &Dataset,
    test: &Dataset,
) -> Result<TrainReport> {
    let last = model.units.len().saturating_sub(1);
    let (mut train_accuracy, mut test_accuracy) = (Vec::new(), Vec::new());
    let mut score = |model: &mut BuiltModel, heads: &mut [Sequential]| -> Result<()> {
        train_accuracy.push(exit_accuracy(model, heads, last, train, 64)?);
        test_accuracy.push(exit_accuracy(model, heads, last, test, 64)?);
        Ok(())
    };
    let block = Block {
        units: 0..model.units.len(),
        batch,
    };
    let hooks = &mut RunHooks {
        after_epoch: Some(&mut score),
        ..RunHooks::default()
    };
    let (images, labels) = (train.images(), train.labels());
    let report =
        Worker::new(config, store).run_with(model, aux_heads, &[block], images, labels, hooks)?;
    Ok(TrainReport {
        epoch_loss: report.block_losses.into_iter().next().unwrap_or_default(),
        train_accuracy,
        test_accuracy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuroflux_core::MemoryStore;
    use nf_data::SyntheticSpec;
    use nf_models::{build_aux_heads, AuxPolicy, ModelSpec};
    use nf_nn::loss::cross_entropy;
    use nf_nn::{Layer, Mode};
    use rand::SeedableRng;

    /// `lr` and `epochs` on the Worker's defaults (momentum 0.9).
    fn config(lr: f32, epochs: usize) -> NeuroFluxConfig {
        NeuroFluxConfig::new(1 << 30, 64)
            .with_lr(lr)
            .with_epochs(epochs)
    }

    /// FNV-1a over the little-endian bytes of `bits`.
    fn fnv1a(bits: &[u32]) -> String {
        let digest = bits
            .iter()
            .flat_map(|b| b.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        format!("{digest:016x}")
    }

    fn push_state(bits: &mut Vec<u32>, layer: &mut dyn Layer) {
        layer.visit_params(&mut |p| bits.extend(p.value.data().iter().map(|v| v.to_bits())));
        layer.visit_buffers(&mut |t| bits.extend(t.data().iter().map(|v| v.to_bits())));
    }

    #[test]
    fn classic_ll_learns_separable_task() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let ds = SyntheticSpec::quick(3, 8, 96).generate();
        let spec = ModelSpec::tiny("t", 8, &[8, 16], 3);
        let mut model = spec.build(&mut rng).unwrap();
        let mut heads = build_aux_heads(&mut rng, &spec, AuxPolicy::Fixed(8)).unwrap();
        let config = config(0.05, 6);
        let mut store = MemoryStore::new();
        let report = train_local(
            config, &mut store, &mut model, &mut heads, 16, &ds.train, &ds.test,
        )
        .unwrap();
        assert!(report.loss_improved());
        assert!(
            report.final_test_accuracy() > 0.55,
            "test acc {:?}",
            report.test_accuracy
        );
        // Every exit is usable.
        for exit in 0..model.units.len() {
            let acc = exit_accuracy(&mut model, &mut heads, exit, &ds.test, 64).unwrap();
            assert!(acc > 0.3, "exit {exit} accuracy {acc}");
        }
    }

    #[test]
    fn no_feedback_between_units() {
        // Unit 0's parameters must be identical whether or not unit 1
        // exists: local learning has no cross-unit gradients.
        let ds = SyntheticSpec::quick(2, 8, 16).generate();
        let policy = AuxPolicy::Fixed(4);
        let config = config(0.1, 1);

        // Shared-prefix initialisation: unit 0 and its head are drawn from
        // identical dedicated RNG streams in both configurations.
        let unit0 = |spec: &ModelSpec| {
            let mut model = spec
                .build(&mut rand::rngs::StdRng::seed_from_u64(7))
                .unwrap();
            let rng_h = &mut rand::rngs::StdRng::seed_from_u64(99);
            let mut heads = build_aux_heads(rng_h, spec, policy).unwrap();
            let mut store = MemoryStore::new();
            train_local(
                config, &mut store, &mut model, &mut heads, 8, &ds.train, &ds.test,
            )
            .unwrap();
            let mut params = Vec::new();
            model.units[0].visit_params(&mut |p| params.push(p.value.clone()));
            params
        };
        let two = unit0(&ModelSpec::tiny("two", 8, &[4, 8], 2));
        assert_eq!(two, unit0(&ModelSpec::tiny("one", 8, &[4], 2)));
    }

    #[test]
    fn skipping_input_gradients_changes_no_bits() {
        // `train_local` never computes a unit's (or the deep head's) input
        // gradient, and its epoch hook only evaluates. Against classic LL
        // written by hand with the full `backward`, every epoch loss and
        // every trained weight keeps its bits.
        let ds = SyntheticSpec::quick(3, 8, 32).generate();
        let config = config(0.1, 2);
        let batch = 8;
        let setup = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let spec = ModelSpec::tiny("lean", 8, &[4, 6], 3);
            let model = spec.build(&mut rng).unwrap();
            let heads = build_aux_heads(&mut rng, &spec, AuxPolicy::Fixed(4)).unwrap();
            (model, heads)
        };

        let (mut lean, mut lean_heads) = setup();
        let mut store = MemoryStore::new();
        let report = train_local(
            config,
            &mut store,
            &mut lean,
            &mut lean_heads,
            batch,
            &ds.train,
            &ds.test,
        )
        .unwrap();

        let (mut full, mut full_heads) = setup();
        let sgd = nf_nn::optim::Sgd::new(config.lr).with_momentum(config.momentum);
        let mut want = Vec::new();
        for _ in 0..config.epochs_per_block {
            let mut losses = Vec::new();
            for (images, labels) in ds.train.batches(batch) {
                let mut cur = images.clone();
                for (unit, head) in full.units.iter_mut().zip(&mut full_heads) {
                    let out = unit.forward(&cur, Mode::Train).unwrap();
                    let logits = head.forward(&out, Mode::Train).unwrap();
                    let (loss, grad_logits) = cross_entropy(&logits, &labels).unwrap();
                    losses.push(loss);
                    let grad_out = head.backward(&grad_logits).unwrap();
                    assert_eq!(unit.backward(&grad_out).unwrap().shape(), cur.shape());
                    sgd.step(unit);
                    sgd.step(head);
                    cur = out;
                }
            }
            want.push(losses.iter().sum::<f32>() / losses.len() as f32);
        }
        // The deep head trains after the block, on its eval-mode output.
        let mut outputs = Vec::new();
        for (images, labels) in ds.train.batches(batch) {
            let mut cur = images.clone();
            for unit in &mut full.units {
                cur = unit.forward(&cur, Mode::Eval).unwrap();
            }
            outputs.push((cur, labels));
        }
        for _ in 0..config.epochs_per_block {
            for (out, labels) in &outputs {
                let logits = full.head.forward(out, Mode::Train).unwrap();
                let (_, grad_logits) = cross_entropy(&logits, labels).unwrap();
                assert_eq!(
                    full.head.backward(&grad_logits).unwrap().shape(),
                    out.shape()
                );
                sgd.step(&mut full.head);
            }
        }

        let bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&report.epoch_loss), bits(&want));
        let state = |model: &mut BuiltModel, heads: &mut [Sequential]| {
            let mut bits = Vec::new();
            let units = model.units.iter_mut().chain(heads.iter_mut());
            for layer in units.chain(std::iter::once(&mut model.head)) {
                push_state(&mut bits, layer);
            }
            bits
        };
        assert_eq!(
            state(&mut lean, &mut lean_heads),
            state(&mut full, &mut full_heads)
        );
    }

    /// Two epochs of the classic baseline (256-filter heads) on a fixed
    /// seed, over a split whose last batch is short.
    fn pinned_run() -> (TrainReport, BuiltModel, Vec<Sequential>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let ds = SyntheticSpec::quick(3, 8, 40).generate();
        let spec = ModelSpec::tiny("pin", 8, &[4, 6, 8], 3);
        let mut model = spec.build(&mut rng).unwrap();
        let mut heads = build_aux_heads(&mut rng, &spec, AuxPolicy::CLASSIC).unwrap();
        let config = config(0.05, 2);
        let mut store = MemoryStore::new();
        let report = train_local(
            config, &mut store, &mut model, &mut heads, 16, &ds.train, &ds.test,
        )
        .unwrap();
        (report, model, heads)
    }

    #[test]
    fn classic_ll_units_heads_and_accuracies_match_the_committed_digest() {
        // The per-epoch accuracies, then every trained weight and
        // batch-norm statistic of the units and the auxiliary heads: what
        // local learning computes, however the loop around it is written.
        let (report, mut model, mut heads) = pinned_run();
        let accuracies = [report.train_accuracy, report.test_accuracy];
        let mut bits: Vec<u32> = accuracies.iter().flatten().map(|v| v.to_bits()).collect();
        for layer in model.units.iter_mut().chain(&mut heads) {
            push_state(&mut bits, layer);
        }
        assert_eq!(fnv1a(&bits), "635d450ab4ceaabc");
    }

    #[test]
    fn classic_ll_bits_match_the_committed_digest() {
        // The per-epoch losses and accuracies, then every trained weight
        // and batch-norm statistic of the units, the auxiliary heads and
        // the deep head.
        let (report, mut model, mut heads) = pinned_run();
        let series = [
            report.epoch_loss,
            report.train_accuracy,
            report.test_accuracy,
        ];
        let mut bits: Vec<u32> = series.iter().flatten().map(|v| v.to_bits()).collect();
        let units = model.units.iter_mut().chain(&mut heads);
        for layer in units.chain(std::iter::once(&mut model.head)) {
            push_state(&mut bits, layer);
        }
        assert_eq!(fnv1a(&bits), "481f243a8118a700");
    }
}
