//! The Controller (§3/§4): end-to-end NeuroFlux orchestration.
//!
//! Wires the pipeline of Figure 7 together: Profiler → Partitioner →
//! Worker → early-exit selection, producing the streamlined output model.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::cache::{ActivationStore, MemoryStore};
use crate::config::NeuroFluxConfig;
use crate::partitioner::{plan, Block};
use crate::worker::{RunHooks, TrainEvent, Worker, WorkerReport};
use crate::{NfError, Result};
use nf_data::{Dataset, SplitDataset};
use nf_models::{build_aux_heads, exit_accuracy, BuiltModel, ExitCandidate, ModelSpec};
use nf_nn::Sequential;
use rand::Rng;

/// Caller-supplied extension points for [`NeuroFluxTrainer::train_with`].
///
/// Everything defaults to the plain [`NeuroFluxTrainer::train`] behaviour:
/// an in-memory activation store, no progress reporting, no checkpointing,
/// and a fresh (non-resumed) run.
#[derive(Default)]
pub struct TrainHooks<'h> {
    /// Activation store the Worker caches block outputs in. `None` uses a
    /// run-private [`MemoryStore`]; the CLI passes a
    /// [`crate::DiskStore`] inside the run directory so an interrupted
    /// run's cache survives the process.
    pub store: Option<&'h mut dyn ActivationStore>,
    /// Worker-level hooks: progress observer, checkpoint sink, and resume
    /// state. The Controller also routes its own
    /// [`TrainEvent::ExitMeasured`] events through `run.progress`.
    pub run: RunHooks<'h>,
}

/// Everything a NeuroFlux run produces.
pub struct NeuroFluxOutcome {
    /// The trained backbone (all units + deep head).
    pub model: BuiltModel,
    /// One trained auxiliary head per unit (every possible exit).
    pub aux_heads: Vec<Sequential>,
    /// The block partition that was trained.
    pub blocks: Vec<Block>,
    /// Exit candidates with measured validation accuracy.
    pub exits: Vec<ExitCandidate>,
    /// The selected streamlined exit (§4), if any exit was measurable.
    pub selected_exit: Option<ExitCandidate>,
    /// Worker telemetry (losses, cache bytes).
    pub report: WorkerReport,
}

impl NeuroFluxOutcome {
    /// Test accuracy of the selected early-exit model.
    pub fn selected_exit_accuracy(&mut self, data: &Dataset) -> Result<f32> {
        let exit = match self.selected_exit {
            Some(e) => e.unit,
            None => return Ok(0.0),
        };
        let (model, heads) = (&mut self.model, &mut self.aux_heads);
        Ok(exit_accuracy(
            model,
            heads,
            exit,
            data,
            eval_batch(&self.blocks),
        )?)
    }

    /// Compression factor of the selected exit versus the full model
    /// (Table 2's metric).
    pub fn compression_factor(&self) -> Option<f64> {
        self.selected_exit
            .as_ref()
            .map(|e| nf_models::compression_factor(&self.model.spec, e))
    }
}

/// The NeuroFlux training system.
///
/// # Examples
///
/// The full pipeline — plan, build, block-train with activation caching,
/// measure exits, select the streamlined model — in one call:
///
/// ```
/// use neuroflux_core::{NeuroFluxConfig, NeuroFluxTrainer};
/// use nf_data::SyntheticSpec;
/// use nf_models::ModelSpec;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let data = SyntheticSpec::quick(3, 8, 48).generate();
/// let spec = ModelSpec::tiny("doc", 8, &[4, 8], 3);
/// let trainer = NeuroFluxTrainer::new(NeuroFluxConfig::new(6 << 20, 16).with_epochs(2));
/// let outcome = trainer.train(&mut rng, &spec, &data)?;
/// assert_eq!(outcome.report.block_batches.len(), outcome.blocks.len());
/// assert!(outcome.selected_exit.is_some());
/// # Ok::<(), neuroflux_core::NfError>(())
/// ```
pub struct NeuroFluxTrainer {
    /// Run configuration (§0 inputs).
    pub config: NeuroFluxConfig,
}

impl NeuroFluxTrainer {
    /// Creates a trainer for `config`.
    pub fn new(config: NeuroFluxConfig) -> Self {
        NeuroFluxTrainer { config }
    }

    /// Plans the block partition for `spec` without training (Profiler +
    /// Partitioner only, on `nf-memsim`'s closed-form memory lines).
    ///
    /// Planning draws nothing: `_rng` is unused, and stays in the
    /// signature only because the repository benchmark, which is frozen,
    /// calls `plan(&mut rng, &spec)`.
    pub fn plan<R: Rng>(&self, _rng: &mut R, spec: &ModelSpec) -> Result<Vec<Block>> {
        self.config.validate()?;
        plan(spec, &self.config)
    }

    /// Runs the full pipeline: plan, build, block-train, measure exits,
    /// select the streamlined output model.
    pub fn train<R: Rng>(
        &self,
        rng: &mut R,
        spec: &ModelSpec,
        data: &SplitDataset,
    ) -> Result<NeuroFluxOutcome> {
        self.train_with(rng, spec, data, TrainHooks::default())
    }

    /// [`NeuroFluxTrainer::train`] with caller-supplied [`TrainHooks`]:
    /// a persistent activation store, progress reporting, per-block
    /// checkpointing, and resume.
    ///
    /// Resume contract: pass the same `spec`, `data`, config, and a `rng`
    /// seeded identically to the original run (planning and model building
    /// replay deterministically; the checkpoint then overwrites every
    /// parameter and optimizer state), plus the recovered activation store.
    /// The resumed run finishes with exactly the state the uninterrupted
    /// run would have reached.
    pub fn train_with<R: Rng>(
        &self,
        rng: &mut R,
        spec: &ModelSpec,
        data: &SplitDataset,
        mut hooks: TrainHooks<'_>,
    ) -> Result<NeuroFluxOutcome> {
        let blocks = self.plan(rng, spec)?;
        let mut model = spec.build(rng)?;
        let mut aux_heads = build_aux_heads(rng, spec, self.config.aux_policy)?;
        let mut default_store = MemoryStore::with_codec(self.config.cache_codec);
        let store: &mut dyn ActivationStore = match hooks.store {
            Some(store) => store,
            None => &mut default_store,
        };
        let mut worker = Worker::new(self.config, store);
        let report = worker.run_with(
            &mut model,
            &mut aux_heads,
            &blocks,
            data.train.images(),
            data.train.labels(),
            &mut hooks.run,
        )?;
        // §4: measure every exit on the validation split — one pass, each
        // head scoring its unit's activation as the batch goes by — and
        // pick the smallest within tolerance of the best.
        let aux_specs = nf_models::assign_aux(spec, self.config.aux_policy);
        let mut exits = nf_models::exit_candidates(spec, &aux_specs);
        let (val_images, val_labels) = (data.val.images(), data.val.labels());
        let (heads, batch) = (&mut aux_heads, eval_batch(&blocks));
        let accs = nf_models::exit_accuracies(&mut model, heads, val_images, val_labels, batch)?;
        for (i, (cand, acc)) in exits.iter_mut().zip(accs).enumerate() {
            cand.val_accuracy = Some(acc);
            if let Some(p) = hooks.run.progress.as_mut() {
                let keep_going = p(&TrainEvent::ExitMeasured {
                    exit: i,
                    val_accuracy: acc,
                });
                if !keep_going {
                    return Err(NfError::Interrupted {
                        completed_blocks: blocks.len(),
                    });
                }
            }
        }
        let selected_exit = nf_models::select_exit(&exits, self.config.exit_tolerance);
        Ok(NeuroFluxOutcome {
            model,
            aux_heads,
            blocks,
            exits,
            selected_exit,
            report,
        })
    }
}

/// The forward batch exits are measured at: the plan's smallest, so an
/// eval pass (no retained caches, no gradients) fits wherever training did.
fn eval_batch(blocks: &[Block]) -> usize {
    blocks.iter().map(|b| b.batch).min().unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_data::SyntheticSpec;
    use rand::SeedableRng;

    #[test]
    fn end_to_end_trains_and_selects_exit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let ds = SyntheticSpec::quick(3, 8, 96).generate();
        let spec = ModelSpec::tiny("e2e", 8, &[8, 8, 16], 3);
        let config = NeuroFluxConfig::new(64 << 20, 16).with_epochs(4);
        let mut outcome = NeuroFluxTrainer::new(config)
            .train(&mut rng, &spec, &ds)
            .unwrap();
        let exit = outcome.selected_exit.expect("an exit must be selected");
        assert!(exit.val_accuracy.unwrap() > 0.5, "exit {exit:?}");
        let test_acc = outcome.selected_exit_accuracy(&ds.test).unwrap();
        assert!(test_acc > 0.5, "test accuracy {test_acc}");
        // The streamlined model is smaller than the full model.
        assert!(outcome.compression_factor().unwrap() > 1.0);
    }

    #[test]
    fn one_pass_exit_measurement_is_each_exit_measured_alone() {
        // Four units, a validation split that is not a whole number of
        // 64-sample batches: every exit of the one-pass measurement (what
        // `train_with` reports) has the bits of `exit_accuracy(i)`.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut spec = SyntheticSpec::quick(3, 8, 48);
        spec.val = 70;
        let ds = spec.generate();
        let model_spec = ModelSpec::tiny("exits", 8, &[4, 4, 8, 8], 3);
        let config = NeuroFluxConfig::new(64 << 20, 16).with_epochs(1);
        let mut o = NeuroFluxTrainer::new(config)
            .train(&mut rng, &model_spec, &ds)
            .unwrap();
        assert_eq!(o.exits.len(), 4);
        for (i, cand) in o.exits.iter().enumerate() {
            let alone = exit_accuracy(&mut o.model, &mut o.aux_heads, i, &ds.val, 64).unwrap();
            assert_eq!(cand.val_accuracy.map(f32::to_bits), Some(alone.to_bits()));
        }
        // No samples, no accuracy — at every exit.
        let none = ds.val.select(&[]).unwrap();
        let accs = nf_models::exit_accuracies(
            &mut o.model,
            &mut o.aux_heads,
            none.images(),
            none.labels(),
            64,
        )
        .unwrap();
        assert_eq!(accs, [0.0; 4]);
    }

    #[test]
    fn plan_respects_budget_feasibility() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let spec = ModelSpec::tiny("p", 8, &[8, 16], 3);
        // Generous budget: plan succeeds.
        let config = NeuroFluxConfig::new(1 << 30, 32);
        let blocks = NeuroFluxTrainer::new(config).plan(&mut rng, &spec).unwrap();
        crate::partitioner::check_partition(&blocks, spec.num_units(), 32).unwrap();
        // Absurdly small budget: infeasible.
        let config = NeuroFluxConfig::new(1 << 10, 32);
        assert!(matches!(
            NeuroFluxTrainer::new(config).plan(&mut rng, &spec),
            Err(crate::NfError::InfeasibleBudget { .. })
        ));
    }

    #[test]
    fn invalid_config_is_rejected_before_work() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let spec = ModelSpec::tiny("p", 8, &[8], 3);
        let config = NeuroFluxConfig::new(1 << 30, 0);
        assert!(matches!(
            NeuroFluxTrainer::new(config).plan(&mut rng, &spec),
            Err(crate::NfError::BadConfig(_))
        ));
    }

    #[test]
    fn tighter_budget_means_smaller_early_batches() {
        // AB-LL's driver: the first block's batch shrinks with the budget
        // while later blocks keep larger batches.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let spec = ModelSpec::vgg11(10);
        let tight = NeuroFluxTrainer::new(NeuroFluxConfig::new(60 << 20, 512))
            .plan(&mut rng, &spec)
            .unwrap();
        let roomy = NeuroFluxTrainer::new(NeuroFluxConfig::new(400 << 20, 512))
            .plan(&mut rng, &spec)
            .unwrap();
        assert!(tight[0].batch < roomy[0].batch);
        // Within the tight plan, deeper blocks afford larger batches.
        assert!(tight.last().unwrap().batch >= tight[0].batch);
    }
}
