//! `nf baseline <bp|ll|fa|sp> <config>`: the paper's comparison trainers,
//! run from the same config file and persisted with the same artifact
//! layout (`runs/<name>-<paradigm>/`). Each trains on `[train]`: its
//! `lr`, `epochs_per_block` epochs, and the largest batch its memory
//! lines fit under `budget_bytes` (capped by `batch_limit`), so every
//! paradigm is compared at the same memory budget.

use crate::config::RunConfig;
use crate::error::{CliError, Result};
use crate::rundir::RunDir;
use neuroflux_core::partitioner::feasible_batches;
use neuroflux_core::profiler::profile;
use neuroflux_core::serve::SystemClock;
use neuroflux_core::{Checkpoint, NeuroFluxConfig, WorkerReport};
use nf_baselines::{install_feedback, BpTrainer, LocalLearningTrainer, SpTrainer};
use nf_memsim::{memory, TrainingParadigm};
use nf_models::{ExitCandidate, ModelSpec};
use nf_value::{Table, Value};
use rand::SeedableRng;

/// The four baseline paradigms `nf baseline` can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Paradigm {
    /// End-to-end backpropagation.
    Bp,
    /// Local learning (classic or AAN, per `[train].aux_policy`).
    Ll,
    /// Feedback alignment.
    Fa,
    /// Signal propagation (forward-only prototype targets).
    Sp,
}

impl Paradigm {
    /// Parses the CLI paradigm argument.
    pub fn parse(s: &str) -> Result<Paradigm> {
        match s {
            "bp" => Ok(Paradigm::Bp),
            "ll" => Ok(Paradigm::Ll),
            "fa" => Ok(Paradigm::Fa),
            "sp" => Ok(Paradigm::Sp),
            other => Err(CliError::new(format!(
                "unknown baseline {other:?} (expected bp, ll, fa, or sp)"
            ))),
        }
    }

    /// Stable slug used in run-directory names and metrics.
    pub fn name(self) -> &'static str {
        match self {
            Paradigm::Bp => "bp",
            Paradigm::Ll => "ll",
            Paradigm::Fa => "fa",
            Paradigm::Sp => "sp",
        }
    }
}

/// The batch `paradigm` trains `spec` at under `config`'s budget: BP and
/// FA (same state) fit one whole-model BP line, LL every unit's line with
/// the whole model and all heads resident, SP one inference line. A
/// budget no batch fits is a config error at the budget.
fn budget_batch(paradigm: Paradigm, spec: &ModelSpec, config: &NeuroFluxConfig) -> Result<usize> {
    let lines = match paradigm {
        Paradigm::Bp | Paradigm::Fa => vec![memory::bp_line(spec)],
        Paradigm::Ll => profile(spec, config.aux_policy, TrainingParadigm::LocalLearning),
        Paradigm::Sp => vec![memory::inference_line(spec)],
    };
    let feasible = feasible_batches(&lines, config.budget_bytes, config.batch_limit)
        .map_err(|e| CliError::from_plan(&format!("the `{}` baseline", paradigm.name()), e))?;
    Ok(feasible.into_iter().min().unwrap_or(config.batch_limit))
}

/// Executes a baseline run; returns the run directory and metrics.
pub fn run_baseline(cfg: &RunConfig, paradigm: Paradigm) -> Result<(RunDir, Value)> {
    let (spec, data_spec, nf_config) = cfg.resolve()?;
    let batch = budget_batch(paradigm, &spec, &nf_config)?;
    let (lr, epochs, backend) = (
        nf_config.lr,
        nf_config.epochs_per_block,
        nf_config.kernel_backend,
    );
    let run_dir = RunDir::create(
        &cfg.run.out_dir,
        &format!("{}-{}", cfg.run.name, paradigm.name()),
    )?;
    run_dir.write_config(cfg)?;
    let data = data_spec.generate();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.run.seed);
    let start = SystemClock::new();

    let mut m = Table::new();
    m.insert("kind", Value::Str("baseline".into()));
    m.insert("paradigm", Value::Str(paradigm.name().into()));
    m.insert("name", Value::Str(cfg.run.name.clone()));
    m.insert("config", cfg.to_value());
    m.insert("batch", Value::Int(batch as i64));
    let floats = |xs: &[f32]| Value::Array(xs.iter().map(|&x| Value::Float(x as f64)).collect());
    let mut model = spec.build(&mut rng)?;
    let mut aux_heads = Vec::new();
    let report = match paradigm {
        Paradigm::Bp | Paradigm::Fa => {
            if paradigm == Paradigm::Fa {
                // Drawn after the model, so FA and BP at one seed start
                // from the same weights.
                install_feedback(&mut rng, &mut model);
            }
            let mut trainer = BpTrainer::new(lr, epochs, batch);
            trainer.kernel_backend = backend;
            trainer.train(&mut model, &data.train, &data.test)?
        }
        Paradigm::Ll => {
            let mut trainer = LocalLearningTrainer::classic(lr, epochs, batch);
            trainer.policy = nf_config.aux_policy;
            trainer.kernel_backend = backend;
            let (mut trained, report) = trainer.train(&mut rng, model, &data.train, &data.test)?;
            let exit = |e: &ExitCandidate| {
                let mut t = Table::new();
                t.insert("unit", Value::Int(e.unit as i64));
                let accuracy = e.val_accuracy.map(|a| Value::Float(a as f64));
                t.insert("val_accuracy", accuracy.unwrap_or(Value::Null));
                t.build()
            };
            let exits = trained.measure_exits(&data.val)?;
            m.insert("exits", Value::Array(exits.iter().map(exit).collect()));
            (model, aux_heads) = (trained.model, trained.aux_heads);
            report
        }
        Paradigm::Sp => {
            let mut trainer = SpTrainer::new(lr, epochs, batch);
            trainer.kernel_backend = backend;
            trainer.train(&mut model, &data.train, &data.test)?
        }
    };
    Checkpoint::capture(
        0,
        true,
        &mut model,
        &mut aux_heads,
        &WorkerReport::default(),
    )
    .save(&run_dir.checkpoint_path())?;

    m.insert("epoch_loss", floats(&report.epoch_loss));
    m.insert("train_accuracy", floats(&report.train_accuracy));
    m.insert("test_accuracy", floats(&report.test_accuracy));
    let accuracy = report.final_test_accuracy() as f64;
    m.insert("final_test_accuracy", Value::Float(accuracy));
    m.insert("wall_seconds", Value::Float(start.elapsed_seconds()));
    crate::train::insert_peak_rss(&mut m);
    let metrics = m.build();
    run_dir.write_metrics(&metrics)?;
    Ok((run_dir, metrics))
}
