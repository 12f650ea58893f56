//! `nf baseline <bp|ll|fa|sp> <config>`: the paper's comparison trainers,
//! run from the same config file and persisted with the same artifact
//! layout (`runs/<name>-<paradigm>/`).

use crate::config::RunConfig;
use crate::error::{CliError, Result};
use crate::rundir::RunDir;
use neuroflux_core::serve::SystemClock;
use neuroflux_core::{Checkpoint, WorkerReport};
use nf_baselines::{install_feedback, BpTrainer, LocalLearningTrainer, SpTrainer, TrainReport};
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

/// Executes a baseline run; returns the run directory and metrics.
pub fn run_baseline(cfg: &RunConfig, paradigm: Paradigm) -> Result<(RunDir, Value)> {
    let (spec, data_spec, nf_config) = cfg.resolve()?;
    let b = cfg.baseline();
    let run_dir = RunDir::create(
        &cfg.run.out_dir,
        &format!("{}-{}", cfg.run.name, paradigm.name()),
    )?;
    run_dir.write_config(cfg)?;
    let data = data_spec.generate();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.run.seed);
    let start = SystemClock::new();
    let backend = nf_config.kernel_backend;

    let mut extra = Table::new();
    let report = match paradigm {
        Paradigm::Bp | Paradigm::Fa => {
            let mut model = spec.build(&mut rng)?;
            if paradigm == Paradigm::Fa {
                // Drawn after the model, so FA and BP at one seed start
                // from the same weights.
                install_feedback(&mut rng, &mut model);
            }
            let mut trainer = BpTrainer::new(b.lr as f32, b.epochs, b.batch);
            trainer.kernel_backend = backend;
            let report = trainer.train(&mut model, &data.train, &data.test)?;
            Checkpoint::capture(0, true, &mut model, &mut [], &WorkerReport::default())
                .save(&run_dir.checkpoint_path())?;
            report
        }
        Paradigm::Ll => {
            let model = spec.build(&mut rng)?;
            let mut trainer = LocalLearningTrainer::classic(b.lr as f32, b.epochs, b.batch);
            trainer.policy = nf_config.aux_policy;
            trainer.kernel_backend = backend;
            let (mut trained, report) = trainer.train(&mut rng, model, &data.train, &data.test)?;
            let exits = trained.measure_exits(&data.val)?;
            extra.insert(
                "exits",
                Value::Array(
                    exits
                        .iter()
                        .map(|e| {
                            let mut t = Table::new();
                            t.insert("unit", Value::Int(e.unit as i64));
                            t.insert(
                                "val_accuracy",
                                match e.val_accuracy {
                                    Some(a) => Value::Float(a as f64),
                                    None => Value::Null,
                                },
                            );
                            t.build()
                        })
                        .collect(),
                ),
            );
            Checkpoint::capture(
                0,
                true,
                &mut trained.model,
                &mut trained.aux_heads,
                &WorkerReport::default(),
            )
            .save(&run_dir.checkpoint_path())?;
            report
        }
        Paradigm::Sp => {
            let mut model = spec.build(&mut rng)?;
            let mut trainer = SpTrainer::new(b.lr as f32, b.epochs, b.batch);
            trainer.kernel_backend = backend;
            let (report, layer_accs) = trainer.train(&mut model, &data.train, &data.test)?;
            extra.insert(
                "layer_accuracies",
                Value::Array(layer_accs.iter().map(|&a| Value::Float(a as f64)).collect()),
            );
            Checkpoint::capture(0, true, &mut model, &mut [], &WorkerReport::default())
                .save(&run_dir.checkpoint_path())?;
            report
        }
    };

    let metrics = baseline_metrics(
        cfg,
        paradigm,
        &report,
        extra.build(),
        start.elapsed_seconds(),
    );
    run_dir.write_metrics(&metrics)?;
    Ok((run_dir, metrics))
}

fn baseline_metrics(
    cfg: &RunConfig,
    paradigm: Paradigm,
    report: &TrainReport,
    extra: Value,
    wall_seconds: f64,
) -> Value {
    let floats = |xs: &[f32]| Value::Array(xs.iter().map(|&x| Value::Float(x as f64)).collect());
    let mut m = Table::new();
    m.insert("kind", Value::Str("baseline".into()));
    m.insert("paradigm", Value::Str(paradigm.name().into()));
    m.insert("name", Value::Str(cfg.run.name.clone()));
    m.insert("config", cfg.to_value());
    m.insert("epoch_loss", floats(&report.epoch_loss));
    m.insert("train_accuracy", floats(&report.train_accuracy));
    m.insert("test_accuracy", floats(&report.test_accuracy));
    m.insert(
        "final_test_accuracy",
        Value::Float(report.final_test_accuracy() as f64),
    );
    if let Some(entries) = extra.entries() {
        for (k, v) in entries {
            m.insert(k, v.clone());
        }
    }
    m.insert("wall_seconds", Value::Float(wall_seconds));
    m.build()
}
