//! `nf train <config>`: the full NeuroFlux pipeline as a durable run.
//!
//! Resolves and plans the config, creates the run directory, trains with an on-disk
//! activation cache + per-block checkpointing, measures exits, and writes
//! `metrics.json`. With `--resume`, restarts an interrupted run from its
//! checkpoint and the cached activations — producing the same final
//! metrics the uninterrupted run would have (asserted by
//! `tests/resume.rs`).

use crate::config::{Field, RunConfig};
use crate::error::{CliError, Result};
use crate::progress::print_event;
use crate::rundir::RunDir;
use neuroflux_core::partitioner::plan;
use neuroflux_core::serve::SystemClock;
use neuroflux_core::{
    Checkpoint, DiskStore, FileCheckpoint, NeuroFluxOutcome, NeuroFluxTrainer, RunHooks,
    TrainEvent, TrainHooks,
};
use nf_value::{Table, Value};
use rand::SeedableRng;

/// Options for [`run_train`].
#[derive(Debug, Clone, Default)]
pub struct TrainOptions {
    /// Resume an interrupted run from its checkpoint.
    pub resume: bool,
    /// Overwrite a completed run directory.
    pub force: bool,
    /// Suppress per-epoch progress output.
    pub quiet: bool,
    /// Test hook: cancel the run after this many blocks complete, leaving
    /// the run directory exactly as a process kill at that point would.
    pub interrupt_after_blocks: Option<usize>,
}

/// What a completed training run hands back.
#[derive(Debug)]
pub struct TrainSummary {
    /// The run directory everything was written to.
    pub run_dir: RunDir,
    /// The metrics document written to `metrics.json`.
    pub metrics: Value,
}

/// Executes a training run (the `nf train` command).
pub fn run_train(cfg: &RunConfig, opts: &TrainOptions) -> Result<TrainSummary> {
    let (spec, data_spec, nf_config) = cfg.resolve()?;
    // Plan before anything is written: a budget no unit fits is a config
    // error and leaves no run directory behind.
    plan(&spec, &nf_config).map_err(|e| CliError::from_plan("NeuroFlux", e))?;
    let run_dir = RunDir::create(&cfg.run.out_dir, &cfg.run.name)?;
    if opts.resume {
        if run_dir.is_complete() {
            return Err(CliError::new(format!(
                "run {:?} already completed ({} exists); nothing to resume",
                cfg.run.name,
                run_dir.metrics_path().display()
            )));
        }
        if !run_dir.is_resumable() {
            return Err(CliError::new(format!(
                "run {:?} has no checkpoint to resume from",
                cfg.run.name
            )));
        }
        // The resume contract requires the same spec/data/config/seed as
        // the interrupted run (NeuroFluxTrainer::train_with); blocks
        // already trained used the snapshot's settings, so an edited
        // config would silently produce a hybrid run. Refuse instead.
        let saved = run_dir.read_config()?;
        if saved != *cfg {
            return Err(CliError::new(format!(
                "config does not match the interrupted run's snapshot ({}); \
                 resume with the original config, or start fresh with --force",
                run_dir.config_path().display()
            )));
        }
    } else {
        if run_dir.is_complete() && !opts.force {
            return Err(CliError::new(format!(
                "run {:?} already exists and is complete; pick a new [run].name, \
                 pass --force to overwrite, or --resume to continue an interrupted run",
                cfg.run.name
            )));
        }
        // Fresh start: drop stale restart state from any earlier attempt.
        std::fs::remove_file(run_dir.checkpoint_path()).ok();
        std::fs::remove_file(run_dir.metrics_path()).ok();
        std::fs::remove_dir_all(run_dir.cache_dir()).ok();
    }
    run_dir.write_config(cfg)?;

    let start = SystemClock::new();
    let data = data_spec.generate();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.run.seed);

    // The on-disk cache encodes with the configured codec; on resume the
    // recovered blobs are self-describing, so a cache written under a
    // different codec surfaces as a typed mismatch naming both codecs
    // (the config-snapshot equality check above already refuses edited
    // configs, so this is defence in depth).
    let mut store = if opts.resume {
        DiskStore::recover_with_codec(run_dir.cache_dir(), nf_config.cache_codec)?
    } else {
        DiskStore::with_codec(run_dir.cache_dir(), nf_config.cache_codec)?
    };
    let resume_ck = if opts.resume {
        Some(Checkpoint::load(&run_dir.checkpoint_path())?)
    } else {
        None
    };
    let mut sink = FileCheckpoint::new(run_dir.checkpoint_path());

    let interrupt_after = opts.interrupt_after_blocks;
    let mut finished_blocks = 0usize;
    // A failed stdout write stops the run (resumable) and is its error.
    let mut printed = Ok(());
    let mut progress = |event: &TrainEvent| -> bool {
        if !opts.quiet && printed.is_ok() {
            printed = print_event(event);
        }
        if let TrainEvent::BlockFinished { .. } = event {
            finished_blocks += 1;
            if interrupt_after == Some(finished_blocks) {
                return false;
            }
        }
        printed.is_ok()
    };

    let trainer = NeuroFluxTrainer::new(nf_config);
    let trained = trainer.train_with(
        &mut rng,
        &spec,
        &data,
        TrainHooks {
            store: Some(&mut store),
            run: RunHooks {
                progress: Some(&mut progress),
                checkpoint: Some(&mut sink),
                resume_from: resume_ck.as_ref(),
                after_epoch: None,
            },
        },
    );
    printed?;
    let mut outcome = trained?;

    let test_accuracy = outcome.selected_exit_accuracy(&data.test)?;
    let wall_seconds = start.elapsed_seconds();
    let metrics = train_metrics(
        cfg,
        &outcome,
        test_accuracy,
        wall_seconds,
        opts.resume,
        data.train.len(),
    );
    run_dir.write_metrics(&metrics)?;
    Ok(TrainSummary { run_dir, metrics })
}

/// The `kernel` table embedded in `metrics.json`: what the run computed
/// on — backend, detected SIMD levels, host core count — and the blocked
/// kernel's one plan (cache blocks and thread fan-out floor), all
/// constants of the build and the host.
fn kernel_table(cfg: &RunConfig) -> Value {
    use nf_tensor::kernels::{FAN_OUT_MIN_MACS, KC, NC};
    let mut t = Table::new();
    t.insert("backend", cfg.train.kernel_backend.write());
    t.insert(
        "simd",
        Value::Str(nf_tensor::kernels::simd::kernel_name().into()),
    );
    t.insert(
        "simd_int8",
        Value::Str(nf_tensor::kernels::int8::kernel_name().into()),
    );
    t.insert("host_cores", Value::Int(nf_tensor::host_cores() as i64));
    t.insert("int8_compute", cfg.train.int8_compute.write());
    t.insert("kc", Value::Int(KC as i64));
    t.insert("nc", Value::Int(NC as i64));
    t.insert("fan_out_min_macs", Value::Int(FAN_OUT_MIN_MACS as i64));
    t.build()
}

/// Records the process's peak resident set so far as `peak_rss_bytes`:
/// `VmHWM` from `/proc/self/status`, left out where that cannot be read.
pub(crate) fn insert_peak_rss(m: &mut Table) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    let kb = hwm.and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<i64>().ok());
    if let Some(kb) = kb {
        m.insert("peak_rss_bytes", Value::Int(kb * 1024));
    }
}

/// Builds the `metrics.json` document for a training run.
fn train_metrics(
    cfg: &RunConfig,
    outcome: &NeuroFluxOutcome,
    test_accuracy: f32,
    wall_seconds: f64,
    resumed: bool,
    train_samples: usize,
) -> Value {
    let mut m = Table::new();
    m.insert("kind", Value::Str("train".into()));
    m.insert("name", Value::Str(cfg.run.name.clone()));
    m.insert("resumed", Value::Bool(resumed));
    m.insert("config", cfg.to_value());
    m.insert("kernel", kernel_table(cfg));

    let mut model = Table::new();
    model.insert("name", Value::Str(outcome.model.spec.name.clone()));
    model.insert("units", Value::Int(outcome.model.spec.num_units() as i64));
    model.insert(
        "total_params",
        Value::Int(outcome.model.spec.total_params() as i64),
    );
    m.insert("model", model);
    m.insert("train_samples", Value::Int(train_samples as i64));

    m.insert(
        "blocks",
        Value::Array(
            outcome
                .blocks
                .iter()
                .map(|b| {
                    let mut t = Table::new();
                    t.insert(
                        "units",
                        Value::Array(vec![
                            Value::Int(b.units.start as i64),
                            Value::Int(b.units.end as i64),
                        ]),
                    );
                    t.insert("batch", Value::Int(b.batch as i64));
                    t.build()
                })
                .collect(),
        ),
    );
    m.insert(
        "block_losses",
        Value::Array(
            outcome
                .report
                .block_losses
                .iter()
                .map(|losses| {
                    Value::Array(losses.iter().map(|&l| Value::Float(l as f64)).collect())
                })
                .collect(),
        ),
    );
    let mut cache = Table::new();
    cache.insert("codec", outcome.report.cache_codec.write());
    cache.insert(
        "bytes_written",
        Value::Int(outcome.report.cache_bytes_written as i64),
    );
    cache.insert(
        "logical_bytes",
        Value::Int(outcome.report.cache_logical_bytes as i64),
    );
    if outcome.report.cache_bytes_written > 0 {
        cache.insert(
            "compression_vs_f32",
            Value::Float(
                outcome.report.cache_logical_bytes as f64
                    / outcome.report.cache_bytes_written as f64,
            ),
        );
    }
    cache.insert(
        "peak_bytes",
        Value::Int(outcome.report.cache_peak_bytes as i64),
    );
    cache.insert(
        "params_bytes_evicted",
        Value::Int(outcome.report.params_bytes_evicted as i64),
    );
    m.insert("cache", cache);
    insert_peak_rss(&mut m);

    let exit_value = |e: &nf_models::ExitCandidate| {
        let mut t = Table::new();
        t.insert("unit", Value::Int(e.unit as i64));
        t.insert("params", Value::Int(e.params as i64));
        t.insert("flops", Value::Int(e.flops as i64));
        t.insert(
            "val_accuracy",
            match e.val_accuracy {
                Some(a) => Value::Float(a as f64),
                None => Value::Null,
            },
        );
        t.build()
    };
    m.insert(
        "exits",
        Value::Array(outcome.exits.iter().map(exit_value).collect()),
    );
    m.insert(
        "selected_exit",
        match &outcome.selected_exit {
            Some(e) => exit_value(e),
            None => Value::Null,
        },
    );
    m.insert(
        "compression_factor",
        match outcome.compression_factor() {
            Some(c) => Value::Float(c),
            None => Value::Null,
        },
    );
    m.insert("test_accuracy", Value::Float(test_accuracy as f64));
    m.insert("wall_seconds", Value::Float(wall_seconds));
    m.build()
}
