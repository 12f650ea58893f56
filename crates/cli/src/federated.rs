//! `nf federated <config>`: the parallel multi-client FedAvg engine as a
//! durable run.
//!
//! Resolves the `[federated]` section, shards the training split, trains
//! every round's clients concurrently (each with its own workspace arenas
//! and an on-disk activation cache under `cache/client<i>/`), aggregates
//! with the shard-size-weighted all-reduce, and writes per-round /
//! per-client metrics to `metrics.json`. Thread count changes wall time
//! only: results are bit-identical across `threads` values (see
//! `neuroflux_core::federated`).

use crate::config::{Field, RunConfig};
use crate::error::{CliError, Result};
use crate::rundir::RunDir;
use neuroflux_core::serve::SystemClock;
use neuroflux_core::{run_federated, FederatedOutcome};
use nf_value::{Table, Value};
use rand::SeedableRng;

/// Executes the `[federated]` section; returns the run directory and
/// metrics.
pub fn run_federated_cmd(cfg: &RunConfig, force: bool, quiet: bool) -> Result<(RunDir, Value)> {
    let (spec, data_spec, _) = cfg.resolve()?;
    let fed = cfg.resolve_federated()?;
    let run_dir = RunDir::create(&cfg.run.out_dir, &format!("{}-federated", cfg.run.name))?;
    if run_dir.is_complete() && !force {
        return Err(CliError::new(format!(
            "run {:?} already exists and is complete; pick a new [run].name \
             or pass --force to overwrite",
            cfg.run.name
        )));
    }
    // Fresh start: drop stale state (metrics, per-client activation
    // caches) from any earlier run of this name.
    std::fs::remove_file(run_dir.metrics_path()).ok();
    std::fs::remove_dir_all(run_dir.cache_dir()).ok();
    run_dir.write_config(cfg)?;
    let fed = fed.with_cache_dir(run_dir.cache_dir());

    if !quiet {
        println!(
            "federating {} client(s) × {} round(s) on {} thread(s), {} sharding",
            fed.clients,
            fed.rounds,
            fed.effective_threads(),
            fed.strategy
        );
    }
    let start = SystemClock::new();
    let data = data_spec.generate();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.run.seed);
    let outcome = run_federated(&mut rng, &spec, &data, &fed)?;
    let wall_seconds = start.elapsed_seconds();

    if !quiet {
        for round in &outcome.rounds {
            println!(
                "  round {}: accuracy {:5.1}%  ({:.2}s, clients {:.2}s)",
                round.round + 1,
                round.accuracy * 100.0,
                round.wall_seconds,
                round.train_wall_seconds
            );
        }
    }

    let metrics = federated_metrics(cfg, &outcome, data.train.len(), wall_seconds);
    run_dir.write_metrics(&metrics)?;
    Ok((run_dir, metrics))
}

/// Builds the `metrics.json` document for a federated run.
fn federated_metrics(
    cfg: &RunConfig,
    outcome: &FederatedOutcome,
    train_samples: usize,
    wall_seconds: f64,
) -> Value {
    let mut m = Table::new();
    m.insert("kind", Value::Str("federated".into()));
    m.insert("name", Value::Str(cfg.run.name.clone()));
    m.insert("config", cfg.to_value());
    m.insert("model", Value::Str(outcome.model.spec.name.clone()));
    m.insert("train_samples", Value::Int(train_samples as i64));
    m.insert("threads_used", Value::Int(outcome.threads_used as i64));
    m.insert("rounds_run", Value::Int(outcome.rounds_run as i64));
    m.insert(
        "rounds",
        Value::Array(
            outcome
                .rounds
                .iter()
                .map(|r| {
                    let mut round = Table::new();
                    round.insert("round", Value::Int(r.round as i64));
                    round.insert("accuracy", Value::Float(r.accuracy as f64));
                    round.insert("wall_seconds", Value::Float(r.wall_seconds));
                    round.insert("train_wall_seconds", Value::Float(r.train_wall_seconds));
                    round.insert(
                        "clients",
                        Value::Array(
                            r.clients
                                .iter()
                                .map(|c| {
                                    let mut client = Table::new();
                                    client.insert("client", Value::Int(c.client as i64));
                                    client.insert("samples", Value::Int(c.samples as i64));
                                    client.insert("wall_seconds", Value::Float(c.wall_seconds));
                                    client.insert("final_loss", Value::Float(c.final_loss as f64));
                                    client.insert(
                                        "cache_bytes_written",
                                        Value::Int(c.cache_bytes_written as i64),
                                    );
                                    client.insert(
                                        "cache_logical_bytes",
                                        Value::Int(c.cache_logical_bytes as i64),
                                    );
                                    client.insert(
                                        "cache_peak_bytes",
                                        Value::Int(c.cache_peak_bytes as i64),
                                    );
                                    client.build()
                                })
                                .collect(),
                        ),
                    );
                    round.build()
                })
                .collect(),
        ),
    );
    // Aggregate cache accounting across every round and client. At most
    // `threads_used` clients are in flight (each client's store is
    // dropped when its training finishes), so the peak is the worst
    // round's sum of its `threads_used` largest per-client peaks — the
    // worst concurrently-resident subset, not the whole round.
    let bytes_written: u64 = outcome
        .rounds
        .iter()
        .flat_map(|r| r.clients.iter())
        .map(|c| c.cache_bytes_written)
        .sum();
    let logical_bytes: u64 = outcome
        .rounds
        .iter()
        .flat_map(|r| r.clients.iter())
        .map(|c| c.cache_logical_bytes)
        .sum();
    let peak_bytes: u64 = outcome
        .rounds
        .iter()
        .map(|r| {
            let mut peaks: Vec<u64> = r.clients.iter().map(|c| c.cache_peak_bytes).collect();
            peaks.sort_unstable_by(|a, b| b.cmp(a));
            peaks.iter().take(outcome.threads_used.max(1)).sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    let mut cache = Table::new();
    cache.insert("codec", cfg.cache.codec.write());
    cache.insert("bytes_written", Value::Int(bytes_written as i64));
    cache.insert("logical_bytes", Value::Int(logical_bytes as i64));
    if bytes_written > 0 {
        cache.insert(
            "compression_vs_f32",
            Value::Float(logical_bytes as f64 / bytes_written as f64),
        );
    }
    cache.insert("peak_bytes", Value::Int(peak_bytes as i64));
    m.insert("cache", cache);
    m.insert(
        "final_accuracy",
        Value::Float(outcome.round_accuracy.last().copied().unwrap_or(0.0) as f64),
    );
    m.insert("wall_seconds", Value::Float(wall_seconds));
    m.build()
}
