//! The parallel federated engine's core contract: thread count changes
//! wall time, never results. A `threads = 4` run must be **bit-identical**
//! to the `threads = 1` run of the same configuration — same global
//! parameters, same batch-norm buffers, same per-round accuracies.
//!
//! This holds because clients share no mutable state while in flight,
//! every client's RNG stream is derived from `(seed, round, client)`
//! rather than drawn from a shared generator, and aggregation always sums
//! in client order.

use neuroflux_core::federated::{run_federated, FederatedConfig, FederatedOutcome};
use neuroflux_core::{CodecKind, NeuroFluxConfig};
use nf_data::{shard, Dataset, ShardStrategy, SplitDataset, SyntheticSpec};
use nf_models::ModelSpec;
use nf_nn::aggregate::snapshot;
use rand::SeedableRng;

fn data() -> SplitDataset {
    SyntheticSpec::quick(3, 8, 90).generate()
}

fn spec() -> ModelSpec {
    ModelSpec::tiny("det", 8, &[6, 8], 3)
}

fn run(threads: usize, strategy: ShardStrategy) -> FederatedOutcome {
    run_with_codec(threads, strategy, CodecKind::F32Raw)
}

fn run_with_codec(threads: usize, strategy: ShardStrategy, codec: CodecKind) -> FederatedOutcome {
    // A fresh master RNG per run: global init must match across runs.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let fed = FederatedConfig::new(
        4,
        2,
        NeuroFluxConfig::new(24 << 20, 16)
            .with_epochs(1)
            .with_cache_codec(codec),
    )
    .with_threads(threads)
    .with_strategy(strategy)
    .with_seed(13);
    run_federated(&mut rng, &spec(), &data(), &fed).unwrap()
}

/// Every parameter and buffer of the outcome, flattened to raw f32 bits.
fn state_bits(outcome: &mut FederatedOutcome) -> Vec<u32> {
    let mut bits = Vec::new();
    let mut push = |snap: nf_nn::StateSnapshot| {
        for t in snap.params.iter().chain(&snap.buffers) {
            bits.extend(t.data().iter().map(|x| x.to_bits()));
        }
    };
    for unit in &mut outcome.model.units {
        push(snapshot(unit));
    }
    for head in &mut outcome.aux_heads {
        push(snapshot(head));
    }
    push(snapshot(&mut outcome.model.head));
    bits
}

#[test]
fn parallel_run_is_bit_identical_to_sequential() {
    // Three workers over four clients under uneven Dirichlet shards: one
    // worker claims a second client while the others are still busy.
    for (strategy, threads) in [
        (ShardStrategy::RoundRobin, 4),
        (ShardStrategy::Dirichlet(0.7), 4),
        (ShardStrategy::Dirichlet(0.7), 3),
    ] {
        let mut seq = run(1, strategy);
        let mut par = run(threads, strategy);
        assert_eq!(seq.threads_used, 1);
        assert_eq!(par.threads_used, threads);
        // Accuracies must agree exactly — not approximately.
        let seq_acc: Vec<u32> = seq.round_accuracy.iter().map(|a| a.to_bits()).collect();
        let par_acc: Vec<u32> = par.round_accuracy.iter().map(|a| a.to_bits()).collect();
        assert_eq!(seq_acc, par_acc, "{strategy}: round accuracies diverged");
        // Every parameter and buffer must match bit for bit.
        assert_eq!(
            state_bits(&mut seq),
            state_bits(&mut par),
            "{strategy}: global state diverged between threads=1 and threads={threads}"
        );
    }
}

#[test]
fn parallel_run_is_bit_identical_to_sequential_under_every_codec() {
    // The codec layer sits between the Worker and storage; it is pure
    // per-client state, so thread count must stay irrelevant to results
    // under every encoding — including the lossy ones (each client decodes
    // the same bytes regardless of scheduling).
    for codec in CodecKind::all() {
        let mut seq = run_with_codec(1, ShardStrategy::RoundRobin, codec);
        let mut par = run_with_codec(4, ShardStrategy::RoundRobin, codec);
        let seq_acc: Vec<u32> = seq.round_accuracy.iter().map(|a| a.to_bits()).collect();
        let par_acc: Vec<u32> = par.round_accuracy.iter().map(|a| a.to_bits()).collect();
        assert_eq!(seq_acc, par_acc, "{codec}: round accuracies diverged");
        assert_eq!(
            state_bits(&mut seq),
            state_bits(&mut par),
            "{codec}: global state diverged between threads=1 and threads=4"
        );
        // Per-client cache telemetry is deterministic too.
        let cache_bytes = |o: &FederatedOutcome| -> Vec<u64> {
            o.rounds
                .iter()
                .flat_map(|r| r.clients.iter())
                .map(|c| c.cache_bytes_written)
                .collect()
        };
        assert_eq!(cache_bytes(&seq), cache_bytes(&par), "{codec}");
        assert!(cache_bytes(&seq).iter().all(|&b| b > 0), "{codec}");
    }
}

#[test]
fn rerun_with_same_seed_is_reproducible() {
    let mut a = run(2, ShardStrategy::ByLabel);
    let mut b = run(2, ShardStrategy::ByLabel);
    assert_eq!(state_bits(&mut a), state_bits(&mut b));
}

#[test]
fn all_strategies_partition_every_sample_exactly_once() {
    let split = data();
    let n = split.train.len();
    // Label multiset of the source, for the exactly-once check.
    let mut source_labels: Vec<usize> = split.train.labels().to_vec();
    source_labels.sort_unstable();
    for strategy in [
        ShardStrategy::RoundRobin,
        ShardStrategy::ByLabel,
        ShardStrategy::Dirichlet(0.5),
    ] {
        let shards = shard(&split.train, 5, strategy, 3).unwrap();
        assert_eq!(shards.iter().map(Dataset::len).sum::<usize>(), n);
        assert!(shards.iter().all(|s| !s.is_empty()), "{strategy}");
        let mut labels: Vec<usize> = shards
            .iter()
            .flat_map(|s| s.labels().iter().copied())
            .collect();
        labels.sort_unstable();
        assert_eq!(labels, source_labels, "{strategy}: label multiset changed");
    }
}
