//! Batch size never changes served bits, on the default kernel backend.
//!
//! `ServeEngine::infer_batch` promises results bit-identical to running
//! each request alone. A blocked product's f32 rounding depends only on
//! its `K` cache-block split, so the promise is only exercised by a model
//! whose products *have* a split: `channels = [8, 32, 32]` makes the third
//! unit's conv a `K` = 32·3·3 = 288 > `KC` product (the CLI-level
//! served ≡ offline tests serve `[4, 8, 12]`, `K` ≤ 72, and could never
//! see one). Under the first-use autotuner, batches of 1, 2, 3, 5 and 9
//! fell in five different shape classes and could be handed different
//! splits.

use neuroflux_core::{ServeEngine, ServeReply, ServeRequest, SloTier};
use nf_models::{build_aux_heads, AuxPolicy, ModelSpec};
use rand::{Rng, SeedableRng};

const MAX_BATCH: usize = 16;

fn engine_and_requests() -> (ServeEngine, Vec<ServeRequest>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let spec = ModelSpec::tiny("kc-split", 8, &[8, 32, 32], 3);
    let model = spec.build(&mut rng).unwrap();
    let heads = build_aux_heads(&mut rng, &spec, AuxPolicy::Adaptive).unwrap();
    // A threshold no untrained head clears, so every request runs to its
    // tier's cap and the three tiers cover all three exits.
    let engine = ServeEngine::new(model, heads, 0.999).unwrap();
    let tiers = [SloTier::Exact, SloTier::Fast, SloTier::Balanced];
    let requests = (0..MAX_BATCH)
        .map(|i| ServeRequest {
            id: i as u64,
            tier: tiers[i % tiers.len()],
            pixels: (0..engine.input_len())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
            arrival_us: 0,
            deadline_us: u64::MAX,
        })
        .collect();
    (engine, requests)
}

fn bits(reply: &ServeReply) -> (u64, usize, usize, u32) {
    (
        reply.id,
        reply.class,
        reply.exit,
        reply.confidence.to_bits(),
    )
}

#[test]
fn every_batch_size_serves_the_bits_of_each_request_alone() {
    let (mut engine, requests) = engine_and_requests();
    let alone: Vec<_> = requests
        .iter()
        .map(|r| bits(&engine.infer_batch(std::slice::from_ref(r)).unwrap()[0]))
        .collect();
    let exits: Vec<usize> = alone.iter().map(|b| b.2).collect();
    assert_eq!(exits[..3], [2, 0, 1], "tiers must reach every exit");

    for n in 1..=MAX_BATCH {
        let batched: Vec<_> = engine
            .infer_batch(&requests[..n])
            .unwrap()
            .iter()
            .map(bits)
            .collect();
        assert_eq!(batched, alone[..n], "batch of {n} vs each request alone");
    }
}
