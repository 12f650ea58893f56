//! AB-LL re-batching details: the Worker must honour each block's batch
//! size exactly and produce identical results regardless of the upstream
//! block's batch size.

use neuroflux_core::worker::Worker;
use neuroflux_core::{Block, MemoryStore, NeuroFluxConfig};
use nf_data::SyntheticSpec;
use nf_models::{build_aux_heads, AuxPolicy, ModelSpec};
use nf_nn::{Layer, Sequential};
use rand::SeedableRng;

fn setup(
    seed: u64,
) -> (
    nf_models::BuiltModel,
    Vec<Sequential>,
    nf_data::SplitDataset,
) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let spec = ModelSpec::tiny("ab", 8, &[6, 8], 3);
    let model = spec.build(&mut rng).unwrap();
    let heads = build_aux_heads(&mut rng, &spec, AuxPolicy::Fixed(4)).unwrap();
    (model, heads, SyntheticSpec::quick(3, 8, 48).generate())
}

fn unit_params(unit: &mut Sequential) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    unit.visit_params(&mut |p| out.push(p.value.data().to_vec()));
    out
}

/// Block 1's training result depends only on block 0's *parameters* (via
/// the cached activations), not on block 0's batch size — upstream batching
/// must not leak through the cache. We keep block 0 untrained (0 epochs
/// would be invalid, so we compare two runs where only block 1's batch
/// differs and verify they genuinely differ — the batch size matters) and
/// then verify the complementary invariant: identical configs give
/// identical parameters.
#[test]
fn block_batch_size_changes_training_trajectory() {
    let run = |batch: usize| {
        let (mut model, mut heads, ds) = setup(5);
        let mut store = MemoryStore::new();
        let config = NeuroFluxConfig::new(1 << 30, 64).with_epochs(2);
        let blocks = vec![
            Block {
                units: 0..1,
                batch: 8,
            },
            Block { units: 1..2, batch },
        ];
        Worker::new(config, &mut store)
            .run(
                &mut model,
                &mut heads,
                &blocks,
                ds.train.images(),
                ds.train.labels(),
            )
            .unwrap();
        unit_params(&mut model.units[1])
    };
    let small = run(8);
    let large = run(48);
    assert_ne!(small, large, "batch size must affect the SGD trajectory");
    // Determinism control: the same batch gives the same parameters.
    assert_eq!(run(8), run(8));
}

/// The number of optimisation steps per epoch equals ceil(n / batch) for
/// each block — larger block batches mean fewer steps (the AB-LL speedup).
#[test]
fn steps_per_epoch_match_batch_size() {
    let (mut model, mut heads, ds) = setup(6);
    let n = ds.train.len();
    let mut store = MemoryStore::new();
    let config = NeuroFluxConfig::new(1 << 30, 64).with_epochs(1);
    let blocks = vec![
        Block {
            units: 0..1,
            batch: 7,
        },
        Block {
            units: 1..2,
            batch: 48,
        },
    ];
    Worker::new(config, &mut store)
        .run(
            &mut model,
            &mut heads,
            &blocks,
            ds.train.images(),
            ds.train.labels(),
        )
        .unwrap();
    // Verify via step counters on the parameters (SGD bumps `steps` once
    // per update).
    let mut steps0 = Vec::new();
    model.units[0].visit_params(&mut |p| steps0.push(p.steps));
    let mut steps1 = Vec::new();
    model.units[1].visit_params(&mut |p| steps1.push(p.steps));
    let expect0 = n.div_ceil(7) as u64;
    let expect1 = n.div_ceil(48) as u64;
    assert!(
        steps0.iter().all(|&s| s == expect0),
        "{steps0:?} != {expect0}"
    );
    assert!(
        steps1.iter().all(|&s| s == expect1),
        "{steps1:?} != {expect1}"
    );
    assert!(expect1 < expect0, "larger batches must mean fewer steps");
}

/// A final short batch (n not divisible by the block batch) is still
/// consumed — no samples are dropped.
#[test]
fn short_final_batch_is_trained() {
    let (mut model, mut heads, ds) = setup(7);
    let n = ds.train.len(); // 48
    let mut store = MemoryStore::new();
    let config = NeuroFluxConfig::new(1 << 30, 64).with_epochs(1);
    let blocks = vec![Block {
        units: 0..2,
        batch: 20,
    }]; // 48 = 20+20+8
    Worker::new(config, &mut store)
        .run(
            &mut model,
            &mut heads,
            &blocks,
            ds.train.images(),
            ds.train.labels(),
        )
        .unwrap();
    let mut steps = Vec::new();
    model.units[0].visit_params(&mut |p| steps.push(p.steps));
    assert!(steps.iter().all(|&s| s == n.div_ceil(20) as u64));
}
