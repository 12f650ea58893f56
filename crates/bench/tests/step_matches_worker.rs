//! The step `bench_json` times is the Worker's step: `k` runs of
//! `nf_bench::step::LocalStep` on one fixed batch leave every unit and
//! auxiliary-head parameter (and batch-norm statistic) with the f32 bits
//! `Worker::train_block` leaves after `k` epochs over that batch as its
//! whole input, on a one-block plan covering every unit.

use neuroflux_core::worker::Worker;
use neuroflux_core::{Block, MemoryStore, NeuroFluxConfig};
use nf_bench::step::LocalStep;
use nf_models::ModelSpec;
use nf_nn::optim::Sgd;
use nf_nn::{Layer, Sequential};
use rand::SeedableRng;

fn state_bits(layers: &mut [Sequential]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for layer in layers {
        layer.visit_params(&mut |p| out.push(p.value.data().iter().map(|v| v.to_bits()).collect()));
        layer.visit_buffers(&mut |t| out.push(t.data().iter().map(|v| v.to_bits()).collect()));
    }
    out
}

#[test]
fn k_steps_leave_the_parameters_train_block_leaves() {
    let (k, batch, hw, classes) = (3, 10, 8, 3);
    // Three units, the middle one pooling, so the step tensors change
    // shape along the chain.
    let spec = ModelSpec::tiny("step", hw, &[6, 8, 8], classes);
    let config = NeuroFluxConfig::new(1 << 30, batch).with_epochs(k);
    let build = || {
        let sgd = Sgd::new(config.lr).with_momentum(config.momentum);
        LocalStep::new(&mut rand::rngs::StdRng::seed_from_u64(42), &spec, sgd).unwrap()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let images = nf_tensor::uniform_init(&mut rng, &[batch, 3, hw, hw], -1.0, 1.0);
    let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();

    let mut timed = build();
    let initial = state_bits(&mut timed.model.units);
    for _ in 0..k {
        timed.run(&images, &labels).unwrap();
    }

    let mut product = build();
    let block = Block {
        units: 0..spec.num_units(),
        batch,
    };
    let mut store = MemoryStore::new();
    let losses = Worker::new(config, &mut store)
        .train_block(
            &mut product.model,
            &mut product.heads,
            &block,
            &images,
            &labels,
        )
        .unwrap();
    assert_eq!(losses.len(), k);

    let units = state_bits(&mut timed.model.units);
    assert_ne!(units, initial, "the steps trained nothing");
    assert_eq!(units, state_bits(&mut product.model.units), "unit state");
    assert_eq!(
        state_bits(&mut timed.heads),
        state_bits(&mut product.heads),
        "auxiliary-head state"
    );
}
