//! The Worker drives every layer through `forward_into` / `backward_into`,
//! threading one set of step tensors through a whole run: containers hand
//! activations on through workspace scratch, the unit's spent input buffer
//! takes the gradient, and nothing is reallocated between steps, batches
//! of different sizes, or blocks of different shapes. None of that may
//! show in the numbers: a run must produce the losses and weights of
//! Algorithm 2 spelled out layer by layer through the owning wrappers,
//! where every activation is a fresh tensor.

use neuroflux_core::worker::Worker;
use neuroflux_core::{Block, MemoryStore, NeuroFluxConfig};
use nf_data::SyntheticSpec;
use nf_models::{build_aux_heads, AuxPolicy, BuiltModel, ModelSpec};
use nf_nn::loss::cross_entropy;
use nf_nn::optim::Sgd;
use nf_nn::{Layer, Mode, Sequential};
use nf_tensor::Tensor;
use rand::SeedableRng;

fn setup() -> (BuiltModel, Vec<Sequential>, nf_data::SplitDataset) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    // Three units, the middle one pooling; 40 samples, so the last batch
    // of every sweep is short.
    let spec = ModelSpec::tiny("into", 8, &[6, 8, 8], 3);
    let model = spec.build(&mut rng).unwrap();
    let heads = build_aux_heads(&mut rng, &spec, AuxPolicy::Fixed(4)).unwrap();
    (model, heads, SyntheticSpec::quick(3, 8, 40).generate())
}

/// `seq` forward, one owned tensor per layer.
fn forward(seq: &mut Sequential, x: &Tensor, mode: Mode) -> Tensor {
    let mut cur = x.clone();
    for layer in seq.layers_mut() {
        cur = layer.forward(&cur, mode).unwrap();
    }
    cur
}

/// `seq` backward, one owned tensor per layer.
fn backward(seq: &mut Sequential, grad: &Tensor) -> Tensor {
    let mut g = grad.clone();
    for layer in seq.layers_mut().iter_mut().rev() {
        g = layer.backward(&g).unwrap();
    }
    g
}

fn weight_bits(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(p.value.data().iter().map(|v| v.to_bits()).collect()));
    layer.visit_buffers(&mut |t| out.push(t.data().iter().map(|v| v.to_bits()).collect()));
    out
}

#[test]
fn a_run_matches_algorithm_2_through_the_owning_wrappers() {
    let config = NeuroFluxConfig::new(1 << 30, 64).with_epochs(2);
    // Two blocks of different batch sizes and activation shapes.
    let blocks = [
        Block {
            units: 0..2,
            batch: 16,
        },
        Block {
            units: 2..3,
            batch: 12,
        },
    ];

    // Reference: every layer through `forward` / `backward`.
    let (mut model, mut heads, ds) = setup();
    let (images, labels) = (ds.train.images(), ds.train.labels());
    let sgd = Sgd::new(config.lr).with_momentum(config.momentum);
    let batches = |n: usize, batch: usize| {
        (0..n)
            .step_by(batch)
            .map(move |start| (start, (start + batch).min(n)))
    };
    let mut want_losses = Vec::new();
    let mut inputs = images.clone();
    for block in &blocks {
        let n = inputs.shape()[0];
        let mut block_losses = Vec::new();
        for _ in 0..config.epochs_per_block {
            let mut losses = Vec::new();
            for (start, end) in batches(n, block.batch) {
                let mut cur = inputs.slice_batch(start, end).unwrap();
                for u in block.units.clone() {
                    let out = forward(&mut model.units[u], &cur, Mode::Train);
                    let logits = forward(&mut heads[u], &out, Mode::Train);
                    let (loss, grad_logits) = cross_entropy(&logits, &labels[start..end]).unwrap();
                    losses.push(loss);
                    let grad_out = backward(&mut heads[u], &grad_logits);
                    backward(&mut model.units[u], &grad_out);
                    sgd.step(&mut model.units[u]);
                    sgd.step(&mut heads[u]);
                    cur = out;
                }
            }
            block_losses.push(losses.iter().sum::<f32>() / losses.len() as f32);
        }
        want_losses.push(block_losses);
        // The block's outputs over the whole set feed the next block.
        let parts: Vec<Tensor> = batches(n, block.batch)
            .map(|(start, end)| {
                let mut cur = inputs.slice_batch(start, end).unwrap();
                for u in block.units.clone() {
                    cur = forward(&mut model.units[u], &cur, Mode::Eval);
                }
                cur
            })
            .collect();
        inputs = Tensor::cat_batch(&parts.iter().collect::<Vec<_>>()).unwrap();
    }
    // The deep head trains on the last block's activations.
    let last = blocks.last().unwrap();
    for _ in 0..config.epochs_per_block {
        for (start, end) in batches(inputs.shape()[0], last.batch) {
            let xb = inputs.slice_batch(start, end).unwrap();
            let logits = forward(&mut model.head, &xb, Mode::Train);
            let (_, grad) = cross_entropy(&logits, &labels[start..end]).unwrap();
            backward(&mut model.head, &grad);
            sgd.step(&mut model.head);
        }
    }

    let (mut trained, mut trained_heads, _) = setup();
    let mut store = MemoryStore::new();
    let report = Worker::new(config, &mut store)
        .run(&mut trained, &mut trained_heads, &blocks, images, labels)
        .unwrap();

    let loss_bits = |l: &[Vec<f32>]| -> Vec<Vec<u32>> {
        l.iter()
            .map(|b| b.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    assert_eq!(loss_bits(&report.block_losses), loss_bits(&want_losses));
    for u in 0..3 {
        assert_eq!(
            weight_bits(&mut trained.units[u]),
            weight_bits(&mut model.units[u]),
            "unit {u}"
        );
        assert_eq!(
            weight_bits(&mut trained_heads[u]),
            weight_bits(&mut heads[u]),
            "head {u}"
        );
    }
    assert_eq!(weight_bits(&mut trained.head), weight_bits(&mut model.head));
}
