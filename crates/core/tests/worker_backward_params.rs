//! The Worker trains units through `Layer::backward_params` — the unit's
//! input gradient crosses no boundary in local learning, so it is never
//! computed. That must be invisible in the numbers: every parameter
//! gradient, and therefore every loss and every trained weight, keeps the
//! bits the full `backward` produces.

use neuroflux_core::worker::Worker;
use neuroflux_core::{Block, MemoryStore, NeuroFluxConfig};
use nf_data::SyntheticSpec;
use nf_models::{assign_aux, build_aux_head, AuxPolicy, BuiltModel, ModelSpec};
use nf_nn::loss::cross_entropy;
use nf_nn::optim::Sgd;
use nf_nn::{Layer, Mode, Sequential};
use rand::SeedableRng;

fn setup() -> (BuiltModel, Vec<Sequential>, nf_data::SplitDataset) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let spec = ModelSpec::tiny("bp", 8, &[6, 8], 3);
    let model = spec.build(&mut rng).unwrap();
    let aux = assign_aux(&spec, AuxPolicy::Fixed(4));
    let heads: Vec<Sequential> = aux
        .iter()
        .map(|a| build_aux_head(&mut rng, a).unwrap())
        .collect();
    (model, heads, SyntheticSpec::quick(3, 8, 48).generate())
}

fn bits(layer: &mut dyn Layer, of_grad: bool) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| {
        let t = if of_grad { &p.grad } else { &p.value };
        out.push(t.data().iter().map(|v| v.to_bits()).collect());
    });
    out
}

#[test]
fn backward_params_leaves_every_param_grad_unchanged() {
    let (mut full, mut full_heads, ds) = setup();
    let (mut lean, mut lean_heads, _) = setup();
    let x = ds.train.images().slice_batch(0, 8).unwrap();
    let labels = &ds.train.labels()[0..8];
    let step = |unit: &mut Sequential, head: &mut Sequential, lean: bool| {
        let out = unit.forward(&x, Mode::Train).unwrap();
        let logits = head.forward(&out, Mode::Train).unwrap();
        let (_, grad_logits) = cross_entropy(&logits, labels).unwrap();
        let grad_out = head.backward(&grad_logits).unwrap();
        if lean {
            unit.backward_params(&grad_out).unwrap();
        } else {
            let dx = unit.backward(&grad_out).unwrap();
            assert_eq!(dx.shape(), x.shape());
        }
    };
    step(&mut full.units[0], &mut full_heads[0], false);
    step(&mut lean.units[0], &mut lean_heads[0], true);
    let want = bits(&mut full.units[0], true);
    assert!(want.iter().flatten().any(|&b| b != 0), "gradients are live");
    assert_eq!(bits(&mut lean.units[0], true), want);
    // The cache was consumed either way.
    let g = nf_tensor::Tensor::zeros(&[8, 6, 4, 4]);
    assert!(lean.units[0].backward_params(&g).is_err());
}

#[test]
fn worker_losses_and_weights_match_a_full_backward_loop() {
    let config = NeuroFluxConfig::new(1 << 30, 64).with_epochs(2);
    let block = Block {
        units: 0..2,
        batch: 16,
    };

    // Reference: Algorithm 2 by hand, every unit through the full
    // `backward`.
    let (mut model, mut heads, ds) = setup();
    let (images, labels) = (ds.train.images(), ds.train.labels());
    let sgd = Sgd::new(config.lr).with_momentum(config.momentum);
    let mut want_losses = Vec::new();
    for _ in 0..config.epochs_per_block {
        let mut losses = Vec::new();
        for start in (0..images.shape()[0]).step_by(block.batch) {
            let end = (start + block.batch).min(images.shape()[0]);
            let mut cur = images.slice_batch(start, end).unwrap();
            for u in block.units.clone() {
                let out = model.units[u].forward(&cur, Mode::Train).unwrap();
                let logits = heads[u].forward(&out, Mode::Train).unwrap();
                let (loss, grad_logits) = cross_entropy(&logits, &labels[start..end]).unwrap();
                losses.push(loss);
                let grad_out = heads[u].backward(&grad_logits).unwrap();
                model.units[u].backward(&grad_out).unwrap();
                sgd.step(&mut model.units[u]);
                sgd.step(&mut heads[u]);
                cur = out;
            }
        }
        want_losses.push(losses.iter().sum::<f32>() / losses.len() as f32);
    }

    let (mut trained, mut trained_heads, _) = setup();
    let mut store = MemoryStore::new();
    let got_losses = Worker::new(config, &mut store)
        .train_block(&mut trained, &mut trained_heads, &block, images, labels)
        .unwrap();

    let loss_bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(loss_bits(&got_losses), loss_bits(&want_losses));
    for u in block.units.clone() {
        assert_eq!(
            bits(&mut trained.units[u], false),
            bits(&mut model.units[u], false),
            "unit {u} weights"
        );
        assert_eq!(
            bits(&mut trained_heads[u], false),
            bits(&mut heads[u], false),
            "head {u} weights"
        );
    }
}
