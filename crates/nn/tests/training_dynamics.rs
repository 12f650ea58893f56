//! Training-dynamics tests: optimizers and layers behave correctly over
//! many steps, not just per call.

use nf_nn::loss::{cross_entropy, mse};
use nf_nn::optim::Sgd;
use nf_nn::{BatchNorm2d, Layer, Linear, Mode, Sequential};
use nf_tensor::Tensor;
use rand::SeedableRng;

/// A linear layer trained with SGD must drive a linearly separable
/// two-class problem to (near-)zero loss.
#[test]
fn sgd_solves_linear_separation() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut layer = Linear::new(&mut rng, 2, 2);
    let x = Tensor::from_vec(vec![4, 2], vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0, 0.1, 0.9]).unwrap();
    let labels = [0usize, 0, 1, 1];
    let sgd = Sgd::new(0.5);
    let mut last = f32::INFINITY;
    for _ in 0..200 {
        let logits = layer.forward(&x, Mode::Train).unwrap();
        let (loss, grad) = cross_entropy(&logits, &labels).unwrap();
        layer.backward(&grad).unwrap();
        sgd.step(&mut layer);
        last = loss;
    }
    assert!(last < 0.05, "loss did not converge: {last}");
}

/// Momentum must accelerate convergence on an ill-conditioned quadratic
/// relative to plain SGD at the same learning rate.
#[test]
fn momentum_accelerates_ill_conditioned_quadratic() {
    // f(w) = 0.5 (100 w0² + w1²), solved from (1, 1).
    let run = |momentum: f32| -> f32 {
        let mut p = nf_nn::Param::new(Tensor::from_vec(vec![2], vec![1.0, 1.0]).unwrap());
        let opt = Sgd::new(0.008).with_momentum(momentum);
        for _ in 0..100 {
            let w = p.value.data().to_vec();
            p.grad = Tensor::from_vec(vec![2], vec![100.0 * w[0], w[1]]).unwrap();
            opt.step_param(&mut p);
        }
        p.value.norm()
    };
    let plain = run(0.0);
    let heavy = run(0.9);
    assert!(
        heavy < plain,
        "momentum ({heavy}) should beat plain SGD ({plain})"
    );
}

/// After training, batch-norm eval outputs must track train outputs on the
/// same distribution (running stats converge to batch stats).
#[test]
fn batchnorm_running_stats_converge() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut bn = BatchNorm2d::new(3);
    let batches: Vec<Tensor> = (0..200)
        .map(|i| {
            nf_tensor::uniform_init(&mut rng, &[8, 3, 2, 2], -1.0, 1.0)
                .map(|v| v * 2.0 + (i % 3) as f32 * 0.0 + 0.5)
        })
        .collect();
    for b in &batches {
        bn.forward(b, Mode::Train).unwrap();
        bn.clear_cache();
    }
    let probe = &batches[0];
    let train_out = bn.forward(probe, Mode::Train).unwrap();
    bn.clear_cache();
    let eval_out = bn.forward(probe, Mode::Eval).unwrap();
    let diff: f32 = train_out
        .data()
        .iter()
        .zip(eval_out.data())
        .map(|(a, b)| (a - b).abs())
        .sum::<f32>()
        / train_out.numel() as f32;
    assert!(diff < 0.2, "train/eval divergence {diff}");
}

/// MSE regression through a two-layer net fits a fixed target.
#[test]
fn two_layer_net_fits_regression_target() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let mut net = Sequential::new(vec![
        Box::new(Linear::new(&mut rng, 3, 16)),
        Box::new(nf_nn::relu::ReLU::new()),
        Box::new(Linear::new(&mut rng, 16, 1)),
    ]);
    let x = nf_tensor::uniform_init(&mut rng, &[16, 3], -1.0, 1.0);
    // Target: a fixed nonlinear function of the inputs.
    let target = Tensor::from_vec(
        vec![16, 1],
        x.data()
            .chunks(3)
            .map(|c| (c[0] - 0.5 * c[1]).max(0.0) + 0.25 * c[2])
            .collect(),
    )
    .unwrap();
    let sgd = Sgd::new(0.1).with_momentum(0.9);
    let mut final_loss = f32::INFINITY;
    for _ in 0..400 {
        let y = net.forward(&x, Mode::Train).unwrap();
        let (loss, grad) = mse(&y, &target).unwrap();
        net.backward(&grad).unwrap();
        sgd.step(&mut net);
        final_loss = loss;
    }
    assert!(final_loss < 0.01, "regression loss {final_loss}");
}

/// Weight decay shrinks parameter norms relative to no decay.
#[test]
fn weight_decay_regularises() {
    let run = |wd: f32| -> f32 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut layer = Linear::new(&mut rng, 4, 4);
        let x = nf_tensor::uniform_init(&mut rng, &[8, 4], -1.0, 1.0);
        let labels = [0usize, 1, 2, 3, 0, 1, 2, 3];
        let sgd = Sgd::new(0.1).with_weight_decay(wd);
        for _ in 0..100 {
            let logits = layer.forward(&x, Mode::Train).unwrap();
            let (_, grad) = cross_entropy(&logits, &labels).unwrap();
            layer.backward(&grad).unwrap();
            sgd.step(&mut layer);
        }
        layer.weight().value.norm()
    };
    assert!(run(0.05) < run(0.0));
}
