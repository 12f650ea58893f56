//! The batched-`im2col` Conv2d path (one `(N·OH·OW) × (C·KH·KW)` matrix
//! and a single GEMM per minibatch) must reproduce the historical
//! per-sample lowering (one small GEMM per image) exactly — forward
//! outputs, input gradients, and parameter gradients alike.

use nf_nn::{Conv2d, Layer, Mode};
use nf_tensor::{
    col2im, im2col, matmul_a_bt_with, matmul_at_b_with, matmul_with, uniform_init, Conv2dGeometry,
    KernelBackend, Tensor,
};
use rand::SeedableRng;

/// The old per-sample conv forward: weight `(C_out, C·K·K)`, bias
/// `(C_out)`, one `im2col` + GEMM per image, on the naive oracle backend.
fn per_sample_forward(x: &Tensor, weight: &Tensor, bias: &Tensor, geom: &Conv2dGeometry) -> Tensor {
    let (n, c, h, w) = x.dims4().unwrap();
    let c_out = weight.shape()[0];
    let positions = geom.out_positions();
    let mut out = Vec::with_capacity(n * c_out * positions);
    for img in 0..n {
        let image = x
            .slice_batch(img, img + 1)
            .unwrap()
            .reshape(&[c, h, w])
            .unwrap();
        let cols = im2col(&image, c, geom).unwrap();
        let mut y = matmul_with(KernelBackend::Naive, weight, &cols).unwrap();
        for (ch, row) in y.data_mut().chunks_mut(positions).enumerate() {
            let b = bias.data()[ch];
            for v in row {
                *v += b;
            }
        }
        out.extend_from_slice(y.data());
    }
    Tensor::from_vec(vec![n, c_out, geom.out_h, geom.out_w], out).unwrap()
}

/// The old per-sample conv backward: returns (dx, dw, db).
fn per_sample_backward(
    x: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    geom: &Conv2dGeometry,
) -> (Tensor, Tensor, Vec<f32>) {
    let (n, c, h, w) = x.dims4().unwrap();
    let c_out = weight.shape()[0];
    let positions = geom.out_positions();
    let mut dw = Tensor::zeros(&[c_out, weight.shape()[1]]);
    let mut db = vec![0.0f32; c_out];
    let mut grad_in = Vec::with_capacity(x.numel());
    for img in 0..n {
        let image = x
            .slice_batch(img, img + 1)
            .unwrap()
            .reshape(&[c, h, w])
            .unwrap();
        let cols = im2col(&image, c, geom).unwrap();
        let gy = grad_out
            .slice_batch(img, img + 1)
            .unwrap()
            .reshape(&[c_out, positions])
            .unwrap();
        let dwi = matmul_a_bt_with(KernelBackend::Naive, &gy, &cols).unwrap();
        nf_tensor::axpy(1.0, &dwi, &mut dw).unwrap();
        for (ch, row) in gy.data().chunks(positions).enumerate() {
            db[ch] += row.iter().sum::<f32>();
        }
        let dcols = matmul_at_b_with(KernelBackend::Naive, weight, &gy).unwrap();
        let dimg = col2im(&dcols, c, geom).unwrap();
        grad_in.extend_from_slice(dimg.data());
    }
    (Tensor::from_vec(vec![n, c, h, w], grad_in).unwrap(), dw, db)
}

fn assert_close(label: &str, want: &[f32], got: &[f32], tol: f32) {
    assert_eq!(want.len(), got.len(), "{label}: length mismatch");
    for (i, (x, y)) in want.iter().zip(got).enumerate() {
        assert!(
            (x - y).abs() < tol * (1.0 + x.abs()),
            "{label}[{i}]: per-sample {x} vs batched {y}"
        );
    }
}

// A case is naturally its full conv geometry; splitting the parameters
// into a struct would only obscure the call sites below.
#[allow(clippy::too_many_arguments)]
fn check_case(
    backend: KernelBackend,
    n: usize,
    c_in: usize,
    c_out: usize,
    hw: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    seed: u64,
) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut conv = Conv2d::new(&mut rng, c_in, c_out, kernel, stride, pad)
        .unwrap()
        .with_backend(backend);
    let x = uniform_init(&mut rng, &[n, c_in, hw, hw], -1.0, 1.0);
    let geom = Conv2dGeometry::new(hw, hw, kernel, kernel, stride, pad).unwrap();

    // Read the layer's parameters through visit_params (weight first, then
    // bias, as Conv2d visits them).
    let mut params: Vec<Tensor> = Vec::new();
    conv.visit_params(&mut |p| params.push(p.value.clone()));
    let (weight, bias) = (params[0].clone(), params[1].clone());

    let got = conv.forward(&x, Mode::Train).unwrap();
    let want = per_sample_forward(&x, &weight, &bias, &geom);
    assert_eq!(want.shape(), got.shape());
    assert_close("forward", want.data(), got.data(), 1e-4);

    let grad_out = uniform_init(&mut rng, got.shape(), -1.0, 1.0);
    let got_dx = conv.backward(&grad_out).unwrap();
    let (want_dx, want_dw, want_db) = per_sample_backward(&x, &weight, &grad_out, &geom);
    assert_close("dx", want_dx.data(), got_dx.data(), 1e-4);

    let mut grads: Vec<Tensor> = Vec::new();
    conv.visit_params(&mut |p| grads.push(p.grad.clone()));
    assert_close("dw", want_dw.data(), grads[0].data(), 1e-4);
    assert_close("db", &want_db, grads[1].data(), 1e-4);
}

#[test]
fn batched_conv_matches_per_sample_reference() {
    for backend in [KernelBackend::Naive, KernelBackend::Blocked] {
        // (n, c_in, c_out, hw, kernel, stride, pad)
        check_case(backend, 1, 1, 1, 4, 3, 1, 1, 1);
        check_case(backend, 3, 2, 4, 6, 3, 1, 1, 2);
        check_case(backend, 2, 3, 5, 8, 3, 2, 1, 3);
        check_case(backend, 4, 2, 3, 5, 2, 2, 0, 4);
        check_case(backend, 2, 4, 8, 7, 1, 1, 0, 5);
    }
}

#[test]
fn batched_conv_matches_at_scale() {
    // One CNN-realistic shape so the blocking boundaries (MR=8, JT=32)
    // are actually crossed: batch 8 of 16×16×16 through a 3×3 conv to 32
    // channels.
    check_case(KernelBackend::Blocked, 8, 16, 32, 16, 3, 1, 1, 6);
}
