//! Criterion benches for the tensor kernels every experiment runs on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nf_tensor::{im2col, matmul, matmul_with, Conv2dGeometry, KernelBackend};
use rand::SeedableRng;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    for &n in &[32usize, 64, 128] {
        let a = nf_tensor::uniform_init(&mut rng, &[n, n], -1.0, 1.0);
        let b = nf_tensor::uniform_init(&mut rng, &[n, n], -1.0, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| matmul(&a, &b).unwrap())
        });
    }
    group.finish();
}

/// Naive vs blocked on CNN-relevant GEMM shapes, so the
/// backend speedup is measured rather than asserted. Shapes:
/// `128×1152×256` is a batched 3×3 conv lowering (`N·OH·OW=128` rows of
/// `C_in·9=1152` patch values against 256 output channels), `256³` is the
/// square reference point, and `512×4608×64` is a wide im2col panel from an
/// early VGG layer at batch 8.
fn bench_gemm_backends(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let backends = [KernelBackend::Naive, KernelBackend::Blocked];
    for &(m, k, n) in &[
        (128usize, 1152usize, 256usize),
        (256, 256, 256),
        (512, 4608, 64),
    ] {
        let mut group = c.benchmark_group(format!("gemm_{m}x{k}x{n}"));
        group.sample_size(10);
        let a = nf_tensor::uniform_init(&mut rng, &[m, k], -1.0, 1.0);
        let b = nf_tensor::uniform_init(&mut rng, &[k, n], -1.0, 1.0);
        for backend in backends {
            group.bench_with_input(
                BenchmarkId::from_parameter(backend.name()),
                &backend,
                |bench, &backend| bench.iter(|| matmul_with(backend, &a, &b).unwrap()),
            );
        }
        group.finish();
    }
}

fn bench_im2col(c: &mut Criterion) {
    let mut group = c.benchmark_group("im2col");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for &(ch, hw) in &[(16usize, 16usize), (32, 32)] {
        let img = nf_tensor::uniform_init(&mut rng, &[ch, hw, hw], -1.0, 1.0);
        let geom = Conv2dGeometry::new(hw, hw, 3, 3, 1, 1).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{ch}x{hw}x{hw}")),
            &ch,
            |bench, _| bench.iter(|| im2col(&img, ch, &geom).unwrap()),
        );
    }
    group.finish();
}

fn bench_conv_forward(c: &mut Criterion) {
    use nf_nn::{Conv2d, Layer, Mode};
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let mut conv = Conv2d::new(&mut rng, 16, 32, 3, 1, 1).unwrap();
    let x = nf_tensor::uniform_init(&mut rng, &[4, 16, 16, 16], -1.0, 1.0);
    c.bench_function("conv2d_forward_4x16x16x16", |b| {
        b.iter(|| conv.forward(&x, Mode::Eval).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_gemm_backends, bench_im2col, bench_conv_forward
}
criterion_main!(benches);
