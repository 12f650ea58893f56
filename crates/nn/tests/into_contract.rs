//! The output-ownership contract of [`Layer`], checked on every
//! implementation in this crate: a layer writes into whatever buffer the
//! caller hands it — any shape, any stale contents — and what lands there
//! is what the owning wrapper returns; and `backward_params` accumulates
//! the parameter gradients `backward` does, bit for bit.

use nf_nn::relu::ReLU;
use nf_nn::{
    AvgPool2d, BasicBlock, BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Layer, Linear, MaxPool2d,
    Mode, Sequential,
};
use nf_tensor::{QuantTensor, Tensor};
use rand::SeedableRng;

/// A `Layer` impl under a name, built fresh (and identically) on each
/// call, with the input shape to drive it at.
type Case = (&'static str, Vec<usize>, Box<dyn Fn() -> Box<dyn Layer>>);

/// Every `Layer` impl of the crate.
fn cases() -> Vec<Case> {
    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }
    fn case<L: Layer + 'static>(
        name: &'static str,
        shape: &[usize],
        build: impl Fn() -> L + 'static,
    ) -> Case {
        (name, shape.to_vec(), Box::new(move || Box::new(build())))
    }
    vec![
        case("conv", &[3, 3, 7, 6], || {
            Conv2d::new(&mut rng(), 3, 5, 3, 1, 1).unwrap()
        }),
        case("conv strided", &[2, 2, 8, 8], || {
            Conv2d::new(&mut rng(), 2, 4, 3, 2, 1).unwrap()
        }),
        case("conv 1x1", &[2, 4, 5, 5], || {
            Conv2d::new(&mut rng(), 4, 3, 1, 1, 0).unwrap()
        }),
        case("linear", &[5, 7], || Linear::new(&mut rng(), 7, 4)),
        case("batchnorm", &[4, 9, 3, 5], || BatchNorm2d::new(9)),
        case("relu", &[3, 70], ReLU::new),
        case("maxpool 2x2", &[2, 3, 9, 7], || MaxPool2d::new(2, 2)),
        case("maxpool 3x3/2", &[2, 3, 9, 7], || MaxPool2d::new(3, 2)),
        case("avgpool", &[2, 3, 8, 6], || AvgPool2d::new(2, 2)),
        case("global avgpool", &[3, 11, 5, 4], GlobalAvgPool::new),
        case("flatten", &[3, 2, 4, 5], Flatten::new),
        case("basic block id", &[2, 4, 6, 6], || {
            BasicBlock::new(&mut rng(), 4, 4, 1).unwrap()
        }),
        case("basic block proj", &[2, 4, 6, 6], || {
            BasicBlock::new(&mut rng(), 4, 6, 2).unwrap()
        }),
        case("sequential unit", &[3, 3, 8, 8], || {
            let mut r = rng();
            Sequential::new(vec![
                Box::new(Conv2d::new(&mut r, 3, 6, 3, 1, 1).unwrap()),
                Box::new(BatchNorm2d::new(6)),
                Box::new(ReLU::new()),
                Box::new(MaxPool2d::new(2, 2)),
            ])
        }),
        case("sequential head", &[3, 6, 4, 4], || {
            let mut r = rng();
            Sequential::new(vec![
                Box::new(Conv2d::new(&mut r, 6, 4, 3, 1, 1).unwrap()),
                Box::new(ReLU::new()),
                Box::new(GlobalAvgPool::new()),
                Box::new(Linear::new(&mut r, 4, 3)),
            ])
        }),
        case("sequential of one", &[2, 5], || {
            Sequential::new(vec![Box::new(Linear::new(&mut rng(), 5, 2))])
        }),
        case("sequential of none", &[2, 5], Sequential::empty),
    ]
}

fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    (
        t.shape().to_vec(),
        t.data().iter().map(|v| v.to_bits()).collect(),
    )
}

fn grad_bits(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(p.grad.data().iter().map(|v| v.to_bits()).collect()));
    out
}

/// A buffer no output fits exactly, holding nothing an output may keep.
fn stale() -> Tensor {
    Tensor::full(&[3, 1117], f32::NAN)
}

#[test]
fn into_a_stale_buffer_equals_the_owning_wrapper() {
    for (name, shape, build) in cases() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let x = nf_tensor::uniform_init(&mut rng, &shape, -1.0, 1.0);
        for mode in [Mode::Eval, Mode::Train] {
            let (mut owning, mut writing) = (build(), build());
            let want = owning.forward(&x, mode).unwrap();
            let mut got = stale();
            writing.forward_into(&x, mode, &mut got).unwrap();
            assert_eq!(bits(&got), bits(&want), "{name} forward {mode:?}");
            if mode == Mode::Eval {
                continue;
            }
            let g = nf_tensor::uniform_init(&mut rng, want.shape(), -1.0, 1.0);
            let want_dx = owning.backward(&g).unwrap();
            let mut dx = stale();
            writing.backward_into(&g, &mut dx).unwrap();
            assert_eq!(bits(&dx), bits(&want_dx), "{name} backward");
            assert_eq!(want_dx.shape(), x.shape(), "{name} input gradient shape");
            assert_eq!(grad_bits(&mut writing), grad_bits(&mut owning), "{name}");
            // The same buffers again, now holding the previous results.
            writing.forward_into(&x, mode, &mut got).unwrap();
            assert_eq!(bits(&got), bits(&want), "{name} second forward");
            writing.backward_into(&g, &mut dx).unwrap();
            assert_eq!(bits(&dx), bits(&want_dx), "{name} second backward");
        }
    }
}

#[test]
fn backward_params_accumulates_what_backward_does() {
    for (name, shape, build) in cases() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let x = nf_tensor::uniform_init(&mut rng, &shape, -1.0, 1.0);
        let (mut full, mut lean) = (build(), build());
        let y = full.forward(&x, Mode::Train).unwrap();
        lean.forward(&x, Mode::Train).unwrap();
        let g = nf_tensor::uniform_init(&mut rng, y.shape(), -1.0, 1.0);
        full.backward(&g).unwrap();
        lean.backward_params(&g).unwrap();
        assert_eq!(grad_bits(&mut lean), grad_bits(&mut full), "{name}");
        // Either way the forward cache is spent.
        if name != "sequential of none" {
            assert!(lean.backward_params(&g).is_err(), "{name} double backward");
        }
    }
}

#[test]
fn quantized_entry_into_a_stale_buffer_equals_the_owning_wrapper() {
    for (name, shape, build) in cases() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        let xq = QuantTensor::from_f32(&nf_tensor::uniform_init(&mut rng, &shape, -1.0, 1.0));
        for mode in [Mode::Eval, Mode::Train] {
            let (mut owning, mut writing) = (build(), build());
            let want = owning.forward_quant(&xq, mode).unwrap();
            let mut got = stale();
            writing.forward_quant_into(&xq, mode, &mut got).unwrap();
            assert_eq!(bits(&got), bits(&want), "{name} forward_quant {mode:?}");
        }
    }
}

#[test]
fn sequential_prefixes_write_into_the_callers_buffer() {
    fn unit_layers() -> Vec<Box<dyn Layer>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(26);
        vec![
            Box::new(Conv2d::new(&mut rng, 3, 6, 3, 1, 1).unwrap()),
            Box::new(BatchNorm2d::new(6)),
            Box::new(ReLU::new()),
            Box::new(MaxPool2d::new(2, 2)),
        ]
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(25);
    let x = nf_tensor::uniform_init(&mut rng, &[2, 3, 8, 8], -1.0, 1.0);
    // Layer by layer through the owning wrappers, against every prefix of
    // the chain through the hand-off buffers.
    let mut by_hand = unit_layers();
    let mut chain = Sequential::new(unit_layers());
    let mut got = stale();
    chain
        .forward_until_into(&x, Mode::Eval, 0, &mut got)
        .unwrap();
    assert_eq!(bits(&got), bits(&x), "the empty prefix is the input");
    let mut cur = x.clone();
    for (end, layer) in by_hand.iter_mut().enumerate() {
        cur = layer.forward(&cur, Mode::Eval).unwrap();
        chain
            .forward_until_into(&x, Mode::Eval, end + 1, &mut got)
            .unwrap();
        assert_eq!(bits(&got), bits(&cur), "prefix of {}", end + 1);
    }
    // Past the end is the whole chain.
    chain
        .forward_until_into(&x, Mode::Eval, 99, &mut got)
        .unwrap();
    assert_eq!(bits(&got), bits(&cur));
}
