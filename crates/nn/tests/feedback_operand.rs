//! The contract of [`Param::set_feedback`] on the two layers that read it:
//! a feedback matrix replaces one operand — the weights in the
//! input-gradient product — and nothing else. Same code path, different
//! operand, so the oracle is equal bits against a twin layer whose weights
//! *are* the feedback matrix.

use nf_nn::optim::Sgd;
use nf_nn::{Conv2d, Layer, Linear, Mode, Param};
use nf_tensor::{uniform_init, Tensor};
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// A layer under a name, built identically on each call, with the input
/// shape to drive it at.
type Case = (&'static str, Vec<usize>, fn() -> Box<dyn Layer>);

/// The three input-gradient products: gathered (stride-1 conv), dense +
/// `col2im` (strided conv), packed transpose (linear).
fn cases() -> Vec<Case> {
    vec![
        ("conv stride 1", vec![3, 3, 7, 6], || {
            Box::new(Conv2d::new(&mut rng(21), 3, 5, 3, 1, 1).unwrap())
        }),
        ("conv stride 2", vec![2, 2, 8, 8], || {
            Box::new(Conv2d::new(&mut rng(21), 2, 4, 3, 2, 1).unwrap())
        }),
        ("linear", vec![5, 7], || {
            Box::new(Linear::new(&mut rng(21), 7, 4))
        }),
    ]
}

/// Runs `f` on the layer's weight matrix (its one rank-2 parameter).
fn with_weight<T>(layer: &mut dyn Layer, mut f: impl FnMut(&mut Param) -> T) -> T {
    let mut out = None;
    layer.visit_params(&mut |p| {
        if p.value.rank() == 2 {
            out = Some(f(p));
        }
    });
    out.expect("layer has a weight matrix")
}

type Bits = (Vec<usize>, Vec<u32>);

fn bits(t: &Tensor) -> Bits {
    let data = t.data().iter().map(|v| v.to_bits()).collect();
    (t.shape().to_vec(), data)
}

/// One Train forward + backward from zeroed gradients: the input gradient
/// and every parameter gradient, as bits.
fn pass(layer: &mut dyn Layer, x: &Tensor, g: &Tensor) -> (Bits, Vec<Bits>) {
    layer.zero_grad();
    layer.forward(x, Mode::Train).unwrap();
    let dx = layer.backward(g).unwrap();
    let mut grads = Vec::new();
    layer.visit_params(&mut |p| grads.push(bits(&p.grad)));
    (bits(&dx), grads)
}

#[test]
fn feedback_replaces_the_input_gradient_operand_and_nothing_else() {
    for (name, shape, build) in cases() {
        let mut r = rng(5);
        let x = uniform_init(&mut r, &shape, -1.0, 1.0);
        let (mut plain, mut fa, mut twin) = (build(), build(), build());
        let y = plain.forward(&x, Mode::Eval).unwrap();
        let g = uniform_init(&mut r, y.shape(), -1.0, 1.0);
        let w_shape = with_weight(plain.as_mut(), |p| p.value.shape().to_vec());
        let b = uniform_init(&mut r, &w_shape, -1.0, 1.0);
        // The twin's weights are the feedback matrix.
        with_weight(twin.as_mut(), |p| {
            p.value = b.clone();
            p.note_update();
        });

        // Without feedback the layer is the plain layer; this backward also
        // packs the panel the next one must not reuse.
        let (plain_dx, plain_grads) = pass(plain.as_mut(), &x, &g);
        assert_eq!(
            pass(fa.as_mut(), &x, &g),
            (plain_dx.clone(), plain_grads.clone())
        );

        // Installed after a backward: in effect on the next one.
        with_weight(fa.as_mut(), |p| p.set_feedback(b.clone())).unwrap();
        let (fa_dx, fa_grads) = pass(fa.as_mut(), &x, &g);
        assert_eq!(fa_grads, plain_grads, "{name}: dW/db must not move");
        assert_ne!(fa_dx, plain_dx, "{name}: dx must go through B");
        assert_eq!(fa_dx, pass(twin.as_mut(), &x, &g).0, "{name}: dx = g·B");
        // Forward still runs on W.
        assert_eq!(
            bits(&fa.forward(&x, Mode::Eval).unwrap()),
            bits(&y),
            "{name}"
        );
    }
}

#[test]
fn feedback_is_invisible_to_visitors_counts_and_optimizers() {
    for (name, shape, build) in cases() {
        let mut r = rng(6);
        let x = uniform_init(&mut r, &shape, -1.0, 1.0);
        let (mut plain, mut fa) = (build(), build());
        let w_shape = with_weight(plain.as_mut(), |p| p.value.shape().to_vec());
        let b = uniform_init(&mut r, &w_shape, -1.0, 1.0);
        with_weight(fa.as_mut(), |p| p.set_feedback(b.clone())).unwrap();

        assert_eq!(fa.param_count(), plain.param_count(), "{name}");
        let shapes = |l: &mut dyn Layer| {
            let mut s = Vec::new();
            l.visit_params(&mut |p| s.push(p.value.shape().to_vec()));
            s
        };
        assert_eq!(shapes(fa.as_mut()), shapes(plain.as_mut()), "{name}");

        // A momentum step moves W and leaves B where it was.
        let w0 = with_weight(fa.as_mut(), |p| p.value.clone());
        let y = fa.forward(&x, Mode::Train).unwrap();
        fa.backward(&Tensor::ones(y.shape())).unwrap();
        Sgd::new(0.1).with_momentum(0.9).step(fa.as_mut());
        with_weight(fa.as_mut(), |p| {
            assert_ne!(p.value, w0, "{name}: the step moved W");
            assert_eq!(p.feedback(), Some(&b), "{name}: B is fixed");
        });
    }
}

#[test]
fn feedback_of_another_shape_is_a_typed_error() {
    let mut p = Param::new(Tensor::ones(&[2, 3]));
    let version = p.version();
    assert!(p.set_feedback(Tensor::ones(&[3, 2])).is_err());
    assert!(p.feedback().is_none());
    assert_eq!(p.version(), version);
    p.set_feedback(Tensor::zeros(&[2, 3])).unwrap();
    assert_ne!(p.version(), version, "installing re-derives packed panels");
}
