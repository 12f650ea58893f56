//! Layer-level steady-state allocation discipline.
//!
//! A layer writes into the caller's buffer (`Layer::forward_into` /
//! `backward_into`), containers hand activations between their layers
//! through workspace scratch, and every cache — inputs, masks, normalised
//! activations, pooling codes — refills the storage the previous step
//! retired. So a warmed-up local-learning step driven through the `_into`
//! entry points performs **no** allocation at all, and the owning wrappers
//! (`forward`, `backward`, `forward_quant`) allocate exactly the tensor
//! they return: the per-step count is a small constant, nothing in it is
//! activation-sized, and the shared workspaces stop growing.

use nf_nn::optim::Sgd;
use nf_nn::relu::ReLU;
use nf_nn::{
    BatchNorm2d, Conv2d, GlobalAvgPool, Layer, Linear, LocalStep, MaxPool2d, Mode, Sequential,
};
use nf_tensor::{lock_workspace, shared_workspace, QuantTensor, Tensor};
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Allocations of at least [`LARGE`] bytes — anything activation-sized.
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

const LARGE: usize = 4096;

fn count(size: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    if size >= LARGE {
        LARGE_ALLOCS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: delegates entirely to `System`; only adds thread-local counts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn large_allocs_now() -> u64 {
    LARGE_ALLOCS.with(|c| c.get())
}

/// The inputs of the steps below, so that both orientations of the conv
/// product and both weight-gradient paths are held to zero allocations.
/// At 16×16 the head's conv (rows 8 wide) stays gathered on every host,
/// its input gradient and `dWᵀ` included — the NCHW emit through the
/// workspace's row group — while the unit's (rows 16 wide) runs on the
/// lanes wherever the rule uses them. At 32×32 both convs run on the lanes
/// there (rows 32 and 16 wide): the lane product reads the weight panel in
/// place, so it must not copy it per call; and on every host both weight
/// gradients run on the positions axis, their lane sums in the
/// workspace's `pack` slot.
fn inputs() -> [[usize; 4]; 2] {
    use nf_tensor::kernels::{lanes_fit, positions_fit};
    assert!(
        !lanes_fit(1, 8),
        "8-wide rows keep the gathered orientation"
    );
    assert_eq!(
        lanes_fit(1, 16),
        lanes_fit(1, usize::MAX),
        "16-wide rows take the lanes wherever any row does"
    );
    // (out_w, c_out) of the unit's and the head's conv at each input.
    assert!(positions_fit(1, 16, 8) && !positions_fit(1, 8, 4));
    assert!(positions_fit(1, 32, 8) && positions_fit(1, 16, 4));
    [[6, 3, 16, 16], [6, 3, 32, 32]]
}

/// One `tiny`-preset unit with pooling and its auxiliary head, as
/// `nf_models` builds them, on the Worker's two arenas.
fn unit_and_head(rng: &mut rand::rngs::StdRng) -> (Sequential, Sequential) {
    let mut unit = Sequential::new(vec![
        Box::new(Conv2d::new(rng, 3, 8, 3, 1, 1).unwrap()),
        Box::new(BatchNorm2d::new(8)),
        Box::new(ReLU::new()),
        Box::new(MaxPool2d::new(2, 2)),
    ]);
    let mut head = Sequential::new(vec![
        Box::new(Conv2d::new(rng, 8, 4, 3, 1, 1).unwrap()),
        Box::new(ReLU::new()),
        Box::new(GlobalAvgPool::new()),
        Box::new(Linear::new(rng, 4, 3)),
    ]);
    unit.set_workspace(&shared_workspace());
    head.set_workspace(&shared_workspace());
    (unit, head)
}

#[test]
fn warmed_up_local_learning_step_allocates_nothing() {
    for shape in inputs() {
        local_learning_step_allocates_nothing(shape);
    }
}

fn local_learning_step_allocates_nothing(shape: [usize; 4]) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let (mut unit, mut head) = unit_and_head(&mut rng);
    // At least 6·3·16·16 floats: every activation of the step is well past
    // `LARGE`.
    let x = nf_tensor::uniform_init(&mut rng, &shape, -1.0, 1.0);
    let labels = [0usize, 1, 2, 0, 1, 2];
    let mut deep = Sequential::new(vec![
        Box::new(GlobalAvgPool::new()),
        Box::new(Linear::new(&mut rng, 8, 3)),
    ]);
    deep.set_workspace(&shared_workspace());
    let sgd = Sgd::new(0.01).with_momentum(0.9);
    // The step the trainers run: the unit with its auxiliary head, then a
    // deep head on the unit's output.
    let mut tensors = LocalStep::default();
    let mut step = || {
        tensors.cur.copy_from(&x);
        tensors
            .train_unit(&sgd, &mut unit, &mut head, &labels)
            .unwrap();
        tensors.train_head(&sgd, &mut deep, &labels).unwrap();
    };
    step();
    step();

    let counts: Vec<(u64, u64)> = (0..6)
        .map(|_| {
            let before = (allocs_now(), large_allocs_now());
            step();
            (allocs_now() - before.0, large_allocs_now() - before.1)
        })
        .collect();
    assert_eq!(
        counts,
        [(0, 0); 6],
        "(allocations, of them ≥ 4 KiB) per step at input {shape:?}"
    );
}

#[test]
fn warmed_up_sequential_eval_forward_allocates_nothing() {
    for shape in inputs() {
        sequential_eval_forward_allocates_nothing(shape);
    }
}

fn sequential_eval_forward_allocates_nothing(shape: [usize; 4]) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let (mut unit, mut head) = unit_and_head(&mut rng);
    let x = nf_tensor::uniform_init(&mut rng, &shape, -1.0, 1.0);
    let (mut out, mut logits) = (Tensor::default(), Tensor::default());
    let mut infer = || {
        unit.forward_into(&x, Mode::Eval, &mut out).unwrap();
        head.forward_into(&out, Mode::Eval, &mut logits).unwrap();
    };
    infer();
    let before = allocs_now();
    for _ in 0..4 {
        infer();
    }
    assert_eq!(allocs_now() - before, 0, "at input {shape:?}");
    // The owning wrapper adds the tensor it returns (shape + data), twice
    // over (unit output, logits), and nothing else.
    let before = (allocs_now(), large_allocs_now());
    let y = unit.forward(&x, Mode::Eval).unwrap();
    let _logits = head.forward(&y, Mode::Eval).unwrap();
    assert_eq!(allocs_now() - before.0, 4);
    assert_eq!(large_allocs_now() - before.1, 1, "only the unit's output");
}

#[test]
fn conv_train_step_alloc_count_is_constant_after_warmup() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    // Small enough to stay on the single-threaded lowering path.
    let mut conv = Conv2d::new(&mut rng, 4, 8, 3, 1, 1).unwrap();
    let ws = shared_workspace();
    conv.set_workspace(&ws);
    let x = Tensor::ones(&[4, 4, 10, 10]);
    let g = Tensor::ones(&[4, 8, 10, 10]);
    let sgd = Sgd::new(0.01).with_momentum(0.9);

    let step = |conv: &mut Conv2d| {
        let _y = conv.forward(&x, Mode::Train).unwrap();
        let _dx = conv.backward(&g).unwrap();
        sgd.step(conv);
    };
    // Warm-up: grow workspace, input-cache recycling, optimizer state,
    // packed weight panel.
    step(&mut conv);
    step(&mut conv);
    let warmed = lock_workspace(&ws).reserved_bytes();

    let counts: Vec<u64> = (0..8)
        .map(|_| {
            let before = allocs_now();
            step(&mut conv);
            allocs_now() - before
        })
        .collect();
    // Every steady-state step allocates the same small number of times —
    // the owned output/grad tensors it returns — and nothing else.
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "per-step allocation count not steady: {counts:?}"
    );
    assert!(
        counts[0] <= 8,
        "expected only output-tensor allocations per step, got {}",
        counts[0]
    );
    assert_eq!(
        lock_workspace(&ws).reserved_bytes(),
        warmed,
        "shared workspace grew after warm-up"
    );
}

#[test]
fn warmed_up_forward_quant_allocates_only_its_output() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut conv = Conv2d::new(&mut rng, 4, 8, 3, 1, 1).unwrap();
    let ws = shared_workspace();
    conv.set_workspace(&ws);
    let xq = QuantTensor::from_f32(&Tensor::ones(&[4, 4, 10, 10]));
    // Warm-up: offset tables, i8 weight panel, padded u8 input,
    // accumulators, per-column correction, position-row output.
    conv.forward_quant(&xq, Mode::Eval).unwrap();
    let warmed = lock_workspace(&ws).reserved_bytes();

    let counts: Vec<u64> = (0..4)
        .map(|_| {
            let before = allocs_now();
            let _y = conv.forward_quant(&xq, Mode::Eval).unwrap();
            allocs_now() - before
        })
        .collect();
    // The owned NCHW output: its data and its shape vector.
    assert_eq!(counts, [2; 4], "forward_quant allocates beyond its output");
    assert_eq!(
        lock_workspace(&ws).reserved_bytes(),
        warmed,
        "shared workspace grew after warm-up"
    );
}
