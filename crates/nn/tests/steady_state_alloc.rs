//! Layer-level steady-state allocation discipline.
//!
//! A full `Conv2d` train step still allocates its *output* tensors (the
//! `Layer` contract hands owned activations to the caller), but all
//! lowering/GEMM scratch, the input cache, and the packed weight panel
//! must reuse their buffers: the per-step allocation count settles to a
//! small constant after warm-up, and the shared workspace stops growing.

use nf_nn::optim::Sgd;
use nf_nn::{Conv2d, Layer, Mode};
use nf_tensor::{lock_workspace, shared_workspace, QuantTensor, Tensor};
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates entirely to `System`; only adds a thread-local count.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.with(|c| c.get())
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
