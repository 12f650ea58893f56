//! Proof that the conv/GEMM hot path is allocation-free in steady state.
//!
//! A counting global allocator tracks allocations made by *this thread*
//! (other test threads don't interfere). After one warm-up step through a
//! full conv-layer compute cycle — an int8 batch slice (the Worker's
//! frozen-block regeneration input), lowering, forward GEMM, gradient
//! GEMMs, scatter — a workspace-driven step performs **zero** heap
//! allocations.

use nf_tensor::{
    col2im_batch_into, im2col_batch_into, matmul_at_b_into, matmul_into, nchw_to_posrows_into,
    Conv2dGeometry, KernelBackend, QuantTensor, Tensor, Workspace,
};
use rand::{Rng, SeedableRng};
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

fn random(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        shape.to_vec(),
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
    .unwrap()
}

#[test]
fn conv_gemm_cycle_is_allocation_free_after_warmup() {
    // Small enough that the batched lowerings and the blocked kernel (the
    // kernel under test) stay below their thread fan-out floors, so every
    // `fan` runs its one worker inline.
    let geom = Conv2dGeometry::new(12, 12, 3, 3, 1, 1).unwrap();
    let (n, c, f) = (4usize, 6usize, 10usize);
    let x = random(&[n, c, 12, 12], 1);
    let w = random(&[c * 9, f], 2); // packed Wᵀ operand
    let wt = random(&[f, c * 9], 3); // W operand for the dcols product
    let g = random(&[n, f, 12, 12], 4);
    let backend = KernelBackend::Blocked;
    let cached = QuantTensor::from_f32(&random(&[3 * n, c, 12, 12], 5));

    let mut ws = Workspace::new();
    let mut dx = Tensor::default();
    let mut qbatch = QuantTensor::new();
    let step = |ws: &mut Workspace, dx: &mut Tensor, qbatch: &mut QuantTensor| {
        cached.slice_batch_into(n, 2 * n, qbatch).unwrap();
        // Forward: lower, one GEMM.
        let p = ws.parts();
        im2col_batch_into(&x, &geom, p.cols).unwrap();
        matmul_into(backend, p.cols, &w, p.out).unwrap();
        // Backward: grad lowering, dW GEMM, dcols GEMM, scatter.
        nchw_to_posrows_into(&g, p.posrows).unwrap();
        matmul_at_b_into(backend, p.posrows, p.cols, p.out, p.pack).unwrap();
        matmul_into(backend, p.posrows, &wt, p.out).unwrap();
        col2im_batch_into(p.out, n, c, &geom, dx).unwrap();
    };

    // Warm-up: buffers grow to their steady-state sizes here.
    step(&mut ws, &mut dx, &mut qbatch);
    step(&mut ws, &mut dx, &mut qbatch);

    let before = allocs_now();
    for _ in 0..10 {
        step(&mut ws, &mut dx, &mut qbatch);
    }
    let during = allocs_now() - before;
    assert_eq!(
        during, 0,
        "conv/GEMM hot path allocated {during} times in 10 steady-state steps"
    );
    let sample = c * 12 * 12;
    assert_eq!(qbatch.data(), &cached.data()[n * sample..2 * n * sample]);
}

#[test]
fn a_one_worker_fan_is_allocation_free() {
    use nf_tensor::kernels::fan::{fan, fan_with};
    let mut data = vec![0.0f32; 64];
    let mut group = [0.0f32; 8];
    let before = allocs_now();
    fan(1, data.chunks_mut(8).enumerate(), |(i, c)| c.fill(i as f32));
    fan_with(1, [&mut group[..]], data.chunks(8), |g, c| {
        for (acc, v) in g.iter_mut().zip(c) {
            *acc += v;
        }
    });
    let during = allocs_now() - before;
    assert_eq!(during, 0, "a one-worker fan allocated {during} times");
    assert_eq!(group, [28.0; 8]);
}
