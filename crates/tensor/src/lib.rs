//! Dense `f32` tensor substrate for the NeuroFlux reproduction.
//!
//! This crate provides the minimal numerical kernel that the rest of the
//! workspace is built on: an owned, row-major, `f32` n-dimensional array
//! ([`Tensor`]) plus the handful of operations CNN training needs —
//! element-wise arithmetic, matrix multiplication, convolution lowering
//! (gathered in place — [`ConvGather`] — with the explicit
//! `im2col`/`col2im` as its oracle), pooling helpers, reductions, and
//! seeded random initialisers.
//!
//! The paper's training stack (PyTorch on a Jetson GPU) is unavailable in
//! this environment, so this crate *is* the substitute substrate; see
//! `DESIGN.md` §2. Everything is allocation-explicit: the hot-path entry
//! points come in `*_into` form writing into caller-provided grow-only
//! buffers (see [`Workspace`]), with the allocating originals kept as thin
//! wrappers. The GEMM hot path is one seam (see [`kernels`]): a naive
//! reference backend validates the cache-blocked production kernel, which
//! runs an explicit AVX-512 / AVX2+FMA micro-kernel ([`kernels::simd`])
//! dispatched at runtime under one fixed plan — constant cache blocks, and
//! thread fan-out a pure function of core count and shape — so equal
//! operands give equal bits in every process. Quantized compute is
//! first-class: [`QuantTensor`] carries
//! affine-`u8` activations and [`kernels::int8`] multiplies them against
//! per-channel `i8` weights in exact `i32` arithmetic (AVX2 `maddubs`
//! path in [`kernels::simd_int8`]), a convolution's patch matrix gathered
//! from the padded `u8` input the same way as in f32. `unsafe` is denied crate-wide and
//! allowed only inside those two intrinsics modules; correctness stays
//! anchored to the oracles via property tests (and to finite-difference
//! gradient checks one crate up).
//!
//! # Examples
//!
//! ```
//! use nf_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
//! let b = Tensor::eye(2);
//! let c = nf_tensor::matmul(&a, &b).unwrap();
//! assert_eq!(c.data(), a.data());
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]

mod conv;
pub mod convert;
mod error;
mod init;
pub mod kernels;
mod matmul;
mod ops;
mod pool;
mod quant;
mod reduce;
mod tensor;
mod workspace;

pub use conv::{
    col2im, col2im_batch, col2im_batch_into, flip_kernel_panel_into, im2col, im2col_batch,
    im2col_batch_into, im2col_batch_u8_into, nchw_to_posrows, nchw_to_posrows_into, pad_nchw_into,
    pad_nchw_u8_into, posrows_to_nchw, posrows_to_nchw_into, Conv2dGeometry, ConvGather,
};
pub use error::TensorError;
pub use init::{he_normal, uniform_init, xavier_uniform};
pub use kernels::{host_cores, GemmBackend, KernelBackend};
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_into, matmul_a_bt_with, matmul_at_b, matmul_at_b_into,
    matmul_at_b_with, matmul_into, matmul_with, transpose2d, transpose2d_into,
};
pub use ops::{add, axpy, hadamard, sub};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, avg_pool2d_backward_into, avg_pool2d_into, max_pool2d,
    max_pool2d_backward, max_pool2d_backward_into, max_pool2d_into,
};
pub use quant::QuantTensor;
pub use reduce::{
    argmax_rows, mean_all, softmax_rows, softmax_rows_into, sum_all, sum_axis0, sum_axis0_acc,
};
pub use tensor::Tensor;
pub use workspace::{lock_workspace, shared_workspace, SharedWorkspace, Workspace, WorkspaceParts};

/// Convenience alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;

#[cfg(test)]
mod tests {
    //! [`kernels::fan::fan`] over the item shapes its callers hand it:
    //! mutable slice chunks, shared slice chunks and a pair of slots, at
    //! 1, 2, 3 and 5 workers (its other cases are in `kernels/fan.rs`).
    use crate::kernels::fan::fan;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn par_chunks_mut_enumerate_covers_all_chunks() {
        for workers in [1, 2, 3, 5] {
            let mut data = vec![0u64; 103];
            fan(workers, data.chunks_mut(10).enumerate(), |(i, c)| {
                c.fill(i as u64 + 1);
            });
            for (j, &v) in data.iter().enumerate() {
                assert_eq!(v, (j / 10) as u64 + 1, "{workers} workers");
            }
        }
    }

    #[test]
    fn par_chunks_reads_everything() {
        let data: Vec<u64> = (0..1000).collect();
        for workers in [1, 2, 3, 5] {
            let sum = AtomicU64::new(0);
            fan(workers, data.chunks(7), |c| {
                sum.fetch_add(c.iter().sum::<u64>(), Ordering::Relaxed);
            });
            assert_eq!(sum.into_inner(), 1000 * 999 / 2, "{workers} workers");
        }
    }

    #[test]
    fn join_returns_both() {
        // Two items on two workers, each filling its own slot.
        let mut both = [0, 0];
        fan(2, both.iter_mut().enumerate(), |(i, slot)| {
            *slot = if i == 0 { 2 + 2 } else { 7 };
        });
        assert_eq!(both, [4, 7]);
    }
}
