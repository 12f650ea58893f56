//! Dense matrix multiplication entry points.
//!
//! Fully-connected layers, the explicit conv lowering and the strided conv
//! input gradient multiply through these; the conv layers' gathered
//! products enter the same backends one level down
//! ([`crate::ConvGather`]). The
//! actual arithmetic lives in the pluggable [`crate::kernels`] backends;
//! the functions here validate shapes and dispatch — to the default
//! backend ([`matmul`], [`matmul_at_b`], [`matmul_a_bt`]) or to an explicit
//! one (the `*_with` variants, used by layers that carry a configured
//! backend and by property tests that compare against the oracle).

use crate::error::TensorError;
use crate::kernels::KernelBackend;
use crate::tensor::Tensor;
use crate::Result;

fn check2(op: &'static str, a: &Tensor, b: &Tensor) -> Result<((usize, usize), (usize, usize))> {
    let ad = a.dims2().map_err(|_| TensorError::RankMismatch {
        op,
        expected: 2,
        actual: a.rank(),
    })?;
    let bd = b.dims2().map_err(|_| TensorError::RankMismatch {
        op,
        expected: 2,
        actual: b.rank(),
    })?;
    Ok((ad, bd))
}

/// Matrix product `a (M×K) · b (K×N) -> (M×N)` on the default backend.
///
/// # Examples
///
/// ```
/// use nf_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// let b = Tensor::from_vec(vec![2, 1], vec![1.0, 1.0]).unwrap();
/// let c = matmul(&a, &b).unwrap();
/// assert_eq!(c.data(), &[3.0, 7.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_with(KernelBackend::default(), a, b)
}

/// [`matmul`] on an explicit backend.
pub fn matmul_with(backend: KernelBackend, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::zeros(&[0]);
    matmul_into(backend, a, b, &mut out)?;
    Ok(out)
}

/// [`matmul`] writing into a caller-provided buffer (grow-only, see
/// [`Tensor::reuse_as`]): the zero-allocation steady-state entry point.
///
/// # Examples
///
/// ```
/// use nf_tensor::{matmul_into, KernelBackend, Tensor};
///
/// let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// let b = Tensor::from_vec(vec![2, 1], vec![1.0, 1.0]).unwrap();
/// let mut out = Tensor::zeros(&[0]);
/// matmul_into(KernelBackend::Blocked, &a, &b, &mut out).unwrap();
/// assert_eq!(out.data(), &[3.0, 7.0]);
/// ```
pub fn matmul_into(backend: KernelBackend, a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    let ((m, k), (k2, n)) = check2("matmul", a, b)?;
    if k != k2 {
        return Err(TensorError::shape_mismatch("matmul", a.shape(), b.shape()));
    }
    out.reuse_as(&[m, n]);
    backend
        .backend()
        .gemm(m, k, n, a.data(), b.data(), out.data_mut());
    Ok(())
}

/// Product `aᵀ (K×M)ᵀ · b (K×N) -> (M×N)` without materialising `aᵀ` at
/// the call site.
///
/// Layer backward passes need `Xᵀ·G` for weight gradients; this avoids the
/// transpose copy at the call site (the blocked backend may still pack
/// internally).
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_at_b_with(KernelBackend::default(), a, b)
}

/// [`matmul_at_b`] on an explicit backend.
pub fn matmul_at_b_with(backend: KernelBackend, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::zeros(&[0]);
    matmul_at_b_into(backend, a, b, &mut out, &mut Vec::new())?;
    Ok(out)
}

/// [`matmul_at_b`] writing into a caller-provided buffer, with `pack` as
/// the backend's transpose/pack scratch (both grow-only).
pub fn matmul_at_b_into(
    backend: KernelBackend,
    a: &Tensor,
    b: &Tensor,
    out: &mut Tensor,
    pack: &mut Vec<f32>,
) -> Result<()> {
    let ((k, m), (k2, n)) = check2("matmul_at_b", a, b)?;
    if k != k2 {
        return Err(TensorError::shape_mismatch(
            "matmul_at_b",
            a.shape(),
            b.shape(),
        ));
    }
    out.reuse_as(&[m, n]);
    backend
        .backend()
        .gemm_at_b(k, m, n, a.data(), b.data(), out.data_mut(), pack);
    Ok(())
}

/// Product `a (M×K) · bᵀ (N×K)ᵀ -> (M×N)` without materialising `bᵀ` at
/// the call site.
///
/// Layer backward passes need `G·Wᵀ` for input gradients.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_a_bt_with(KernelBackend::default(), a, b)
}

/// [`matmul_a_bt`] on an explicit backend.
pub fn matmul_a_bt_with(backend: KernelBackend, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::zeros(&[0]);
    matmul_a_bt_into(backend, a, b, &mut out, &mut Vec::new())?;
    Ok(out)
}

/// [`matmul_a_bt`] writing into a caller-provided buffer, with `pack` as
/// the backend's transpose/pack scratch (both grow-only).
pub fn matmul_a_bt_into(
    backend: KernelBackend,
    a: &Tensor,
    b: &Tensor,
    out: &mut Tensor,
    pack: &mut Vec<f32>,
) -> Result<()> {
    let ((m, k), (n, k2)) = check2("matmul_a_bt", a, b)?;
    if k != k2 {
        return Err(TensorError::shape_mismatch(
            "matmul_a_bt",
            a.shape(),
            b.shape(),
        ));
    }
    out.reuse_as(&[m, n]);
    backend
        .backend()
        .gemm_a_bt(m, k, n, a.data(), b.data(), out.data_mut(), pack);
    Ok(())
}

/// Transpose of a rank-2 tensor.
///
/// # Examples
///
/// ```
/// use nf_tensor::{transpose2d, Tensor};
///
/// let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
/// let t = transpose2d(&a).unwrap();
/// assert_eq!(t.shape(), &[3, 2]);
/// assert_eq!(t.data(), &[1., 4., 2., 5., 3., 6.]);
/// ```
pub fn transpose2d(a: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::zeros(&[0]);
    transpose2d_into(a, &mut out)?;
    Ok(out)
}

/// [`transpose2d`] into a caller-provided buffer (grow-only). Used by the
/// layers to refresh packed weight panels without allocating.
pub fn transpose2d_into(a: &Tensor, out: &mut Tensor) -> Result<()> {
    let (m, n) = a.dims2()?;
    out.reuse_as(&[n, m]);
    transpose_tiled(m, n, a.data(), out.data_mut());
    Ok(())
}

/// Cache-tile edge for [`transpose_tiled`]: a 32×32 f32 tile is 4 KiB of
/// source plus 4 KiB of destination, so both sides of the swap stay in L1
/// regardless of how pathological the full matrix's column stride is.
const TRANSPOSE_TILE: usize = 32;

/// Transpose of a packed row-major `rows × cols` slice into `dst`
/// (`cols × rows`, fully overwritten), walked in L1-sized square tiles.
///
/// The naive row-major walk writes `dst` with a `rows`-element stride —
/// one cache line touched per element once `rows` outgrows the TLB/L1 —
/// which made transposition, not arithmetic, the dominant cost of the
/// `Aᵀ·B` weight-gradient GEMMs on tall `im2col` matrices. Tiling bounds
/// the working set to two tiles.
pub(crate) fn transpose_tiled(rows: usize, cols: usize, src: &[f32], dst: &mut [f32]) {
    transpose_tiled_with(rows, cols, src, dst, |_, v| v);
}

/// [`transpose_tiled`] storing `f(j, v)` for the element that lands in
/// `dst` row `j` — an element-wise epilogue (a per-row bias) riding on
/// the pass instead of re-reading `dst`.
pub(crate) fn transpose_tiled_with(
    rows: usize,
    cols: usize,
    src: &[f32],
    dst: &mut [f32],
    f: impl Fn(usize, f32) -> f32,
) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    // Within a tile, the inner loop writes `dst` contiguously and takes
    // the stride on the `src` side. The hot transposes are tall-skinny
    // (`rows` in the thousands — often a power of two, where strided
    // *writes* would collapse onto a handful of L1 sets — and `cols` a
    // small patch size), so the strided reads use the short `cols` stride
    // and the whole source tile stays resident across the tile's rows.
    let mut j0 = 0;
    while j0 < cols {
        let jb = TRANSPOSE_TILE.min(cols - j0);
        let mut i0 = 0;
        while i0 < rows {
            let ib = TRANSPOSE_TILE.min(rows - i0);
            for j in j0..j0 + jb {
                let drow = &mut dst[j * rows + i0..j * rows + i0 + ib];
                for (di, d) in drow.iter_mut().enumerate() {
                    *d = f(j, src[(i0 + di) * cols + j]);
                }
            }
            i0 += ib;
        }
        j0 += jb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL_BACKENDS: [KernelBackend; 2] = [KernelBackend::Naive, KernelBackend::Blocked];

    #[test]
    fn matmul_known_value() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        for backend in ALL_BACKENDS {
            let c = matmul_with(backend, &a, &b).unwrap();
            assert_eq!(c.shape(), &[2, 2]);
            assert_eq!(c.data(), &[58., 64., 139., 154.], "{}", backend.name());
        }
    }

    #[test]
    fn inner_dim_mismatch_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 2]);
        for backend in ALL_BACKENDS {
            assert!(matmul_with(backend, &a, &b).is_err());
            assert!(matmul_with(backend, &a, &Tensor::zeros(&[3])).is_err());
        }
    }

    #[test]
    fn fused_transpose_variants_match_explicit() {
        let a = Tensor::from_vec(vec![3, 2], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(vec![3, 4], (0..12).map(|i| i as f32).collect()).unwrap();
        let c = Tensor::from_vec(vec![2, 3], vec![1., 0., -1., 2., 1., 0.]).unwrap();
        let d = Tensor::from_vec(vec![4, 3], (0..12).map(|i| i as f32 * 0.5).collect()).unwrap();
        for backend in ALL_BACKENDS {
            let expected = matmul_with(backend, &transpose2d(&a).unwrap(), &b).unwrap();
            assert_eq!(matmul_at_b_with(backend, &a, &b).unwrap(), expected);

            let expected = matmul_with(backend, &c, &transpose2d(&d).unwrap()).unwrap();
            assert_eq!(matmul_a_bt_with(backend, &c, &d).unwrap(), expected);
        }
    }

    fn matrix(r: usize, c: usize) -> impl Strategy<Value = Tensor> {
        proptest::collection::vec(-4.0f32..4.0, r * c)
            .prop_map(move |data| Tensor::from_vec(vec![r, c], data).unwrap())
    }

    proptest! {
        #[test]
        fn identity_is_neutral(a in (1usize..6, 1usize..6).prop_flat_map(|(r, c)| matrix(r, c))) {
            let n = a.shape()[1];
            let out = matmul(&a, &Tensor::eye(n)).unwrap();
            prop_assert_eq!(out, a);
        }

        #[test]
        fn transpose_is_involution(a in (1usize..6, 1usize..6).prop_flat_map(|(r, c)| matrix(r, c))) {
            let t = transpose2d(&transpose2d(&a).unwrap()).unwrap();
            prop_assert_eq!(t, a);
        }

        #[test]
        fn product_transpose_identity(
            (a, b) in (1usize..5, 1usize..5, 1usize..5).prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(k, n)))
        ) {
            // (A·B)ᵀ == Bᵀ·Aᵀ
            let lhs = transpose2d(&matmul(&a, &b).unwrap()).unwrap();
            let rhs = matmul(&transpose2d(&b).unwrap(), &transpose2d(&a).unwrap()).unwrap();
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
            }
        }
    }
}
