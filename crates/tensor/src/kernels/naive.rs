//! The reference GEMM backend: the workspace's original streaming loops.

use super::GemmBackend;

/// Single-threaded `i-k-j` loops with no blocking.
///
/// This is the oracle the blocked backend is property-tested against, and
/// the baseline the `tensor_ops` bench measures speedups over. The inner
/// loops are branch-free: the historical `a[i][k] == 0.0` skip was removed
/// because a data-dependent branch in the innermost loop costs more on the
/// dense matrices CNN training produces than the multiplies it saves, and
/// it blocks vectorisation.
#[derive(Debug, Default)]
pub struct NaiveGemm;

impl GemmBackend for NaiveGemm {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        out.fill(0.0);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (kk, &aik) in arow.iter().enumerate() {
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bkj) in orow.iter_mut().zip(brow) {
                    *o += aik * bkj;
                }
            }
        }
    }

    fn gemm_at_b(
        &self,
        k: usize,
        m: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        _pack: &mut Vec<f32>,
    ) {
        debug_assert_eq!(a.len(), k * m);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        out.fill(0.0);
        // out[i][j] = Σ_k a[k][i] * b[k][j]; k outermost so both reads
        // stream through memory.
        for kk in 0..k {
            let arow = &a[kk * m..(kk + 1) * m];
            let brow = &b[kk * n..(kk + 1) * n];
            for (i, &aki) in arow.iter().enumerate() {
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bkj) in orow.iter_mut().zip(brow) {
                    *o += aki * bkj;
                }
            }
        }
    }

    fn gemm_a_bt(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        _pack: &mut Vec<f32>,
    ) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), n * k);
        debug_assert_eq!(out.len(), m * n);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (x, y) in arow.iter().zip(brow) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
    }
}
