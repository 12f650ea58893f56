//! Quantized GEMM: `u8` activations × `i8` weights → `i32` accumulators.
//!
//! The frozen-block forward pass re-runs already-trained layers in `Eval`
//! mode over activations that the cache already stores as affine-`u8`
//! (see `nf-core`'s `Int8Affine` codec). This module lets that pass stay
//! in the integer domain end to end: activations keep their per-tensor
//! affine encoding (`x = min + scale · q`, `q ∈ 0..=255` — the same
//! scheme as [`crate::convert::quantize_u8_slice`]), weights are
//! quantized per output channel with a *symmetric* scale
//! (`w = s_j · q_w`, `q_w ∈ [-WEIGHT_QMAX, WEIGHT_QMAX]`), and the
//! product is accumulated exactly in `i32`:
//!
//! ```text
//! Σ_k x_ik · w_kj = s_j · ( min_a · Σ_k q_w[k][j]  +  scale_a · Σ_k q_a[i][k] · q_w[k][j] )
//!                         └────── col_sums[j] ─────┘  └────────── the i32 GEMM ──────────┘
//! ```
//!
//! so dequantization is one fused scale/offset pass over the `i32`
//! accumulators ([`dequantize_into`]), with the optional layer bias folded
//! in. A convolution's accumulators never reach memory: each tile is
//! dequantized in registers on its way to the NCHW output
//! ([`gemm_i32_gather_nchw`]). Accumulation cannot overflow:
//! `|q_a · q_w| ≤ 255 · 63`, so even `K = 100 000` stays 5 orders of
//! magnitude below `i32::MAX`.
//!
//! Data layout: the RHS is packed **k-quad interleaved** —
//! `packed[(q·n + j)·4 + r]` is the weight of the `r`-th `K` value of quad
//! `q`, column `j` — so four consecutive `K` values of one column sit in
//! one 32-bit lane. That is exactly the operand order of AVX2's `maddubs`
//! ([`super::simd_int8`]). The LHS is addressed one quad at a time,
//! `A_quad(i, q) = base[row_off[i] + quad_off[q] ..][..4]`, in two ways:
//!
//! - **dense** ([`QuantizedLhs`], [`gemm_i32`]): `u8` rows at stride
//!   `k4 = round_up4(k)`, i.e. offsets `(i·k4, 4q)`; rows `k..k4` of the
//!   RHS are zero, which makes the LHS's arbitrary stride tail harmless.
//!   What `Linear` multiplies.
//! - **gathered** ([`GatherQuads`], [`gemm_i32_gather`]): two offset
//!   tables over a `u8` buffer, which is how a convolution multiplies its
//!   patch matrix straight out of the once-padded input. Four bytes of one
//!   load have to be four consecutive `K` values, so the conv weight panel
//!   is packed **one quad per kernel row**
//!   ([`QuantizedRhs::pack_runs_from_f32`]): `K` order `(c, kh, kw)` with
//!   every `kw` run padded to a multiple of 4 by zero weights. The bytes
//!   those zero weights meet are whatever follows the window in memory;
//!   they add nothing to an exact integer sum.
//!
//! The scalar quad kernel below is the portable fallback and the dispatch
//! is runtime (same policy as the f32 [`super::simd`] path); both paths
//! are bit-identical because the weight clamp keeps `maddubs` out of its
//! saturation range, and both addressings give the accumulators of the
//! same logical product bit for bit (integer addition is exact and
//! order-free).

use super::fan::{fan, fan_with};
use super::simd_int8::{self, DenseQuads, GatherQuads, QuadA, ROWS};
use crate::convert;

/// Symmetric weight clamp: `q_w ∈ [-63, 63]`.
///
/// 63 rather than 127 buys the SIMD path exactness: `maddubs` saturates
/// its intermediate `u8·i8 + u8·i8` pair sums at `i16` range, and
/// `2 · 255 · 63 = 32130 < 32767` makes saturation unreachable. The cost
/// is < 1 bit of weight precision, which the end-to-end accuracy test
/// (int8-compute within 1pp of f32) shows is immaterial.
pub const WEIGHT_QMAX: i32 = 63;

/// Rounds a `K` extent up to the quad stride the packed layout uses.
pub const fn round_up4(k: usize) -> usize {
    (k + 3) & !3
}

/// Quantized `u8` zero point of real value `0.0` under an affine
/// `(min, scale)` encoding — the byte the quantized `im2col` writes for
/// padding taps.
///
/// Degenerate encodings (`scale == 0`, i.e. a constant tensor) return 0;
/// padding then contributes `min · w` instead of `0 · w`, matching the
/// precision loss already inherent in a zero-width encoding.
pub fn zero_point(min: f32, scale: f32) -> u8 {
    if scale == 0.0 {
        0
    } else {
        (-min / scale).round().clamp(0.0, 255.0) as u8
    }
}

/// Affine-`u8` LHS (activations): `m` rows at stride `k4`, plus the
/// per-tensor `(min, scale)` the bytes decode under.
///
/// Buffers are grow-only; a default-constructed value is reused across
/// calls the same way `Workspace` slots are.
#[derive(Debug, Default)]
pub struct QuantizedLhs {
    /// Quantized rows, `m × k4`, row tails (`k..k4`) arbitrary.
    pub data: Vec<u8>,
    /// Logical rows.
    pub m: usize,
    /// Logical reduction depth.
    pub k: usize,
    /// Row stride (`round_up4(k)`).
    pub k4: usize,
    /// Affine scale of the encoding.
    pub scale: f32,
    /// Affine offset of the encoding.
    pub min: f32,
}

impl QuantizedLhs {
    /// Quantizes a packed row-major `m × k` f32 matrix (min/max over the
    /// whole matrix, the per-tensor scheme of `convert`).
    pub fn quantize_from_f32(&mut self, src: &[f32], m: usize, k: usize) {
        assert_eq!(src.len(), m * k, "quantize_from_f32 length mismatch");
        let (lo, hi) = convert::minmax_slice(src);
        let scale = if hi > lo { (hi - lo) / 255.0 } else { 0.0 };
        self.set_rows(m, k, scale, lo);
        for i in 0..m {
            convert::quantize_u8_slice(
                &src[i * k..(i + 1) * k],
                lo,
                scale,
                &mut self.data[i * self.k4..i * self.k4 + k],
            );
        }
    }

    /// Re-packs already-quantized contiguous `u8` rows (stride `k`, e.g.
    /// a rank-2 `QuantTensor`) to the kernel's `k4` stride, keeping their
    /// existing affine parameters.
    pub fn from_rows_u8(&mut self, src: &[u8], m: usize, k: usize, scale: f32, min: f32) {
        assert_eq!(src.len(), m * k, "from_rows_u8 length mismatch");
        self.set_rows(m, k, scale, min);
        for i in 0..m {
            self.data[i * self.k4..i * self.k4 + k].copy_from_slice(&src[i * k..(i + 1) * k]);
        }
    }

    /// Sizes the buffer for `m × k` rows (grow-only) and records the
    /// affine parameters; callers that lower directly into [`Self::data`]
    /// (the quantized `im2col`) use this instead of the copy helpers.
    pub fn set_rows(&mut self, m: usize, k: usize, scale: f32, min: f32) {
        self.m = m;
        self.k = k;
        self.k4 = round_up4(k);
        self.scale = scale;
        self.min = min;
        self.data.resize(m * self.k4, 0);
    }
}

/// Per-channel symmetric `i8` RHS (weights), packed k-quad interleaved
/// for the maddubs kernel, with the per-column scales and column sums
/// the dequantization pass needs.
#[derive(Debug, Default)]
pub struct QuantizedRhs {
    packed: Vec<i8>,
    k: usize,
    run: usize,
    k4: usize,
    n: usize,
    scales: Vec<f32>,
    col_sums: Vec<i32>,
}

impl QuantizedRhs {
    /// Packs a row-major `k × n` f32 weight matrix for a dense LHS: per
    /// column `j`, `s_j = max_k |w_kj| / WEIGHT_QMAX` and
    /// `q_w = round(w / s_j)` clamped to `±WEIGHT_QMAX` (all-zero
    /// columns get `s_j = 0`, `q_w = 0`). Buffers are grow-only.
    pub fn pack_from_f32(&mut self, b: &[f32], k: usize, n: usize) {
        self.pack_runs_from_f32(b, k, n, k.max(1));
    }

    /// [`Self::pack_from_f32`] for a gathered LHS whose `K` axis is
    /// contiguous in memory only `run` values at a time (a convolution's
    /// kernel rows: `run = KW`): every run of `run` consecutive rows of `b`
    /// is padded to a multiple of 4 with zero weights, so each quad the
    /// kernel loads is four consecutive bytes of one run —
    /// `k4 = (k / run) · round_up4(run)`. Quantized values, scales and
    /// column sums are those of the dense packing (zero weights add
    /// nothing), which is the dense case `run = k`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not `k·n` long or `run` does not divide `k`.
    pub fn pack_runs_from_f32(&mut self, b: &[f32], k: usize, n: usize, run: usize) {
        assert_eq!(b.len(), k * n, "pack_from_f32 length mismatch");
        assert!(
            run > 0 && k.is_multiple_of(run),
            "K runs of {run} do not tile K = {k}"
        );
        let run4 = round_up4(run);
        self.k = k;
        self.run = run;
        self.k4 = k / run * run4;
        self.n = n;
        self.scales.resize(n, 0.0);
        self.col_sums.resize(n, 0);
        self.packed.clear();
        self.packed.resize(self.k4 * n, 0);
        for j in 0..n {
            let mut max_abs = 0.0f32;
            for kk in 0..k {
                max_abs = max_abs.max(b[kk * n + j].abs());
            }
            let s = if max_abs > 0.0 {
                max_abs / WEIGHT_QMAX as f32
            } else {
                0.0
            };
            self.scales[j] = s;
            let mut sum = 0i32;
            if s > 0.0 {
                let inv = 1.0 / s;
                for kk in 0..k {
                    let q = (b[kk * n + j] * inv)
                        .round()
                        .clamp(-(WEIGHT_QMAX as f32), WEIGHT_QMAX as f32)
                        as i32;
                    sum += q;
                    // Row of the packed panel this weight lands in.
                    let pk = kk / run * run4 + kk % run;
                    self.packed[((pk / 4) * n + j) * 4 + pk % 4] = q as i8;
                }
            }
            self.col_sums[j] = sum;
        }
    }

    /// Output columns.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Logical reduction depth the panel was packed for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Contiguous `K` run the panel was packed for (the whole of `k` when
    /// dense — see [`Self::pack_runs_from_f32`]).
    pub fn run(&self) -> usize {
        self.run
    }

    /// Packed reduction depth, zero rows included: four times the quads
    /// per LHS row.
    pub fn k4(&self) -> usize {
        self.k4
    }

    /// Per-column symmetric scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Per-column sums of the quantized weights (the `min_a` correction
    /// term of the affine expansion).
    pub fn col_sums(&self) -> &[i32] {
        &self.col_sums
    }
}

/// `out (M×N) = q_a (M×K) · q_w (K×N)` in exact `i32` arithmetic.
///
/// Dispatches to the maddubs SIMD panel when available (every column of
/// every full 4-row block), with the scalar quad kernel as fallback and
/// for the last `m % 4` rows; fans 4-row
/// blocks out across threads under the same rule as the f32 kernel
/// (`fans_out`). All paths produce bit-identical accumulators.
pub fn gemm_i32(lhs: &QuantizedLhs, rhs: &QuantizedRhs, out: &mut Vec<i32>) {
    assert_eq!(lhs.k, rhs.k, "int8 gemm K mismatch");
    assert_eq!(lhs.k4, rhs.k4, "int8 gemm K stride mismatch");
    let a = DenseQuads::new(&lhs.data, lhs.m, lhs.k4);
    gemm_quads(super::fans_out(lhs.m, lhs.k, rhs.n), &a, rhs, out);
}

/// [`gemm_i32`] with the LHS addressed in place through offset tables
/// instead of stored — how `ConvGather` multiplies a convolution's patch
/// matrix out of the padded `u8` input. `rhs` must be packed for the runs
/// the quads cover ([`QuantizedRhs::pack_runs_from_f32`]); thread fan-out
/// is decided on the logical `M·K·N`, zero-weight padding not counted.
///
/// # Panics
///
/// Panics if `a` does not supply `rhs.k4() / 4` quads per row.
pub fn gemm_i32_gather(a: &GatherQuads<'_>, rhs: &QuantizedRhs, out: &mut Vec<i32>) {
    assert_eq!(a.quads() * 4, rhs.k4, "int8 gather K mismatch");
    gemm_quads(super::fans_out(a.rows(), rhs.k, rhs.n), a, rhs, out);
}

/// The one row-block loop both addressings run, its 4-row blocks fanned
/// out over `workers`.
fn gemm_quads<A: QuadA>(workers: usize, a: &A, rhs: &QuantizedRhs, out: &mut Vec<i32>) {
    let (m, n) = (a.rows(), rhs.n);
    // No clearing pass: every path below overwrites every accumulator.
    out.resize(m * n, 0);
    if m == 0 || n == 0 {
        return;
    }
    if a.quads() == 0 {
        out.fill(0);
        return;
    }
    let blocks = out.chunks_mut(ROWS * n).enumerate();
    fan(workers, blocks, |(idx, opanel)| {
        row_block(a, &rhs.packed, n, idx * ROWS, opanel)
    });
}

/// Rows `i0..` of the product, as many as `opanel` holds (at most
/// [`ROWS`]): on the maddubs panel when it is a whole block and the host
/// has AVX2, on the scalar quad kernel otherwise.
fn row_block<A: QuadA>(a: &A, bp: &[i8], n: usize, i0: usize, opanel: &mut [i32]) {
    let rows = opanel.len() / n;
    if !(rows == ROWS && simd_int8::panel_u8i8(a, bp, n, i0, opanel)) {
        scalar_rows(a, bp, n, i0, rows, opanel);
    }
}

/// Scalar quad kernel over rows `i0..i0+rows` — the portable path and the
/// finisher of the last `m % 4` rows. Walks the same k-quad interleaved
/// panel through the same addressing as the SIMD kernel, bounds-checked.
pub(crate) fn scalar_rows<A: QuadA>(
    a: &A,
    bp: &[i8],
    n: usize,
    i0: usize,
    rows: usize,
    opanel: &mut [i32],
) {
    let data = a.data();
    for (r, orow) in opanel.chunks_mut(n).enumerate().take(rows) {
        let row = a.row(i0 + r);
        orow.fill(0);
        for (off, bq) in a.quad_offsets().zip(bp.chunks_exact(n * 4)) {
            let aq = &data[row + off..row + off + 4];
            let (a0, a1, a2, a3) = (aq[0] as i32, aq[1] as i32, aq[2] as i32, aq[3] as i32);
            for (o, q) in orow.iter_mut().zip(bq.chunks_exact(4)) {
                *o += a0 * q[0] as i32 + a1 * q[1] as i32 + a2 * q[2] as i32 + a3 * q[3] as i32;
            }
        }
    }
}

/// Fused dequantize + bias over the `i32` accumulators of a product whose
/// LHS decodes as `x = min_a + scale_a · q`:
/// `out[i][j] = s_j · (scale_a · acc[i][j] + min_a · col_sums[j]) + bias[j]`.
///
/// `out` must be as long as `acc` (`m × n`) and is overwritten; `corr` is
/// grow-only scratch for the per-column `min_a · col_sums[j]`, computed
/// once per call rather than per element.
///
/// # Panics
///
/// Panics if `acc` is not whole rows of `rhs.n()` columns, or `out` or
/// `bias` do not match it.
pub fn dequantize_into(
    scale_a: f32,
    min_a: f32,
    rhs: &QuantizedRhs,
    acc: &[i32],
    bias: Option<&[f32]>,
    corr: &mut Vec<f32>,
    out: &mut [f32],
) {
    let n = rhs.n;
    assert_eq!(out.len(), acc.len(), "dequantize output length mismatch");
    if acc.is_empty() {
        return;
    }
    assert_eq!(acc.len() % n, 0, "dequantize accumulator length mismatch");
    column_corrections(min_a, rhs, corr);
    let (scales, corr) = (&rhs.scales, &*corr);
    let rows = out.chunks_exact_mut(n).zip(acc.chunks_exact(n));
    match bias {
        Some(bias) => {
            assert_eq!(bias.len(), n, "dequantize bias length mismatch");
            for (orow, arow) in rows {
                let cols = orow.iter_mut().zip(arow).zip(scales).zip(corr).zip(bias);
                for ((((o, &q), &s), &c), &b) in cols {
                    *o = dequantized(scale_a, q, s, c) + b;
                }
            }
        }
        None => {
            for (orow, arow) in rows {
                for (((o, &q), &s), &c) in orow.iter_mut().zip(arow).zip(scales).zip(corr) {
                    *o = dequantized(scale_a, q, s, c);
                }
            }
        }
    }
}

/// `corr[j] = min_a · col_sums[j]`, once per call rather than per element.
fn column_corrections(min_a: f32, rhs: &QuantizedRhs, corr: &mut Vec<f32>) {
    corr.clear();
    corr.extend(rhs.col_sums.iter().map(|&c| min_a * c as f32));
}

/// One accumulator's real value, `s · (scale_a · q + c)`. Multiply and add
/// stay separate operations (no `mul_add`): the bits are those of the
/// formula, evaluated left to right.
#[inline(always)]
fn dequantized(scale_a: f32, q: i32, s: f32, c: f32) -> f32 {
    s * (scale_a * q as f32 + c)
}

/// The int8 forward of a convolution, written as the NCHW tensor the next
/// layer reads: [`gemm_i32_gather`] whose accumulators never leave the
/// registers undecoded. Element `(sample, position) × j` of the product
/// lands at `out[(sample·N + j)·plane + position]` as
/// `s_j · (scale_a · acc + min_a · col_sums[j]) + bias[j]` — the bits of
/// [`dequantize_into`] followed by a transposing pass, without the `M×N`
/// accumulator buffer or either pass: each tile is decoded and stored as
/// four-position runs of its columns (`simd_int8::panel_nchw`). A row
/// block the tile cannot take (no AVX2, the last `M % 4` rows, four rows
/// across a sample boundary) goes through `acc`, grow-only scratch of one
/// block per thread, and is decoded element by element. Whole samples
/// fan out over threads under the rule of [`gemm_i32_gather`].
///
/// # Panics
///
/// Panics if `a` does not supply `rhs.k4() / 4` quads per row, `out` is
/// not `a.rows() × rhs.n()` long, `bias` is not `rhs.n()` long, or the
/// rows are not whole samples of `plane`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i32_gather_nchw(
    a: &GatherQuads<'_>,
    rhs: &QuantizedRhs,
    scale_a: f32,
    min_a: f32,
    bias: &[f32],
    plane: usize,
    out: &mut [f32],
    acc: &mut Vec<i32>,
) {
    let (m, n) = (a.rows(), rhs.n);
    assert_eq!(a.quads() * 4, rhs.k4, "int8 gather K mismatch");
    assert_eq!(out.len(), m * n, "int8 NCHW output is not m×n");
    assert_eq!(bias.len(), n, "dequantize bias length mismatch");
    assert!(
        plane > 0 && m.is_multiple_of(plane),
        "{m} rows are not whole samples of {plane}"
    );
    if m == 0 || n == 0 {
        return;
    }
    let workers = super::fans_out(m, rhs.k, n).min(m / plane);
    nchw_fan(workers, a, rhs, (scale_a, min_a, bias), plane, out, acc);
}

/// The affine decode of a product's accumulators: the LHS's `scale_a` and
/// `min_a`, and the bias.
type Decode<'a> = (f32, f32, &'a [f32]);

/// [`nchw_run`] over runs of whole samples, one per worker, side by side,
/// each worker with its own block of `acc`. A run's rows are the same
/// integer sums wherever it starts, so `workers` never changes bits.
fn nchw_fan(
    workers: usize,
    a: &GatherQuads<'_>,
    rhs: &QuantizedRhs,
    decode: Decode<'_>,
    plane: usize,
    out: &mut [f32],
    acc: &mut Vec<i32>,
) {
    let (samples, n) = (out.len() / (rhs.n * plane), rhs.n);
    let rows = samples.div_ceil(workers.max(1)) * plane;
    acc.resize(workers.max(1) * ROWS * n, 0);
    let runs = out.chunks_mut(rows * n).enumerate();
    fan_with(workers, acc.chunks_mut(ROWS * n), runs, |acc, (r, out)| {
        nchw_run(a, rhs, decode, plane, r * rows, out, acc);
    });
}

/// Rows `row0..` of the product for the whole samples whose NCHW storage
/// is `out`, a row block at a time: on the decoding tile where it can,
/// through `acc` and [`dequantized`] otherwise.
fn nchw_run(
    a: &GatherQuads<'_>,
    rhs: &QuantizedRhs,
    (scale_a, min_a, bias): Decode<'_>,
    plane: usize,
    row0: usize,
    out: &mut [f32],
    acc: &mut [i32],
) {
    let n = rhs.n;
    let rows = out.len() / n;
    let mut dest = simd_int8::NchwOut {
        out,
        plane,
        scale_a,
        min_a,
        scales: &rhs.scales,
        col_sums: &rhs.col_sums,
        bias,
    };
    for at in (0..rows).step_by(ROWS) {
        let live = ROWS.min(rows - at);
        if live == ROWS && simd_int8::panel_nchw(a, &rhs.packed, row0 + at, at, &mut dest) {
            continue;
        }
        let acc = &mut acc[..live * n];
        row_block(a, &rhs.packed, n, row0 + at, acc);
        for (r, arow) in acc.chunks_exact(n).enumerate() {
            let (sample, p) = ((at + r) / plane, (at + r) % plane);
            for (j, &q) in arow.iter().enumerate() {
                let c = min_a * rhs.col_sums[j] as f32;
                let y = dequantized(scale_a, q, rhs.scales[j], c) + bias[j];
                dest.out[(sample * n + j) * plane + p] = y;
            }
        }
    }
}

/// Name of the int8 micro-kernel in effect on this host, for benchmark
/// artifacts and reports.
pub fn kernel_name() -> &'static str {
    simd_int8::kernel_name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn mat(rows: usize, cols: usize, lo: f32, hi: f32, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect()
    }

    /// Naive integer oracle reading the quantized operands back out of
    /// their packed layouts — pins both the GEMM *and* the packing.
    fn oracle_i32(lhs: &QuantizedLhs, rhs: &QuantizedRhs) -> Vec<i32> {
        let (m, n, k4) = (lhs.m, rhs.n, lhs.k4);
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for kk in 0..k4 {
                    let qa = lhs.data[i * k4 + kk] as i32;
                    let qw = rhs.packed[((kk / 4) * n + j) * 4 + kk % 4] as i32;
                    acc += qa * qw;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn exact_case(m: usize, k: usize, n: usize, seed: u64) {
        let a = mat(m, k, -3.0, 5.0, seed);
        let b = mat(k, n, -1.0, 1.0, seed.wrapping_mul(31) + 7);
        let mut lhs = QuantizedLhs::default();
        lhs.quantize_from_f32(&a, m, k);
        let mut rhs = QuantizedRhs::default();
        rhs.pack_from_f32(&b, k, n);
        let mut got = Vec::new();
        gemm_i32(&lhs, &rhs, &mut got);
        assert_eq!(got, oracle_i32(&lhs, &rhs), "({m},{k},{n})");
    }

    #[test]
    fn row_blocks_agree_at_every_worker_count() {
        // The 4-row block split driven directly at 1, 2, 3 and 5 workers:
        // 23 rows (a 3-row tail for the scalar finisher), `K` off the quad
        // grid, over a poisoned output.
        let (m, k, n) = (23usize, 37usize, 11usize);
        let mut lhs = QuantizedLhs::default();
        lhs.quantize_from_f32(&mat(m, k, -3.0, 5.0, 3), m, k);
        let mut rhs = QuantizedRhs::default();
        rhs.pack_from_f32(&mat(k, n, -1.0, 1.0, 4), k, n);
        let want = oracle_i32(&lhs, &rhs);
        let a = DenseQuads::new(&lhs.data, m, lhs.k4);
        for workers in [1, 2, 3, 5] {
            let mut got = vec![i32::MIN; m * n];
            gemm_quads(workers, &a, &rhs, &mut got);
            assert_eq!(got, want, "{workers} workers");
        }
    }

    #[test]
    fn nchw_runs_agree_at_every_worker_count() {
        // The decoding product driven directly at 1, 2, 3 and 5 workers
        // over a poisoned output: 5 samples of 13 positions (row blocks
        // inside a sample on the tile, those across a sample boundary and
        // the 1-row tail through the accumulators), 131 columns (full
        // tiles and a masked one), `K` off the quad grid — against
        // `dequantize_into` over the plain product, transposed by hand.
        let (samples, plane, k, n) = (5usize, 13usize, 37usize, 131usize);
        let m = samples * plane;
        let mut lhs = QuantizedLhs::default();
        lhs.quantize_from_f32(&mat(m, k, -3.0, 5.0, 8), m, k);
        let mut rhs = QuantizedRhs::default();
        rhs.pack_from_f32(&mat(k, n, -1.0, 1.0, 9), k, n);
        let bias = mat(1, n, -0.5, 0.5, 10);
        let mut acc = Vec::new();
        gemm_i32(&lhs, &rhs, &mut acc);
        let mut rows = vec![0.0; m * n];
        let (sa, min_a) = (lhs.scale, lhs.min);
        dequantize_into(
            sa,
            min_a,
            &rhs,
            &acc,
            Some(&bias),
            &mut Vec::new(),
            &mut rows,
        );
        let mut want = vec![0u32; m * n];
        for i in 0..m {
            for j in 0..n {
                want[((i / plane) * n + j) * plane + i % plane] = rows[i * n + j].to_bits();
            }
        }
        let row_off: Vec<u32> = (0..m as u32).map(|i| i * lhs.k4 as u32).collect();
        let quad_off: Vec<u32> = (0..lhs.k4 as u32).step_by(4).collect();
        let a = GatherQuads::new(&lhs.data, &row_off, &quad_off).unwrap();
        for workers in [1, 2, 3, 5] {
            let (mut got, mut scratch) = (vec![f32::NAN; m * n], vec![-1; 3]);
            nchw_fan(
                workers,
                &a,
                &rhs,
                (sa, min_a, &bias),
                plane,
                &mut got,
                &mut scratch,
            );
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{workers} workers");
        }
    }

    #[test]
    fn gemm_matches_integer_oracle_across_shapes() {
        // Shapes straddling the SIMD tile boundaries: row remainders
        // (m % 4), column remainders (n % 16), and k-quad tails (k % 4).
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (4, 8, 16),
            (5, 10, 17),
            (9, 27, 33),
            (16, 64, 48),
            (7, 300, 19),
        ] {
            exact_case(m, k, n, (m * 1000 + k * 10 + n) as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn gemm_matches_integer_oracle(
            m in 1usize..12,
            k in 1usize..40,
            n in 1usize..36,
            seed in 0u64..1000,
        ) {
            exact_case(m, k, n, seed);
        }
    }

    #[test]
    fn weights_clamp_keeps_maddubs_exact() {
        // Worst-case operands: max-magnitude activations against
        // max-magnitude alternating-sign weights. Any i16 saturation in
        // the SIMD path would break the exact match.
        let (m, k, n) = (4usize, 64usize, 32usize);
        let a = vec![1000.0f32; m * k]; // quantizes to q = 255 everywhere
        let b: Vec<f32> = (0..k * n)
            .map(|i| if i % 2 == 0 { 9.0 } else { -9.0 })
            .collect();
        let mut lhs = QuantizedLhs::default();
        lhs.quantize_from_f32(&a, m, k);
        let mut rhs = QuantizedRhs::default();
        rhs.pack_from_f32(&b, k, n);
        assert!(rhs.packed.iter().all(|&q| (q as i32).abs() <= WEIGHT_QMAX));
        let mut got = Vec::new();
        gemm_i32(&lhs, &rhs, &mut got);
        assert_eq!(got, oracle_i32(&lhs, &rhs));
    }

    #[test]
    fn dequantized_product_tracks_f32_gemm() {
        use super::super::{GemmBackend, NaiveGemm};
        let (m, k, n) = (6usize, 48usize, 10usize);
        let a = mat(m, k, -2.0, 2.0, 11);
        let b = mat(k, n, -0.5, 0.5, 13);
        let bias = mat(1, n, -0.1, 0.1, 17);
        let mut want = vec![0.0f32; m * n];
        NaiveGemm.gemm(m, k, n, &a, &b, &mut want);
        for (w, &bv) in want
            .chunks_exact_mut(n)
            .flat_map(|r| r.iter_mut())
            .zip(bias.iter().cycle())
        {
            *w += bv;
        }
        let mut lhs = QuantizedLhs::default();
        lhs.quantize_from_f32(&a, m, k);
        let mut rhs = QuantizedRhs::default();
        rhs.pack_from_f32(&b, k, n);
        let mut acc = Vec::new();
        gemm_i32(&lhs, &rhs, &mut acc);
        let mut got = vec![0.0f32; m * n];
        let (sa, min_a) = (lhs.scale, lhs.min);
        dequantize_into(
            sa,
            min_a,
            &rhs,
            &acc,
            Some(&bias),
            &mut Vec::new(),
            &mut got,
        );
        // Error budget: one activation quantization step per k term plus
        // the per-channel weight step — loose bound, tight in practice.
        let tol = (k as f32) * lhs.scale * 0.5 * 0.6 + 0.05;
        for (w, g) in want.iter().zip(&got) {
            assert!((w - g).abs() < tol, "{w} vs {g} (tol {tol})");
        }
    }

    #[test]
    fn dequantize_is_the_written_formula_bit_for_bit() {
        // The hoisted per-column correction and the zipped walk must not
        // move a bit against a literal transcription of the formula, with
        // and without bias, on column counts either side of a vector.
        let (m, k) = (7usize, 20usize);
        let mut corr = vec![9.0f32; 3]; // stale scratch must not leak in
        for n in [1usize, 8, 12, 17] {
            let a = mat(m, k, -3.0, 5.0, n as u64);
            let b = mat(k, n, -1.0, 1.0, n as u64 + 50);
            let bias = mat(1, n, -0.5, 0.5, n as u64 + 99);
            let mut lhs = QuantizedLhs::default();
            lhs.quantize_from_f32(&a, m, k);
            let mut rhs = QuantizedRhs::default();
            rhs.pack_from_f32(&b, k, n);
            let mut acc = Vec::new();
            gemm_i32(&lhs, &rhs, &mut acc);
            let (sa, min_a) = (lhs.scale, lhs.min);
            for bias in [Some(&bias[..]), None] {
                let mut got = vec![f32::NAN; m * n];
                dequantize_into(sa, min_a, &rhs, &acc, bias, &mut corr, &mut got);
                for i in 0..m {
                    for j in 0..n {
                        let corr = min_a * rhs.col_sums[j] as f32;
                        let mut want = rhs.scales[j] * (sa * acc[i * n + j] as f32 + corr);
                        if let Some(bias) = bias {
                            want += bias[j];
                        }
                        assert_eq!(got[i * n + j].to_bits(), want.to_bits(), "n {n} ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn run_packing_pads_each_run_with_zero_weights() {
        // K = 2 runs of 3 (a 1×3 kernel over two channels): each run takes
        // one quad whose fourth weight is zero; values, scales and column
        // sums are the dense packing's.
        let (k, n) = (6usize, 5usize);
        let b = mat(k, n, -1.0, 1.0, 3);
        let (mut dense, mut runs) = (QuantizedRhs::default(), QuantizedRhs::default());
        dense.pack_from_f32(&b, k, n);
        runs.pack_runs_from_f32(&b, k, n, 3);
        assert_eq!((dense.k(), dense.run(), dense.k4()), (6, 6, 8));
        assert_eq!((runs.k(), runs.run(), runs.k4()), (6, 3, 8));
        assert_eq!(runs.scales(), dense.scales());
        assert_eq!(runs.col_sums(), dense.col_sums());
        for j in 0..n {
            for kk in 0..k {
                let pk = kk / 3 * 4 + kk % 3;
                assert_eq!(
                    runs.packed[((pk / 4) * n + j) * 4 + pk % 4],
                    dense.packed[((kk / 4) * n + j) * 4 + kk % 4],
                    "({kk},{j})"
                );
            }
            for quad in 0..2 {
                assert_eq!(runs.packed[(quad * n + j) * 4 + 3], 0, "pad of run {quad}");
            }
        }
        // A run that is already a multiple of 4 packs exactly densely.
        let b = mat(8, n, -1.0, 1.0, 4);
        dense.pack_from_f32(&b, 8, n);
        runs.pack_runs_from_f32(&b, 8, n, 4);
        assert_eq!(runs.packed, dense.packed);
    }

    #[test]
    fn repacked_u8_rows_match_direct_quantization() {
        let (m, k) = (5usize, 7usize);
        let a = mat(m, k, -1.0, 3.0, 23);
        let mut direct = QuantizedLhs::default();
        direct.quantize_from_f32(&a, m, k);
        // Same bytes arriving as contiguous rows (the cached-activation
        // path) must land identically at the k4 stride.
        let mut rows = vec![0u8; m * k];
        for i in 0..m {
            rows[i * k..(i + 1) * k]
                .copy_from_slice(&direct.data[i * direct.k4..i * direct.k4 + k]);
        }
        let mut repacked = QuantizedLhs::default();
        repacked.from_rows_u8(&rows, m, k, direct.scale, direct.min);
        for i in 0..m {
            assert_eq!(
                repacked.data[i * repacked.k4..i * repacked.k4 + k],
                direct.data[i * direct.k4..i * direct.k4 + k]
            );
        }
    }

    #[test]
    fn zero_point_encodes_real_zero() {
        assert_eq!(zero_point(0.0, 0.0), 0);
        assert_eq!(zero_point(-2.0, 0.015625), 128); // exact powers of two
        assert_eq!(zero_point(5.0, 0.1), 0); // all-positive range clamps
        assert_eq!(zero_point(-100.0, 0.1), 255); // all-negative range clamps
    }

    #[test]
    fn degenerate_dims_are_empty_or_zero() {
        let mut lhs = QuantizedLhs::default();
        lhs.quantize_from_f32(&[], 0, 4);
        let mut rhs = QuantizedRhs::default();
        rhs.pack_from_f32(&[0.0; 12], 4, 3);
        let mut out = vec![7i32; 1];
        gemm_i32(&lhs, &rhs, &mut out);
        assert!(out.is_empty());
        // K = 0: an empty sum per element, whatever the reused buffer held.
        lhs.quantize_from_f32(&[], 3, 0);
        rhs.pack_from_f32(&[], 0, 2);
        let mut out = vec![7i32; 9];
        gemm_i32(&lhs, &rhs, &mut out);
        assert_eq!(out, [0; 6]);
    }
}
