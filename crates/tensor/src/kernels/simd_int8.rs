//! Explicit-SIMD int8 GEMM inner loop: `u8 × i8 → i32` maddubs tiles on
//! x86_64, and the int8 cache codec's quantize loop ([`quantize_u8`]),
//! whose unchecked cast is what lets it vectorize.
//!
//! The quantized GEMM in [`super::int8`] accumulates `u8` activations
//! against `i8` weights into `i32`. On AVX2 hosts the inner loop maps
//! directly onto `_mm256_maddubs_epi16` (unsigned×signed byte multiply
//! with pairwise `i16` add) followed by `_mm256_madd_epi16` against ones
//! (pairwise `i16 → i32` widen-add): one instruction pair consumes four
//! `k` steps for eight output columns. The scalar quad kernel in
//! `int8.rs` remains the portable fallback, selected at runtime when AVX2
//! is absent (or off x86_64 entirely).
//!
//! The tile reads its `A` operand one **quad** at a time — four
//! consecutive `K` bytes broadcast as one 32-bit load — so `A` never has to
//! be a stored matrix: it only needs
//! `A_quad(i, q) = data[row(i) + quad(q) ..][..4]`. Two addressings
//! implement that (`QuadA`), as `DenseA` / `GatherA` do for the f32 tile in
//! [`super::simd`]:
//!
//! - `DenseQuads` — `u8` rows at a stride `k4` that is a multiple of 4,
//!   `row(i) = i·k4`, `quad(q) = 4q`: what `Linear` and `gemm_i32` multiply.
//! - [`GatherQuads`] — two offset tables over a base buffer. With the
//!   weight panel packed one quad per kernel row, a convolution's patch
//!   matrix is this shape over its once-padded `u8` input (`row` = output
//!   position, `quad` = first tap of a `(c, kh)` kernel row), so the int8
//!   conv forward multiplies straight out of that input.
//!
//! Together with [`super::simd`] this is one of the **two** modules in
//! `nf-tensor` allowed to use `unsafe` (crate-level `deny(unsafe_code)`
//! with a reasoned module-level `expect`): the intrinsic functions below
//! are gated by [`available`], the quantize loop's cast rests on its
//! clamp, and the tile's unchecked reads rest on an
//! invariant held by private fields of this module's types — every
//! four-byte window `row(i) + quad(q) .. + 4` of a `QuadA` is inside its
//! data slice — plus the per-panel range asserts in `panel_u8i8` and
//! `panel_nchw`.
//!
//! `maddubs` *saturates* its intermediate `i16` pair sums, which would
//! silently diverge from the scalar path for large operands. The packer
//! in `int8.rs` therefore clamps weights to `±WEIGHT_QMAX = ±63`, making
//! the worst-case pair sum `2 · 255 · 63 = 32130 < 32767` — saturation is
//! unreachable and the SIMD path is **bit-exact** against the scalar
//! kernel (and the naive oracle in the property tests).
//!
//! Tile shape: 4 rows × up to 16 columns, one body (`tile_u8i8`)
//! instantiated at one or two `i32x8` accumulators per row. A full tile
//! costs, per `k`-quad, two 32-byte `B` loads (16 columns × 4 interleaved
//! `k` bytes), four 4-byte `A` broadcasts and eight maddubs/madd pairs,
//! with the 4×2 `__m256i` accumulator block staying resident in registers
//! (8 accumulators + 2 `B` registers + broadcast + the ones constant ≈ 12
//! of 16). The last `N % 16` columns run the same body behind `i32` lane
//! masks — one accumulator per row for ≤ 8 of them, two for 9..=15 — so no
//! column falls back to scalar code: the frozen-block layers this kernel
//! serves have 8 or 12 output channels, i.e. *only* a remainder.

#![expect(
    unsafe_code,
    reason = "int8 quantized SIMD kernels: the core::arch intrinsic regime of kernels/simd.rs, \
              with saturating-widen SAFETY obligations documented per block"
)]
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::error::TensorError;

/// Rows per SIMD row block.
pub const ROWS: usize = 4;

/// Columns per full SIMD tile (two `i32x8` accumulators).
pub const COLS: usize = 16;

/// Columns per accumulator vector.
const LANES: usize = 8;

/// Whether the maddubs kernel can run on this host (cached runtime
/// detection of AVX2; always `false` off x86_64).
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Name of the int8 micro-kernel the dispatcher will pick, for benchmark
/// artifacts and reports.
pub fn kernel_name() -> &'static str {
    if available() {
        "u8i8-maddubs"
    } else {
        "scalar-quad"
    }
}

/// Name of the codec kernel [`quantize_u8`] dispatches to, for benchmark
/// artifacts and CI logs.
pub fn quantize_kernel_name() -> &'static str {
    if available() {
        "u8-quantize-avx2"
    } else {
        "u8-quantize-scalar"
    }
}

/// Quantizes `src` into `dst` as `convert::quantize_u8_scalar` does with
/// `scale = 1 / inv`, byte for byte, on a loop the compiler vectorizes:
/// the value is clamped to `0..=255` first (a NaN becomes 0, as the
/// oracle's saturating cast makes it; both bounds are integers, so
/// rounding commutes with the clamp), rounded half to even and raised
/// where it lay exactly half-way below that (half away from zero, which
/// is the oracle's `round` for values ≥ 0), and cast without the checks
/// that keep `as u8` scalar. Returns `false`, with `dst` untouched, when
/// the host lacks AVX2 and the caller must take the scalar path.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn quantize_u8(src: &[f32], min: f32, inv: f32, dst: &mut [u8]) -> bool {
    if !available() {
        return false;
    }
    assert_eq!(src.len(), dst.len(), "quantize slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `available()` verified AVX2, the only requirement.
    unsafe {
        quantize_avx2(src, min, inv, dst)
    };
    true
}

/// The loop of [`quantize_u8`], compiled for AVX2.
///
/// # Safety
///
/// The host must have AVX2 ([`available`]).
// SAFETY: `unsafe fn` because of `#[target_feature]`; `quantize_u8`, the
// only caller, checks `available()` first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_avx2(src: &[f32], min: f32, inv: f32, dst: &mut [u8]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        #[expect(
            clippy::manual_clamp,
            reason = "`clamp` keeps a NaN, which the unchecked cast below must never see; \
                      `max` turns it into 0"
        )]
        let v = ((s - min) * inv).max(0.0).min(255.0);
        let even = v.round_ties_even();
        // Exact: `even` and `v` are within 0.5 of each other.
        let r = if even - v == -0.5 { even + 1.0 } else { even };
        // SAFETY: `r` is an integer in 0..=255 (`v` is, after the clamp,
        // and a raised tie stays ≤ 255), so it is finite and fits `u8`.
        *d = unsafe { r.to_int_unchecked::<u8>() };
    }
}

/// Addressing of the int8 micro-kernel's `A` operand, one **quad** (four
/// consecutive `K` values, the unit `maddubs` consumes as one 32-bit lane)
/// at a time: `A_quad(i, q) = data()[row(i) + off_q ..][..4]` for
/// `i < rows()`, `off_q` the `q`-th of [`QuadA::quad_offsets`].
///
/// Implementors guarantee that `quad_offsets` yields exactly `quads()`
/// offsets and that every such four-byte window is inside `data()`; the
/// maddubs tile reads through it, and one quad row of `B` per offset,
/// unchecked. Both
/// implementors live in this module with private fields so no other code
/// can break that (the f32 kernel's `PanelA` makes the same arrangement).
pub(crate) trait QuadA: Sync {
    /// `M`.
    fn rows(&self) -> usize;
    /// Quads per row: the packed `K` extent over four.
    fn quads(&self) -> usize;
    /// The buffer the offsets index.
    fn data(&self) -> &[u8];
    /// Offset of row `i`.
    fn row(&self, i: usize) -> usize;
    /// Offsets of the row's quads, in `K` order.
    fn quad_offsets(&self) -> impl Iterator<Item = usize>;
}

/// Dense `u8` rows at stride `k4` (a multiple of 4) — the trivial
/// addressing `(i·k4, 4q)`, what `int8::QuantizedLhs` stores.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DenseQuads<'a> {
    a: &'a [u8],
    m: usize,
    k4: usize,
}

impl<'a> DenseQuads<'a> {
    /// # Panics
    ///
    /// Panics if `k4` is not a multiple of 4 or `a` holds fewer than `m`
    /// rows of it: checked here because the tile reads unchecked.
    pub(crate) fn new(a: &'a [u8], m: usize, k4: usize) -> Self {
        assert_eq!(k4 % 4, 0, "int8 row stride is not a multiple of 4");
        assert!(m * k4 <= a.len(), "int8 A operand is shorter than m×k4");
        DenseQuads { a, m, k4 }
    }
}

impl QuadA for DenseQuads<'_> {
    fn rows(&self) -> usize {
        self.m
    }
    fn quads(&self) -> usize {
        self.k4 / 4
    }
    fn data(&self) -> &[u8] {
        self.a
    }
    fn row(&self, i: usize) -> usize {
        i * self.k4
    }
    fn quad_offsets(&self) -> impl Iterator<Item = usize> {
        (0..self.k4).step_by(4)
    }
}

/// Separable-offset gather operand of the int8 GEMM:
/// `A_quad(i, q) = base[row_off[i] + quad_off[q] ..][..4]`, an
/// `M × 4·Q` matrix with `M = row_off.len()`, `Q = quad_off.len()` — the
/// `u8` sibling of [`super::GatherA`]. A convolution's patch matrix has
/// this shape once its weight panel is packed one quad per kernel row
/// (see `QuantizedRhs::pack_runs_from_f32`): `row` = output position,
/// `quad` = the first tap of a `(c, kh)` kernel row in the once-padded
/// input.
///
/// # Examples
///
/// ```
/// use nf_tensor::kernels::GatherQuads;
///
/// // Two 1×3 windows of a 5-byte row, each read as one quad: the fourth
/// // byte is whatever follows (a zero weight multiplies it), so the
/// // buffer must extend that far.
/// let row = [1u8, 2, 3, 4, 5];
/// assert!(GatherQuads::new(&row, &[0, 1], &[0]).is_ok());
/// // Window 2 would read bytes 2..6 of 5.
/// assert!(GatherQuads::new(&row, &[0, 2], &[0]).is_err());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GatherQuads<'a> {
    base: &'a [u8],
    row_off: &'a [u32],
    quad_off: &'a [u32],
}

impl<'a> GatherQuads<'a> {
    /// Validates the tables against `base` once, so the kernel never has
    /// to: `max(row_off) + max(quad_off) + 4` must not pass `base.len()`.
    ///
    /// Returns [`TensorError::OffsetOutOfBounds`] otherwise.
    pub fn new(base: &'a [u8], row_off: &'a [u32], quad_off: &'a [u32]) -> crate::Result<Self> {
        let max_row = row_off.iter().copied().max();
        let max_quad = quad_off.iter().copied().max();
        if let (Some(r), Some(q)) = (max_row, max_quad) {
            // Last byte the widest quad touches.
            let reach = u64::from(r) + u64::from(q) + 3;
            if reach >= base.len() as u64 {
                return Err(TensorError::OffsetOutOfBounds {
                    reach,
                    len: base.len(),
                });
            }
        }
        Ok(GatherQuads {
            base,
            row_off,
            quad_off,
        })
    }
}

impl QuadA for GatherQuads<'_> {
    fn rows(&self) -> usize {
        self.row_off.len()
    }
    fn quads(&self) -> usize {
        self.quad_off.len()
    }
    fn data(&self) -> &[u8] {
        self.base
    }
    fn row(&self, i: usize) -> usize {
        self.row_off[i] as usize
    }
    fn quad_offsets(&self) -> impl Iterator<Item = usize> {
        self.quad_off.iter().map(|&q| q as usize)
    }
}

/// Runs the maddubs micro-kernel over a full [`ROWS`]-row output panel:
/// rows `i0..i0 + ROWS` of `a` against the whole weight panel.
///
/// `bp` is the k-quad interleaved `i8` weight panel from
/// `int8::QuantizedRhs` (`bp[(q·n + j)·4 + r]` = weight of the `r`-th
/// byte of quad `q`, column `j`); `opanel` is `ROWS` rows of `n`
/// accumulators and is **overwritten**, every column of it (single `K`
/// pass, so no accumulate flag). Returns `false`, with `opanel` untouched,
/// when AVX2 is unavailable and the caller must take the scalar path.
///
/// # Panics
///
/// Panics if the panel reaches outside `a`, `bp` or `opanel` — the row
/// loop in `int8.rs` never asks for that, and the tile relies on it.
pub(crate) fn panel_u8i8<A: QuadA>(
    a: &A,
    bp: &[i8],
    n: usize,
    i0: usize,
    opanel: &mut [i32],
) -> bool {
    if !available() {
        return false;
    }
    assert!(i0 + ROWS <= a.rows());
    assert!(bp.len() == a.quads() * 4 * n && ROWS * n <= opanel.len());
    #[cfg(target_arch = "x86_64")]
    {
        let rb: [usize; ROWS] = std::array::from_fn(|r| a.row(i0 + r));
        let mut j = 0;
        while j < n {
            let cols = COLS.min(n - j);
            // SAFETY: `available()` verified AVX2. The asserts above proved
            // `bp` holds `a.quads()` quad rows of `n` columns and `opanel`
            // `ROWS` rows of `n`, and `j + cols ≤ n`; `rb` holds offsets of
            // rows `< a.rows()` and the tile takes its quad offsets from
            // `a.quad_offsets()`, so every `A` read is one the `QuadA`
            // contract puts inside `a.data()`. `cols` is `NV · 8` for the
            // unmasked instantiations and within `1..NV · 8` otherwise.
            unsafe {
                match cols {
                    COLS => tile_u8i8::<A, 2, true>(a, rb, bp, n, j, cols, opanel),
                    LANES => tile_u8i8::<A, 1, true>(a, rb, bp, n, j, cols, opanel),
                    c if c > LANES => tile_u8i8::<A, 2, false>(a, rb, bp, n, j, cols, opanel),
                    _ => tile_u8i8::<A, 1, false>(a, rb, bp, n, j, cols, opanel),
                }
            };
            j += cols;
        }
    }
    true
}

/// Where [`panel_nchw`] stores a product's rows: row `i` (of the rows
/// `out` holds, whole samples of `plane` positions), column `j` becomes
/// `scales[j] · (scale_a · acc + min_a · col_sums[j]) + bias[j]` at
/// `out[(i / plane · N + j) · plane + i % plane]`, `N = scales.len()` —
/// the affine decode of an int8 product with its layer's bias, written
/// as NCHW (`int8::gemm_i32_gather_nchw`).
pub(crate) struct NchwOut<'a> {
    /// The NCHW storage of the samples.
    pub(crate) out: &'a mut [f32],
    /// Positions per sample.
    pub(crate) plane: usize,
    /// The LHS encoding's step and origin.
    pub(crate) scale_a: f32,
    pub(crate) min_a: f32,
    /// Per output column: the weight scale, the sum of its codes and the
    /// bias.
    pub(crate) scales: &'a [f32],
    pub(crate) col_sums: &'a [i32],
    pub(crate) bias: &'a [f32],
}

/// [`panel_u8i8`] over rows `i0..i0 + ROWS` of `a`, stored through `dest`
/// as its rows `at..at + ROWS` instead of as accumulators: every tile is
/// dequantized in registers, in the order of operations the scalar
/// decode uses, transposed, and written as one four-position run per
/// output column. Returns `false`, with `dest` untouched, when AVX2 is
/// unavailable or the rows cross a sample boundary; the caller then takes
/// the accumulator path.
///
/// # Panics
///
/// Panics if the panel reaches outside `a`, `bp` or `dest.out`, or the
/// per-column slices are not `N` long.
pub(crate) fn panel_nchw<A: QuadA>(
    a: &A,
    bp: &[i8],
    i0: usize,
    at: usize,
    dest: &mut NchwOut<'_>,
) -> bool {
    let (n, plane) = (dest.scales.len(), dest.plane);
    if !available() || plane == 0 || at % plane + ROWS > plane {
        return false;
    }
    assert!(i0 + ROWS <= a.rows());
    assert!(bp.len() == a.quads() * 4 * n);
    assert!(dest.col_sums.len() == n && dest.bias.len() == n);
    assert!((at / plane + 1) * n * plane <= dest.out.len());
    #[cfg(target_arch = "x86_64")]
    {
        let rb: [usize; ROWS] = std::array::from_fn(|r| a.row(i0 + r));
        let mut j = 0;
        while j < n {
            let cols = COLS.min(n - j);
            // SAFETY: `available()` verified AVX2. The asserts above proved
            // `bp` holds `a.quads()` quad rows of `n` columns, the column
            // slices `n` values and `j + cols ≤ n`; `rb` holds offsets of
            // rows `< a.rows()`, so every `A` read is one the `QuadA`
            // contract puts inside `a.data()`; the stores go through
            // checked slices of `dest.out`. `cols` is `NV · 8` for the
            // unmasked instantiations and within `1..NV · 8` otherwise.
            unsafe {
                match cols {
                    COLS => nchw_tile::<A, 2, true>(a, rb, bp, n, j, cols, at, dest),
                    LANES => nchw_tile::<A, 1, true>(a, rb, bp, n, j, cols, at, dest),
                    c if c > LANES => nchw_tile::<A, 2, false>(a, rb, bp, n, j, cols, at, dest),
                    _ => nchw_tile::<A, 1, false>(a, rb, bp, n, j, cols, at, dest),
                }
            };
            j += cols;
        }
    }
    true
}

/// Lane `l` of vector `v` is live iff `8·v + l < cols` (all-ones = sign
/// bit set = selected).
///
/// # Safety
///
/// The host must have AVX2.
// SAFETY: `unsafe fn` because of `#[target_feature]`; its callers are
// AVX2 `unsafe fn`s themselves.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lane_masks<const NV: usize>(cols: usize) -> [std::arch::x86_64::__m256i; NV] {
    use std::arch::x86_64::*;
    let lane_idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    std::array::from_fn(|v| {
        let live = cols.saturating_sub(v * LANES) as i32;
        _mm256_cmpgt_epi32(_mm256_set1_epi32(live), lane_idx)
    })
}

/// The `ROWS × cols` accumulators of one tile over the whole `K` extent,
/// `NV` `i32x8` vectors per row. `FULL` (`cols == NV · 8`) compiles it
/// without lane masks; otherwise vector `v` covers only the columns
/// `< cols − 8·v`, and `maskload` neither touches nor faults on the bytes
/// of a masked-out column — the last `B` row ends where the slice does;
/// masked-out accumulators are zero.
///
/// # Safety
///
/// The host must have AVX2 ([`available`]); `rb` must hold row offsets of
/// `a` (so that, by the [`QuadA`] contract, `rb[r] + off .. + 4` is inside
/// `a.data()` for every `off` of `a.quad_offsets()`); `bp` must hold
/// `a.quads() · 4 · n` weights; `j + cols ≤ n`, `1 ≤ cols ≤ NV · 8`,
/// `FULL == (cols == NV · 8)` and `masks` the [`lane_masks`] of `cols`.
// SAFETY: `unsafe fn` because of `#[target_feature]` and the unchecked
// pointer accesses; the contract is the `# Safety` section above, which
// the two tile functions establish from their own contracts.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn accumulate<A: QuadA, const NV: usize, const FULL: bool>(
    a: &A,
    rb: [usize; ROWS],
    bp: &[i8],
    n: usize,
    j: usize,
    masks: &[std::arch::x86_64::__m256i; NV],
) -> [[std::arch::x86_64::__m256i; NV]; ROWS] {
    use std::arch::x86_64::*;
    debug_assert_eq!(bp.len(), a.quads() * 4 * n);
    let ones = _mm256_set1_epi16(1);
    let mut acc = [[_mm256_setzero_si256(); NV]; ROWS];
    let ap = a.data().as_ptr();
    // One base pointer per panel row (each `rb[r]` alone is in bounds), so
    // the inner loop addresses `A` as `row + off` with `off` shared.
    let rows_at: [*const u8; ROWS] = std::array::from_fn(|r| ap.add(rb[r]));
    let mut bsrc = bp.as_ptr().add(j * 4);
    for off in a.quad_offsets() {
        // 32 bytes per vector = 8 columns × 4 interleaved k values each.
        let mut b = [_mm256_setzero_si256(); NV];
        for (v, (bv, &mask)) in b.iter_mut().zip(masks).enumerate() {
            // Wrapping: a fully masked-out vector may start past the row.
            let src = bsrc.wrapping_add(v * LANES * 4);
            *bv = if FULL {
                _mm256_loadu_si256(src as *const __m256i)
            } else {
                _mm256_maskload_epi32(src as *const i32, mask)
            };
        }
        for (accr, row) in acc.iter_mut().zip(rows_at) {
            // Broadcast the quad's 4 consecutive u8 activations as one
            // i32 lane pattern, matching the quad interleave of B.
            let aw = (row.add(off) as *const i32).read_unaligned();
            let av = _mm256_set1_epi32(aw);
            for (o, &bv) in accr.iter_mut().zip(&b) {
                // u8×i8 pairwise multiply-add; never saturates because the
                // packer clamps weights to ±63 (see module docs).
                let pairs = _mm256_maddubs_epi16(av, bv);
                *o = _mm256_add_epi32(*o, _mm256_madd_epi16(pairs, ones));
            }
        }
        // Wrapping: after the last quad this points past the end of `bp`,
        // where it is never dereferenced.
        bsrc = bsrc.wrapping_add(n * 4);
    }
    acc
}

/// One `ROWS × cols` accumulator tile ([`accumulate`]) stored into
/// `opanel` at column `j`: `maskstore` neither touches nor faults on a
/// masked-out column, so the last output row ends where the slice does.
///
/// # Safety
///
/// As [`accumulate`], and `opanel` must hold `ROWS · n` accumulators.
// SAFETY: `unsafe fn` because of `#[target_feature]` and the unchecked
// pointer accesses; the contract is the `# Safety` section above, which
// `panel_u8i8` (the only caller) establishes with real asserts.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn tile_u8i8<A: QuadA, const NV: usize, const FULL: bool>(
    a: &A,
    rb: [usize; ROWS],
    bp: &[i8],
    n: usize,
    j: usize,
    cols: usize,
    opanel: &mut [i32],
) {
    use std::arch::x86_64::*;
    debug_assert!(j + cols <= n && cols <= NV * LANES && FULL == (cols == NV * LANES));
    debug_assert!((ROWS - 1) * n + j + cols <= opanel.len());
    let masks = lane_masks::<NV>(cols);
    let acc = accumulate::<A, NV, FULL>(a, rb, bp, n, j, &masks);
    let op = opanel.as_mut_ptr();
    for (r, accr) in acc.iter().enumerate() {
        for (v, (&sum, &mask)) in accr.iter().zip(&masks).enumerate() {
            let dst = op.wrapping_add(r * n + j + v * LANES);
            if FULL {
                _mm256_storeu_si256(dst as *mut __m256i, sum);
            } else {
                _mm256_maskstore_epi32(dst, mask, sum);
            }
        }
    }
}

/// One tile ([`accumulate`]) decoded and stored through `dest` as its
/// rows `at..at + ROWS`, which lie in one sample: per vector of columns,
/// the per-column constants are loaded (masked past `cols`), every row is
/// decoded as `s · (scale_a · acc + c) + b` with `c = min_a · col_sum`,
/// one rounding per operation as the scalar decode has them, and the
/// `4 × 8` block is transposed so each live column gets its four
/// positions with one 16-byte store.
///
/// # Safety
///
/// As [`accumulate`], and `dest`'s column slices must hold `n` values.
// SAFETY: `unsafe fn` because of `#[target_feature]` and the unchecked
// pointer accesses; the contract is the `# Safety` section above, which
// `panel_nchw` (the only caller) establishes with real asserts. The
// stores are to checked slices.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn nchw_tile<A: QuadA, const NV: usize, const FULL: bool>(
    a: &A,
    rb: [usize; ROWS],
    bp: &[i8],
    n: usize,
    j: usize,
    cols: usize,
    at: usize,
    dest: &mut NchwOut<'_>,
) {
    use std::arch::x86_64::*;
    debug_assert!(j + cols <= n && cols <= NV * LANES && FULL == (cols == NV * LANES));
    let masks = lane_masks::<NV>(cols);
    let acc = accumulate::<A, NV, FULL>(a, rb, bp, n, j, &masks);
    let (sample, p) = (at / dest.plane, at % dest.plane);
    let (scale_a, min_a) = (_mm256_set1_ps(dest.scale_a), _mm256_set1_ps(dest.min_a));
    for (v, &mask) in masks.iter().enumerate() {
        let c0 = j + v * LANES;
        let load = |xs: *const f32| match FULL {
            true => _mm256_loadu_ps(xs),
            false => _mm256_maskload_ps(xs, mask),
        };
        let sums = dest.col_sums.as_ptr().wrapping_add(c0);
        let sums = match FULL {
            true => _mm256_loadu_si256(sums as *const __m256i),
            false => _mm256_maskload_epi32(sums, mask),
        };
        let s = load(dest.scales.as_ptr().wrapping_add(c0));
        let b = load(dest.bias.as_ptr().wrapping_add(c0));
        let c = _mm256_mul_ps(min_a, _mm256_cvtepi32_ps(sums));
        let y: [__m256; ROWS] = std::array::from_fn(|r| {
            let q = _mm256_cvtepi32_ps(acc[r][v]);
            let inner = _mm256_add_ps(_mm256_mul_ps(scale_a, q), c);
            _mm256_add_ps(_mm256_mul_ps(s, inner), b)
        });
        // 4 rows × 8 columns → 8 columns × 4 rows: column k in the low
        // (k < 4) or high (k ≥ 4) half of `t[k % 4]`.
        let lo01 = _mm256_unpacklo_ps(y[0], y[1]);
        let hi01 = _mm256_unpackhi_ps(y[0], y[1]);
        let lo23 = _mm256_unpacklo_ps(y[2], y[3]);
        let hi23 = _mm256_unpackhi_ps(y[2], y[3]);
        let t = [
            _mm256_shuffle_ps::<0x44>(lo01, lo23),
            _mm256_shuffle_ps::<0xEE>(lo01, lo23),
            _mm256_shuffle_ps::<0x44>(hi01, hi23),
            _mm256_shuffle_ps::<0xEE>(hi01, hi23),
        ];
        let live = LANES.min(cols - v * LANES);
        for k in 0..live {
            let run = match k < 4 {
                true => _mm256_castps256_ps128(t[k]),
                false => _mm256_extractf128_ps::<1>(t[k - 4]),
            };
            let start = ((sample * n) + c0 + k) * dest.plane + p;
            let dst = &mut dest.out[start..start + ROWS];
            _mm_storeu_ps(dst.as_mut_ptr(), run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_name_matches_availability() {
        if available() {
            assert_eq!(kernel_name(), "u8i8-maddubs");
        } else {
            assert_eq!(kernel_name(), "scalar-quad");
        }
        // CI runs this test with --nocapture (see simd.rs).
        println!("int8 kernel: {}", kernel_name());
        println!("int8 codec kernel: {}", quantize_kernel_name());
    }

    #[test]
    fn panel_matches_integer_reference() {
        // 4 rows × (k = 10 → k4 = 12) against every column count up to
        // 40: full 16-column tiles and each masked remainder (one
        // accumulator for ≤ 8 columns, two for 9..=15), with the
        // zero-padded k tail. The slices end exactly where the last `B`
        // row and the last output row do, followed by guard elements a
        // masked-out lane must neither read into a sum nor overwrite.
        const GUARD: usize = 16;
        let k = 10usize;
        let k4 = (k + 3) & !3;
        let mut a = vec![0u8; ROWS * k4];
        for (i, v) in a.iter_mut().enumerate() {
            // Tail bytes get values too — they must be cancelled by the
            // zero B rows, not masked by the kernel.
            *v = (i * 37 % 251) as u8;
        }
        for n in 1..=40usize {
            let mut bp = vec![0i8; k4 * n];
            for kk in 0..k {
                for j in 0..n {
                    let q = ((kk * 31 + j * 7) % 127) as i32 - 63;
                    bp[((kk / 4) * n + j) * 4 + kk % 4] = q as i8;
                }
            }
            bp.extend([i8::MAX; 4 * GUARD]);
            let bp = &bp[..k4 * n];
            let mut out = vec![i32::MIN; ROWS * n + GUARD];
            let dense = DenseQuads::new(&a, ROWS, k4);
            if !panel_u8i8(&dense, bp, n, 0, &mut out[..ROWS * n]) {
                assert!(!available());
                assert!(out.iter().all(|&v| v == i32::MIN), "untouched");
                println!("skipping: this host lacks AVX2");
                return;
            }
            for r in 0..ROWS {
                for j in 0..n {
                    let want: i32 = (0..k)
                        .map(|kk| {
                            a[r * k4 + kk] as i32 * bp[((kk / 4) * n + j) * 4 + kk % 4] as i32
                        })
                        .sum();
                    assert_eq!(out[r * n + j], want, "n {n} ({r},{j})");
                }
            }
            assert!(out[ROWS * n..].iter().all(|&v| v == i32::MIN), "n {n}");
        }
    }

    #[test]
    fn gathered_tile_matches_scalar_rows() {
        // The maddubs tile and the scalar quad kernel driven directly on
        // the same gathered operand — overlapping 1×3 windows of a 2-row
        // byte image, one quad per (row, window) whose fourth byte is the
        // next window's first (or the slack) against a zero weight — for
        // every column count up to 40, with guard elements behind `bp` and
        // `out` as in the dense test.
        use super::super::int8::scalar_rows;
        const GUARD: usize = 16;
        let width = 9usize;
        let mut image: Vec<u8> = (0..2 * width).map(|i| (i * 53 % 256) as u8).collect();
        image.push(0xFF); // the one slack byte the last quad reads
        let row_off: Vec<u32> = (0..ROWS as u32).map(|i| 2 * i).collect();
        let quad_off = [0u32, width as u32];
        let a = GatherQuads::new(&image, &row_off, &quad_off).unwrap();
        assert_eq!((a.rows(), a.quads()), (ROWS, 2));
        // One byte less and the last quad would leave the buffer.
        let short = &image[..image.len() - 1];
        assert!(matches!(
            GatherQuads::new(short, &row_off, &quad_off),
            Err(TensorError::OffsetOutOfBounds { reach: 18, len: 18 })
        ));
        for n in 1..=40usize {
            let mut bp = vec![0i8; 8 * n];
            for (i, q) in bp.iter_mut().enumerate() {
                // Fourth weight of every quad is the zero pad of its run.
                if i % 4 != 3 {
                    *q = ((i * 29 % 127) as i32 - 63) as i8;
                }
            }
            bp.extend([i8::MAX; 4 * GUARD]);
            let bp = &bp[..8 * n];
            let mut want = vec![i32::MIN; ROWS * n];
            scalar_rows(&a, bp, n, 0, ROWS, &mut want);
            // The scalar kernel against the definition, once per n.
            for (i, w) in want.iter().enumerate() {
                let (r, j) = (i / n, i % n);
                let def: i32 = (0..8)
                    .map(|kk| {
                        let byte = image[2 * r + (kk / 4) * width + kk % 4];
                        byte as i32 * bp[((kk / 4) * n + j) * 4 + kk % 4] as i32
                    })
                    .sum();
                assert_eq!(*w, def, "scalar n {n} ({r},{j})");
            }
            let mut out = vec![i32::MIN; ROWS * n + GUARD];
            if !panel_u8i8(&a, bp, n, 0, &mut out[..ROWS * n]) {
                println!("skipping: this host lacks AVX2");
                return;
            }
            assert_eq!(out[..ROWS * n], want[..], "n {n}");
            assert!(out[ROWS * n..].iter().all(|&v| v == i32::MIN), "n {n}");
        }
    }
}
