//! Explicit-SIMD int8 GEMM inner loop: `u8 × i8 → i32` maddubs tiles on
//! x86_64.
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
//! with a reasoned module-level `expect`): the intrinsic function below
//! is gated by [`available`], and its unchecked reads rest on an
//! invariant held by private fields of this module's types — every
//! four-byte window `row(i) + quad(q) .. + 4` of a `QuadA` is inside its
//! data slice — plus the per-panel range asserts in `panel_u8i8`.
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

/// One `ROWS × cols` accumulator tile over the whole `K` extent, `NV`
/// `i32x8` vectors per row. `FULL` (`cols == NV · 8`) compiles it without
/// lane masks; otherwise vector `v` covers only the columns
/// `< cols − 8·v`, and `maskload`/`maskstore` neither touch nor fault on
/// the bytes of a masked-out column — the last `B` row and the last
/// output row end where the slices do.
///
/// # Safety
///
/// The host must have AVX2 ([`available`]); `rb` must hold row offsets of
/// `a` (so that, by the [`QuadA`] contract, `rb[r] + off .. + 4` is inside
/// `a.data()` for every `off` of `a.quad_offsets()`); `bp` must hold
/// `a.quads() · 4 · n` weights and `opanel` `ROWS · n` accumulators;
/// `j + cols ≤ n`, `1 ≤ cols ≤ NV · 8` and `FULL == (cols == NV · 8)`.
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
    debug_assert_eq!(bp.len(), a.quads() * 4 * n);
    debug_assert!(j + cols <= n && cols <= NV * LANES && FULL == (cols == NV * LANES));
    debug_assert!((ROWS - 1) * n + j + cols <= opanel.len());
    let ones = _mm256_set1_epi16(1);
    // Lane l of vector v is live iff 8·v + l < cols (all-ones = sign bit
    // set = selected); unused when `FULL`.
    let lane_idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mut masks = [_mm256_setzero_si256(); NV];
    for (v, mask) in masks.iter_mut().enumerate() {
        let live = cols.saturating_sub(v * LANES) as i32;
        *mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(live), lane_idx);
    }
    let mut acc = [[_mm256_setzero_si256(); NV]; ROWS];
    let ap = a.data().as_ptr();
    // One base pointer per panel row (each `rb[r]` alone is in bounds), so
    // the inner loop addresses `A` as `row + off` with `off` shared.
    let rows_at: [*const u8; ROWS] = std::array::from_fn(|r| ap.add(rb[r]));
    let mut bsrc = bp.as_ptr().add(j * 4);
    for off in a.quad_offsets() {
        // 32 bytes per vector = 8 columns × 4 interleaved k values each.
        let mut b = [_mm256_setzero_si256(); NV];
        for (v, (bv, &mask)) in b.iter_mut().zip(&masks).enumerate() {
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
