//! The blocked GEMM's register micro-kernel: one `MR × 8` FMA tile,
//! parameterised by how the `A` operand is addressed.
//!
//! Every product the blocked backend runs is `C += A·B` over a cache block,
//! with `B` and `C` dense row-major. `A` is read one scalar broadcast at a
//! time, so it never has to be contiguous: the kernel only needs
//! `A(i, p) = data[row(i) + col(p)]`. Two addressings implement that
//! (`PanelA`):
//!
//! - `DenseA` — row-major `M×K`, `row(i) = i·K`, `col(p) = p`: what
//!   `Linear` and the `matmul_*_into` entry points multiply.
//! - [`GatherA`] — two offset tables over a base buffer. A convolution's
//!   `im2col` matrix is exactly this shape (`row` = output position, `col`
//!   = `(c, kh, kw)` tap of a once-padded input), so the conv layers
//!   multiply straight out of the padded input and the patch matrix never
//!   exists; swapping the tables addresses its transpose.
//!
//! Both run the same tile: explicit AVX2+FMA intrinsics where the host has
//! them (runtime-detected), the portable `f32::mul_add` tile elsewhere.
//! The two tiles — and every remainder case: a masked tile for the last
//! `N % 8` columns, clamped rows for the last `M % MR` rows — perform the
//! same per-element arithmetic (a zeroed accumulator, one fused
//! multiply-add per `k` in order, one store or add per cache block), so a
//! blocked product's bits depend only on its `KC` split, never on which
//! tile or which remainder path computed an element.
//!
//! Together with [`super::simd_int8`] this is one of the **two** modules
//! in `nf-tensor` allowed to use `unsafe` (crate-level `deny(unsafe_code)`
//! with a local allow). The unchecked reads rest on two invariants held by
//! private fields of this module's types — every `row(i) + col(p)` of a
//! `PanelA` is inside its data slice — plus the per-panel range asserts
//! in `panel`.

use crate::error::TensorError;

/// Rows per panel — must match `blocked::MR` (asserted there).
pub const MR: usize = 8;

/// Columns per SIMD tile (`f32x8`).
pub const LANES: usize = 8;

/// Whether the explicit-SIMD kernel can run on this host (cached runtime
/// detection of AVX2 + FMA; always `false` off x86_64).
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Name of the micro-kernel the dispatcher will pick, for benchmark
/// artifacts and reports.
pub fn kernel_name() -> &'static str {
    if available() {
        "f32x8-fma"
    } else {
        "scalar-unrolled"
    }
}

/// Addressing of the micro-kernel's `A` operand:
/// `A(i, p) = data()[row(i) + col(p)]` for `i < rows()`, `p < depth()`.
///
/// Implementors guarantee that every such index is inside `data()`; the
/// AVX2 tile reads through it unchecked. Both implementors live in this
/// module with private fields so no other code can break that.
pub(crate) trait PanelA: Sync {
    /// `M`.
    fn rows(&self) -> usize;
    /// `K`.
    fn depth(&self) -> usize;
    /// The buffer the offsets index.
    fn data(&self) -> &[f32];
    /// Offset of row `i`.
    fn row(&self, i: usize) -> usize;
    /// Offsets of columns `kk0..kk0 + kc`, in order.
    fn cols(&self, kk0: usize, kc: usize) -> impl Iterator<Item = usize>;
}

/// Row-major `M×K` operand — the trivial addressing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DenseA<'a> {
    a: &'a [f32],
    m: usize,
    k: usize,
}

impl<'a> DenseA<'a> {
    /// # Panics
    ///
    /// Panics if `a` is not exactly `m·k` long: the `GemmBackend` slice
    /// contract, checked here because the SIMD tile reads unchecked.
    pub(crate) fn new(a: &'a [f32], m: usize, k: usize) -> Self {
        assert_eq!(a.len(), m * k, "A operand is not m×k");
        DenseA { a, m, k }
    }
}

impl PanelA for DenseA<'_> {
    fn rows(&self) -> usize {
        self.m
    }
    fn depth(&self) -> usize {
        self.k
    }
    fn data(&self) -> &[f32] {
        self.a
    }
    fn row(&self, i: usize) -> usize {
        i * self.k
    }
    fn cols(&self, kk0: usize, kc: usize) -> impl Iterator<Item = usize> {
        kk0..kk0 + kc
    }
}

/// Separable-offset gather operand:
/// `A(i, p) = base[row_off[i] + col_off[p]]`, an `M×K` matrix with
/// `M = row_off.len()`, `K = col_off.len()`.
///
/// # Examples
///
/// ```
/// use nf_tensor::kernels::GatherA;
///
/// // The 2×2 windows of a 3-wide row-major image, as a 2×4 matrix.
/// let image = [1., 2., 3., 4., 5., 6.];
/// let a = GatherA::new(&image, &[0, 1], &[0, 1, 3, 4]).unwrap();
/// let mut dense = Vec::new();
/// a.materialize_into(&mut dense);
/// assert_eq!(dense, [1., 2., 4., 5., 2., 3., 5., 6.]);
/// // A table reaching past the buffer is a typed error.
/// assert!(GatherA::new(&image, &[0, 2], &[0, 1, 3, 4]).is_err());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GatherA<'a> {
    base: &'a [f32],
    row_off: &'a [u32],
    col_off: &'a [u32],
}

impl<'a> GatherA<'a> {
    /// Validates the tables against `base` once, so the kernel never has
    /// to: `max(row_off) + max(col_off)` must index inside `base`.
    ///
    /// Returns [`TensorError::OffsetOutOfBounds`] otherwise.
    pub fn new(base: &'a [f32], row_off: &'a [u32], col_off: &'a [u32]) -> crate::Result<Self> {
        let max_row = row_off.iter().copied().max();
        let max_col = col_off.iter().copied().max();
        if let (Some(r), Some(c)) = (max_row, max_col) {
            let reach = u64::from(r) + u64::from(c);
            if reach >= base.len() as u64 {
                return Err(TensorError::OffsetOutOfBounds {
                    reach,
                    len: base.len(),
                });
            }
        }
        Ok(GatherA {
            base,
            row_off,
            col_off,
        })
    }

    /// `M`.
    pub fn rows(&self) -> usize {
        self.row_off.len()
    }

    /// `K`.
    pub fn depth(&self) -> usize {
        self.col_off.len()
    }

    /// Writes the matrix out dense row-major (`out` grow-only, fully
    /// overwritten) — how backends without a gathering kernel consume it.
    pub fn materialize_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for &r in self.row_off {
            let r = r as usize;
            out.extend(self.col_off.iter().map(|&c| self.base[r + c as usize]));
        }
    }
}

impl PanelA for GatherA<'_> {
    fn rows(&self) -> usize {
        self.row_off.len()
    }
    fn depth(&self) -> usize {
        self.col_off.len()
    }
    fn data(&self) -> &[f32] {
        self.base
    }
    fn row(&self, i: usize) -> usize {
        self.row_off[i] as usize
    }
    fn cols(&self, kk0: usize, kc: usize) -> impl Iterator<Item = usize> {
        self.col_off[kk0..kk0 + kc].iter().map(|&c| c as usize)
    }
}

/// The micro-kernel: `rows ≤ MR` output rows starting at row `i0` of `A`,
/// over the cache block `[kk0, kk0+kc) × [jj0, jj0+nc)` of `b` (`K×N`
/// row-major). `opanel` holds those output rows, `n` floats each. With
/// `first` set the block **stores** its result (the output may hold
/// garbage from buffer reuse); otherwise it accumulates.
///
/// # Panics
///
/// Panics if the block reaches outside `a`, `b` or `opanel` — the loop
/// nest in `blocked.rs` never asks for that, and the AVX2 tile relies on
/// it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn panel<A: PanelA>(
    a: &A,
    b: &[f32],
    n: usize,
    i0: usize,
    rows: usize,
    kk0: usize,
    kc: usize,
    jj0: usize,
    nc: usize,
    first: bool,
    opanel: &mut [f32],
) {
    check_block(a, b, n, i0, rows, kk0, kc, jj0 + nc, opanel);
    let rb = row_bases(a, i0, rows);
    let simd = available();
    let mut j = jj0;
    while j < jj0 + nc {
        let cols = LANES.min(jj0 + nc - j);
        if simd {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `available()` verified AVX2+FMA. `check_block` proved
            // rows `kk0..kk0+kc` of `b` and `rows` rows of `opanel` exist
            // and that columns `j..j+cols` lie inside a row of each;
            // `rb` holds offsets of rows `< a.rows()` and the tile takes
            // its column offsets from `a.cols(kk0, kc)` with
            // `kk0+kc ≤ a.depth()`, so every `A` read is one the `PanelA`
            // contract puts inside `a.data()`.
            unsafe {
                tile_avx2(a, &rb, rows, b, n, kk0, kc, j, cols, first, opanel)
            };
        } else {
            tile_portable(a, &rb, rows, b, n, kk0, kc, j, cols, first, opanel);
        }
        j += cols;
    }
}

/// The range checks both tiles rely on (see [`panel`]); `j_end` is the
/// block's last column + 1.
#[allow(clippy::too_many_arguments)]
fn check_block<A: PanelA>(
    a: &A,
    b: &[f32],
    n: usize,
    i0: usize,
    rows: usize,
    kk0: usize,
    kc: usize,
    j_end: usize,
    opanel: &[f32],
) {
    assert!((1..=MR).contains(&rows) && i0 + rows <= a.rows());
    assert!(kk0 + kc <= a.depth());
    assert!(j_end <= n && (kk0 + kc) * n <= b.len() && rows * n <= opanel.len());
}

/// `A` row offsets of one panel. Rows past `rows` repeat the last valid
/// one: the tile always computes `MR` rows and stores only `rows`.
fn row_bases<A: PanelA>(a: &A, i0: usize, rows: usize) -> [usize; MR] {
    std::array::from_fn(|r| a.row(i0 + r.min(rows - 1)))
}

/// One `MR × 8` accumulator tile over a `kc`-deep cache block, portable
/// form. `cols < LANES` is the column remainder: the missing `B` lanes are
/// read as zero and never stored.
#[allow(clippy::too_many_arguments)]
fn tile_portable<A: PanelA>(
    a: &A,
    rb: &[usize; MR],
    rows: usize,
    b: &[f32],
    n: usize,
    kk0: usize,
    kc: usize,
    j: usize,
    cols: usize,
    first: bool,
    opanel: &mut [f32],
) {
    let data = a.data();
    let mut acc = [[0.0f32; LANES]; MR];
    for (kk, c) in (kk0..kk0 + kc).zip(a.cols(kk0, kc)) {
        let mut brow = [0.0f32; LANES];
        brow[..cols].copy_from_slice(&b[kk * n + j..kk * n + j + cols]);
        for (accr, &base) in acc.iter_mut().zip(rb) {
            let av = data[base + c];
            for (o, &bv) in accr.iter_mut().zip(&brow) {
                *o = av.mul_add(bv, *o);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(rows) {
        let orow = &mut opanel[r * n + j..r * n + j + cols];
        if first {
            orow.copy_from_slice(&accr[..cols]);
        } else {
            for (o, &v) in orow.iter_mut().zip(accr) {
                *o += v;
            }
        }
    }
}

/// The same tile in AVX2+FMA: one `__m256` accumulator per panel row. Per
/// `k` iteration that costs one vector load of `B`, `MR` broadcasts of `A`
/// and `MR` FMAs, which keeps both FMA ports busy while staying within the
/// 16-register file (8 accumulators + broadcast + `B` row). `cols < LANES`
/// runs the identical loop behind a lane mask (`maskload` reads nothing
/// and faults on nothing in masked-out lanes).
///
/// # Safety
///
/// The caller must have verified AVX2+FMA via [`available`], and
/// [`check_block`] must hold for this block with `j + cols ≤ j_end`.
// SAFETY: `unsafe fn` because of `#[target_feature]` and the unchecked
// pointer reads; the contract is the `# Safety` section above, and
// `panel` is the only non-test caller.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile_avx2<A: PanelA>(
    a: &A,
    rb: &[usize; MR],
    rows: usize,
    b: &[f32],
    n: usize,
    kk0: usize,
    kc: usize,
    j: usize,
    cols: usize,
    first: bool,
    opanel: &mut [f32],
) {
    // The full tile is the hot one; compiling it without the lane mask
    // keeps its inner loop at one load, `MR` broadcast-FMAs and the
    // counters.
    if cols == LANES {
        tile_avx2_impl::<A, true>(a, rb, rows, b, n, kk0, kc, j, cols, first, opanel)
    } else {
        tile_avx2_impl::<A, false>(a, rb, rows, b, n, kk0, kc, j, cols, first, opanel)
    }
}

// SAFETY: same contract as `tile_avx2`, its only caller.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile_avx2_impl<A: PanelA, const FULL: bool>(
    a: &A,
    rb: &[usize; MR],
    rows: usize,
    b: &[f32],
    n: usize,
    kk0: usize,
    kc: usize,
    j: usize,
    cols: usize,
    first: bool,
    opanel: &mut [f32],
) {
    use std::arch::x86_64::*;
    const LANE_IDX: [i32; LANES] = [0, 1, 2, 3, 4, 5, 6, 7];
    // Lane l is live iff l < cols (all-ones = sign bit set = selected);
    // unused when `FULL`.
    let mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(cols as i32),
        _mm256_loadu_si256(LANE_IDX.as_ptr().cast()),
    );
    let mut acc = [_mm256_setzero_ps(); MR];
    let ap = a.data().as_ptr();
    // One base pointer per panel row (each `rb[r]` alone is in bounds),
    // so the inner loop addresses `A` as `row + c` with `c` shared.
    let rows_at: [*const f32; MR] = std::array::from_fn(|r| ap.add(rb[r]));
    let mut bsrc = b.as_ptr().add(kk0 * n + j);
    for c in a.cols(kk0, kc) {
        let brow = if FULL {
            _mm256_loadu_ps(bsrc)
        } else {
            _mm256_maskload_ps(bsrc, mask)
        };
        for (accr, row) in acc.iter_mut().zip(rows_at) {
            let av = _mm256_set1_ps(*row.add(c));
            *accr = _mm256_fmadd_ps(av, brow, *accr);
        }
        // Wrapping: after the last `k` this may point past the end of `b`,
        // where it is never dereferenced.
        bsrc = bsrc.wrapping_add(n);
    }
    let op = opanel.as_mut_ptr();
    for (r, accr) in acc.iter().enumerate().take(rows) {
        let dst = op.add(r * n + j);
        match (FULL, first) {
            (true, true) => _mm256_storeu_ps(dst, *accr),
            (true, false) => _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), *accr)),
            (false, true) => _mm256_maskstore_ps(dst, mask, *accr),
            (false, false) => {
                let cur = _mm256_maskload_ps(dst, mask);
                _mm256_maskstore_ps(dst, mask, _mm256_add_ps(cur, *accr));
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
            assert_eq!(kernel_name(), "f32x8-fma");
        } else {
            assert_eq!(kernel_name(), "scalar-unrolled");
        }
    }

    #[test]
    fn panel_matches_scalar_reference() {
        // 8×K panel times K×N block through the dispatching entry point,
        // odd N so full tiles and the masked remainder tile both run.
        let (k, n) = (13usize, 21usize);
        let a: Vec<f32> = (0..MR * k).map(|i| (i % 7) as f32 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.5 - 1.0).collect();
        // Poisoned output: `first == true` must fully overwrite it.
        let mut out = vec![f32::NAN; MR * n];
        panel(
            &DenseA::new(&a, MR, k),
            &b,
            n,
            0,
            MR,
            0,
            k,
            0,
            n,
            true,
            &mut out,
        );
        for r in 0..MR {
            for j in 0..n {
                let want: f32 = (0..k).map(|kk| a[r * k + kk] * b[kk * n + j]).sum();
                let got = out[r * n + j];
                assert!(
                    (want - got).abs() < 1e-4 * (1.0 + want.abs()),
                    "({r},{j}): {want} vs {got}"
                );
            }
        }
    }

    fn values(len: usize, seed: u64) -> Vec<f32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    /// Runs one block through the portable tile and, where the host has
    /// it, through the AVX2 tile directly — no dispatch, no force-off
    /// switch — and requires equal bits, on a poisoned output so a lane
    /// stored outside `rows × cols` shows.
    fn tiles_agree<A: PanelA>(a: &A, b: &[f32], n: usize, i0: usize, rows: usize, j: usize) {
        let (kk0, kc) = (1, a.depth() - 1);
        let cols = LANES.min(n - j);
        let rb = row_bases(a, i0, rows);
        for first in [true, false] {
            let poison = values(MR * n, 99);
            let mut want = poison.clone();
            check_block(a, b, n, i0, rows, kk0, kc, j + cols, &want);
            tile_portable(a, &rb, rows, b, n, kk0, kc, j, cols, first, &mut want);
            for r in 0..MR {
                for jj in 0..n {
                    let idx = r * n + jj;
                    let inside = r < rows && (j..j + cols).contains(&jj);
                    assert_eq!(
                        want[idx] != poison[idx],
                        inside,
                        "portable wrote ({r},{jj})"
                    );
                }
            }
            #[cfg(target_arch = "x86_64")]
            if available() {
                let mut got = poison.clone();
                // SAFETY: AVX2+FMA verified just above; `check_block`
                // passed for exactly this block.
                unsafe { tile_avx2(a, &rb, rows, b, n, kk0, kc, j, cols, first, &mut got) };
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "rows {rows} cols {cols} first {first}"
                );
            }
        }
    }

    #[test]
    fn avx2_and_portable_tiles_give_equal_bits() {
        let (m, k, n) = (13usize, 37usize, 21usize);
        let b = values(k * n, 2);
        // Dense addressing: full tile, masked column remainder, row tail.
        let dense = values(m * k, 1);
        let a = DenseA::new(&dense, m, k);
        tiles_agree(&a, &b, n, 0, MR, 0);
        tiles_agree(&a, &b, n, 0, MR, 16);
        tiles_agree(&a, &b, n, 8, 5, 8);
        tiles_agree(&a, &b, n, 8, 5, 16);
        // Gathered addressing over the same kind of block.
        let base = values(400, 3);
        let row_off: Vec<u32> = (0..m as u32).map(|i| i * 17 % 90).collect();
        let col_off: Vec<u32> = (0..k as u32).map(|p| p * 29 % 300).collect();
        let g = GatherA::new(&base, &row_off, &col_off).unwrap();
        tiles_agree(&g, &b, n, 0, MR, 0);
        tiles_agree(&g, &b, n, 8, 5, 16);
    }

    #[test]
    fn gather_tables_are_validated_against_the_base() {
        let base = [0.0f32; 10];
        assert!(GatherA::new(&base, &[0, 4], &[0, 5]).is_ok());
        assert_eq!(
            GatherA::new(&base, &[0, 5], &[0, 5]).unwrap_err(),
            TensorError::OffsetOutOfBounds { reach: 10, len: 10 }
        );
        // The sum is taken in u64: two large u32 offsets cannot wrap back
        // into range.
        assert!(GatherA::new(&base, &[u32::MAX], &[u32::MAX]).is_err());
        // Empty tables address nothing, so any base is fine.
        let empty = GatherA::new(&[], &[], &[3]).unwrap();
        assert_eq!((empty.rows(), empty.depth()), (0, 1));
    }

    #[test]
    #[should_panic]
    fn panel_rejects_a_block_outside_its_operands() {
        let a = [0.0f32; 16];
        let b = [0.0f32; 4];
        let mut out = [0.0f32; 16];
        // b has 2 rows of 2; asking for k-block [0, 4) must not reach the
        // tile.
        panel(
            &DenseA::new(&a, 4, 4),
            &b,
            2,
            0,
            4,
            0,
            4,
            0,
            2,
            true,
            &mut out,
        );
    }
}
