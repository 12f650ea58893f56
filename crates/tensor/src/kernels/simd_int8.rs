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
//! Together with [`super::simd`] this is one of the **two** modules in
//! `nf-tensor` allowed to use `unsafe` (crate-level `deny(unsafe_code)`
//! with a local allow): the intrinsic function below is gated by
//! [`available`] and touches indices that are in-bounds by the same
//! arithmetic the scalar kernel uses.
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

/// Runs the maddubs micro-kernel over a full [`ROWS`]-row output panel.
///
/// `a` holds `u8` activation rows at stride `k4` (a multiple of 4, tail
/// bytes arbitrary — the matching `B` rows are zero); `bp` is the k-quad
/// interleaved `i8` weight panel from `int8::QuantizedRhs`
/// (`bp[(kq·n + j)·4 + r] = q_w[4·kq + r][j]`); `opanel` is `ROWS` rows
/// of `n` accumulators and is **overwritten**, every column of it (single
/// `K` pass, so no accumulate flag). Returns `false`, with `opanel`
/// untouched, when AVX2 is unavailable and the caller must take the scalar
/// path.
///
/// Crate-private: the index contract (`(i0 + ROWS) · k4 ≤ a.len()`,
/// `bp.len() == k4 · n`, `opanel.len() ≥ ROWS · n`) is enforced by the
/// caller's panel arithmetic in `int8.rs`, not by runtime checks (the
/// debug asserts vanish in release), so this must not be callable from
/// safe code outside the kernel module.
pub(crate) fn panel_u8i8(
    a: &[u8],
    bp: &[i8],
    k4: usize,
    n: usize,
    i0: usize,
    opanel: &mut [i32],
) -> bool {
    if !available() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        let mut j = 0;
        while j < n {
            let cols = COLS.min(n - j);
            // SAFETY: `available()` verified AVX2; tile indices are
            // in-bounds by the caller's contract (checked in debug
            // builds inside the kernel), and `cols` is `NV · 8` for the
            // unmasked instantiations and within `1..NV · 8` otherwise.
            unsafe {
                match cols {
                    COLS => tile_u8i8::<2, true>(a, bp, k4, n, i0, j, cols, opanel),
                    LANES => tile_u8i8::<1, true>(a, bp, k4, n, i0, j, cols, opanel),
                    c if c > LANES => tile_u8i8::<2, false>(a, bp, k4, n, i0, j, cols, opanel),
                    _ => tile_u8i8::<1, false>(a, bp, k4, n, i0, j, cols, opanel),
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
// SAFETY: `unsafe fn` because of `#[target_feature]` — callers must have
// verified AVX2 via `available()` before dispatching here. All loads and
// stores are (mask)`loadu`/`storeu` on slice-derived pointers whose bounds
// the caller guarantees for columns `j..j + cols` (and the debug_asserts
// below re-check).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code, clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn tile_u8i8<const NV: usize, const FULL: bool>(
    a: &[u8],
    bp: &[i8],
    k4: usize,
    n: usize,
    i0: usize,
    j: usize,
    cols: usize,
    opanel: &mut [i32],
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(k4 % 4, 0);
    debug_assert!((i0 + ROWS) * k4 <= a.len());
    debug_assert_eq!(bp.len(), k4 * n);
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
    let ap = a.as_ptr();
    let bpp = bp.as_ptr();
    for kq in 0..k4 / 4 {
        // 32 bytes per vector = 8 columns × 4 interleaved k values each.
        let mut b = [_mm256_setzero_si256(); NV];
        for (v, (bv, &mask)) in b.iter_mut().zip(&masks).enumerate() {
            // Wrapping: a fully masked-out vector may start past the row.
            let src = bpp.wrapping_add((kq * n + j + v * LANES) * 4);
            *bv = if FULL {
                _mm256_loadu_si256(src as *const __m256i)
            } else {
                _mm256_maskload_epi32(src as *const i32, mask)
            };
        }
        for (r, accr) in acc.iter_mut().enumerate() {
            // Broadcast 4 consecutive u8 activations of row i0+r as one
            // i32 lane pattern, matching the quad interleave of B.
            let aw = (ap.add((i0 + r) * k4 + 4 * kq) as *const i32).read_unaligned();
            let av = _mm256_set1_epi32(aw);
            for (o, &bv) in accr.iter_mut().zip(&b) {
                // u8×i8 pairwise multiply-add; never saturates because the
                // packer clamps weights to ±63 (see module docs).
                let pairs = _mm256_maddubs_epi16(av, bv);
                *o = _mm256_add_epi32(*o, _mm256_madd_epi16(pairs, ones));
            }
        }
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
            if !panel_u8i8(&a, bp, k4, n, 0, &mut out[..ROWS * n]) {
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
}
