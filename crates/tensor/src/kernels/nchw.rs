//! Position rows → NCHW, in 8×8 register blocks: how a convolution's
//! product leaves the GEMM in the layout the next layer reads.
//!
//! A conv product has one row per `(sample, position)` and one column per
//! output channel; NCHW wants `out[(sample·N + j)·plane + p]`. [`emit`]
//! moves a band of such rows there [`BLOCK`]×[`BLOCK`] elements at a time:
//! eight row segments are loaded, run through a per-column map (the bias
//! add) while columns are still lanes, transposed as
//! fixed-size arrays — which the compiler keeps in vector registers, as
//! `nf_nn`'s `lanes` module relies on for its reductions — and stored as
//! eight position runs, one per channel.
//! The blocked GEMM calls it on a few row panels at a time while they are
//! still cache-hot ([`super::Dest::Nchw`]). (The int8 forward stores its
//! NCHW runs from the register tile instead, `simd_int8::panel_nchw`.)
//!
//! Column counts that are not a multiple of [`BLOCK`] load the full block
//! anyway — the spare lanes hold the next row's first elements — and store
//! only the live channels, so narrow layers run the same vector code. Only
//! a stretch of positions that ends mid-block (a plane that is not a
//! multiple of eight, a band crossing into the next sample) finishes
//! row by row.

/// Edge of the register block: rows and columns moved together.
pub(crate) const BLOCK: usize = 8;

/// `xs[j0..j0 + BLOCK]`, zero where that runs past the end: the
/// per-column constants of one column block.
pub(crate) fn block_of(xs: &[f32], j0: usize) -> [f32; BLOCK] {
    std::array::from_fn(|c| xs.get(j0 + c).copied().unwrap_or(0.0))
}

/// The `BLOCK` elements of `src` from `at`, zero past the end (only the
/// last rows of `src` can reach it, and only in lanes that are never
/// stored).
fn load_clipped(src: &[f32], at: usize) -> [f32; BLOCK] {
    let mut v = [0.0; BLOCK];
    let tail = &src[at..src.len().min(at + BLOCK)];
    v[..tail.len()].copy_from_slice(tail);
    v
}

/// Writes `rows` rows, `row0..row0 + rows`, of a position-row matrix (the
/// first `rows·n` elements of `src`, row-major, `n` columns) into `out`,
/// the NCHW storage of whole samples of `n` channels × `plane` positions:
/// element `(i, j)` lands at `out[((i / plane)·n + j)·plane + i % plane]`
/// as `map(cols(j0), ·)[j − j0]` of its column block `j0 = j − j % BLOCK`.
/// `cols(j0)` yields that block's per-column constants (see [`block_of`]);
/// `map` is applied to eight neighbouring columns of one row and must be
/// lane-wise. Every addressed element of `out` is written exactly once.
///
/// Elements of `src` past the rows are never stored, but a caller that
/// can leave up to [`BLOCK`] of them there keeps the last rows of a
/// column count that is not a multiple of `BLOCK` on the block path —
/// which is most of a product that is only a few blocks long.
///
/// # Panics
///
/// Panics if `src` is shorter than the rows or the band reaches outside
/// `out`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit<C>(
    src: &[f32],
    n: usize,
    rows: usize,
    row0: usize,
    plane: usize,
    out: &mut [f32],
    cols: impl Fn(usize) -> C,
    map: impl Fn(&C, [f32; BLOCK]) -> [f32; BLOCK],
) {
    if n == 0 {
        return;
    }
    assert!(rows * n <= src.len(), "source is shorter than its rows");
    let end = row0 + rows;
    // One sample's stretch of the band at a time: positions `p0..p1`.
    let mut i = row0;
    while i < end {
        let (sample, p0) = (i / plane, i % plane);
        let p1 = plane.min(p0 + (end - i));
        let first = (i - row0) * n;
        for j0 in (0..n).step_by(BLOCK) {
            let live_cols = BLOCK.min(n - j0);
            let consts = cols(j0);
            let chan0 = (sample * n + j0) * plane;
            let mut p = p0;
            // Whole blocks: eight loads, the map, one transpose, and a
            // fixed-length store per live channel.
            while p + BLOCK <= p1 {
                let at = first + (p - p0) * n + j0;
                let Some(window) = src.get(at..at + (BLOCK - 1) * n + BLOCK) else {
                    break;
                };
                let rows: [[f32; BLOCK]; BLOCK] = std::array::from_fn(|r| {
                    let run = window[r * n..][..BLOCK].try_into();
                    map(&consts, run.expect("a BLOCK-long slice"))
                });
                let chans: [[f32; BLOCK]; BLOCK] =
                    std::array::from_fn(|c| std::array::from_fn(|r| rows[r][c]));
                for (c, run) in chans.iter().enumerate().take(live_cols) {
                    out[chan0 + c * plane + p..][..BLOCK].copy_from_slice(run);
                }
                p += BLOCK;
            }
            // The rim: a stretch that ends mid-block, and the last rows of
            // a `src` without slack, whose spare lanes lie past its end.
            for p in p..p1 {
                let row = map(&consts, load_clipped(src, first + (p - p0) * n + j0));
                for (c, &v) in row.iter().enumerate().take(live_cols) {
                    out[chan0 + c * plane + p] = v;
                }
            }
        }
        i += p1 - p0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `emit` against the definition, element by element, on a poisoned
    /// output: every band of every geometry writes exactly its own
    /// elements.
    #[test]
    fn emit_places_every_element_of_its_band_and_nothing_else() {
        for &(samples, n, plane) in &[
            (3usize, 5usize, 9usize),
            (2, 8, 16),
            (4, 13, 1),
            (1, 2, 64),
            (5, 17, 4),
        ] {
            let m = samples * plane;
            let src: Vec<f32> = (0..m * n).map(|v| v as f32).collect();
            let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.25).collect();
            for (row0, rows) in [(0, m), (1, m - 1), (m / 2, m - m / 2), (m - 1, 1), (0, 1)] {
                let mut out = vec![f32::NAN; m * n];
                emit(
                    &src[row0 * n..(row0 + rows) * n],
                    n,
                    rows,
                    row0,
                    plane,
                    &mut out,
                    |j0| block_of(&bias, j0),
                    |b, v| std::array::from_fn(|c| v[c] + b[c]),
                );
                for i in 0..m {
                    for j in 0..n {
                        let got = out[((i / plane) * n + j) * plane + i % plane];
                        if (row0..row0 + rows).contains(&i) {
                            assert_eq!(got, src[i * n + j] + bias[j], "({i},{j})");
                        } else {
                            assert!(got.is_nan(), "({i},{j}) written by {row0}+{rows}");
                        }
                    }
                }
            }
        }
    }
}
