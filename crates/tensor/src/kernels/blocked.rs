//! The production GEMM: cache-blocked, register-blocked, one fixed plan
//! ([`KC`]/[`NC`] constants, thread fan-out decided by `fans_out`).

use super::fan::{fan, fan_with};
use super::simd::{self, DenseA, GatherA, Lanes, PanelA, Positions, Tile};
use super::{fans_out, nchw, nchw_samples, Dest, GemmBackend, KC, NC};

/// Rows of `A`/`C` processed together by the register micro-kernel: `MR`
/// output rows stay resident in registers while one row of `B` streams
/// past, dividing `B` traffic by `MR` relative to the naive loop.
const MR: usize = simd::MR;

/// Output-size ceiling (elements) for the K-outermost loop order: `C` must
/// stay cache-resident across all `K` blocks. 32K floats = 128 KiB — half
/// an L2 on the smallest hosts we care about.
const KOUTER_MAX_MN: usize = 1 << 15;

/// `B`-size floor (elements) above which re-streaming `B` once per `M`
/// panel (the default loop order) becomes the dominant cost and the
/// K-outermost order pays off.
const KOUTER_MIN_KN: usize = 1 << 16;

/// Cache-blocked GEMM over the [`simd`] register-tile micro-kernel (`MR`
/// rows × 8, 16 or 32 columns, chosen per column strip from the host's
/// vector width).
///
/// Layout: the output is walked in `MR`-row panels (the parallel unit);
/// within a panel the `K` and `N` dimensions are tiled [`KC`] × [`NC`] so
/// one `B` tile is reused from cache by all rows of the panel. The first
/// `K` block stores rather than accumulates, so outputs need no zero-fill
/// pass. There is **one** loop nest, generic over how `A` is addressed
/// (`simd::PanelA`): a dense row-major operand and a convolution's
/// gathered patch matrix ([`GatherA`]) run the same blocking and the same
/// tile.
///
/// `Aᵀ·B` and `A·Bᵀ` are computed by transposing one operand once into
/// the caller's pack scratch (cache-tiled, `O(K·M)` / `O(N·K)` —
/// negligible against the `O(M·K·N)` product) and running the same main
/// kernel, so all three variants share one fast path. Weight-gradient
/// shapes (tiny output, huge `K`) additionally flip to a K-outermost loop
/// order so each operand streams exactly once.
#[derive(Debug)]
pub struct BlockedGemm;

/// Floats of scratch a product bound for [`Dest::Nchw`] accumulates
/// before they are emitted: 16 KiB, so the emit reads them back from L1.
const GROUP_ELEMS: usize = 1 << 12;

/// Rows of such a group at `n` columns: whole panels filling
/// [`GROUP_ELEMS`], at least eight (wider than 64 columns the group
/// outgrows L1 rather than fall below 64 rows, where a group is too little
/// work for its loop overhead). 64 rows at 64 channels, 256 at 16, 680 at
/// 6: narrow layers need the long groups — at 64 rows a 3-column input
/// gradient @64² lost 5–8 % to the pass it replaced, and `N` = 4 forward
/// 5–20 % at 16–32 rows; 16..64 channels measured flat from 32 to 128
/// rows.
fn group_rows(n: usize) -> usize {
    (GROUP_ELEMS / n / MR).max(8) * MR
}

/// Scratch floats of one group: its rows plus the emit's read slack.
fn group_len(n: usize) -> usize {
    group_rows(n) * n + nchw::BLOCK
}

/// The `K` block `[kk0, kk0+kc)` of the panel of rows `i0..` that `opanel`
/// holds, `N`-blocked, each column strip on the tile `pick` names
/// ([`Tile::for_strip`], or one tile the host supports): the only caller of
/// the micro-kernel.
#[allow(clippy::too_many_arguments)]
fn panel_k_block<A: PanelA>(
    pick: impl Fn(usize) -> Tile,
    a: &A,
    b: &[f32],
    n: usize,
    i0: usize,
    kk0: usize,
    kc: usize,
    opanel: &mut [f32],
) {
    let rows = opanel.len() / n;
    // First K block overwrites the (unspecified) output; subsequent
    // blocks accumulate.
    let first = kk0 == 0;
    let mut jj0 = 0;
    while jj0 < n {
        let nc = NC.min(n - jj0);
        simd::panel(&pick, a, b, n, i0, rows, kk0, kc, jj0, nc, first, opanel);
        jj0 += nc;
    }
}

/// `K` blocks outermost over the panels of `opanels` (rows `i0..` of the
/// product): each `B` block is read by every panel while it is cached, and
/// `opanels` has to stay cached across blocks. `pick` as for
/// [`panel_k_block`].
fn k_blocks_outer<A: PanelA>(
    pick: impl Fn(usize) -> Tile + Copy,
    a: &A,
    b: &[f32],
    n: usize,
    i0: usize,
    opanels: &mut [f32],
) {
    let k = a.depth();
    let mut kk0 = 0;
    while kk0 < k {
        let kc = KC.min(k - kk0);
        for (idx, opanel) in opanels.chunks_mut(MR * n).enumerate() {
            panel_k_block(pick, a, b, n, i0 + idx * MR, kk0, kc, opanel);
        }
        kk0 += kc;
    }
}

/// The default loop order: `MR`-row panels outermost, each walking all of
/// `K`, fanned out over `workers`. Panels are disjoint output rows computed
/// by the same code on any worker, so `workers` never changes bits.
fn panels_outer<A: PanelA>(workers: usize, a: &A, n: usize, b: &[f32], out: &mut [f32]) {
    let k = a.depth();
    let panels = out.chunks_mut(MR * n).enumerate();
    fan(workers, panels, |(idx, opanel)| {
        let mut kk0 = 0;
        while kk0 < k {
            let kc = KC.min(k - kk0);
            panel_k_block(Tile::for_strip, a, b, n, idx * MR, kk0, kc, opanel);
            kk0 += kc;
        }
    });
}

/// `out (M×N) = A · b (K×N)` for any `A` addressing.
fn gemm_into<A: PanelA>(a: &A, n: usize, b: &[f32], out: &mut [f32]) {
    let (m, k) = (a.rows(), a.depth());
    assert_eq!(b.len(), k * n, "B operand is not k×n");
    assert_eq!(out.len(), m * n, "output is not m×n");
    // Degenerate products (any zero dimension) are an empty or all-zero
    // result; bail before chunking `out` by `MR * n`, which would panic on
    // a zero chunk size. This is also the only path that zero-fills: the
    // first K block *stores* its tile, so `out` never needs a separate
    // clearing pass.
    if m == 0 || n == 0 || k == 0 {
        out.fill(0.0);
        return;
    }
    let workers = fans_out(m, k, n);
    // Weight-gradient shape: few output rows, enormous K. With panels
    // outermost, every panel would re-stream the whole of `B` from
    // memory. Run K blocks outermost instead — `out` is small enough to
    // stay cached across blocks, so `A` and `B` each stream exactly once.
    // Only for a product that stays on one thread: fanned out, this order
    // would spawn threads once per `K` block (slower than serial on every
    // such shape), where fanned-out panels beat it (EXPERIMENTS.md,
    // "One-plan PR"). Both orders fold the same `KC` blocks into each
    // element in the same order, so the choice never changes bits.
    if workers == 1 && m * n <= KOUTER_MAX_MN && k * n >= KOUTER_MIN_KN {
        return k_blocks_outer(Tile::for_strip, a, b, n, 0, out);
    }
    panels_outer(workers, a, n, b, out);
}

/// Rows `row0..` of `A · b` for the whole samples whose NCHW storage is
/// `out`, [`group_rows`] at a time: a group of panels goes through every
/// `K` block in `group` (one [`group_len`] long), then [`nchw::emit`] moves
/// it to `out` with `bias` added — per element the same `(Σ K blocks) +
/// bias` that a row-major product followed by a transposing pass makes,
/// without the `M×N` buffer in between. Emitting per group rather than
/// per tile keeps the micro-kernel's store contiguous and gives the emit
/// whole cache lines of every channel; emitting per group rather than
/// after the product finds the rows still in L1 (DESIGN.md §8). `pick` as
/// for [`panel_k_block`].
#[allow(clippy::too_many_arguments)]
fn nchw_run<A: PanelA>(
    pick: impl Fn(usize) -> Tile + Copy,
    a: &A,
    n: usize,
    b: &[f32],
    plane: usize,
    bias: Option<&[f32]>,
    row0: usize,
    out: &mut [f32],
    group: &mut [f32],
) {
    let (rows, per_group) = (out.len() / n, group_rows(n));
    for g0 in (0..rows).step_by(per_group) {
        let live = per_group.min(rows - g0);
        let product = &mut group[..live * n];
        if a.depth() == 0 {
            product.fill(0.0);
        }
        k_blocks_outer(pick, a, b, n, row0 + g0, product);
        // With the slack behind it, so the group's last rows stay on the
        // emit's block path at any `n`.
        let src = &group[..live * n + nchw::BLOCK];
        match bias {
            Some(bias) => nchw::emit(
                src,
                n,
                live,
                g0,
                plane,
                out,
                |j0| nchw::block_of(bias, j0),
                |b, v| std::array::from_fn(|c| v[c] + b[c]),
            ),
            None => nchw::emit(src, n, live, g0, plane, out, |_| (), |_, v| v),
        }
    }
}

/// [`nchw_run`] over runs of whole samples, one per worker, side by side:
/// each worker owns one group of `scratch` (one [`group_len`] each). A
/// run's rows are the same dot products wherever its panels start, so
/// `workers` never changes bits; with one worker the groups run over the
/// whole product, across sample boundaries.
#[allow(clippy::too_many_arguments)]
fn nchw_fan<A: PanelA>(
    workers: usize,
    a: &A,
    n: usize,
    b: &[f32],
    plane: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
    scratch: &mut [f32],
) {
    let samples = out.len() / (n * plane);
    let rows = samples.div_ceil(workers.max(1)) * plane;
    let groups = scratch.chunks_mut(group_len(n));
    let runs = out.chunks_mut(rows * n).enumerate();
    fan_with(workers, groups, runs, |group, (r, out)| {
        nchw_run(Tile::for_strip, a, n, b, plane, bias, r * rows, out, group);
    });
}

/// `A · b` written as NCHW (see [`Dest::Nchw`]); `scratch` is grow-only.
fn gemm_nchw_into<A: PanelA>(
    a: &A,
    n: usize,
    b: &[f32],
    plane: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    let (m, k) = (a.rows(), a.depth());
    assert_eq!(b.len(), k * n, "B operand is not k×n");
    assert_eq!(out.len(), m * n, "output is not m×n");
    let samples = nchw_samples(m, n, plane, bias);
    if m == 0 || n == 0 {
        return;
    }
    // Whole samples are the parallel unit: their NCHW storage is disjoint.
    let workers = fans_out(m, k, n).min(samples);
    scratch.resize(workers * group_len(n), 0.0);
    nchw_fan(workers, a, n, b, plane, bias, out, scratch);
}

/// `a · b` written as NCHW in the **gathered orientation**, every column
/// strip on `tile`: the counterpart of [`simd::lanes_on_tile`], so a host
/// can time both orientations on one tile — the ymm tile an AVX2 host
/// runs, on any host that has it (`bench_json`'s `conv` table). Serial;
/// the arguments are those of [`GemmBackend::gemm_gather`] into
/// [`Dest::Nchw`] (runs, if `a` has them, are not used), `scratch`
/// grow-only. Returns `false`, leaving `out` alone, when the host cannot
/// run `tile`.
///
/// # Panics
///
/// As [`GemmBackend::gemm_gather`]: a slice that does not match its
/// dimensions, or a `plane` that is not whole samples.
#[allow(clippy::too_many_arguments)]
pub fn gather_nchw_on_tile(
    tile: Tile,
    a: &GatherA<'_>,
    n: usize,
    b: &[f32],
    plane: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
    scratch: &mut Vec<f32>,
) -> bool {
    let (m, k) = (a.rows(), a.depth());
    assert_eq!(b.len(), k * n, "B operand is not k×n");
    assert_eq!(out.len(), m * n, "output is not m×n");
    nchw_samples(m, n, plane, bias);
    if !tile.supported() {
        return false;
    }
    if m > 0 && n > 0 {
        scratch.resize(group_len(n), 0.0);
        nchw_run(move |_| tile, a, n, b, plane, bias, 0, out, scratch);
    }
    true
}

/// `A · b` as NCHW in the lane orientation (see [`simd::Lanes`]), whole
/// samples fanned out over `workers`: each writes only its own
/// `N × plane` block, so `workers` never changes bits.
fn gemm_lanes_into(workers: usize, lanes: &Lanes<'_>, out: &mut [f32]) {
    let len = lanes.sample_len();
    if len == 0 {
        return;
    }
    fan(workers, out.chunks_mut(len).enumerate(), |(s, chunk)| {
        lanes.sample(Tile::for_run, s, chunk);
    });
}

/// A convolution's weight and bias gradients on the positions axis
/// ([`Positions`]) accumulated into `dw` / `db` on the host's widest tile,
/// `scratch` (grow-only) holding the lane sums. A product that fans out
/// splits its output channels across threads — never its positions, whose
/// order is the sum's — so `fans_out` never changes bits.
pub(crate) fn positions_into(
    p: &Positions<'_>,
    dw: &mut [f32],
    db: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    let c_out = p.c_out();
    scratch.resize(c_out * p.scratch_per_channel(), 0.0);
    let workers = fans_out(c_out, p.positions(), p.taps()).min(c_out.div_ceil(4));
    positions_fan(workers, Tile::for_positions(), p, scratch, dw, db);
}

/// [`Positions::channels`] over runs of output channels, one per worker,
/// side by side: `acc`, `dw` and `db` cut at the same multiple of four
/// channels (the zmm block).
fn positions_fan(
    workers: usize,
    tile: Tile,
    p: &Positions<'_>,
    acc: &mut [f32],
    dw: &mut [f32],
    db: &mut [f32],
) {
    if p.taps() == 0 {
        // No `dW` columns to cut, only the bias gradient.
        return p.channels(tile, 0, acc, dw, db);
    }
    let per = db.len().div_ceil(workers.max(1)).next_multiple_of(4).max(4);
    let accs = acc.chunks_mut(per * p.scratch_per_channel());
    let runs = accs
        .zip(dw.chunks_mut(per * p.taps()))
        .zip(db.chunks_mut(per));
    fan(workers, runs.enumerate(), |(r, ((acc, dw), db))| {
        p.channels(tile, r * per, acc, dw, db);
    });
}

/// Transpose of a packed `rows × cols` matrix into a reusable scratch
/// buffer (grow-only; every element is overwritten), cache-tiled — on the
/// tall im2col operands the at_b/a_bt paths transpose, the tiled walk is
/// several times faster than a strided one.
fn transpose_into(rows: usize, cols: usize, src: &[f32], out: &mut Vec<f32>) {
    out.resize(rows * cols, 0.0);
    crate::matmul::transpose_tiled(rows, cols, src, out);
}

impl GemmBackend for BlockedGemm {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gemm_into(&DenseA::new(a, m, k), n, b, out);
    }

    fn gemm_gather(
        &self,
        a: &GatherA<'_>,
        n: usize,
        b: &[f32],
        dest: Dest<'_>,
        out: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        match dest {
            Dest::RowMajor => gemm_into(a, n, b, out),
            Dest::Nchw { plane, bias } => match Lanes::new(a, n, b, plane, bias, out.len()) {
                Some(lanes) => gemm_lanes_into(fans_out(a.rows(), a.depth(), n), &lanes, out),
                None => gemm_nchw_into(a, n, b, plane, bias, out, scratch),
            },
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
        pack: &mut Vec<f32>,
    ) {
        assert_eq!(a.len(), k * m, "A operand is not k×m");
        transpose_into(k, m, a, pack); // K×M -> M×K
        gemm_into(&DenseA::new(pack, m, k), n, b, out);
    }

    fn gemm_a_bt(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        pack: &mut Vec<f32>,
    ) {
        assert_eq!(b.len(), n * k, "B operand is not n×k");
        transpose_into(n, k, b, pack); // N×K -> K×N
        gemm_into(&DenseA::new(a, m, k), n, pack, out);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{GemmBackend, NaiveGemm};
    use super::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_matches_naive(m: usize, k: usize, n: usize) {
        let a = mat(m, k, (m * 31 + k) as u64);
        let b = mat(k, n, (k * 17 + n) as u64);
        let (naive, backend) = (NaiveGemm, BlockedGemm);

        let mut want = vec![0.0f32; m * n];
        let mut got = vec![0.0f32; m * n];
        naive.gemm(m, k, n, &a, &b, &mut want);
        backend.gemm(m, k, n, &a, &b, &mut got);
        for (x, y) in want.iter().zip(&got) {
            assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()), "gemm {x} vs {y}");
        }

        // aᵀ·b with a stored K×M.
        let at = mat(k, m, (m * 7 + k) as u64);
        naive.gemm_at_b(k, m, n, &at, &b, &mut want, &mut Vec::new());
        backend.gemm_at_b(k, m, n, &at, &b, &mut got, &mut Vec::new());
        for (x, y) in want.iter().zip(&got) {
            assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()), "at_b {x} vs {y}");
        }

        // a·bᵀ with b stored N×K.
        let bt = mat(n, k, (n * 13 + k) as u64);
        naive.gemm_a_bt(m, k, n, &a, &bt, &mut want, &mut Vec::new());
        backend.gemm_a_bt(m, k, n, &a, &bt, &mut got, &mut Vec::new());
        for (x, y) in want.iter().zip(&got) {
            assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()), "a_bt {x} vs {y}");
        }
    }

    #[test]
    fn zero_dimension_products_are_empty_or_zero() {
        // (m, 0)·(0, n) is an all-zero (m, n); any zero outer dim is an
        // empty result. Must not panic on the MR-panel chunking.
        let backend = BlockedGemm;
        let mut out = vec![1.0f32; 6];
        backend.gemm(2, 0, 3, &[], &[], &mut out);
        assert_eq!(out, [0.0; 6]);
        backend.gemm(3, 4, 0, &[0.0; 12], &[], &mut []);
        backend.gemm(0, 4, 3, &[], &[0.0; 12], &mut []);
        backend.gemm_at_b(4, 0, 3, &[], &[0.0; 12], &mut [], &mut Vec::new());
        backend.gemm_a_bt(2, 3, 0, &[0.0; 6], &[], &mut [], &mut Vec::new());
        // The same through the NCHW destination: a `K = 0` product is its
        // bias, an empty one writes nothing.
        let dest = Dest::Nchw {
            plane: 2,
            bias: Some(&[1.5, -2.0, 0.25]),
        };
        let a = GatherA::new(&[], &[0, 0, 0, 0], &[]).unwrap();
        let mut out = [f32::NAN; 12];
        backend.gemm_gather(&a, 3, &[], dest, &mut out, &mut Vec::new());
        assert_eq!(out[..6], [1.5, 1.5, -2.0, -2.0, 0.25, 0.25]);
        assert_eq!(out[..6], out[6..]);
        let a = GatherA::new(&[], &[], &[0]).unwrap();
        backend.gemm_gather(&a, 3, &[0.0; 3], dest, &mut [], &mut Vec::new());
    }

    #[test]
    fn blocked_matches_naive_across_shapes() {
        // Shapes straddling every blocking boundary: panel remainders
        // (m % MR(=8) != 0), K/N smaller and larger than KC/NC, and
        // single-element dims.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (4, 4, 4),
            (5, 300, 7),
            (8, 64, 300),
            (17, 257, 33),
            (64, 512, 9),
        ] {
            assert_matches_naive(m, k, n);
        }
    }

    /// The worker counts every fan-out site is driven at: real threads
    /// spawn on any host, whatever its core count.
    const WORKERS: [usize; 3] = [2, 3, 5];

    #[test]
    fn parallel_threshold_paths_agree() {
        // The thread rule only fires above `FAN_OUT_MIN_MACS` on a
        // multi-core host, so drive the panel loop directly at explicit
        // worker counts: an odd panel remainder (131 = 16·8 + 3), a `K`
        // that splits on `KC` and an `N` that splits on `NC`.
        let (m, k, n) = (131usize, 300usize, 267usize);
        let (a, b) = (mat(m, k, 1), mat(k, n, 2));
        let a = DenseA::new(&a, m, k);
        let on = |workers: usize| {
            let mut out = vec![f32::NAN; m * n];
            panels_outer(workers, &a, n, &b, &mut out);
            out
        };
        let serial = on(1);
        assert!(serial.iter().all(|x| x.is_finite()));
        for workers in WORKERS {
            assert_eq!(bits(&serial), bits(&on(workers)), "{workers} workers");
        }
    }

    #[test]
    fn nchw_runs_agree_with_one_run_and_with_the_transposed_product() {
        // As above for the NCHW destination: the sample runs driven
        // directly at 1, 2, 3 and 5 workers (5 samples of 2·192 + 9 rows
        // at 21 columns: groups that end mid-panel, runs that start off
        // the panel grid), a `K` that splits on `KC`, over a poisoned
        // output.
        let (samples, plane, k, n) = (5usize, 393usize, 300usize, 21usize);
        assert_eq!(group_rows(n), 192);
        let m = samples * plane;
        let (a, b) = (mat(m, k, 5), mat(k, n, 6));
        let bias: Vec<f32> = (0..n).map(|j| j as f32 - 9.5).collect();
        let a = DenseA::new(&a, m, k);
        let on = |workers: usize| {
            let mut out = vec![f32::NAN; m * n];
            let mut scratch = vec![f32::NAN; workers * group_len(n)];
            let bias = Some(&bias[..]);
            nchw_fan(workers, &a, n, &b, plane, bias, &mut out, &mut scratch);
            out
        };
        let serial = on(1);
        for workers in WORKERS {
            assert_eq!(bits(&serial), bits(&on(workers)), "{workers} workers");
        }
        let mut rows = vec![f32::NAN; m * n];
        panels_outer(1, &a, n, &b, &mut rows);
        for (i, row) in rows.chunks(n).enumerate() {
            for (j, (v, bj)) in row.iter().zip(&bias).enumerate() {
                let at = ((i / plane) * n + j) * plane + i % plane;
                assert_eq!(serial[at].to_bits(), (v + bj).to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn lane_samples_agree_at_every_worker_count() {
        // The lane orientation's sample split driven directly at 1, 2, 3
        // and 5 workers: 4 samples of three 20-wide output rows, 2 channels
        // under a 3×3 window, 5 output channels with a bias.
        let (samples, rows_per, run, c, n) = (4usize, 3usize, 20usize, 2usize, 5usize);
        let wp = run + 2;
        let sample = c * (rows_per + 2) * wp;
        let base = mat(samples, sample, 11);
        let origins: Vec<u32> = (0..samples * rows_per)
            .map(|r| ((r / rows_per) * sample + (r % rows_per) * wp) as u32)
            .collect();
        let pos: Vec<u32> = origins
            .iter()
            .flat_map(|&o| (0..run as u32).map(move |x| o + x))
            .collect();
        let taps: Vec<u32> = (0..c * 9)
            .map(|t| (((t / 9) * (rows_per + 2) + t / 3 % 3) * wp + t % 3) as u32)
            .collect();
        let a = GatherA::new(&base, &pos, &taps).unwrap();
        let a = a.with_runs(&origins, run).unwrap();
        let (b, bias) = (mat(taps.len(), n, 12), mat(1, n, 13));
        let (m, plane) = (pos.len(), rows_per * run);
        let lanes = Lanes::new(&a, n, &b, plane, Some(&bias), m * n).unwrap();
        let on = |workers: usize| {
            let mut out = vec![f32::NAN; m * n];
            gemm_lanes_into(workers, &lanes, &mut out);
            out
        };
        let serial = on(1);
        assert!(serial.iter().all(|v| v.is_finite()));
        for workers in WORKERS {
            assert_eq!(bits(&on(workers)), bits(&serial), "{workers} workers");
        }
        // The gathered orientation makes the same bits.
        let mut gathered = vec![f32::NAN; m * n];
        let dest = Dest::Nchw {
            plane,
            bias: Some(&bias),
        };
        let rows = GatherA::new(&base, &pos, &taps).unwrap();
        BlockedGemm.gemm_gather(&rows, n, &b, dest, &mut gathered, &mut Vec::new());
        assert_eq!(bits(&gathered), bits(&serial));
    }

    #[test]
    fn positions_parts_agree_with_one_part() {
        // The channel split driven directly at 1, 2, 3 and 5 workers: 11
        // channels (blocks of 4, 4, 2 and 1), 27 taps, 3 samples of two
        // 37-wide rows (two chunks and a masked tail each), accumulating
        // into prefilled `dW` / `db` over a poisoned scratch.
        use super::super::simd::GatherRuns;
        let (samples, rows_per, run, c, c_out) = (3usize, 2usize, 37usize, 3usize, 11usize);
        let wp = run + 2;
        let sample = c * (rows_per + 2) * wp;
        let base = mat(samples, sample, 7);
        let origins: Vec<u32> = (0..samples * rows_per)
            .map(|r| ((r / rows_per) * sample + (r % rows_per) * wp) as u32)
            .collect();
        let taps: Vec<u32> = (0..c * 9)
            .map(|t| (((t / 9) * (rows_per + 2) + t / 3 % 3) * wp + t % 3) as u32)
            .collect();
        let runs = GatherRuns::new(&base, &taps, &origins, run).unwrap();
        let g = mat(samples * c_out, rows_per * run, 8);
        let p = Positions::new(runs, &g, c_out, rows_per);
        let on = |workers: usize| {
            let (mut dw, mut db) = (mat(c_out, taps.len(), 9), mat(1, c_out, 10));
            let mut acc = vec![f32::NAN; c_out * p.scratch_per_channel()];
            let tile = Tile::for_positions();
            positions_fan(workers, tile, &p, &mut acc, &mut dw, &mut db);
            [dw, db].concat()
        };
        let serial = on(1);
        assert!(serial.iter().all(|v| v.is_finite()));
        for workers in WORKERS {
            assert_eq!(bits(&on(workers)), bits(&serial), "{workers} workers");
        }
        // Through the entry point, which picks the workers itself.
        let (mut dw, mut db) = (mat(c_out, taps.len(), 9), mat(1, c_out, 10));
        positions_into(&p, &mut dw, &mut db, &mut Vec::new());
        assert_eq!(bits(&[dw, db].concat()), bits(&serial));
    }

    #[test]
    fn both_loop_orders_give_the_same_bits() {
        // A weight-gradient shape takes the K-outermost order inside
        // `gemm_into`; the panel-outermost order must fold the same `KC`
        // blocks into each element in the same order.
        let (m, k, n) = (24usize, 2100usize, 40usize);
        assert!(m * n <= KOUTER_MAX_MN && k * n >= KOUTER_MIN_KN);
        let (a, b) = (mat(m, k, 3), mat(k, n, 4));
        let a = DenseA::new(&a, m, k);
        let mut k_outer = vec![f32::NAN; m * n];
        let mut p_outer = vec![f32::NAN; m * n];
        gemm_into(&a, n, &b, &mut k_outer);
        panels_outer(1, &a, n, &b, &mut p_outer);
        assert_eq!(bits(&k_outer), bits(&p_outer));
    }
}
