//! The fast GEMM backend: cache-blocked, register-blocked, optionally
//! parallel over row panels.

use super::autotune::ShapeClass;
use super::simd::{self, DenseA, GatherA, PanelA};
use super::GemmBackend;
use rayon::prelude::*;

/// Rows of `A`/`C` processed together by the register micro-kernel: `MR`
/// output rows stay resident in registers while one row of `B` streams
/// past, dividing `B` traffic by `MR` relative to the naive loop.
const MR: usize = simd::MR;

/// `K`-dimension cache block: `KC` rows of `B` (`KC × NC` floats) are
/// re-read `MR`-rows-at-a-time while they are hot in L2.
const KC: usize = 256;

/// `N`-dimension cache block: output row segments of `NC` floats (1 KiB)
/// stay in L1 across the `KC` rank-1 updates. A multiple of the widest
/// tile (32 columns), so a block boundary never splits a strip the tile
/// could have taken whole.
const NC: usize = 256;

/// Minimum `M·K·N` before the parallel variant spins up worker threads;
/// below this the spawn/join overhead of the scoped-thread pool outweighs
/// the work (the vendored rayon has no persistent pool). Shared with the
/// autotuner, which only enrols parallel candidates above it.
pub(super) const PAR_MIN_FLOPS: usize = 1 << 19;

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
/// within a panel the `K` and `N` dimensions are tiled `KC × NC` so one
/// `B` tile is reused from cache by all rows of the panel. The first `K`
/// block stores rather than accumulates, so outputs need no zero-fill
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
pub struct BlockedGemm {
    parallel: bool,
    kc: usize,
    nc: usize,
}

/// Runs `work(panel_index, panel_rows)` over `out` split into `MR`-row
/// panels of `n` floats per row. Panels are disjoint output rows, so they
/// may run on separate threads.
fn for_each_panel<F>(parallel: bool, n: usize, out: &mut [f32], work: F)
where
    F: Fn(usize, &mut [f32]) + Send + Sync,
{
    if parallel {
        out.par_chunks_mut(MR * n)
            .enumerate()
            .for_each(|(idx, opanel)| work(idx, opanel));
    } else {
        for (idx, opanel) in out.chunks_mut(MR * n).enumerate() {
            work(idx, opanel);
        }
    }
}

impl BlockedGemm {
    /// Single-threaded variant with the default cache blocking.
    pub const fn serial() -> Self {
        Self::custom(false, KC, NC)
    }

    /// Variant that fans row panels out across threads for large products
    /// (on multi-core hosts; see `fans_out`), default cache blocking.
    pub const fn parallel() -> Self {
        Self::custom(true, KC, NC)
    }

    /// Fully explicit variant — the constructor the autotuner drives with
    /// its candidate plans.
    pub const fn custom(parallel: bool, kc: usize, nc: usize) -> Self {
        assert!(kc > 0 && nc > 0, "cache blocks must be non-zero");
        BlockedGemm { parallel, kc, nc }
    }

    /// Whether a product of this size fans its row panels out across
    /// threads. Requires an actual multi-core host: on a single core the
    /// spawned workers only time-slice, so the spawn/join overhead is pure
    /// loss at any size (the `blocked-parallel < blocked` regression the
    /// benchmarks caught); with the gate `blocked-parallel` degrades to
    /// exactly `blocked` there.
    fn fans_out(&self, m: usize, k: usize, n: usize) -> bool {
        self.parallel && super::host_cores() > 1 && m * k * n >= PAR_MIN_FLOPS
    }

    /// One panel's `K` block `[kk0, kk0+kc)`, `N`-blocked: the only caller
    /// of the micro-kernel.
    #[allow(clippy::too_many_arguments)]
    fn panel_k_block<A: PanelA>(
        &self,
        a: &A,
        b: &[f32],
        n: usize,
        idx: usize,
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
            let nc = self.nc.min(n - jj0);
            simd::panel(a, b, n, idx * MR, rows, kk0, kc, jj0, nc, first, opanel);
            jj0 += nc;
        }
    }

    /// `out (M×N) = A · b (K×N)` for any `A` addressing.
    fn gemm_into<A: PanelA>(&self, a: &A, n: usize, b: &[f32], out: &mut [f32]) {
        let (m, k) = (a.rows(), a.depth());
        assert_eq!(b.len(), k * n, "B operand is not k×n");
        assert_eq!(out.len(), m * n, "output is not m×n");
        // Degenerate products (any zero dimension) are an empty or
        // all-zero result; bail before chunking `out` by `MR * n`, which
        // would panic on a zero chunk size. This is also the only path
        // that zero-fills: the first K block *stores* its tile, so `out`
        // never needs a separate clearing pass.
        if m == 0 || n == 0 || k == 0 {
            out.fill(0.0);
            return;
        }
        let parallel = self.fans_out(m, k, n);
        // Weight-gradient shape: few output rows, enormous K. With panels
        // outermost, every panel would re-stream the whole of `B` from
        // memory. Run K blocks outermost instead — `out` is small enough
        // to stay cached across blocks, so `A` and `B` each stream exactly
        // once — still fanning the panels of each K block across threads
        // on the parallel backend.
        if m * n <= KOUTER_MAX_MN && k * n >= KOUTER_MIN_KN {
            let mut kk0 = 0;
            while kk0 < k {
                let kc = self.kc.min(k - kk0);
                for_each_panel(parallel && m > MR, n, out, |idx, opanel| {
                    self.panel_k_block(a, b, n, idx, kk0, kc, opanel);
                });
                kk0 += kc;
            }
            return;
        }
        for_each_panel(parallel, n, out, |idx, opanel| {
            let mut kk0 = 0;
            while kk0 < k {
                let kc = self.kc.min(k - kk0);
                self.panel_k_block(a, b, n, idx, kk0, kc, opanel);
                kk0 += kc;
            }
        });
    }

    /// `out (M×N) = a (M×K) · b16 (K×N)` where `b16` holds **f16-encoded**
    /// elements (2 bytes each, the [`crate::convert`] wire format) —
    /// convert-on-pack for bandwidth-bound products.
    ///
    /// Instead of decoding all of `B` up front and then streaming it
    /// again through the kernel, each `KC`-row strip of `B` is decoded
    /// into `scratch` right before the panel loop consumes it, while the
    /// strip is hot in cache: `B` crosses the memory bus once at half
    /// width. `scratch` is grow-only (`K·N` floats — only the current
    /// strip's rows are touched per block); `out` is fully overwritten.
    ///
    /// This changes numerics versus an f32 product (inputs round to f16),
    /// so it is a kernel-level opt-in — not part of the autotuner grid.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_b_f16(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b16: &[u8],
        out: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let a = DenseA::new(a, m, k);
        assert_eq!(b16.len(), 2 * k * n, "B operand is not k×n f16");
        assert_eq!(out.len(), m * n, "output is not m×n");
        if m == 0 || n == 0 || k == 0 {
            out.fill(0.0);
            return;
        }
        scratch.resize(k * n, 0.0);
        let parallel = self.fans_out(m, k, n) && m > MR;
        let mut kk0 = 0;
        while kk0 < k {
            let kc = self.kc.min(k - kk0);
            // Decode this strip at its natural offsets so the panel
            // kernels index `scratch` exactly like a full K×N matrix.
            crate::convert::f16_decode_slice(
                &b16[2 * kk0 * n..2 * (kk0 + kc) * n],
                &mut scratch[kk0 * n..(kk0 + kc) * n],
            );
            let b = &scratch[..];
            for_each_panel(parallel, n, out, |idx, opanel| {
                self.panel_k_block(&a, b, n, idx, kk0, kc, opanel);
            });
            kk0 += kc;
        }
    }
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
        if self.parallel {
            "blocked-parallel"
        } else {
            "blocked"
        }
    }

    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        self.gemm_into(&DenseA::new(a, m, k), n, b, out);
    }

    fn gemm_gather(
        &self,
        _class: ShapeClass,
        a: &GatherA<'_>,
        n: usize,
        b: &[f32],
        out: &mut [f32],
        _scratch: &mut Vec<f32>,
    ) {
        self.gemm_into(a, n, b, out);
    }

    fn gemm_at_b(&self, k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        self.gemm_at_b_scratch(k, m, n, a, b, out, &mut Vec::new());
    }

    fn gemm_a_bt(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        self.gemm_a_bt_scratch(m, k, n, a, b, out, &mut Vec::new());
    }

    fn gemm_at_b_scratch(
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
        self.gemm_into(&DenseA::new(pack, m, k), n, b, out);
    }

    fn gemm_a_bt_scratch(
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
        self.gemm_into(&DenseA::new(a, m, k), n, pack, out);
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

    fn assert_matches_naive(m: usize, k: usize, n: usize, backend: &BlockedGemm) {
        let a = mat(m, k, (m * 31 + k) as u64);
        let b = mat(k, n, (k * 17 + n) as u64);
        let naive = NaiveGemm;

        let mut want = vec![0.0f32; m * n];
        let mut got = vec![0.0f32; m * n];
        naive.gemm(m, k, n, &a, &b, &mut want);
        backend.gemm(m, k, n, &a, &b, &mut got);
        for (x, y) in want.iter().zip(&got) {
            assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()), "gemm {x} vs {y}");
        }

        // aᵀ·b with a stored K×M.
        let at = mat(k, m, (m * 7 + k) as u64);
        naive.gemm_at_b(k, m, n, &at, &b, &mut want);
        backend.gemm_at_b(k, m, n, &at, &b, &mut got);
        for (x, y) in want.iter().zip(&got) {
            assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()), "at_b {x} vs {y}");
        }

        // a·bᵀ with b stored N×K.
        let bt = mat(n, k, (n * 13 + k) as u64);
        naive.gemm_a_bt(m, k, n, &a, &bt, &mut want);
        backend.gemm_a_bt(m, k, n, &a, &bt, &mut got);
        for (x, y) in want.iter().zip(&got) {
            assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()), "a_bt {x} vs {y}");
        }
    }

    #[test]
    fn zero_dimension_products_are_empty_or_zero() {
        // (m, 0)·(0, n) is an all-zero (m, n); any zero outer dim is an
        // empty result. Must not panic on the MR-panel chunking.
        for backend in [BlockedGemm::serial(), BlockedGemm::parallel()] {
            let mut out = vec![1.0f32; 6];
            backend.gemm(2, 0, 3, &[], &[], &mut out);
            assert_eq!(out, [0.0; 6]);
            backend.gemm(3, 4, 0, &[0.0; 12], &[], &mut []);
            backend.gemm(0, 4, 3, &[], &[0.0; 12], &mut []);
            backend.gemm_at_b(4, 0, 3, &[], &[0.0; 12], &mut []);
            backend.gemm_a_bt(2, 3, 0, &[0.0; 6], &[], &mut []);
        }
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
            assert_matches_naive(m, k, n, &BlockedGemm::serial());
            assert_matches_naive(m, k, n, &BlockedGemm::parallel());
        }
    }

    #[test]
    fn parallel_threshold_paths_agree() {
        // Just above the parallel threshold with an odd panel remainder.
        assert_matches_naive(131, 65, 67, &BlockedGemm::parallel());
    }

    #[test]
    fn custom_cache_blocks_match_naive() {
        // The autotuner's candidate grid corners, including blocks that
        // force odd kc/nc remainders against the shape.
        for &(kc, nc) in &[(128, 128), (128, 256), (256, 128), (64, 512)] {
            assert_matches_naive(17, 257, 33, &BlockedGemm::custom(false, kc, nc));
            assert_matches_naive(131, 65, 67, &BlockedGemm::custom(true, kc, nc));
        }
    }

    #[test]
    fn f16_convert_on_pack_matches_f16_rounded_product() {
        use crate::convert::{f16_bits_to_f32, f16_encode_slice, f32_to_f16_bits};
        // Spans several KC strips (k = 300 > 256) plus panel remainders.
        let (m, k, n) = (13usize, 300usize, 21usize);
        let a = mat(m, k, 3);
        let b = mat(k, n, 4);
        let mut b16 = vec![0u8; 2 * k * n];
        f16_encode_slice(&b, &mut b16);
        // Oracle: naive product against the *rounded* B — convert-on-pack
        // must match the semantics of decode-then-multiply exactly.
        let b_rounded: Vec<f32> = b
            .iter()
            .map(|&x| f16_bits_to_f32(f32_to_f16_bits(x)))
            .collect();
        let mut want = vec![0.0f32; m * n];
        NaiveGemm.gemm(m, k, n, &a, &b_rounded, &mut want);
        for backend in [BlockedGemm::serial(), BlockedGemm::parallel()] {
            let mut got = vec![f32::NAN; m * n];
            let mut scratch = Vec::new();
            backend.gemm_b_f16(m, k, n, &a, &b16, &mut got, &mut scratch);
            for (x, y) in want.iter().zip(&got) {
                assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()), "f16 {x} vs {y}");
            }
        }
        // Degenerate dims still clear the output.
        let mut out = vec![1.0f32; 4];
        BlockedGemm::serial().gemm_b_f16(2, 0, 2, &[], &[], &mut out, &mut Vec::new());
        assert_eq!(out, [0.0; 4]);
    }
}
