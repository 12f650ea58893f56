//! The GEMM kernel seam.
//!
//! Every convolution and fully-connected layer in the workspace lowers to
//! one of three matrix products — `A·B`, `Aᵀ·B`, `A·Bᵀ` — so this seam is
//! *the* compute hot path of every training experiment. Fully-connected
//! layers hand over dense operands; convolutions hand over a [`GatherA`]
//! (their patch matrix addressed in place in the padded input, see
//! [`GemmBackend::gemm_gather`]) and a [`Dest`]: the layout the product
//! leaves in, row-major or the NCHW tensor the next layer reads. The
//! [`GemmBackend`] trait abstracts the implementation; two are provided:
//!
//! - [`NaiveGemm`] — the original streaming `i-k-j` loops. Slow but
//!   obviously correct; kept as the reference oracle the fast path is
//!   property-tested against (it materialises a gathered `A` and permutes
//!   a row-major product into NCHW, which makes the explicit `im2col`
//!   lowering and the transposing pass the oracles of the gathered,
//!   NCHW-emitting one).
//! - [`BlockedGemm`] — the production kernel and the default:
//!   cache-blocked with one `MR`-row register-tile micro-kernel ([`simd`])
//!   instantiated at the host's vector widths (AVX-512 / AVX2 / portable).
//!   A stride-1 convolution's NCHW-bound product it may run transposed,
//!   output positions on the vector lanes ([`lanes_fit`],
//!   [`GatherA::with_runs`]).
//!
//! The blocked kernel has **one plan**: the cache blocks [`KC`] and [`NC`]
//! are compile-time constants, and whether a product fans its row panels
//! out across threads is a pure function of the host's core count and the
//! product's shape (`fans_out`, floor [`FAN_OUT_MIN_MACS`]). A product's
//! bits depend only on its `KC` split — every tile and both loop orders do
//! identical per-element arithmetic, and fan-out only distributes disjoint
//! output rows — so with `KC` fixed the same operands give the same bits
//! in every process, at every batch size and on any number of threads.
//!
//! Quantized compute lives alongside: [`int8`] is the `u8×i8→i32` GEMM
//! the frozen-block forward pass runs on cached int8 activations, with
//! its own runtime-dispatched maddubs path in [`simd_int8`] and the same
//! two addressings of `A` (dense rows, or a [`GatherQuads`] over the
//! padded `u8` conv input); it takes its thread decision from the same
//! `fans_out`.
//!
//! Selection is always explicit — a [`KernelBackend`] value handed to
//! `matmul_with` and friends, or pinned on a layer by
//! `Layer::set_kernel_backend` (which is how
//! `NeuroFluxConfig::kernel_backend` and the baseline trainers apply it);
//! there is no process-global selector. Everything that is not told
//! otherwise runs on [`KernelBackend::default`], the blocked kernel.

pub mod autotune;
mod blocked;
pub mod fan;
pub mod int8;
mod naive;
mod nchw;
pub mod simd;
pub mod simd_int8;

pub(crate) use blocked::positions_into;
pub use blocked::{gather_nchw_on_tile, BlockedGemm};
pub use naive::NaiveGemm;
pub use simd::GatherA;
pub use simd_int8::GatherQuads;

/// `K`-dimension cache block of the blocked kernel: `KC` rows of `B`
/// (`KC × NC` floats) are re-read `MR`-rows-at-a-time while they are hot
/// in L2. This constant is what fixes a product's f32 rounding (partial
/// sums are folded into the output once per `K` block), so changing it
/// changes every loss digest.
pub const KC: usize = 256;

/// `N`-dimension cache block of the blocked kernel: output row segments of
/// `NC` floats (1 KiB) stay in L1 across the `KC` rank-1 updates. A
/// multiple of the widest tile (32 columns), so a block boundary never
/// splits a strip the tile could have taken whole. Never changes bits.
pub const NC: usize = 256;

/// Minimum `M·K·N` (multiply-accumulates) before a product fans its row
/// panels out across threads. [`fan::fan`] has no persistent pool — it
/// spawns OS threads per call — so a product has to carry about a
/// millisecond of serial work before the spawn/join pays; measured in
/// EXPERIMENTS.md ("One-plan PR").
pub const FAN_OUT_MIN_MACS: usize = 1 << 26;

/// Number of hardware threads this process may use (read once, cached):
/// the one core count behind every kernel fan-out. Thread fan-out only
/// ever happens where a second core actually exists.
pub fn host_cores() -> usize {
    use std::sync::OnceLock;
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The one thread decision of the f32 and int8 GEMMs: how many workers
/// an `M×K×N` product fans its row panels out on ([`fan::fan`]) — every
/// core from [`FAN_OUT_MIN_MACS`] multiply-accumulates on, else one. Reads
/// nothing but the host's core count and the shape, so it is the same
/// answer in every process on a host; it never changes bits (panels are
/// disjoint output rows). On a single core it is one at any size: spawned
/// workers would only time-slice.
fn fans_out(m: usize, k: usize, n: usize) -> usize {
    if m * k * n >= FAN_OUT_MIN_MACS {
        host_cores()
    } else {
        1
    }
}

/// The orientation rule of a convolution's NCHW-bound product (forward,
/// and the stride-1 input gradient): whether the output positions go on
/// the vector lanes. A stride-1 convolution's output row is a contiguous
/// stretch of its padded input under every tap, so on a host whose vector
/// holds 16 floats ([`simd::vector_lanes`], AVX-512F) a row at least that
/// wide fills every lane of the zmm tiles whatever the channel count,
/// where the gathered orientation leaves all but `C_out` of a tile's 16 or
/// 32 lanes idle — most of them on the 2–8-channel layers local learning
/// trains. Narrower rows keep the gathered orientation, and a strided
/// convolution has no runs.
///
/// Where the vector holds 8 floats (AVX2, portable) the gathered ymm tile
/// already fills its lanes from 8 channels on, and the rule never picks
/// the lanes: with both orientations driven on the ymm tile, the lanes won
/// on products of ≤ 6 output channels (1.02–1.38× on rows ≥ 16 wide),
/// went either way at 8–16 (0.84–1.25×), lost at 32–64 (0.75–0.89×) and
/// lost on nearly every 8..15-wide row (EXPERIMENTS.md "Lane orientation
/// PR", `BENCH_gemm.json` `conv` `gather_ymm_ns` / `lanes_ymm_ns`) — a
/// split only a channel count could make, which this rule does not read.
/// Reads nothing but its arguments and the host's vector width, and never
/// changes bits: both orientations do the same arithmetic per element
/// (DESIGN.md §8).
pub fn lanes_fit(stride: usize, out_w: usize) -> bool {
    let lanes = simd::vector_lanes();
    stride == 1 && lanes >= 16 && out_w >= lanes
}

/// The path rule of a convolution's weight gradient: whether it is built
/// with the output positions as the reduction axis
/// (`ConvGather::wgrad_positions_into`, [`simd::positions_on_tile`]) rather
/// than as the gathered `dWᵀ` product ([`GemmBackend::gemm_gather`] with
/// positions as `K` and the `c_out` output channels on the lanes). At
/// stride 1 an output row is a run of consecutive floats in the output
/// gradient and, under every tap, in the padded input, so its positions
/// can fill the lanes whatever the channel count. Taken where a row holds
/// at least one whole [`simd::POSITION_LANES`] chunk and at least twice as
/// many positions as there are output channels: measured against the
/// gathered stage on rows 16 wide, 2–8 channels run 1.6–2.6× faster, 16
/// break even and 32 run 0.6–0.9×; on rows 32 wide 16 channels run
/// 1.2–1.3× (EXPERIMENTS.md "Positions-axis weight gradient PR").
///
/// Unlike [`lanes_fit`] this choice moves bits — the two paths add the
/// same terms in different orders — so it reads the layer's shape and
/// nothing else: no vector width, no core count. Every tile runs the one
/// order the shape fixes, so a layer gets the same bits on AVX-512, AVX2
/// and portable hosts, at any thread count.
pub fn positions_fit(stride: usize, out_w: usize, c_out: usize) -> bool {
    stride == 1 && out_w >= simd::POSITION_LANES.max(2 * c_out)
}

/// A dense single-precision matrix-multiplication implementation.
///
/// All matrices are row-major, fully packed slices. Implementations
/// overwrite `out` completely; they must not read it.
///
/// # Examples
///
/// Every variant of [`KernelBackend`] resolves to a `GemmBackend`; the
/// blocked kernel is property-tested against [`NaiveGemm`], so either can
/// be called directly on packed row-major slices:
///
/// ```
/// use nf_tensor::kernels::{GemmBackend, KernelBackend};
///
/// // out (2×2) = a (2×3) · b (3×2)
/// let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
/// let b = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
/// let mut out = [0.0f32; 4];
/// let backend: &dyn GemmBackend = KernelBackend::Blocked.backend();
/// backend.gemm(2, 3, 2, &a, &b, &mut out);
/// assert_eq!(out, [4.0, 5.0, 10.0, 11.0]);
/// ```
pub trait GemmBackend: Send + Sync {
    /// Backend name for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// `out (M×N) = a (M×K) · b (K×N)`.
    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]);

    /// `out (M×N) = aᵀ · b` with `a` stored as `K×M`, `b` as `K×N`.
    /// `pack` is a grow-only scratch a backend may transpose an operand
    /// into, so steady-state callers (workspaces) never allocate; backends
    /// that need none ignore it.
    #[allow(clippy::too_many_arguments)]
    fn gemm_at_b(
        &self,
        k: usize,
        m: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        pack: &mut Vec<f32>,
    );

    /// `out (M×N) = a · bᵀ` with `a` stored as `M×K`, `b` as `N×K`; `pack`
    /// as for [`GemmBackend::gemm_at_b`].
    #[allow(clippy::too_many_arguments)]
    fn gemm_a_bt(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        pack: &mut Vec<f32>,
    );

    /// `C (M×N) = A · b (K×N)` with `A` a [`GatherA`] — a matrix
    /// addressed through offset tables instead of stored, which is how the
    /// conv layers multiply their patch matrix without building it —
    /// written to `out` (`M·N` elements) in the layout `dest` names.
    ///
    /// The default materialises `A` dense into `scratch` (grow-only), runs
    /// [`GemmBackend::gemm`] and, for [`Dest::Nchw`], permutes the product
    /// with [`crate::posrows_to_nchw_into`]'s pass — the composition the
    /// conv layers used to make, and so the oracle of [`BlockedGemm`],
    /// which gathers inside its micro-kernel and emits NCHW from the row
    /// panels while they are cache-hot — or, when `A` carries runs
    /// ([`GatherA::with_runs`]), computes the transposed product with the
    /// positions on the vector lanes and stores NCHW directly.
    ///
    /// # Panics
    ///
    /// Panics if `dest` does not fit the product: `M` not whole samples of
    /// `plane` rows, a bias that is not `N` long, or (with runs) a `plane`
    /// that is not whole runs.
    fn gemm_gather(
        &self,
        a: &GatherA<'_>,
        n: usize,
        b: &[f32],
        dest: Dest<'_>,
        out: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let (m, k) = (a.rows(), a.depth());
        a.materialize_into(scratch);
        match dest {
            Dest::RowMajor => self.gemm(m, k, n, scratch, b, out),
            Dest::Nchw { plane, bias } => {
                let samples = nchw_samples(m, n, plane, bias);
                scratch.resize(m * (k + n), 0.0);
                let (dense, rows) = scratch.split_at_mut(m * k);
                self.gemm(m, k, n, dense, b, rows);
                crate::conv::posrows_to_nchw_slice(rows, bias, samples, n, plane, out);
            }
        }
    }
}

/// Where [`GemmBackend::gemm_gather`] puts its product `C (M×N)`.
#[derive(Debug, Clone, Copy)]
pub enum Dest<'a> {
    /// `out` is `C`, row-major.
    RowMajor,
    /// The rows of `C` are `(sample, position)` pairs, `plane` positions to
    /// a sample, and `out` is the NCHW tensor of those samples:
    /// `out[(s·N + j)·plane + p] = C[s·plane + p][j] + bias[j]` — a
    /// convolution's output, bias included, with no position-row copy of
    /// it in between. The bias is added to the finished sum, after its
    /// last `K` block.
    Nchw {
        /// Positions per sample (`OH·OW`).
        plane: usize,
        /// One value per column (output channel), or none.
        bias: Option<&'a [f32]>,
    },
}

/// Checks a [`Dest::Nchw`] against an `m×n` product; returns its samples.
fn nchw_samples(m: usize, n: usize, plane: usize, bias: Option<&[f32]>) -> usize {
    assert!(
        plane > 0 && m.is_multiple_of(plane),
        "{m} rows are not whole samples of {plane}"
    );
    assert!(bias.is_none_or(|b| b.len() == n), "bias is not {n} long");
    m / plane
}

/// The selectable GEMM implementations, as a plain value that can sit in a
/// config struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelBackend {
    /// Reference `i-k-j` loops, single-threaded: the oracle.
    Naive,
    /// Cache-blocked micro-kernel with the one fixed plan (see the module
    /// docs): the production kernel.
    #[default]
    Blocked,
}

static NAIVE: NaiveGemm = NaiveGemm;
static BLOCKED: BlockedGemm = BlockedGemm;

impl KernelBackend {
    /// The backend implementation this variant selects.
    pub fn backend(self) -> &'static dyn GemmBackend {
        match self {
            KernelBackend::Naive => &NAIVE,
            KernelBackend::Blocked => &BLOCKED,
        }
    }

    /// Stable name (`naive`, `blocked`).
    pub fn name(self) -> &'static str {
        self.backend().name()
    }

    /// All selectable backends.
    pub fn all() -> [KernelBackend; 2] {
        [KernelBackend::Naive, KernelBackend::Blocked]
    }
}

impl std::str::FromStr for KernelBackend {
    type Err = String;

    /// Parses the stable names produced by [`KernelBackend::name`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "naive" => Ok(KernelBackend::Naive),
            "blocked" => Ok(KernelBackend::Blocked),
            other => Err(format!(
                "unknown kernel backend {other:?} (expected blocked | naive)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_blocked() {
        assert_eq!(KernelBackend::default(), KernelBackend::Blocked);
        assert_eq!(KernelBackend::default().name(), "blocked");
    }

    #[test]
    fn backend_names_are_distinct() {
        let names = KernelBackend::all().map(KernelBackend::name);
        assert_eq!(names, ["naive", "blocked"]);
    }

    #[test]
    fn host_cores_is_positive_and_stable() {
        assert!(host_cores() >= 1);
        assert_eq!(host_cores(), host_cores());
    }

    #[test]
    fn names_round_trip_through_from_str() {
        for backend in KernelBackend::all() {
            assert_eq!(backend.name().parse::<KernelBackend>(), Ok(backend));
        }
        // The deleted selectors are refused, not aliased.
        for gone in ["auto", "blocked-parallel", "blocked_parallel", "cuda"] {
            let err = gone.parse::<KernelBackend>().unwrap_err();
            assert!(err.contains("blocked | naive"), "{err}");
        }
    }

    #[test]
    fn fan_out_needs_a_second_core_and_a_large_product() {
        assert_eq!(fans_out(2, 2, 2), 1);
        assert_eq!(fans_out(FAN_OUT_MIN_MACS - 1, 1, 1), 1);
        assert_eq!(fans_out(FAN_OUT_MIN_MACS, 1, 1), host_cores());
    }
}
