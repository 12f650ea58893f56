//! Pluggable GEMM kernel backends.
//!
//! Every convolution and fully-connected layer in the workspace lowers to
//! one of three matrix products — `A·B`, `Aᵀ·B`, `A·Bᵀ` — so this seam is
//! *the* compute hot path of every training experiment. Fully-connected
//! layers hand over dense operands; convolutions hand over a [`GatherA`]
//! (their patch matrix addressed in place in the padded input, see
//! [`GemmBackend::gemm_gather`]). The [`GemmBackend`] trait abstracts the
//! implementation; three are provided:
//!
//! - [`NaiveGemm`] — the original streaming `i-k-j` loops. Slow but
//!   obviously correct; kept as the reference oracle the fast path is
//!   property-tested against (it materialises a gathered `A`, which makes
//!   the explicit `im2col` lowering the oracle of the gathered one).
//! - [`BlockedGemm`] — cache-blocked with one `MR`-row register-tile
//!   micro-kernel ([`simd`]) instantiated at the host's vector widths
//!   (AVX-512 / AVX2 / portable), optionally parallel over row panels via
//!   rayon (multi-core hosts only; on one core thread fan-out is pure
//!   overhead, so the parallel variant degrades to serial).
//! - [`autotune::AutoGemm`] — dispatches to [`BlockedGemm`] with cache
//!   blocks and a thread strategy benchmarked per shape class at first
//!   use. This is the default.
//!
//! Quantized compute lives alongside: [`int8`] is the `u8×i8→i32` GEMM
//! the frozen-block forward pass runs on cached int8 activations, with
//! its own runtime-dispatched maddubs path in [`simd_int8`].
//!
//! Selection is either explicit (`matmul_with` and friends, or calling a
//! backend directly) or through the process-global default
//! ([`set_global_backend`] / [`global_backend`]), which
//! `NeuroFluxConfig::kernel_backend` and the baseline trainers set at the
//! start of a run. The global default starts as [`KernelBackend::Auto`],
//! so everything runs on the tuned fast path unless a caller opts out.

pub mod autotune;
mod blocked;
pub mod int8;
mod naive;
#[allow(unsafe_code)]
pub mod simd;
#[allow(unsafe_code)]
pub mod simd_int8;

pub use blocked::BlockedGemm;
pub use naive::NaiveGemm;
pub use simd::GatherA;

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU8, Ordering};

/// Number of hardware threads on this host (cached). The parallel kernel
/// paths and the autotuner's candidate grid consult this so thread
/// fan-out only ever happens where a second core actually exists.
pub fn host_cores() -> usize {
    use std::sync::OnceLock;
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// A dense single-precision matrix-multiplication implementation.
///
/// All matrices are row-major, fully packed slices. Implementations
/// overwrite `out` completely; they must not read it.
///
/// # Examples
///
/// Every variant of [`KernelBackend`] resolves to a `GemmBackend`; the fast
/// backends are property-tested against [`NaiveGemm`], so any of them can be
/// called directly on packed row-major slices:
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
    fn gemm_at_b(&self, k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]);

    /// `out (M×N) = a · bᵀ` with `a` stored as `M×K`, `b` as `N×K`.
    fn gemm_a_bt(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]);

    /// `out (M×N) = A · b (K×N)` with `A` a [`GatherA`] — a matrix
    /// addressed through offset tables instead of stored, which is how the
    /// conv layers multiply their patch matrix without building it.
    ///
    /// `class` is the plan-table row the product is tuned and recorded
    /// under by the autotuned backend (the caller knows whether this is a
    /// forward, weight-gradient or input-gradient product and what its
    /// logical dimensions are; the fixed-plan backends ignore it). The
    /// default materialises `A` dense into `scratch` (grow-only) and runs
    /// [`GemmBackend::gemm`]; [`BlockedGemm`] gathers inside its
    /// micro-kernel instead.
    fn gemm_gather(
        &self,
        class: autotune::ShapeClass,
        a: &GatherA<'_>,
        n: usize,
        b: &[f32],
        out: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let _ = class;
        a.materialize_into(scratch);
        self.gemm(a.rows(), a.depth(), n, scratch, b, out);
    }

    /// [`GemmBackend::gemm_at_b`] with a caller-provided pack/transpose
    /// scratch buffer, so steady-state callers (workspaces) avoid the
    /// per-call allocation. The default ignores `pack` and delegates;
    /// backends that materialise a transposed operand override it.
    #[allow(clippy::too_many_arguments)]
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
        let _ = pack;
        self.gemm_at_b(k, m, n, a, b, out);
    }

    /// [`GemmBackend::gemm_a_bt`] with a caller-provided pack/transpose
    /// scratch buffer (see [`GemmBackend::gemm_at_b_scratch`]).
    #[allow(clippy::too_many_arguments)]
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
        let _ = pack;
        self.gemm_a_bt(m, k, n, a, b, out);
    }
}

/// The selectable GEMM implementations, as a plain value that can sit in a
/// config struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KernelBackend {
    /// Reference `i-k-j` loops, single-threaded.
    Naive,
    /// Cache-blocked micro-kernel, single-threaded.
    Blocked,
    /// Cache-blocked micro-kernel, parallel over row panels.
    BlockedParallel,
    /// Cache-blocked micro-kernel with blocking/threading benchmarked per
    /// shape class at first use (see [`autotune`]).
    #[default]
    Auto,
}

static NAIVE: NaiveGemm = NaiveGemm;
static BLOCKED: BlockedGemm = BlockedGemm::serial();
static BLOCKED_PARALLEL: BlockedGemm = BlockedGemm::parallel();
static AUTO: autotune::AutoGemm = autotune::AutoGemm;

impl KernelBackend {
    /// The backend implementation this variant selects.
    pub fn backend(self) -> &'static dyn GemmBackend {
        match self {
            KernelBackend::Naive => &NAIVE,
            KernelBackend::Blocked => &BLOCKED,
            KernelBackend::BlockedParallel => &BLOCKED_PARALLEL,
            KernelBackend::Auto => &AUTO,
        }
    }

    /// Stable name (`naive`, `blocked`, `blocked-parallel`, `auto`).
    pub fn name(self) -> &'static str {
        self.backend().name()
    }

    /// All selectable backends, in `to_u8` order.
    pub fn all() -> [KernelBackend; 4] {
        [
            KernelBackend::Naive,
            KernelBackend::Blocked,
            KernelBackend::BlockedParallel,
            KernelBackend::Auto,
        ]
    }

    fn to_u8(self) -> u8 {
        match self {
            KernelBackend::Naive => 0,
            KernelBackend::Blocked => 1,
            KernelBackend::BlockedParallel => 2,
            KernelBackend::Auto => 3,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => KernelBackend::Naive,
            1 => KernelBackend::Blocked,
            2 => KernelBackend::BlockedParallel,
            _ => KernelBackend::Auto,
        }
    }
}

impl std::str::FromStr for KernelBackend {
    type Err = String;

    /// Parses the stable names produced by [`KernelBackend::name`] (plus
    /// `blocked_parallel` as an alias, since TOML keys often use
    /// underscores).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "naive" => Ok(KernelBackend::Naive),
            "blocked" => Ok(KernelBackend::Blocked),
            "blocked-parallel" | "blocked_parallel" => Ok(KernelBackend::BlockedParallel),
            "auto" => Ok(KernelBackend::Auto),
            other => Err(format!(
                "unknown kernel backend {other:?} (expected naive, blocked, blocked-parallel, or auto)"
            )),
        }
    }
}

static GLOBAL_BACKEND: AtomicU8 = AtomicU8::new(3); // Auto

/// Sets the process-global default backend used by [`crate::matmul`] and
/// friends when no explicit backend is given.
pub fn set_global_backend(backend: KernelBackend) {
    GLOBAL_BACKEND.store(backend.to_u8(), Ordering::Relaxed);
}

/// The current process-global default backend.
pub fn global_backend() -> KernelBackend {
    KernelBackend::from_u8(GLOBAL_BACKEND.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_auto() {
        assert_eq!(KernelBackend::default(), KernelBackend::Auto);
        assert_eq!(KernelBackend::default().name(), "auto");
    }

    #[test]
    fn global_backend_round_trips() {
        let before = global_backend();
        set_global_backend(KernelBackend::Naive);
        assert_eq!(global_backend(), KernelBackend::Naive);
        set_global_backend(before);
        assert_eq!(global_backend(), before);
    }

    #[test]
    fn backend_names_are_distinct() {
        let names = KernelBackend::all().map(KernelBackend::name);
        assert_eq!(names, ["naive", "blocked", "blocked-parallel", "auto"]);
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
        assert_eq!(
            "blocked_parallel".parse::<KernelBackend>(),
            Ok(KernelBackend::BlockedParallel)
        );
        assert!("cuda".parse::<KernelBackend>().is_err());
    }
}
