//! The blocked GEMM's register micro-kernel: one `MR`-row FMA tile,
//! written once, instantiated at every vector width the host may have and
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
//! Both run the same tile body (`tile`), generic over a `Vector` — the
//! handful of operations it needs from a register — and the number of
//! vectors per output row. It has four instantiations ([`Tile`]):
//!
//! | tile | registers per row | columns | needs |
//! |---|---|---|---|
//! | [`Tile::ZmmPair`] | 2 × `__m512` | 32 | AVX-512F |
//! | [`Tile::Zmm`] | 1 × `__m512`, `__mmask16` tail | 1..=16 | AVX-512F |
//! | [`Tile::Ymm`] | 1 × `__m256`, lane-mask tail | 1..=8 | AVX2 + FMA |
//! | [`Tile::Portable`] | `[f32; 8]`, `f32::mul_add` | 1..=8 | — |
//!
//! `panel` walks a cache block in column strips and picks the tile **per
//! strip** from two things it can observe — the CPU (detected once at
//! runtime) and how many columns remain ([`Tile::for_strip`]): the zmm pair
//! while ≥ 32 remain, one masked zmm for 9..=31, the ymm tile for a strip
//! of ≤ 8 (a masked zmm would waste half its lanes there: 16→8 @32² runs
//! 69 GFLOP/s on ymm against 62 on a masked zmm), the portable tile on
//! hosts with neither. There is no setting that selects a width.
//!
//! Every tile — and every remainder case: masked columns, clamped rows for
//! the last `M % MR` rows — performs the same per-element arithmetic (a
//! zeroed accumulator, one fused multiply-add per `k` in order, one store
//! or add per cache block), so a blocked product's bits depend only on its
//! `KC` split, never on which tile or which remainder path computed an
//! element. Width only changes how many elements share an instruction.
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

/// Columns of the narrowest tiles (`f32x8`: ymm and portable). A strip of
/// at most this many columns always runs one of them.
pub const LANES: usize = 8;

/// The widest vector ISA the tiles may use on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Isa {
    Portable,
    /// AVX2 + FMA.
    Avx2,
    /// AVX2 + FMA + AVX-512F.
    Avx512,
}

/// Cached runtime detection (always `Portable` off x86_64).
fn isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static ISA: OnceLock<Isa> = OnceLock::new();
        *ISA.get_or_init(|| {
            if !(std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma"))
            {
                Isa::Portable
            } else if std::arch::is_x86_feature_detected!("avx512f") {
                Isa::Avx512
            } else {
                Isa::Avx2
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Isa::Portable
    }
}

/// Whether an explicit-SIMD tile can run on this host (cached runtime
/// detection of AVX2 + FMA; always `false` off x86_64).
pub fn available() -> bool {
    isa() >= Isa::Avx2
}

/// Name of the widest vector the dispatcher uses on this host, for
/// benchmark artifacts and reports.
pub fn kernel_name() -> &'static str {
    match isa() {
        Isa::Avx512 => Tile::Zmm.name(),
        Isa::Avx2 => Tile::Ymm.name(),
        Isa::Portable => Tile::Portable.name(),
    }
}

/// One instantiation of the register tile (see the module docs). Every
/// tile computes a strip of `1..=width()` columns; narrower strips run
/// behind its lane mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tile {
    /// `[f32; 8]` with `f32::mul_add`: the fallback and the oracle.
    Portable,
    /// One `__m256` per row.
    Ymm,
    /// One `__m512` per row.
    Zmm,
    /// Two `__m512` per row: 16 accumulators, 2 `B` vectors and the `A`
    /// broadcast of the 32 zmm registers.
    ZmmPair,
}

impl Tile {
    /// Every tile, narrowest first.
    pub const ALL: [Tile; 4] = [Tile::Portable, Tile::Ymm, Tile::Zmm, Tile::ZmmPair];

    /// Name for benchmark artifacts and test output.
    pub fn name(self) -> &'static str {
        match self {
            Tile::Portable => "scalar-unrolled",
            Tile::Ymm => "f32x8-fma",
            Tile::Zmm => "f32x16-fma",
            Tile::ZmmPair => "2xf32x16-fma",
        }
    }

    /// Columns of one full tile.
    fn width(self) -> usize {
        match self {
            Tile::Portable | Tile::Ymm => LANES,
            Tile::Zmm => 16,
            Tile::ZmmPair => 32,
        }
    }

    /// Whether this host can run the tile.
    pub fn supported(self) -> bool {
        let needs = match self {
            Tile::Portable => Isa::Portable,
            Tile::Ymm => Isa::Avx2,
            Tile::Zmm | Tile::ZmmPair => Isa::Avx512,
        };
        isa() >= needs
    }

    /// The tile `panel` runs next when `remaining ≥ 1` columns of a cache
    /// block are left on this host — the whole dispatch rule.
    pub fn for_strip(remaining: usize) -> Tile {
        match isa() {
            Isa::Avx512 if remaining >= Tile::ZmmPair.width() => Tile::ZmmPair,
            Isa::Avx512 if remaining > LANES => Tile::Zmm,
            Isa::Portable => Tile::Portable,
            Isa::Avx2 | Isa::Avx512 => Tile::Ymm,
        }
    }
}

/// Addressing of the micro-kernel's `A` operand:
/// `A(i, p) = data()[row(i) + col(p)]` for `i < rows()`, `p < depth()`.
///
/// Implementors guarantee that every such index is inside `data()`; the
/// tiles read through it unchecked. Both implementors live in this
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
    /// contract, checked here because the tiles read unchecked.
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
/// row-major), one column strip at a time on the tile [`Tile::for_strip`]
/// picks. `opanel` holds those output rows, `n` floats each. With `first`
/// set the block **stores** its result (the output may hold garbage from
/// buffer reuse); otherwise it accumulates.
///
/// # Panics
///
/// Panics if the block reaches outside `a`, `b` or `opanel` — the loop
/// nest in `blocked.rs` never asks for that, and the tiles rely on it.
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
    panel_with(
        Tile::for_strip,
        a,
        b,
        n,
        i0,
        rows,
        kk0,
        kc,
        jj0,
        nc,
        first,
        opanel,
    );
}

/// `out (M×N) = a (M×K) · b (K×N)` with **every** column strip on `tile`:
/// how the tests and `bench_json` compare tiles — each driven directly on
/// the same operands, not through a switch in the dispatcher. One `K`
/// block, no `N` blocking, serial, so for `k ≤ KC` the bits are the blocked
/// backend's. Returns `false`, leaving `out` alone, when the host cannot
/// run `tile`.
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
pub fn gemm_on_tile(
    tile: Tile,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) -> bool {
    let a = DenseA::new(a, m, k);
    assert_eq!(b.len(), k * n, "B operand is not k×n");
    assert_eq!(out.len(), m * n, "output is not m×n");
    if !tile.supported() {
        return false;
    }
    if n > 0 {
        for (idx, opanel) in out.chunks_mut(MR * n).enumerate() {
            let rows = opanel.len() / n;
            panel_with(|_| tile, &a, b, n, idx * MR, rows, 0, k, 0, n, true, opanel);
        }
    }
    true
}

/// [`panel`] with the strip rule as a parameter: `pick(remaining)` names
/// the tile for the next strip and must only name tiles the host supports
/// ([`Tile::for_strip`] and [`gemm_on_tile`] both guarantee it).
#[allow(clippy::too_many_arguments)]
fn panel_with<A: PanelA>(
    pick: impl Fn(usize) -> Tile,
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
    let j_end = jj0 + nc;
    check_block(a, b, n, i0, rows, kk0, kc, j_end, opanel);
    let mut strip = Strip {
        a,
        rb: row_bases(a, i0, rows),
        rows,
        b,
        n,
        kk0,
        kc,
        j: jj0,
        cols: 0,
        first,
    };
    while strip.j < j_end {
        let tile = pick(j_end - strip.j);
        debug_assert!(tile.supported());
        strip.cols = tile.width().min(j_end - strip.j);
        // SAFETY: `pick` only names tiles this host supports (see above).
        // `check_block` proved rows `kk0..kk0+kc` of `b` and `rows` rows of
        // `opanel` exist and that columns `j..j+cols` (`≤ j_end`) lie
        // inside a row of each; `rb` holds offsets of rows `< a.rows()`
        // and the tile takes its column offsets from `a.cols(kk0, kc)`
        // with `kk0+kc ≤ a.depth()`, so every `A` read is one the `PanelA`
        // contract puts inside `a.data()`. `1 ≤ cols ≤ tile.width()`.
        unsafe { tile.run(&strip, opanel) };
        strip.j += strip.cols;
    }
}

/// The range checks every tile relies on (see [`panel`]); `j_end` is the
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

/// One column strip of one panel's cache block — everything a tile reads:
/// rows `rb` (`rows` of them live) of `a` against rows `kk0..kk0+kc`,
/// columns `j..j+cols` of `b` (`n` floats per row, as in the output).
struct Strip<'a, A> {
    a: &'a A,
    rb: [usize; MR],
    rows: usize,
    b: &'a [f32],
    n: usize,
    kk0: usize,
    kc: usize,
    j: usize,
    cols: usize,
    first: bool,
}

/// What the tile body needs from one vector register of `LANES` floats.
/// Implemented for `[f32; 8]` (portable), `__m256` and `__m512`; every
/// operation is lane-wise, and `fma` rounds once, so a lane's value never
/// depends on the implementor.
///
/// # Safety
///
/// Every method is `unsafe`: the x86 implementors execute instructions the
/// host must have (AVX2 + FMA for `__m256`, AVX-512F for `__m512`), so
/// they may only be called — and, being `#[inline(always)]`, are only ever
/// compiled — inside a function carrying that `#[target_feature]`.
/// `load`/`store` additionally need `p` valid for the lanes they touch:
/// all `LANES` when `FULL`, the mask's live lanes otherwise (a masked-out
/// lane is neither read nor written, so `p` may run past the buffer
/// there).
trait Vector: Copy {
    const LANES: usize;
    /// Selects the first `cols` lanes.
    type Mask: Copy;
    /// Lanes `< cols` live (`cols` may exceed `LANES`).
    // SAFETY: see the trait's `# Safety` section (all seven methods).
    unsafe fn mask(cols: usize) -> Self::Mask;
    unsafe fn zero() -> Self;
    unsafe fn splat(x: f32) -> Self;
    /// Masked-out lanes read as zero; `mask` is ignored when `FULL`.
    unsafe fn load<const FULL: bool>(p: *const f32, mask: Self::Mask) -> Self;
    // SAFETY: as above.
    unsafe fn store<const FULL: bool>(p: *mut f32, mask: Self::Mask, v: Self);
    /// `a · b + acc`, fused.
    unsafe fn fma(a: Self, b: Self, acc: Self) -> Self;
    unsafe fn add(a: Self, b: Self) -> Self;
}

// SAFETY: no ISA requirement; the pointer contract is the trait's. The
// mask is the live-lane count.
impl Vector for [f32; LANES] {
    const LANES: usize = LANES;
    type Mask = usize;
    #[inline(always)]
    unsafe fn mask(cols: usize) -> usize {
        cols.min(LANES)
    }
    #[inline(always)]
    unsafe fn zero() -> Self {
        [0.0; LANES]
    }
    // SAFETY: plain value code.
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        [x; LANES]
    }
    #[inline(always)]
    unsafe fn load<const FULL: bool>(p: *const f32, live: usize) -> Self {
        let mut v = [0.0; LANES];
        let live = if FULL { LANES } else { live };
        std::ptr::copy_nonoverlapping(p, v.as_mut_ptr(), live);
        v
    }
    // SAFETY: `p` is valid for the `live` lanes copied (trait contract).
    #[inline(always)]
    unsafe fn store<const FULL: bool>(p: *mut f32, live: usize, v: Self) {
        let live = if FULL { LANES } else { live };
        std::ptr::copy_nonoverlapping(v.as_ptr(), p, live);
    }
    #[inline(always)]
    unsafe fn fma(a: Self, b: Self, acc: Self) -> Self {
        std::array::from_fn(|l| a[l].mul_add(b[l], acc[l]))
    }
    // SAFETY: plain value code.
    #[inline(always)]
    unsafe fn add(a: Self, b: Self) -> Self {
        std::array::from_fn(|l| a[l] + b[l])
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Vector;
    use std::arch::x86_64::*;

    // SAFETY: callers hold AVX2 + FMA (trait contract). `maskload` /
    // `maskstore` neither touch nor fault on a lane whose mask sign bit is
    // clear.
    impl Vector for __m256 {
        const LANES: usize = 8;
        /// All-ones (sign bit set = selected) in live lanes.
        type Mask = __m256i;
        #[inline(always)]
        unsafe fn mask(cols: usize) -> __m256i {
            let cols = cols.min(8) as i32;
            _mm256_cmpgt_epi32(
                _mm256_set1_epi32(cols),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            )
        }
        // SAFETY: register-only intrinsics under the ISA contract.
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm256_set1_ps(x)
        }
        // SAFETY: `p` is valid for the lanes read (trait contract).
        #[inline(always)]
        unsafe fn load<const FULL: bool>(p: *const f32, mask: __m256i) -> Self {
            if FULL {
                _mm256_loadu_ps(p)
            } else {
                _mm256_maskload_ps(p, mask)
            }
        }
        // SAFETY: `p` is valid for the lanes written (trait contract).
        #[inline(always)]
        unsafe fn store<const FULL: bool>(p: *mut f32, mask: __m256i, v: Self) {
            if FULL {
                _mm256_storeu_ps(p, v)
            } else {
                _mm256_maskstore_ps(p, mask, v)
            }
        }
        // SAFETY: register-only intrinsics under the ISA contract.
        #[inline(always)]
        unsafe fn fma(a: Self, b: Self, acc: Self) -> Self {
            _mm256_fmadd_ps(a, b, acc)
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            _mm256_add_ps(a, b)
        }
    }

    // SAFETY: callers hold AVX-512F (trait contract). A `k`-masked load or
    // store suppresses both the access and the fault in masked-out lanes.
    impl Vector for __m512 {
        const LANES: usize = 16;
        /// Bit `l` set = lane `l` live.
        type Mask = __mmask16;
        #[inline(always)]
        unsafe fn mask(cols: usize) -> __mmask16 {
            if cols >= 16 {
                !0
            } else {
                (1 << cols) - 1
            }
        }
        // SAFETY: register-only intrinsics under the ISA contract.
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm512_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm512_set1_ps(x)
        }
        // SAFETY: `p` is valid for the lanes read (trait contract).
        #[inline(always)]
        unsafe fn load<const FULL: bool>(p: *const f32, mask: __mmask16) -> Self {
            if FULL {
                _mm512_loadu_ps(p)
            } else {
                _mm512_maskz_loadu_ps(mask, p)
            }
        }
        // SAFETY: `p` is valid for the lanes written (trait contract).
        #[inline(always)]
        unsafe fn store<const FULL: bool>(p: *mut f32, mask: __mmask16, v: Self) {
            if FULL {
                _mm512_storeu_ps(p, v)
            } else {
                _mm512_mask_storeu_ps(p, mask, v)
            }
        }
        // SAFETY: register-only intrinsics under the ISA contract.
        #[inline(always)]
        unsafe fn fma(a: Self, b: Self, acc: Self) -> Self {
            _mm512_fmadd_ps(a, b, acc)
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            _mm512_add_ps(a, b)
        }
    }
}

/// **The** tile: `MR` rows × `NV` vectors of accumulators over a `kc`-deep
/// cache block. Per `k` iteration that is `NV` loads of `B`, `MR`
/// broadcasts of `A` and `MR·NV` FMAs, all accumulators resident: 8 + 2 of
/// the 16 ymm registers at `NV = 1`, 16 + 3 of the 32 zmm registers at
/// `NV = 2`. `FULL` compiles the strip of exactly `NV·LANES` columns
/// without lane masks, keeping the hot inner loop at loads, broadcast-FMAs
/// and counters; otherwise vector `v` of a row runs behind a mask of the
/// strip's columns that fall in it.
///
/// # Safety
///
/// As [`Tile::run`], with `V`'s ISA in force in the (inlining) caller and
/// `cols == NV·LANES` when `FULL`.
// SAFETY: `unsafe fn` for `V`'s ISA requirement and the unchecked pointer
// accesses; the contract is the `# Safety` section above.
#[inline(always)]
unsafe fn tile<V: Vector, const NV: usize, const FULL: bool, A: PanelA>(
    s: &Strip<'_, A>,
    opanel: &mut [f32],
) {
    let (n, j) = (s.n, s.j);
    let mut masks = [V::mask(0); NV];
    for (v, mask) in masks.iter_mut().enumerate() {
        *mask = V::mask(s.cols.saturating_sub(v * V::LANES));
    }
    let mut acc = [[V::zero(); NV]; MR];
    let ap = s.a.data().as_ptr();
    // One base pointer per panel row (each `rb[r]` alone is in bounds),
    // so the inner loop addresses `A` as `row + c` with `c` shared.
    let rows_at: [*const f32; MR] = std::array::from_fn(|r| ap.add(s.rb[r]));
    let mut bsrc = s.b.as_ptr().add(s.kk0 * n + j);
    for c in s.a.cols(s.kk0, s.kc) {
        let mut brow = [V::zero(); NV];
        for (v, (bv, &mask)) in brow.iter_mut().zip(&masks).enumerate() {
            // Wrapping: a fully masked-out vector may start past the row.
            *bv = V::load::<FULL>(bsrc.wrapping_add(v * V::LANES), mask);
        }
        for (accr, row) in acc.iter_mut().zip(rows_at) {
            let av = V::splat(*row.add(c));
            for (o, &bv) in accr.iter_mut().zip(&brow) {
                *o = V::fma(av, bv, *o);
            }
        }
        // Wrapping: after the last `k` this may point past the end of `b`,
        // where it is never dereferenced.
        bsrc = bsrc.wrapping_add(n);
    }
    let op = opanel.as_mut_ptr();
    for (r, accr) in acc.iter().enumerate().take(s.rows) {
        for (v, (&sum, &mask)) in accr.iter().zip(&masks).enumerate() {
            let dst = op.wrapping_add(r * n + j + v * V::LANES);
            let value = if s.first {
                sum
            } else {
                V::add(V::load::<FULL>(dst, mask), sum)
            };
            V::store::<FULL>(dst, mask, value);
        }
    }
}

/// [`tile`] at `NV` vectors of `V`, unmasked when the strip fills it.
///
/// # Safety
///
/// As [`tile`].
// SAFETY: same contract as `tile`, which it only forwards to.
#[inline(always)]
unsafe fn tile_any<V: Vector, const NV: usize, A: PanelA>(s: &Strip<'_, A>, opanel: &mut [f32]) {
    if s.cols == NV * V::LANES {
        tile::<V, NV, true, A>(s, opanel)
    } else {
        tile::<V, NV, false, A>(s, opanel)
    }
}

// SAFETY: `unsafe fn` because of `#[target_feature]`: the caller
// (`Tile::run`) must have AVX2 + FMA. This is where the `__m256`
// instantiation of `tile` is compiled with that ISA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile_ymm<A: PanelA>(s: &Strip<'_, A>, opanel: &mut [f32]) {
    tile_any::<std::arch::x86_64::__m256, 1, A>(s, opanel)
}

// SAFETY: `unsafe fn` because of `#[target_feature]`: the caller
// (`Tile::run`) must have AVX-512F. This is where the `__m512`
// instantiations of `tile` are compiled with that ISA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_zmm<const NV: usize, A: PanelA>(s: &Strip<'_, A>, opanel: &mut [f32]) {
    tile_any::<std::arch::x86_64::__m512, NV, A>(s, opanel)
}

impl Tile {
    /// Runs this tile over one strip of `opanel`.
    ///
    /// # Safety
    ///
    /// The host must support the tile ([`Tile::supported`]),
    /// [`check_block`] must hold for the strip's block with
    /// `j + cols ≤ j_end`, and `1 ≤ cols ≤ self.width()`.
    // SAFETY: `unsafe fn` because the tiles read and write unchecked and
    // execute ISA-gated instructions; `panel_with` is the only caller.
    unsafe fn run<A: PanelA>(self, s: &Strip<'_, A>, opanel: &mut [f32]) {
        match self {
            Tile::Portable => tile_any::<[f32; LANES], 1, A>(s, opanel),
            #[cfg(target_arch = "x86_64")]
            Tile::Ymm => tile_ymm(s, opanel),
            #[cfg(target_arch = "x86_64")]
            Tile::Zmm => tile_zmm::<1, A>(s, opanel),
            #[cfg(target_arch = "x86_64")]
            Tile::ZmmPair => tile_zmm::<2, A>(s, opanel),
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("no SIMD tile is supported off x86_64"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_name_matches_availability() {
        let want = if Tile::Zmm.supported() {
            "f32x16-fma"
        } else if available() {
            "f32x8-fma"
        } else {
            "scalar-unrolled"
        };
        assert_eq!(kernel_name(), want);
        assert_eq!(available(), Tile::Ymm.supported());
        assert!(Tile::Portable.supported());
        // CI runs this test with --nocapture so a log names the tiles its
        // runner exercised.
        let tiles: Vec<&str> = Tile::ALL
            .iter()
            .filter(|t| t.supported())
            .map(|t| t.name())
            .collect();
        println!(
            "f32 kernel: {} (tiles on this host: {tiles:?})",
            kernel_name()
        );
    }

    #[test]
    fn strip_rule_keeps_narrow_strips_on_the_narrow_tile() {
        for remaining in 1..=100 {
            let tile = Tile::for_strip(remaining);
            assert!(tile.supported(), "{tile:?} picked for {remaining}");
            let want = if !available() {
                Tile::Portable
            } else if !Tile::Zmm.supported() || remaining <= LANES {
                Tile::Ymm
            } else if remaining < 32 {
                Tile::Zmm
            } else {
                Tile::ZmmPair
            };
            assert_eq!(tile, want, "{remaining} columns remaining");
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The tiles this host can run besides the portable one; a missing ISA
    /// is printed, not passed over silently.
    fn simd_tiles() -> Vec<Tile> {
        let (have, missing): (Vec<Tile>, Vec<Tile>) =
            Tile::ALL[1..].iter().partition(|t| t.supported());
        if !missing.is_empty() {
            println!("skipping {missing:?}: this host lacks their ISA");
        }
        have
    }

    /// Runs the block `rows × [j0, j0+nc)` over `k ∈ [1, depth)` with every
    /// strip on one tile — no dispatch, no force-off switch — for each tile
    /// the host has, and requires the portable tile's bits from all of
    /// them, on a poisoned output so a lane stored outside the block shows.
    fn tiles_agree<A: PanelA>(a: &A, b: &[f32], n: usize, i0: usize, tiles: &[Tile]) {
        let (kk0, kc) = (1, a.depth() - 1);
        let j0 = 2;
        for rows in 1..=MR.min(a.rows() - i0) {
            for nc in 1..=40 {
                for first in [true, false] {
                    let poison = values(MR * n, 99);
                    let on = |tile: Tile| {
                        let mut out = poison.clone();
                        panel_with(
                            |_| tile,
                            a,
                            b,
                            n,
                            i0,
                            rows,
                            kk0,
                            kc,
                            j0,
                            nc,
                            first,
                            &mut out,
                        );
                        out
                    };
                    let want = on(Tile::Portable);
                    for (idx, (w, p)) in want.iter().zip(&poison).enumerate() {
                        let (r, jj) = (idx / n, idx % n);
                        let inside = r < rows && (j0..j0 + nc).contains(&jj);
                        assert_eq!(w != p, inside, "portable wrote ({r},{jj})");
                    }
                    for &tile in tiles {
                        assert_eq!(
                            bits(&on(tile)),
                            bits(&want),
                            "{tile:?} rows {rows} cols {nc} first {first}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_tile_gives_equal_bits() {
        let tiles = simd_tiles();
        let (m, k, n) = (13usize, 37usize, 45usize);
        let b = values(k * n, 2);
        // Dense addressing: full tiles, masked column remainders, clamped
        // rows; the second panel also has a 5-row tail.
        let dense = values(m * k, 1);
        let a = DenseA::new(&dense, m, k);
        tiles_agree(&a, &b, n, 0, &tiles);
        tiles_agree(&a, &b, n, 8, &tiles);
        // Gathered addressing over the same kind of block.
        let base = values(400, 3);
        let row_off: Vec<u32> = (0..m as u32).map(|i| i * 17 % 90).collect();
        let col_off: Vec<u32> = (0..k as u32).map(|p| p * 29 % 300).collect();
        let g = GatherA::new(&base, &row_off, &col_off).unwrap();
        tiles_agree(&g, &b, n, 0, &tiles);
        tiles_agree(&g, &b, n, 8, &tiles);
    }

    #[test]
    fn masked_tiles_leave_their_neighbours_alone() {
        // The strip ends at the last column of the last row of both `b`
        // and the output, so a masked lane that was read or written anyway
        // would land in the guard floats that follow each slice: NaNs
        // behind `b` (they would poison the sums), a sentinel behind the
        // output, and the columns left of the strip.
        const GUARD: usize = 32;
        let (k, n) = (9usize, 43usize);
        let dense = values(MR * k, 4);
        let a = DenseA::new(&dense, MR, k);
        let mut b = values(k * n, 5);
        b.extend([f32::NAN; GUARD]);
        let b = &b[..k * n];
        let mut tiles = simd_tiles();
        tiles.push(Tile::Portable);
        for tile in tiles {
            for nc in 1..=40 {
                for first in [true, false] {
                    let j0 = n - nc;
                    let mut out = vec![7.0f32; MR * n + GUARD];
                    let run = |tile: Tile, out: &mut [f32]| {
                        panel_with(|_| tile, &a, b, n, 0, MR, 0, k, j0, nc, first, out)
                    };
                    run(tile, &mut out[..MR * n]);
                    let mut want = vec![7.0f32; MR * n + GUARD];
                    // Dispatch-free oracle: the strip one column at a time.
                    for j in j0..n {
                        panel_with(
                            |_| Tile::Portable,
                            &a,
                            b,
                            n,
                            0,
                            MR,
                            0,
                            k,
                            j,
                            1,
                            first,
                            &mut want[..MR * n],
                        );
                    }
                    assert_eq!(bits(&out), bits(&want), "{tile:?} cols {nc} first {first}");
                    assert!(out[..MR * n].iter().all(|v| v.is_finite()));
                }
            }
        }
    }

    #[test]
    fn gemm_on_tile_matches_the_dispatcher() {
        // Shapes with a row tail and strips of every kind (37 = 32 + 5).
        let (m, k, n) = (11usize, 19usize, 37usize);
        let (a, b) = (values(m * k, 6), values(k * n, 7));
        let mut want = vec![0.0f32; m * n];
        for (idx, opanel) in want.chunks_mut(MR * n).enumerate() {
            let rows = opanel.len() / n;
            panel(
                &DenseA::new(&a, m, k),
                &b,
                n,
                idx * MR,
                rows,
                0,
                k,
                0,
                n,
                true,
                opanel,
            );
        }
        for tile in Tile::ALL {
            let mut got = vec![f32::NAN; m * n];
            let ran = gemm_on_tile(tile, m, k, n, &a, &b, &mut got);
            assert_eq!(ran, tile.supported());
            if ran {
                assert_eq!(bits(&got), bits(&want), "{tile:?}");
            } else {
                assert!(got.iter().all(|v| v.is_nan()), "{tile:?} touched out");
            }
        }
        // Degenerate dims are an empty or all-zero product.
        assert!(gemm_on_tile(
            Tile::Portable,
            0,
            3,
            4,
            &[],
            &[0.0; 12],
            &mut []
        ));
        assert!(gemm_on_tile(
            Tile::Portable,
            2,
            3,
            0,
            &[0.0; 6],
            &[],
            &mut []
        ));
        let mut out = [1.0f32; 4];
        assert!(gemm_on_tile(Tile::Portable, 2, 0, 2, &[], &[], &mut out));
        assert_eq!(out, [0.0; 4]);
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
