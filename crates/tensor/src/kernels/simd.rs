//! The blocked GEMM's register micro-kernel: one `MR`-row FMA tile,
//! written once, instantiated at every vector width the host may have and
//! parameterised by how its `A` and `B` operands are addressed.
//!
//! Every product the blocked backend runs is `C += A·B` over a cache block.
//! `A` is read one scalar broadcast at a time, so it never has to be
//! contiguous: the kernel only needs `A(i, p) = data[row(i) + col(p)]`.
//! Three addressings implement that (`PanelA`):
//!
//! - `DenseA` — row-major `M×K`, `row(i) = i·K`, `col(p) = p`: what
//!   `Linear` and the `matmul_*_into` entry points multiply.
//! - [`GatherA`] — two offset tables over a base buffer. A convolution's
//!   `im2col` matrix is exactly this shape (`row` = output position, `col`
//!   = `(c, kh, kw)` tap of a once-padded input), so the conv layers
//!   multiply straight out of the padded input and the patch matrix never
//!   exists; swapping the tables addresses its transpose.
//! - `ColumnsA` — a row-major `K×N` panel read as its transpose,
//!   `row(i) = i`, `col(p) = p·N`: a conv's weight panel when output
//!   channels are the rows (below).
//!
//! `B` is read a vector at a time, `cols ≤ width` contiguous floats from
//! the start of a row plus a column offset (`PanelB`):
//!
//! - `DenseB` — row-major `K×N`, row `p` at `p·N`: every product above.
//! - `GatherRuns` — a stride-1 convolution's patch matrix **transposed**:
//!   row `p` is tap `p`, its columns are output positions, and the `OW`
//!   positions of one output row are `OW` consecutive floats of the padded
//!   input (`taps[p] + origins[row] + x`). One vector load is a run of
//!   output positions.
//!
//! So a convolution has two orientations. *Gathered*: positions are the
//! rows, output channels the lanes (`GatherA × DenseB`), and the blocked
//! backend emits NCHW from the row panels through 8×8 transposes. *Lanes*:
//! output channels are the rows, positions the lanes
//! (`ColumnsA × GatherRuns`), and each run is stored straight into its
//! channel's NCHW plane with the bias — every lane busy at any channel
//! count, no transpose. [`super::lanes_fit`] picks one per product.
//!
//! A stride-1 convolution's weight gradient can also put its positions on
//! the lanes, as the *reduction* (`Positions`, [`positions_on_tile`]): a
//! second, smaller tile body of `channels × taps` accumulators of 16 lanes
//! each, fed by runs of the NCHW output gradient and of the padded input,
//! in one order fixed by shape on every vector width.
//!
//! All of them run the same tile body (`tile`), generic over a `Vector` —
//! the handful of operations it needs from a register — and the number of
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
//! runtime) and how many columns remain ([`Tile::for_strip`]): the zmm
//! pair while ≥ 32 remain, one masked zmm for 9..=31, the ymm tile for a
//! strip of ≤ 8 (a masked zmm would waste half its lanes there: 16→8 @32²
//! runs 69 GFLOP/s on ymm against 62 on a masked zmm), the portable tile
//! on hosts with neither. The lane driver walks an output row in runs the
//! same way ([`Tile::for_run`]: the pair, masked, from 17 positions on),
//! and sends two rows of exactly 16 through the pair tile together. There
//! is no setting that selects a width.
//!
//! Every tile — and every remainder case: masked columns, clamped rows for
//! the last `M % MR` rows — performs the same per-element arithmetic (a
//! zeroed accumulator, one fused multiply-add per `k` in order, one store
//! or add per cache block, the bias added to the finished sum), so a
//! blocked product's bits depend only on its `KC` split, never on which
//! tile, which remainder path or which orientation computed an element.
//! Width only changes how many elements share an instruction.
//!
//! Together with [`super::simd_int8`] this is one of the **two** modules
//! in `nf-tensor` allowed to use `unsafe` (crate-level `deny(unsafe_code)`
//! with a reasoned module-level `expect`). The unchecked accesses rest on
//! invariants held by private fields of this module's types — every
//! `row(i) + col(p)` of a `PanelA` is inside its data slice, every run of
//! a `GatherRuns` is inside its base — plus the range asserts in `panel`
//! and `Lanes`.

#![expect(
    unsafe_code,
    reason = "f32 SIMD matmul/conv kernels: core::arch intrinsics are unsafe by signature; \
              every call sits under a SAFETY comment proving the target-feature and \
              alignment preconditions"
)]
#![deny(clippy::undocumented_unsafe_blocks)]

use super::KC;
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

/// Floats in one vector register of this host: 16 with AVX-512F, 8
/// otherwise (ymm, or the portable tile's `[f32; 8]`).
pub fn vector_lanes() -> usize {
    match isa() {
        Isa::Avx512 => Tile::Zmm.width(),
        Isa::Avx2 | Isa::Portable => LANES,
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

    /// The tile the lane orientation runs next when `remaining ≥ 1`
    /// positions of an output row are left: [`Tile::for_strip`], except
    /// that 17..=31 positions run on the zmm pair behind its mask rather
    /// than on a zmm plus a ymm tile — one pass over the row's taps instead
    /// of two (8→12 @24²: 1.2× faster). Rows are output channels there, 8
    /// per tile whatever the width, so the column trade-off behind the
    /// strip rule does not arise.
    pub fn for_run(remaining: usize) -> Tile {
        match isa() {
            Isa::Avx512 if remaining > Tile::Zmm.width() => Tile::ZmmPair,
            _ => Tile::for_strip(remaining),
        }
    }
}

/// Addressing of the micro-kernel's `A` operand:
/// `A(i, p) = data()[row(i) + col(p)]` for `i < rows()`, `p < depth()`.
///
/// Implementors guarantee that every such index is inside `data()`; the
/// tiles read through it unchecked. All implementors live in this module
/// with private fields so no other code can break that.
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

/// A row-major `K×N` panel read as its `N×K` transpose,
/// `A(i, p) = b[p·N + i]`: a conv's weight panel (`C·KH·KW × C_out`, or the
/// flipped `C_out·KH·KW × C_in` of its input gradient) with output channels
/// as the rows — no transposed copy of it exists.
#[derive(Debug, Clone, Copy)]
struct ColumnsA<'a> {
    b: &'a [f32],
    k: usize,
    n: usize,
}

impl<'a> ColumnsA<'a> {
    /// # Panics
    ///
    /// Panics if `b` is not exactly `k·n` long.
    fn new(b: &'a [f32], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "B operand is not k×n");
        ColumnsA { b, k, n }
    }
}

impl PanelA for ColumnsA<'_> {
    fn rows(&self) -> usize {
        self.n
    }
    fn depth(&self) -> usize {
        self.k
    }
    fn data(&self) -> &[f32] {
        self.b
    }
    fn row(&self, i: usize) -> usize {
        i
    }
    fn cols(&self, kk0: usize, kc: usize) -> impl Iterator<Item = usize> {
        let n = self.n;
        (kk0..kk0 + kc).map(move |p| p * n)
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
/// // Both windows start on one image row and are one position apart: a
/// // single run of two, which a backend may multiply transposed …
/// assert!(a.with_runs(&[0], 2).is_ok());
/// // … but not a run of two from 5, whose second window's last tap would
/// // read past the image.
/// assert!(a.with_runs(&[1], 2).is_err());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GatherA<'a> {
    base: &'a [f32],
    row_off: &'a [u32],
    col_off: &'a [u32],
    runs: Option<GatherRuns<'a>>,
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
            runs: None,
        })
    }

    /// Declares that the rows come in runs: row `r·run + x` is the window
    /// at `origins[r] + x` for `x < run` — a stride-1 convolution, one run
    /// per output row — so a backend may multiply the transposed product
    /// instead, reading the same matrix as a `GatherRuns`. The origins are
    /// validated against the buffer like the tables (`GatherRuns::new`);
    /// that they name the same windows as `row_off` is the caller's
    /// contract (checked in debug builds): a mismatch gives a wrong
    /// product, never an out-of-bounds read.
    ///
    /// Returns [`TensorError::InvalidGeometry`] for runs of no position,
    /// [`TensorError::OffsetOutOfBounds`] when a run leaves the buffer and
    /// [`TensorError::ShapeDataMismatch`] when the runs do not cover the
    /// rows.
    pub fn with_runs(self, origins: &'a [u32], run: usize) -> crate::Result<Self> {
        if run == 0 {
            return Err(TensorError::InvalidGeometry("a run of no positions".into()));
        }
        let runs = GatherRuns::new(self.base, self.col_off, origins, run)?;
        if origins.len() * run != self.row_off.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: origins.len() * run,
                actual: self.row_off.len(),
            });
        }
        debug_assert!(
            self.row_off
                .iter()
                .enumerate()
                .all(|(i, &r)| r == origins[i / run] + (i % run) as u32),
            "runs do not name the rows' windows"
        );
        Ok(GatherA {
            runs: Some(runs),
            ..self
        })
    }

    /// The runs [`GatherA::with_runs`] declared, if any.
    pub(crate) fn runs(&self) -> Option<&GatherRuns<'a>> {
        self.runs.as_ref()
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

/// Addressing of the micro-kernel's `B` operand: row `p` starts at
/// `data()[row(p)]`; a strip reads its columns contiguously from there plus
/// a column offset its driver proved in range. Implementors live in this
/// module with private fields, like [`PanelA`]'s.
pub(crate) trait PanelB: Sync {
    /// The buffer the offsets index.
    fn data(&self) -> &[f32];
    /// Offsets of rows `kk0..kk0 + kc`, in order.
    fn rows(&self, kk0: usize, kc: usize) -> impl Iterator<Item = usize>;
    /// The distance between consecutive rows, where it is one: the tile
    /// then steps a pointer instead of reading [`PanelB::rows`].
    fn stride(&self) -> Option<usize> {
        None
    }
    /// Offset from one vector of a strip's `B` row to the next: `lanes`
    /// (contiguous), unless the addressing lets a strip set its own `pair`
    /// step (not 0).
    fn vector_step(pair: usize, lanes: usize) -> usize {
        let _ = pair;
        lanes
    }
}

/// Row-major `K×N` operand.
#[derive(Debug, Clone, Copy)]
struct DenseB<'a> {
    b: &'a [f32],
    n: usize,
}

impl PanelB for DenseB<'_> {
    fn data(&self) -> &[f32] {
        self.b
    }
    fn rows(&self, kk0: usize, kc: usize) -> impl Iterator<Item = usize> {
        let n = self.n;
        (kk0..kk0 + kc).map(move |p| p * n)
    }
    fn stride(&self) -> Option<usize> {
        Some(self.n)
    }
}

/// A stride-1 convolution's patch matrix transposed, as the `B` operand of
/// the lane orientation: `B(p, (r, x)) = base[taps[p] + origins[r] + x]`
/// for tap `p`, output row `r` and `x < run` — a `K × (rows·run)` matrix
/// whose every row is `rows` stretches of `run` consecutive floats of the
/// padded input. Reached through [`GatherA::with_runs`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct GatherRuns<'a> {
    base: &'a [f32],
    taps: &'a [u32],
    origins: &'a [u32],
    run: usize,
}

impl<'a> GatherRuns<'a> {
    /// Validates the tables against `base` once, so the kernel's unchecked
    /// run loads never have to: the last float of the widest run,
    /// `max(taps) + max(origins) + run − 1`, must index inside `base`.
    ///
    /// Returns [`TensorError::OffsetOutOfBounds`] otherwise.
    pub(crate) fn new(
        base: &'a [f32],
        taps: &'a [u32],
        origins: &'a [u32],
        run: usize,
    ) -> crate::Result<Self> {
        let max_tap = taps.iter().copied().max();
        let max_origin = origins.iter().copied().max();
        if let (Some(t), Some(o), true) = (max_tap, max_origin, run > 0) {
            let reach = u64::from(t) + u64::from(o) + run as u64 - 1;
            if reach >= base.len() as u64 {
                return Err(TensorError::OffsetOutOfBounds {
                    reach,
                    len: base.len(),
                });
            }
        }
        Ok(GatherRuns {
            base,
            taps,
            origins,
            run,
        })
    }
}

impl PanelB for GatherRuns<'_> {
    fn data(&self) -> &[f32] {
        self.base
    }
    fn rows(&self, kk0: usize, kc: usize) -> impl Iterator<Item = usize> {
        self.taps[kk0..kk0 + kc].iter().map(|&t| t as usize)
    }
    /// A strip may cover two output rows of exactly one vector each: its
    /// second vector then starts `pair` floats on, at the next row's origin.
    fn vector_step(pair: usize, lanes: usize) -> usize {
        if pair == 0 {
            lanes
        } else {
            pair
        }
    }
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
            panel(|_| tile, &a, b, n, idx * MR, rows, 0, k, 0, n, true, opanel);
        }
    }
    true
}

/// The micro-kernel: `rows ≤ MR` output rows starting at row `i0` of `A`,
/// over the cache block `[kk0, kk0+kc) × [jj0, jj0+nc)` of `b` (`K×N`
/// row-major), one column strip at a time on the tile `pick(remaining)`
/// names — [`Tile::for_strip`] in production, one tile throughout for
/// [`gemm_on_tile`] and `blocked::gather_nchw_on_tile`; it must only name
/// tiles the host supports (both guarantee it). `opanel` holds those
/// output rows, `n` floats each. With `first` set the block **stores** its
/// result (the output may hold garbage from buffer reuse); otherwise it
/// accumulates.
///
/// # Panics
///
/// Panics if the block reaches outside `a`, `b` or `opanel` — the loop
/// nest in `blocked.rs` never asks for that, and the tiles rely on it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn panel<A: PanelA>(
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
        b: &DenseB { b, n },
        bcol: 0,
        pair: 0,
        n,
        kk0,
        kc,
        j: jj0,
        cols: 0,
        first,
        bias: None,
    };
    while strip.j < j_end {
        let tile = pick(j_end - strip.j);
        debug_assert!(tile.supported());
        strip.cols = tile.width().min(j_end - strip.j);
        strip.bcol = strip.j;
        // SAFETY: `pick` only names tiles this host supports (see above).
        // `check_block` proved rows `kk0..kk0+kc` of `b` (at `p·n`) and
        // `rows` rows of `opanel` exist and that columns `j..j+cols`
        // (`≤ j_end`) lie inside a row of each; `rb` holds offsets of rows
        // `< a.rows()` and the tile takes its column offsets from
        // `a.cols(kk0, kc)` with `kk0+kc ≤ a.depth()`, so every `A` read is
        // one the `PanelA` contract puts inside `a.data()`.
        // `1 ≤ cols ≤ tile.width()`.
        unsafe { tile.run(&strip, opanel) };
        strip.j += strip.cols;
    }
}

/// The range checks every dense-`B` tile relies on (see [`panel`]);
/// `j_end` is the block's last column + 1.
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

/// A convolution's product in the lane orientation, checked once: the
/// weight panel `b` (`K×N`) read as `A` ([`ColumnsA`], `N` output
/// channels) times the runs of a [`GatherA`] (its transpose, one run per
/// output row) as `B`, each sample written as its `N × plane` NCHW block
/// with the bias added after the last `K` block. The same per-element
/// arithmetic as the gathered orientation — the `KC` split, the `k` order,
/// the bias last — so the same bits.
pub(crate) struct Lanes<'a> {
    w: ColumnsA<'a>,
    runs: GatherRuns<'a>,
    bias: Option<&'a [f32]>,
    /// Output rows (runs) per sample.
    per_sample: usize,
}

impl<'a> Lanes<'a> {
    /// `None` when `a` carries no runs ([`GatherA::with_runs`]).
    ///
    /// # Panics
    ///
    /// Panics if `b` is not `K×n`, `out_len` is not `M·n`, `plane` does
    /// not split `M` into whole samples of whole output rows, or a bias is
    /// not `n` long.
    pub(crate) fn new(
        a: &GatherA<'a>,
        n: usize,
        b: &'a [f32],
        plane: usize,
        bias: Option<&'a [f32]>,
        out_len: usize,
    ) -> Option<Self> {
        let runs = *a.runs()?;
        let (m, k) = (a.rows(), a.depth());
        assert_eq!(out_len, m * n, "output is not m×n");
        super::nchw_samples(m, n, plane, bias);
        assert!(
            runs.run > 0 && plane.is_multiple_of(runs.run),
            "a plane of {plane} is not whole rows of {}",
            runs.run
        );
        Some(Lanes {
            w: ColumnsA::new(b, k, n),
            runs,
            bias,
            per_sample: plane / runs.run,
        })
    }

    /// Floats of one sample's output.
    pub(crate) fn sample_len(&self) -> usize {
        self.w.n * self.per_sample * self.runs.run
    }

    /// Sample `s` into `out` (its `sample_len()` floats), each output row
    /// split into runs on the tiles `pick` names (host-supported only, as
    /// for [`panel`]; [`Tile::for_run`] in production).
    ///
    /// Output rows of exactly one zmm (16 positions) go through the zmm
    /// pair tile two at a time when `pick` would run it on 32 columns: a
    /// lone zmm tile per row runs 8 FMAs per `k` against the pair's 16
    /// (32→32 @16²: 0.76× the gathered orientation alone, 1.06× paired).
    /// The two rows of a sample's plane are adjacent in the output, so only
    /// the `B` side needs the second vector's offset (`Strip::pair`).
    ///
    /// # Panics
    ///
    /// Panics if sample `s` or `out` does not exist at that size.
    pub(crate) fn sample(&self, pick: impl Fn(usize) -> Tile, s: usize, out: &mut [f32]) {
        let (k, run, plane) = (self.w.k, self.runs.run, self.per_sample * self.runs.run);
        let origins = &self.runs.origins[s * self.per_sample..][..self.per_sample];
        assert_eq!(out.len(), self.sample_len(), "output is not one sample");
        if out.is_empty() {
            return;
        }
        if k == 0 {
            for (j, chan) in out.chunks_mut(plane).enumerate() {
                chan.fill(self.bias.map_or(0.0, |b| b[j]));
            }
            return;
        }
        for (idx, opanel) in out.chunks_mut(MR * plane).enumerate() {
            let (i0, rows) = (idx * MR, opanel.len() / plane);
            let mut strip = Strip {
                a: &self.w,
                rb: row_bases(&self.w, i0, rows),
                rows,
                b: &self.runs,
                bcol: 0,
                pair: 0,
                n: plane,
                kk0: 0,
                kc: 0,
                j: 0,
                cols: 0,
                first: true,
                bias: None,
            };
            while strip.kk0 < k {
                strip.kc = KC.min(k - strip.kk0);
                strip.first = strip.kk0 == 0;
                let last = strip.kk0 + strip.kc == k;
                strip.bias = self
                    .bias
                    .filter(|_| last)
                    .map(|bias| std::array::from_fn(|r| bias[i0 + r.min(rows - 1)]));
                let mut oy = 0;
                while oy < origins.len() {
                    let origin = origins[oy];
                    if run == Tile::Zmm.width()
                        && oy + 1 < origins.len()
                        && pick(2 * run) == Tile::ZmmPair
                    {
                        strip.cols = 2 * run;
                        (strip.j, strip.bcol) = (oy * run, origin as usize);
                        // Wrapping: as a pointer offset it lands on the next
                        // origin whichever way the rows are laid out.
                        strip.pair = (origins[oy + 1] as usize).wrapping_sub(origin as usize);
                        // SAFETY: `pick` named the pair tile, so the host
                        // supports it. `A` as below. Vector 0 of `B` row `p`
                        // reads `taps[p] + origins[oy] + lane`, vector 1
                        // `taps[p] + origins[oy + 1] + lane`, lanes < 16 =
                        // run: both inside `base` by `GatherRuns::new`.
                        // Output lanes land at `r·plane + oy·run + lane` for
                        // `lane < 2·run`, i.e. rows `oy` and `oy + 1 <
                        // origins.len()` of the plane: `< rows·plane`.
                        // `cols = 32 = width()`.
                        unsafe { Tile::ZmmPair.run(&strip, opanel) };
                        strip.pair = 0;
                        oy += 2;
                        continue;
                    }
                    let mut x = 0;
                    while x < run {
                        let tile = pick(run - x);
                        debug_assert!(tile.supported());
                        strip.cols = tile.width().min(run - x);
                        (strip.j, strip.bcol) = (oy * run + x, origin as usize + x);
                        // SAFETY: `pick` only names tiles this host
                        // supports. `A` is `ColumnsA` over exactly `k·n`
                        // floats with rows `i0..i0+rows ≤ n` and columns
                        // `kk0..kk0+kc ≤ k`. `B` row `p` of the block is
                        // read at `taps[p] + origin + x + lane` for lanes
                        // `< cols ≤ run − x`: at most `max(taps) +
                        // max(origins) + run − 1`, which `GatherRuns::new`
                        // proved inside `base`. Output lanes land at
                        // `r·plane + oy·run + x + lane < rows·plane =
                        // opanel.len()`. `1 ≤ cols ≤ tile.width()`.
                        unsafe { tile.run(&strip, opanel) };
                        x += strip.cols;
                    }
                    oy += 1;
                }
                strip.kk0 += strip.kc;
            }
        }
    }
}

/// `a · b` written as NCHW in the **lane orientation** (see `Lanes`),
/// every run on `tile`: how the tests hold each tile instantiation of the
/// lane product to the gathered one, like [`gemm_on_tile`] for the dense
/// product. All `K` blocks, serial; the
/// arguments are those of [`super::GemmBackend::gemm_gather`] into
/// [`super::Dest::Nchw`]. Returns `false`, leaving `out` alone, when the
/// host cannot run `tile` or `a` carries no runs.
///
/// # Panics
///
/// As [`super::GemmBackend::gemm_gather`]: a slice that does not match
/// its dimensions, or a `plane` that is not whole output rows.
pub fn lanes_on_tile(
    tile: Tile,
    a: &GatherA<'_>,
    n: usize,
    b: &[f32],
    plane: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
) -> bool {
    let Some(lanes) = Lanes::new(a, n, b, plane, bias, out.len()) else {
        return false;
    };
    if !tile.supported() {
        return false;
    }
    let len = lanes.sample_len();
    if len > 0 {
        for (s, sample) in out.chunks_mut(len).enumerate() {
            lanes.sample(|_| tile, s, sample);
        }
    }
    true
}

/// Lanes of the weight gradient's positions reduction ([`positions_on_tile`]):
/// each `(output channel, tap)` sum is split over this many lane
/// accumulators whatever the tile — one zmm, two ymm or two portable
/// `[f32; 8]` — and folded by one fixed tree, so every tile adds the same
/// terms in the same order.
pub const POSITION_LANES: usize = 16;

/// Floats of output gradient one row block of the positions reduction
/// covers (all channels): 64 KiB, so a channel block's rows stay in L1
/// across its tap blocks while the block as a whole stays in L2. 16 KiB
/// blocks measured 0.99 / 1.08× the gathered stage on 16→16 @32² (batch 1
/// / 8) where 64 KiB reads 1.18 / 1.27×; 256 KiB read the same as 64.
/// Never changes bits (a partial sum waits between blocks exactly).
const POSITION_BLOCK: usize = 1 << 14;

/// A stride-1 convolution's weight and bias gradients with the output
/// positions as the reduction axis, checked once:
///
/// `dW[co, t] += Σ_{r, x} g[co, r, x] · base[taps[t] + origins[r] + x]`
/// and `db[co] += Σ_{r, x} g[co, r, x]`,
///
/// over the output rows `r` (`(n, oy)`, one run each) and the `x < run`
/// positions of a row, with `g` the output gradient in NCHW — each row of
/// a channel one contiguous run there, as it is in the padded input under
/// every tap. The order is fixed by shape alone: lane `j` of
/// [`POSITION_LANES`] accumulates the positions `x ≡ j (mod 16)` of every
/// row, rows in order, one fused multiply-add per term (a plain add for the
/// bias), a masked tail lane adding `0 · 0`; the lanes are folded
/// 16 → 8 → 4 → 2 → 1 (`fold_lanes`) and added to `dW` / `db` once.
/// Blocking over rows, channels and taps only decides which accumulators
/// share registers — a partial sum waits between row blocks in the
/// caller's scratch, exactly — and never reorders a sum.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Positions<'a> {
    g: &'a [f32],
    runs: GatherRuns<'a>,
    c_out: usize,
    /// Output rows (runs) per sample.
    per_sample: usize,
}

impl<'a> Positions<'a> {
    /// # Panics
    ///
    /// Panics if `g` is not `c_out` planes of `per_sample` runs for every
    /// sample the runs' origins cover.
    pub(crate) fn new(runs: GatherRuns<'a>, g: &'a [f32], c_out: usize, per_sample: usize) -> Self {
        let rows = runs.origins.len();
        assert!(
            per_sample > 0 && rows.is_multiple_of(per_sample),
            "{rows} output rows are not whole samples of {per_sample}"
        );
        assert_eq!(
            g.len(),
            rows * runs.run * c_out,
            "output gradient is not NCHW"
        );
        Positions {
            g,
            runs,
            c_out,
            per_sample,
        }
    }

    /// Output channels.
    pub(crate) fn c_out(&self) -> usize {
        self.c_out
    }

    /// Output positions, all samples.
    pub(crate) fn positions(&self) -> usize {
        self.runs.origins.len() * self.runs.run
    }

    /// Taps (`dW` columns).
    pub(crate) fn taps(&self) -> usize {
        self.runs.taps.len()
    }

    /// Scratch floats of [`Positions::channels`] per output channel: the
    /// lanes of every tap and of the bias.
    pub(crate) fn scratch_per_channel(&self) -> usize {
        (self.taps() + 1) * POSITION_LANES
    }

    /// Output channels `co0..co0 + db.len()` on `tile`: their rows of `dW`
    /// (`dw`, `taps()` floats each) and of `db` accumulated, `acc`
    /// (`scratch_per_channel()` floats a channel) holding the lane sums
    /// between row blocks.
    ///
    /// # Panics
    ///
    /// Panics if the host cannot run `tile`, or the channels or a slice do
    /// not fit.
    pub(crate) fn channels(
        &self,
        tile: Tile,
        co0: usize,
        acc: &mut [f32],
        dw: &mut [f32],
        db: &mut [f32],
    ) {
        let (taps, run, cos) = (self.taps(), self.runs.run, db.len());
        assert!(co0 + cos <= self.c_out, "channels past c_out");
        assert_eq!(dw.len(), cos * taps, "dW rows are not channels × taps");
        assert_eq!(acc.len(), cos * self.scratch_per_channel(), "scratch");
        assert!(tile.supported(), "{tile:?} on a host without it");
        acc.fill(0.0);
        let rows = self.runs.origins.len();
        let per_block = (POSITION_BLOCK / (self.c_out * run).max(1)).max(1);
        for r0 in (0..rows).step_by(per_block) {
            let mut strip = PosStrip {
                p: self,
                rows: r0..rows.min(r0 + per_block),
                co0,
                acc_co: 0,
                cb: 0,
                t0: 0,
                tb: 0,
                live_taps: 0,
            };
            while strip.acc_co < cos {
                let (cb, tb) = positions_block(tile, cos - strip.acc_co);
                strip.cb = cb;
                // The taps a block at a time, then the bias (`tb = 0`).
                let blocks = (0..taps).step_by(tb).map(|t0| (t0, tb, tb.min(taps - t0)));
                for (t0, tb, live_taps) in blocks.chain([(taps, 0, 0)]) {
                    (strip.t0, strip.tb, strip.live_taps) = (t0, tb, live_taps);
                    // SAFETY: `tile` is supported (asserted). The strip's
                    // channels `co0 + acc_co..+cb ≤ co0 + cos ≤ c_out`
                    // (`positions_block` names no more than remain), its
                    // live taps `t0..t0 + live_taps ≤ taps` (at least one
                    // unless `tb = 0`) and its rows `< origins.len()`: every
                    // `g` read is inside `g` by `Positions::new`, every
                    // `base` read inside `base` by `GatherRuns::new`, every
                    // scratch access inside `acc` (asserted length).
                    unsafe { tile.run_positions(&strip, acc) };
                }
                strip.acc_co += cb;
            }
        }
        let per = self.scratch_per_channel();
        for (c, chan) in acc.chunks_exact(per).enumerate() {
            let (tap_lanes, bias_lanes) = chan.split_at(taps * POSITION_LANES);
            let row = &mut dw[c * taps..(c + 1) * taps];
            for (d, lanes) in row.iter_mut().zip(tap_lanes.chunks_exact(POSITION_LANES)) {
                *d += fold_lanes(lanes);
            }
            db[c] += fold_lanes(bias_lanes);
        }
    }
}

/// The positions reduction's fixed fold of one accumulator's
/// [`POSITION_LANES`] lanes: `16 → 8 → 4 → 2 → 1`, lane `i` plus lane
/// `i + w` at each width `w`.
///
/// # Panics
///
/// Panics if `lanes` is not 16 long.
fn fold_lanes(lanes: &[f32]) -> f32 {
    let mut v = [0.0f32; POSITION_LANES];
    v.copy_from_slice(lanes);
    let mut w = POSITION_LANES / 2;
    while w > 0 {
        let (lo, hi) = v.split_at_mut(w);
        for (a, b) in lo.iter_mut().zip(&hi[..w]) {
            *a += *b;
        }
        w /= 2;
    }
    v[0]
}

/// `(output channels, taps)` of the next positions block when `remaining
/// ≥ 1` channels are left, on `tile`: as many accumulators as the
/// register file holds beside the loaded vectors — 24 zmm, or 4 pairs of
/// ymm / portable vectors — and never more channels than remain. Only
/// registers, not bits, depend on it.
fn positions_block(tile: Tile, remaining: usize) -> (usize, usize) {
    match (tile, remaining) {
        (Tile::Zmm | Tile::ZmmPair, 4..) => (4, 6),
        (Tile::Zmm | Tile::ZmmPair, 2 | 3) => (2, 12),
        (Tile::Zmm | Tile::ZmmPair, _) => (1, 12),
        (Tile::Ymm | Tile::Portable, 2..) => (2, 2),
        (Tile::Ymm | Tile::Portable, _) => (1, 4),
    }
}

impl Tile {
    /// The tile the positions reduction runs on this host: the widest
    /// vector it has. Width never changes its bits.
    pub(crate) fn for_positions() -> Tile {
        match isa() {
            Isa::Avx512 => Tile::Zmm,
            Isa::Avx2 => Tile::Ymm,
            Isa::Portable => Tile::Portable,
        }
    }
}

/// The weight and bias gradients of a stride-1 convolution with the
/// output positions as the reduction, every block on `tile` (the zmm pair
/// runs what the zmm tile runs: one vector of [`POSITION_LANES`]): how the
/// tests hold each tile to the scalar order and `bench_json` times what an
/// AVX2 host runs. `a` is the convolution's patch matrix with its output
/// rows attached ([`GatherA::with_runs`]), `g` the output gradient as NCHW
/// (`plane` positions a channel); `dw` (`C_out × K`) and `db` (`C_out`)
/// are accumulated into; `scratch` is grow-only. Serial. Returns `false`,
/// leaving `dw` and `db` alone, when the host cannot run `tile` or `a`
/// carries no runs.
///
/// # Panics
///
/// Panics if `g`, `dw` or `db` does not match `a`, or `plane` is not whole
/// output rows.
pub fn positions_on_tile(
    tile: Tile,
    a: &GatherA<'_>,
    g: &[f32],
    plane: usize,
    dw: &mut [f32],
    db: &mut [f32],
    scratch: &mut Vec<f32>,
) -> bool {
    let Some(&runs) = a.runs() else {
        return false;
    };
    if !tile.supported() {
        return false;
    }
    assert!(
        runs.run > 0 && plane.is_multiple_of(runs.run),
        "a plane of {plane} is not whole rows of {}",
        runs.run
    );
    let p = Positions::new(runs, g, db.len(), plane / runs.run);
    scratch.resize(p.c_out() * p.scratch_per_channel(), 0.0);
    p.channels(tile, 0, scratch, dw, db);
    true
}

/// One tile call of the positions reduction: output channels `co0 +
/// acc_co..+cb` (their lane sums at channel `acc_co` of the scratch) over
/// the output rows `rows`, against taps `t0..t0 + live_taps` in a block of
/// `tb` (the rest repeat the last live tap and are not stored) — or, with
/// `tb = 0`, the bias.
struct PosStrip<'a> {
    p: &'a Positions<'a>,
    rows: std::ops::Range<usize>,
    co0: usize,
    acc_co: usize,
    cb: usize,
    t0: usize,
    tb: usize,
    live_taps: usize,
}

/// One 16-position chunk of the positions tile: `CB` output-gradient
/// vectors loaded once and multiplied into the `CB × TB` accumulators
/// against one input vector per tap, or with `BIAS` added to the `CB`
/// bias accumulators. The chunk starts `at` floats past each of `g` / `x`.
///
/// # Safety
///
/// `V`'s ISA in force; the live lanes (all when `FULL`, the masks' live
/// lanes otherwise) of every vector `v` from `g[c] + at + v·LANES` and
/// `x[t] + at + v·LANES` readable.
// SAFETY: `unsafe fn` for `V`'s ISA and the unchecked loads; the contract
// is the `# Safety` section above.
#[inline(always)]
unsafe fn positions_chunk<
    V: Vector,
    const NV: usize,
    const CB: usize,
    const TB: usize,
    const BIAS: bool,
    const FULL: bool,
>(
    g: &[*const f32; CB],
    x: &[*const f32; TB],
    at: usize,
    masks: &[V::Mask; NV],
    acc: &mut [[[V; NV]; TB]; CB],
    bias: &mut [[V; NV]; CB],
) {
    let mut gv = [[V::zero(); NV]; CB];
    for (gc, &gp) in gv.iter_mut().zip(g) {
        for (v, (gvec, &mask)) in gc.iter_mut().zip(masks).enumerate() {
            *gvec = V::load::<FULL>(gp.wrapping_add(at + v * V::LANES), mask);
        }
    }
    if BIAS {
        for (bc, gc) in bias.iter_mut().zip(&gv) {
            for (b, &gvec) in bc.iter_mut().zip(gc) {
                *b = V::add(*b, gvec);
            }
        }
    }
    for (t, &xp) in x.iter().enumerate() {
        let mut xv = [V::zero(); NV];
        for (v, (xvec, &mask)) in xv.iter_mut().zip(masks).enumerate() {
            *xvec = V::load::<FULL>(xp.wrapping_add(at + v * V::LANES), mask);
        }
        for (accc, gc) in acc.iter_mut().zip(&gv) {
            for ((a, &gvec), &xvec) in accc[t].iter_mut().zip(gc).zip(&xv) {
                *a = V::fma(gvec, xvec, *a);
            }
        }
    }
}

/// **The** positions tile: `CB` output channels × `TB` taps of
/// [`POSITION_LANES`]-lane accumulators (`NV` vectors of `V` each), loaded
/// from the scratch, run over the strip's output rows a chunk of 16
/// positions at a time (the last one masked) and stored back — or, with
/// `BIAS` (`TB = 0`), the channels' bias accumulators.
///
/// # Safety
///
/// As [`Tile::run_positions`], with `V`'s ISA in force in the (inlining)
/// caller and `NV · V::LANES = POSITION_LANES`.
// SAFETY: `unsafe fn` for `V`'s ISA and the unchecked accesses; the
// contract is the `# Safety` section above.
#[inline(always)]
unsafe fn positions_tile<
    V: Vector,
    const NV: usize,
    const CB: usize,
    const TB: usize,
    const BIAS: bool,
>(
    s: &PosStrip<'_>,
    acc_buf: &mut [f32],
) {
    let p = s.p;
    let (run, taps) = (p.runs.run, p.taps());
    let plane = p.per_sample * run;
    let live_tap = |t: usize| s.t0 + t.min(s.live_taps.saturating_sub(1));
    let slot = |c: usize, t: usize| ((s.acc_co + c) * (taps + 1) + t) * POSITION_LANES;
    let ap = acc_buf.as_mut_ptr();
    let all = V::mask(V::LANES);
    let mut acc = [[[V::zero(); NV]; TB]; CB];
    let mut bias = [[V::zero(); NV]; CB];
    for (c, (accc, bc)) in acc.iter_mut().zip(&mut bias).enumerate() {
        for (t, at) in accc.iter_mut().enumerate() {
            for (v, a) in at.iter_mut().enumerate() {
                *a = V::load::<true>(ap.add(slot(c, live_tap(t)) + v * V::LANES), all);
            }
        }
        if BIAS {
            for (v, b) in bc.iter_mut().enumerate() {
                *b = V::load::<true>(ap.add(slot(c, taps) + v * V::LANES), all);
            }
        }
    }
    let (gp, bp) = (p.g.as_ptr(), p.runs.base.as_ptr());
    let chans: [usize; CB] = std::array::from_fn(|c| (s.co0 + s.acc_co + c) * plane);
    let offs: [usize; TB] = std::array::from_fn(|t| p.runs.taps[live_tap(t)] as usize);
    let (chunks, tail) = (run / POSITION_LANES, run % POSITION_LANES);
    let masks: [V::Mask; NV] = std::array::from_fn(|v| V::mask(tail.saturating_sub(v * V::LANES)));
    let (mut sample, mut oy) = (s.rows.start / p.per_sample, s.rows.start % p.per_sample);
    for r in s.rows.start..s.rows.end {
        let g_row = sample * p.c_out * plane + oy * run;
        (sample, oy) = if oy + 1 == p.per_sample {
            (sample + 1, 0)
        } else {
            (sample, oy + 1)
        };
        let origin = p.runs.origins[r] as usize;
        // Wrapping: only the chunks' lanes are positions the caller proved
        // in bounds.
        let g: [*const f32; CB] = std::array::from_fn(|c| gp.wrapping_add(chans[c] + g_row));
        let x: [*const f32; TB] = std::array::from_fn(|t| bp.wrapping_add(offs[t] + origin));
        for chunk in 0..chunks {
            let at = chunk * POSITION_LANES;
            positions_chunk::<V, NV, CB, TB, BIAS, true>(&g, &x, at, &masks, &mut acc, &mut bias);
        }
        if tail > 0 {
            let at = chunks * POSITION_LANES;
            positions_chunk::<V, NV, CB, TB, BIAS, false>(&g, &x, at, &masks, &mut acc, &mut bias);
        }
    }
    for (c, (accc, bc)) in acc.iter().zip(&bias).enumerate() {
        for (t, at) in accc.iter().enumerate().take(s.live_taps) {
            for (v, &a) in at.iter().enumerate() {
                V::store::<true>(ap.add(slot(c, s.t0 + t) + v * V::LANES), all, a);
            }
        }
        if BIAS {
            for (v, &b) in bc.iter().enumerate() {
                V::store::<true>(ap.add(slot(c, taps) + v * V::LANES), all, b);
            }
        }
    }
}

/// [`positions_tile`] at the strip's block shape, one `positions_block`
/// names.
///
/// # Safety
///
/// As [`positions_tile`].
// SAFETY: same contract as `positions_tile`, which it only forwards to.
#[inline(always)]
unsafe fn positions_any<V: Vector, const NV: usize>(s: &PosStrip<'_>, acc: &mut [f32]) {
    match (s.cb, s.tb) {
        (4, 6) => positions_tile::<V, NV, 4, 6, false>(s, acc),
        (2, 12) => positions_tile::<V, NV, 2, 12, false>(s, acc),
        (1, 12) => positions_tile::<V, NV, 1, 12, false>(s, acc),
        (2, 2) => positions_tile::<V, NV, 2, 2, false>(s, acc),
        (1, 4) => positions_tile::<V, NV, 1, 4, false>(s, acc),
        (4, 0) => positions_tile::<V, NV, 4, 0, true>(s, acc),
        (2, 0) => positions_tile::<V, NV, 2, 0, true>(s, acc),
        (1, 0) => positions_tile::<V, NV, 1, 0, true>(s, acc),
        (cb, tb) => unreachable!("no positions block of {cb} channels × {tb} taps"),
    }
}

// SAFETY: `unsafe fn` because of `#[target_feature]`: the caller
// (`Tile::run_positions`) must have AVX2 + FMA. This is where the `__m256`
// instantiations of `positions_tile` are compiled with that ISA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn positions_ymm(s: &PosStrip<'_>, acc: &mut [f32]) {
    positions_any::<std::arch::x86_64::__m256, 2>(s, acc)
}

// SAFETY: `unsafe fn` because of `#[target_feature]`: the caller
// (`Tile::run_positions`) must have AVX-512F. This is where the `__m512`
// instantiations of `positions_tile` are compiled with that ISA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn positions_zmm(s: &PosStrip<'_>, acc: &mut [f32]) {
    positions_any::<std::arch::x86_64::__m512, 1>(s, acc)
}

/// One column strip of one panel's cache block — everything a tile reads:
/// rows `rb` (`rows` of them live) of `a` against rows `kk0..kk0+kc` of
/// `b`, `cols` columns from `bcol` (its vectors `PanelB::vector_step`
/// apart, `pair` the step a paired strip sets), into output rows `n`
/// floats apart at columns `j..j+cols`, plus `bias` (one per row, added to
/// the finished sum) when this is the last `K` block of a product that has
/// one.
struct Strip<'a, A, B> {
    a: &'a A,
    rb: [usize; MR],
    rows: usize,
    b: &'a B,
    bcol: usize,
    pair: usize,
    n: usize,
    kk0: usize,
    kc: usize,
    j: usize,
    cols: usize,
    first: bool,
    bias: Option<[f32; MR]>,
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
/// strip's columns that fall in it. With `BIAS` the store adds the strip's
/// bias to each finished sum — compiled in only where there is one, so
/// the store of every other product is the plain one.
///
/// # Safety
///
/// As [`Tile::run`], with `V`'s ISA in force in the (inlining) caller,
/// `cols == NV·LANES` when `FULL` and `s.bias` set when `BIAS`.
// SAFETY: `unsafe fn` for `V`'s ISA requirement and the unchecked pointer
// accesses; the contract is the `# Safety` section above.
#[inline(always)]
unsafe fn tile<
    V: Vector,
    const NV: usize,
    const FULL: bool,
    const BIAS: bool,
    A: PanelA,
    B: PanelB,
>(
    s: &Strip<'_, A, B>,
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
    // One `k` of the block: `A` column offset `c`, `B` row at `bsrc`.
    let vstep = B::vector_step(s.pair, V::LANES);
    let mut step = |c: usize, bsrc: *const f32| {
        let mut bvec = [V::zero(); NV];
        for (v, (bv, &mask)) in bvec.iter_mut().zip(&masks).enumerate() {
            // Wrapping: a fully masked-out vector may start past the row.
            *bv = V::load::<FULL>(bsrc.wrapping_add(v * vstep), mask);
        }
        for (accr, row) in acc.iter_mut().zip(rows_at) {
            let av = V::splat(*row.add(c));
            for (o, &bv) in accr.iter_mut().zip(&bvec) {
                *o = V::fma(av, bv, *o);
            }
        }
    };
    // Wrapping: only `bp + row(p)` is a position the caller proved in
    // bounds, not `bp` alone, and after the last `k` the stepped pointer
    // may point past the end of `b`, where it is never dereferenced.
    let bp = s.b.data().as_ptr().wrapping_add(s.bcol);
    match s.b.stride() {
        // A pointer bump per row, not an offset per row: 3–10 % on the
        // short-`K` products of narrow convs.
        Some(stride) => {
            let mut bsrc = bp.wrapping_add(s.kk0 * stride);
            for c in s.a.cols(s.kk0, s.kc) {
                step(c, bsrc);
                bsrc = bsrc.wrapping_add(stride);
            }
        }
        None => {
            for (c, brow) in s.a.cols(s.kk0, s.kc).zip(s.b.rows(s.kk0, s.kc)) {
                step(c, bp.wrapping_add(brow));
            }
        }
    }
    let op = opanel.as_mut_ptr();
    let bias = s.bias.unwrap_or([0.0; MR]);
    for (r, accr) in acc.iter().enumerate().take(s.rows) {
        for (v, (&sum, &mask)) in accr.iter().zip(&masks).enumerate() {
            let dst = op.wrapping_add(r * n + j + v * V::LANES);
            let mut value = if s.first {
                sum
            } else {
                V::add(V::load::<FULL>(dst, mask), sum)
            };
            if BIAS {
                value = V::add(value, V::splat(bias[r]));
            }
            V::store::<FULL>(dst, mask, value);
        }
    }
}

/// [`tile`] at `NV` vectors of `V`, unmasked when the strip fills it, with
/// the bias add when the strip carries one.
///
/// # Safety
///
/// As [`tile`].
// SAFETY: same contract as `tile`, which it only forwards to.
#[inline(always)]
unsafe fn tile_any<V: Vector, const NV: usize, A: PanelA, B: PanelB>(
    s: &Strip<'_, A, B>,
    opanel: &mut [f32],
) {
    match (s.cols == NV * V::LANES, s.bias.is_some()) {
        (true, false) => tile::<V, NV, true, false, A, B>(s, opanel),
        (false, false) => tile::<V, NV, false, false, A, B>(s, opanel),
        (true, true) => tile::<V, NV, true, true, A, B>(s, opanel),
        (false, true) => tile::<V, NV, false, true, A, B>(s, opanel),
    }
}

// SAFETY: `unsafe fn` because of `#[target_feature]`: the caller
// (`Tile::run`) must have AVX2 + FMA. This is where the `__m256`
// instantiation of `tile` is compiled with that ISA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile_ymm<A: PanelA, B: PanelB>(s: &Strip<'_, A, B>, opanel: &mut [f32]) {
    tile_any::<std::arch::x86_64::__m256, 1, A, B>(s, opanel)
}

// SAFETY: `unsafe fn` because of `#[target_feature]`: the caller
// (`Tile::run`) must have AVX-512F. This is where the `__m512`
// instantiations of `tile` are compiled with that ISA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_zmm<const NV: usize, A: PanelA, B: PanelB>(s: &Strip<'_, A, B>, opanel: &mut [f32]) {
    tile_any::<std::arch::x86_64::__m512, NV, A, B>(s, opanel)
}

impl Tile {
    /// Runs this tile over one strip of `opanel`.
    ///
    /// # Safety
    ///
    /// The host must support the tile ([`Tile::supported`]), every `A`
    /// read must be one the [`PanelA`] contract covers (rows `rb`, columns
    /// `kk0..kk0+kc ≤ a.depth()`), the live lanes of every vector `v` of
    /// every `B` row `p` of the block — from `bcol + row(p) +
    /// v·vector_step` — must be inside `b.data()`, the
    /// `rows` output rows `n` apart must hold columns `j..j+cols` inside
    /// `opanel`, and `1 ≤ cols ≤ self.width()`.
    // SAFETY: `unsafe fn` because the tiles read and write unchecked and
    // execute ISA-gated instructions; `panel` and `Lanes::sample` are
    // the only callers.
    unsafe fn run<A: PanelA, B: PanelB>(self, s: &Strip<'_, A, B>, opanel: &mut [f32]) {
        match self {
            Tile::Portable => tile_any::<[f32; LANES], 1, A, B>(s, opanel),
            #[cfg(target_arch = "x86_64")]
            Tile::Ymm => tile_ymm(s, opanel),
            #[cfg(target_arch = "x86_64")]
            Tile::Zmm => tile_zmm::<1, A, B>(s, opanel),
            #[cfg(target_arch = "x86_64")]
            Tile::ZmmPair => tile_zmm::<2, A, B>(s, opanel),
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("no SIMD tile is supported off x86_64"),
        }
    }

    /// Runs this tile's positions block over one strip (see `Positions`):
    /// a zmm for each of [`POSITION_LANES`] — also for the pair, whose
    /// second vector the reduction has no use for — or two ymm or two
    /// portable vectors.
    ///
    /// # Safety
    ///
    /// The host must support the tile; the strip's block shape must be one
    /// `positions_block` names for it, its channels (`co0 + acc_co..+cb`),
    /// live taps (`t0..t0 + live_taps`, at least one when `tb > 0`) and
    /// rows must exist in its `Positions`, and `acc` must hold the scratch
    /// of channels `0..acc_co + cb`.
    // SAFETY: `unsafe fn` because the tile reads and writes unchecked and
    // executes ISA-gated instructions; `Positions::channels` is the only
    // caller.
    unsafe fn run_positions(self, s: &PosStrip<'_>, acc: &mut [f32]) {
        match self {
            Tile::Portable => positions_any::<[f32; LANES], 2>(s, acc),
            #[cfg(target_arch = "x86_64")]
            Tile::Ymm => positions_ymm(s, acc),
            #[cfg(target_arch = "x86_64")]
            Tile::Zmm | Tile::ZmmPair => positions_zmm(s, acc),
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
    fn run_rule_fills_the_pair_tile_from_17_positions() {
        for remaining in 1..=100 {
            let (tile, strip) = (Tile::for_run(remaining), Tile::for_strip(remaining));
            assert!(tile.supported(), "{tile:?} picked for {remaining}");
            let want = if Tile::ZmmPair.supported() && remaining > 16 {
                Tile::ZmmPair
            } else {
                strip
            };
            assert_eq!(tile, want, "{remaining} positions remaining");
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
            Tile::for_strip,
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
                        panel(
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
                        panel(|_| tile, &a, b, n, 0, MR, 0, k, j0, nc, first, out)
                    };
                    run(tile, &mut out[..MR * n]);
                    let mut want = vec![7.0f32; MR * n + GUARD];
                    // Dispatch-free oracle: the strip one column at a time.
                    for j in j0..n {
                        panel(
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
                Tile::for_strip,
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
    fn run_tables_are_validated_against_the_base() {
        let base = [0.0f32; 10];
        // Last float read: tap 5 + origin 2 + run 3 − 1 = 9.
        assert!(GatherRuns::new(&base, &[0, 5], &[0, 2], 3).is_ok());
        assert_eq!(
            GatherRuns::new(&base, &[0, 5], &[0, 3], 3).unwrap_err(),
            TensorError::OffsetOutOfBounds { reach: 10, len: 10 }
        );
        assert!(GatherRuns::new(&base, &[u32::MAX], &[u32::MAX], 1).is_err());
        // No taps, no origins or empty runs read nothing.
        assert!(GatherRuns::new(&[], &[], &[7], 4).is_ok());
        assert!(GatherRuns::new(&[], &[7], &[], 4).is_ok());
        assert!(GatherRuns::new(&[], &[7], &[7], 0).is_ok());
        // Attached to a gather: bounds as above, and the runs must cover
        // the rows exactly.
        let rows: Vec<u32> = vec![0, 1, 2, 4, 5, 6];
        let a = GatherA::new(&base, &rows, &[0, 1]).unwrap();
        assert!(a.runs().is_none());
        assert!(a.with_runs(&[0, 4], 3).unwrap().runs().is_some());
        assert_eq!(
            a.with_runs(&[0, 4], 2).unwrap_err(),
            TensorError::ShapeDataMismatch {
                expected: 4,
                actual: 6
            }
        );
        let short = GatherA::new(&base[..8], &rows, &[0, 1]).unwrap();
        assert!(matches!(
            short.with_runs(&[0, 5], 3),
            Err(TensorError::OffsetOutOfBounds { reach: 8, len: 8 })
        ));
    }

    /// A lane problem: `samples` images of `c` channels padded to
    /// `rows_per × (run + 2)` floats each, `k = c·6` taps of a 2×3 window,
    /// one output row of `run` positions per padded row — with the
    /// positions as the rows of the gathered operand and the same windows
    /// as runs.
    struct LaneCase {
        base: Vec<f32>,
        pos: Vec<u32>,
        origins: Vec<u32>,
        taps: Vec<u32>,
        run: usize,
    }

    impl LaneCase {
        fn new(samples: usize, c: usize, rows_per: usize, run: usize, seed: u64) -> LaneCase {
            let wp = run + 2;
            let sample = c * (rows_per + 1) * wp;
            let origins: Vec<u32> = (0..samples * rows_per)
                .map(|r| ((r / rows_per) * sample + (r % rows_per) * wp) as u32)
                .collect();
            let pos = origins
                .iter()
                .flat_map(|&o| (0..run as u32).map(move |x| o + x))
                .collect();
            let taps = (0..c)
                .flat_map(|ch| (0..2).flat_map(move |kh| (0..3).map(move |kw| (ch, kh, kw))))
                .map(|(ch, kh, kw)| ((ch * (rows_per + 1) + kh) * wp + kw) as u32)
                .collect();
            LaneCase {
                base: values(samples * sample, seed),
                pos,
                origins,
                taps,
                run,
            }
        }

        fn a(&self) -> GatherA<'_> {
            let a = GatherA::new(&self.base, &self.pos, &self.taps).unwrap();
            a.with_runs(&self.origins, self.run).unwrap()
        }
    }

    /// The NCHW product `lanes_on_tile` must make, spelled out per element:
    /// a zeroed accumulator and one `mul_add` per tap for each `KC` block,
    /// the blocks summed in order, then the bias.
    fn lanes_reference(
        case: &LaneCase,
        n: usize,
        b: &[f32],
        plane: usize,
        bias: Option<&[f32]>,
    ) -> Vec<f32> {
        let (m, k) = (case.pos.len(), case.taps.len());
        let mut out = vec![0.0f32; m * n];
        for (i, &p) in case.pos.iter().enumerate() {
            for j in 0..n {
                let mut total = 0.0f32;
                for kk0 in (0..k).step_by(KC) {
                    let block = (kk0..k.min(kk0 + KC)).fold(0.0f32, |acc, q| {
                        let x = case.base[p as usize + case.taps[q] as usize];
                        b[q * n + j].mul_add(x, acc)
                    });
                    total = if kk0 == 0 { block } else { total + block };
                }
                let v = bias.map_or(total, |bias| total + bias[j]);
                out[((i / plane) * n + j) * plane + i % plane] = v;
            }
        }
        out
    }

    #[test]
    fn every_tile_runs_the_lane_product_with_equal_bits() {
        // Runs narrower than, equal to and wider than every tile (masked
        // last runs included), channel counts around the 8-row panel, a
        // `K` on both sides of `KC`, with and without a bias, on a
        // poisoned output.
        let mut tiles = simd_tiles();
        tiles.insert(0, Tile::Portable);
        for (run, n, c) in [
            (5, 3, 1),
            (8, 8, 2),
            (13, 9, 1),
            (16, 1, 3),
            (37, 17, 2),
            (64, 4, 50),
        ] {
            let (samples, rows_per) = (2, 3);
            let case = LaneCase::new(samples, c, rows_per, run, (run * 31 + n) as u64);
            let (k, plane) = (case.taps.len(), rows_per * run);
            let b = values(k * n, 7);
            let bias = values(n, 8);
            for bias in [Some(&bias[..]), None] {
                let want = lanes_reference(&case, n, &b, plane, bias);
                for &tile in &tiles {
                    // A sentinel behind the output catches a masked lane
                    // stored anyway.
                    let len = samples * n * plane;
                    let mut out = vec![f32::NAN; len + 32];
                    out[len..].fill(7.0);
                    let a = case.a();
                    assert!(lanes_on_tile(tile, &a, n, &b, plane, bias, &mut out[..len]));
                    assert_eq!(
                        bits(&out[..len]),
                        bits(&want),
                        "{tile:?} run {run} n {n} k {k} bias {}",
                        bias.is_some()
                    );
                    assert!(out[len..].iter().all(|&v| v == 7.0), "{tile:?} wrote past");
                }
            }
        }
    }

    #[test]
    fn lanes_need_runs_and_a_supported_tile() {
        let case = LaneCase::new(1, 1, 2, 4, 3);
        let (b, mut out) = (values(6 * 2, 4), vec![f32::NAN; 2 * 8]);
        let plain = GatherA::new(&case.base, &case.pos, &case.taps).unwrap();
        assert!(!lanes_on_tile(
            Tile::Portable,
            &plain,
            2,
            &b,
            8,
            None,
            &mut out
        ));
        for tile in Tile::ALL {
            let ran = lanes_on_tile(tile, &case.a(), 2, &b, 8, None, &mut out);
            assert_eq!(ran, tile.supported(), "{tile:?}");
        }
        // No taps: the product is its bias.
        let a = GatherA::new(&case.base, &case.pos, &[]).unwrap();
        let a = a.with_runs(&case.origins, 4).unwrap();
        assert!(lanes_on_tile(
            Tile::Portable,
            &a,
            2,
            &[],
            8,
            Some(&[1.5, -2.0]),
            &mut out
        ));
        assert_eq!(out, [[1.5; 8], [-2.0; 8]].concat());
    }

    #[test]
    #[should_panic]
    fn lanes_reject_a_plane_that_is_not_whole_runs() {
        // 16 rows in runs of 4: planes of 2 split the samples evenly but
        // cut every run in half.
        let case = LaneCase::new(2, 1, 2, 4, 3);
        let (b, mut out) = (values(6, 4), vec![0.0f32; 16]);
        lanes_on_tile(Tile::Portable, &case.a(), 1, &b, 2, None, &mut out);
    }

    #[test]
    fn every_tile_runs_the_positions_reduction_with_equal_bits() {
        // Runs below, at and above one chunk of 16 (masked tails included),
        // channel counts through every block shape, taps on both sides of
        // every tap block, into prefilled `dW` / `db` over a poisoned
        // scratch; the portable tile is the reference.
        let mut tiles = simd_tiles();
        tiles.push(Tile::ZmmPair);
        tiles.retain(|t| t.supported());
        for (run, c_out, c) in [(5, 1, 1), (16, 3, 2), (17, 4, 1), (37, 7, 3), (64, 13, 5)] {
            let (samples, rows_per) = (2, 3);
            let case = LaneCase::new(samples, c, rows_per, run, (run * 7 + c_out) as u64);
            let k = case.taps.len();
            let g = values(samples * c_out * rows_per * run, 11);
            let on = |tile: Tile| {
                let (mut dw, mut db) = (values(c_out * k, 12), values(c_out, 13));
                let mut scratch = vec![f32::NAN; 3];
                let plane = rows_per * run;
                let a = case.a();
                assert!(positions_on_tile(
                    tile,
                    &a,
                    &g,
                    plane,
                    &mut dw,
                    &mut db,
                    &mut scratch
                ));
                [dw, db].concat()
            };
            let want = on(Tile::Portable);
            assert!(want.iter().all(|v| v.is_finite()));
            for &tile in &tiles {
                assert_eq!(
                    bits(&on(tile)),
                    bits(&want),
                    "{tile:?} run {run} c_out {c_out}"
                );
            }
        }
    }

    #[test]
    fn positions_fold_one_fixed_tree_and_their_rule_reads_no_width() {
        // 16 → 8 → 4 → 2 → 1, spelled out on values whose sum depends on
        // the order.
        let lanes: Vec<f32> = (0..16)
            .map(|i| (1u32 << (i % 24)) as f32 * 1e-7 + i as f32)
            .collect();
        let l8: Vec<f32> = (0..8).map(|i| lanes[i] + lanes[i + 8]).collect();
        let l4: Vec<f32> = (0..4).map(|i| l8[i] + l8[i + 4]).collect();
        let l2 = [l4[0] + l4[2], l4[1] + l4[3]];
        assert_eq!(fold_lanes(&lanes).to_bits(), (l2[0] + l2[1]).to_bits());
        // Whatever vector a tile holds, the reduction is 16 lanes of it
        // and the rule is the same function of the shape.
        for tile in Tile::ALL {
            let width = tile.width().min(POSITION_LANES);
            assert_eq!(POSITION_LANES % width, 0, "{tile:?}");
        }
        for stride in 1..4 {
            for out_w in 0..80 {
                for c_out in 1..50 {
                    let want = stride == 1 && out_w >= 16 && out_w >= 2 * c_out;
                    let got = super::super::positions_fit(stride, out_w, c_out);
                    assert_eq!(got, want, "stride {stride} out_w {out_w} c_out {c_out}");
                }
            }
        }
        // Blocks never name more channels than remain.
        for tile in Tile::ALL {
            for remaining in 1..10 {
                let (cb, tb) = positions_block(tile, remaining);
                assert!(
                    (1..=remaining).contains(&cb) && tb > 0,
                    "{tile:?} {remaining}"
                );
            }
        }
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
            Tile::for_strip,
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
