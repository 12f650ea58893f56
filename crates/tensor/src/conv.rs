//! Convolution lowering: the in-place gathered patch matrix the conv
//! layers multiply, and the explicit `im2col` / `col2im` it is tested
//! against.
//!
//! A 2-D convolution over an NCHW input is lowered to a matrix product.
//! The production lowering is [`ConvGather`]: the `(N·OH·OW) × (C·KH·KW)`
//! patch matrix is never written — element `(position, tap)` is
//! `padded[pos_off[position] + tap_off[tap]]`, two small offset tables
//! over the input the caller padded once ([`pad_nchw_into`]), which the
//! blocked GEMM reads in place ([`crate::kernels::GatherA`]). Forward,
//! weight gradient (the same tables swapped) and, for stride 1, the input
//! gradient (the same product over the padded output gradient with a
//! flipped kernel panel) all run through it — and so does the int8 forward over a cached `u8`
//! input ([`ConvGather::forward_quant_nchw_into`]: the same position
//! table, one four-byte quad per kernel row, each tile decoded to NCHW in
//! registers). Products whose result is an
//! activation (forward, input gradient) are written as NCHW by the GEMM
//! itself ([`Dest::Nchw`]); no position-row copy of them exists. At stride
//! 1, where an output row is a run of consecutive padded-input floats
//! under every tap, such a product may run transposed — output channels as
//! the rows, positions on the vector lanes — where
//! [`crate::kernels::lanes_fit`] says that pays; the bits are the same.
//! Its weight gradient may leave the product altogether:
//! [`ConvGather::wgrad_positions_into`] reduces over the output positions,
//! reading the output gradient in place as NCHW, where
//! [`crate::kernels::positions_fit`] says so — in its own fixed order, so
//! that choice is made by shape alone.
//!
//! The explicit lowerings remain as its oracle (f32 and `u8`; no layer
//! builds a patch matrix) and, `col2im` only, for the strided input
//! gradient:
//!
//! - **Per-sample** ([`im2col`] / [`col2im`]): one `(C·KH·KW) × (OH·OW)`
//!   patch matrix per image, multiplied by the `(C_out) × (C·KH·KW)`
//!   kernel matrix. Kept as the reference the batched path is tested
//!   against, and for callers that stream one image at a time.
//! - **Batched** ([`im2col_batch`] / [`col2im_batch`]): one
//!   `(N·OH·OW) × (C·KH·KW)` patch matrix for the whole minibatch, so the
//!   convolution is a *single* large GEMM instead of `N` small ones — large
//!   GEMMs are where the blocked kernel earns its keep.
//!   [`nchw_to_posrows`] / [`posrows_to_nchw`] convert activations between
//!   NCHW and the batched lowering's position-major row layout (the
//!   gathered weight gradient reads its output gradient that way; the way back is
//!   the oracle of the GEMM's NCHW destination, not a production pass).
//!
//! Each `col2im*` is the exact adjoint of its `im2col*`, which is what the
//! backward pass relies on; adjointness is property-tested below.

use crate::error::TensorError;
use crate::kernels::fan::fan;
use crate::kernels::int8::{self, QuantizedLhs, QuantizedRhs};
use crate::kernels::simd::{GatherRuns, Positions};
use crate::kernels::simd_int8::QuadA;
use crate::kernels::{host_cores, Dest, GatherA, GatherQuads, KernelBackend};
use crate::quant::QuantTensor;
use crate::tensor::Tensor;
use crate::Result;

/// Minimum total elements before the batched lowerings fan samples out
/// across threads. [`fan`] spawns OS threads per call (no persistent
/// pool), so small lowerings — gradcheck shapes, tiny test models — must
/// stay inline or spawn/join overhead dwarfs the copy work.
const PAR_MIN_ELEMS: usize = 1 << 16;

/// The [`fan`] workers of a batched lowering that touches `work_elems`
/// elements (for the scatter direction the cols matrix, not the output):
/// every core from [`PAR_MIN_ELEMS`] on, else one.
fn sample_workers(work_elems: usize) -> usize {
    if work_elems >= PAR_MIN_ELEMS {
        host_cores()
    } else {
        1
    }
}

/// Static geometry of a 2-D convolution (or pooling) window.
///
/// # Examples
///
/// ```
/// use nf_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(32, 32, 3, 3, 1, 1).unwrap();
/// assert_eq!((g.out_h, g.out_w), (32, 32)); // 'same' padding
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Computes output dimensions, validating that the window fits.
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the kernel does not fit in
    /// the padded input or if `stride` is zero.
    pub fn new(
        in_h: usize,
        in_w: usize,
        k_h: usize,
        k_w: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self> {
        if stride == 0 {
            return Err(TensorError::InvalidGeometry("stride must be > 0".into()));
        }
        if k_h == 0 || k_w == 0 {
            return Err(TensorError::InvalidGeometry("kernel must be > 0".into()));
        }
        let padded_h = in_h + 2 * pad;
        let padded_w = in_w + 2 * pad;
        if k_h > padded_h || k_w > padded_w {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {k_h}x{k_w} larger than padded input {padded_h}x{padded_w}"
            )));
        }
        Ok(Conv2dGeometry {
            in_h,
            in_w,
            k_h,
            k_w,
            stride,
            pad,
            out_h: (padded_h - k_h) / stride + 1,
            out_w: (padded_w - k_w) / stride + 1,
        })
    }

    /// Number of output positions (`out_h * out_w`).
    pub fn out_positions(&self) -> usize {
        self.out_h * self.out_w
    }

    /// The geometry under which this convolution's **input gradient** is
    /// itself a stride-1 convolution of the output gradient (with the
    /// kernel flipped, see [`flip_kernel_panel_into`]): a `k×k` window
    /// over `grad_out` padded by `k − 1 − pad`, producing `in_h × in_w`.
    ///
    /// `None` when it is not one: stride above 1 (the gradient would have
    /// to be zero-dilated first, multiplying mostly zeros — see DESIGN.md
    /// §8 for the measurement), padding wider than `k − 1`, or a
    /// non-square kernel.
    pub fn input_grad_geometry(&self) -> Option<Conv2dGeometry> {
        if self.stride != 1 || self.k_h != self.k_w || self.pad >= self.k_h {
            return None;
        }
        Some(Conv2dGeometry {
            in_h: self.out_h,
            in_w: self.out_w,
            k_h: self.k_h,
            k_w: self.k_w,
            stride: 1,
            pad: self.k_h - 1 - self.pad,
            out_h: self.in_h,
            out_w: self.in_w,
        })
    }
}

/// Zero-pads an NCHW tensor by `pad` on every spatial side into `out`
/// (grow-only; every element is written, so no clearing pass).
pub fn pad_nchw_into(x: &Tensor, pad: usize, out: &mut Tensor) -> Result<()> {
    let (n, c, h, w) = x.dims4()?;
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    out.reuse_as(&[n, c, hp, wp]);
    if h == 0 || w == 0 {
        out.data_mut().fill(0.0);
        return Ok(());
    }
    let planes = x.data().chunks_exact(h * w);
    for (src, dst) in planes.zip(out.data_mut().chunks_exact_mut(hp * wp)) {
        let (top, rest) = dst.split_at_mut(pad * wp);
        let (body, bottom) = rest.split_at_mut(h * wp);
        top.fill(0.0);
        bottom.fill(0.0);
        for (srow, drow) in src.chunks_exact(w).zip(body.chunks_exact_mut(wp)) {
            drow[..pad].fill(0.0);
            drow[pad..pad + w].copy_from_slice(srow);
            drow[pad + w..].fill(0.0);
        }
    }
    Ok(())
}

/// [`pad_nchw_into`] for an affine-`u8` tensor: pads with `pad_byte` (the
/// encoding's zero point, see [`int8::zero_point`]) into `out`, followed by
/// `slack` more bytes of it — the room a quad starting on the last window
/// of the last row reads past the image. Grow-only; every byte is written.
pub fn pad_nchw_u8_into(
    x: &QuantTensor,
    pad: usize,
    pad_byte: u8,
    slack: usize,
    out: &mut Vec<u8>,
) -> Result<()> {
    let (n, c, h, w) = x.dims4()?;
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    // One fill for rim and slack together, then the rows over it: the
    // buffer is a ninth of a patch matrix and a quarter of its f32 twin.
    out.clear();
    out.resize(n * c * hp * wp + slack, pad_byte);
    if h == 0 || w == 0 {
        return Ok(());
    }
    let planes = x.data().chunks_exact(h * w);
    for (src, dst) in planes.zip(out.chunks_exact_mut(hp * wp)) {
        let body = dst[pad * wp..].chunks_exact_mut(wp);
        for (srow, drow) in src.chunks_exact(w).zip(body) {
            drow[pad..pad + w].copy_from_slice(srow);
        }
    }
    Ok(())
}

/// Packs conv weights `(c_out, c_in·k_h·k_w)` into the `B` operand of the
/// input-gradient product: `(c_out·k_h·k_w, c_in)` with both kernel axes
/// reversed, so that convolving the padded output gradient with it (see
/// [`Conv2dGeometry::input_grad_geometry`]) yields `dx`.
pub fn flip_kernel_panel_into(
    weight: &Tensor,
    c_in: usize,
    k_h: usize,
    k_w: usize,
    out: &mut Tensor,
) -> Result<()> {
    let (c_out, fan_in) = weight.dims2()?;
    let taps = k_h * k_w;
    if fan_in != c_in * taps {
        return Err(TensorError::shape_mismatch(
            "flip_kernel_panel",
            weight.shape(),
            &[c_out, c_in * taps],
        ));
    }
    out.reuse_as(&[c_out * taps, c_in]);
    let src = weight.data();
    for (row, orow) in out.data_mut().chunks_exact_mut(c_in.max(1)).enumerate() {
        let (co, tap) = (row / taps, row % taps);
        let flipped = taps - 1 - tap; // reverses kh and kw together
        for (c, o) in orow.iter_mut().enumerate() {
            *o = src[co * fan_in + c * taps + flipped];
        }
    }
    Ok(())
}

/// One conv layer's patch matrix, addressed in place: the offset tables
/// that turn the (padded) input into the `A` operand of the layer's GEMMs,
/// cached across calls.
///
/// `A(position, tap) = padded[pos[position] + taps[tap]]`, positions
/// ordered `(n, oy, ox)` and taps `(c, kh, kw)` — exactly the rows and
/// columns of [`im2col_batch`], so products through it keep that
/// lowering's `K` order (and, on the blocked backend, its bits). At stride
/// 1 the positions of one output row are consecutive floats of the padded
/// input, and a third table — the origin of each `(n, oy)` output row —
/// lets a product whose rows pass [`crate::kernels::lanes_fit`] run with
/// the positions on the vector lanes ([`GatherA::with_runs`]). The tables
/// depend only on channels, geometry and batch size; they are rebuilt when
/// channels or geometry change and only ever extended when the batch grows
/// (a smaller batch's table is a prefix of a larger one's), so
/// steady-state calls allocate nothing.
///
/// # Examples
///
/// ```
/// use nf_tensor::{im2col_batch, matmul, Conv2dGeometry, ConvGather, KernelBackend, Tensor};
///
/// let x = Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
/// let geom = Conv2dGeometry::new(3, 3, 2, 2, 1, 0).unwrap();
/// let wt = Tensor::ones(&[4, 1]); // sum-of-window kernel, packed K×C_out
/// let (mut pack, mut out) = (Vec::new(), Tensor::default());
/// let mut lowering = ConvGather::new();
/// // No padding: the input is its own padded input.
/// lowering
///     .forward_into(KernelBackend::Blocked, &x, &geom, &wt, None, &mut pack, &mut out)
///     .unwrap();
/// assert_eq!(out.shape(), &[1, 1, 2, 2]);
/// assert_eq!(out.data(), &[12., 16., 24., 28.]);
/// assert_eq!(out.data(), matmul(&im2col_batch(&x, &geom).unwrap(), &wt).unwrap().data());
/// ```
#[derive(Debug, Default)]
pub struct ConvGather {
    /// Channels and geometry the tables were built for.
    key: Option<(usize, Conv2dGeometry)>,
    /// Offset of each output position's window origin in the padded
    /// input, `(n, oy, ox)`-major.
    pos: Vec<u32>,
    /// Offset of each output row's first window origin, `(n, oy)`-major:
    /// `pos` at `ox = 0`.
    rows: Vec<u32>,
    /// Offset of each `(c, kh, kw)` tap from a window origin.
    taps: Vec<u32>,
    /// The taps the int8 product loads a quad from: `kw = 0, 4, …` of
    /// every `(c, kh)` kernel row.
    quads: Vec<u32>,
}

impl ConvGather {
    /// Empty tables; built on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Brings the tables up to date for `n` samples of `c` channels under
    /// `geom`.
    fn ensure(&mut self, n: usize, c: usize, geom: &Conv2dGeometry) -> Result<()> {
        let (hp, wp) = (geom.in_h + 2 * geom.pad, geom.in_w + 2 * geom.pad);
        let sample = c * hp * wp;
        if u32::try_from(n * sample).is_err() {
            return Err(TensorError::InvalidGeometry(format!(
                "padded input of {n}×{c}×{hp}×{wp} elements exceeds the 32-bit gather offsets"
            )));
        }
        if self.key != Some((c, *geom)) {
            self.key = Some((c, *geom));
            self.pos.clear();
            self.rows.clear();
            self.taps.clear();
            self.quads.clear();
            for ch in 0..c {
                for kh in 0..geom.k_h {
                    for kw in 0..geom.k_w {
                        let tap = ((ch * hp + kh) * wp + kw) as u32;
                        self.taps.push(tap);
                        if kw % 4 == 0 {
                            self.quads.push(tap);
                        }
                    }
                }
            }
        }
        for img in self.rows.len() / geom.out_h.max(1)..n {
            for oy in 0..geom.out_h {
                let row = (img * sample + oy * geom.stride * wp) as u32;
                self.rows.push(row);
                for ox in 0..geom.out_w {
                    self.pos.push(row + (ox * geom.stride) as u32);
                }
            }
        }
        Ok(())
    }

    /// Checks an NCHW `shape` — with `padded` the input padded by
    /// `geom.pad` (every f32 product), else the input itself (the int8
    /// forward, which pads on its own) — against `geom`, updates the
    /// tables, and returns `(n·positions, c·k_h·k_w)`.
    fn tables_for(
        &mut self,
        op: &'static str,
        shape: &[usize],
        geom: &Conv2dGeometry,
        padded: bool,
    ) -> Result<(usize, usize)> {
        let &[n, c, h, w] = shape else {
            return Err(TensorError::RankMismatch {
                op,
                expected: 4,
                actual: shape.len(),
            });
        };
        let rim = if padded { 2 * geom.pad } else { 0 };
        if h != geom.in_h + rim || w != geom.in_w + rim {
            return Err(TensorError::shape_mismatch(
                op,
                shape,
                &[n, c, geom.in_h + rim, geom.in_w + rim],
            ));
        }
        self.ensure(n, c, geom)?;
        Ok((n * geom.out_positions(), self.taps.len()))
    }

    /// The forward pass: `out (N × C_out × OH × OW) = patches(x) · wt +
    /// bias`, with `padded` the input padded by `geom.pad`
    /// ([`pad_nchw_into`]; the input itself when that is 0), `wt` the
    /// `(C·KH·KW × C_out)` packed kernel panel and `bias` one value per
    /// output channel. Equals [`im2col_batch_into`] +
    /// [`crate::matmul_into`] + [`posrows_to_nchw_into`] without the patch
    /// matrix or the position-row product: the GEMM writes NCHW
    /// ([`Dest::Nchw`]). Taking the padded input lets a training layer pad
    /// once, into the cache its weight gradient reads
    /// ([`ConvGather::wgrad_into`]).
    ///
    /// `pack` is backend scratch, grow-only.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_into(
        &mut self,
        backend: KernelBackend,
        padded: &Tensor,
        geom: &Conv2dGeometry,
        wt: &Tensor,
        bias: Option<&[f32]>,
        pack: &mut Vec<f32>,
        out: &mut Tensor,
    ) -> Result<()> {
        let op = "conv_forward";
        let rows = self.tables_for(op, padded.shape(), geom, true)?;
        self.patches_times(op, backend, padded, rows, geom, wt, bias, pack, out)
    }

    /// The input gradient of a convolution whose
    /// [`Conv2dGeometry::input_grad_geometry`] is `dgeom`:
    /// `out (N × C_in × H × W) = patches(grad_out) · flipped`, with
    /// `padded` the output gradient padded by `dgeom.pad` (as for
    /// [`ConvGather::forward_into`]) and `flipped` from
    /// [`flip_kernel_panel_into`] — a gather over the padded output
    /// gradient where [`col2im_batch_into`] scatter-adds.
    pub fn dgrad_into(
        &mut self,
        backend: KernelBackend,
        padded: &Tensor,
        dgeom: &Conv2dGeometry,
        flipped: &Tensor,
        pack: &mut Vec<f32>,
        out: &mut Tensor,
    ) -> Result<()> {
        let op = "conv_dgrad";
        let rows = self.tables_for(op, padded.shape(), dgeom, true)?;
        self.patches_times(op, backend, padded, rows, dgeom, flipped, None, pack, out)
    }

    /// `out = patches(base) · panel (+ bias)` as NCHW, `base` the padded
    /// input the tables index and `(rows, patch)` what
    /// [`ConvGather::tables_for`] returned for it. Under
    /// [`crate::kernels::lanes_fit`] the patch matrix goes to the backend
    /// with its output-row runs attached.
    #[allow(clippy::too_many_arguments)]
    fn patches_times(
        &mut self,
        op: &'static str,
        backend: KernelBackend,
        base: &Tensor,
        (rows, patch): (usize, usize),
        geom: &Conv2dGeometry,
        panel: &Tensor,
        bias: Option<&[f32]>,
        pack: &mut Vec<f32>,
        out: &mut Tensor,
    ) -> Result<()> {
        let (k, n) = panel.dims2()?;
        if k != patch || bias.is_some_and(|b| b.len() != n) {
            return Err(TensorError::shape_mismatch(
                op,
                &[rows, patch],
                panel.shape(),
            ));
        }
        let mut a = GatherA::new(base.data(), &self.pos[..rows], &self.taps)?;
        if crate::kernels::lanes_fit(geom.stride, geom.out_w) {
            a = a.with_runs(&self.rows[..rows / geom.out_w], geom.out_w)?;
        }
        let plane = geom.out_positions();
        out.reuse_as(&[rows / plane, n, geom.out_h, geom.out_w]);
        let dest = Dest::Nchw { plane, bias };
        backend
            .backend()
            .gemm_gather(&a, n, panel.data(), dest, out.data_mut(), pack);
        Ok(())
    }

    /// The weight gradient, transposed:
    /// `out (C·KH·KW × C_out) = patches(x)ᵀ · g_rows`, with `g_rows` the
    /// output gradient as `(N·OH·OW × C_out)` position rows and `padded`
    /// the input padded by `geom.pad` ([`pad_nchw_into`]; the input itself
    /// when that is 0) — the forward tables swapped. Element for element it
    /// sums what [`crate::matmul_at_b_into`]`(g_rows, patches)` sums, in
    /// the same order.
    pub fn wgrad_into(
        &mut self,
        backend: KernelBackend,
        padded: &Tensor,
        geom: &Conv2dGeometry,
        g_rows: &Tensor,
        pack: &mut Vec<f32>,
        out: &mut Tensor,
    ) -> Result<()> {
        let op = "conv_wgrad";
        let (rows, patch) = self.tables_for(op, padded.shape(), geom, true)?;
        let (g_len, c_out) = g_rows.dims2()?;
        if g_len != rows {
            return Err(TensorError::shape_mismatch(
                op,
                &[rows, patch],
                g_rows.shape(),
            ));
        }
        let a = GatherA::new(padded.data(), &self.taps, &self.pos[..rows])?;
        out.reuse_as(&[patch, c_out]);
        let (g, dwt) = (g_rows.data(), out.data_mut());
        backend
            .backend()
            .gemm_gather(&a, c_out, g, Dest::RowMajor, dwt, pack);
        Ok(())
    }

    /// The weight and bias gradients with the output positions as the
    /// reduction axis, **accumulated**: `dw (C_out × C·KH·KW) +=
    /// patches(x)ᵀ · g` and `db (C_out) +=` each output channel's sum of
    /// `g`, with `grad_out` the output gradient as NCHW, read in place (each
    /// channel's output rows are contiguous runs), and `padded` the input
    /// padded by `geom.pad` as for [`ConvGather::wgrad_into`]. Stride 1
    /// only, where an output row is a run of the padded input under every
    /// tap too; a layer takes it where [`crate::kernels::positions_fit`]
    /// holds. The sums run in the one order the shape fixes (DESIGN.md §8
    /// "Weight gradient on the positions axis") on every tile and at any
    /// thread count — not [`ConvGather::wgrad_into`]'s order, so the two
    /// agree to rounding, not bit for bit. `scratch` holds the lane sums,
    /// grow-only.
    pub fn wgrad_positions_into(
        &mut self,
        padded: &Tensor,
        geom: &Conv2dGeometry,
        grad_out: &Tensor,
        scratch: &mut Vec<f32>,
        dw: &mut Tensor,
        db: &mut Tensor,
    ) -> Result<()> {
        let op = "conv_wgrad_positions";
        if geom.stride != 1 {
            return Err(TensorError::InvalidGeometry(format!(
                "the weight gradient on the positions axis needs stride 1, not {}",
                geom.stride
            )));
        }
        let (_, patch) = self.tables_for(op, padded.shape(), geom, true)?;
        let n = padded.shape()[0];
        let (gn, c_out, gh, gw) = grad_out.dims4()?;
        let fits = dw.shape() == [c_out, patch] && db.shape() == [c_out];
        if (gn, gh, gw) != (n, geom.out_h, geom.out_w) || !fits {
            return Err(TensorError::shape_mismatch(
                op,
                grad_out.shape(),
                &[n, c_out, geom.out_h, geom.out_w],
            ));
        }
        let origins = &self.rows[..n * geom.out_h];
        let runs = GatherRuns::new(padded.data(), &self.taps, origins, geom.out_w)?;
        let p = Positions::new(runs, grad_out.data(), c_out, geom.out_h);
        crate::kernels::positions_into(&p, dw.data_mut(), db.data_mut(), scratch);
        Ok(())
    }

    /// The int8 forward product over an affine-`u8` input: `acc`
    /// (`N·OH·OW × C_out` exact `i32` accumulators, the rows returned) `=
    /// patches(x) · rhs`, equal bit for bit to [`im2col_batch_u8_into`] +
    /// [`int8::gemm_i32`] without the patch matrix.
    ///
    /// `maddubs` consumes four consecutive `K` values as one 32-bit load,
    /// so `rhs` must be the `(C·KH·KW × C_out)` kernel panel packed one
    /// quad per kernel row ([`QuantizedRhs::pack_runs_from_f32`] with
    /// `run = KW`): every quad is then four contiguous bytes of one padded
    /// input row, addressed by the same position table as the f32 product
    /// and the `kw = 0, 4, …` taps. `padded` receives `x` padded with its
    /// zero-point byte (always — unlike the f32 path an unpadded `x` has no
    /// room for the last quad's `round_up4(KW) − KW` trailing bytes);
    /// grow-only, as is `acc`.
    pub fn forward_quant_into(
        &mut self,
        x: &QuantTensor,
        geom: &Conv2dGeometry,
        rhs: &QuantizedRhs,
        padded: &mut Vec<u8>,
        acc: &mut Vec<i32>,
    ) -> Result<usize> {
        let a = self.quant_operand("conv_forward_quant", x, geom, rhs, padded)?;
        int8::gemm_i32_gather(&a, rhs, acc);
        Ok(a.rows())
    }

    /// What the layer runs: [`ConvGather::forward_quant_into`]'s product
    /// dequantized under `x`'s encoding, `bias` added, into `out` as the
    /// `N × C_out × OH × OW` tensor ([`int8::gemm_i32_gather_nchw`]) — the
    /// bits of [`int8::dequantize_into`] over the accumulators followed by
    /// [`crate::posrows_to_nchw`], with no `M × N` accumulator buffer.
    /// `padded` and `acc` (the row blocks the decoding tile cannot take)
    /// are grow-only scratch.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_quant_nchw_into(
        &mut self,
        x: &QuantTensor,
        geom: &Conv2dGeometry,
        rhs: &QuantizedRhs,
        bias: &[f32],
        padded: &mut Vec<u8>,
        acc: &mut Vec<i32>,
        out: &mut Tensor,
    ) -> Result<()> {
        let op = "conv_forward_quant";
        if bias.len() != rhs.n() {
            return Err(TensorError::shape_mismatch(op, &[bias.len()], &[rhs.n()]));
        }
        let a = self.quant_operand(op, x, geom, rhs, padded)?;
        let n = x.shape().first().copied().unwrap_or(0);
        out.reuse_as(&[n, rhs.n(), geom.out_h, geom.out_w]);
        let (scale, min, plane) = (x.scale(), x.min(), geom.out_positions());
        int8::gemm_i32_gather_nchw(&a, rhs, scale, min, bias, plane, out.data_mut(), acc);
        Ok(())
    }

    /// The gathered `u8` operand of `x`'s int8 product with `rhs`: checks
    /// the shapes, builds the tables and pads `x` into `padded`.
    fn quant_operand<'a>(
        &'a mut self,
        op: &'static str,
        x: &QuantTensor,
        geom: &Conv2dGeometry,
        rhs: &QuantizedRhs,
        padded: &'a mut Vec<u8>,
    ) -> Result<GatherQuads<'a>> {
        let (rows, patch) = self.tables_for(op, x.shape(), geom, false)?;
        if rhs.k() != patch || rhs.run() != geom.k_w {
            return Err(TensorError::shape_mismatch(
                op,
                &[rows, patch],
                &[rhs.k(), rhs.n()],
            ));
        }
        let pad_byte = int8::zero_point(x.min(), x.scale());
        let slack = int8::round_up4(geom.k_w) - geom.k_w;
        pad_nchw_u8_into(x, geom.pad, pad_byte, slack, padded)?;
        GatherQuads::new(padded, &self.pos[..rows], &self.quads)
    }
}

/// Unrolls one image `(c, in_h, in_w)` into patch columns
/// `(c*k_h*k_w, out_h*out_w)`.
///
/// `image` must be a rank-3 tensor `(c, h, w)` consistent with `geom`.
pub fn im2col(image: &Tensor, channels: usize, geom: &Conv2dGeometry) -> Result<Tensor> {
    if image.rank() != 3 {
        return Err(TensorError::RankMismatch {
            op: "im2col",
            expected: 3,
            actual: image.rank(),
        });
    }
    let shape = image.shape();
    if shape[0] != channels || shape[1] != geom.in_h || shape[2] != geom.in_w {
        return Err(TensorError::shape_mismatch(
            "im2col",
            shape,
            &[channels, geom.in_h, geom.in_w],
        ));
    }
    let rows = channels * geom.k_h * geom.k_w;
    let cols = geom.out_positions();
    let src = image.data();
    let mut out = vec![0.0f32; rows * cols];
    let (in_h, in_w) = (geom.in_h as isize, geom.in_w as isize);
    for c in 0..channels {
        let plane = &src[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for kh in 0..geom.k_h {
            for kw in 0..geom.k_w {
                let row = (c * geom.k_h + kh) * geom.k_w + kw;
                let dst_row = &mut out[row * cols..(row + 1) * cols];
                let mut col = 0usize;
                for oy in 0..geom.out_h {
                    let iy = (oy * geom.stride + kh) as isize - geom.pad as isize;
                    for ox in 0..geom.out_w {
                        let ix = (ox * geom.stride + kw) as isize - geom.pad as isize;
                        if iy >= 0 && iy < in_h && ix >= 0 && ix < in_w {
                            dst_row[col] = plane[iy as usize * geom.in_w + ix as usize];
                        }
                        col += 1;
                    }
                }
            }
        }
    }
    Tensor::from_vec(vec![rows, cols], out)
}

/// Adjoint of [`im2col`]: scatters patch columns back onto an image,
/// accumulating where patches overlap.
///
/// `cols` must have shape `(channels*k_h*k_w, out_h*out_w)`; the result is a
/// rank-3 `(channels, in_h, in_w)` tensor.
pub fn col2im(cols: &Tensor, channels: usize, geom: &Conv2dGeometry) -> Result<Tensor> {
    let (rows, n_cols) = cols.dims2()?;
    if rows != channels * geom.k_h * geom.k_w || n_cols != geom.out_positions() {
        return Err(TensorError::shape_mismatch(
            "col2im",
            cols.shape(),
            &[channels * geom.k_h * geom.k_w, geom.out_positions()],
        ));
    }
    let src = cols.data();
    let mut out = vec![0.0f32; channels * geom.in_h * geom.in_w];
    let (in_h, in_w) = (geom.in_h as isize, geom.in_w as isize);
    for c in 0..channels {
        let plane = &mut out[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for kh in 0..geom.k_h {
            for kw in 0..geom.k_w {
                let row = (c * geom.k_h + kh) * geom.k_w + kw;
                let src_row = &src[row * n_cols..(row + 1) * n_cols];
                let mut col = 0usize;
                for oy in 0..geom.out_h {
                    let iy = (oy * geom.stride + kh) as isize - geom.pad as isize;
                    for ox in 0..geom.out_w {
                        let ix = (ox * geom.stride + kw) as isize - geom.pad as isize;
                        if iy >= 0 && iy < in_h && ix >= 0 && ix < in_w {
                            plane[iy as usize * geom.in_w + ix as usize] += src_row[col];
                        }
                        col += 1;
                    }
                }
            }
        }
    }
    Tensor::from_vec(vec![channels, geom.in_h, geom.in_w], out)
}

/// Unrolls a whole NCHW minibatch into patch rows
/// `(n*out_h*out_w + oy*out_w + ox, (c*k_h + kh)*k_w + kw)` — the
/// `(N·OH·OW) × (C·KH·KW)` layout that turns a convolution into one large
/// GEMM against the kernel matrix.
///
/// `input` must be rank-4 `(n, channels, in_h, in_w)` consistent with
/// `geom`. Samples are unrolled in parallel when threads are available.
pub fn im2col_batch(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    let mut out = Tensor::zeros(&[0]);
    im2col_batch_into(input, geom, &mut out)?;
    Ok(out)
}

/// [`im2col_batch`] writing into a caller-provided buffer (grow-only, see
/// [`Tensor::reuse_zeroed`]): the zero-allocation steady-state entry point
/// the conv layers run on.
pub fn im2col_batch_into(input: &Tensor, geom: &Conv2dGeometry, out: &mut Tensor) -> Result<()> {
    im2col_batch_on(sample_workers, input, geom, out)
}

/// [`im2col_batch_into`], its samples fanned out over `workers(elements)`.
fn im2col_batch_on(
    workers: impl Fn(usize) -> usize,
    input: &Tensor,
    geom: &Conv2dGeometry,
    out: &mut Tensor,
) -> Result<()> {
    let (n, channels, h, w) = input.dims4().map_err(|_| TensorError::RankMismatch {
        op: "im2col_batch",
        expected: 4,
        actual: input.rank(),
    })?;
    if h != geom.in_h || w != geom.in_w {
        return Err(TensorError::shape_mismatch(
            "im2col_batch",
            input.shape(),
            &[n, channels, geom.in_h, geom.in_w],
        ));
    }
    let positions = geom.out_positions();
    let patch = channels * geom.k_h * geom.k_w;
    let src = input.data();
    let sample_len = channels * geom.in_h * geom.in_w;
    // No up-front memset: every element is either copied from the input
    // or explicitly zeroed as a padding tap by the loop below, so the
    // buffer-sized clearing pass (the largest write in the hot path)
    // never runs.
    out.reuse_as(&[n * positions, patch]);
    let out = out.data_mut();
    let (in_h, in_w) = (geom.in_h as isize, geom.in_w as isize);
    let g = *geom;
    let samples = out.chunks_mut(positions * patch).enumerate();
    fan(workers(n * positions * patch), samples, |(img, block)| {
        let image = &src[img * sample_len..(img + 1) * sample_len];
        for oy in 0..g.out_h {
            for ox in 0..g.out_w {
                let row = &mut block[(oy * g.out_w + ox) * patch..(oy * g.out_w + ox + 1) * patch];
                // Clip the kw range to in-bounds input columns once per
                // position; each (c, kh) then copies one contiguous run
                // and zeroes only its clipped padding taps, instead of
                // branching per element.
                let ix0 = (ox * g.stride) as isize - g.pad as isize;
                let kw_lo = ((-ix0).max(0) as usize).min(g.k_w);
                let kw_hi = (in_w - ix0).clamp(0, g.k_w as isize) as usize;
                if kw_lo >= kw_hi {
                    // Whole window is horizontal padding.
                    row.fill(0.0);
                    continue;
                }
                let run = kw_hi - kw_lo;
                for c in 0..channels {
                    let plane = &image[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
                    for kh in 0..g.k_h {
                        let base = (c * g.k_h + kh) * g.k_w;
                        let seg = &mut row[base..base + g.k_w];
                        let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                        if iy < 0 || iy >= in_h {
                            seg.fill(0.0); // vertical padding row
                            continue;
                        }
                        seg[..kw_lo].fill(0.0);
                        seg[kw_hi..].fill(0.0);
                        let s = iy as usize * g.in_w + (ix0 + kw_lo as isize) as usize;
                        // Element loop rather than copy_from_slice: `run`
                        // is a handful of elements (≤ k_w), so a memcpy
                        // call costs more than the copy itself.
                        for (d, &v) in seg[kw_lo..kw_hi].iter_mut().zip(&plane[s..s + run]) {
                            *d = v;
                        }
                    }
                }
            }
        }
    });
    Ok(())
}

/// Adjoint of [`im2col_batch`]: scatters patch rows back onto an NCHW
/// minibatch, accumulating where receptive fields overlap.
///
/// `cols` must have shape `(n·out_h·out_w, channels·k_h·k_w)`; the result
/// is `(n, channels, in_h, in_w)`.
pub fn col2im_batch(
    cols: &Tensor,
    n: usize,
    channels: usize,
    geom: &Conv2dGeometry,
) -> Result<Tensor> {
    let mut out = Tensor::zeros(&[0]);
    col2im_batch_into(cols, n, channels, geom, &mut out)?;
    Ok(out)
}

/// [`col2im_batch`] writing into a caller-provided buffer (grow-only).
pub fn col2im_batch_into(
    cols: &Tensor,
    n: usize,
    channels: usize,
    geom: &Conv2dGeometry,
    out: &mut Tensor,
) -> Result<()> {
    col2im_batch_on(sample_workers, cols, n, channels, geom, out)
}

/// [`col2im_batch_into`], its samples fanned out over `workers(elements)`.
fn col2im_batch_on(
    workers: impl Fn(usize) -> usize,
    cols: &Tensor,
    n: usize,
    channels: usize,
    geom: &Conv2dGeometry,
    out: &mut Tensor,
) -> Result<()> {
    let (rows, patch) = cols.dims2()?;
    let positions = geom.out_positions();
    if rows != n * positions || patch != channels * geom.k_h * geom.k_w {
        return Err(TensorError::shape_mismatch(
            "col2im_batch",
            cols.shape(),
            &[n * positions, channels * geom.k_h * geom.k_w],
        ));
    }
    let src = cols.data();
    let sample_len = channels * geom.in_h * geom.in_w;
    // Zeroed because overlapping receptive fields accumulate.
    out.reuse_zeroed(&[n, channels, geom.in_h, geom.in_w]);
    let out = out.data_mut();
    let (in_h, in_w) = (geom.in_h as isize, geom.in_w as isize);
    let g = *geom;
    // Scatter work is proportional to the cols matrix (src), which is
    // ~K·K times larger than the output image it lands on.
    let samples = out.chunks_mut(sample_len).enumerate();
    fan(workers(src.len()), samples, |(img, image)| {
        let block = &src[img * positions * patch..(img + 1) * positions * patch];
        for oy in 0..g.out_h {
            for ox in 0..g.out_w {
                let row = &block[(oy * g.out_w + ox) * patch..(oy * g.out_w + ox + 1) * patch];
                // Same clipped-run structure as the gather direction, with
                // `+=` accumulation instead of a copy.
                let ix0 = (ox * g.stride) as isize - g.pad as isize;
                let kw_lo = (-ix0).max(0) as usize;
                let kw_hi = (in_w - ix0).clamp(0, g.k_w as isize) as usize;
                if kw_lo >= kw_hi {
                    continue;
                }
                let run = kw_hi - kw_lo;
                for c in 0..channels {
                    let plane_off = c * g.in_h * g.in_w;
                    for kh in 0..g.k_h {
                        let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                        if iy < 0 || iy >= in_h {
                            continue;
                        }
                        let s = (c * g.k_h + kh) * g.k_w + kw_lo;
                        let d = plane_off + iy as usize * g.in_w + (ix0 + kw_lo as isize) as usize;
                        for (dst, &v) in image[d..d + run].iter_mut().zip(&row[s..s + run]) {
                            *dst += v;
                        }
                    }
                }
            }
        }
    });
    Ok(())
}

/// Quantized variant of [`im2col_batch_into`]: unrolls an affine-`u8`
/// NCHW minibatch straight into the int8 GEMM's dense LHS layout — `u8`
/// patch rows at stride `round_up4(patch)` — without any decode to f32.
/// Like its f32 twin it is the oracle of the gathered lowering
/// ([`ConvGather::forward_quant_into`]), not a production path.
///
/// Padding taps are written as `pad_byte` (the quantized zero point of
/// the input's encoding, see [`crate::kernels::int8::zero_point`]); the
/// `0..=3` stride-tail bytes of each row are zeroed for determinism but
/// cancel against the packed RHS's zero rows regardless. Returns
/// `(rows, row_stride)`; `lhs` carries the input's affine parameters
/// through unchanged (a spatial rearrangement does not change the
/// encoding).
pub fn im2col_batch_u8_into(
    input: &QuantTensor,
    geom: &Conv2dGeometry,
    pad_byte: u8,
    lhs: &mut QuantizedLhs,
) -> Result<(usize, usize)> {
    let (n, channels, h, w) = input.dims4().map_err(|_| TensorError::RankMismatch {
        op: "im2col_batch_u8",
        expected: 4,
        actual: input.shape().len(),
    })?;
    if h != geom.in_h || w != geom.in_w {
        return Err(TensorError::shape_mismatch(
            "im2col_batch_u8",
            input.shape(),
            &[n, channels, geom.in_h, geom.in_w],
        ));
    }
    let positions = geom.out_positions();
    let patch = channels * geom.k_h * geom.k_w;
    let rows = n * positions;
    lhs.set_rows(rows, patch, input.scale(), input.min());
    let stride = lhs.k4;
    let src = input.data();
    let sample_len = channels * geom.in_h * geom.in_w;
    let out = &mut lhs.data[..];
    let (in_h, in_w) = (geom.in_h as isize, geom.in_w as isize);
    let g = *geom;
    for (img, block) in out.chunks_mut(positions * stride).enumerate() {
        let image = &src[img * sample_len..(img + 1) * sample_len];
        for oy in 0..g.out_h {
            for ox in 0..g.out_w {
                let row =
                    &mut block[(oy * g.out_w + ox) * stride..(oy * g.out_w + ox) * stride + patch];
                // Same clipped-run structure as the f32 gather, with the
                // zero-point byte standing in for padding zeros.
                let ix0 = (ox * g.stride) as isize - g.pad as isize;
                let kw_lo = ((-ix0).max(0) as usize).min(g.k_w);
                let kw_hi = (in_w - ix0).clamp(0, g.k_w as isize) as usize;
                if kw_lo >= kw_hi {
                    row.fill(pad_byte);
                    continue;
                }
                let run = kw_hi - kw_lo;
                for c in 0..channels {
                    let plane = &image[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
                    for kh in 0..g.k_h {
                        let base = (c * g.k_h + kh) * g.k_w;
                        let seg = &mut row[base..base + g.k_w];
                        let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                        if iy < 0 || iy >= in_h {
                            seg.fill(pad_byte);
                            continue;
                        }
                        seg[..kw_lo].fill(pad_byte);
                        seg[kw_hi..].fill(pad_byte);
                        let s = iy as usize * g.in_w + (ix0 + kw_lo as isize) as usize;
                        seg[kw_lo..kw_hi].copy_from_slice(&plane[s..s + run]);
                    }
                }
            }
        }
        // Zero the stride tails once per sample block.
        if stride > patch {
            for p in 0..positions {
                block[p * stride + patch..(p + 1) * stride].fill(0);
            }
        }
    }
    Ok((rows, stride))
}

/// Permutes an NCHW tensor to the batched lowering's position-major layout
/// `(N·H·W, C)`: row `(n*H*W + p)` holds the `C` channel values at spatial
/// position `p` of sample `n`.
pub fn nchw_to_posrows(x: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::zeros(&[0]);
    nchw_to_posrows_into(x, &mut out)?;
    Ok(out)
}

/// [`nchw_to_posrows`] writing into a caller-provided buffer (grow-only;
/// every element is overwritten).
pub fn nchw_to_posrows_into(x: &Tensor, out: &mut Tensor) -> Result<()> {
    let (n, c, h, w) = x.dims4()?;
    let plane = h * w;
    let src = x.data();
    out.reuse_as(&[n * plane, c]);
    let out = out.data_mut();
    // Per sample this is exactly a (c × plane) → (plane × c) transpose;
    // the tiled walk keeps both sides of the swap in L1.
    for img in 0..n {
        let sample = &src[img * c * plane..(img + 1) * c * plane];
        let block = &mut out[img * plane * c..(img + 1) * plane * c];
        crate::matmul::transpose_tiled(c, plane, sample, block);
    }
    Ok(())
}

/// Inverse of [`nchw_to_posrows`]: `(N·H·W, C)` rows back to `(N, C, H, W)`.
pub fn posrows_to_nchw(rows: &Tensor, n: usize, c: usize, h: usize, w: usize) -> Result<Tensor> {
    let mut out = Tensor::default();
    posrows_to_nchw_into(rows, None, n, c, h, w, &mut out)?;
    Ok(out)
}

/// [`posrows_to_nchw`] writing into a caller-provided buffer (grow-only;
/// every element is overwritten). With `bias` (one value per channel) each
/// element lands as `v + bias[channel]`.
///
/// Like [`im2col_batch_u8_into`] this is an oracle, not a production
/// path: it is the pass the conv layers made over a row-major product
/// until the GEMM got an NCHW destination ([`Dest::Nchw`]), what
/// [`crate::kernels::NaiveGemm`] still composes that destination from, and
/// so what the blocked kernel's emit is held to bit for bit.
pub fn posrows_to_nchw_into(
    rows: &Tensor,
    bias: Option<&[f32]>,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    out: &mut Tensor,
) -> Result<()> {
    let plane = h * w;
    if rows.dims2()? != (n * plane, c) || bias.is_some_and(|b| b.len() != c) {
        return Err(TensorError::shape_mismatch(
            "posrows_to_nchw",
            rows.shape(),
            &[n * plane, c],
        ));
    }
    out.reuse_as(&[n, c, h, w]);
    posrows_to_nchw_slice(rows.data(), bias, n, c, plane, out.data_mut());
    Ok(())
}

/// [`posrows_to_nchw_into`] on slices the caller has already checked:
/// `src` is `(n·plane) × c`, `out` its `n × c × plane` permutation.
pub(crate) fn posrows_to_nchw_slice(
    src: &[f32],
    bias: Option<&[f32]>,
    n: usize,
    c: usize,
    plane: usize,
    out: &mut [f32],
) {
    // Inverse per-sample transpose, same tiling rationale as the forward
    // direction.
    for img in 0..n {
        let block = &src[img * plane * c..(img + 1) * plane * c];
        let sample = &mut out[img * c * plane..(img + 1) * c * plane];
        match bias {
            Some(b) => {
                crate::matmul::transpose_tiled_with(plane, c, block, sample, |ch, v| v + b[ch])
            }
            None => crate::matmul::transpose_tiled(plane, c, block, sample),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn geometry_same_padding() {
        let g = Conv2dGeometry::new(8, 8, 3, 3, 1, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (8, 8));
        let g = Conv2dGeometry::new(8, 8, 2, 2, 2, 0).unwrap();
        assert_eq!((g.out_h, g.out_w), (4, 4));
    }

    #[test]
    fn geometry_rejects_degenerate() {
        assert!(Conv2dGeometry::new(4, 4, 3, 3, 0, 1).is_err());
        assert!(Conv2dGeometry::new(2, 2, 5, 5, 1, 0).is_err());
        assert!(Conv2dGeometry::new(4, 4, 0, 1, 1, 0).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: im2col is just a reshape.
        let img = Tensor::from_vec(vec![2, 2, 2], (0..8).map(|i| i as f32).collect()).unwrap();
        let g = Conv2dGeometry::new(2, 2, 1, 1, 1, 0).unwrap();
        let cols = im2col(&img, 2, &g).unwrap();
        assert_eq!(cols.shape(), &[2, 4]);
        assert_eq!(cols.data(), img.data());
    }

    #[test]
    fn im2col_known_patches() {
        // 1 channel 3x3 image, 2x2 kernel, stride 1, no pad -> 4 patches.
        let img = Tensor::from_vec(vec![1, 3, 3], (1..=9).map(|i| i as f32).collect()).unwrap();
        let g = Conv2dGeometry::new(3, 3, 2, 2, 1, 0).unwrap();
        let cols = im2col(&img, 1, &g).unwrap();
        assert_eq!(cols.shape(), &[4, 4]);
        // Patch top-left corners: 1 2 / 4 5. Row r of cols = kernel position r
        // across all patches.
        assert_eq!(cols.data()[0..4], [1.0, 2.0, 4.0, 5.0]); // k(0,0)
        assert_eq!(cols.data()[4..8], [2.0, 3.0, 5.0, 6.0]); // k(0,1)
        assert_eq!(cols.data()[8..12], [4.0, 5.0, 7.0, 8.0]); // k(1,0)
        assert_eq!(cols.data()[12..16], [5.0, 6.0, 8.0, 9.0]); // k(1,1)
    }

    #[test]
    fn padding_fills_zeros() {
        let img = Tensor::ones(&[1, 1, 1]);
        let g = Conv2dGeometry::new(1, 1, 3, 3, 1, 1).unwrap();
        let cols = im2col(&img, 1, &g).unwrap();
        // Only the centre kernel tap hits the single pixel.
        let total: f32 = cols.data().iter().sum();
        assert_eq!(total, 1.0);
        assert_eq!(cols.at(&[4, 0]), 1.0);
    }

    #[test]
    fn shape_validation() {
        let img = Tensor::zeros(&[1, 3, 3]);
        let g = Conv2dGeometry::new(4, 4, 2, 2, 1, 0).unwrap();
        assert!(im2col(&img, 1, &g).is_err());
        let cols = Tensor::zeros(&[3, 3]);
        assert!(col2im(&cols, 1, &g).is_err());
    }

    /// Inner product identity `<im2col(x), y> == <x, col2im(y)>` — the two
    /// maps are adjoint, which is exactly what conv backward relies on.
    fn adjointness_case(c: usize, h: usize, k: usize, stride: usize, pad: usize, seed: u64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = Conv2dGeometry::new(h, h, k, k, stride, pad).unwrap();
        let x = Tensor::from_vec(
            vec![c, h, h],
            (0..c * h * h).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap();
        let rows = c * k * k;
        let cols_n = g.out_positions();
        let y = Tensor::from_vec(
            vec![rows, cols_n],
            (0..rows * cols_n)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
        )
        .unwrap();
        let lhs: f32 = im2col(&x, c, &g)
            .unwrap()
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(col2im(&y, c, &g).unwrap().data())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "adjointness violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn im2col_col2im_are_adjoint() {
        adjointness_case(1, 4, 3, 1, 1, 0);
        adjointness_case(2, 5, 3, 2, 1, 1);
        adjointness_case(3, 6, 2, 2, 0, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn adjointness_property(
            c in 1usize..3,
            h in 3usize..7,
            k in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..2,
            seed in 0u64..1000,
        ) {
            prop_assume!(k <= h + 2 * pad);
            adjointness_case(c, h, k, stride, pad, seed);
        }
    }

    fn random_nchw(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Tensor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Tensor::from_vec(
            vec![n, c, h, w],
            (0..n * c * h * w)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
        )
        .unwrap()
    }

    /// The batched unroll must contain exactly the per-sample unrolls,
    /// transposed into row-major patch rows.
    fn batch_matches_per_sample_case(
        n: usize,
        c: usize,
        h: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) {
        let g = Conv2dGeometry::new(h, h, k, k, stride, pad).unwrap();
        let x = random_nchw(n, c, h, h, (n * 1000 + c * 100 + h * 10 + k) as u64);
        let batch = im2col_batch(&x, &g).unwrap();
        let positions = g.out_positions();
        let patch = c * k * k;
        assert_eq!(batch.shape(), &[n * positions, patch]);
        for img in 0..n {
            let image = x
                .slice_batch(img, img + 1)
                .unwrap()
                .reshape(&[c, h, h])
                .unwrap();
            let per_sample = im2col(&image, c, &g).unwrap(); // (patch, positions)
            for p in 0..positions {
                for q in 0..patch {
                    assert_eq!(
                        batch.at(&[img * positions + p, q]),
                        per_sample.at(&[q, p]),
                        "sample {img} position {p} patch {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn im2col_batch_matches_per_sample() {
        batch_matches_per_sample_case(1, 1, 3, 2, 1, 0);
        batch_matches_per_sample_case(3, 2, 5, 3, 1, 1);
        batch_matches_per_sample_case(2, 3, 6, 2, 2, 0);
        batch_matches_per_sample_case(4, 1, 4, 3, 2, 1);
    }

    #[test]
    fn batched_lowerings_agree_at_every_worker_count() {
        // The sample split of both batched lowerings driven directly at 1,
        // 2, 3 and 5 workers, stride 2 (the strided input gradient
        // `col2im` still serves), 7 samples.
        let (n, c, h) = (7usize, 3usize, 9usize);
        let g = Conv2dGeometry::new(h, h, 3, 3, 2, 1).unwrap();
        let x = random_nchw(n, c, h, h, 21);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let lowered = |workers: usize| {
            let mut cols = Tensor::full(&[n * g.out_positions() * c * 9], f32::NAN);
            im2col_batch_on(|_| workers, &x, &g, &mut cols).unwrap();
            let mut back = Tensor::full(&[n * c * h * h], f32::NAN);
            col2im_batch_on(|_| workers, &cols, n, c, &g, &mut back).unwrap();
            (bits(&cols), bits(&back))
        };
        let serial = lowered(1);
        assert_eq!(serial.0, bits(&im2col_batch(&x, &g).unwrap()));
        for workers in [2, 3, 5] {
            assert_eq!(lowered(workers), serial, "{workers} workers");
        }
    }

    #[test]
    fn batch_pair_is_adjoint() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let (n, c, h) = (3usize, 2usize, 5usize);
        let g = Conv2dGeometry::new(h, h, 3, 3, 1, 1).unwrap();
        let x = random_nchw(n, c, h, h, 7);
        let rows = n * g.out_positions();
        let patch = c * 9;
        let y = Tensor::from_vec(
            vec![rows, patch],
            (0..rows * patch)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
        )
        .unwrap();
        let lhs: f32 = im2col_batch(&x, &g)
            .unwrap()
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(col2im_batch(&y, n, c, &g).unwrap().data())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "batched adjointness violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn posrows_round_trips() {
        let x = random_nchw(2, 3, 4, 5, 11);
        let rows = nchw_to_posrows(&x).unwrap();
        assert_eq!(rows.shape(), &[2 * 4 * 5, 3]);
        // Row (n*H*W + p) column c == x[n, c, p].
        assert_eq!(rows.at(&[0, 1]), x.at(&[0, 1, 0, 0]));
        assert_eq!(rows.at(&[21, 2]), x.at(&[1, 2, 0, 1]));
        let back = posrows_to_nchw(&rows, 2, 3, 4, 5).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn bias_on_the_transpose_is_the_bias_pass_it_replaces() {
        // Shapes on both sides of the 32-wide transpose tile.
        for (n, c, h, w) in [
            (2usize, 3usize, 4usize, 5usize),
            (1, 40, 7, 9),
            (3, 1, 1, 1),
        ] {
            let rows = nchw_to_posrows(&random_nchw(n, c, h, w, 12)).unwrap();
            let bias: Vec<f32> = (0..c).map(|j| (j as f32 - 1.5) * 0.37).collect();
            // What a conv used to do: add the bias over the rows, then
            // transpose.
            let mut biased = rows.clone();
            for row in biased.data_mut().chunks_mut(c) {
                for (v, b) in row.iter_mut().zip(&bias) {
                    *v += b;
                }
            }
            let want = posrows_to_nchw(&biased, n, c, h, w).unwrap();
            let mut got = Tensor::full(&[n * c * h * w + 7], f32::NAN);
            posrows_to_nchw_into(&rows, Some(&bias), n, c, h, w, &mut got).unwrap();
            assert_eq!(got.shape(), want.shape());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
            // One value per channel, or a shape error.
            assert!(posrows_to_nchw_into(&rows, Some(&bias[1..]), n, c, h, w, &mut got).is_err());
            assert!(posrows_to_nchw_into(&rows, None, n, c, w, h + 1, &mut got).is_err());
        }
    }

    #[test]
    fn im2col_u8_matches_f32_lowering_exactly() {
        use crate::kernels::int8::zero_point;
        // Encoding with scale 1.0 / min -128.0: every byte decodes to an
        // exact integer and the zero point (128) decodes to exactly 0.0,
        // so the u8 lowering must reproduce the f32 lowering bit for bit
        // (including padding taps).
        let (n, c, h) = (2usize, 2usize, 5usize);
        let g = Conv2dGeometry::new(h, h, 3, 3, 1, 1).unwrap();
        let mut q = QuantTensor::new();
        let buf = q.reuse_as(&[n, c, h, h], 1.0, -128.0);
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i * 53 % 251) as u8;
        }
        let x = q.dequantize().unwrap();
        let want = im2col_batch(&x, &g).unwrap();
        let pad = zero_point(-128.0, 1.0);
        assert_eq!(pad, 128);
        let mut lhs = QuantizedLhs::default();
        let (rows, stride) = im2col_batch_u8_into(&q, &g, pad, &mut lhs).unwrap();
        let patch = c * 9;
        assert_eq!((rows, want.shape()), (want.shape()[0], &[rows, patch][..]));
        assert!(stride > patch, "test must exercise a stride tail");
        for r in 0..rows {
            for p in 0..patch {
                let got = -128.0 + lhs.data[r * stride + p] as f32;
                assert_eq!(got, want.at(&[r, p]), "row {r} patch {p}");
            }
            for t in patch..stride {
                assert_eq!(lhs.data[r * stride + t], 0, "stride tail row {r}");
            }
        }
        // Shape validation mirrors the f32 path.
        let mut wrong = QuantTensor::new();
        wrong.reuse_as(&[1, c, h + 1, h], 1.0, 0.0);
        assert!(im2col_batch_u8_into(&wrong, &g, pad, &mut lhs).is_err());
    }

    #[test]
    fn batch_shape_validation() {
        let g = Conv2dGeometry::new(4, 4, 3, 3, 1, 1).unwrap();
        assert!(im2col_batch(&Tensor::zeros(&[2, 1, 3, 3]), &g).is_err());
        assert!(im2col_batch(&Tensor::zeros(&[1, 4, 4]), &g).is_err());
        assert!(col2im_batch(&Tensor::zeros(&[5, 9]), 2, 1, &g).is_err());
        assert!(posrows_to_nchw(&Tensor::zeros(&[7, 3]), 2, 3, 2, 2).is_err());
    }
}
