//! Activation-cache codecs: the encodings between [`Tensor`]s and the
//! bytes the cache actually stores.
//!
//! The paper's §6.4 measures the activation cache at **1.5–5.3× the
//! dataset size** — the single largest memory consumer in the system — and
//! blockwise local learning is unusually tolerant of reduced-precision
//! storage: cached activations are only ever *read back* as the next
//! block's frozen input, so a codec's reconstruction error perturbs one
//! block boundary once and is never amplified by a backward pass through
//! the encoder (DESIGN.md §10).
//!
//! The cache path is therefore split into two orthogonal layers:
//!
//! - a [`CodecKind`], which is the codec ([`ActivationCodec`]) —
//!   `encode: &Tensor → CacheBlob`, `decode: CacheBlob → Tensor` — one of
//!   `F32Raw` (bit-identical, the default), `F16` (IEEE binary16,
//!   round-to-nearest-even, ≤ 2⁻¹¹ relative error) and `Int8Affine`
//!   (per-channel affine u8 quantization, ≤ scale/2 absolute error per
//!   element, ~4× smaller than f32);
//! - a [`crate::cache::BlobStore`] — where the encoded bytes live
//!   (memory or disk).
//!
//! [`crate::cache::CodecStore`] composes the two back into the
//! [`crate::ActivationStore`] interface the Worker trains against, so
//! `bytes_stored()` / `peak_bytes()` report **encoded** sizes — the §6.4
//! metric.
//!
//! Blobs are self-describing (magic + codec id + shape record, one header
//! parser), so reading a cache directory written under a different codec
//! is a typed [`NfError::CodecMismatch`] naming both codecs, never garbage
//! tensors.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::reader::{read_shape, write_shape, Reader, MAX_RANK};
use crate::{NfError, Result};
use nf_memsim::CacheCostModel;
use nf_tensor::convert::{
    dequantize_u8_slice, f16_decode_slice, f16_encode_slice, minmax_slice, quantize_u8_slice,
};
use nf_tensor::{QuantTensor, Tensor};

/// Magic bytes prefixing every serialised cache blob ("NeuroFlux
/// Activation Cache").
pub const BLOB_MAGIC: [u8; 4] = *b"NFAC";

/// The selectable activation-cache codecs, as a plain value that can sit
/// in a config struct (mirrors [`nf_tensor::KernelBackend`]).
///
/// # Examples
///
/// ```
/// use neuroflux_core::CodecKind;
///
/// assert_eq!("int8".parse::<CodecKind>().unwrap(), CodecKind::Int8Affine);
/// assert_eq!(CodecKind::F16.name(), "f16");
/// assert!("f64".parse::<CodecKind>().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodecKind {
    /// Raw little-endian f32 — bit-identical storage, 4 bytes/element.
    #[default]
    F32Raw,
    /// IEEE 754 binary16 with round-to-nearest-even, 2 bytes/element.
    F16,
    /// Per-channel affine u8 quantization, 1 byte/element (+ 8 bytes of
    /// scale/offset per channel).
    Int8Affine,
}

impl CodecKind {
    /// Stable config/report name (`f32`, `f16`, `int8`).
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::F32Raw => "f32",
            CodecKind::F16 => "f16",
            CodecKind::Int8Affine => "int8",
        }
    }

    /// Stable on-disk id (the codec field of the blob header).
    pub fn id(self) -> u32 {
        match self {
            CodecKind::F32Raw => 0,
            CodecKind::F16 => 1,
            CodecKind::Int8Affine => 2,
        }
    }

    /// Inverse of [`CodecKind::id`].
    pub fn from_id(id: u32) -> Option<Self> {
        match id {
            0 => Some(CodecKind::F32Raw),
            1 => Some(CodecKind::F16),
            2 => Some(CodecKind::Int8Affine),
            _ => None,
        }
    }

    /// All selectable codecs, in `id` order.
    pub fn all() -> [CodecKind; 3] {
        [CodecKind::F32Raw, CodecKind::F16, CodecKind::Int8Affine]
    }

    /// The codec's analytic twin: the encoded bytes `nf-memsim`'s sweep
    /// accounting charges per element and per channel.
    pub fn cost_model(self) -> CacheCostModel {
        match self {
            CodecKind::F32Raw => CacheCostModel::f32_raw(),
            CodecKind::F16 => CacheCostModel::f16(),
            CodecKind::Int8Affine => CacheCostModel::int8_affine(),
        }
    }

    /// Whether a streamed write needs a range pass over the whole block
    /// before its first batch is encoded: int8's `(scale, min)` table heads
    /// the payload and covers every batch of it (see
    /// [`crate::ActivationStore::widen_batch`]).
    pub fn needs_range_pass(self) -> bool {
        self == CodecKind::Int8Affine
    }

    /// Encoded bytes of one element.
    pub(crate) fn elem_len(self) -> usize {
        match self {
            CodecKind::F32Raw => 4,
            CodecKind::F16 => 2,
            CodecKind::Int8Affine => 1,
        }
    }

    /// Bytes of the table heading a payload of `shape`, which every batch
    /// of it decodes through: int8's `(scale, min)` pair per group, and
    /// nothing for the other codecs.
    pub(crate) fn table_len(self, shape: &[usize]) -> usize {
        match self {
            CodecKind::Int8Affine => int8_grouping(shape).0.saturating_mul(8),
            _ => 0,
        }
    }

    /// Encoded payload size of a tensor of `shape`: the table, then
    /// [`CodecKind::elem_len`] bytes per element. Saturating, so a garbage
    /// shape never matches a real length.
    pub(crate) fn payload_len(self, shape: &[usize]) -> usize {
        let numel: usize = shape.iter().product();
        self.table_len(shape)
            .saturating_add(numel.saturating_mul(self.elem_len()))
    }

    /// Encodes `data`, the elements `first..` of a block of `shape`, into
    /// `bytes` ([`CodecKind::elem_len`] each), quantizing int8 with the
    /// parameters of the block's `table`. The whole-tensor encode is the
    /// batch at 0.
    pub(crate) fn encode_elems(
        self,
        shape: &[usize],
        table: &[u8],
        first: usize,
        data: &[f32],
        bytes: &mut [u8],
    ) {
        match self {
            CodecKind::F32Raw => {
                for (dst, &src) in bytes.as_chunks_mut::<4>().0.iter_mut().zip(data) {
                    *dst = src.to_le_bytes();
                }
            }
            CodecKind::F16 => f16_encode_slice(data, bytes),
            CodecKind::Int8Affine => {
                let (step, skip) = int8_segments(shape, first);
                let params = int8_params(table, skip);
                let segments = data.chunks(step).zip(bytes.chunks_mut(step));
                for ((src, dst), (scale, min)) in segments.zip(params) {
                    quantize_u8_slice(src, min, scale, dst);
                }
            }
        }
    }

    /// Decodes `bytes`, the encoded elements `first..` of a block of
    /// `shape`, into `out` (as many elements as `bytes` holds), reading
    /// int8's parameters from the block's `table`. The whole-tensor decode
    /// is the batch at 0.
    pub(crate) fn decode_elems(
        self,
        shape: &[usize],
        table: &[u8],
        first: usize,
        bytes: &[u8],
        out: &mut [f32],
    ) {
        match self {
            // One slice-wise pass: this loop compiles to a vectorised
            // copy, so cache reads stay I/O-bound rather than decode-bound.
            CodecKind::F32Raw => {
                for (dst, src) in out.iter_mut().zip(bytes.as_chunks::<4>().0) {
                    *dst = f32::from_le_bytes(*src);
                }
            }
            CodecKind::F16 => f16_decode_slice(bytes, out),
            CodecKind::Int8Affine => {
                let (step, skip) = int8_segments(shape, first);
                let params = int8_params(table, skip);
                let segments = bytes.chunks(step).zip(out.chunks_mut(step));
                for ((src, dst), (scale, min)) in segments.zip(params) {
                    dequantize_u8_slice(src, min, scale, dst);
                }
            }
        }
    }
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for CodecKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "f32" | "f32-raw" | "raw" => Ok(CodecKind::F32Raw),
            "f16" | "half" => Ok(CodecKind::F16),
            "int8" | "int8-affine" | "i8" => Ok(CodecKind::Int8Affine),
            other => Err(format!(
                "unknown cache codec {other:?} (expected f32, f16, or int8)"
            )),
        }
    }
}

/// One encoded activation tensor: the codec that produced it, the decoded
/// shape, and the encoded payload bytes.
///
/// Buffers are grow-only so a blob reused across blocks settles at the
/// largest block's size and stops allocating (the same discipline as
/// [`nf_tensor::Workspace`]).
#[derive(Debug, Default)]
pub struct CacheBlob {
    /// Codec the payload was encoded with.
    pub codec: CodecKind,
    shape: Vec<usize>,
    bytes: Vec<u8>,
}

impl CacheBlob {
    /// An empty blob (the canonical seed for a reused scratch blob).
    pub fn new() -> Self {
        Self::default()
    }

    /// Decoded tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Encoded payload bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Encoded payload size in bytes — what the cache is charged for this
    /// entry (the §6.4 accounting unit).
    pub fn encoded_len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Resets the blob to `codec` + `shape` with an uninitialised payload
    /// of `payload_len` bytes, reusing the existing allocations.
    pub fn reset(&mut self, codec: CodecKind, shape: &[usize], payload_len: usize) {
        self.codec = codec;
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.bytes.clear();
        self.bytes.resize(payload_len, 0);
    }
}

/// The self-describing header (magic + codec id + shape record) that
/// heads one cache entry's file; the payload streams after it.
pub(crate) fn blob_header(codec: CodecKind, shape: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAX_HEADER_LEN);
    out.extend_from_slice(&BLOB_MAGIC);
    out.extend_from_slice(&codec.id().to_le_bytes());
    write_shape(&mut out, shape);
    out
}

/// Longest header a blob file can have: magic, codec id and a shape
/// record of [`MAX_RANK`] dims.
pub(crate) const MAX_HEADER_LEN: usize = 4 + 4 + 8 * (1 + MAX_RANK);

/// Parses the self-describing header at the front of a blob file: the
/// codec, the shape, and the header's length in bytes.
pub(crate) fn parse_header(
    head: &[u8],
) -> std::result::Result<(CodecKind, Vec<usize>, usize), String> {
    let mut r = Reader::new(head, "cache blob header");
    if r.array()? != BLOB_MAGIC {
        return Err("bad magic (not a NeuroFlux cache blob)".to_string());
    }
    let id = r.u32()?;
    let codec = CodecKind::from_id(id).ok_or_else(|| format!("unknown codec id {id}"))?;
    let shape = read_shape(&mut r)?;
    Ok((codec, shape, head.len() - r.remaining()))
}

/// The error-bound contract every codec satisfies, per element of a
/// decoded tensor (see the proptests pinning each bound).
///
/// | codec | bound |
/// |---|---|
/// | `F32Raw` | exact (bit-identical) |
/// | `F16` | ≤ 2⁻¹¹ relative (+ one subnormal ulp near zero) |
/// | `Int8Affine` | ≤ scale/2 absolute, scale = channel range / 255 |
pub trait ActivationCodec {
    /// Which [`CodecKind`] this codec is (stored in blob headers).
    fn kind(&self) -> CodecKind;

    /// Encodes `acts` into `blob`, reusing the blob's buffers.
    fn encode(&self, acts: &Tensor, blob: &mut CacheBlob);

    /// Decodes `blob` into `out` (resized via [`Tensor::reuse_as`], so a
    /// warmed-up caller buffer is reused without reallocating).
    fn decode_into(&self, blob: &CacheBlob, out: &mut Tensor) -> Result<()>;
}

/// Validates the payload length against the shape-derived expectation.
fn check_len(codec: CodecKind, blob: &CacheBlob) -> Result<()> {
    let expected = codec.payload_len(&blob.shape);
    if blob.bytes.len() != expected {
        return Err(NfError::Codec {
            codec: codec.name(),
            cause: format!(
                "payload is {} bytes, shape {:?} requires {expected}",
                blob.bytes.len(),
                blob.shape
            ),
        });
    }
    Ok(())
}

/// How `Int8Affine` partitions a shape into quantization groups: `(groups,
/// segment_len)` such that the data is repeated runs of `groups`
/// contiguous segments of `segment_len` elements, segment `i` belonging to
/// group `i % groups`.
///
/// Grouping follows the tensor's layout: rank-4 NCHW tensors quantize per
/// **channel** (axis 1 — channels have wildly different dynamic ranges
/// after batch-norm/ReLU, so per-channel scales cut the error versus one
/// global scale by the ratio of the widest to the typical channel range);
/// rank-2 `[rows, features]` tensors fall back to per-**row** scales; any
/// other rank uses a single whole-tensor scale.
///
/// Payload layout: `groups × (scale f32 LE, min f32 LE)`, then one u8 per
/// element in tensor order. `x ≈ min + scale·q` with `q ∈ 0..=255`;
/// reconstruction error ≤ scale/2 per element.
fn int8_grouping(shape: &[usize]) -> (usize, usize) {
    match shape {
        // NCHW: for each n, C contiguous segments of H·W elements.
        [_, c, h, w] => (*c, h * w),
        // [rows, features]: one segment per row.
        [rows, cols] => (*rows, *cols),
        // Fallback: a single whole-tensor group.
        other => (1, other.iter().product()),
    }
}

/// Where the elements `first..` of a block of `shape` meet int8's groups,
/// as `(step, skip)`: segments of `step` = `segment_len.max(1)` elements
/// (a zero segment means no elements, and `chunks(0)` would panic), the
/// first in group `skip`. A batch starts on a segment boundary under the
/// per-channel and per-row groupings, and the one-group fallback has no
/// boundary to meet.
fn int8_segments(shape: &[usize], first: usize) -> (usize, usize) {
    let (groups, seg) = int8_grouping(shape);
    let step = seg.max(1);
    (step, (first / step) % groups.max(1))
}

/// The `(scale, min)` pairs of an int8 payload's table.
fn int8_table(table: &[u8]) -> impl Iterator<Item = (f32, f32)> + Clone + '_ {
    table
        .as_chunks::<8>()
        .0
        .iter()
        .map(|&[s0, s1, s2, s3, m0, m1, m2, m3]| {
            (
                f32::from_le_bytes([s0, s1, s2, s3]),
                f32::from_le_bytes([m0, m1, m2, m3]),
            )
        })
}

/// The `(scale, min)` pairs of an int8 table from group `skip` on,
/// cycling (without walking the `skip` groups before it).
fn int8_params(table: &[u8], skip: usize) -> impl Iterator<Item = (f32, f32)> + '_ {
    let rest = table.get(skip.saturating_mul(8)..).unwrap_or_default();
    int8_table(rest).chain(int8_table(table).cycle())
}

/// Empty `(lo, hi)` ranges, one per int8 group of `shape`.
pub(crate) fn int8_ranges(shape: &[usize]) -> Vec<(f32, f32)> {
    vec![(f32::INFINITY, f32::NEG_INFINITY); int8_grouping(shape).0]
}

/// Widens the per-group `ranges` of a block of `shape` by `data`, its
/// elements `first..`.
pub(crate) fn int8_widen(shape: &[usize], first: usize, data: &[f32], ranges: &mut [(f32, f32)]) {
    let (step, skip) = int8_segments(shape, first);
    let groups = ranges.len().max(1);
    for (i, segment) in data.chunks(step).enumerate() {
        if let Some((lo, hi)) = ranges.get_mut((skip + i) % groups) {
            let (slo, shi) = minmax_slice(segment);
            *lo = lo.min(slo);
            *hi = hi.max(shi);
        }
    }
}

/// Writes int8's table from the per-group ranges: `scale = (hi − lo) /
/// 255`, `min = lo`, and zeros for an empty or non-finite group.
pub(crate) fn int8_write_table(ranges: &[(f32, f32)], table: &mut [u8]) {
    let words = ranges.iter().flat_map(|&(lo, hi)| match lo.is_finite() {
        true => [(hi - lo) / 255.0, lo],
        false => [0.0, 0.0],
    });
    for (dst, v) in table.as_chunks_mut::<4>().0.iter_mut().zip(words) {
        *dst = v.to_le_bytes();
    }
}

/// The per-tensor grid [`requantize_int8_blob`] maps an int8 block onto,
/// spanning every group's representable range, with one 256-entry lookup
/// table per group (stored code → grid code). Built once per block from
/// its table; it never touches f32 element-wise.
#[derive(Debug)]
pub(crate) struct Int8Grid {
    /// The grid's step.
    pub(crate) scale: f32,
    /// The grid's origin.
    pub(crate) min: f32,
    luts: Vec<[u8; 256]>,
}

impl Int8Grid {
    /// The grid of the block whose table is `table`.
    pub(crate) fn new(table: &[u8]) -> Self {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for (scale, min) in int8_table(table) {
            lo = lo.min(min);
            hi = hi.max(min + 255.0 * scale);
        }
        if !lo.is_finite() {
            lo = 0.0;
            hi = 0.0;
        }
        let gscale = if hi > lo { (hi - lo) / 255.0 } else { 0.0 };
        let luts = int8_table(table)
            .map(|(scale, min)| {
                std::array::from_fn(|q| {
                    if gscale == 0.0 {
                        0
                    } else {
                        (((min + scale * q as f32) - lo) / gscale)
                            .round()
                            .clamp(0.0, 255.0) as u8
                    }
                })
            })
            .collect();
        Int8Grid {
            scale: gscale,
            min: lo,
            luts,
        }
    }

    /// Maps `codes`, the stored codes of elements `first..` of a block of
    /// `shape`, onto the grid in `dst`.
    pub(crate) fn map(&self, shape: &[usize], first: usize, codes: &[u8], dst: &mut [u8]) {
        let (step, skip) = int8_segments(shape, first);
        let segments = codes.chunks(step).zip(dst.chunks_mut(step));
        let rest = self.luts.get(skip..).unwrap_or_default();
        for ((src, dst), lut) in segments.zip(rest.iter().chain(self.luts.iter().cycle())) {
            for (d, &q) in dst.iter_mut().zip(src) {
                *d = lut.get(usize::from(q)).copied().unwrap_or_default();
            }
        }
    }
}

/// Re-quantizes a per-group `Int8Affine` blob into a single per-tensor
/// affine encoding — the quantized-compute read path over a whole blob
/// (the store reads the same way a batch at a time). The int8 GEMM
/// ([`nf_tensor::kernels::int8`]) wants one `(scale, min)` pair per
/// tensor, so the stored codes are remapped through per-group lookup
/// tables onto one grid spanning every group's range: at most half a
/// global step of error on top of the codec's own bound.
pub fn requantize_int8_blob(blob: &CacheBlob, out: &mut QuantTensor) -> Result<()> {
    check_len(CodecKind::Int8Affine, blob)?;
    let table_len = CodecKind::Int8Affine.table_len(&blob.shape);
    let (table, codes) = blob.bytes.split_at_checked(table_len).unwrap_or_default();
    let grid = Int8Grid::new(table);
    let dst = out.reuse_as(blob.shape(), grid.scale, grid.min);
    grid.map(&blob.shape, 0, codes, dst);
    Ok(())
}

/// `CodecKind` is the codec: one match per direction dispatches to the
/// encoding's slice-wise pass.
impl ActivationCodec for CodecKind {
    fn kind(&self) -> CodecKind {
        *self
    }

    fn encode(&self, acts: &Tensor, blob: &mut CacheBlob) {
        let shape = acts.shape();
        blob.reset(*self, shape, self.payload_len(shape));
        let bytes = blob.bytes.as_mut_slice();
        let (table, bytes) = bytes
            .split_at_mut_checked(self.table_len(shape))
            .unwrap_or_default();
        if *self == CodecKind::Int8Affine {
            let mut ranges = int8_ranges(shape);
            int8_widen(shape, 0, acts.data(), &mut ranges);
            int8_write_table(&ranges, table);
        }
        self.encode_elems(shape, table, 0, acts.data(), bytes);
    }

    fn decode_into(&self, blob: &CacheBlob, out: &mut Tensor) -> Result<()> {
        check_len(*self, blob)?;
        out.reuse_as(&blob.shape);
        let table_len = self.table_len(&blob.shape);
        let (table, bytes) = blob.bytes.split_at_checked(table_len).unwrap_or_default();
        self.decode_elems(&blob.shape, table, 0, bytes, out.data_mut());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(codec: &dyn ActivationCodec, t: &Tensor) -> Tensor {
        let mut blob = CacheBlob::new();
        codec.encode(t, &mut blob);
        assert_eq!(blob.codec, codec.kind());
        assert_eq!(blob.shape(), t.shape());
        let mut out = Tensor::default();
        codec.decode_into(&blob, &mut out).unwrap();
        assert_eq!(out.shape(), t.shape());
        out
    }

    fn sample_nchw() -> Tensor {
        // Amplitude scales with the *channel* index (i / HW mod C), so
        // per-channel quantization has genuinely different ranges to adapt
        // to.
        let data: Vec<f32> = (0..2 * 3 * 4 * 4)
            .map(|i| ((i as f32) * 0.37).sin() * (1.0 + ((i / 16) % 3) as f32 * 10.0))
            .collect();
        Tensor::from_vec(vec![2, 3, 4, 4], data).unwrap()
    }

    #[test]
    fn f32_raw_is_bit_identical() {
        let t = sample_nchw();
        let back = roundtrip(&CodecKind::F32Raw, &t);
        let bits: Vec<u32> = t.data().iter().map(|x| x.to_bits()).collect();
        let back_bits: Vec<u32> = back.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, back_bits);
    }

    #[test]
    fn f16_error_within_bound() {
        let t = sample_nchw();
        let back = roundtrip(&CodecKind::F16, &t);
        for (&a, &b) in t.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= a.abs() * 2f32.powi(-11) + 2f32.powi(-24));
        }
    }

    #[test]
    fn int8_error_within_half_scale_per_channel() {
        let t = sample_nchw();
        let mut blob = CacheBlob::new();
        CodecKind::Int8Affine.encode(&t, &mut blob);
        // Per-channel scales from the blob header.
        let scales: Vec<f32> = int8_table(&blob.bytes()[..3 * 8]).map(|p| p.0).collect();
        let mut out = Tensor::default();
        CodecKind::Int8Affine.decode_into(&blob, &mut out).unwrap();
        for n in 0..2 {
            for (c, &scale) in scales.iter().enumerate() {
                for i in 0..16 {
                    let idx = (n * 3 + c) * 16 + i;
                    let err = (t.data()[idx] - out.data()[idx]).abs();
                    assert!(
                        err <= scale / 2.0 * 1.0001 + 1e-6,
                        "channel {c} elem {i}: err {err} vs scale {scale}"
                    );
                }
            }
        }
        // The channel scaled ×21 must get a proportionally larger scale
        // than channel 0 (that is the point of per-channel quantization).
        assert!(scales[2] > scales[0] * 5.0);
    }

    #[test]
    fn cost_model_prices_the_encoded_bytes() {
        // The sweep's cache accounting must charge what the codec stores.
        for codec in CodecKind::all() {
            for shape in [[2, 3, 4, 4], [1, 64, 8, 8], [5, 1, 3, 7], [1, 7, 1, 1]] {
                let t = Tensor::ones(&shape);
                let mut blob = CacheBlob::new();
                codec.encode(&t, &mut blob);
                let priced = codec
                    .cost_model()
                    .encoded_bytes(t.numel() as u64, shape[1] as u64);
                assert_eq!(blob.encoded_len(), priced, "{codec} {shape:?}");
            }
        }
    }

    #[test]
    fn int8_compresses_about_4x() {
        // Realistic cache-entry size: the per-channel table amortises away
        // and the ratio approaches 4×.
        let t = Tensor::ones(&[8, 16, 8, 8]);
        let mut blob = CacheBlob::new();
        CodecKind::Int8Affine.encode(&t, &mut blob);
        let f32_bytes = (t.numel() * 4) as f64;
        let ratio = f32_bytes / blob.encoded_len() as f64;
        assert!(ratio > 3.9, "ratio {ratio}");
    }

    #[test]
    fn int8_rank2_uses_per_row_scales() {
        let t = Tensor::from_vec(
            vec![2, 4],
            vec![0.0, 1.0, 2.0, 3.0, 0.0, 100.0, 200.0, 300.0],
        )
        .unwrap();
        let mut blob = CacheBlob::new();
        CodecKind::Int8Affine.encode(&t, &mut blob);
        let mut out = Tensor::default();
        CodecKind::Int8Affine.decode_into(&blob, &mut out).unwrap();
        // Row 0's scale is 3/255: every row-0 value reconstructs within
        // 3/255/2 even though row 1 spans 0..300.
        for i in 0..4 {
            assert!((out.data()[i] - t.data()[i]).abs() <= 3.0 / 255.0 / 2.0 + 1e-6);
        }
    }

    #[test]
    fn requantized_blob_tracks_decoded_tensor() {
        // The per-tensor re-quantized form must decode to within half a
        // global step of the codec's own per-group decode.
        let t = sample_nchw();
        let mut blob = CacheBlob::new();
        CodecKind::Int8Affine.encode(&t, &mut blob);
        let mut per_group = Tensor::default();
        CodecKind::Int8Affine
            .decode_into(&blob, &mut per_group)
            .unwrap();
        let mut q = QuantTensor::new();
        requantize_int8_blob(&blob, &mut q).unwrap();
        assert_eq!(q.shape(), t.shape());
        let flat = q.dequantize().unwrap();
        let half_step = q.scale() * 0.5;
        for (&a, &b) in per_group.data().iter().zip(flat.data()) {
            assert!((a - b).abs() <= half_step * 1.0001 + 1e-6, "{a} vs {b}");
        }
        // The global grid must span every group's range.
        let (lo, hi) = nf_tensor::convert::minmax_slice(per_group.data());
        assert!(q.min() <= lo + 1e-6);
        assert!(q.min() + 255.0 * q.scale() >= hi - 1e-6);
    }

    #[test]
    fn requantize_handles_constant_tensors() {
        let t = Tensor::ones(&[2, 2, 2, 2]);
        let mut blob = CacheBlob::new();
        CodecKind::Int8Affine.encode(&t, &mut blob);
        let mut q = QuantTensor::new();
        requantize_int8_blob(&blob, &mut q).unwrap();
        assert_eq!(q.dequantize().unwrap().data(), t.data());
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        let t = sample_nchw();
        for kind in CodecKind::all() {
            let mut blob = CacheBlob::new();
            kind.encode(&t, &mut blob);
            blob.bytes.pop();
            let mut out = Tensor::default();
            let err = kind.decode_into(&blob, &mut out).unwrap_err();
            assert!(
                matches!(err, NfError::Codec { codec, .. } if codec == kind.name()),
                "{kind}: {err}"
            );
        }
    }

    #[test]
    fn blob_file_bytes_are_self_describing() {
        let t = sample_nchw();
        let mut blob = CacheBlob::new();
        CodecKind::F16.encode(&t, &mut blob);
        let mut file = blob_header(blob.codec, blob.shape());
        assert_eq!(&file[..8], b"NFAC\x01\0\0\0");
        assert_eq!(file.len(), 8 + 8 * (1 + 4));
        file.extend_from_slice(blob.bytes());
        let (codec, shape, len) = parse_header(&file).unwrap();
        assert_eq!((codec, &shape[..], len), (CodecKind::F16, t.shape(), 48));
        let err = parse_header(&file[..len - 1]).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn codec_names_and_ids_round_trip() {
        for kind in CodecKind::all() {
            assert_eq!(kind.name().parse::<CodecKind>().unwrap(), kind);
            assert_eq!(CodecKind::from_id(kind.id()), Some(kind));
        }
        assert_eq!(CodecKind::from_id(99), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_f32_raw_round_trips_exactly(
            data in proptest::collection::vec(-1e6f32..1e6, 1..96),
        ) {
            let t = Tensor::from_vec(vec![data.len()], data).unwrap();
            let back = roundtrip(&CodecKind::F32Raw, &t);
            let bits: Vec<u32> = t.data().iter().map(|x| x.to_bits()).collect();
            let back_bits: Vec<u32> = back.data().iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(bits, back_bits);
        }

        #[test]
        fn prop_f16_relative_error_below_2_pow_minus_11(
            data in proptest::collection::vec(-6e4f32..6e4, 8..64),
        ) {
            let t = Tensor::from_vec(vec![2, data.len() / 2], data[..data.len() / 2 * 2].to_vec())
                .unwrap();
            let back = roundtrip(&CodecKind::F16, &t);
            for (&a, &b) in t.data().iter().zip(back.data()) {
                // 2⁻¹¹ relative for normals, one binary16 subnormal ulp
                // of absolute slack near zero.
                prop_assert!((a - b).abs() <= a.abs() * 2f32.powi(-11) + 2f32.powi(-24),
                    "{} -> {}", a, b);
            }
        }

        #[test]
        fn prop_int8_error_at_most_half_scale(
            n in 1usize..3,
            c in 1usize..5,
            hw in 1usize..5,
            seed in 0u64..1000,
        ) {
            let numel = n * c * hw * hw;
            let data: Vec<f32> = (0..numel)
                .map(|i| (((seed + i as u64) as f32) * 0.613).sin() * ((i % c + 1) as f32 * 7.0))
                .collect();
            let t = Tensor::from_vec(vec![n, c, hw, hw], data).unwrap();
            let mut blob = CacheBlob::new();
            CodecKind::Int8Affine.encode(&t, &mut blob);
            let scales: Vec<f32> = int8_table(&blob.bytes()[..c * 8]).map(|p| p.0).collect();
            let mut out = Tensor::default();
            CodecKind::Int8Affine.decode_into(&blob, &mut out).unwrap();
            for ni in 0..n {
                for (ci, &scale) in scales.iter().enumerate() {
                    for i in 0..hw * hw {
                        let idx = (ni * c + ci) * hw * hw + i;
                        let err = (t.data()[idx] - out.data()[idx]).abs();
                        prop_assert!(err <= scale / 2.0 * 1.0001 + 1e-6,
                            "channel {} elem {}: err {} vs scale {}", ci, i, err, scale);
                    }
                }
            }
        }
    }
}
