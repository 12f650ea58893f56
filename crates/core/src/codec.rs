//! Activation-cache codecs: pluggable encodings between [`Tensor`]s and
//! the bytes the cache actually stores.
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
//! - an [`ActivationCodec`] — `encode: &Tensor → CacheBlob`,
//!   `decode: CacheBlob → Tensor` — with three implementations:
//!   [`F32Raw`] (bit-identical, the default), [`F16`] (IEEE binary16,
//!   round-to-nearest-even, ≤ 2⁻¹¹ relative error), and [`Int8Affine`]
//!   (per-channel affine u8 quantization, ≤ scale/2 absolute error per
//!   element, ~4× smaller than f32);
//! - a [`crate::cache::BlobStore`] — where the encoded bytes live
//!   (memory or disk).
//!
//! [`crate::cache::CodecStore`] composes the two back into the
//! [`crate::ActivationStore`] interface the Worker trains against, so
//! every existing call site keeps working and `bytes_stored()` /
//! `peak_bytes()` report **encoded** sizes — the §6.4 metric.
//!
//! Blobs are self-describing (magic + codec id + shape), so reading a
//! cache directory written under a different codec is a typed
//! [`NfError::CodecMismatch`] naming both codecs, never garbage tensors.

use crate::{NfError, Result};
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

    /// Number of elements the decoded tensor will have.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
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

    /// Mutable payload access (for codecs and blob stores filling it in).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Makes `self` an exact copy of `src`, reusing allocations.
    pub fn copy_from(&mut self, src: &CacheBlob) {
        self.codec = src.codec;
        self.shape.clear();
        self.shape.extend_from_slice(&src.shape);
        self.bytes.clear();
        self.bytes.extend_from_slice(&src.bytes);
    }

    /// Serialises just the self-describing header (magic + codec id +
    /// shape) — the prefix of the on-disk format of one cache entry.
    /// Writers stream the payload separately so the (possibly
    /// multi-megabyte) encoded bytes are never copied into a second
    /// buffer.
    pub fn header_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.header_len());
        out.extend_from_slice(&BLOB_MAGIC);
        out.extend_from_slice(&self.codec.id().to_le_bytes());
        out.extend_from_slice(&(self.shape.len() as u64).to_le_bytes());
        for &d in &self.shape {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        out
    }

    /// Serialises the self-describing header followed by the payload —
    /// the full on-disk format of one cache entry (tests and one-shot
    /// writers; the disk store streams header and payload separately).
    pub fn to_file_bytes(&self) -> Vec<u8> {
        let mut out = self.header_bytes();
        out.extend_from_slice(&self.bytes);
        out
    }

    /// Byte length of the self-describing header for this blob's shape.
    pub fn header_len(&self) -> usize {
        BLOB_MAGIC.len() + 4 + 8 * (1 + self.shape.len())
    }
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

/// Raises a typed codec error.
fn codec_err(codec: CodecKind, cause: String) -> NfError {
    NfError::Codec {
        codec: codec.name(),
        cause,
    }
}

/// Validates the payload length against the shape-derived expectation.
fn check_len(codec: CodecKind, blob: &CacheBlob, expected: usize) -> Result<()> {
    if blob.bytes.len() != expected {
        return Err(codec_err(
            codec,
            format!(
                "payload is {} bytes, shape {:?} requires {expected}",
                blob.bytes.len(),
                blob.shape
            ),
        ));
    }
    Ok(())
}

/// Bit-identical little-endian f32 storage — the default codec; preserves
/// every existing determinism guarantee.
#[derive(Debug, Clone, Copy, Default)]
pub struct F32Raw;

impl ActivationCodec for F32Raw {
    fn kind(&self) -> CodecKind {
        CodecKind::F32Raw
    }

    fn encode(&self, acts: &Tensor, blob: &mut CacheBlob) {
        blob.reset(CodecKind::F32Raw, acts.shape(), acts.numel() * 4);
        for (dst, &src) in blob.bytes.chunks_exact_mut(4).zip(acts.data()) {
            dst.copy_from_slice(&src.to_le_bytes());
        }
    }

    fn decode_into(&self, blob: &CacheBlob, out: &mut Tensor) -> Result<()> {
        check_len(CodecKind::F32Raw, blob, blob.numel() * 4)?;
        out.reuse_as(&blob.shape);
        // One slice-wise pass over the bulk-read payload: this loop
        // compiles to a vectorised copy, so multi-megabyte block reloads
        // stay I/O-bound rather than decode-bound.
        for (dst, src) in out.data_mut().iter_mut().zip(blob.bytes.chunks_exact(4)) {
            *dst = f32::from_le_bytes([src[0], src[1], src[2], src[3]]);
        }
        Ok(())
    }
}

/// IEEE 754 binary16 storage with round-to-nearest-even — 2× smaller than
/// f32 at ≤ 2⁻¹¹ relative error.
#[derive(Debug, Clone, Copy, Default)]
pub struct F16;

impl ActivationCodec for F16 {
    fn kind(&self) -> CodecKind {
        CodecKind::F16
    }

    fn encode(&self, acts: &Tensor, blob: &mut CacheBlob) {
        blob.reset(CodecKind::F16, acts.shape(), acts.numel() * 2);
        f16_encode_slice(acts.data(), &mut blob.bytes);
    }

    fn decode_into(&self, blob: &CacheBlob, out: &mut Tensor) -> Result<()> {
        check_len(CodecKind::F16, blob, blob.numel() * 2)?;
        out.reuse_as(&blob.shape);
        f16_decode_slice(&blob.bytes, out.data_mut());
        Ok(())
    }
}

/// Per-channel affine u8 quantization — ~4× smaller than f32.
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
#[derive(Debug, Clone, Copy, Default)]
pub struct Int8Affine;

/// How a shape is partitioned into quantization groups: `(groups,
/// segment_len, segments_per_pass)` such that the data is
/// `segments_per_pass` repetitions of `groups` contiguous segments of
/// `segment_len` elements.
fn int8_grouping(shape: &[usize]) -> (usize, usize, usize) {
    match shape {
        // NCHW: for each n, C contiguous segments of H·W elements.
        [n, c, h, w] => (*c, h * w, *n),
        // [rows, features]: one segment per row.
        [rows, cols] => (*rows, *cols, 1),
        // Fallback: a single whole-tensor group.
        other => (1, other.iter().product(), 1),
    }
}

impl Int8Affine {
    /// Encoded payload size for `shape` (scale/offset table + u8 data).
    pub fn payload_len(shape: &[usize]) -> usize {
        let (groups, seg, passes) = int8_grouping(shape);
        groups * 8 + groups * seg * passes
    }
}

impl ActivationCodec for Int8Affine {
    fn kind(&self) -> CodecKind {
        CodecKind::Int8Affine
    }

    fn encode(&self, acts: &Tensor, blob: &mut CacheBlob) {
        let (groups, seg, passes) = int8_grouping(acts.shape());
        blob.reset(
            CodecKind::Int8Affine,
            acts.shape(),
            Self::payload_len(acts.shape()),
        );
        let data = acts.data();
        // Pass 1: per-group min/max across every segment of the group.
        let mut params = vec![(0.0f32, 0.0f32); groups];
        for (gi, p) in params.iter_mut().enumerate() {
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for pass in 0..passes {
                let start = (pass * groups + gi) * seg;
                let (slo, shi) = minmax_slice(&data[start..start + seg]);
                lo = lo.min(slo);
                hi = hi.max(shi);
            }
            if seg == 0 || !lo.is_finite() {
                lo = 0.0;
                hi = 0.0;
            }
            *p = (lo, (hi - lo) / 255.0);
        }
        // Header table, then pass 2: quantize each segment with its
        // group's parameters.
        let (table, payload) = blob.bytes.split_at_mut(groups * 8);
        for (dst, &(min, scale)) in table.chunks_exact_mut(8).zip(&params) {
            dst[..4].copy_from_slice(&scale.to_le_bytes());
            dst[4..].copy_from_slice(&min.to_le_bytes());
        }
        for pass in 0..passes {
            for (gi, &(min, scale)) in params.iter().enumerate() {
                let start = (pass * groups + gi) * seg;
                quantize_u8_slice(
                    &data[start..start + seg],
                    min,
                    scale,
                    &mut payload[start..start + seg],
                );
            }
        }
    }

    fn decode_into(&self, blob: &CacheBlob, out: &mut Tensor) -> Result<()> {
        let (groups, seg, passes) = int8_grouping(&blob.shape);
        check_len(CodecKind::Int8Affine, blob, Self::payload_len(&blob.shape))?;
        out.reuse_as(&blob.shape);
        let (table, payload) = blob.bytes.split_at(groups * 8);
        let data = out.data_mut();
        for pass in 0..passes {
            for (gi, p) in table.chunks_exact(8).enumerate() {
                let scale = f32::from_le_bytes([p[0], p[1], p[2], p[3]]);
                let min = f32::from_le_bytes([p[4], p[5], p[6], p[7]]);
                let start = (pass * groups + gi) * seg;
                dequantize_u8_slice(
                    &payload[start..start + seg],
                    min,
                    scale,
                    &mut data[start..start + seg],
                );
            }
        }
        Ok(())
    }
}

/// Re-quantizes a per-group [`Int8Affine`] blob into a single per-tensor
/// affine encoding — the quantized-compute read path: the int8 GEMM
/// ([`nf_tensor::kernels::int8`]) wants one `(scale, min)` pair per
/// tensor, so the stored per-group codes are remapped through per-group
/// 256-entry lookup tables onto a global grid spanning every group's
/// range. This adds at most half a *global* quantization step of error on
/// top of the codec's own bound, and never touches f32 element-wise.
pub fn requantize_int8_blob(blob: &CacheBlob, out: &mut QuantTensor) -> Result<()> {
    let (groups, seg, passes) = int8_grouping(blob.shape());
    check_len(
        CodecKind::Int8Affine,
        blob,
        Int8Affine::payload_len(blob.shape()),
    )?;
    let (table, payload) = blob.bytes().split_at(groups * 8);
    let params: Vec<(f32, f32)> = table
        .chunks_exact(8)
        .map(|p| {
            (
                f32::from_le_bytes([p[0], p[1], p[2], p[3]]), // scale
                f32::from_le_bytes([p[4], p[5], p[6], p[7]]), // min
            )
        })
        .collect();
    // Global range covering every group's representable span.
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &(scale, min) in &params {
        lo = lo.min(min);
        hi = hi.max(min + 255.0 * scale);
    }
    if !lo.is_finite() {
        lo = 0.0;
        hi = 0.0;
    }
    let gscale = if hi > lo { (hi - lo) / 255.0 } else { 0.0 };
    let dst = out.reuse_as(blob.shape(), gscale, lo);
    // One LUT per group: stored code -> global code.
    let mut luts = vec![[0u8; 256]; groups];
    for (lut, &(scale, min)) in luts.iter_mut().zip(&params) {
        for (q, slot) in lut.iter_mut().enumerate() {
            *slot = if gscale == 0.0 {
                0
            } else {
                (((min + scale * q as f32) - lo) / gscale)
                    .round()
                    .clamp(0.0, 255.0) as u8
            };
        }
    }
    for pass in 0..passes {
        for (gi, lut) in luts.iter().enumerate() {
            let start = (pass * groups + gi) * seg;
            for (d, &q) in dst[start..start + seg]
                .iter_mut()
                .zip(&payload[start..start + seg])
            {
                *d = lut[q as usize];
            }
        }
    }
    Ok(())
}

// `CodecKind` is itself a codec (dispatching to the unit implementations),
// so a runtime-configured store is simply `CodecStore<CodecKind, S>`.
impl ActivationCodec for CodecKind {
    fn kind(&self) -> CodecKind {
        *self
    }

    fn encode(&self, acts: &Tensor, blob: &mut CacheBlob) {
        match self {
            CodecKind::F32Raw => F32Raw.encode(acts, blob),
            CodecKind::F16 => F16.encode(acts, blob),
            CodecKind::Int8Affine => Int8Affine.encode(acts, blob),
        }
    }

    fn decode_into(&self, blob: &CacheBlob, out: &mut Tensor) -> Result<()> {
        match self {
            CodecKind::F32Raw => F32Raw.decode_into(blob, out),
            CodecKind::F16 => F16.decode_into(blob, out),
            CodecKind::Int8Affine => Int8Affine.decode_into(blob, out),
        }
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
        let back = roundtrip(&F32Raw, &t);
        let bits: Vec<u32> = t.data().iter().map(|x| x.to_bits()).collect();
        let back_bits: Vec<u32> = back.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, back_bits);
    }

    #[test]
    fn f16_error_within_bound() {
        let t = sample_nchw();
        let back = roundtrip(&F16, &t);
        for (&a, &b) in t.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= a.abs() * 2f32.powi(-11) + 2f32.powi(-24));
        }
    }

    #[test]
    fn int8_error_within_half_scale_per_channel() {
        let t = sample_nchw();
        let mut blob = CacheBlob::new();
        Int8Affine.encode(&t, &mut blob);
        // Per-channel scales from the blob header.
        let scales: Vec<f32> = blob.bytes()[..3 * 8]
            .chunks_exact(8)
            .map(|p| f32::from_le_bytes([p[0], p[1], p[2], p[3]]))
            .collect();
        let mut out = Tensor::default();
        Int8Affine.decode_into(&blob, &mut out).unwrap();
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
    fn int8_compresses_about_4x() {
        // Realistic cache-entry size: the per-channel table amortises away
        // and the ratio approaches 4×.
        let t = Tensor::ones(&[8, 16, 8, 8]);
        let mut blob = CacheBlob::new();
        Int8Affine.encode(&t, &mut blob);
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
        Int8Affine.encode(&t, &mut blob);
        let mut out = Tensor::default();
        Int8Affine.decode_into(&blob, &mut out).unwrap();
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
        Int8Affine.encode(&t, &mut blob);
        let mut per_group = Tensor::default();
        Int8Affine.decode_into(&blob, &mut per_group).unwrap();
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
        Int8Affine.encode(&t, &mut blob);
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
        F16.encode(&t, &mut blob);
        let file = blob.to_file_bytes();
        assert_eq!(&file[..4], b"NFAC");
        assert_eq!(u32::from_le_bytes(file[4..8].try_into().unwrap()), 1);
        assert_eq!(u64::from_le_bytes(file[8..16].try_into().unwrap()), 4);
        assert_eq!(file.len(), blob.header_len() + blob.bytes().len());
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
            let back = roundtrip(&F32Raw, &t);
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
            let back = roundtrip(&F16, &t);
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
            Int8Affine.encode(&t, &mut blob);
            let scales: Vec<f32> = blob.bytes()[..c * 8]
                .chunks_exact(8)
                .map(|p| f32::from_le_bytes([p[0], p[1], p[2], p[3]]))
                .collect();
            let mut out = Tensor::default();
            Int8Affine.decode_into(&blob, &mut out).unwrap();
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
