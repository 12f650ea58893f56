//! Activation cache (§3.3): storage-backed persistence of trained block
//! outputs.
//!
//! When a block finishes training, the Worker runs one final forward pass
//! and stores the block's output activations for the *entire* training set
//! here; the next block then consumes these as its input, eliminating
//! redundant forward passes over trained blocks. The paper's §6.4 measures
//! this cache at 1.5–5.3× the dataset size — [`ActivationStore::bytes_stored`]
//! reproduces that accounting, **in encoded bytes**: the cache path is two
//! orthogonal layers, a [`CodecKind`] deciding how tensors become bytes
//! (raw f32, f16, or per-channel-quantized int8 — see [`crate::codec`])
//! and a [`BlobStore`] deciding where the bytes live (memory or disk),
//! composed by [`CodecStore`].

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::codec::{parse_header, ActivationCodec, CacheBlob, CodecKind, MAX_HEADER_LEN};
use crate::{NfError, Result};
use nf_tensor::{QuantTensor, Tensor};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Storage backend for cached activations, keyed by block index.
///
/// Byte accounting ([`ActivationStore::bytes_stored`],
/// [`ActivationStore::peak_bytes`], and the count returned by
/// [`ActivationStore::write`]) is always in **encoded** bytes — that is
/// the paper's §6.4 overhead metric, and the quantity a quantizing codec
/// shrinks.
///
/// # Examples
///
/// The Worker only sees this trait, so the in-memory store (fault
/// switches included) and the on-disk store are interchangeable:
///
/// ```
/// use neuroflux_core::{ActivationStore, CodecKind, MemoryStore};
/// use nf_tensor::Tensor;
///
/// let mut store = MemoryStore::new(); // default codec: bit-exact f32
/// let acts = Tensor::ones(&[4, 8]);
/// store.write(0, &acts)?;
/// assert_eq!(store.read(0)?, acts);
/// assert_eq!(store.bytes_stored(), 4 * 8 * 4);
///
/// // The same store under the f16 codec holds the same tensor in half
/// // the bytes.
/// let mut half = MemoryStore::with_codec(CodecKind::F16);
/// half.write(0, &acts)?;
/// assert_eq!(half.bytes_stored(), 4 * 8 * 2);
/// assert_eq!(half.read(0)?, acts); // 1.0 is exact in f16
/// # Ok::<(), neuroflux_core::NfError>(())
/// ```
pub trait ActivationStore {
    /// Persists the output activations of `block`, returning the
    /// **encoded** byte count the cache was charged.
    fn write(&mut self, block: usize, activations: &Tensor) -> Result<u64>;

    /// Loads the cached output activations of `block`.
    fn read(&mut self, block: usize) -> Result<Tensor> {
        let mut out = Tensor::default();
        self.read_into(block, &mut out)?;
        Ok(out)
    }

    /// Loads the cached output activations of `block` into `out`, reusing
    /// the caller's buffer (grow-only, like [`Tensor::reuse_as`]) — the
    /// Worker's steady-state consume path.
    fn read_into(&mut self, block: usize, out: &mut Tensor) -> Result<()>;

    /// Loads the cached activations of `block` directly in affine-`u8`
    /// form into `out` — the quantized-compute consume path. Returns
    /// `Ok(true)` when the store holds natively quantized data and filled
    /// `out` **without an f32 detour**; `Ok(false)` when it cannot, in
    /// which case the caller falls back to [`ActivationStore::read_into`]
    /// and the f32 path.
    fn read_quant(&mut self, block: usize, out: &mut QuantTensor) -> Result<bool>;

    /// Drops the cached activations of `block` (frees storage once the next
    /// block has consumed them).
    fn delete(&mut self, block: usize) -> Result<()>;

    /// Total encoded bytes currently stored (the §6.4 overhead metric).
    fn bytes_stored(&self) -> u64;

    /// Peak encoded bytes ever stored simultaneously.
    fn peak_bytes(&self) -> u64;

    /// The codec this store encodes with.
    fn codec(&self) -> CodecKind;
}

// Mutable references forward to the underlying store, so APIs taking a
// generic `S: ActivationStore` also accept `&mut dyn ActivationStore`
// (which is how the Controller threads a caller-chosen store through).
impl<S: ActivationStore + ?Sized> ActivationStore for &mut S {
    fn write(&mut self, block: usize, activations: &Tensor) -> Result<u64> {
        (**self).write(block, activations)
    }

    fn read_into(&mut self, block: usize, out: &mut Tensor) -> Result<()> {
        (**self).read_into(block, out)
    }

    fn read_quant(&mut self, block: usize, out: &mut QuantTensor) -> Result<bool> {
        (**self).read_quant(block, out)
    }

    fn delete(&mut self, block: usize) -> Result<()> {
        (**self).delete(block)
    }

    fn bytes_stored(&self) -> u64 {
        (**self).bytes_stored()
    }

    fn peak_bytes(&self) -> u64 {
        (**self).peak_bytes()
    }

    fn codec(&self) -> CodecKind {
        (**self).codec()
    }
}

/// Storage layer below the codec: persists encoded [`CacheBlob`]s by block
/// index. Implementations never interpret the payload — that is the
/// codec's job — but they do persist the blob's self-describing header, so
/// a reader under a different codec gets a typed mismatch instead of
/// garbage.
pub trait BlobStore {
    /// Persists `blob` as `block` (header + payload).
    fn put(&mut self, block: usize, blob: &CacheBlob) -> Result<()>;

    /// Loads `block` into `blob`, reusing its buffers (grow-only).
    fn get(&mut self, block: usize, blob: &mut CacheBlob) -> Result<()>;

    /// Drops `block`.
    fn delete(&mut self, block: usize) -> Result<()>;

    /// Total encoded payload bytes currently stored.
    fn bytes_stored(&self) -> u64;

    /// Peak encoded payload bytes ever stored simultaneously.
    fn peak_bytes(&self) -> u64;
}

/// Composes a [`CodecKind`] with a [`BlobStore`] into the
/// [`ActivationStore`] the Worker trains against.
///
/// The aliases [`MemoryStore`] and [`DiskStore`] name the shipped storage
/// backends. One scratch [`CacheBlob`] is reused across every write and
/// read, so the steady-state encode/decode path performs no payload-sized
/// allocations once warmed up (what remains per block write is small
/// header/metadata work, negligible next to the payload I/O).
#[derive(Debug)]
pub struct CodecStore<S> {
    codec: CodecKind,
    store: S,
    scratch: CacheBlob,
}

impl<S: BlobStore> CodecStore<S> {
    /// Composes `codec` over `store`.
    pub fn from_parts(codec: CodecKind, store: S) -> Self {
        CodecStore {
            codec,
            store,
            scratch: CacheBlob::new(),
        }
    }

    /// The underlying blob store.
    pub fn inner(&self) -> &S {
        &self.store
    }

    /// The underlying blob store, mutably (how tests arm a
    /// [`MemoryBlobStore`]'s fault switches).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Loads `block` into the scratch blob and checks it was written under
    /// `expected`.
    fn load(&mut self, block: usize, expected: CodecKind, what: &str) -> Result<()> {
        self.store.get(block, &mut self.scratch)?;
        if self.scratch.codec != expected {
            return Err(NfError::CodecMismatch {
                expected: expected.name(),
                found: self.scratch.codec.name(),
                context: format!("activation cache block {block}{what}"),
            });
        }
        Ok(())
    }
}

impl<S: BlobStore> ActivationStore for CodecStore<S> {
    fn write(&mut self, block: usize, activations: &Tensor) -> Result<u64> {
        self.codec.encode(activations, &mut self.scratch);
        self.store.put(block, &self.scratch)?;
        Ok(self.scratch.encoded_len())
    }

    fn read_into(&mut self, block: usize, out: &mut Tensor) -> Result<()> {
        self.load(block, self.codec, "")?;
        self.codec.decode_into(&self.scratch, out)
    }

    fn read_quant(&mut self, block: usize, out: &mut QuantTensor) -> Result<bool> {
        if self.codec != CodecKind::Int8Affine {
            return Ok(false);
        }
        self.load(block, CodecKind::Int8Affine, " (quantized read)")?;
        crate::codec::requantize_int8_blob(&self.scratch, out)?;
        Ok(true)
    }

    fn delete(&mut self, block: usize) -> Result<()> {
        self.store.delete(block)
    }

    fn bytes_stored(&self) -> u64 {
        self.store.bytes_stored()
    }

    fn peak_bytes(&self) -> u64 {
        self.store.peak_bytes()
    }

    fn codec(&self) -> CodecKind {
        self.codec
    }
}

/// In-memory blob storage (tests, small runs). Its two switches inject
/// faults: while one is set, every `put` or `get` fails with a typed
/// [`NfError::Cache`] — how tests check, under every codec, that the
/// Worker surfaces storage failures without corrupting trained state.
#[derive(Debug, Default)]
pub struct MemoryBlobStore {
    blocks: BTreeMap<usize, CacheBlob>,
    peak: u64,
    /// While set, every `put` fails.
    pub fail_writes: bool,
    /// While set, every `get` fails.
    pub fail_reads: bool,
}

impl BlobStore for MemoryBlobStore {
    fn put(&mut self, block: usize, blob: &CacheBlob) -> Result<()> {
        if self.fail_writes {
            return Err(injected("write", block));
        }
        self.blocks.entry(block).or_default().copy_from(blob);
        self.peak = self.peak.max(self.bytes_stored());
        Ok(())
    }

    fn get(&mut self, block: usize, blob: &mut CacheBlob) -> Result<()> {
        if self.fail_reads {
            return Err(injected("read", block));
        }
        let stored = self.blocks.get(&block).ok_or(NfError::Cache {
            op: "read",
            block,
            cause: "no cached activations for block".into(),
        })?;
        blob.copy_from(stored);
        Ok(())
    }

    fn delete(&mut self, block: usize) -> Result<()> {
        self.blocks.remove(&block);
        Ok(())
    }

    fn bytes_stored(&self) -> u64 {
        self.blocks.values().map(CacheBlob::encoded_len).sum()
    }

    fn peak_bytes(&self) -> u64 {
        self.peak
    }
}

fn injected(op: &'static str, block: usize) -> NfError {
    NfError::Cache {
        op,
        block,
        cause: format!("injected {op} failure"),
    }
}

/// Simple in-memory store (tests, small runs): a [`MemoryBlobStore`] under
/// a runtime-selected codec.
pub type MemoryStore = CodecStore<MemoryBlobStore>;

impl MemoryStore {
    /// Creates an empty store with the default bit-exact f32 codec.
    pub fn new() -> Self {
        Self::with_codec(CodecKind::F32Raw)
    }

    /// Creates an empty store encoding with `codec`.
    pub fn with_codec(codec: CodecKind) -> Self {
        CodecStore::from_parts(codec, MemoryBlobStore::default())
    }
}

impl Default for MemoryStore {
    fn default() -> Self {
        Self::new()
    }
}

/// On-disk blob storage: one self-describing file per block under a
/// directory (the paper's SD-card/NVMe activation cache).
///
/// File format: magic `NFAC`, codec id `u32` LE, the shape record (rank
/// `u64` LE, each dim `u64` LE), then the codec's payload. A read is one
/// header read, parsed by the one blob-header parser, plus one bulk
/// `read_exact` of the whole payload into a reused buffer — the codec then
/// decodes it with a single slice-wise pass, so multi-megabyte block
/// reloads during `--resume` stay I/O-bound rather than decode-bound.
#[derive(Debug)]
pub struct DiskBlobStore {
    dir: PathBuf,
    sizes: BTreeMap<usize, u64>,
    peak: u64,
}

impl DiskBlobStore {
    /// Creates (and if needed, makes) blob storage under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| NfError::Cache {
            op: "write",
            block: 0,
            cause: format!("creating {}: {e}", dir.display()),
        })?;
        Ok(DiskBlobStore {
            dir,
            sizes: BTreeMap::new(),
            peak: 0,
        })
    }

    fn path(&self, block: usize) -> PathBuf {
        self.dir.join(format!("block_{block}.acts"))
    }

    /// Re-registers any `block_*.acts` files a previous process left
    /// behind so `bytes_stored` accounts for them and `get` serves them.
    fn recover_dir(dir: impl Into<PathBuf>) -> Result<Self> {
        let mut store = Self::new(dir)?;
        let entries = std::fs::read_dir(&store.dir).map_err(|e| NfError::Cache {
            op: "read",
            block: 0,
            cause: format!("scanning {}: {e}", store.dir.display()),
        })?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let block = match name
                .strip_prefix("block_")
                .and_then(|s| s.strip_suffix(".acts"))
                .and_then(|s| s.parse::<usize>().ok())
            {
                Some(b) => b,
                None => continue,
            };
            if let Ok(meta) = entry.metadata() {
                // Accounting is payload-only (matching `put`); the header
                // length depends on the stored rank, so peek at it. A file
                // too corrupt to parse keeps its full size registered —
                // the read path will surface the precise error.
                let payload = Self::peek_payload_len(&entry.path()).unwrap_or(meta.len());
                store.sizes.insert(block, payload);
            }
        }
        store.peak = store.bytes_stored();
        Ok(store)
    }

    /// A blob file's payload length from its header; `None` if the
    /// header is unreadable.
    fn peek_payload_len(path: &Path) -> Option<u64> {
        read_header(&mut File::open(path).ok()?)
            .ok()
            .map(|(_, _, payload)| payload)
    }
}

/// Parses the header of an open blob file and leaves the file at its
/// payload: the codec, the shape, and the payload's length in bytes.
fn read_header(file: &mut File) -> std::result::Result<(CodecKind, Vec<usize>, u64), String> {
    let io = |e: std::io::Error| e.to_string();
    let file_len = file.metadata().map_err(io)?.len();
    let mut head = [0u8; MAX_HEADER_LEN];
    let head = head
        .get_mut(..file_len.min(MAX_HEADER_LEN as u64) as usize)
        .unwrap_or_default();
    file.read_exact(head).map_err(io)?;
    let (codec, shape, header_len) = parse_header(head)?;
    let header_len = header_len as u64;
    file.seek(SeekFrom::Start(header_len)).map_err(io)?;
    Ok((codec, shape, file_len - header_len))
}

impl BlobStore for DiskBlobStore {
    fn put(&mut self, block: usize, blob: &CacheBlob) -> Result<()> {
        let path = self.path(block);
        let werr = |e: std::io::Error| NfError::Cache {
            op: "write",
            block,
            cause: e.to_string(),
        };
        // Header and payload stream out separately: the encoded payload
        // is written straight from the blob's buffer, never copied into a
        // whole-file staging Vec.
        let mut file = File::create(&path).map_err(werr)?;
        file.write_all(&blob.header_bytes()).map_err(werr)?;
        file.write_all(blob.bytes()).map_err(werr)?;
        // Accounting excludes the fixed per-file header so the write /
        // bytes_stored totals agree across memory and disk stores (and
        // across codecs of the same payload size).
        self.sizes.insert(block, blob.encoded_len());
        self.peak = self.peak.max(self.bytes_stored());
        Ok(())
    }

    fn get(&mut self, block: usize, blob: &mut CacheBlob) -> Result<()> {
        let rerr = |cause: String| NfError::Cache {
            op: "read",
            block,
            cause,
        };
        let mut file = File::open(self.path(block)).map_err(|e| rerr(e.to_string()))?;
        let (codec, shape, payload) = read_header(&mut file).map_err(rerr)?;
        blob.reset(codec, &shape, payload as usize);
        // The whole payload in one bulk read into the reused buffer.
        file.read_exact(blob.bytes_mut())
            .map_err(|e| rerr(e.to_string()))
    }

    fn delete(&mut self, block: usize) -> Result<()> {
        let path = self.path(block);
        if path.exists() {
            std::fs::remove_file(&path).map_err(|e| NfError::Cache {
                op: "delete",
                block,
                cause: e.to_string(),
            })?;
        }
        self.sizes.remove(&block);
        Ok(())
    }

    fn bytes_stored(&self) -> u64 {
        self.sizes.values().sum()
    }

    fn peak_bytes(&self) -> u64 {
        self.peak
    }
}

/// On-disk store: a [`DiskBlobStore`] under a runtime-selected codec.
pub type DiskStore = CodecStore<DiskBlobStore>;

impl DiskStore {
    /// Creates (and if needed, makes) a store under `dir` encoding with
    /// `codec`.
    pub fn with_codec(dir: impl Into<PathBuf>, codec: CodecKind) -> Result<Self> {
        Ok(CodecStore::from_parts(codec, DiskBlobStore::new(dir)?))
    }

    /// Opens a store under `dir` reading with `codec`, re-registering any
    /// `block_*.acts` files a previous process left behind so
    /// `bytes_stored` accounts for them and `read` serves them. This is
    /// the resume path: an interrupted run's cached activations become the
    /// restart point. Because blobs are self-describing, a cache written
    /// under a *different* codec fails with a typed
    /// [`NfError::CodecMismatch`] naming both codecs — never garbage
    /// tensors.
    pub fn recover_with_codec(dir: impl Into<PathBuf>, codec: CodecKind) -> Result<Self> {
        Ok(CodecStore::from_parts(
            codec,
            DiskBlobStore::recover_dir(dir)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tensor {
        Tensor::from_vec(vec![2, 3], vec![1.0, -2.5, 3.0, 0.0, 7.25, -0.125]).unwrap()
    }

    #[test]
    fn memory_store_round_trips() {
        let mut s = MemoryStore::new();
        s.write(0, &sample()).unwrap();
        assert_eq!(s.read(0).unwrap(), sample());
        assert_eq!(s.bytes_stored(), 24);
        s.delete(0).unwrap();
        assert!(s.read(0).is_err());
        assert_eq!(s.bytes_stored(), 0);
        assert_eq!(s.peak_bytes(), 24);
    }

    #[test]
    fn disk_store_round_trips() {
        let dir = std::env::temp_dir().join(format!("nf_cache_test_{}", std::process::id()));
        let mut s = DiskStore::with_codec(&dir, CodecKind::F32Raw).unwrap();
        s.write(3, &sample()).unwrap();
        assert_eq!(s.read(3).unwrap(), sample());
        assert_eq!(s.bytes_stored(), 24, "payload-only accounting");
        s.delete(3).unwrap();
        assert!(s.read(3).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_store_recovers_existing_blocks() {
        let dir = std::env::temp_dir().join(format!("nf_cache_rec_{}", std::process::id()));
        {
            let mut s = DiskStore::with_codec(&dir, CodecKind::F32Raw).unwrap();
            s.write(0, &sample()).unwrap();
            s.write(2, &sample()).unwrap();
        }
        // A fresh process recovering the directory sees both blocks.
        let mut recovered = DiskStore::recover_with_codec(&dir, CodecKind::F32Raw).unwrap();
        assert_eq!(recovered.read(0).unwrap(), sample());
        assert_eq!(recovered.read(2).unwrap(), sample());
        assert!(recovered.read(1).is_err());
        assert!(recovered.bytes_stored() > 0);
        assert_eq!(recovered.peak_bytes(), recovered.bytes_stored());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mut_reference_forwards_store_impl() {
        fn write_via_generic<S: ActivationStore>(mut store: S) -> u64 {
            store.write(0, &sample()).unwrap();
            store.bytes_stored()
        }
        let mut s = MemoryStore::new();
        let dyn_ref: &mut dyn ActivationStore = &mut s;
        assert_eq!(write_via_generic(dyn_ref), 24);
        assert_eq!(s.bytes_stored(), 24);
    }

    #[test]
    fn disk_store_overwrites_blocks() {
        let dir = std::env::temp_dir().join(format!("nf_cache_ow_{}", std::process::id()));
        let mut s = DiskStore::with_codec(&dir, CodecKind::F32Raw).unwrap();
        s.write(0, &sample()).unwrap();
        let bigger = Tensor::ones(&[4, 4]);
        s.write(0, &bigger).unwrap();
        assert_eq!(s.read(0).unwrap(), bigger);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failing_store_supports_every_codec() {
        // Fault injection composes with every codec: the store reports the
        // codec, round-trips under it, and fails exactly while armed.
        for codec in CodecKind::all() {
            let mut s = MemoryStore::with_codec(codec);
            assert_eq!(ActivationStore::codec(&s), codec);
            let written = s.write(0, &Tensor::ones(&[4, 8])).unwrap();
            assert_eq!(written, s.bytes_stored());
            assert_eq!(s.read(0).unwrap(), Tensor::ones(&[4, 8]));
            s.inner_mut().fail_reads = true;
            assert!(matches!(s.read(0), Err(NfError::Cache { op: "read", .. })));
            s.inner_mut().fail_reads = false;
            assert!(s.read(0).is_ok(), "{codec}");
            s.inner_mut().fail_writes = true;
            let err = s.write(1, &sample());
            assert!(matches!(err, Err(NfError::Cache { op: "write", .. })));
        }
    }

    #[test]
    fn failing_store_injects_faults() {
        let mut s = MemoryStore::new();
        s.write(0, &sample()).unwrap();
        s.inner_mut().fail_reads = true;
        assert!(matches!(s.read(0), Err(NfError::Cache { op: "read", .. })));
        s.inner_mut().fail_reads = false;
        assert!(s.read(0).is_ok());
        s.inner_mut().fail_writes = true;
        assert!(matches!(
            s.write(1, &sample()),
            Err(NfError::Cache { op: "write", .. })
        ));
    }

    #[test]
    fn peak_tracks_simultaneous_blocks() {
        let mut s = MemoryStore::new();
        s.write(0, &Tensor::zeros(&[10])).unwrap();
        s.write(1, &Tensor::zeros(&[10])).unwrap();
        s.delete(0).unwrap();
        s.write(2, &Tensor::zeros(&[10])).unwrap();
        assert_eq!(s.peak_bytes(), 80);
        assert_eq!(s.bytes_stored(), 80);
    }

    #[test]
    fn quantized_codecs_shrink_stored_bytes() {
        let t = Tensor::ones(&[4, 8, 2, 2]); // 128 elements
        let f32_bytes = {
            let mut s = MemoryStore::new();
            s.write(0, &t).unwrap()
        };
        let f16_bytes = {
            let mut s = MemoryStore::with_codec(CodecKind::F16);
            s.write(0, &t).unwrap()
        };
        let int8_bytes = {
            let mut s = MemoryStore::with_codec(CodecKind::Int8Affine);
            s.write(0, &t).unwrap()
        };
        assert_eq!(f32_bytes, 128 * 4);
        assert_eq!(f16_bytes, 128 * 2);
        assert_eq!(int8_bytes, 128 + 8 * 8); // data + per-channel table
        assert!((f32_bytes as f64 / int8_bytes as f64) > 2.5);
    }

    #[test]
    fn f16_disk_round_trip_is_within_tolerance() {
        let dir = std::env::temp_dir().join(format!("nf_cache_f16_{}", std::process::id()));
        let t = Tensor::from_vec(vec![2, 3], vec![0.1, -2.5, 3.375, 0.0, 7.25, -0.125]).unwrap();
        let mut s = DiskStore::with_codec(&dir, CodecKind::F16).unwrap();
        s.write(0, &t).unwrap();
        let back = s.read(0).unwrap();
        for (&a, &b) in t.data().iter().zip(back.data()) {
            assert!(
                (a - b).abs() <= a.abs() * 2f32.powi(-11) + 1e-7,
                "{a} vs {b}"
            );
        }
        assert_eq!(ActivationStore::codec(&s), CodecKind::F16);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reading_under_a_different_codec_is_a_typed_mismatch() {
        let dir = std::env::temp_dir().join(format!("nf_cache_mismatch_{}", std::process::id()));
        {
            let mut s = DiskStore::with_codec(&dir, CodecKind::F16).unwrap();
            s.write(0, &sample()).unwrap();
        }
        // A fresh process recovering the same directory under int8 gets a
        // typed error naming both codecs, not garbage tensors.
        let mut wrong = DiskStore::recover_with_codec(&dir, CodecKind::Int8Affine).unwrap();
        match wrong.read(0) {
            Err(NfError::CodecMismatch {
                expected, found, ..
            }) => {
                assert_eq!(expected, "int8");
                assert_eq!(found, "f16");
            }
            other => panic!("expected CodecMismatch, got {other:?}"),
        }
        // The message names both codecs for the operator.
        let msg = wrong.read(0).unwrap_err().to_string();
        assert!(msg.contains("int8") && msg.contains("f16"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_blob_headers_are_rejected() {
        let dir = std::env::temp_dir().join(format!("nf_cache_corrupt_{}", std::process::id()));
        let mut s = DiskStore::with_codec(&dir, CodecKind::F32Raw).unwrap();
        s.write(0, &sample()).unwrap();
        let path = dir.join("block_0.acts");
        // Bad magic.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(s.read(0), Err(NfError::Cache { op: "read", .. })));
        // Unknown codec id.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'N';
        bytes[4] = 99;
        std::fs::write(&path, &bytes).unwrap();
        let msg = s.read(0).unwrap_err().to_string();
        assert!(msg.contains("codec id"), "{msg}");
        // Overflowing dims: a crafted shape whose element count overflows
        // must be a typed error, not an integer-overflow panic when the
        // codec computes its expected payload size.
        s.write(0, &sample()).unwrap();
        let mut huge = std::fs::read(&path).unwrap();
        huge[16..24].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        std::fs::write(&path, &huge).unwrap();
        let msg = s.read(0).unwrap_err().to_string();
        assert!(msg.contains("implausible shape"), "{msg}");
        // Truncated below the header.
        std::fs::write(&path, b"NFAC").unwrap();
        assert!(s.read(0).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_quant_serves_int8_stores_without_f32_detour() {
        let t = Tensor::from_vec(
            vec![1, 2, 2, 2],
            vec![0.0, 1.0, 2.0, 3.0, -4.0, 0.5, 1.5, 2.5],
        )
        .unwrap();
        let mut q = QuantTensor::new();
        // Non-int8 codecs decline: the caller falls back to read_into.
        for codec in [CodecKind::F32Raw, CodecKind::F16] {
            let mut s = MemoryStore::with_codec(codec);
            s.write(0, &t).unwrap();
            assert!(!s.read_quant(0, &mut q).unwrap(), "{codec}");
        }
        // The int8 store serves quantized form tracking its own f32 decode.
        let mut s = MemoryStore::with_codec(CodecKind::Int8Affine);
        s.write(0, &t).unwrap();
        assert!(s.read_quant(0, &mut q).unwrap());
        assert_eq!(q.shape(), t.shape());
        let f32_decode = s.read(0).unwrap();
        for (&a, &b) in f32_decode.data().iter().zip(q.dequantize().unwrap().data()) {
            assert!(
                (a - b).abs() <= q.scale() * 0.5 * 1.0001 + 1e-6,
                "{a} vs {b}"
            );
        }
        // Fault injection covers the quantized read too.
        let mut failing = MemoryStore::with_codec(CodecKind::Int8Affine);
        failing.write(0, &t).unwrap();
        assert!(failing.read_quant(0, &mut q).unwrap());
        failing.inner_mut().fail_reads = true;
        assert!(failing.read_quant(0, &mut q).is_err());
    }

    #[test]
    fn read_into_reuses_the_caller_buffer() {
        let mut s = MemoryStore::new();
        let big = Tensor::ones(&[64, 8]);
        s.write(0, &big).unwrap();
        let mut buf = Tensor::default();
        s.read_into(0, &mut buf).unwrap();
        assert_eq!(buf, big);
        let warmed = buf.data_capacity();
        // A smaller follow-up read must not reallocate.
        s.write(1, &sample()).unwrap();
        s.read_into(1, &mut buf).unwrap();
        assert_eq!(buf, sample());
        assert_eq!(buf.data_capacity(), warmed);
    }
}
