//! Activation cache (§3.3): storage-backed persistence of trained block
//! outputs.
//!
//! When a block finishes training, the Worker runs one final forward pass
//! and stores the block's output activations for the *entire* training set
//! here; the next block then consumes these as its input, eliminating
//! redundant forward passes over trained blocks. The paper's §6.4 measures
//! this cache at 1.5–5.3× the dataset size — [`ActivationStore::bytes_stored`]
//! reproduces that accounting, **in encoded bytes**: the cache path is two
//! orthogonal layers, an [`ActivationCodec`] deciding how tensors become
//! bytes (raw f32, f16, or per-channel-quantized int8 — see
//! [`crate::codec`]) and a [`BlobStore`] deciding where the bytes live
//! (memory or disk), composed by [`CodecStore`].

use crate::codec::{ActivationCodec, CacheBlob, CodecKind, BLOB_MAGIC};
use crate::{NfError, Result};
use nf_tensor::{QuantTensor, Tensor};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

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
/// The Worker only sees this trait, so an in-memory store, the on-disk
/// store, and test fault injectors are interchangeable:
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
    /// `out` **without an f32 detour**; `Ok(false)` (the default) when it
    /// cannot, in which case the caller falls back to
    /// [`ActivationStore::read_into`] and the f32 path.
    fn read_quant(&mut self, _block: usize, _out: &mut QuantTensor) -> Result<bool> {
        Ok(false)
    }

    /// Drops the cached activations of `block` (frees storage once the next
    /// block has consumed them).
    fn delete(&mut self, block: usize) -> Result<()>;

    /// Total encoded bytes currently stored (the §6.4 overhead metric).
    fn bytes_stored(&self) -> u64;

    /// Peak encoded bytes ever stored simultaneously.
    fn peak_bytes(&self) -> u64;

    /// The codec this store encodes with.
    fn codec(&self) -> CodecKind {
        CodecKind::F32Raw
    }
}

// Mutable references forward to the underlying store, so APIs taking a
// generic `S: ActivationStore` also accept `&mut dyn ActivationStore`
// (which is how the Controller threads a caller-chosen store through).
impl<S: ActivationStore + ?Sized> ActivationStore for &mut S {
    fn write(&mut self, block: usize, activations: &Tensor) -> Result<u64> {
        (**self).write(block, activations)
    }

    fn read(&mut self, block: usize) -> Result<Tensor> {
        (**self).read(block)
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

/// Composes an [`ActivationCodec`] with a [`BlobStore`] into the
/// [`ActivationStore`] the Worker trains against.
///
/// The concrete aliases [`MemoryStore`] and [`DiskStore`] cover the two
/// shipped storage backends with a runtime-selected codec; the generic
/// form exists so tests (and future backends) can compose freely. One
/// scratch [`CacheBlob`] is reused across every write and read, so the
/// steady-state encode/decode path performs no payload-sized allocations
/// once warmed up (what remains per block write is small header/metadata
/// work, negligible next to the payload I/O).
#[derive(Debug)]
pub struct CodecStore<C, S> {
    codec: C,
    store: S,
    scratch: CacheBlob,
}

impl<C: ActivationCodec, S: BlobStore> CodecStore<C, S> {
    /// Composes `codec` over `store`.
    pub fn from_parts(codec: C, store: S) -> Self {
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
}

impl<C: ActivationCodec, S: BlobStore> ActivationStore for CodecStore<C, S> {
    fn write(&mut self, block: usize, activations: &Tensor) -> Result<u64> {
        self.codec.encode(activations, &mut self.scratch);
        self.store.put(block, &self.scratch)?;
        Ok(self.scratch.encoded_len())
    }

    fn read_into(&mut self, block: usize, out: &mut Tensor) -> Result<()> {
        self.store.get(block, &mut self.scratch)?;
        if self.scratch.codec != self.codec.kind() {
            return Err(NfError::CodecMismatch {
                expected: self.codec.kind().name(),
                found: self.scratch.codec.name(),
                context: format!("activation cache block {block}"),
            });
        }
        self.codec.decode_into(&self.scratch, out)
    }

    fn read_quant(&mut self, block: usize, out: &mut QuantTensor) -> Result<bool> {
        if self.codec.kind() != CodecKind::Int8Affine {
            return Ok(false);
        }
        self.store.get(block, &mut self.scratch)?;
        if self.scratch.codec != CodecKind::Int8Affine {
            return Err(NfError::CodecMismatch {
                expected: CodecKind::Int8Affine.name(),
                found: self.scratch.codec.name(),
                context: format!("activation cache block {block} (quantized read)"),
            });
        }
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
        self.codec.kind()
    }
}

/// In-memory blob storage (tests, small runs).
#[derive(Debug, Default)]
pub struct MemoryBlobStore {
    blocks: BTreeMap<usize, CacheBlob>,
    peak: u64,
}

impl BlobStore for MemoryBlobStore {
    fn put(&mut self, block: usize, blob: &CacheBlob) -> Result<()> {
        self.blocks.entry(block).or_default().copy_from(blob);
        self.peak = self.peak.max(self.bytes_stored());
        Ok(())
    }

    fn get(&mut self, block: usize, blob: &mut CacheBlob) -> Result<()> {
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

/// Simple in-memory store (tests, small runs): a [`MemoryBlobStore`] under
/// a runtime-selected codec.
pub type MemoryStore = CodecStore<CodecKind, MemoryBlobStore>;

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
/// File format: magic `NFAC`, codec id `u32` LE, rank `u64` LE, each dim
/// `u64` LE, then the codec's payload. Reads are a handful of header reads
/// plus one bulk `read_exact` of the whole payload into a reused buffer —
/// the codec then decodes it with a single slice-wise pass, so multi-
/// megabyte block reloads during `--resume` stay I/O-bound rather than
/// decode-bound.
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

    /// Reads just enough of a blob file's header (magic + codec + rank) to
    /// compute its payload length; `None` if the header is unreadable.
    fn peek_payload_len(path: &std::path::Path) -> Option<u64> {
        let mut file = std::fs::File::open(path).ok()?;
        let len = file.metadata().ok()?.len();
        let mut head = [0u8; 16];
        file.read_exact(&mut head).ok()?;
        if head[..4] != BLOB_MAGIC {
            return None;
        }
        let rank = u64::from_le_bytes(head[8..16].try_into().ok()?);
        if rank > 8 {
            return None;
        }
        len.checked_sub(16 + 8 * rank)
    }
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
        let mut file = std::fs::File::create(&path).map_err(werr)?;
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
        let path = self.path(block);
        let mut file = std::fs::File::open(&path).map_err(|e| rerr(e.to_string()))?;
        let file_len = file.metadata().map_err(|e| rerr(e.to_string()))?.len();
        let mut magic = [0u8; 4];
        file.read_exact(&mut magic)
            .map_err(|e| rerr(e.to_string()))?;
        if magic != BLOB_MAGIC {
            return Err(rerr("bad magic (not a NeuroFlux cache blob)".to_string()));
        }
        let mut u32buf = [0u8; 4];
        file.read_exact(&mut u32buf)
            .map_err(|e| rerr(e.to_string()))?;
        let codec_id = u32::from_le_bytes(u32buf);
        let codec = CodecKind::from_id(codec_id)
            .ok_or_else(|| rerr(format!("unknown codec id {codec_id}")))?;
        let mut u64buf = [0u8; 8];
        file.read_exact(&mut u64buf)
            .map_err(|e| rerr(e.to_string()))?;
        let rank = u64::from_le_bytes(u64buf) as usize;
        if rank > 8 {
            return Err(rerr(format!("implausible rank {rank}")));
        }
        let mut shape = [0usize; 8];
        for d in shape.iter_mut().take(rank) {
            file.read_exact(&mut u64buf)
                .map_err(|e| rerr(e.to_string()))?;
            *d = u64::from_le_bytes(u64buf) as usize;
        }
        // Dims come from a possibly-corrupt file: a garbage shape must be
        // a typed error here, not an integer overflow downstream when the
        // codec computes its expected payload size from the element
        // count. 2⁴⁰ elements (4 TiB as f32) bounds every real cache.
        shape[..rank]
            .iter()
            .try_fold(1u64, |n, &d| n.checked_mul(d as u64))
            .filter(|&n| n <= 1 << 40)
            .ok_or_else(|| rerr(format!("implausible shape {:?}", &shape[..rank])))?;
        let header = (4 + 4 + 8 * (1 + rank)) as u64;
        let payload = file_len.checked_sub(header).ok_or_else(|| {
            rerr(format!(
                "file is {file_len} bytes, smaller than its {header}-byte header"
            ))
        })?;
        blob.reset(codec, &shape[..rank], payload as usize);
        // The whole payload in one bulk read into the reused buffer.
        file.read_exact(blob.bytes_mut())
            .map_err(|e| rerr(e.to_string()))?;
        Ok(())
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
pub type DiskStore = CodecStore<CodecKind, DiskBlobStore>;

impl DiskStore {
    /// Creates (and if needed, makes) a store under `dir` with the default
    /// bit-exact f32 codec.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::with_codec(dir, CodecKind::F32Raw)
    }

    /// Creates (and if needed, makes) a store under `dir` encoding with
    /// `codec`.
    pub fn with_codec(dir: impl Into<PathBuf>, codec: CodecKind) -> Result<Self> {
        Ok(CodecStore::from_parts(codec, DiskBlobStore::new(dir)?))
    }

    /// Opens a store under `dir`, re-registering any `block_*.acts` files a
    /// previous process left behind so `bytes_stored` accounts for them and
    /// `read` serves them. This is the resume path: an interrupted run's
    /// cached activations become the restart point. Reads with the default
    /// f32 codec; blobs written under another codec surface as
    /// [`NfError::CodecMismatch`].
    pub fn recover(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::recover_with_codec(dir, CodecKind::F32Raw)
    }

    /// [`DiskStore::recover`] reading with `codec`. Because blobs are
    /// self-describing, resuming a run whose cache was written under a
    /// *different* codec fails with a typed [`NfError::CodecMismatch`]
    /// naming both codecs — never garbage tensors.
    pub fn recover_with_codec(dir: impl Into<PathBuf>, codec: CodecKind) -> Result<Self> {
        Ok(CodecStore::from_parts(
            codec,
            DiskBlobStore::recover_dir(dir)?,
        ))
    }
}

/// Fault-injection store: fails writes and/or reads on demand. Used to test
/// that the Worker surfaces storage failures without corrupting trained
/// state.
#[derive(Debug, Default)]
pub struct FailingStore {
    inner: MemoryStore,
    fail_writes: AtomicBool,
    fail_reads: AtomicBool,
}

impl FailingStore {
    /// Creates a store that initially behaves normally (f32 codec).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store encoding with `codec`, so fault injection also
    /// covers the quantized cache paths (the Worker cross-checks its
    /// config codec against [`ActivationStore::codec`]).
    pub fn with_codec(codec: CodecKind) -> Self {
        FailingStore {
            inner: MemoryStore::with_codec(codec),
            fail_writes: AtomicBool::new(false),
            fail_reads: AtomicBool::new(false),
        }
    }

    /// Makes all subsequent writes fail.
    pub fn fail_writes(&self, fail: bool) {
        self.fail_writes.store(fail, Ordering::SeqCst);
    }

    /// Makes all subsequent reads fail.
    pub fn fail_reads(&self, fail: bool) {
        self.fail_reads.store(fail, Ordering::SeqCst);
    }
}

impl ActivationStore for FailingStore {
    fn write(&mut self, block: usize, activations: &Tensor) -> Result<u64> {
        if self.fail_writes.load(Ordering::SeqCst) {
            return Err(NfError::Cache {
                op: "write",
                block,
                cause: "injected write failure".into(),
            });
        }
        self.inner.write(block, activations)
    }

    fn read_into(&mut self, block: usize, out: &mut Tensor) -> Result<()> {
        if self.fail_reads.load(Ordering::SeqCst) {
            return Err(NfError::Cache {
                op: "read",
                block,
                cause: "injected read failure".into(),
            });
        }
        self.inner.read_into(block, out)
    }

    fn read_quant(&mut self, block: usize, out: &mut QuantTensor) -> Result<bool> {
        if self.fail_reads.load(Ordering::SeqCst) {
            return Err(NfError::Cache {
                op: "read",
                block,
                cause: "injected read failure".into(),
            });
        }
        self.inner.read_quant(block, out)
    }

    fn delete(&mut self, block: usize) -> Result<()> {
        self.inner.delete(block)
    }

    fn bytes_stored(&self) -> u64 {
        self.inner.bytes_stored()
    }

    fn peak_bytes(&self) -> u64 {
        self.inner.peak_bytes()
    }

    fn codec(&self) -> CodecKind {
        ActivationStore::codec(&self.inner)
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
        let mut s = DiskStore::new(&dir).unwrap();
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
            let mut s = DiskStore::new(&dir).unwrap();
            s.write(0, &sample()).unwrap();
            s.write(2, &sample()).unwrap();
        }
        // A fresh process recovering the directory sees both blocks.
        let mut recovered = DiskStore::recover(&dir).unwrap();
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
        let mut s = DiskStore::new(&dir).unwrap();
        s.write(0, &sample()).unwrap();
        let bigger = Tensor::ones(&[4, 4]);
        s.write(0, &bigger).unwrap();
        assert_eq!(s.read(0).unwrap(), bigger);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failing_store_supports_every_codec() {
        // Fault injection composes with quantized codecs: the store
        // reports the inner codec, and round-trips under it.
        for codec in CodecKind::all() {
            let mut s = FailingStore::with_codec(codec);
            assert_eq!(ActivationStore::codec(&s), codec);
            let written = s.write(0, &Tensor::ones(&[4, 8])).unwrap();
            assert_eq!(written, s.bytes_stored());
            assert_eq!(s.read(0).unwrap(), Tensor::ones(&[4, 8]));
            s.fail_reads(true);
            assert!(s.read(0).is_err(), "{codec}");
        }
    }

    #[test]
    fn failing_store_injects_faults() {
        let mut s = FailingStore::new();
        s.write(0, &sample()).unwrap();
        s.fail_reads(true);
        assert!(matches!(s.read(0), Err(NfError::Cache { op: "read", .. })));
        s.fail_reads(false);
        assert!(s.read(0).is_ok());
        s.fail_writes(true);
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
        let mut s = DiskStore::new(&dir).unwrap();
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
        let mut failing = FailingStore::with_codec(CodecKind::Int8Affine);
        failing.write(0, &t).unwrap();
        assert!(failing.read_quant(0, &mut q).unwrap());
        failing.fail_reads(true);
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
