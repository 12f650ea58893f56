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
//!
//! A block streams through the cache a batch at a time, so only the
//! current batch of a block is resident: a write is the header, then one
//! append per batch as it leaves the block; a read opens the block once,
//! validating its header and length, then reads each batch's byte range.
//! A codec whose table heads the payload and covers the whole block
//! (int8's per-channel ranges, [`CodecKind::needs_range_pass`]) is written
//! in two passes over the block: a range pass, whose batches only widen
//! the ranges, then the code pass, whose first batch writes the header and
//! the table and whose every batch appends its codes. Nothing of the block
//! is held between them; the writer produces the batches twice.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::codec::{
    blob_header, int8_ranges, int8_widen, int8_write_table, parse_header, CodecKind, Int8Grid,
    MAX_HEADER_LEN,
};
use crate::{NfError, Result};
use nf_tensor::{QuantTensor, Tensor};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Storage backend for cached activations, keyed by block index.
///
/// Byte accounting ([`ActivationStore::bytes_stored`],
/// [`ActivationStore::peak_bytes`], and the count returned by
/// [`ActivationStore::finish_write`]) is always in **encoded** bytes —
/// that is the paper's §6.4 overhead metric, and the quantity a quantizing
/// codec shrinks.
///
/// A block is written as a stream of batches and read by sample range;
/// the whole-block [`ActivationStore::write`] and
/// [`ActivationStore::read_into`] are the one-batch case of the same path.
/// Under a codec that [`CodecKind::needs_range_pass`], every batch goes
/// through [`ActivationStore::widen_batch`] before the first goes through
/// [`ActivationStore::append_batch`].
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
/// // A block streams in by batch and reads back by sample range.
/// store.begin_write(1, &[4, 8])?;
/// store.append_batch(&Tensor::ones(&[3, 8]))?;
/// store.append_batch(&Tensor::ones(&[1, 8]))?;
/// store.finish_write()?;
/// let mut batch = Tensor::default();
/// store.read_batch_into(1, 2..4, &mut batch)?;
/// assert_eq!(batch, Tensor::ones(&[2, 8]));
///
/// // int8's table covers the whole block: a range pass over the batches
/// // comes first, then the code pass appends them.
/// let mut int8 = MemoryStore::with_codec(CodecKind::Int8Affine);
/// assert!(int8.codec().needs_range_pass());
/// int8.begin_write(0, &[4, 8])?;
/// let (head, tail) = (Tensor::ones(&[3, 8]), Tensor::zeros(&[1, 8]));
/// int8.widen_batch(&head)?;
/// int8.widen_batch(&tail)?;
/// int8.append_batch(&head)?;
/// int8.append_batch(&tail)?;
/// int8.finish_write()?;
/// assert_eq!(int8.read(0)?, Tensor::cat_batch(&[&head, &tail])?);
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
    /// Starts writing `block`, whose whole output has `shape` (sample count
    /// first); its samples follow in order through
    /// [`ActivationStore::append_batch`].
    fn begin_write(&mut self, block: usize, shape: &[usize]) -> Result<()>;

    /// Widens the block's ranges by its next samples: the range pass,
    /// which a codec that [`CodecKind::needs_range_pass`] runs over the
    /// whole block before the first [`ActivationStore::append_batch`]. A
    /// no-op under the other codecs.
    fn widen_batch(&mut self, batch: &Tensor) -> Result<()>;

    /// Appends the next samples of the block being written. Under a codec
    /// that [`CodecKind::needs_range_pass`], appending before the range
    /// pass has covered the block is a typed error.
    fn append_batch(&mut self, batch: &Tensor) -> Result<()>;

    /// Completes the block being written, returning the **encoded** byte
    /// count the cache was charged. A block short of its samples is a
    /// typed error.
    fn finish_write(&mut self) -> Result<u64>;

    /// Persists the output activations of `block` as one batch, returning
    /// the **encoded** byte count the cache was charged.
    fn write(&mut self, block: usize, activations: &Tensor) -> Result<u64> {
        self.begin_write(block, activations.shape())?;
        self.widen_batch(activations)?;
        self.append_batch(activations)?;
        self.finish_write()
    }

    /// Opens `block` for batch reads and returns its sample count. Its
    /// header and length are checked here, once, so a torn or foreign
    /// block fails before any of it is consumed.
    fn open(&mut self, block: usize) -> Result<usize>;

    /// Loads samples `range` of `block` into `out`, reusing the caller's
    /// buffer (grow-only, like [`Tensor::reuse_as`]) — the Worker's
    /// steady-state consume path. Opens `block` unless it is the open one.
    fn read_batch_into(
        &mut self,
        block: usize,
        range: Range<usize>,
        out: &mut Tensor,
    ) -> Result<()>;

    /// Loads samples `range` of `block` directly in affine-`u8` form into
    /// `out` — the quantized-compute consume path, on one per-tensor grid
    /// for the whole block. Returns `Ok(true)` when the store holds
    /// natively quantized data and filled `out` **without an f32 detour**;
    /// `Ok(false)` when it cannot, in which case the caller falls back to
    /// [`ActivationStore::read_batch_into`] and the f32 path.
    fn read_batch_quant(
        &mut self,
        block: usize,
        range: Range<usize>,
        out: &mut QuantTensor,
    ) -> Result<bool>;

    /// Loads the cached output activations of `block`.
    fn read(&mut self, block: usize) -> Result<Tensor> {
        let mut out = Tensor::default();
        self.read_into(block, &mut out)?;
        Ok(out)
    }

    /// Loads the whole of `block` into `out` as one batch.
    fn read_into(&mut self, block: usize, out: &mut Tensor) -> Result<()> {
        let n = self.open(block)?;
        self.read_batch_into(block, 0..n, out)
    }

    /// [`ActivationStore::read_batch_quant`] of the whole of `block`.
    fn read_quant(&mut self, block: usize, out: &mut QuantTensor) -> Result<bool> {
        if self.codec() != CodecKind::Int8Affine {
            return Ok(false);
        }
        let n = self.open(block)?;
        self.read_batch_quant(block, 0..n, out)
    }

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

/// Storage layer below the codec: persists encoded blobs by block index,
/// written as a header and appended payload, read by payload byte range.
/// Implementations never interpret the payload — that is the codec's job
/// — but they do persist the blob's self-describing header, so a reader
/// under a different codec gets a typed mismatch instead of garbage.
pub trait BlobStore {
    /// Starts `block` afresh: its header (`codec`, `shape`), no payload.
    fn create(&mut self, block: usize, codec: CodecKind, shape: &[usize]) -> Result<()>;

    /// Appends `bytes` to the payload of `block`, the block created last.
    fn append(&mut self, block: usize, bytes: &[u8]) -> Result<()>;

    /// Opens `block` for reads: its codec, shape and payload length.
    fn open(&mut self, block: usize) -> Result<(CodecKind, Vec<usize>, u64)>;

    /// Fills `buf` from payload offset `offset` of `block`, the block
    /// opened last.
    fn read_at(&mut self, block: usize, offset: u64, buf: &mut [u8]) -> Result<()>;

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
/// backends. Every batch is encoded into, or read into, one reused
/// batch-sized byte buffer, so the steady-state write and read paths
/// allocate nothing once warmed up.
#[derive(Debug)]
pub struct CodecStore<S> {
    codec: CodecKind,
    store: S,
    /// The block being written.
    writing: Option<WriteBlock>,
    /// The block open for reads.
    reading: Option<OpenBlock>,
    /// The batch-sized byte buffer every encode and read goes through.
    bytes: Vec<u8>,
}

/// A block being written: its shape, the elements the range pass has
/// widened by and those appended, and — under a codec that
/// [`CodecKind::needs_range_pass`] — its per-group ranges and, once the
/// code pass has created the blob, the table written from them.
#[derive(Debug)]
struct WriteBlock {
    block: usize,
    shape: Vec<usize>,
    widened: usize,
    written: usize,
    ranges: Vec<(f32, f32)>,
    table: Option<Vec<u8>>,
}

impl WriteBlock {
    /// Checks that `batch`, the block's next samples after `done`
    /// elements of one pass, fits the block.
    fn check_fits(&self, done: usize, batch: &Tensor) -> Result<()> {
        let numel: usize = self.shape.iter().product();
        if batch.shape().get(1..) != self.shape.get(1..) || done + batch.numel() > numel {
            let shape = &self.shape;
            let cause = format!("batch {:?} overruns block {shape:?}", batch.shape());
            return Err(cache_err("write", self.block, cause));
        }
        Ok(())
    }

    /// Creates the blob under `codec` if the code pass has not yet: with
    /// the table from the ranges, once the range pass covered the block.
    fn create<S: BlobStore>(&mut self, codec: CodecKind, store: &mut S) -> Result<()> {
        if self.table.is_none() {
            let numel: usize = self.shape.iter().product();
            if self.widened != numel {
                let cause = format!(
                    "the range pass covered {} of {numel} elements",
                    self.widened
                );
                return Err(cache_err("write", self.block, cause));
            }
            store.create(self.block, codec, &self.shape)?;
            let mut table = vec![0; codec.table_len(&self.shape)];
            int8_write_table(&self.ranges, &mut table);
            store.append(self.block, &table)?;
            self.table = Some(table);
        }
        Ok(())
    }
}

/// A block open for batch reads.
#[derive(Debug)]
struct OpenBlock {
    block: usize,
    /// The whole block's shape, and the last batch's.
    shape: Vec<usize>,
    part: Vec<usize>,
    /// The payload's table, read once, and int8's quantized-read grid.
    table: Vec<u8>,
    grid: Option<Int8Grid>,
}

impl<S: BlobStore> CodecStore<S> {
    /// Composes `codec` over `store`.
    pub fn from_parts(codec: CodecKind, store: S) -> Self {
        CodecStore {
            codec,
            store,
            writing: None,
            reading: None,
            bytes: Vec::new(),
        }
    }

    /// The underlying blob store, mutably (how tests arm a
    /// [`MemoryBlobStore`]'s fault switches).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Opens `block`: it must have been written under this store's codec,
    /// with a batch axis and a payload as long as its shape needs. Then
    /// reads its table.
    fn open_block(&mut self, block: usize) -> Result<OpenBlock> {
        let (codec, shape, payload) = self.store.open(block)?;
        if codec != self.codec {
            return Err(NfError::CodecMismatch {
                expected: self.codec.name(),
                found: codec.name(),
                context: format!("activation cache block {block}"),
            });
        }
        let expected = codec.payload_len(&shape);
        if payload != expected as u64 || shape.is_empty() {
            return Err(cache_err(
                "read",
                block,
                format!(
                    "payload is {payload} bytes, shape {shape:?} needs {expected} and a batch axis"
                ),
            ));
        }
        let mut table = vec![0; codec.table_len(&shape)];
        self.store.read_at(block, 0, &mut table)?;
        let grid = (codec == CodecKind::Int8Affine).then(|| Int8Grid::new(&table));
        Ok(OpenBlock {
            block,
            part: shape.clone(),
            shape,
            table,
            grid,
        })
    }

    /// Reads samples `range` of `block` into the byte buffer and hands it
    /// to `decode` with the open block and the batch's first element.
    fn with_batch<T>(
        &mut self,
        block: usize,
        range: Range<usize>,
        decode: impl FnOnce(&OpenBlock, usize, &[u8]) -> T,
    ) -> Result<T> {
        let open = match self.reading.take() {
            Some(open) if open.block == block => open,
            _ => self.open_block(block)?,
        };
        let open = self.reading.insert(open);
        let (n, per) = match open.shape.split_first() {
            Some((&n, rest)) => (n, rest.iter().product::<usize>()),
            None => (0, 0),
        };
        if range.start > range.end || range.end > n {
            return Err(cache_err(
                "read",
                block,
                format!("samples {range:?} of a {n}-sample block"),
            ));
        }
        if let Some(len) = open.part.first_mut() {
            *len = range.len();
        }
        let elem = self.codec.elem_len();
        self.bytes.resize(range.len() * per * elem, 0);
        let offset = open.table.len() + range.start * per * elem;
        self.store.read_at(block, offset as u64, &mut self.bytes)?;
        Ok(decode(open, range.start * per, &self.bytes))
    }
}

impl<S: BlobStore> ActivationStore for CodecStore<S> {
    fn begin_write(&mut self, block: usize, shape: &[usize]) -> Result<()> {
        if shape.is_empty() {
            return Err(cache_err(
                "write",
                block,
                "a cached block needs a batch axis",
            ));
        }
        self.reading = self.reading.take().filter(|r| r.block != block);
        let ranged = self.codec.needs_range_pass();
        if !ranged {
            self.store.create(block, self.codec, shape)?;
        }
        self.writing = Some(WriteBlock {
            block,
            shape: shape.to_vec(),
            widened: 0,
            written: 0,
            ranges: if ranged {
                int8_ranges(shape)
            } else {
                Vec::new()
            },
            // Without a range pass the blob is created, its table empty.
            table: (!ranged).then(Vec::new),
        });
        Ok(())
    }

    fn widen_batch(&mut self, batch: &Tensor) -> Result<()> {
        let Some(w) = self.writing.as_mut() else {
            return Err(cache_err("write", 0, "no block is being written"));
        };
        if !self.codec.needs_range_pass() {
            return Ok(());
        }
        if w.table.is_some() {
            let cause = "a range pass batch after the code pass began";
            return Err(cache_err("write", w.block, cause));
        }
        w.check_fits(w.widened, batch)?;
        int8_widen(&w.shape, w.widened, batch.data(), &mut w.ranges);
        w.widened += batch.numel();
        Ok(())
    }

    fn append_batch(&mut self, batch: &Tensor) -> Result<()> {
        let Some(w) = self.writing.as_mut() else {
            return Err(cache_err("write", 0, "no block is being written"));
        };
        w.check_fits(w.written, batch)?;
        w.create(self.codec, &mut self.store)?;
        let (table, data) = (w.table.as_deref().unwrap_or_default(), batch.data());
        self.bytes.resize(data.len() * self.codec.elem_len(), 0);
        (self.codec).encode_elems(&w.shape, table, w.written, data, &mut self.bytes);
        self.store.append(w.block, &self.bytes)?;
        w.written += data.len();
        Ok(())
    }

    fn finish_write(&mut self) -> Result<u64> {
        let Some(mut w) = self.writing.take() else {
            return Err(cache_err("write", 0, "no block is being written"));
        };
        let numel: usize = w.shape.iter().product();
        if w.written != numel {
            let cause = format!("{} of the {numel} elements written", w.written);
            return Err(cache_err("write", w.block, cause));
        }
        // A block of no samples has no batch to have created it.
        w.create(self.codec, &mut self.store)?;
        Ok(self.codec.payload_len(&w.shape) as u64)
    }

    fn open(&mut self, block: usize) -> Result<usize> {
        self.reading = None;
        let open = self.open_block(block)?;
        let n = open.shape.first().copied().unwrap_or(0);
        self.reading = Some(open);
        Ok(n)
    }

    fn read_batch_into(
        &mut self,
        block: usize,
        range: Range<usize>,
        out: &mut Tensor,
    ) -> Result<()> {
        let codec = self.codec;
        self.with_batch(block, range, |open, first, bytes| {
            out.reuse_as(&open.part);
            codec.decode_elems(&open.shape, &open.table, first, bytes, out.data_mut());
        })
    }

    fn read_batch_quant(
        &mut self,
        block: usize,
        range: Range<usize>,
        out: &mut QuantTensor,
    ) -> Result<bool> {
        if self.codec != CodecKind::Int8Affine {
            return Ok(false);
        }
        self.with_batch(block, range, |open, first, codes| {
            let Some(g) = &open.grid else { return false };
            g.map(
                &open.shape,
                first,
                codes,
                out.reuse_as(&open.part, g.scale, g.min),
            );
            true
        })
    }

    fn delete(&mut self, block: usize) -> Result<()> {
        self.reading = self.reading.take().filter(|r| r.block != block);
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

/// A typed cache failure of `op` on `block`.
fn cache_err(op: &'static str, block: usize, cause: impl Into<String>) -> NfError {
    NfError::Cache {
        op,
        block,
        cause: cause.into(),
    }
}

/// One stored blob of a [`MemoryBlobStore`]: codec, shape, payload.
type MemoryBlob = (CodecKind, Vec<usize>, Vec<u8>);

/// In-memory blob storage (tests, small runs). Its two switches inject
/// faults: while one is set, every write or read fails with a typed
/// [`NfError::Cache`] — how tests check, under every codec, that the
/// Worker surfaces storage failures without corrupting trained state.
#[derive(Debug, Default)]
pub struct MemoryBlobStore {
    blocks: BTreeMap<usize, MemoryBlob>,
    peak: u64,
    /// While set, every `create` and `append` fails.
    pub fail_writes: bool,
    /// While set, every `open` and `read_at` fails.
    pub fail_reads: bool,
}

impl MemoryBlobStore {
    fn stored(&self, block: usize) -> Result<&MemoryBlob> {
        if self.fail_reads {
            return Err(injected("read", block));
        }
        self.blocks
            .get(&block)
            .ok_or_else(|| cache_err("read", block, "no cached activations for block"))
    }
}

impl BlobStore for MemoryBlobStore {
    fn create(&mut self, block: usize, codec: CodecKind, shape: &[usize]) -> Result<()> {
        if self.fail_writes {
            return Err(injected("write", block));
        }
        let payload = Vec::with_capacity(codec.payload_len(shape));
        self.blocks.insert(block, (codec, shape.to_vec(), payload));
        Ok(())
    }

    fn append(&mut self, block: usize, bytes: &[u8]) -> Result<()> {
        if self.fail_writes {
            return Err(injected("write", block));
        }
        let (_, _, payload) = self
            .blocks
            .get_mut(&block)
            .ok_or_else(|| cache_err("write", block, "block was not created"))?;
        payload.extend_from_slice(bytes);
        self.peak = self.peak.max(self.bytes_stored());
        Ok(())
    }

    fn open(&mut self, block: usize) -> Result<(CodecKind, Vec<usize>, u64)> {
        let (codec, shape, payload) = self.stored(block)?;
        Ok((*codec, shape.clone(), payload.len() as u64))
    }

    fn read_at(&mut self, block: usize, offset: u64, buf: &mut [u8]) -> Result<()> {
        let (_, _, payload) = self.stored(block)?;
        let at = usize::try_from(offset).unwrap_or(usize::MAX);
        let src = payload
            .get(at..at.saturating_add(buf.len()))
            .ok_or_else(|| cache_err("read", block, "read past the payload"))?;
        buf.copy_from_slice(src);
        Ok(())
    }

    fn delete(&mut self, block: usize) -> Result<()> {
        self.blocks.remove(&block);
        Ok(())
    }

    fn bytes_stored(&self) -> u64 {
        self.blocks.values().map(|(_, _, p)| p.len() as u64).sum()
    }

    fn peak_bytes(&self) -> u64 {
        self.peak
    }
}

fn injected(op: &'static str, block: usize) -> NfError {
    cache_err(op, block, format!("injected {op} failure"))
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
/// `u64` LE, each dim `u64` LE), then the codec's payload. A write creates
/// the file with its header and appends each batch's bytes to it. A read
/// opens the file once per block, parses the header with the one
/// blob-header parser, and then serves each batch with one positioned
/// `read_exact_at` on that open file.
#[derive(Debug)]
pub struct DiskBlobStore {
    dir: PathBuf,
    sizes: BTreeMap<usize, u64>,
    peak: u64,
    /// The block being written, and its file.
    writing: Option<(usize, File)>,
    /// The block open for reads, its file and its header's length.
    reading: Option<(usize, File, u64)>,
}

impl DiskBlobStore {
    /// Creates (and if needed, makes) blob storage under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| cache_err("write", 0, format!("creating {}: {e}", dir.display())))?;
        Ok(DiskBlobStore {
            dir,
            sizes: BTreeMap::new(),
            peak: 0,
            writing: None,
            reading: None,
        })
    }

    fn path(&self, block: usize) -> PathBuf {
        self.dir.join(format!("block_{block}.acts"))
    }

    /// Re-registers any `block_*.acts` files a previous process left
    /// behind so `bytes_stored` accounts for them and `open` serves them.
    fn recover_dir(dir: impl Into<PathBuf>) -> Result<Self> {
        let mut store = Self::new(dir)?;
        let entries = std::fs::read_dir(&store.dir)
            .map_err(|e| cache_err("read", 0, format!("scanning {}: {e}", store.dir.display())))?;
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
                // Accounting is payload-only (matching `append`); the
                // header length depends on the stored rank, so peek at it.
                // A file too corrupt to parse keeps its full size
                // registered — opening it surfaces the precise error.
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
        read_header(&File::open(path).ok()?)
            .ok()
            .map(|(_, _, _, payload)| payload)
    }
}

/// Parses the header of an open blob file: the codec, the shape, and the
/// lengths in bytes of the header and of the payload after it.
fn read_header(file: &File) -> std::result::Result<(CodecKind, Vec<usize>, u64, u64), String> {
    let io = |e: std::io::Error| e.to_string();
    let file_len = file.metadata().map_err(io)?.len();
    let mut head = [0u8; MAX_HEADER_LEN];
    let head = head
        .get_mut(..file_len.min(MAX_HEADER_LEN as u64) as usize)
        .unwrap_or_default();
    file.read_exact_at(head, 0).map_err(io)?;
    let (codec, shape, header_len) = parse_header(head)?;
    let header_len = header_len as u64;
    Ok((codec, shape, header_len, file_len - header_len))
}

impl BlobStore for DiskBlobStore {
    fn create(&mut self, block: usize, codec: CodecKind, shape: &[usize]) -> Result<()> {
        let werr = |e: std::io::Error| cache_err("write", block, e.to_string());
        self.reading = self.reading.take().filter(|r| r.0 != block);
        let mut file = File::create(self.path(block)).map_err(werr)?;
        file.write_all(&blob_header(codec, shape)).map_err(werr)?;
        // Accounting excludes the fixed per-file header so the write /
        // bytes_stored totals agree across memory and disk stores (and
        // across codecs of the same payload size).
        self.sizes.insert(block, 0);
        self.writing = Some((block, file));
        Ok(())
    }

    fn append(&mut self, block: usize, bytes: &[u8]) -> Result<()> {
        let file = match &mut self.writing {
            Some((b, file)) if *b == block => file,
            _ => return Err(cache_err("write", block, "block was not created")),
        };
        file.write_all(bytes)
            .map_err(|e| cache_err("write", block, e.to_string()))?;
        *self.sizes.entry(block).or_default() += bytes.len() as u64;
        self.peak = self.peak.max(self.bytes_stored());
        Ok(())
    }

    fn open(&mut self, block: usize) -> Result<(CodecKind, Vec<usize>, u64)> {
        let rerr = |cause: String| cache_err("read", block, cause);
        self.reading = None;
        let file = File::open(self.path(block)).map_err(|e| rerr(e.to_string()))?;
        let (codec, shape, header, payload) = read_header(&file).map_err(rerr)?;
        self.reading = Some((block, file, header));
        Ok((codec, shape, payload))
    }

    fn read_at(&mut self, block: usize, offset: u64, buf: &mut [u8]) -> Result<()> {
        let cause = match &self.reading {
            Some((b, file, header)) if *b == block => {
                match file.read_exact_at(buf, header + offset) {
                    Ok(()) => return Ok(()),
                    Err(e) => e.to_string(),
                }
            }
            _ => "block is not open".into(),
        };
        Err(cache_err("read", block, cause))
    }

    fn delete(&mut self, block: usize) -> Result<()> {
        self.reading = self.reading.take().filter(|r| r.0 != block);
        self.writing = self.writing.take().filter(|w| w.0 != block);
        let path = self.path(block);
        if path.exists() {
            std::fs::remove_file(&path).map_err(|e| cache_err("delete", block, e.to_string()))?;
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
    fn batch_reads_are_the_whole_blocks_slices_bit_for_bit() {
        use crate::codec::{blob_header, requantize_int8_blob, ActivationCodec, CacheBlob};
        let dir = std::env::temp_dir().join(format!("nf_cache_batch_{}", std::process::id()));
        let bits = |q: &QuantTensor| (q.shape().to_vec(), q.data().to_vec(), q.scale(), q.min());
        // Every int8 grouping (per channel, per row, one group), every
        // codec, both stores; streamed in batches of 4, 4 and 2, the range
        // pass first (a no-op but for int8).
        for shape in [vec![10, 3, 2, 2], vec![10, 5], vec![10]] {
            let data =
                (0..shape.iter().product()).map(|i| (i as f32 * 0.37).sin() * (i % 3) as f32);
            let t = Tensor::from_vec(shape.clone(), data.collect()).unwrap();
            for codec in CodecKind::all() {
                let (mut blob, mut whole, mut whole_q) =
                    (CacheBlob::new(), Tensor::default(), QuantTensor::new());
                codec.encode(&t, &mut blob);
                codec.decode_into(&blob, &mut whole).unwrap();
                let quant = requantize_int8_blob(&blob, &mut whole_q).is_ok();
                let disk = DiskStore::with_codec(dir.join(codec.name()), codec).unwrap();
                for mut s in [
                    Box::new(MemoryStore::with_codec(codec)) as Box<dyn ActivationStore>,
                    Box::new(disk),
                ] {
                    let batches = [0, 4, 8].map(|at| t.slice_batch(at, (at + 4).min(10)).unwrap());
                    s.begin_write(0, &shape).unwrap();
                    for batch in &batches {
                        s.widen_batch(batch).unwrap();
                    }
                    for batch in &batches {
                        s.append_batch(batch).unwrap();
                    }
                    assert_eq!(s.finish_write().unwrap(), blob.encoded_len());
                    let (mut part, mut q, mut want) =
                        (Tensor::default(), QuantTensor::new(), QuantTensor::new());
                    for (at, end) in [(0, 1), (1, 4), (4, 7), (7, 10), (0, 10), (9, 10)] {
                        s.read_batch_into(0, at..end, &mut part).unwrap();
                        assert_eq!(
                            part,
                            whole.slice_batch(at, end).unwrap(),
                            "{codec} {shape:?}"
                        );
                        assert_eq!(s.read_batch_quant(0, at..end, &mut q).unwrap(), quant);
                        if quant {
                            whole_q.slice_batch_into(at, end, &mut want).unwrap();
                            assert_eq!(bits(&q), bits(&want), "{shape:?} {at}..{end}");
                        }
                    }
                    assert!(s.read_batch_into(0, 9..11, &mut part).is_err());
                }
                // The streamed file is the whole-block blob, byte for byte.
                let file = std::fs::read(dir.join(codec.name()).join("block_0.acts")).unwrap();
                assert_eq!(
                    file,
                    [blob_header(codec, &shape), blob.bytes().to_vec()].concat()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn int8_appends_wait_for_the_whole_range_pass() {
        let t = Tensor::from_vec(vec![4, 2], (0..8).map(|i| i as f32).collect()).unwrap();
        let (head, tail) = (t.slice_batch(0, 3).unwrap(), t.slice_batch(3, 4).unwrap());
        let is_write_err = |r: Result<()>| matches!(r, Err(NfError::Cache { op: "write", .. }));
        let mut s = MemoryStore::with_codec(CodecKind::Int8Affine);
        // No range pass, or one short of the block: no blob is created.
        s.begin_write(0, t.shape()).unwrap();
        assert!(is_write_err(s.append_batch(&head)));
        s.begin_write(0, t.shape()).unwrap();
        s.widen_batch(&head).unwrap();
        assert!(is_write_err(s.append_batch(&head)));
        assert!(s.open(0).is_err());
        // Once the code pass began, the ranges are the table's.
        s.widen_batch(&tail).unwrap();
        s.append_batch(&head).unwrap();
        assert!(is_write_err(s.widen_batch(&tail)));
        // Overrunning the block in either pass is refused too.
        s.begin_write(1, t.shape()).unwrap();
        s.widen_batch(&t).unwrap();
        assert!(is_write_err(s.widen_batch(&tail)));
        s.append_batch(&t).unwrap();
        assert!(is_write_err(s.append_batch(&tail)));
        s.finish_write().unwrap();
        let mut whole = MemoryStore::with_codec(CodecKind::Int8Affine);
        whole.write(0, &t).unwrap();
        assert_eq!(s.read(1).unwrap(), whole.read(0).unwrap());
    }

    #[test]
    fn a_block_torn_mid_payload_fails_when_opened() {
        let dir = std::env::temp_dir().join(format!("nf_cache_torn_{}", std::process::id()));
        let mut s = DiskStore::with_codec(&dir, CodecKind::F32Raw).unwrap();
        s.write(0, &Tensor::ones(&[6, 2, 2, 2])).unwrap();
        let path = dir.join("block_0.acts");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        let mut torn = DiskStore::recover_with_codec(&dir, CodecKind::F32Raw).unwrap();
        assert!(matches!(
            torn.open(0),
            Err(NfError::Cache { op: "read", .. })
        ));
        let mut out = Tensor::default();
        let first = torn.read_batch_into(0, 0..1, &mut out);
        assert!(matches!(first, Err(NfError::Cache { op: "read", .. })));
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
