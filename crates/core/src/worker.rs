//! The Worker (§3): block-wise adaptive local learning (Algorithm 2).
//!
//! For each block, the Worker:
//!
//! 1. reads the block's input activations a batch at a time, at the
//!    block's own batch size (the AB-LL prefetcher, §3.2) — from the raw
//!    training set for block 0, from the previous block's cache entry
//!    otherwise (§3.1, skipping all forward passes over trained blocks);
//! 2. trains every unit in the block with its local auxiliary loss for the
//!    configured epochs (Algorithm 2);
//! 3. runs one final forward pass, appending each batch's output to the
//!    [`crate::ActivationStore`] as it leaves the block (§3.3), then evicts
//!    the block's forward caches and the consumed upstream cache entry.
//!    Under a codec whose table covers the whole block (int8) that pass
//!    runs twice: a range pass that only widens the table's ranges, then
//!    the pass that appends.
//!
//! No whole block of activations is ever held in memory, here or in the
//! store: the step's `cur` and `out` carry one batch in and one batch out.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::cache::ActivationStore;
use crate::checkpoint::{Checkpoint, CheckpointSink};
use crate::codec::CodecKind;
use crate::config::NeuroFluxConfig;
use crate::partitioner::Block;
use crate::{NfError, Result};
use nf_models::BuiltModel;
use nf_nn::optim::Sgd;
use nf_nn::{Layer, LocalStep, Mode, Sequential};
use nf_tensor::{QuantTensor, Tensor};
use std::ops::Range;

/// Progress notifications emitted during a Worker run (and exit
/// measurement, via the Controller).
///
/// Observers receive these through the `progress` hook of [`RunHooks`] /
/// [`crate::controller::TrainHooks`]; returning `false` from the hook
/// cancels the run with [`NfError::Interrupted`]. This is how the `nf`
/// CLI renders per-block/per-epoch status and how tests induce a
/// controlled interruption for `--resume` coverage.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainEvent {
    /// A block was already complete in the resumed-from checkpoint and is
    /// being skipped.
    BlockSkipped {
        /// Block index (0-based).
        block: usize,
        /// Total number of blocks in the plan.
        total: usize,
    },
    /// Training of one block is starting.
    BlockStarted {
        /// Block index (0-based).
        block: usize,
        /// Total number of blocks in the plan.
        total: usize,
        /// Unit range `[start, end)` the block covers.
        units: (usize, usize),
        /// Batch size the block trains at.
        batch: usize,
    },
    /// One epoch of a block finished.
    EpochFinished {
        /// Block index (0-based).
        block: usize,
        /// Epoch index within the block (0-based).
        epoch: usize,
        /// Epochs each block trains for.
        epochs: usize,
        /// Mean local loss across the epoch's unit updates.
        mean_loss: f32,
    },
    /// A block finished training and its activations are cached.
    BlockFinished {
        /// Block index (0-based).
        block: usize,
        /// Total number of blocks in the plan.
        total: usize,
    },
    /// The deep head finished training on the final block's activations.
    HeadTrained,
    /// An exit candidate's validation accuracy was measured
    /// (Controller-emitted, after the Worker run).
    ExitMeasured {
        /// Exit unit index (0-based).
        exit: usize,
        /// Measured validation accuracy.
        val_accuracy: f32,
    },
}

/// Optional observers and restart state for one Worker run.
///
/// The default hooks reproduce the plain [`Worker::run`] behaviour: no
/// progress reporting, no checkpointing, start from block 0.
#[derive(Default)]
pub struct RunHooks<'h> {
    /// Called on every [`TrainEvent`]; returning `false` cancels the run.
    pub progress: Option<&'h mut dyn FnMut(&TrainEvent) -> bool>,
    /// Receives a model snapshot after every completed block (and after
    /// head training), enabling `--resume`.
    pub checkpoint: Option<&'h mut dyn CheckpointSink>,
    /// Resume state: restores parameters and telemetry, then skips the
    /// blocks the checkpoint already completed (their activations must be
    /// present in the store — see [`crate::DiskStore::recover_with_codec`]).
    pub resume_from: Option<&'h Checkpoint>,
    /// Called after every epoch of every block, once its
    /// [`TrainEvent::EpochFinished`] is out, with the model and the aux
    /// heads (how the local-learning baseline scores its last exit per
    /// epoch); an `Err` ends the run with that error, before the block is
    /// cached or checkpointed.
    pub after_epoch: Option<&'h mut EpochHook<'h>>,
}

/// The [`RunHooks::after_epoch`] callback.
pub type EpochHook<'h> = dyn FnMut(&mut BuiltModel, &mut [Sequential]) -> Result<()> + 'h;

/// Telemetry from one Worker run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerReport {
    /// Mean local loss per epoch, per block (outer index = block).
    pub block_losses: Vec<Vec<f32>>,
    /// Batch size each block actually trained with.
    pub block_batches: Vec<usize>,
    /// Total **encoded** bytes ever written to the activation cache (the
    /// §6.4 metric; shrinks under a quantizing codec).
    pub cache_bytes_written: u64,
    /// Logical (f32-equivalent) bytes of every cached tensor: element
    /// count × 4. `cache_logical_bytes / cache_bytes_written` is the
    /// codec's achieved compression ratio.
    pub cache_logical_bytes: u64,
    /// Codec the cache was written with (round-trips through checkpoints,
    /// so a resume under a different codec is a typed error).
    pub cache_codec: CodecKind,
    /// Peak encoded bytes simultaneously resident in the cache.
    pub cache_peak_bytes: u64,
    /// Bytes of block parameters (+ optimizer state) serialised to storage
    /// on eviction (§3.1).
    pub params_bytes_evicted: u64,
}

/// Block-wise trainer operating over an [`ActivationStore`].
///
/// `S: ?Sized` so a `Worker<'_, dyn ActivationStore>` works: the
/// Controller threads caller-supplied stores through as trait objects.
pub struct Worker<'s, S: ActivationStore + ?Sized> {
    /// Run configuration.
    pub config: NeuroFluxConfig,
    /// Storage backend for cached activations.
    pub store: &'s mut S,
}

impl<'s, S: ActivationStore + ?Sized> Worker<'s, S> {
    /// Creates a worker over `store`.
    pub fn new(config: NeuroFluxConfig, store: &'s mut S) -> Self {
        Worker { config, store }
    }

    fn optimizer(&self) -> Sgd {
        Sgd::new(self.config.lr).with_momentum(self.config.momentum)
    }

    /// One epoch of block training (Algorithm 2), returning its mean local
    /// loss.
    fn train_epoch(
        &mut self,
        model: &mut BuiltModel,
        aux_heads: &mut [Sequential],
        block: &Block,
        input: &Input<'_>,
        labels: &[usize],
        step: &mut LocalStep,
    ) -> Result<f32> {
        let sgd = self.optimizer();
        let n = input.samples(self.store)?;
        let batch = block.batch.max(1);
        let (mut sum, mut count) = (0.0f32, 0usize);
        for start in (0..n).step_by(batch) {
            let end = (start + batch).min(n);
            // AB-LL prefetch: read exactly this block's batch size out of
            // the input stream.
            input.fill(self.store, start..end, &mut step.cur)?;
            let batch_labels = labels_of(labels, start, end)?;
            let units = block_slice(&mut model.units, block)?;
            for (unit, head) in units.iter_mut().zip(block_slice(aux_heads, block)?) {
                // Lines 3–7 of Algorithm 2: unit forward, auxiliary
                // prediction, local loss, local update.
                sum += step.train_unit(&sgd, unit, head, batch_labels)?;
                count += 1;
            }
        }
        Ok(sum / count.max(1) as f32)
    }

    /// Runs trained block `b` forward over all of `input` (eval mode, in
    /// batches) and appends each batch's output to the store as block
    /// `b`'s cache entry as it leaves the block. Returns the encoded and
    /// the logical (f32) bytes written.
    ///
    /// A codec whose table covers the whole block
    /// ([`CodecKind::needs_range_pass`], int8) gets the block twice: a
    /// range pass, whose batches only widen the store's ranges, then the
    /// code pass, which appends them. The store cannot re-run the block
    /// itself, and holding the block's output in between is what the two
    /// passes avoid. An eval forward draws nothing and changes nothing, so
    /// both passes see the same bits.
    fn regenerate_activations(
        &mut self,
        model: &mut BuiltModel,
        (b, block): (usize, &Block),
        input: &Input<'_>,
        step: &mut LocalStep,
    ) -> Result<(u64, u64)> {
        let n = input.samples(self.store)?;
        let batch = block.batch.max(1);
        let mut shape = vec![0];
        if n == 0 {
            // No batch will shape it: an empty entry.
            self.store.begin_write(b, &shape)?;
        }
        // `true`: the range pass.
        let passes: &[bool] = match self.store.codec().needs_range_pass() {
            true => &[true, false],
            false => &[false],
        };
        let mut qbatch = QuantTensor::new();
        for (pass, &widening) in passes.iter().enumerate() {
            for start in (0..n).step_by(batch) {
                let end = (start + batch).min(n);
                self.forward_batch(model, block, input, start..end, step, &mut qbatch)?;
                let out = &step.cur;
                if pass == 0 && start == 0 {
                    shape = out.shape().to_vec();
                    if let Some(batch_dim) = shape.first_mut() {
                        *batch_dim = n;
                    }
                    self.store.begin_write(b, &shape)?;
                }
                match widening {
                    true => self.store.widen_batch(out)?,
                    false => self.store.append_batch(out)?,
                }
            }
        }
        let logical = shape.iter().product::<usize>() as u64 * 4;
        Ok((self.store.finish_write()?, logical))
    }

    /// Trained block `block`'s eval output for samples `range` of `input`,
    /// left in `step.cur`.
    ///
    /// With int8 compute on and an int8 cache behind `input`, the batch is
    /// read *quantized* and enters the block's first unit via
    /// [`Layer::forward_quant`], which runs the integer GEMM path through
    /// that unit's entry layer without a decode to f32; the rest of the
    /// block continues in f32 either way, and a store that cannot serve
    /// quantized reads falls back to the f32 path.
    fn forward_batch(
        &mut self,
        model: &mut BuiltModel,
        block: &Block,
        input: &Input<'_>,
        range: Range<usize>,
        step: &mut LocalStep,
        qbatch: &mut QuantTensor,
    ) -> Result<()> {
        let (cur, out) = (&mut step.cur, &mut step.out);
        let mut units = block_slice(&mut model.units, block)?.iter_mut();
        let quantized = match input {
            Input::Cached(prev) if self.config.int8_compute => {
                self.store.read_batch_quant(*prev, range.clone(), qbatch)?
            }
            _ => false,
        };
        if quantized {
            match units.next() {
                Some(first) => first.forward_quant_into(qbatch, Mode::Eval, cur)?,
                None => qbatch.dequantize_into(cur)?,
            }
        } else {
            input.fill(self.store, range, cur)?;
        }
        for unit in units {
            unit.forward_into(cur, Mode::Eval, out)?;
            std::mem::swap(cur, out);
        }
        Ok(())
    }

    /// Trains all blocks in order over the training set (the full §3 flow).
    ///
    /// On error (e.g. storage failure) already-trained blocks keep their
    /// updated parameters; the error is surfaced to the caller.
    pub fn run(
        &mut self,
        model: &mut BuiltModel,
        aux_heads: &mut [Sequential],
        blocks: &[Block],
        images: &Tensor,
        labels: &[usize],
    ) -> Result<WorkerReport> {
        self.run_with(
            model,
            aux_heads,
            blocks,
            images,
            labels,
            &mut RunHooks::default(),
        )
    }

    /// [`Worker::run`] with progress reporting, checkpointing, and resume.
    ///
    /// With `hooks.resume_from` set, parameters and telemetry are restored
    /// from the checkpoint and training restarts at its first incomplete
    /// block, reading that block's inputs from the activation store — so a
    /// resumed run converges to exactly the state an uninterrupted run
    /// reaches (block training draws no randomness; see
    /// [`crate::checkpoint`]).
    pub fn run_with(
        &mut self,
        model: &mut BuiltModel,
        aux_heads: &mut [Sequential],
        blocks: &[Block],
        images: &Tensor,
        labels: &[usize],
        hooks: &mut RunHooks<'_>,
    ) -> Result<WorkerReport> {
        // Run every layer on the configured kernel backend and the run's
        // two workspace arenas; no layers are built after this point in a
        // run, so this covers everything.
        model.prepare_local_learning(aux_heads, self.config.kernel_backend);
        // The store must encode with the configured codec: the cache
        // telemetry below (and the §6.4 accounting it feeds) is defined in
        // that codec's encoded bytes.
        if self.store.codec() != self.config.cache_codec {
            return Err(NfError::CodecMismatch {
                expected: self.config.cache_codec.name(),
                found: self.store.codec().name(),
                context: "worker activation store".into(),
            });
        }
        let (mut report, start_block, resume_peak, resume_head_trained) = match hooks.resume_from {
            Some(ck) => {
                // The codec choice round-trips through checkpoints; blocks
                // already cached were encoded with it, so resuming under a
                // different codec would mix encodings mid-run.
                if ck.report.cache_codec != self.config.cache_codec {
                    return Err(NfError::CodecMismatch {
                        expected: self.config.cache_codec.name(),
                        found: ck.report.cache_codec.name(),
                        context: "checkpoint resume".into(),
                    });
                }
                ck.restore(model, aux_heads)?;
                (
                    ck.report.clone(),
                    ck.completed_blocks,
                    ck.report.cache_peak_bytes,
                    ck.head_trained,
                )
            }
            None => (
                WorkerReport {
                    cache_codec: self.config.cache_codec,
                    ..WorkerReport::default()
                },
                0,
                0,
                false,
            ),
        };
        // Resume housekeeping: only block start_block-1's activations are
        // needed; older entries can survive on disk when a kill landed in
        // the checkpoint-then-delete window below. Drop them.
        for stale in 0..start_block.saturating_sub(1) {
            self.store.delete(stale)?;
        }
        let mut step = LocalStep::default();
        for (b, block) in blocks.iter().enumerate() {
            if b < start_block {
                // Completed before the checkpoint: parameters restored, the
                // last such block's activations already cached. Durable
                // progress is the checkpointed count, not this loop index.
                emit_event(
                    &mut hooks.progress,
                    TrainEvent::BlockSkipped {
                        block: b,
                        total: blocks.len(),
                    },
                    start_block,
                )?;
                continue;
            }
            emit_event(
                &mut hooks.progress,
                TrainEvent::BlockStarted {
                    block: b,
                    total: blocks.len(),
                    units: (block.units.start, block.units.end),
                    batch: block.batch,
                },
                b,
            )?;
            // §3.1: this block's inputs — the dataset for block 0, the
            // previous block's cache entry otherwise, read a batch at a
            // time. Each pass opens the entry first, which validates it
            // before anything trains on it.
            let input = match b.checked_sub(1) {
                None => Input::Data(images),
                Some(prev) => Input::Cached(prev),
            };
            let epochs = self.config.epochs_per_block;
            let mut losses = Vec::with_capacity(epochs);
            for epoch in 0..epochs {
                let mean_loss =
                    self.train_epoch(model, aux_heads, block, &input, labels, &mut step)?;
                losses.push(mean_loss);
                emit_event(
                    &mut hooks.progress,
                    TrainEvent::EpochFinished {
                        block: b,
                        epoch,
                        epochs,
                        mean_loss,
                    },
                    b,
                )?;
                if let Some(hook) = hooks.after_epoch.as_mut() {
                    hook(model, aux_heads)?;
                }
            }
            report.block_losses.push(losses);
            report.block_batches.push(block.batch);
            // §3.3: persist the trained block's outputs, then evict. The
            // write reports the *encoded* byte count — the §6.4 metric.
            // With int8 compute enabled, this regeneration sweep (the
            // run's dominant forward-only pass) consumes the previous
            // block's cache *in quantized form*, skipping the f32 decode.
            let (written, logical) =
                self.regenerate_activations(model, (b, block), &input, &mut step)?;
            report.cache_bytes_written += written;
            report.cache_logical_bytes += logical;
            let units = block_slice(&mut model.units, block)?;
            for (unit, head) in units.iter_mut().zip(block_slice(aux_heads, block)?) {
                unit.clear_cache();
                head.clear_cache();
            }
            // §3.1: the trained block itself moves to storage. Serialise
            // unit + head parameters (with optimizer state), then restore —
            // proving the eviction path is lossless and accounting its
            // bytes. A device deployment would hold only the blob between
            // blocks.
            if self.config.evict_params {
                let units = block_slice(&mut model.units, block)?;
                for (unit, head) in units.iter_mut().zip(block_slice(aux_heads, block)?) {
                    for layer in [unit, head] {
                        let blob = crate::params_io::serialize_params(layer);
                        report.params_bytes_evicted += blob.len() as u64;
                        crate::params_io::deserialize_params(layer, &blob)?;
                    }
                }
            }
            report.cache_peak_bytes = resume_peak.max(self.store.peak_bytes());
            if let Some(sink) = hooks.checkpoint.as_mut() {
                sink.save_state(b + 1, false, model, aux_heads, &report)?;
            }
            // Evict the consumed upstream entry only *after* the checkpoint
            // covering this block is durable: a kill between delete and
            // checkpoint would otherwise leave the previous checkpoint
            // pointing at activations that no longer exist, making the run
            // unresumable. (A kill after the checkpoint merely leaves a
            // stale entry, cleaned up by the resume housekeeping above.)
            if b > 0 {
                self.store.delete(b - 1)?;
            }
            emit_event(
                &mut hooks.progress,
                TrainEvent::BlockFinished {
                    block: b,
                    total: blocks.len(),
                },
                b + 1,
            )?;
        }
        // Train the original head on the final block's cached activations —
        // the model's deepest exit. Skipped when the resumed-from
        // checkpoint already covers it (head parameters were restored).
        if let Some((last, last_block)) = blocks.iter().enumerate().next_back() {
            if !resume_head_trained {
                let input = Input::Cached(last);
                let n = input.samples(self.store)?;
                let sgd = self.optimizer();
                let batch = last_block.batch.max(1);
                for _ in 0..self.config.epochs_per_block {
                    for start in (0..n).step_by(batch) {
                        let end = (start + batch).min(n);
                        input.fill(self.store, start..end, &mut step.cur)?;
                        let batch_labels = labels_of(labels, start, end)?;
                        step.train_head(&sgd, &mut model.head, batch_labels)?;
                    }
                }
                if let Some(sink) = hooks.checkpoint.as_mut() {
                    sink.save_state(blocks.len(), true, model, aux_heads, &report)?;
                }
                emit_event(&mut hooks.progress, TrainEvent::HeadTrained, blocks.len())?;
            }
            self.store.delete(last)?;
        }
        report.cache_peak_bytes = resume_peak.max(self.store.peak_bytes());
        Ok(report)
    }
}

/// Where a block's input batches come from: the dataset for block 0, a
/// cache entry otherwise (the previous block's, or the last block's for
/// the deep head).
enum Input<'a> {
    Data(&'a Tensor),
    Cached(usize),
}

impl Input<'_> {
    /// The samples it holds. Opening a cache entry validates it.
    fn samples<S: ActivationStore + ?Sized>(&self, store: &mut S) -> Result<usize> {
        match self {
            Input::Data(t) => Ok(batch_count(t)),
            Input::Cached(block) => store.open(*block),
        }
    }

    /// Loads samples `range` into `out` (grow-only).
    fn fill<S: ActivationStore + ?Sized>(
        &self,
        store: &mut S,
        range: Range<usize>,
        out: &mut Tensor,
    ) -> Result<()> {
        match self {
            Input::Data(t) => Ok(t.slice_batch_into(range.start, range.end, out)?),
            Input::Cached(block) => store.read_batch_into(*block, range, out),
        }
    }
}

/// Samples along `t`'s leading (batch) axis; a scalar has none.
fn batch_count(t: &Tensor) -> usize {
    t.shape().first().copied().unwrap_or(0)
}

/// The labels of samples `start..end`; fewer labels than samples is a
/// typed error, not a panic.
fn labels_of(labels: &[usize], start: usize, end: usize) -> Result<&[usize]> {
    labels.get(start..end).ok_or_else(|| {
        NfError::BadConfig(format!(
            "{} labels for samples {start}..{end}",
            labels.len()
        ))
    })
}

/// `block`'s entries of a per-unit vector (the model's units or their
/// aux heads); a block past its end is a typed error, not a panic.
fn block_slice<'a, T>(per_unit: &'a mut [T], block: &Block) -> Result<&'a mut [T]> {
    let len = per_unit.len();
    per_unit.get_mut(block.units.clone()).ok_or_else(|| {
        NfError::BadConfig(format!(
            "block units {}..{} outside a {len}-unit model",
            block.units.start, block.units.end
        ))
    })
}

/// Delivers `event` to the progress hook (if any); translates a `false`
/// return into [`NfError::Interrupted`] with `completed` blocks done.
fn emit_event(
    progress: &mut Option<&mut dyn FnMut(&TrainEvent) -> bool>,
    event: TrainEvent,
    completed: usize,
) -> Result<()> {
    if let Some(p) = progress.as_mut() {
        if !p(&event) {
            return Err(NfError::Interrupted {
                completed_blocks: completed,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MemoryStore;
    use crate::NfError;
    use nf_data::SyntheticSpec;
    use nf_models::{build_aux_heads, AuxPolicy, ModelSpec};
    use rand::SeedableRng;

    fn setup(
        seed: u64,
        channels: &[usize],
    ) -> (BuiltModel, Vec<Sequential>, nf_data::SplitDataset) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spec = ModelSpec::tiny("w", 8, channels, 3);
        let model = spec.build(&mut rng).unwrap();
        let heads = build_aux_heads(&mut rng, &spec, AuxPolicy::Fixed(4)).unwrap();
        let ds = SyntheticSpec::quick(3, 8, 48).generate();
        (model, heads, ds)
    }

    fn two_blocks() -> Vec<Block> {
        vec![
            Block {
                units: 0..1,
                batch: 8,
            },
            Block {
                units: 1..2,
                batch: 16,
            },
        ]
    }

    #[test]
    fn regeneration_streams_into_the_store_and_is_empty_for_no_samples() {
        let (mut model, _, ds) = setup(0, &[6, 8]);
        let mut store = MemoryStore::new();
        let mut worker = Worker::new(NeuroFluxConfig::new(1 << 30, 16), &mut store);
        let (block, mut step) = (&two_blocks()[0], LocalStep::default());
        let mut regenerate = |inputs: &Tensor| {
            let input = Input::Data(inputs);
            let bytes = worker.regenerate_activations(&mut model, (0, block), &input, &mut step);
            (bytes.unwrap(), worker.store.read(0).unwrap())
        };
        // 48 samples in batches of 8, every element written.
        let (bytes, acts) = regenerate(ds.train.images());
        assert_eq!(acts.shape(), &[48, 6, 8, 8]);
        assert_eq!(bytes, (acts.numel() as u64 * 4, acts.numel() as u64 * 4));
        assert!(acts.data().iter().all(|v| v.is_finite()));
        // A smaller input rewrites the entry with its prefix.
        let prefix = regenerate(&ds.train.images().slice_batch(0, 11).unwrap()).1;
        assert_eq!(prefix, acts.slice_batch(0, 11).unwrap());
        // No samples: a well-formed empty entry, not the previous one.
        let (bytes, empty) = regenerate(&Tensor::zeros(&[0, 3, 8, 8]));
        assert_eq!((empty.shape(), bytes), (&[0][..], (0, 0)));
    }

    #[test]
    fn worker_trains_all_blocks_and_reduces_loss() {
        let (mut model, mut heads, ds) = setup(0, &[6, 8]);
        let mut store = MemoryStore::new();
        let config = NeuroFluxConfig::new(1 << 30, 16).with_epochs(4);
        let mut worker = Worker::new(config, &mut store);
        let report = worker
            .run(
                &mut model,
                &mut heads,
                &two_blocks(),
                ds.train.images(),
                ds.train.labels(),
            )
            .unwrap();
        assert_eq!(report.block_losses.len(), 2);
        for (b, losses) in report.block_losses.iter().enumerate() {
            assert!(
                losses.last().unwrap() < losses.first().unwrap(),
                "block {b} losses {losses:?}"
            );
        }
        assert_eq!(report.block_batches, vec![8, 16]);
        assert!(report.cache_bytes_written > 0);
    }

    #[test]
    fn cached_path_matches_direct_path_exactly() {
        // Training block 1 from cached activations must produce *identical*
        // parameters to training it from a live forward pass through the
        // trained block 0 — caching is an optimisation, not an
        // approximation.
        let (mut model_a, mut heads_a, ds) = setup(7, &[6, 8]);
        let mut store = MemoryStore::new();
        let config = NeuroFluxConfig::new(1 << 30, 8).with_epochs(2);
        let blocks = vec![
            Block {
                units: 0..1,
                batch: 8,
            },
            Block {
                units: 1..2,
                batch: 8,
            },
        ];
        Worker::new(config, &mut store)
            .run(
                &mut model_a,
                &mut heads_a,
                &blocks,
                ds.train.images(),
                ds.train.labels(),
            )
            .unwrap();

        // Reference: same seeds, but block 1's inputs computed by re-running
        // block 0 forward for every batch (no cache).
        let (mut model_b, mut heads_b, _) = setup(7, &[6, 8]);
        let mut store_b = MemoryStore::new();
        let mut worker = Worker::new(config, &mut store_b);
        // Train block 0 identically, stopping once it is done.
        let mut stop = |e: &TrainEvent| !matches!(e, TrainEvent::BlockFinished { .. });
        let hooks = &mut RunHooks {
            progress: Some(&mut stop),
            ..RunHooks::default()
        };
        let (images, labels) = (ds.train.images(), ds.train.labels());
        let blocks_b = &blocks[..1];
        let err = worker.run_with(&mut model_b, &mut heads_b, blocks_b, images, labels, hooks);
        assert!(matches!(err, Err(NfError::Interrupted { .. })));
        // Compute block-1 inputs by live forward.
        let mut inputs = Vec::new();
        let n = ds.train.len();
        let mut start = 0;
        while start < n {
            let end = (start + 8).min(n);
            let xb = ds.train.images().slice_batch(start, end).unwrap();
            inputs.push(model_b.units[0].forward(&xb, Mode::Eval).unwrap());
            start = end;
        }
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let live = Tensor::cat_batch(&refs).unwrap();
        // Block 1 alone, as a one-block plan over the live inputs.
        worker
            .run(&mut model_b, &mut heads_b, &blocks[1..], &live, labels)
            .unwrap();

        let mut params_a = Vec::new();
        model_a.units[1].visit_params(&mut |p| params_a.push(p.value.clone()));
        let mut params_b = Vec::new();
        model_b.units[1].visit_params(&mut |p| params_b.push(p.value.clone()));
        assert_eq!(params_a, params_b);
    }

    #[test]
    fn int8_compute_run_completes_with_finite_losses() {
        let (mut model, mut heads, ds) = setup(5, &[6, 8]);
        let mut store = MemoryStore::with_codec(CodecKind::Int8Affine);
        let config = NeuroFluxConfig::new(1 << 30, 8)
            .with_epochs(2)
            .with_cache_codec(CodecKind::Int8Affine)
            .with_int8_compute(true);
        let report = Worker::new(config, &mut store)
            .run(
                &mut model,
                &mut heads,
                &two_blocks(),
                ds.train.images(),
                ds.train.labels(),
            )
            .unwrap();
        assert_eq!(report.block_losses.len(), 2);
        assert!(report.block_losses.iter().flatten().all(|l| l.is_finite()));
        assert!(report.cache_bytes_written > 0);
        // The flag without the int8 codec is inert: the store declines the
        // quantized read and the run falls back to the f32 path, matching
        // a plain run bit-for-bit.
        let (mut model_a, mut heads_a, ds2) = setup(6, &[6, 8]);
        let mut store_a = MemoryStore::new();
        let cfg_flagged = NeuroFluxConfig::new(1 << 30, 8)
            .with_epochs(1)
            .with_int8_compute(true);
        let report_a = Worker::new(cfg_flagged, &mut store_a)
            .run(
                &mut model_a,
                &mut heads_a,
                &two_blocks(),
                ds2.train.images(),
                ds2.train.labels(),
            )
            .unwrap();
        let (mut model_b, mut heads_b, _) = setup(6, &[6, 8]);
        let mut store_b = MemoryStore::new();
        let cfg_plain = NeuroFluxConfig::new(1 << 30, 8).with_epochs(1);
        let report_b = Worker::new(cfg_plain, &mut store_b)
            .run(
                &mut model_b,
                &mut heads_b,
                &two_blocks(),
                ds2.train.images(),
                ds2.train.labels(),
            )
            .unwrap();
        assert_eq!(report_a.block_losses, report_b.block_losses);
        let x = Tensor::ones(&[1, 3, 8, 8]);
        assert_eq!(model_a.infer(&x).unwrap(), model_b.infer(&x).unwrap());
    }

    #[test]
    fn storage_write_failure_surfaces_without_corrupting_block() {
        // Under int8 the range pass writes nothing, so the injected fault
        // hits the code pass.
        for codec in [CodecKind::F32Raw, CodecKind::Int8Affine] {
            let (mut model, mut heads, ds) = setup(1, &[6, 8]);
            let mut store = MemoryStore::with_codec(codec);
            store.inner_mut().fail_writes = true;
            let config = NeuroFluxConfig::new(1 << 30, 8)
                .with_epochs(1)
                .with_cache_codec(codec);
            let mut worker = Worker::new(config, &mut store);
            let err = worker
                .run(
                    &mut model,
                    &mut heads,
                    &two_blocks(),
                    ds.train.images(),
                    ds.train.labels(),
                )
                .unwrap_err();
            assert!(matches!(err, NfError::Cache { op: "write", .. }), "{codec}");
            // Block 0 was trained before the failing write: its parameters
            // must have moved from initialisation.
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            let fresh = ModelSpec::tiny("w", 8, &[6, 8], 3).build(&mut rng).unwrap();
            let mut fresh = fresh;
            let mut init_params = Vec::new();
            fresh.units[0].visit_params(&mut |p| init_params.push(p.value.clone()));
            let mut trained_params = Vec::new();
            model.units[0].visit_params(&mut |p| trained_params.push(p.value.clone()));
            assert_ne!(init_params, trained_params, "{codec}");
        }
    }

    #[test]
    fn storage_read_failure_surfaces() {
        let (mut model, mut heads, ds) = setup(2, &[6, 8]);
        let mut store = MemoryStore::with_codec(CodecKind::F32Raw);
        let config = NeuroFluxConfig::new(1 << 30, 8).with_epochs(1);
        // Fail reads only: block 0 trains and writes, block 1's read fails.
        store.inner_mut().fail_reads = true;
        let mut worker = Worker::new(config, &mut store);
        let err = worker
            .run(
                &mut model,
                &mut heads,
                &two_blocks(),
                ds.train.images(),
                ds.train.labels(),
            )
            .unwrap_err();
        assert!(matches!(err, NfError::Cache { op: "read", .. }));
    }

    #[test]
    fn interrupted_run_resumes_to_identical_state() {
        use crate::checkpoint::{Checkpoint, FileCheckpoint};
        use crate::DiskStore;

        let dir = std::env::temp_dir().join(format!("nf_resume_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ck_path = dir.join("checkpoint.nfck");
        let config = NeuroFluxConfig::new(1 << 30, 8).with_epochs(2);
        let blocks = two_blocks();

        // Reference: uninterrupted run.
        let (mut model_ref, mut heads_ref, ds) = setup(11, &[6, 8]);
        let mut store_ref = MemoryStore::new();
        let report_ref = Worker::new(config, &mut store_ref)
            .run(
                &mut model_ref,
                &mut heads_ref,
                &blocks,
                ds.train.images(),
                ds.train.labels(),
            )
            .unwrap();

        // Interrupted run: cancel right after block 0 completes (its
        // checkpoint and cached activations are already durable).
        let (mut model, mut heads, _) = setup(11, &[6, 8]);
        let mut store = DiskStore::with_codec(dir.join("cache"), CodecKind::F32Raw).unwrap();
        let mut sink = FileCheckpoint::new(&ck_path);
        let mut cancel = |e: &TrainEvent| !matches!(e, TrainEvent::BlockFinished { block: 0, .. });
        let err = Worker::new(config, &mut store)
            .run_with(
                &mut model,
                &mut heads,
                &blocks,
                ds.train.images(),
                ds.train.labels(),
                &mut RunHooks {
                    progress: Some(&mut cancel),
                    checkpoint: Some(&mut sink),
                    ..RunHooks::default()
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            NfError::Interrupted {
                completed_blocks: 1
            }
        ));

        // Resume in a "fresh process": rebuild from the same seed, restore
        // the checkpoint, recover the on-disk cache.
        let (mut model2, mut heads2, _) = setup(11, &[6, 8]);
        let ck = Checkpoint::load(&ck_path).unwrap();
        assert_eq!(ck.completed_blocks, 1);
        let mut store2 =
            DiskStore::recover_with_codec(dir.join("cache"), CodecKind::F32Raw).unwrap();
        let mut skipped = Vec::new();
        let mut observe = |e: &TrainEvent| {
            if let TrainEvent::BlockSkipped { block, .. } = e {
                skipped.push(*block);
            }
            true
        };
        let report = Worker::new(config, &mut store2)
            .run_with(
                &mut model2,
                &mut heads2,
                &blocks,
                ds.train.images(),
                ds.train.labels(),
                &mut RunHooks {
                    progress: Some(&mut observe),
                    resume_from: Some(&ck),
                    ..RunHooks::default()
                },
            )
            .unwrap();
        assert_eq!(skipped, vec![0]);

        // The resumed run reaches exactly the uninterrupted final state.
        assert_eq!(report.block_losses, report_ref.block_losses);
        assert_eq!(report.block_batches, report_ref.block_batches);
        assert_eq!(report.cache_bytes_written, report_ref.cache_bytes_written);
        let params = |m: &mut BuiltModel| {
            let mut out = Vec::new();
            for u in &mut m.units {
                u.visit_params(&mut |p| out.push(p.value.clone()));
            }
            m.head.visit_params(&mut |p| out.push(p.value.clone()));
            out
        };
        assert_eq!(params(&mut model2), params(&mut model_ref));
        let x = Tensor::ones(&[1, 3, 8, 8]);
        assert_eq!(
            model2.infer(&x).unwrap(),
            model_ref.infer(&x).unwrap(),
            "resumed inference must match uninterrupted"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_hook_runs_after_each_epoch_and_its_error_ends_the_run() {
        use std::cell::RefCell;
        /// Logs the completed-block count of every checkpoint.
        struct Saved<'l>(&'l RefCell<Vec<String>>);
        impl CheckpointSink for Saved<'_> {
            fn save_state(
                &mut self,
                completed_blocks: usize,
                _: bool,
                _: &mut BuiltModel,
                _: &mut [Sequential],
                _: &WorkerReport,
            ) -> Result<()> {
                self.0
                    .borrow_mut()
                    .push(format!("saved {completed_blocks}"));
                Ok(())
            }
        }

        let (mut model, mut heads, ds) = setup(4, &[6, 8]);
        let config = NeuroFluxConfig::new(1 << 30, 8).with_epochs(3);
        // Every epoch event, hook call and checkpoint, in order.
        let log = RefCell::new(Vec::new());
        let mut progress = |e: &TrainEvent| {
            if let TrainEvent::EpochFinished { block, epoch, .. } = e {
                log.borrow_mut().push(format!("epoch {block}.{epoch}"));
            }
            true
        };
        // The hook fails after the last block's last epoch.
        let mut hook = |_: &mut BuiltModel, _: &mut [Sequential]| {
            let mut log = log.borrow_mut();
            let last_epoch = log.last().is_some_and(|l| l == "epoch 1.2");
            log.push("hook".into());
            match last_epoch {
                true => Err(NfError::BadConfig("hook".into())),
                false => Ok(()),
            }
        };
        let err = Worker::new(config, &mut MemoryStore::new())
            .run_with(
                &mut model,
                &mut heads,
                &two_blocks(),
                ds.train.images(),
                ds.train.labels(),
                &mut RunHooks {
                    progress: Some(&mut progress),
                    checkpoint: Some(&mut Saved(&log)),
                    after_epoch: Some(&mut hook),
                    ..RunHooks::default()
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, NfError::BadConfig(ref m) if m == "hook"),
            "{err:?}"
        );
        // Block 1 never reaches its checkpoint.
        let want = "epoch 0.0, hook, epoch 0.1, hook, epoch 0.2, hook, saved 1, \
                    epoch 1.0, hook, epoch 1.1, hook, epoch 1.2, hook";
        assert_eq!(log.into_inner().join(", "), want);
    }

    #[test]
    fn consumed_cache_entries_are_deleted() {
        let (mut model, mut heads, ds) = setup(3, &[4, 4, 4]);
        let mut store = MemoryStore::new();
        let config = NeuroFluxConfig::new(1 << 30, 8).with_epochs(1);
        let blocks = vec![
            Block {
                units: 0..1,
                batch: 8,
            },
            Block {
                units: 1..3,
                batch: 8,
            },
        ];
        Worker::new(config, &mut store)
            .run(
                &mut model,
                &mut heads,
                &blocks,
                ds.train.images(),
                ds.train.labels(),
            )
            .unwrap();
        // All consumed: block 0 deleted when block 1 trained; block 1 (the
        // last) deleted after the head trained on it.
        assert_eq!(store.bytes_stored(), 0);
        assert!(store.peak_bytes() > 0);
    }
}
