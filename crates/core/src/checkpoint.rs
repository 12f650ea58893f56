//! Durable training checkpoints built on the §3.1 parameter codec.
//!
//! NeuroFlux already serialises every trained block to storage when it is
//! evicted ([`crate::params_io`]); this module turns that codec into a
//! *run-level* artifact: a single file capturing the whole model (units +
//! deep head + auxiliary heads, optimizer state included), how many blocks
//! have completed, and the Worker telemetry accumulated so far. Together
//! with the on-disk activation cache ([`crate::DiskStore`]) this is enough
//! to restart an interrupted block-wise run from the last completed block
//! and converge to bit-identical final parameters — block training itself
//! draws no randomness, so the only state that matters is what this file
//! holds.
//!
//! Format (all integers little-endian): magic `NFCK`, version `u32`,
//! completed-block count, a `head_trained` flag, the serialised
//! [`WorkerReport`] (which includes the activation-cache codec the run's
//! blobs were encoded with, so resume round-trips the codec choice), then
//! length-prefixed [`crate::params_io`] blobs for each unit, the head, and
//! each auxiliary head. A file is exactly these fields: bytes past the
//! last one are an error. Files are written to a temporary sibling and
//! atomically renamed, so a crash mid-write never corrupts the previous
//! checkpoint.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::codec::CodecKind;
use crate::params_io::{load_snapshot, snapshot_params};
use crate::reader::Reader;
use crate::worker::WorkerReport;
use crate::{NfError, Result};
use nf_models::BuiltModel;
use nf_nn::Sequential;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"NFCK";
// v2 added the cache-codec id and logical-byte counter to the serialised
// WorkerReport (PR 5's pluggable activation-cache codecs).
const VERSION: u32 = 2;

/// A point-in-time snapshot of a NeuroFlux training run.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Number of blocks fully trained (and whose activations are cached).
    pub completed_blocks: usize,
    /// Whether the deep head has finished training on the final block's
    /// activations (the step after the last block).
    pub head_trained: bool,
    /// Worker telemetry accumulated up to this snapshot.
    pub report: WorkerReport,
    /// [`snapshot_params`] of the model and its aux heads.
    layers: Vec<Vec<u8>>,
    /// How many of `layers` are units (the head follows them).
    units: usize,
}

/// Receives model snapshots at block boundaries during a Worker run.
///
/// The Worker calls [`CheckpointSink::save_state`] after every completed
/// block (and once more after the deep head trains); implementations decide
/// where the snapshot goes. [`FileCheckpoint`] writes it to disk, which is
/// what gives `nf train --resume` its restart point.
pub trait CheckpointSink {
    /// Persists a snapshot of the run.
    ///
    /// `model` and `aux_heads` are borrowed mutably only because parameter
    /// traversal ([`nf_nn::Layer::visit_params`]) requires it; sinks must
    /// not mutate the parameters.
    fn save_state(
        &mut self,
        completed_blocks: usize,
        head_trained: bool,
        model: &mut BuiltModel,
        aux_heads: &mut [Sequential],
        report: &WorkerReport,
    ) -> Result<()>;
}

impl Checkpoint {
    /// Captures the full state of `model` + `aux_heads` (values, optimizer
    /// state, step counts) along with run progress.
    pub fn capture(
        completed_blocks: usize,
        head_trained: bool,
        model: &mut BuiltModel,
        aux_heads: &mut [Sequential],
        report: &WorkerReport,
    ) -> Self {
        Checkpoint {
            completed_blocks,
            head_trained,
            report: report.clone(),
            units: model.units.len(),
            layers: snapshot_params(model, aux_heads),
        }
    }

    /// Restores the captured parameters into `model` + `aux_heads`, which
    /// must have the same architecture the checkpoint was captured from.
    pub fn restore(&self, model: &mut BuiltModel, aux_heads: &mut [Sequential]) -> Result<()> {
        let aux = self.layers.len().saturating_sub(self.units + 1);
        if model.units.len() != self.units || aux_heads.len() != aux {
            return Err(NfError::Checkpoint {
                op: "restore",
                cause: format!(
                    "architecture mismatch: checkpoint has {} units / {aux} aux heads, model has {} / {}",
                    self.units,
                    model.units.len(),
                    aux_heads.len()
                ),
            });
        }
        load_snapshot(model, aux_heads, &self.layers)
    }

    /// Serialises the checkpoint to its on-disk byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.completed_blocks as u64).to_le_bytes());
        out.push(self.head_trained as u8);
        // Worker report.
        out.extend_from_slice(&(self.report.block_losses.len() as u64).to_le_bytes());
        for losses in &self.report.block_losses {
            out.extend_from_slice(&(losses.len() as u64).to_le_bytes());
            for l in losses {
                out.extend_from_slice(&l.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.report.block_batches.len() as u64).to_le_bytes());
        for &b in &self.report.block_batches {
            out.extend_from_slice(&(b as u64).to_le_bytes());
        }
        out.extend_from_slice(&self.report.cache_bytes_written.to_le_bytes());
        out.extend_from_slice(&self.report.cache_logical_bytes.to_le_bytes());
        out.extend_from_slice(&self.report.cache_codec.id().to_le_bytes());
        out.extend_from_slice(&self.report.cache_peak_bytes.to_le_bytes());
        out.extend_from_slice(&self.report.params_bytes_evicted.to_le_bytes());
        // Parameter blobs: the counted units, the head, the counted aux
        // heads; each blob length-prefixed.
        out.extend_from_slice(&(self.units as u64).to_le_bytes());
        for (i, blob) in self.layers.iter().enumerate() {
            out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            out.extend_from_slice(blob);
            if i == self.units {
                let aux = self.layers.len() - i - 1;
                out.extend_from_slice(&(aux as u64).to_le_bytes());
            }
        }
        out
    }

    /// Parses the byte format produced by [`Checkpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::parse(&mut Reader::new(bytes, "checkpoint"))
            .map_err(|cause| NfError::Checkpoint { op: "read", cause })
    }

    fn parse(r: &mut Reader<'_>) -> std::result::Result<Self, String> {
        if r.array()? != *MAGIC {
            return Err("bad magic (not a NeuroFlux checkpoint)".to_string());
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let completed_blocks = r.u64()? as usize;
        let head_trained = r.u8()? != 0;
        let mut report = WorkerReport::default();
        // Every count is bounded by the bytes its items need (a loss list
        // or a blob is at least its own 8-byte length).
        for _ in 0..r.count(8)? {
            let mut losses = vec![0.0; r.count(4)?];
            r.f32s_into(&mut losses)?;
            report.block_losses.push(losses);
        }
        for _ in 0..r.count(8)? {
            report.block_batches.push(r.u64()? as usize);
        }
        report.cache_bytes_written = r.u64()?;
        report.cache_logical_bytes = r.u64()?;
        let codec_id = r.u32()?;
        report.cache_codec = CodecKind::from_id(codec_id)
            .ok_or_else(|| format!("unknown cache codec id {codec_id}"))?;
        report.cache_peak_bytes = r.u64()?;
        report.params_bytes_evicted = r.u64()?;
        let blob = |r: &mut Reader<'_>| -> std::result::Result<Vec<u8>, String> {
            let len = r.count(1)?;
            Ok(r.take(len)?.to_vec())
        };
        let blobs = |r: &mut Reader<'_>| -> std::result::Result<Vec<Vec<u8>>, String> {
            (0..r.count(8)?).map(|_| blob(r)).collect()
        };
        let mut layers = blobs(r)?;
        let units = layers.len();
        layers.push(blob(r)?);
        layers.extend(blobs(r)?);
        let checkpoint = Checkpoint {
            completed_blocks,
            head_trained,
            report,
            layers,
            units,
        };
        r.finish()?;
        Ok(checkpoint)
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename).
    pub fn save(&self, path: &Path) -> Result<()> {
        let werr = |cause: String| NfError::Checkpoint { op: "write", cause };
        let tmp = path.with_extension("nfck.tmp");
        std::fs::write(&tmp, self.to_bytes())
            .map_err(|e| werr(format!("{}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path).map_err(|e| werr(format!("{}: {e}", path.display())))
    }

    /// Loads a checkpoint previously written by [`Checkpoint::save`].
    pub fn load(path: &Path) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| NfError::Checkpoint {
            op: "read",
            cause: format!("{}: {e}", path.display()),
        })?;
        Self::from_bytes(&bytes)
    }
}

/// A [`CheckpointSink`] that writes every snapshot to one file on disk
/// (atomically, so the previous snapshot survives a crash mid-write).
#[derive(Debug, Clone)]
pub struct FileCheckpoint {
    path: PathBuf,
}

impl FileCheckpoint {
    /// Creates a sink writing to `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileCheckpoint { path: path.into() }
    }

    /// The file snapshots are written to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl CheckpointSink for FileCheckpoint {
    fn save_state(
        &mut self,
        completed_blocks: usize,
        head_trained: bool,
        model: &mut BuiltModel,
        aux_heads: &mut [Sequential],
        report: &WorkerReport,
    ) -> Result<()> {
        Checkpoint::capture(completed_blocks, head_trained, model, aux_heads, report)
            .save(&self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_data::SyntheticSpec;
    use nf_models::{assign_aux, build_aux_head, AuxPolicy, ModelSpec};
    use nf_nn::Layer;
    use nf_tensor::Tensor;
    use rand::SeedableRng;

    fn trained_setup(seed: u64) -> (BuiltModel, Vec<Sequential>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spec = ModelSpec::tiny("ck", 8, &[4, 8], 3);
        let mut model = spec.build(&mut rng).unwrap();
        let aux = assign_aux(&spec, AuxPolicy::Fixed(4));
        let mut heads: Vec<Sequential> = aux
            .iter()
            .map(|a| build_aux_head(&mut rng, a).unwrap())
            .collect();
        // Train a little so optimizer state exists.
        let ds = SyntheticSpec::quick(3, 8, 24).generate();
        let config = crate::NeuroFluxConfig::new(1 << 30, 8).with_epochs(1);
        let mut store = crate::MemoryStore::new();
        let planning = config.with_aux_policy(AuxPolicy::Fixed(4));
        let blocks = crate::partitioner::plan(&spec, &planning).unwrap();
        crate::worker::Worker::new(config, &mut store)
            .run(
                &mut model,
                &mut heads,
                &blocks,
                ds.train.images(),
                ds.train.labels(),
            )
            .unwrap();
        (model, heads)
    }

    #[test]
    fn byte_format_round_trips() {
        let (mut model, mut heads) = trained_setup(0);
        let report = WorkerReport {
            block_losses: vec![vec![1.5, 0.5], vec![0.25]],
            block_batches: vec![8, 16],
            cache_bytes_written: 1234,
            cache_logical_bytes: 2468,
            cache_codec: CodecKind::Int8Affine,
            cache_peak_bytes: 999,
            params_bytes_evicted: 42,
        };
        let ck = Checkpoint::capture(2, true, &mut model, &mut heads, &report);
        let back = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(ck, back);
        assert_eq!(back.completed_blocks, 2);
        assert!(back.head_trained);
        assert_eq!(back.report, report);
    }

    #[test]
    fn restore_reproduces_identical_inference() {
        let (mut model, mut heads) = trained_setup(1);
        let report = WorkerReport::default();
        let ck = Checkpoint::capture(1, false, &mut model, &mut heads, &report);

        // A differently initialised model of the same architecture.
        let (mut other, mut other_heads) = trained_setup(99);
        let x = Tensor::ones(&[2, 3, 8, 8]);
        assert_ne!(
            model.infer(&x).unwrap(),
            other.infer(&x).unwrap(),
            "different seeds must differ before restore"
        );
        ck.restore(&mut other, &mut other_heads).unwrap();
        assert_eq!(model.infer(&x).unwrap(), other.infer(&x).unwrap());
        // Aux heads restored too: exit-0 logits agree.
        let mut cur = x.clone();
        cur = model.units[0].forward(&cur, nf_nn::Mode::Eval).unwrap();
        let a = heads[0].forward(&cur, nf_nn::Mode::Eval).unwrap();
        let mut cur = x.clone();
        cur = other.units[0].forward(&cur, nf_nn::Mode::Eval).unwrap();
        let b = other_heads[0].forward(&cur, nf_nn::Mode::Eval).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn save_load_round_trips_on_disk() {
        let (mut model, mut heads) = trained_setup(2);
        let ck = Checkpoint::capture(1, false, &mut model, &mut heads, &WorkerReport::default());
        let dir = std::env::temp_dir().join(format!("nf_ck_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.nfck");
        ck.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        // No temp file left behind.
        assert!(!path.with_extension("nfck.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_mismatched_inputs_are_rejected() {
        let (mut model, mut heads) = trained_setup(3);
        let ck = Checkpoint::capture(1, false, &mut model, &mut heads, &WorkerReport::default());
        let bytes = ck.to_bytes();
        assert!(Checkpoint::from_bytes(&bytes[..bytes.len() / 3]).is_err());
        assert!(Checkpoint::from_bytes(b"not a checkpoint").is_err());
        // A blob length of u64::MAX must error, not overflow the cursor:
        // hand-build a header claiming one unit blob of absurd length.
        let mut huge = Vec::new();
        huge.extend_from_slice(b"NFCK");
        huge.extend_from_slice(&2u32.to_le_bytes()); // version
        huge.extend_from_slice(&0u64.to_le_bytes()); // completed_blocks
        huge.push(0); // head_trained
        huge.extend_from_slice(&0u64.to_le_bytes()); // n_blocks
        huge.extend_from_slice(&0u64.to_le_bytes()); // n_batches
        huge.extend_from_slice(&[0u8; 36]); // cache counters + codec id
        huge.extend_from_slice(&1u64.to_le_bytes()); // one unit blob...
        huge.extend_from_slice(&u64::MAX.to_le_bytes()); // ...of length MAX
        assert!(matches!(
            Checkpoint::from_bytes(&huge),
            Err(NfError::Checkpoint { op: "read", .. })
        ));
        // Architecture mismatch is caught before any blob parsing.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut wrong = ModelSpec::tiny("w", 8, &[4], 3).build(&mut rng).unwrap();
        assert!(matches!(
            ck.restore(&mut wrong, &mut []),
            Err(NfError::Checkpoint { op: "restore", .. })
        ));
    }
}
