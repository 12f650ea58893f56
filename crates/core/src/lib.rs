//! NeuroFlux: memory-efficient CNN training using adaptive local learning.
//!
//! This crate implements the paper's system (Figure 7) end to end:
//!
//! 1. **Profiler** ([`profiler`]) — assigns AAN auxiliary heads and
//!    returns the per-layer linear models `mem(batch) = intercept +
//!    slope·batch` (§1; Figure 8), read off the `nf-memsim` memory model.
//! 2. **Partitioner** ([`partitioner`]) — Algorithm 1: computes each
//!    layer's maximum feasible batch under the memory budget
//!    ([`nf_memsim::LinearMemoryModel::max_batch`]), caps it at
//!    the user batch limit, and groups contiguous layers whose feasible
//!    batches are within the ρ = 40 % margin into blocks (§2).
//! 3. **Controller / Worker** ([`controller`], [`worker`]) — Algorithm 2:
//!    trains one block at a time with the block's own batch size (AB-LL),
//!    caches the trained block's output activations in an
//!    [`cache::ActivationStore`], evicts the block, and never re-runs
//!    forward passes over trained blocks (§3).
//! 4. **Early exit** — after training, every auxiliary head is evaluated
//!    on the validation split and the smallest head within tolerance of
//!    the best accuracy is selected (§4; Section 5.4, Figure 10).
//!
//! A parallel **simulation path** ([`simulate`]) runs the same Profiler +
//! Partitioner over full-size architectures and prices training time with
//! the `nf-memsim` device models — this is what regenerates the paper's
//! Figure 11/12 sweeps and headline speedups on Jetson-class hardware that
//! is not physically present (DESIGN.md §2).
//!
//! # Examples
//!
//! ```
//! use neuroflux_core::{NeuroFluxConfig, NeuroFluxTrainer};
//! use nf_data::SyntheticSpec;
//! use nf_models::ModelSpec;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let ds = SyntheticSpec::quick(3, 8, 48).generate();
//! let spec = ModelSpec::tiny("demo", 8, &[4, 8], 3);
//! let config = NeuroFluxConfig::new(6 << 20, 16).with_epochs(2);
//! let trainer = NeuroFluxTrainer::new(config);
//! let outcome = trainer.train(&mut rng, &spec, &ds).unwrap();
//! assert!(outcome.selected_exit.is_some());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod checkpoint;
pub mod codec;
pub mod confidence_exit;
mod config;
pub mod controller;
mod error;
pub mod params_io;
pub mod partitioner;
pub mod profiler;
pub mod reader;
pub mod serve;
pub mod simulate;
pub mod worker;

pub use cache::{
    ActivationStore, BlobStore, CodecStore, DiskBlobStore, DiskStore, MemoryBlobStore, MemoryStore,
};
pub use checkpoint::{Checkpoint, CheckpointSink, FileCheckpoint};
pub use codec::{ActivationCodec, CacheBlob, CodecKind};
pub use confidence_exit::{CascadePrediction, CascadeReport, ConfidenceCascade};
pub use config::{NeuroFluxConfig, RHO};
pub use controller::{NeuroFluxOutcome, NeuroFluxTrainer, TrainHooks};
pub use error::NfError;
pub use params_io::{deserialize_params, serialize_params};
pub use partitioner::{partition, Block};
pub use serve::{
    latency_percentiles, reactor_timeout_ms, AdmissionError, BatchPlan, Clock, Draw, MicroBatcher,
    ServeEngine, ServePolicy, ServeReply, ServeRequest, SloTier, SystemClock, VirtualClock,
    MAX_REPLICAS, OUTBOX_CAP_BYTES,
};
pub use worker::{RunHooks, TrainEvent, Worker, WorkerReport};

/// Convenience alias for fallible NeuroFlux operations.
pub type Result<T> = std::result::Result<T, NfError>;
