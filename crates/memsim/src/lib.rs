//! GPU memory and timing models for the paper's edge devices.
//!
//! The paper's experiments run on NVIDIA Jetson boards and a Raspberry Pi
//! (Table 1) — hardware unavailable here — so this crate *is* the hardware
//! substitute (`DESIGN.md` §2): an analytic model of
//!
//! - **GPU memory** ([`memory`]): how many bytes inference, BP training,
//!   and local-learning training need as a function of architecture and
//!   batch size, as free functions of the architecture. Activation
//!   footprints are exact functions of tensor shapes; the copy counts are
//!   documented `pub const`s ([`memory::BP_RETAINED_COPIES`],
//!   [`memory::GRAD_COPIES`], …), not settings, and the layers' workspace
//!   is priced apart ([`memory::ll_unit_workspace_bytes_per_sample`]).
//!   The per-layer footprint is linear in batch size, which is precisely
//!   the observation (Figure 8) the paper's Profiler exploits: each unit's
//!   footprint is a [`LinearMemoryModel`], whose
//!   [`LinearMemoryModel::max_batch`] is the largest batch that fits a
//!   budget — Figure 6 and the infeasibility regions of Figure 11.
//! - **time** ([`timing`]): FLOP-proportional compute (backward =
//!   [`timing::BACKWARD_FACTOR`] × forward) plus a per-batch overhead
//!   (data loading / kernel launch) plus storage I/O. The
//!   per-batch overhead term is what makes small batches catastrophically
//!   slow (Figure 1's 9× at batch 4) and is the effect NeuroFlux's larger
//!   adaptive batches exploit.
//! - **calibration** ([`calibrate`]): the bench host's *measured* GEMM
//!   and codec throughput, lowered to a [`DeviceProfile`] so sweep
//!   predictions on "this machine" come from primitives rather than
//!   datasheet TFLOPs. A fitted host is the same profile with its two
//!   calibration constants set from two measured step times; [`timing`]
//!   prices it like a preset, so there is one time model.
//!
//! Absolute magnitudes are calibrated per device with a single efficiency
//! scalar (see [`DeviceProfile`]); every reproduced figure compares
//! *shapes* (orderings, ratios, crossovers), recorded in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod calibrate;
pub mod device;
pub mod memory;
pub mod timing;

pub use calibrate::MeasuredPrimitives;
pub use device::DeviceProfile;
pub use memory::{CacheCostModel, LinearMemoryModel, MemoryBreakdown, TrainingParadigm};
