//! CNN architecture specifications with analytic shape/parameter/FLOP
//! accounting, buildable into runnable `nf-nn` networks.
//!
//! A [`ModelSpec`] is the single source of truth for an architecture
//! (VGG-11/16/19, ResNet-18, MobileNet). From it you can:
//!
//! - read **analytics** — per-unit output shapes, parameter counts, forward
//!   FLOPs, and activation sizes — without allocating a single tensor. All
//!   of the paper's memory figures (1, 4, 5, 6, 8, 13) and Table 2 are
//!   functions of these numbers;
//! - **attach auxiliary networks** under the classic-LL (fixed 256 filters)
//!   or the paper's AAN rule (Section 3, Opportunity 1);
//! - **build** a real, trainable network at any channel scale
//!   ([`build::BuiltModel`]), which is what the accuracy experiments train.
//!
//! "Unit" here means one local-learning trainable unit: a conv layer for
//! VGG/MobileNet, the stem conv or one basic block for ResNet — the
//! granularity at which NeuroFlux attaches auxiliary heads and partitions
//! the model into blocks.
//!
//! # Examples
//!
//! ```
//! use nf_models::ModelSpec;
//!
//! let vgg16 = ModelSpec::vgg16(10);
//! // The paper's Table 2 reports 14.7M parameters for VGG-16.
//! assert!((vgg16.total_params() as f64 / 1e6 - 14.7).abs() < 0.4);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aux;
pub mod build;
pub mod early_exit;
mod presets;
mod spec;

pub use aux::{assign_aux, AuxPolicy, AuxSpec};
pub use build::{build_aux_head, build_aux_heads, BuiltModel};
pub use early_exit::{
    compression_factor, exit_accuracies, exit_accuracy, exit_candidates, select_exit, ExitCandidate,
};
pub use spec::{HeadSpec, LayerKind, ModelSpec, SpecError, UnitAnalytics, UnitSpec};
