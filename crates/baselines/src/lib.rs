//! Training-paradigm baselines the paper compares against.
//!
//! - [`bp`] — vanilla end-to-end backpropagation (no checkpointing), the
//!   paper's primary baseline;
//! - [`local`] — classic greedy local learning (Belilovsky et al.): every
//!   layer paired with an auxiliary classifier, one fixed batch size,
//!   fixed 256-filter heads. It is the NeuroFlux Worker over a one-block
//!   plan (`neuroflux_core::Worker::run_with` over every unit), so
//!   NeuroFlux and its local-learning baseline run one training loop;
//! - [`fa`] — feedback alignment: the BP model and trainer, with a fixed
//!   random feedback matrix installed on every weight so backward passes
//!   propagate the error through it instead of the transposed weights;
//! - [`sp`] — a simplified signal-propagation stand-in: forward-only,
//!   layer-local prototype targets, no auxiliary networks.
//!
//! FA and SP exist for the qualitative quadrant of the paper's Figure 3
//! (both are dominated: FA matches BP's memory at lower accuracy, SP is
//! cheap but inaccurate). BP and classic LL are full baselines used in
//! every training-time experiment. BP, FA and SP keep their own epoch
//! loops: end-to-end backward (or SP's forward-only targets) is a
//! different step from the Worker's.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bp;
pub mod fa;
pub mod local;
mod report;
pub mod sp;

pub use bp::BpTrainer;
pub use fa::install_feedback;
pub use local::train_local;
pub use report::TrainReport;
pub use sp::SpTrainer;
