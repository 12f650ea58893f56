//! Training-paradigm baselines the paper compares against.
//!
//! - [`bp`] — vanilla end-to-end backpropagation (no checkpointing), the
//!   paper's primary baseline;
//! - [`local`] — classic greedy local learning (Belilovsky et al.): every
//!   layer paired with an auxiliary classifier, fixed batch size, fixed
//!   256-filter heads. It runs the NeuroFlux Worker's own step,
//!   `nf_nn::LocalStep`, over the whole model at once;
//! - [`fa`] — feedback alignment: the BP model and trainer, with a fixed
//!   random feedback matrix installed on every weight so backward passes
//!   propagate the error through it instead of the transposed weights;
//! - [`sp`] — a simplified signal-propagation stand-in: forward-only,
//!   layer-local prototype targets, no auxiliary networks.
//!
//! FA and SP exist for the qualitative quadrant of the paper's Figure 3
//! (both are dominated: FA matches BP's memory at lower accuracy, SP is
//! cheap but inaccurate). BP and classic LL are full baselines used in
//! every training-time experiment.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bp;
pub mod fa;
pub mod local;
mod report;
pub mod sp;

pub use bp::BpTrainer;
pub use fa::install_feedback;
pub use local::LocalLearningTrainer;
pub use report::TrainReport;
pub use sp::SpTrainer;
