//! Layer-wise neural-network library with explicit per-layer backward passes.
//!
//! NeuroFlux's adaptive local learning updates each CNN layer with a loss
//! computed *at that layer*, so this crate deliberately has no autograd tape:
//! every [`Layer`] owns its forward cache and knows how to turn an output
//! gradient into an input gradient plus parameter gradients. End-to-end
//! backpropagation (the paper's baseline) is then simply the composition of
//! layer backwards in reverse order — the same code path, which keeps the
//! baseline comparison honest.
//!
//! Every layer's backward pass is validated against central finite
//! differences (see [`gradcheck`]).
//!
//! # Examples
//!
//! ```
//! use nf_nn::{Layer, Linear, Mode, relu::ReLU, Sequential};
//! use nf_nn::loss::cross_entropy;
//! use nf_nn::optim::Sgd;
//! use nf_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Linear::new(&mut rng, 4, 8)),
//!     Box::new(ReLU::new()),
//!     Box::new(Linear::new(&mut rng, 8, 2)),
//! ]);
//! let x = Tensor::ones(&[3, 4]);
//! let logits = net.forward(&x, Mode::Train).unwrap();
//! let (loss, grad) = cross_entropy(&logits, &[0, 1, 0]).unwrap();
//! net.backward(&grad).unwrap();
//! Sgd::new(0.1).step(&mut net);
//! assert!(loss > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod batchnorm;
pub mod conv2d;
mod error;
pub mod flatten;
pub mod gradcheck;
mod lanes;
mod layer;
pub mod linear;
pub mod loss;
pub mod optim;
mod param;
pub mod pool;
pub mod relu;
pub mod residual;
pub mod scratch;
mod sequential;
pub mod step;

pub use batchnorm::BatchNorm2d;
pub use conv2d::Conv2d;
pub use error::NnError;
pub use flatten::Flatten;
pub use layer::{Layer, Mode};
pub use linear::Linear;
pub use param::Param;
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};
pub use residual::BasicBlock;
pub use scratch::{InputCache, PackedPanel};
pub use sequential::Sequential;
pub use step::LocalStep;

/// Convenience alias for fallible layer operations.
pub type Result<T> = std::result::Result<T, NnError>;
