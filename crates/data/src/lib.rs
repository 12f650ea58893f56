//! Seeded synthetic image-classification datasets.
//!
//! The paper evaluates on CIFAR-10, CIFAR-100, and Tiny ImageNet; none of
//! those can be downloaded in this offline environment, so this crate
//! generates **class-conditional synthetic images**: each class is a fixed
//! (seed-derived) mixture of 2-D sinusoidal patterns, and samples are the
//! class pattern under a random spatial shift plus Gaussian noise. The
//! generator preserves the property the paper's accuracy experiments rely
//! on — a CNN can separate the classes, shallow layers learn coarse
//! structure, and deeper layers give diminishing returns ("overthinking",
//! Figure 10) — while being fully reproducible from a single seed. See
//! `DESIGN.md` §2 for the substitution rationale.
//!
//! # Examples
//!
//! ```
//! use nf_data::SyntheticSpec;
//!
//! let ds = SyntheticSpec::quick(4, 8, 64).generate();
//! assert_eq!(ds.train.len(), 64);
//! let (images, labels) = ds.train.batch(0, 16);
//! assert_eq!(images.shape(), &[16, 3, 8, 8]);
//! assert_eq!(labels.len(), 16);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod dataset;
mod generator;
mod spec;

pub use dataset::{Dataset, SplitDataset};
pub use spec::SyntheticSpec;
