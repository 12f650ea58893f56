//! Scaled-training harness shared by the accuracy figures.
//!
//! Figures 10 and 12 and Tables 2–3 need *real* training runs, out of
//! reach at full size on a CPU, so [`crate::figures`] trains
//! **channel-scaled** variants of the paper's architectures on reduced
//! synthetic datasets (DESIGN.md §2's scale substitution) and transfers
//! the *shape* of the result — which exit saturates, how accuracy orders
//! between methods — back to the full-size analytics. Unknown names are
//! typed [`ScaledError`]s, not panics.

use nf_data::{SplitDataset, SyntheticSpec};
use nf_models::ModelSpec;
use std::fmt;

/// A scaled stand-in for one paper workload (model × dataset).
#[derive(Debug)]
pub struct ScaledWorkload {
    /// Full-size spec (used for analytics: params, FLOPs, memory).
    pub full: ModelSpec,
    /// The scaled spec actually trained.
    pub scaled: ModelSpec,
    /// The synthetic dataset.
    pub data: SplitDataset,
    /// Label for reports, e.g. `vgg16/cifar10`.
    pub label: String,
}

/// Standard channel scale used by all accuracy experiments.
pub const CHANNEL_SCALE: f64 = 0.125;

/// Dataset names [`workload`] understands.
pub const DATASETS: [&str; 3] = ["cifar10", "cifar100", "tiny-imagenet"];

/// Model names [`workload`] understands.
pub const MODELS: [&str; 4] = ["vgg11", "vgg16", "vgg19", "resnet18"];

/// An unrecognised workload component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaledError {
    /// `"model"` or `"dataset"`.
    pub kind: &'static str,
    /// The name that failed to resolve.
    pub name: String,
    /// The names that would have resolved.
    pub expected: &'static [&'static str],
}

impl fmt::Display for ScaledError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} {:?} (expected one of {})",
            self.kind,
            self.name,
            self.expected.join(", ")
        )
    }
}

impl std::error::Error for ScaledError {}

fn unknown(kind: &'static str, name: &str, expected: &'static [&'static str]) -> ScaledError {
    ScaledError {
        kind,
        name: name.to_string(),
        expected,
    }
}

/// Builds the scaled workload for a (model, dataset) pair.
///
/// `classes` is reduced alongside spatial/sample scale so the synthetic
/// task is learnable in seconds: the class-count *ratio* between the
/// cifar10/cifar100/tiny-imagenet stand-ins is preserved (8/16/24).
pub fn workload(model: &str, dataset: &str) -> Result<ScaledWorkload, ScaledError> {
    let (classes, train_n) = match dataset {
        "cifar10" => (8usize, 512usize),
        "cifar100" => (16, 768),
        "tiny-imagenet" => (24, 1024),
        other => return Err(unknown("dataset", other, &DATASETS)),
    };
    let full = match model {
        "vgg11" => ModelSpec::vgg11(classes_full(dataset)?),
        "vgg16" => ModelSpec::vgg16(classes_full(dataset)?),
        "vgg19" => ModelSpec::vgg19(classes_full(dataset)?),
        "resnet18" => ModelSpec::resnet18(classes_full(dataset)?),
        other => return Err(unknown("model", other, &MODELS)),
    };
    // Scaled variant: fewer channels, same depth/downsampling structure,
    // synthetic classes, 32x32 inputs (like the paper's resized data).
    let mut scaled = full.scale_channels(CHANNEL_SCALE, 2);
    scaled.classes = classes;
    scaled = rebuild_head(scaled, classes);
    let mut spec = SyntheticSpec::quick(classes, 32, train_n);
    spec.name = dataset.to_string();
    spec.noise = 0.35;
    let data = spec.generate();
    Ok(ScaledWorkload {
        full,
        scaled,
        data,
        label: format!("{model}/{dataset}"),
    })
}

/// Class counts of the paper's real datasets (for full-size analytics).
pub fn classes_full(dataset: &str) -> Result<usize, ScaledError> {
    match dataset {
        "cifar10" => Ok(10),
        "cifar100" => Ok(100),
        "tiny-imagenet" => Ok(200),
        other => Err(unknown("dataset", other, &DATASETS)),
    }
}

fn rebuild_head(mut spec: ModelSpec, classes: usize) -> ModelSpec {
    let (c, h, w) = spec.final_feature_shape();
    spec.head = match spec.head {
        nf_models::HeadSpec::Linear { .. } => nf_models::HeadSpec::Linear {
            in_features: c * h * w,
            classes,
        },
        nf_models::HeadSpec::GapLinear { .. } => {
            nf_models::HeadSpec::GapLinear { in_ch: c, classes }
        }
    };
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_workloads_resolve() {
        let w = workload("vgg16", "cifar10").unwrap();
        assert_eq!(w.label, "vgg16/cifar10");
        assert_eq!(classes_full("tiny-imagenet").unwrap(), 200);
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let e = workload("alexnet", "cifar10").unwrap_err();
        assert_eq!(e.kind, "model");
        assert!(e.to_string().contains("alexnet"), "{e}");
        assert!(e.to_string().contains("resnet18"), "{e}");
        let e = workload("vgg16", "imagenet-21k").unwrap_err();
        assert_eq!(e.kind, "dataset");
        assert!(classes_full("svhn").is_err());
    }
}
