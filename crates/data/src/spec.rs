//! Dataset specification and the paper's dataset presets.

use crate::dataset::SplitDataset;
use crate::generator;

/// Parameters of a synthetic dataset.
///
/// The presets mirror the class/shape structure of the paper's datasets;
/// sample counts default to sizes that train in reasonable CPU time and can
/// be overridden for full-scale accounting (e.g. storage-overhead
/// experiments use [`SyntheticSpec::full_scale_bytes`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Dataset name (used in reports).
    pub name: String,
    /// Number of classes.
    pub classes: usize,
    /// Square image size (height = width).
    pub image_hw: usize,
    /// Image channels (always 3 for the presets).
    pub channels: usize,
    /// Training-set size.
    pub train: usize,
    /// Validation-set size.
    pub val: usize,
    /// Test-set size.
    pub test: usize,
    /// Gaussian pixel-noise standard deviation (difficulty knob).
    pub noise: f32,
    /// Master seed; everything is derived from it.
    pub seed: u64,
    /// Reference full-scale sample count (train split) of the real dataset
    /// this stands in for — used only for byte accounting.
    pub reference_train_samples: usize,
}

impl SyntheticSpec {
    /// Names accepted by [`SyntheticSpec::by_name`].
    pub fn preset_names() -> [&'static str; 3] {
        ["cifar10", "cifar100", "tiny-imagenet"]
    }

    /// Looks up a dataset preset by its stable name with the given split
    /// sizes; `None` for unknown names. (The `quick` family is not listed —
    /// it is parameterised by class count and image size, so configs spell
    /// it out explicitly.)
    ///
    /// # Examples
    ///
    /// ```
    /// use nf_data::SyntheticSpec;
    ///
    /// let spec = SyntheticSpec::by_name("cifar100", 512, 64, 64).unwrap();
    /// assert_eq!(spec.classes, 100);
    /// assert!(SyntheticSpec::by_name("imagenet", 1, 1, 1).is_none());
    /// ```
    pub fn by_name(name: &str, train: usize, val: usize, test: usize) -> Option<Self> {
        match name {
            "cifar10" => Some(SyntheticSpec::cifar10(train, val, test)),
            "cifar100" => Some(SyntheticSpec::cifar100(train, val, test)),
            "tiny-imagenet" | "tiny_imagenet" => {
                Some(SyntheticSpec::tiny_imagenet(train, val, test))
            }
            _ => None,
        }
    }

    /// CIFAR-10 stand-in: 10 classes, 32×32×3.
    pub fn cifar10(train: usize, val: usize, test: usize) -> Self {
        SyntheticSpec {
            name: "cifar10".into(),
            classes: 10,
            image_hw: 32,
            channels: 3,
            train,
            val,
            test,
            noise: 0.25,
            seed: 0xC1FA_0010,
            reference_train_samples: 50_000,
        }
    }

    /// CIFAR-100 stand-in: 100 classes, 32×32×3.
    pub fn cifar100(train: usize, val: usize, test: usize) -> Self {
        SyntheticSpec {
            name: "cifar100".into(),
            classes: 100,
            image_hw: 32,
            channels: 3,
            train,
            val,
            test,
            noise: 0.25,
            seed: 0xC1FA_0100,
            reference_train_samples: 50_000,
        }
    }

    /// Tiny ImageNet stand-in: 200 classes; images generated at 32×32
    /// directly (the paper also resizes 64×64 → 32×32, Section 6.1).
    pub fn tiny_imagenet(train: usize, val: usize, test: usize) -> Self {
        SyntheticSpec {
            name: "tiny-imagenet".into(),
            classes: 200,
            image_hw: 32,
            channels: 3,
            train,
            val,
            test,
            noise: 0.25,
            seed: 0x7141_0200,
            reference_train_samples: 100_000,
        }
    }

    /// A small, fast dataset for tests and examples: `classes` classes at
    /// `image_hw`² with `train` training samples (and `train/4` val/test).
    pub fn quick(classes: usize, image_hw: usize, train: usize) -> Self {
        SyntheticSpec {
            name: format!("quick{classes}"),
            classes,
            image_hw,
            channels: 3,
            train,
            val: (train / 4).max(classes),
            test: (train / 4).max(classes),
            noise: 0.15,
            seed: 0x0u64.wrapping_add(classes as u64) * 31 + image_hw as u64,
            reference_train_samples: train,
        }
    }

    /// Overrides the master seed (e.g. for repeated runs).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the noise level.
    pub fn with_noise(mut self, noise: f32) -> Self {
        self.noise = noise;
        self
    }

    /// Bytes of one sample (f32 image + 1-byte label, matching the
    /// CIFAR binary layout's scale).
    pub fn sample_bytes(&self) -> usize {
        self.channels * self.image_hw * self.image_hw + 1
    }

    /// Reference size in bytes of the real dataset's training split
    /// (u8 pixels) — the denominator of the paper's §6.4 storage-overhead
    /// ratios ("CIFAR-10/100 ≈ 0.2 GB, Tiny ImageNet ≈ 0.5 GB").
    pub fn full_scale_bytes(&self) -> usize {
        self.reference_train_samples * self.sample_bytes()
    }

    /// Generates the train/val/test splits deterministically.
    pub fn generate(&self) -> SplitDataset {
        generator::generate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_names_resolve() {
        for name in SyntheticSpec::preset_names() {
            let s = SyntheticSpec::by_name(name, 10, 5, 5).expect(name);
            assert_eq!(s.name, name);
            assert_eq!((s.train, s.val, s.test), (10, 5, 5));
        }
        assert!(SyntheticSpec::by_name("mnist", 1, 1, 1).is_none());
    }

    #[test]
    fn presets_match_paper_structure() {
        let c10 = SyntheticSpec::cifar10(100, 20, 20);
        assert_eq!((c10.classes, c10.image_hw), (10, 32));
        let c100 = SyntheticSpec::cifar100(100, 20, 20);
        assert_eq!(c100.classes, 100);
        let tin = SyntheticSpec::tiny_imagenet(100, 20, 20);
        assert_eq!(tin.classes, 200);
        assert_eq!(tin.image_hw, 32, "paper resizes 64x64 to 32x32");
    }

    #[test]
    fn full_scale_bytes_in_paper_regime() {
        // §6.4: CIFAR ≈ 0.2 GB, Tiny ImageNet ≈ 0.5 GB.
        let c10 = SyntheticSpec::cifar10(1, 1, 1).full_scale_bytes() as f64 / 1e9;
        assert!((0.1..0.3).contains(&c10), "cifar bytes {c10} GB");
        let tin = SyntheticSpec::tiny_imagenet(1, 1, 1).full_scale_bytes() as f64 / 1e9;
        assert!((0.25..0.7).contains(&tin), "tiny bytes {tin} GB");
    }

    #[test]
    fn builders_apply() {
        let s = SyntheticSpec::quick(3, 8, 30).with_seed(7).with_noise(0.5);
        assert_eq!(s.seed, 7);
        assert_eq!(s.noise, 0.5);
        assert!(s.val >= 3);
    }
}
