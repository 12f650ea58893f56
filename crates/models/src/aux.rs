//! Auxiliary-network specification and the paper's adaptive sizing rule.
//!
//! Every local-learning unit gets an auxiliary classifier
//! `conv3×3(c → f) → global-avg-pool → linear(f → classes)` (Equation 2:
//! `A_n = γ_n F_n β_n`). The number of conv filters `f` is what
//! distinguishes the paradigms:
//!
//! - **classic LL** (Belilovsky et al.): `f = 256` everywhere, which makes
//!   early-layer auxiliary activations enormous (the memory problem shown
//!   in Figure 4);
//! - **AAN-LL** (the paper's Opportunity 1): units *before the first
//!   downsampling operation* get `min_filters / 2`, later units get
//!   `max_filters / 2`, where min/max range over the backbone's conv
//!   channel counts.

use crate::spec::{ModelSpec, UnitAnalytics};

/// How auxiliary conv filter counts are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuxPolicy {
    /// Fixed filter count for every unit (classic LL uses 256).
    Fixed(usize),
    /// The paper's adaptive rule (AAN-LL).
    Adaptive,
}

impl AuxPolicy {
    /// Classic local learning: 256 filters everywhere.
    pub const CLASSIC: AuxPolicy = AuxPolicy::Fixed(256);

    /// Stable name for configs and reports (`adaptive`, `classic`, or
    /// `fixed:<filters>`).
    pub fn name(&self) -> String {
        match *self {
            AuxPolicy::Adaptive => "adaptive".to_string(),
            AuxPolicy::Fixed(256) => "classic".to_string(),
            AuxPolicy::Fixed(f) => format!("fixed:{f}"),
        }
    }
}

impl std::str::FromStr for AuxPolicy {
    type Err = String;

    /// Parses the names produced by [`AuxPolicy::name`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "adaptive" | "aan" => Ok(AuxPolicy::Adaptive),
            "classic" => Ok(AuxPolicy::CLASSIC),
            other => {
                if let Some(n) = other.strip_prefix("fixed:") {
                    let filters: usize = n
                        .parse()
                        .map_err(|_| format!("bad fixed aux filter count {n:?}"))?;
                    if filters == 0 {
                        return Err("fixed aux filter count must be > 0".to_string());
                    }
                    Ok(AuxPolicy::Fixed(filters))
                } else {
                    Err(format!(
                        "unknown aux policy {other:?} (expected adaptive, classic, or fixed:<n>)"
                    ))
                }
            }
        }
    }
}

/// Analytic description of one auxiliary network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuxSpec {
    /// Index of the backbone unit this head attaches to.
    pub unit: usize,
    /// Input channels (= backbone unit output channels).
    pub in_ch: usize,
    /// Conv filter count `f`.
    pub filters: usize,
    /// Spatial size `(h, w)` of the unit output the head consumes.
    pub in_hw: (usize, usize),
    /// Number of classes predicted.
    pub classes: usize,
}

impl AuxSpec {
    /// Trainable parameters: conv (f·9c + f) + linear (f·K + K).
    pub fn params(&self) -> usize {
        self.filters * 9 * self.in_ch + self.filters + self.filters * self.classes + self.classes
    }

    /// Forward FLOPs per sample (conv + pool + linear; MAC = 2 FLOPs).
    pub fn flops(&self) -> u64 {
        let (h, w) = self.in_hw;
        let conv = 2 * (self.filters * 9 * self.in_ch * h * w) as u64;
        let pool = (self.filters * h * w) as u64;
        let linear = 2 * (self.filters * self.classes) as u64;
        conv + pool + linear
    }

    /// Activation elements per sample produced inside the head
    /// (conv output + pooled vector + logits) — the memory the head adds to
    /// training a unit.
    pub fn activation_elems(&self) -> usize {
        let (h, w) = self.in_hw;
        self.filters * h * w + self.filters + self.classes
    }
}

/// Assigns an auxiliary head to every unit of `spec` under `policy`.
///
/// This is the Profiler's first step (`§1` in Figure 7).
///
/// # Examples
///
/// ```
/// use nf_models::{assign_aux, AuxPolicy, ModelSpec};
///
/// let spec = ModelSpec::vgg16(100);
/// let aan = assign_aux(&spec, AuxPolicy::Adaptive);
/// // VGG min/max channels are 64/512: initial units get 32, later 256.
/// assert_eq!(aan[0].filters, 32);
/// assert_eq!(aan[12].filters, 256);
/// ```
pub fn assign_aux(spec: &ModelSpec, policy: AuxPolicy) -> Vec<AuxSpec> {
    let analytics = spec.analyze();
    let (min_ch, max_ch) = spec.channel_extremes();
    analytics
        .iter()
        .map(|a| AuxSpec {
            unit: a.index,
            in_ch: a.out_shape.0,
            filters: filters_for(policy, a, min_ch, max_ch),
            in_hw: (a.out_shape.1, a.out_shape.2),
            classes: spec.classes,
        })
        .collect()
}

fn filters_for(policy: AuxPolicy, unit: &UnitAnalytics, min_ch: usize, max_ch: usize) -> usize {
    match policy {
        AuxPolicy::Fixed(f) => f,
        AuxPolicy::Adaptive => {
            if unit.after_first_downsample {
                (max_ch / 2).max(1)
            } else {
                (min_ch / 2).max(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_policy_is_uniform_256() {
        let spec = ModelSpec::vgg19(10);
        let aux = assign_aux(&spec, AuxPolicy::CLASSIC);
        assert_eq!(aux.len(), 16);
        assert!(aux.iter().all(|a| a.filters == 256));
    }

    #[test]
    fn adaptive_policy_follows_downsample_boundary() {
        let spec = ModelSpec::vgg19(10);
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        // VGG-19: units 0-1 precede the first pool.
        assert_eq!(aux[0].filters, 32);
        assert_eq!(aux[1].filters, 32);
        for a in &aux[2..] {
            assert_eq!(a.filters, 256);
        }
    }

    #[test]
    fn adaptive_shrinks_early_activations_vs_classic() {
        // The crux of Figure 4: AAN-LL's first-unit auxiliary activations
        // are ~8x smaller than classic LL's (32 vs 256 filters; the pooled
        // vector and logits add a few elements on top of the 8x conv map).
        let spec = ModelSpec::vgg19(10);
        let classic = assign_aux(&spec, AuxPolicy::CLASSIC);
        let aan = assign_aux(&spec, AuxPolicy::Adaptive);
        let ratio = classic[0].activation_elems() as f64 / aan[0].activation_elems() as f64;
        assert!((ratio - 8.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn aux_params_formula() {
        let a = AuxSpec {
            unit: 0,
            in_ch: 64,
            filters: 32,
            in_hw: (32, 32),
            classes: 10,
        };
        assert_eq!(a.params(), 32 * 9 * 64 + 32 + 32 * 10 + 10);
        assert!(a.flops() > 0);
    }

    #[test]
    fn aux_attaches_to_every_unit() {
        let spec = ModelSpec::resnet18(100);
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        assert_eq!(aux.len(), spec.num_units());
        for (i, a) in aux.iter().enumerate() {
            assert_eq!(a.unit, i);
            assert_eq!(a.classes, 100);
        }
    }

    #[test]
    fn resnet_adaptive_filters() {
        // ResNet-18 channels range 64..512; stem (before first downsample)
        // gets 32, deep units get 256. The first downsampling unit is the
        // stride-2 block at index 3; it and everything after it counts as
        // "after".
        let spec = ModelSpec::resnet18(10);
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        assert_eq!(aux[0].filters, 32);
        assert_eq!(aux[8].filters, 256);
    }
}
