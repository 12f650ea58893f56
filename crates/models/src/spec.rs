//! Architecture specification and analytic accounting.

/// The kind of one local-learning unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// 3×3 (or `kernel`-sized) convolution + batch norm + ReLU, optionally
    /// followed by a 2×2 max pool (the VGG building block).
    Conv {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride of the convolution.
        stride: usize,
        /// Symmetric zero padding.
        pad: usize,
        /// Whether a 2×2/stride-2 max pool follows the activation.
        pool: bool,
    },
    /// ResNet basic block (two 3×3 convs + shortcut).
    Residual {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Stride of the first convolution (2 = downsample).
        stride: usize,
    },
    /// MobileNet depthwise-separable block (3×3 depthwise + 1×1 pointwise).
    DepthwiseSeparable {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Stride of the depthwise convolution.
        stride: usize,
    },
}

/// One local-learning unit of a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitSpec {
    /// What the unit computes.
    pub kind: LayerKind,
}

impl UnitSpec {
    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        match self.kind {
            LayerKind::Conv { out_ch, .. }
            | LayerKind::Residual { out_ch, .. }
            | LayerKind::DepthwiseSeparable { out_ch, .. } => out_ch,
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        match self.kind {
            LayerKind::Conv { in_ch, .. }
            | LayerKind::Residual { in_ch, .. }
            | LayerKind::DepthwiseSeparable { in_ch, .. } => in_ch,
        }
    }

    /// Whether this unit reduces spatial resolution (pool or stride > 1).
    pub fn downsamples(&self) -> bool {
        match self.kind {
            LayerKind::Conv { stride, pool, .. } => pool || stride > 1,
            LayerKind::Residual { stride, .. } | LayerKind::DepthwiseSeparable { stride, .. } => {
                stride > 1
            }
        }
    }

    /// Spatial output size for a `(h, w)` input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        match self.kind {
            LayerKind::Conv {
                kernel,
                stride,
                pad,
                pool,
                ..
            } => {
                // Saturating: a collapsed (zero-extent) input stays zero so
                // callers can detect the collapse instead of underflowing.
                let oh = if h + 2 * pad < kernel {
                    0
                } else {
                    (h + 2 * pad - kernel) / stride + 1
                };
                let ow = if w + 2 * pad < kernel {
                    0
                } else {
                    (w + 2 * pad - kernel) / stride + 1
                };
                if pool {
                    (oh / 2, ow / 2)
                } else {
                    (oh, ow)
                }
            }
            LayerKind::Residual { stride, .. } | LayerKind::DepthwiseSeparable { stride, .. } => {
                (h.div_ceil(stride), w.div_ceil(stride))
            }
        }
    }

    /// Trainable parameter count (weights + biases + batch-norm γ/β).
    pub fn params(&self) -> usize {
        match self.kind {
            LayerKind::Conv {
                in_ch,
                out_ch,
                kernel,
                ..
            } => out_ch * in_ch * kernel * kernel + out_ch + 2 * out_ch,
            LayerKind::Residual {
                in_ch,
                out_ch,
                stride,
            } => {
                let conv1 = out_ch * in_ch * 9 + out_ch + 2 * out_ch;
                let conv2 = out_ch * out_ch * 9 + out_ch + 2 * out_ch;
                let proj = if stride != 1 || in_ch != out_ch {
                    out_ch * in_ch + out_ch + 2 * out_ch
                } else {
                    0
                };
                conv1 + conv2 + proj
            }
            LayerKind::DepthwiseSeparable { in_ch, out_ch, .. } => {
                let dw = in_ch * 9 + in_ch + 2 * in_ch;
                let pw = out_ch * in_ch + out_ch + 2 * out_ch;
                dw + pw
            }
        }
    }

    /// Forward multiply–accumulate FLOPs for one sample with `(h, w)` input
    /// (counting one MAC as two FLOPs).
    pub fn flops(&self, h: usize, w: usize) -> u64 {
        let macs: u64 = match self.kind {
            LayerKind::Conv {
                in_ch,
                out_ch,
                kernel,
                stride,
                pad,
                ..
            } => {
                let oh = if h + 2 * pad < kernel {
                    0
                } else {
                    (h + 2 * pad - kernel) / stride + 1
                };
                let ow = if w + 2 * pad < kernel {
                    0
                } else {
                    (w + 2 * pad - kernel) / stride + 1
                };
                (out_ch * in_ch * kernel * kernel * oh * ow) as u64
            }
            LayerKind::Residual {
                in_ch,
                out_ch,
                stride,
            } => {
                let (oh, ow) = (h.div_ceil(stride), w.div_ceil(stride));
                let conv1 = (out_ch * in_ch * 9 * oh * ow) as u64;
                let conv2 = (out_ch * out_ch * 9 * oh * ow) as u64;
                let proj = if stride != 1 || in_ch != out_ch {
                    (out_ch * in_ch * oh * ow) as u64
                } else {
                    0
                };
                conv1 + conv2 + proj
            }
            LayerKind::DepthwiseSeparable {
                in_ch,
                out_ch,
                stride,
            } => {
                let (oh, ow) = (h.div_ceil(stride), w.div_ceil(stride));
                let dw = (in_ch * 9 * oh * ow) as u64;
                let pw = (out_ch * in_ch * oh * ow) as u64;
                dw + pw
            }
        };
        macs * 2
    }
}

/// The classifier head appended after the final unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadSpec {
    /// Flatten then a single linear layer (CIFAR-style VGG).
    Linear {
        /// Input features (channels × h × w after the last unit).
        in_features: usize,
        /// Output classes.
        classes: usize,
    },
    /// Global average pool then a linear layer (ResNet / MobileNet).
    GapLinear {
        /// Input channels.
        in_ch: usize,
        /// Output classes.
        classes: usize,
    },
}

impl HeadSpec {
    /// Trainable parameter count.
    pub fn params(&self) -> usize {
        match *self {
            HeadSpec::Linear {
                in_features,
                classes,
            } => in_features * classes + classes,
            HeadSpec::GapLinear { in_ch, classes } => in_ch * classes + classes,
        }
    }

    /// Forward FLOPs for one sample.
    pub fn flops(&self) -> u64 {
        2 * self.params() as u64
    }

    /// Output class count.
    pub fn classes(&self) -> usize {
        match *self {
            HeadSpec::Linear { classes, .. } | HeadSpec::GapLinear { classes, .. } => classes,
        }
    }
}

/// Per-unit analytic record produced by [`ModelSpec::analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitAnalytics {
    /// Unit index (0-based).
    pub index: usize,
    /// Input `(c, h, w)` of the unit.
    pub in_shape: (usize, usize, usize),
    /// Output `(c, h, w)` of the unit.
    pub out_shape: (usize, usize, usize),
    /// Input activation elements per sample.
    pub in_elems: usize,
    /// Output activation elements per sample.
    pub out_elems: usize,
    /// Trainable parameters of the unit.
    pub params: usize,
    /// Forward FLOPs per sample.
    pub flops: u64,
    /// Whether any earlier unit (or this one) has downsampled — `false`
    /// exactly for the paper's "initial layers" (before the first
    /// downsampling operation).
    pub after_first_downsample: bool,
}

/// A full architecture: input geometry, ordered units, classifier head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Human-readable name ("vgg16", "resnet18", …).
    pub name: String,
    /// Input `(channels, height, width)`.
    pub input: (usize, usize, usize),
    /// Number of classes.
    pub classes: usize,
    /// Ordered local-learning units.
    pub units: Vec<UnitSpec>,
    /// Classifier head.
    pub head: HeadSpec,
}

impl ModelSpec {
    /// Number of local-learning units.
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Per-unit analytics: shapes, element counts, parameters, FLOPs.
    ///
    /// # Examples
    ///
    /// ```
    /// use nf_models::ModelSpec;
    ///
    /// let a = ModelSpec::vgg11(10).analyze();
    /// assert_eq!(a[0].in_shape, (3, 32, 32));
    /// assert!(!a[0].after_first_downsample);
    /// ```
    pub fn analyze(&self) -> Vec<UnitAnalytics> {
        let (mut c, mut h, mut w) = self.input;
        let mut out = Vec::with_capacity(self.units.len());
        let mut downsampled = false;
        for (i, unit) in self.units.iter().enumerate() {
            let in_shape = (c, h, w);
            let (oh, ow) = unit.out_hw(h, w);
            let oc = unit.out_channels();
            out.push(UnitAnalytics {
                index: i,
                in_shape,
                out_shape: (oc, oh, ow),
                in_elems: c * h * w,
                out_elems: oc * oh * ow,
                params: unit.params(),
                flops: unit.flops(h, w),
                after_first_downsample: downsampled,
            });
            if unit.downsamples() {
                downsampled = true;
            }
            c = oc;
            h = oh;
            w = ow;
        }
        out
    }

    /// Output `(c, h, w)` after the final unit.
    pub fn final_feature_shape(&self) -> (usize, usize, usize) {
        self.analyze()
            .last()
            .map(|a| a.out_shape)
            .unwrap_or(self.input)
    }

    /// Total trainable parameters (all units + head) — the "model size"
    /// column of Table 2.
    pub fn total_params(&self) -> usize {
        self.units.iter().map(|u| u.params()).sum::<usize>() + self.head.params()
    }

    /// Total forward FLOPs for one sample.
    pub fn total_flops(&self) -> u64 {
        self.analyze().iter().map(|a| a.flops).sum::<u64>() + self.head.flops()
    }

    /// Forward FLOPs for one sample through units `0..=exit` only (used for
    /// early-exit throughput, Table 3).
    pub fn flops_until(&self, exit: usize) -> u64 {
        self.analyze().iter().take(exit + 1).map(|a| a.flops).sum()
    }

    /// Smallest and largest conv output-channel counts across units — the
    /// quantities the AAN rule halves (Section 3, Opportunity 1).
    pub fn channel_extremes(&self) -> (usize, usize) {
        let mut min_ch = usize::MAX;
        let mut max_ch = 0;
        for u in &self.units {
            min_ch = min_ch.min(u.out_channels());
            max_ch = max_ch.max(u.out_channels());
        }
        if min_ch == usize::MAX {
            (0, 0)
        } else {
            (min_ch, max_ch)
        }
    }

    /// Returns a channel-scaled copy (each channel count multiplied by
    /// `scale`, minimum 1, rounded to a multiple of `granularity`), keeping
    /// input geometry and classes. Used to shrink models for CPU training
    /// runs; documented as a substitution in `DESIGN.md` §2.
    pub fn scale_channels(&self, scale: f64, granularity: usize) -> ModelSpec {
        let g = granularity.max(1);
        let s = |ch: usize| -> usize {
            let scaled = ((ch as f64 * scale).round() as usize).max(1);
            scaled.div_ceil(g) * g
        };
        let in_ch0 = self.input.0;
        let units = self
            .units
            .iter()
            .map(|u| {
                let kind = match u.kind {
                    LayerKind::Conv {
                        in_ch,
                        out_ch,
                        kernel,
                        stride,
                        pad,
                        pool,
                    } => LayerKind::Conv {
                        in_ch: if in_ch == in_ch0 { in_ch } else { s(in_ch) },
                        out_ch: s(out_ch),
                        kernel,
                        stride,
                        pad,
                        pool,
                    },
                    LayerKind::Residual {
                        in_ch,
                        out_ch,
                        stride,
                    } => LayerKind::Residual {
                        in_ch: if in_ch == in_ch0 { in_ch } else { s(in_ch) },
                        out_ch: s(out_ch),
                        stride,
                    },
                    LayerKind::DepthwiseSeparable {
                        in_ch,
                        out_ch,
                        stride,
                    } => LayerKind::DepthwiseSeparable {
                        in_ch: if in_ch == in_ch0 { in_ch } else { s(in_ch) },
                        out_ch: s(out_ch),
                        stride,
                    },
                };
                UnitSpec { kind }
            })
            .collect::<Vec<_>>();
        // Recompute the head over the scaled feature shape.
        let mut scaled = ModelSpec {
            name: format!("{}-x{scale}", self.name),
            input: self.input,
            classes: self.classes,
            units,
            head: self.head,
        };
        let (c, h, w) = scaled.final_feature_shape();
        scaled.head = match self.head {
            HeadSpec::Linear { .. } => HeadSpec::Linear {
                in_features: c * h * w,
                classes: self.classes,
            },
            HeadSpec::GapLinear { .. } => HeadSpec::GapLinear {
                in_ch: c,
                classes: self.classes,
            },
        };
        scaled
    }

    /// Returns a copy with a different square input resolution, recomputing
    /// the head geometry. A resolution that collapses to zero spatial
    /// extent anywhere in the stack (too many downsampling stages for the
    /// requested size) is a typed error, never a panic.
    pub fn try_with_input_size(&self, hw: usize) -> Result<ModelSpec, SpecError> {
        let mut out = self.clone();
        out.input = (self.input.0, hw, hw);
        let (c, h, w) = out.final_feature_shape();
        if h == 0 || w == 0 {
            return Err(SpecError::CollapsedResolution {
                hw,
                name: self.name.clone(),
            });
        }
        out.head = match self.head {
            HeadSpec::Linear { .. } => HeadSpec::Linear {
                in_features: c * h * w,
                classes: self.classes,
            },
            HeadSpec::GapLinear { .. } => HeadSpec::GapLinear {
                in_ch: c,
                classes: self.classes,
            },
        };
        Ok(out)
    }
}

/// Errors from spec geometry transformations driven by user input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The requested input resolution reaches zero spatial extent
    /// somewhere in the stack (too many downsampling stages).
    CollapsedResolution {
        /// The requested square input size.
        hw: usize,
        /// The model whose geometry rejected it.
        name: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::CollapsedResolution { hw, name } => write!(
                f,
                "input size {hw} collapses to zero spatial extent in {name} \
                 (too many downsampling stages for that resolution)"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_unit_analytics() {
        let u = UnitSpec {
            kind: LayerKind::Conv {
                in_ch: 3,
                out_ch: 64,
                kernel: 3,
                stride: 1,
                pad: 1,
                pool: false,
            },
        };
        assert_eq!(u.out_hw(32, 32), (32, 32));
        assert_eq!(u.params(), 64 * 27 + 64 + 128);
        assert_eq!(u.flops(32, 32), 2 * 64 * 27 * 1024);
        assert!(!u.downsamples());
    }

    #[test]
    fn pooled_conv_halves_resolution() {
        let u = UnitSpec {
            kind: LayerKind::Conv {
                in_ch: 64,
                out_ch: 128,
                kernel: 3,
                stride: 1,
                pad: 1,
                pool: true,
            },
        };
        assert_eq!(u.out_hw(32, 32), (16, 16));
        assert!(u.downsamples());
    }

    #[test]
    fn residual_unit_params_match_formula() {
        let identity = UnitSpec {
            kind: LayerKind::Residual {
                in_ch: 64,
                out_ch: 64,
                stride: 1,
            },
        };
        // Two 3x3 convs with bias + 2 BNs.
        assert_eq!(identity.params(), 2 * (64 * 64 * 9 + 64 + 128));
        let proj = UnitSpec {
            kind: LayerKind::Residual {
                in_ch: 64,
                out_ch: 128,
                stride: 2,
            },
        };
        assert!(proj.params() > identity.params());
        assert_eq!(proj.out_hw(32, 32), (16, 16));
    }

    #[test]
    fn analyze_tracks_downsample_boundary() {
        let spec = ModelSpec::vgg16(10);
        let a = spec.analyze();
        // VGG-16: first pool is after unit 1 (second conv).
        assert!(!a[0].after_first_downsample);
        assert!(!a[1].after_first_downsample);
        assert!(a[2].after_first_downsample);
        // Shapes chain correctly.
        for win in a.windows(2) {
            assert_eq!(win[0].out_shape.0, win[1].in_shape.0);
        }
    }

    #[test]
    fn channel_extremes_vgg() {
        let (lo, hi) = ModelSpec::vgg19(10).channel_extremes();
        assert_eq!((lo, hi), (64, 512));
    }

    #[test]
    fn scale_channels_shrinks_params() {
        let full = ModelSpec::vgg16(10);
        let quarter = full.scale_channels(0.25, 4);
        assert!(quarter.total_params() < full.total_params() / 8);
        // Input channels stay 3.
        assert_eq!(quarter.units[0].in_channels(), 3);
        assert_eq!(quarter.classes, 10);
        // Chaining is consistent.
        let a = quarter.analyze();
        for win in a.windows(2) {
            assert_eq!(win[0].out_shape.0, win[1].in_shape.0);
        }
    }

    #[test]
    fn with_input_size_recomputes_head() {
        let spec = ModelSpec::resnet18(10).try_with_input_size(64).unwrap();
        let (c, h, w) = spec.final_feature_shape();
        assert_eq!(c, 512);
        assert_eq!((h, w), (8, 8));
        assert!(
            matches!(
                spec.head,
                HeadSpec::GapLinear {
                    in_ch: 512,
                    classes: 10
                }
            ),
            "resnet head must be gap+linear, got {:?}",
            spec.head
        );
    }

    #[test]
    fn try_with_input_size_surfaces_collapse_as_typed_error() {
        // VGG-19 has 5 pools: 8x8 input collapses to zero.
        let err = ModelSpec::vgg19(10).try_with_input_size(8).unwrap_err();
        assert_eq!(
            err,
            SpecError::CollapsedResolution {
                hw: 8,
                name: "vgg19".into()
            }
        );
        assert!(err.to_string().contains("collapses"), "{err}");
    }

    #[test]
    fn flops_until_is_monotone() {
        let spec = ModelSpec::vgg11(10);
        let mut prev = 0;
        for i in 0..spec.num_units() {
            let f = spec.flops_until(i);
            assert!(f > prev);
            prev = f;
        }
        assert!(spec.total_flops() > prev);
    }
}
