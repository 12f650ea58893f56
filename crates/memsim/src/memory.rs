//! Analytic GPU memory model (fp32).
//!
//! Components, per Section 2.2 / Figure 1 of the paper:
//!
//! - **model** — parameter bytes resident on the accelerator;
//! - **optimizer** — gradient + momentum buffers (2× parameters for
//!   momentum SGD);
//! - **activations** — everything batch-dependent: retained layer outputs
//!   (BP) and transient in/out/gradient buffers (all paradigms). The conv
//!   lowering workspace is priced apart
//!   ([`ll_unit_workspace_bytes_per_sample`]) and budgeted by no plan.
//!
//! The batch-dependent term is **linear in batch size** by construction,
//! which is the empirical observation (Figure 8) the NeuroFlux Profiler
//! turns into per-layer linear predictors. The copy counts behind it are
//! documented constants ([`BP_RETAINED_COPIES`], [`GRAD_COPIES`],
//! [`OPTIMIZER_STATES`], [`BYTES_PER_ELEM`]).

use nf_models::{AuxSpec, LayerKind, ModelSpec, UnitAnalytics};

/// Which local-learning regime memory is being modelled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingParadigm {
    /// Local learning: one unit + its auxiliary head at a time, but the
    /// whole model (and every auxiliary network) resident on the
    /// accelerator, as in classic LL implementations.
    LocalLearning,
    /// NeuroFlux block mode: only the active block (+ its auxiliary heads)
    /// is resident; other blocks live in storage.
    BlockLocal,
}

/// Storage cost model for one activation-cache codec: how many bytes the
/// cache is charged per cached element, plus any per-channel side table.
///
/// This is the analytic twin of `neuroflux-core`'s `ActivationCodec`
/// implementations, so memsim's sweep accounting sees the
/// same **encoded** byte counts a real run's `bytes_stored()` reports:
///
/// | codec | bytes/elem | per-channel overhead |
/// |---|---|---|
/// | `f32` | 4 | 0 |
/// | `f16` | 2 | 0 |
/// | `int8` | 1 | 8 (scale + offset, f32 each) |
///
/// # Examples
///
/// ```
/// use nf_memsim::CacheCostModel;
///
/// let int8 = CacheCostModel::int8_affine();
/// // 1 MB of f32 activations encodes to ~0.25 MB under int8.
/// let encoded = int8.encoded_bytes(250_000, 64);
/// assert!(encoded < 251_000);
/// assert_eq!(CacheCostModel::f32_raw().encoded_bytes(250_000, 64), 1_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheCostModel {
    /// Encoded bytes per cached tensor element.
    pub bytes_per_elem: f64,
    /// Fixed side-table bytes per quantization channel (0 for the
    /// non-quantized codecs).
    pub per_channel_overhead_bytes: f64,
}

impl CacheCostModel {
    /// Bit-exact f32 storage (4 bytes/element), the default codec.
    pub fn f32_raw() -> Self {
        CacheCostModel {
            bytes_per_elem: 4.0,
            per_channel_overhead_bytes: 0.0,
        }
    }

    /// IEEE binary16 storage (2 bytes/element).
    pub fn f16() -> Self {
        CacheCostModel {
            bytes_per_elem: 2.0,
            per_channel_overhead_bytes: 0.0,
        }
    }

    /// Per-channel affine u8 quantization (1 byte/element + 8 bytes of
    /// scale/offset per channel).
    pub fn int8_affine() -> Self {
        CacheCostModel {
            bytes_per_elem: 1.0,
            per_channel_overhead_bytes: 8.0,
        }
    }

    /// Encoded bytes for caching `elems` tensor elements spread over
    /// `channels` quantization channels.
    pub fn encoded_bytes(&self, elems: u64, channels: u64) -> u64 {
        (elems as f64 * self.bytes_per_elem + channels as f64 * self.per_channel_overhead_bytes)
            as u64
    }
}

/// A memory footprint split into the paper's three components (bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryBreakdown {
    /// Batch-dependent activation/workspace bytes.
    pub activations: u64,
    /// Parameter bytes.
    pub model: u64,
    /// Optimizer bytes (gradients + momentum).
    pub optimizer: u64,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.activations + self.model + self.optimizer
    }
}

/// A training footprint as a line in the batch size, `bytes(batch) =
/// intercept + slope · batch` — the two coefficients per layer the
/// paper's Profiler fits (Figure 8) and Algorithm 1 divides the budget by.
///
/// # Examples
///
/// ```
/// use nf_memsim::LinearMemoryModel;
///
/// let line = LinearMemoryModel { intercept: 1000.0, slope: 10.0 };
/// assert_eq!(line.predict(10), 1100.0);
/// assert_eq!(line.max_batch(1100), Some(10));
/// assert_eq!(line.max_batch(1009), None); // batch 1 needs 1010 bytes
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearMemoryModel {
    /// Bytes at batch 0 (parameters + optimizer state).
    pub intercept: f64,
    /// Bytes per additional sample.
    pub slope: f64,
}

impl LinearMemoryModel {
    /// Predicted bytes at `batch`.
    pub fn predict(&self, batch: usize) -> f64 {
        self.intercept + self.slope * batch as f64
    }

    /// Largest batch fitting `budget_bytes` (`None` if even batch 1 does
    /// not fit): the one place a budget is divided by a per-sample slope
    /// (Figure 6, lines 2–4 of Algorithm 1).
    pub fn max_batch(&self, budget_bytes: u64) -> Option<usize> {
        let headroom = budget_bytes as f64 - self.intercept;
        if headroom < 0.0 {
            return None;
        }
        if self.slope <= 0.0 {
            return Some(usize::MAX);
        }
        let batch = (headroom / self.slope).floor() as usize;
        (batch > 0).then_some(batch)
    }
}

/// Bytes per tensor element (4 = fp32).
pub const BYTES_PER_ELEM: u64 = 4;

/// Retained copies of each unit output under BP. A PyTorch-style stack
/// keeps the conv output, batch-norm output, ReLU output, and pool
/// bookkeeping alive per block, holds gradient buffers for the autograd
/// graph during the backward sweep, and pays caching-allocator high-water
/// marks on top. The value 12.0 is calibrated once so the VGG-19 batch-256
/// activation footprint lands in the multi-GB regime Figure 1 measures
/// (~2.6 GB here vs ~3.2 GB in the paper).
pub const BP_RETAINED_COPIES: f64 = 12.0;

/// Copies of the in/out/auxiliary activations alive while locally training
/// one unit (forward chain copies + their gradients); 6.0 is the same
/// per-layer copy count the BP constant charges, which makes classic-LL
/// footprints track BP's as Figure 4 observes.
pub const GRAD_COPIES: f64 = 6.0;

/// Optimizer state per parameter (2.0 = gradient + momentum).
pub const OPTIMIZER_STATES: f64 = 2.0;

/// Elements of one sample padded by `pad` on every spatial side.
fn padded_elems(c: usize, h: usize, w: usize, pad: usize) -> usize {
    c * (h + 2 * pad) * (w + 2 * pad)
}

/// Workspace elements per sample for one unit, as its layers reserve them
/// in their shared `nf_tensor::Workspace` (DESIGN.md §8):
///
/// - the **lowering slot** — the padded copy of a conv's input that an
///   eval forward's gathered GEMM reads (`nf_nn::Conv2d`; a training
///   forward pads into the layer's own cache instead, which its weight
///   gradient reads again). A unit's convs run one after
///   another through the same grow-only slot, so the unit needs the
///   largest of them; unpadded (1×1) convs gather straight from their
///   input and need nothing;
/// - the **hand-off buffers** its chain passes activations through from
///   one layer to the next (`nf_nn::Sequential` takes two, a residual
///   block three), each as large as the widest activation inside the
///   unit. The unit's own input and output are the caller's tensors and
///   are counted with the transients, not here.
///
/// That is all a forward pass reserves per sample: the GEMM writes a
/// conv's output into its hand-off buffer as NCHW, so no position-row
/// copy of it exists (`tests/workspace_model.rs` holds the arenas to this
/// term to the byte). What the kernel keeps beside it is a fixed group of
/// output rows (64 × `C_out` floats) — part of the intercept, not of this
/// slope.
fn workspace_elems(unit_kind: LayerKind, a: &UnitAnalytics) -> usize {
    let (in_c, in_h, in_w) = a.in_shape;
    let (out_c, out_h, out_w) = a.out_shape;
    match unit_kind {
        LayerKind::Conv {
            kernel,
            stride,
            pad,
            ..
        } => {
            // conv → bn → relu (→ pool): everything handed on inside the
            // unit has the conv's output shape, before any pooling.
            let conv_out = |d: usize| (d + 2 * pad).saturating_sub(kernel) / stride + 1;
            padded_elems(in_c, in_h, in_w, pad) + 2 * out_c * conv_out(in_h) * conv_out(in_w)
        }
        LayerKind::Residual { .. } => {
            // conv1 pads the unit input, conv2 the block's inner
            // activation; the projection shortcut is 1×1. Main branch,
            // its ping-pong partner and the shortcut are all output-sized.
            padded_elems(in_c, in_h, in_w, 1).max(padded_elems(out_c, out_h, out_w, 1))
                + 3 * a.out_elems
        }
        // The 3×3 stage pads the unit input; the pointwise stage is 1×1.
        // The 3×3 stage keeps the input's channels at the output's size.
        LayerKind::DepthwiseSeparable { .. } => {
            padded_elems(in_c, in_h, in_w, 1) + 2 * in_c.max(out_c) * out_h * out_w
        }
    }
}

/// Auxiliary-head workspace elements per sample: its 3×3 conv's padded
/// input (the padded output gradient of its backward pass is smaller) and
/// the two hand-off buffers of its conv → relu → pool → linear chain, each
/// the conv's output.
fn aux_workspace_elems(aux: &AuxSpec) -> usize {
    let (h, w) = aux.in_hw;
    padded_elems(aux.in_ch, h, w, 1) + 2 * aux.filters * h * w
}

fn param_bytes(params: usize) -> u64 {
    params as u64 * BYTES_PER_ELEM
}

fn optimizer_bytes(params: usize) -> u64 {
    (params as f64 * OPTIMIZER_STATES) as u64 * BYTES_PER_ELEM
}

/// Inference memory: parameters + the largest transient (input + output)
/// across units.
///
/// Lowering workspaces are *not* counted for inference: a forward-only
/// convolution can stream patch columns instead of materialising them,
/// which is what inference runtimes do — and why training-vs-inference
/// memory gaps (Figure 1's ×22.9/×37.6 annotations) are so large.
pub fn inference(spec: &ModelSpec, batch: usize) -> MemoryBreakdown {
    let peak_transient = spec
        .analyze()
        .iter()
        .map(|a| a.in_elems + a.out_elems)
        .max()
        .unwrap_or(0);
    MemoryBreakdown {
        activations: (peak_transient * batch) as u64 * BYTES_PER_ELEM,
        model: param_bytes(spec.total_params()),
        optimizer: 0,
    }
}

/// End-to-end BP training memory: every unit output retained
/// (×[`BP_RETAINED_COPIES`]) plus the input, plus parameters and optimizer
/// state for the whole model.
pub fn bp_training(spec: &ModelSpec, batch: usize) -> MemoryBreakdown {
    let input_elems = spec.input.0 * spec.input.1 * spec.input.2;
    let retained: f64 = spec
        .analyze()
        .iter()
        .map(|a| a.out_elems as f64 * BP_RETAINED_COPIES)
        .sum::<f64>()
        + input_elems as f64;
    MemoryBreakdown {
        activations: (retained * batch as f64) as u64 * BYTES_PER_ELEM,
        model: param_bytes(spec.total_params()),
        optimizer: optimizer_bytes(spec.total_params()),
    }
}

/// Batch-dependent activation bytes for locally training unit `a.index`
/// with head `aux` — the **slope** of the per-layer linear model.
pub fn ll_unit_activation_bytes_per_sample(a: &UnitAnalytics, aux: &AuxSpec) -> f64 {
    let transient = (a.in_elems + a.out_elems + aux.activation_elems()) as f64 * GRAD_COPIES;
    transient * BYTES_PER_ELEM as f64
}

/// Per-sample bytes of the layers' shared workspace while unit `a.index`
/// and head `aux` run: the padded input copy an implicit-GEMM convolution
/// reads (`nf_nn::Conv2d`; no materialised patch matrix) and the hand-off
/// buffers a chain of layers passes its activations through
/// (`nf_nn::Sequential`). Not part of the slope: the paper budgets
/// activations, and the partitioner's block plans are sized without it.
pub fn ll_unit_workspace_bytes_per_sample(
    spec: &ModelSpec,
    a: &UnitAnalytics,
    aux: &AuxSpec,
) -> f64 {
    let unit_kind = spec.units[a.index].kind;
    (workspace_elems(unit_kind, a) + aux_workspace_elems(aux)) as f64 * BYTES_PER_ELEM as f64
}

/// Local-learning memory for training unit `a.index` at `batch`.
///
/// Under [`TrainingParadigm::LocalLearning`] the whole backbone *and every
/// auxiliary head* stay resident — classic LL constructs the full model
/// with all its heads on the accelerator, which is why the paper observes
/// classic LL using *more* GPU memory than BP (Section 3, Opportunity 1).
/// Under [`TrainingParadigm::BlockLocal`] only the current unit and its
/// head are resident (NeuroFlux evicts everything else to storage and
/// skips forward passes over trained blocks).
pub fn ll_unit_training(
    spec: &ModelSpec,
    a: &UnitAnalytics,
    all_aux: &[AuxSpec],
    batch: usize,
    paradigm: TrainingParadigm,
) -> MemoryBreakdown {
    let aux = &all_aux[a.index];
    let act = ll_unit_activation_bytes_per_sample(a, aux) * batch as f64;
    let resident_params = match paradigm {
        TrainingParadigm::BlockLocal => a.params + aux.params(),
        TrainingParadigm::LocalLearning => {
            spec.total_params() + all_aux.iter().map(|x| x.params()).sum::<usize>()
        }
    };
    MemoryBreakdown {
        activations: act as u64,
        model: param_bytes(resident_params),
        optimizer: optimizer_bytes(resident_params),
    }
}

/// [`ll_unit_training`] as a line: its bytes at batch 0 plus
/// [`ll_unit_activation_bytes_per_sample`] per sample.
pub fn ll_unit_line(
    spec: &ModelSpec,
    a: &UnitAnalytics,
    all_aux: &[AuxSpec],
    paradigm: TrainingParadigm,
) -> LinearMemoryModel {
    LinearMemoryModel {
        intercept: ll_unit_training(spec, a, all_aux, 0, paradigm).total() as f64,
        slope: ll_unit_activation_bytes_per_sample(a, &all_aux[a.index]),
    }
}

/// A whole-model footprint as a line: its bytes at batch 0 plus the
/// bytes one sample adds.
fn line_of(bytes: impl Fn(usize) -> MemoryBreakdown) -> LinearMemoryModel {
    let fixed = bytes(0).total();
    LinearMemoryModel {
        intercept: fixed as f64,
        slope: (bytes(1).total() - fixed) as f64,
    }
}

/// [`bp_training`] as a line (BP's, and feedback alignment's, which
/// keeps the same state).
pub fn bp_line(spec: &ModelSpec) -> LinearMemoryModel {
    line_of(|batch| bp_training(spec, batch))
}

/// [`inference`] as a line: the footprint signal propagation trains in
/// (forward passes only, no optimizer state).
pub fn inference_line(spec: &ModelSpec) -> LinearMemoryModel {
    line_of(|batch| inference(spec, batch))
}

/// Peak local-learning memory across all units at a fixed batch, with the
/// index of the binding unit (Figure 4's curve / Figure 5's bars).
pub fn ll_training_peak(
    spec: &ModelSpec,
    all_aux: &[AuxSpec],
    batch: usize,
    paradigm: TrainingParadigm,
) -> (MemoryBreakdown, usize) {
    let mut best = MemoryBreakdown::default();
    let mut arg = 0usize;
    for a in &spec.analyze() {
        let m = ll_unit_training(spec, a, all_aux, batch, paradigm);
        if m.total() > best.total() {
            best = m;
            arg = a.index;
        }
    }
    (best, arg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_models::{assign_aux, AuxPolicy};
    use proptest::prelude::*;

    fn vgg19_aan() -> (ModelSpec, Vec<AuxSpec>) {
        let spec = ModelSpec::vgg19(200);
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        (spec, aux)
    }

    #[test]
    fn activations_dominate_bp_training_at_large_batch() {
        // Figure 1's headline: at batch 256 the activation slice dwarfs
        // model + optimizer.
        let spec = ModelSpec::vgg19(200);
        let bp = bp_training(&spec, 256);
        assert!(bp.activations > 4 * (bp.model + bp.optimizer));
    }

    #[test]
    fn bp_training_far_exceeds_inference() {
        // Figure 1 annotates training at 22.9x (VGG-19) and 37.6x
        // (ResNet-18) the inference footprint at batch 256.
        for (spec, lo, hi) in [
            (ModelSpec::vgg19(200), 4.0, 60.0),
            (ModelSpec::resnet18(200), 4.0, 80.0),
        ] {
            let ratio =
                bp_training(&spec, 256).total() as f64 / inference(&spec, 256).total() as f64;
            assert!(
                (lo..hi).contains(&ratio),
                "{}: train/inference ratio {ratio}",
                spec.name
            );
        }
    }

    #[test]
    fn ll_memory_is_linear_in_batch() {
        // Figure 8: per-layer memory is linear in batch size.
        let (spec, aux) = vgg19_aan();
        let analytics = spec.analyze();
        for a in &analytics {
            let at10 =
                ll_unit_training(&spec, a, &aux, 10, TrainingParadigm::BlockLocal).activations;
            let at20 =
                ll_unit_training(&spec, a, &aux, 20, TrainingParadigm::BlockLocal).activations;
            let at40 =
                ll_unit_training(&spec, a, &aux, 40, TrainingParadigm::BlockLocal).activations;
            // Equal increments for equal batch increments: slope is constant.
            let d1 = (at20 - at10) as f64;
            let d2 = (at40 - at20) as f64 / 2.0;
            assert!((d1 - d2).abs() <= 8.0, "non-linear: {d1} vs {d2}");
            assert!((at40 as f64 / at10 as f64 - 4.0).abs() < 0.01);
        }
    }

    #[test]
    fn early_units_bind_the_ll_peak() {
        // Figure 5: an initial layer (index ≤ 2) dominates GPU memory.
        let (spec, aux) = vgg19_aan();
        let (_, arg) = ll_training_peak(&spec, &aux, 30, TrainingParadigm::BlockLocal);
        assert!(arg <= 2, "peak at unit {arg}");
    }

    #[test]
    fn aan_beats_classic_ll_memory() {
        // Figure 4's ordering at any batch: AAN-LL < classic LL, and both
        // below BP at training batch sizes.
        let spec = ModelSpec::vgg19(200);
        let aan = assign_aux(&spec, AuxPolicy::Adaptive);
        let classic = assign_aux(&spec, AuxPolicy::CLASSIC);
        for batch in [10, 30, 50, 70, 90] {
            let a = ll_training_peak(&spec, &aan, batch, TrainingParadigm::LocalLearning)
                .0
                .total();
            let c = ll_training_peak(&spec, &classic, batch, TrainingParadigm::LocalLearning)
                .0
                .total();
            let bp = bp_training(&spec, batch).total();
            let inf = inference(&spec, batch).total();
            assert!(a < c, "batch {batch}: AAN {a} !< classic {c}");
            // Section 3: "the GPU memory used during classic LL training is
            // noted to be higher than BP" — true at the small-batch
            // operating points those measurements use; at large batches
            // BP's much steeper slope overtakes (Figure 4's BP curve is the
            // steepest).
            if batch <= 50 {
                assert!(c > bp, "batch {batch}: classic {c} !> bp {bp}");
            }
            // AAN's flat slope beats BP's steep one once batches reach
            // training sizes (at very small batches AAN's resident auxiliary
            // parameters dominate).
            if batch >= 30 {
                assert!(a < bp, "batch {batch}: AAN {a} !< bp {bp}");
            }
            assert!(inf < a, "batch {batch}: inference {inf} !< AAN {a}");
        }
    }

    #[test]
    fn block_local_slashes_resident_params() {
        let (spec, aux) = vgg19_aan();
        let analytics = spec.analyze();
        let classic = ll_unit_training(
            &spec,
            &analytics[3],
            &aux,
            8,
            TrainingParadigm::LocalLearning,
        );
        let block = ll_unit_training(&spec, &analytics[3], &aux, 8, TrainingParadigm::BlockLocal);
        assert!(block.model * 5 < classic.model);
        assert_eq!(block.activations, classic.activations);
    }

    #[test]
    fn cache_cost_models_match_codec_formats() {
        // 1000 elements over 10 channels, per the core codecs' layouts.
        assert_eq!(CacheCostModel::f32_raw().encoded_bytes(1000, 10), 4000);
        assert_eq!(CacheCostModel::f16().encoded_bytes(1000, 10), 2000);
        assert_eq!(CacheCostModel::int8_affine().encoded_bytes(1000, 10), 1080);
    }

    const MB: u64 = 1_000_000;

    /// Every unit's largest feasible batch under `budget` (Figure 6's bars).
    fn max_batches(
        spec: &ModelSpec,
        aux: &[AuxSpec],
        budget: u64,
        paradigm: TrainingParadigm,
    ) -> Vec<Option<usize>> {
        let line = |a| ll_unit_line(spec, a, aux, paradigm).max_batch(budget);
        spec.analyze().iter().map(line).collect()
    }

    #[test]
    fn max_batch_inverts_prediction() {
        let m = LinearMemoryModel {
            intercept: 1000.0,
            slope: 10.0,
        };
        assert_eq!(m.max_batch(1100), Some(10));
        assert_eq!(m.max_batch(1009), None);
        assert_eq!(m.max_batch(2000), Some(100));
        let flat = LinearMemoryModel {
            intercept: 10.0,
            slope: 0.0,
        };
        assert_eq!(flat.max_batch(100), Some(usize::MAX));
    }

    #[test]
    fn later_units_afford_larger_batches() {
        // Figure 6: feasible batch grows (non-strictly) toward deeper
        // layers by orders of magnitude.
        let (spec, aux) = vgg19_aan();
        let batches = max_batches(&spec, &aux, 630 * MB, TrainingParadigm::BlockLocal);
        let first = batches[0].unwrap();
        let last = batches.last().unwrap().unwrap();
        assert!(
            last > first * 10,
            "deep units should dwarf early ones: {first} vs {last}"
        );
    }

    #[test]
    fn bp_has_a_hard_floor() {
        // The fixed model+optimizer bytes alone exceed small budgets —
        // exactly why Figure 11 has no BP points at low budgets.
        let spec = ModelSpec::vgg16(10);
        assert!(bp_line(&spec).max_batch(100 * MB).is_none());
        assert!(bp_line(&spec).max_batch(500 * MB).is_some());
    }

    #[test]
    fn block_local_fits_where_classic_ll_cannot() {
        // Observation 2: NeuroFlux trains under budgets unattainable by
        // classic LL (whole model resident).
        let spec = ModelSpec::vgg16(10);
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        let budget = 100 * MB;
        let classic = max_batches(&spec, &aux, budget, TrainingParadigm::LocalLearning)[0];
        let block = max_batches(&spec, &aux, budget, TrainingParadigm::BlockLocal)[0];
        assert!(classic.is_none(), "classic LL should not fit 100 MB");
        assert!(block.is_some(), "NeuroFlux block mode should fit 100 MB");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn reported_batch_fits_and_is_maximal(
            budget_mb in 40u64..2000,
            unit in 0usize..8,
        ) {
            let spec = ModelSpec::vgg11(10);
            let aux = assign_aux(&spec, AuxPolicy::Adaptive);
            let budget = budget_mb * MB;
            let analytics = spec.analyze();
            let line = ll_unit_line(&spec, &analytics[unit], &aux, TrainingParadigm::BlockLocal);
            if let Some(b) = line.max_batch(budget) {
                let fits = ll_unit_training(&spec, &analytics[unit], &aux, b, TrainingParadigm::BlockLocal)
                    .total();
                prop_assert!(fits <= budget, "batch {b} does not fit: {fits} > {budget}");
                let over = ll_unit_training(&spec, &analytics[unit], &aux, b + 1, TrainingParadigm::BlockLocal)
                    .total();
                prop_assert!(over > budget, "batch {} also fits: {over} <= {budget}", b + 1);
            }
        }
    }

    #[test]
    fn inference_needs_no_optimizer() {
        let spec = ModelSpec::vgg16(10);
        assert_eq!(inference(&spec, 8).optimizer, 0);
    }
}
