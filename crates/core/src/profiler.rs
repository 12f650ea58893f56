//! The Profiler (§1): one linear memory model per unit.
//!
//! The paper's Profiler assigns auxiliary networks (AAN-LL), benchmarks
//! the GPU memory needed to train each unit at a handful of batch sizes,
//! and fits `mem(batch) = intercept + slope · batch` per unit — the
//! relationship is linear (Figure 8), so two coefficients per layer
//! suffice. Here the memory backend is the `nf-memsim` model standing in
//! for a real GPU (DESIGN.md §2), which is affine by construction, so the
//! line is read off it in closed form
//! ([`nf_memsim::memory::ll_unit_line`]) rather than fitted to samples.
//!
//! [`profile`] is the seam a measured backend plugs into: lines in,
//! blocks out — only where the lines come from would change, and
//! [`crate::partitioner::plan`] would partition them as it does these.

use nf_memsim::{memory, timing, LinearMemoryModel, TrainingParadigm};
use nf_models::{assign_aux, AuxPolicy, ModelSpec};

/// Batch sizes the paper's Profiler benchmarks each unit at.
const PROBE_BATCHES: [usize; 5] = [4, 8, 16, 32, 64];

/// Assigns auxiliary heads under `policy` and returns one training line
/// per unit, in unit order: block-local for NeuroFlux's plan, whole model
/// resident ([`TrainingParadigm::LocalLearning`]) for the LL baselines.
pub fn profile(
    spec: &ModelSpec,
    policy: AuxPolicy,
    paradigm: TrainingParadigm,
) -> Vec<LinearMemoryModel> {
    let aux = assign_aux(spec, policy);
    let line = |a| memory::ll_unit_line(spec, a, &aux, paradigm);
    spec.analyze().iter().map(line).collect()
}

/// FLOPs the paper's Profiler spends benchmarking (one forward+backward
/// per probe batch per unit) — the numerator of its "< 1.5 % of training
/// time" overhead claim (§6.4).
pub fn profiling_flops(spec: &ModelSpec, policy: AuxPolicy) -> f64 {
    let aux = assign_aux(spec, policy);
    let probe_samples: usize = PROBE_BATCHES.iter().sum();
    (0..spec.num_units())
        .map(|u| timing::unit_train_flops(spec, u, &aux[u]) * probe_samples as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_measurements_fit_perfectly() {
        // Figure 8: the memory/batch relationship is linear, so every
        // footprint the probe schedule would measure lies on the unit's
        // line (to the byte the footprint truncates).
        let spec = ModelSpec::vgg11(10);
        let lines = profile(&spec, AuxPolicy::Adaptive, TrainingParadigm::BlockLocal);
        assert_eq!(lines.len(), 8);
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        for (a, line) in spec.analyze().iter().zip(&lines) {
            for b in PROBE_BATCHES {
                let bytes =
                    memory::ll_unit_training(&spec, a, &aux, b, TrainingParadigm::BlockLocal);
                let off = (line.predict(b) - bytes.total() as f64).abs();
                assert!(off < 1.0, "unit {} batch {b} off by {off} B", a.index);
            }
        }
    }

    #[test]
    fn profiling_cost_is_small_fraction_of_training() {
        // §6.4: profiler + partitioner overhead < 1.5 % of training time.
        let spec = ModelSpec::vgg16(100);
        let profile_flops = profiling_flops(&spec, AuxPolicy::Adaptive);
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        // One epoch over a CIFAR-sized training set.
        let train_flops = timing::ll_train_flops_per_sample(&spec, &aux) * 50_000.0;
        let frac = profile_flops / train_flops;
        assert!(frac < 0.015, "profiling fraction {frac}");
    }
}
