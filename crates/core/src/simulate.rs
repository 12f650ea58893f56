//! Simulated-time training (Figures 11 & 12, Observations 1–3).
//!
//! Runs the *real* Profiler + Partitioner over full-size architectures and
//! prices wall-clock training time with the `nf-memsim` device and timing
//! models: compute (FLOPs / sustained throughput), per-batch overhead, and
//! activation-cache I/O. BP and classic LL are priced with the same
//! constants, so every comparison is apples-to-apples; only the batch
//! sizes, resident sets, and cache traffic differ — which is exactly the
//! paper's claim about where NeuroFlux's speedup comes from.

use crate::partitioner::{feasible_batches, plan, Block};
use crate::profiler::profile;
use crate::{NeuroFluxConfig, Result};
use nf_memsim::{memory, timing, DeviceProfile, LinearMemoryModel, TrainingParadigm};
use nf_models::{assign_aux, AuxPolicy, ModelSpec};

/// Simulated cost of one full training run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimulatedRun {
    /// Seconds of pure compute.
    pub compute_s: f64,
    /// Seconds of per-batch overhead.
    pub overhead_s: f64,
    /// Seconds of storage I/O (activation cache).
    pub io_s: f64,
    /// Batch size(s) used: single batch for BP/LL, per-block for NeuroFlux.
    pub batches: Vec<usize>,
    /// Total **encoded** activation-cache bytes written (NeuroFlux only;
    /// shrinks under a quantizing cache codec).
    pub cache_bytes_written: u64,
    /// Peak encoded cache bytes simultaneously resident (at most two
    /// adjacent blocks' outputs coexist: the input being consumed and the
    /// output being written).
    pub cache_peak_bytes: u64,
    /// Seconds the activation cache saves (NeuroFlux only): the forward
    /// passes over trained blocks it skips — without it every block
    /// re-runs all earlier units over every sample each epoch — less the
    /// regeneration passes and exposed I/O it costs. `total_s() +
    /// cache_saved_s` prices the same plan without the cache.
    pub cache_saved_s: f64,
}

impl SimulatedRun {
    /// Total wall-clock seconds.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.overhead_s + self.io_s
    }

    /// Total wall-clock hours (the unit of Figure 11's y-axis).
    pub fn total_hours(&self) -> f64 {
        self.total_s() / 3600.0
    }
}

/// A whole-model run: every step at the one batch all of `lines` fit
/// ([`feasible_batches`]' minimum), no activation cache.
fn whole_model_run(
    lines: &[LinearMemoryModel],
    flops_per_sample: f64,
    device: &DeviceProfile,
    config: &NeuroFluxConfig,
    samples: usize,
) -> Result<SimulatedRun> {
    let feasible = feasible_batches(lines, config.budget_bytes, config.batch_limit)?;
    let batch = feasible.into_iter().min().unwrap_or(config.batch_limit);
    let epochs = config.epochs_per_block;
    let flops = flops_per_sample * samples as f64 * epochs as f64;
    let n_batches = samples.div_ceil(batch) * epochs;
    Ok(SimulatedRun {
        compute_s: flops / device.effective_flops(),
        overhead_s: n_batches as f64 * device.per_batch_overhead_s,
        batches: vec![batch],
        ..SimulatedRun::default()
    })
}

/// Simulates end-to-end BP training over `samples` for
/// `config.epochs_per_block` epochs; `Err(InfeasibleBudget)` when even
/// batch 1 exceeds the budget (Figure 11's missing BP points).
pub fn simulate_bp(
    spec: &ModelSpec,
    device: &DeviceProfile,
    config: &NeuroFluxConfig,
    samples: usize,
) -> Result<SimulatedRun> {
    let flops = timing::bp_train_flops_per_sample(spec);
    whole_model_run(&[memory::bp_line(spec)], flops, device, config, samples)
}

/// Simulates classic-LL training: the whole backbone is resident and one
/// fixed batch must fit **every** unit's local training footprint. Its
/// heads are [`AuxPolicy::CLASSIC`] whatever `config.aux_policy` says:
/// that is the paradigm.
pub fn simulate_classic_ll(
    spec: &ModelSpec,
    device: &DeviceProfile,
    config: &NeuroFluxConfig,
    samples: usize,
) -> Result<SimulatedRun> {
    let lines = profile(spec, AuxPolicy::CLASSIC, TrainingParadigm::LocalLearning);
    let flops = timing::ll_train_flops_per_sample(spec, &assign_aux(spec, AuxPolicy::CLASSIC));
    whole_model_run(&lines, flops, device, config, samples)
}

/// Simulates a NeuroFlux run: [`plan`] at `config.rho` under
/// `config.aux_policy`, the Controller's planning body, then
/// [`price_neuroflux`] over the plan.
pub fn simulate_neuroflux(
    spec: &ModelSpec,
    device: &DeviceProfile,
    config: &NeuroFluxConfig,
    samples: usize,
) -> Result<(SimulatedRun, Vec<Block>)> {
    let blocks = plan(spec, config)?;
    let run = price_neuroflux(spec, device, config, samples, &blocks);
    Ok((run, blocks))
}

/// Prices block-wise training of `blocks` (which tile `spec`'s units, as
/// the Partitioner returns them) over `samples` with adaptive batches,
/// `config.aux_policy` heads, cache regeneration passes, and storage I/O in
/// `config.cache_codec`'s encoded bytes.
pub fn price_neuroflux(
    spec: &ModelSpec,
    device: &DeviceProfile,
    config: &NeuroFluxConfig,
    samples: usize,
    blocks: &[Block],
) -> SimulatedRun {
    let aux = assign_aux(spec, config.aux_policy);
    let cache = config.cache_codec.cost_model();
    let epochs = config.epochs_per_block;
    let analytics = spec.analyze();

    let mut compute_s = 0.0;
    let mut overhead_s = 0.0;
    let mut io_s = 0.0;
    let mut cache_saved_s = 0.0;
    let mut cache_bytes = 0u64;
    let mut cache_peak = 0u64;
    let mut prev_block_bytes = 0u64;
    let n = samples as f64;
    for (bi, block) in blocks.iter().enumerate() {
        // Per-epoch block training: local fwd+bwd of each unit + aux.
        let block_train_flops: f64 = block
            .units
            .clone()
            .map(|u| timing::unit_train_flops(spec, u, &aux[u]))
            .sum();
        let block_compute = block_train_flops * n * epochs as f64 / device.effective_flops();
        compute_s += block_compute;
        let batches_per_epoch = samples.div_ceil(block.batch.max(1));
        overhead_s += (batches_per_epoch * epochs) as f64 * device.per_batch_overhead_s;
        // Reading cached inputs each epoch (block 0 reads the dataset,
        // already covered by per-batch overhead). The prefetcher (§3.2)
        // streams activations while the GPU trains, so only the I/O that
        // exceeds the block's compute time is exposed. Cache traffic is
        // priced in *encoded* bytes: a quantizing codec moves fewer bytes
        // over the storage link, which is part of its win on
        // bandwidth-starved devices.
        let mut read_excess = 0.0;
        if bi > 0 {
            let in_elems = analytics[block.units.start].in_elems as u64 * samples as u64;
            let in_channels = analytics[block.units.start].in_shape.0 as u64;
            let in_bytes = cache.encoded_bytes(in_elems, in_channels) as f64;
            let raw_io = in_bytes * epochs as f64 / device.storage_bw_bytes_s;
            read_excess = (raw_io - block_compute).max(0.0);
            io_s += read_excess;
        }
        // Final regeneration pass + cache write (§3.3); writes stream out
        // behind the forward pass, so only the excess is exposed.
        let fwd_flops: f64 = block.units.clone().map(|u| analytics[u].flops as f64).sum();
        let regen_compute = fwd_flops * n / device.effective_flops();
        compute_s += regen_compute;
        let out_analytics = &analytics[block.units.end - 1];
        let out_elems = out_analytics.out_elems as u64 * samples as u64;
        let out_channels = out_analytics.out_shape.0 as u64;
        let out_bytes = cache.encoded_bytes(out_elems, out_channels);
        let write_excess = (out_bytes as f64 / device.storage_bw_bytes_s - regen_compute).max(0.0);
        io_s += write_excess;
        cache_bytes += out_bytes;
        // At most two adjacent blocks' caches coexist: the consumed input
        // survives until this block's output is durable.
        cache_peak = cache_peak.max(prev_block_bytes + out_bytes);
        prev_block_bytes = out_bytes;
        // Without the cache: no regeneration pass or cache I/O, but the
        // trained prefix runs forward for every sample of every epoch.
        let prefix_flops: f64 = analytics[..block.units.start]
            .iter()
            .map(|a| a.flops as f64)
            .sum();
        let prefix_s = prefix_flops * n * epochs as f64 / device.effective_flops();
        cache_saved_s += prefix_s - regen_compute - read_excess - write_excess;
    }
    SimulatedRun {
        compute_s,
        overhead_s,
        io_s,
        batches: blocks.iter().map(|b| b.batch).collect(),
        cache_bytes_written: cache_bytes,
        cache_peak_bytes: cache_peak,
        cache_saved_s,
    }
}

/// Convenience: the three paradigms at one budget; infeasible entries are
/// `None` (the gaps in Figure 11).
pub fn sweep_point(
    spec: &ModelSpec,
    device: &DeviceProfile,
    config: &NeuroFluxConfig,
    samples: usize,
) -> (
    Option<SimulatedRun>,
    Option<SimulatedRun>,
    Option<SimulatedRun>,
) {
    let bp = simulate_bp(spec, device, config, samples).ok();
    let ll = simulate_classic_ll(spec, device, config, samples).ok();
    let nf = simulate_neuroflux(spec, device, config, samples)
        .ok()
        .map(|(run, _)| run);
    (bp, ll, nf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodecKind;

    const MB: u64 = 1_000_000;

    const SAMPLES: usize = 50_000;

    fn cfg(budget_mb: u64) -> NeuroFluxConfig {
        NeuroFluxConfig::new(budget_mb * MB, 512).with_epochs(30)
    }

    #[test]
    fn neuroflux_beats_bp_at_every_feasible_budget() {
        // Observation 1: 2.3–6.1x over BP at equal budgets.
        let device = DeviceProfile::agx_orin();
        for spec in [ModelSpec::vgg16(10), ModelSpec::vgg19(100)] {
            for budget in [250, 300, 400, 500] {
                let (bp, _, nf) = sweep_point(&spec, &device, &cfg(budget), SAMPLES);
                if let (Some(bp), Some(nf)) = (bp, nf) {
                    let speedup = bp.total_s() / nf.total_s();
                    assert!(
                        speedup > 1.0,
                        "{} @ {budget}MB: speedup {speedup}",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn speedup_band_overlaps_paper_range() {
        // The paper reports 2.3–6.1x (vs BP) and 3.3–10.3x (vs LL) across
        // its sweep; our bands must overlap those ranges, and classic LL
        // must be slower than BP wherever both are feasible (aux overhead).
        let device = DeviceProfile::agx_orin();
        let mut bp_speedups = Vec::new();
        let mut ll_speedups = Vec::new();
        for spec in [
            ModelSpec::vgg16(10),
            ModelSpec::vgg19(10),
            ModelSpec::resnet18(10),
        ] {
            for budget in [200, 250, 300, 350, 400, 450, 500] {
                let (bp, ll, nf) = sweep_point(&spec, &device, &cfg(budget), SAMPLES);
                let nf = nf.expect("neuroflux always feasible at these budgets");
                if let Some(bp) = &bp {
                    bp_speedups.push(bp.total_s() / nf.total_s());
                }
                if let Some(ll) = &ll {
                    ll_speedups.push(ll.total_s() / nf.total_s());
                }
                if let (Some(bp), Some(ll)) = (bp, ll) {
                    assert!(
                        ll.total_s() > bp.total_s(),
                        "{} @ {budget}MB: classic LL {:.0}s !> BP {:.0}s",
                        spec.name,
                        ll.total_s(),
                        bp.total_s()
                    );
                }
            }
        }
        let max_bp = bp_speedups.iter().cloned().fold(0.0, f64::max);
        let max_ll = ll_speedups.iter().cloned().fold(0.0, f64::max);
        assert!(
            (2.0..12.0).contains(&max_bp),
            "max BP speedup {max_bp} outside plausible band"
        );
        assert!(
            (3.0..14.0).contains(&max_ll),
            "max LL speedup {max_ll} outside plausible band"
        );
    }

    #[test]
    fn neuroflux_trains_where_bp_cannot() {
        // Observation 2: at 100 MB NeuroFlux works; BP and classic LL fail.
        let device = DeviceProfile::agx_orin();
        let spec = ModelSpec::vgg16(10);
        let c = cfg(100);
        assert!(simulate_bp(&spec, &device, &c, SAMPLES).is_err());
        assert!(simulate_classic_ll(&spec, &device, &c, SAMPLES).is_err());
        let (run, blocks) = simulate_neuroflux(&spec, &device, &c, SAMPLES).unwrap();
        assert!(!blocks.is_empty());
        assert!(run.total_s() > 0.0);
    }

    #[test]
    fn neuroflux_at_100mb_is_competitive_with_bp_at_500mb() {
        // Observation 2's stronger form: the paper measures NeuroFlux on
        // 1/5 the memory as 1.3–1.9x *faster* than BP on the full budget.
        // Our timing model reproduces a weaker form: NeuroFlux at 100 MB
        // costs at most ~2.5x BP's wall-clock at 500 MB — a 5x memory
        // reduction at a bounded slowdown, on a budget where BP cannot run
        // at all. The gap versus the paper comes from auxiliary-head
        // compute plus our BP batches being less starved than the paper's
        // at 500 MB (recorded per-figure in EXPERIMENTS.md).
        let device = DeviceProfile::agx_orin();
        let spec = ModelSpec::vgg16(10);
        let nf = simulate_neuroflux(&spec, &device, &cfg(100), SAMPLES)
            .unwrap()
            .0;
        let bp = simulate_bp(&spec, &device, &cfg(500), SAMPLES).unwrap();
        let ratio = nf.total_s() / bp.total_s();
        assert!(
            ratio < 2.5,
            "NF@100MB {:.0}s vs BP@500MB {:.0}s (ratio {ratio:.2})",
            nf.total_s(),
            bp.total_s()
        );
    }

    #[test]
    fn training_time_decreases_with_budget() {
        // Figure 11's downward slope for NeuroFlux.
        let device = DeviceProfile::agx_orin();
        let spec = ModelSpec::vgg19(100);
        let mut prev = f64::INFINITY;
        for budget in [100, 200, 300, 400, 500] {
            let (run, _) = simulate_neuroflux(&spec, &device, &cfg(budget), SAMPLES).unwrap();
            let t = run.total_s();
            assert!(t <= prev * 1.001, "time rose at {budget}MB: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn quantized_cache_codecs_shrink_simulated_footprint_and_io() {
        let device = DeviceProfile::agx_orin();
        let spec = ModelSpec::vgg16(10);
        let run_with = |codec: CodecKind| {
            let c = cfg(300).with_cache_codec(codec);
            simulate_neuroflux(&spec, &device, &c, SAMPLES).unwrap().0
        };
        let f32_run = run_with(CodecKind::F32Raw);
        let f16_run = run_with(CodecKind::F16);
        let int8_run = run_with(CodecKind::Int8Affine);
        // Encoded cache bytes track the codecs' ratios (2× / ~4×): the
        // §6.4 accounting the sweeps report is codec-aware.
        let half = f32_run.cache_bytes_written as f64 / f16_run.cache_bytes_written as f64;
        let quarter = f32_run.cache_bytes_written as f64 / int8_run.cache_bytes_written as f64;
        assert!((1.99..=2.01).contains(&half), "f16 ratio {half}");
        assert!((3.8..=4.0).contains(&quarter), "int8 ratio {quarter}");
        assert!(int8_run.cache_peak_bytes < f32_run.cache_peak_bytes / 3);
        // Less data over the storage link can only help wall-clock.
        assert!(int8_run.io_s <= f32_run.io_s);
        assert!(int8_run.total_s() <= f32_run.total_s());
    }

    #[test]
    fn cache_overhead_in_paper_band() {
        // §6.4: activation cache totals 1.5–5.3x the dataset size.
        let device = DeviceProfile::agx_orin();
        let spec = ModelSpec::vgg16(10);
        let (run, _) = simulate_neuroflux(&spec, &device, &cfg(300), SAMPLES).unwrap();
        // Dataset ≈ 50k CIFAR images as u8: ~150 MB; as f32: ~600 MB. This
        // test divides by the f32 dataset and reads ≈ 16x. §6.4 (and the
        // `overheads` figure) divide by the stored u8 dataset, where the
        // same cache reads ≈ 65x: an order of magnitude above the paper's
        // 1.5–5.3x, a finding in EXPERIMENTS.md. The band asserted here is
        // a plausibility bound on the accounting, not the paper's band.
        let dataset_f32 = 50_000u64 * 3 * 32 * 32 * 4;
        let ratio = run.cache_bytes_written as f64 / dataset_f32 as f64;
        assert!(
            (1.0..30.0).contains(&ratio),
            "cache/dataset ratio {ratio} outside plausible band"
        );
    }
}
