//! The Partitioner (§2): Algorithm 1, CNN partitioning into blocks.
//!
//! A literal transcription of the paper's Algorithm 1. For each layer the
//! maximum feasible batch under the budget is computed from the Profiler's
//! linear model and capped at the user batch limit; contiguous layers whose
//! feasible batches differ by at most `ρ · b_i` are grouped into one block,
//! whose batch size is the minimum over its members.

use crate::profiler::profile;
use crate::{NeuroFluxConfig, NfError, Result};
use nf_memsim::{LinearMemoryModel, TrainingParadigm};
use nf_models::ModelSpec;

/// One partition: a contiguous run of units trained together with a single
/// batch size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Unit indices `[start, end)` covered by this block.
    pub units: std::ops::Range<usize>,
    /// The batch size this block trains with (minimum feasible batch over
    /// its members, capped at the batch limit).
    pub batch: usize,
}

impl Block {
    /// Number of units in the block.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the block is empty (never produced by [`partition`]).
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }
}

/// Algorithm 1, lines 2–5: the largest batch each line fits under
/// `budget_bytes`, capped at `batch_limit` — the one place a budget
/// becomes a batch, for every paradigm. A whole-model paradigm (BP, FA,
/// classic LL, SP) trains at the minimum over its lines.
///
/// Returns [`NfError::InfeasibleBudget`] naming the first line that
/// cannot fit even batch 1.
pub fn feasible_batches(
    lines: &[LinearMemoryModel],
    budget_bytes: u64,
    batch_limit: usize,
) -> Result<Vec<usize>> {
    if lines.is_empty() {
        return Err(NfError::BadConfig("no units to partition".into()));
    }
    if batch_limit == 0 {
        return Err(NfError::BadConfig("batch_limit must be > 0".into()));
    }
    let fit = |(unit, line): (usize, &LinearMemoryModel)| {
        let batch = line
            .max_batch(budget_bytes)
            .ok_or(NfError::InfeasibleBudget { unit, budget_bytes })?;
        Ok(batch.min(batch_limit))
    };
    lines.iter().enumerate().map(fit).collect()
}

/// Algorithm 1: partitions units into blocks under `budget_bytes`.
///
/// Inputs mirror the paper's: the budget `M`, batch limit `B`, per-layer
/// linear models `R` (from the Profiler, one per unit in unit order), and
/// grouping threshold `ρ`.
///
/// Returns [`NfError::InfeasibleBudget`] if any unit cannot train even at
/// batch 1 — the budget is simply too small for that layer's parameters
/// and single-sample activations.
pub fn partition(
    lines: &[LinearMemoryModel],
    budget_bytes: u64,
    batch_limit: usize,
    rho: f64,
) -> Result<Vec<Block>> {
    let feasible = feasible_batches(lines, budget_bytes, batch_limit)?;
    // Lines 6–16: greedy grouping of contiguous layers.
    let mut blocks = Vec::new();
    let mut i = 0usize;
    while i < feasible.len() {
        let start = i;
        let mut batch = feasible[i];
        // Line 10: while the next layer's feasible batch is within ρ·b_i of
        // the current layer's, absorb it (note: compared against the
        // *current* layer i, which advances as the block grows).
        while i + 1 < feasible.len() {
            let b_i = feasible[i] as f64;
            let b_next = feasible[i + 1] as f64;
            if (b_next - b_i).abs() <= rho * b_i {
                batch = batch.min(feasible[i + 1]);
                i += 1;
            } else {
                break;
            }
        }
        blocks.push(Block {
            units: start..i + 1,
            batch,
        });
        i += 1;
    }
    Ok(blocks)
}

/// Profiler + Partitioner: one [`profile`] line per unit of `spec` under
/// `config`'s heads, partitioned by Algorithm 1 at `config`'s budget,
/// batch limit and ρ. The one planning body behind
/// [`crate::NeuroFluxTrainer::plan`] and [`crate::simulate::simulate_neuroflux`].
pub fn plan(spec: &ModelSpec, config: &NeuroFluxConfig) -> Result<Vec<Block>> {
    let lines = profile(spec, config.aux_policy, TrainingParadigm::BlockLocal);
    partition(&lines, config.budget_bytes, config.batch_limit, config.rho)
}

/// Invariant checks used by tests and debug assertions: blocks are
/// non-empty, contiguous, exhaustive, and batches are positive and within
/// the limit.
pub fn check_partition(blocks: &[Block], n_units: usize, batch_limit: usize) -> Result<()> {
    let mut next = 0usize;
    for b in blocks {
        if b.is_empty() {
            return Err(NfError::BadConfig("empty block".into()));
        }
        if b.units.start != next {
            return Err(NfError::BadConfig(format!(
                "gap or overlap at unit {next}: block starts at {}",
                b.units.start
            )));
        }
        if b.batch == 0 || b.batch > batch_limit {
            return Err(NfError::BadConfig(format!(
                "block batch {} outside (0, {batch_limit}]",
                b.batch
            )));
        }
        next = b.units.end;
    }
    if next != n_units {
        return Err(NfError::BadConfig(format!(
            "blocks cover {next} of {n_units} units"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_memsim::memory;
    use nf_memsim::TrainingParadigm::BlockLocal;
    use nf_models::{assign_aux, AuxPolicy};
    use proptest::prelude::*;

    fn lines_of(feasible_batches: &[usize], budget: u64) -> Vec<LinearMemoryModel> {
        // Synthetic lines whose max_batch(budget) equals the requested
        // values exactly: intercept 0 and slope = budget / (b + 0.5), so
        // floor(budget / slope) = b away from any rounding edge.
        let line = |&b: &usize| LinearMemoryModel {
            intercept: 0.0,
            slope: budget as f64 / (b as f64 + 0.5),
        };
        feasible_batches.iter().map(line).collect()
    }

    #[test]
    fn groups_layers_within_threshold() {
        let budget = 1_000_000;
        // Feasible batches: 10, 12, 13 (within 40% of each other), then 40.
        let lines = lines_of(&[10, 12, 13, 40], budget);
        let blocks = partition(&lines, budget, 512, 0.4).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].units, 0..3);
        assert_eq!(blocks[0].batch, 10, "block batch is the member minimum");
        assert_eq!(blocks[1].units, 3..4);
        assert_eq!(blocks[1].batch, 40);
    }

    #[test]
    fn threshold_zero_gives_singleton_blocks() {
        let budget = 1_000_000;
        let lines = lines_of(&[10, 12, 14, 40], budget);
        let blocks = partition(&lines, budget, 512, 0.0).unwrap();
        assert_eq!(blocks.len(), 4);
        assert!(blocks.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn batch_limit_caps_everything() {
        let budget = 1_000_000;
        let lines = lines_of(&[1000, 2000, 3000], budget);
        let blocks = partition(&lines, budget, 64, 0.4).unwrap();
        // All capped to 64 → all equal → single block.
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].batch, 64);
    }

    #[test]
    fn infeasible_unit_is_reported() {
        let budget = 100;
        let mut lines = lines_of(&[10], budget);
        lines.push(LinearMemoryModel {
            intercept: 1000.0,
            slope: 10.0,
        });
        match partition(&lines, budget, 8, 0.4) {
            Err(NfError::InfeasibleBudget { unit, .. }) => assert_eq!(unit, 1),
            other => panic!("expected InfeasibleBudget, got {other:?}"),
        }
    }

    #[test]
    fn running_comparison_chains_gradual_increases() {
        // 10 → 13 → 17 → 22: each step is within 40% of the *previous*
        // layer, so they chain into one block even though 22 is far from 10.
        let budget = 1_000_000;
        let lines = lines_of(&[10, 13, 17, 22], budget);
        let blocks = partition(&lines, budget, 512, 0.4).unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].batch, 10);
    }

    #[test]
    fn real_vgg_partition_is_valid_and_monotone() {
        // End-to-end: profile VGG-16 and partition under a mid budget.
        let spec = ModelSpec::vgg16(100);
        let budget = 300_000_000; // 300 MB
        let config = NeuroFluxConfig::new(budget, 512);
        let blocks = plan(&spec, &config).unwrap();
        check_partition(&blocks, spec.num_units(), 512).unwrap();
        assert!(blocks.len() >= 2, "VGG-16 should split into several blocks");
        // Deeper blocks get (weakly) larger batches — the AB-LL effect.
        let batches: Vec<usize> = blocks.iter().map(|b| b.batch).collect();
        assert!(
            batches.windows(2).all(|w| w[1] >= w[0]),
            "batches not monotone: {batches:?}"
        );
    }

    #[test]
    fn plan_admits_every_sample_that_fits() {
        // At this budget unit 0 fits exactly 18 samples: a line a hair
        // above its footprints admits 17 and splits the block as
        // [0..1 @ 17, 1..4 @ 24].
        let spec = ModelSpec::tiny("tiny", 48, &[8, 8, 12, 12], 4);
        let budget = 14_940_000;
        let blocks = plan(&spec, &NeuroFluxConfig::new(budget, 32)).unwrap();
        assert_eq!(
            blocks,
            [Block {
                units: 0..4,
                batch: 18
            }]
        );
        let (aux, analytics) = (assign_aux(&spec, AuxPolicy::Adaptive), spec.analyze());
        for block in &blocks {
            for a in &analytics[block.units.clone()] {
                let bytes = memory::ll_unit_training(&spec, a, &aux, block.batch, BlockLocal);
                assert!(
                    bytes.total() <= budget,
                    "unit {}: {} B",
                    a.index,
                    bytes.total()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn partition_invariants_hold(
            batches in proptest::collection::vec(1usize..2000, 1..20),
            limit in 1usize..600,
            rho in 0.0f64..0.7,
        ) {
            let budget = 10_000_000u64;
            let lines = lines_of(&batches, budget);
            let blocks = partition(&lines, budget, limit, rho).unwrap();
            check_partition(&blocks, batches.len(), limit).unwrap();
            // Every block batch equals the min of its members' capped
            // feasible batches.
            for b in &blocks {
                let expect = b
                    .units
                    .clone()
                    .map(|u| batches[u].min(limit))
                    .min()
                    .unwrap();
                prop_assert_eq!(b.batch, expect);
            }
        }
    }
}
