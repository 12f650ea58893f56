//! Cross-crate integration tests: the full NeuroFlux pipeline against its
//! baselines on real (synthetic) training runs.

use neuroflux::core::{NeuroFluxConfig, NeuroFluxTrainer};
use neuroflux::models::ModelSpec;
use nf_baselines::{BpTrainer, LocalLearningTrainer};
use nf_data::SyntheticSpec;
use nf_models::AuxPolicy;
use rand::SeedableRng;

/// NeuroFlux reaches accuracy parity (within a margin) with BP on a
/// separable task — the paper's "comparable accuracy" claim at small scale.
#[test]
fn neuroflux_reaches_bp_parity_on_synthetic_task() {
    let ds = SyntheticSpec::quick(3, 8, 120).generate();
    let spec = ModelSpec::tiny("parity", 8, &[8, 16], 3);

    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut bp_model = spec.build(&mut rng).unwrap();
    let bp = BpTrainer::new(0.05, 6, 16)
        .train(&mut bp_model, &ds.train, &ds.test)
        .unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let config = NeuroFluxConfig::new(64 << 20, 16).with_epochs(6);
    let mut outcome = NeuroFluxTrainer::new(config)
        .train(&mut rng, &spec, &ds)
        .unwrap();
    let nf_acc = outcome.selected_exit_accuracy(&ds.test).unwrap();

    assert!(
        nf_acc >= bp.final_test_accuracy() - 0.15,
        "NeuroFlux {nf_acc} far below BP {}",
        bp.final_test_accuracy()
    );
    assert!(
        nf_acc > 0.5,
        "NeuroFlux must beat chance decisively: {nf_acc}"
    );
}

/// The NeuroFlux early-exit model is smaller than what BP deploys, at
/// comparable accuracy (Table 2's story at small scale).
#[test]
fn neuroflux_output_model_is_compressed() {
    let ds = SyntheticSpec::quick(3, 8, 120).generate();
    // Deep enough that accuracy saturates before the last unit.
    let spec = ModelSpec::tiny("compress", 8, &[8, 8, 16, 16], 3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let config = NeuroFluxConfig::new(64 << 20, 16).with_epochs(5);
    let outcome = NeuroFluxTrainer::new(config)
        .train(&mut rng, &spec, &ds)
        .unwrap();
    let exit = outcome.selected_exit.unwrap();
    assert!(
        exit.params < spec.total_params(),
        "exit {} params !< full {}",
        exit.params,
        spec.total_params()
    );
}

/// Classic LL and NeuroFlux train the same units; NeuroFlux's block
/// machinery must not hurt the exits' quality.
#[test]
fn neuroflux_exits_track_classic_ll_quality() {
    let ds = SyntheticSpec::quick(3, 8, 96).generate();
    let spec = ModelSpec::tiny("track", 8, &[8, 16], 3);

    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let ll_model = spec.build(&mut rng).unwrap();
    let trainer = LocalLearningTrainer {
        policy: AuxPolicy::Adaptive,
        ..LocalLearningTrainer::classic(0.05, 5, 16)
    };
    let (mut ll_trained, _) = trainer
        .train(&mut rng, ll_model, &ds.train, &ds.test)
        .unwrap();
    let ll_exit_acc = ll_trained.exit_accuracy(1, &ds.test).unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let config = NeuroFluxConfig::new(64 << 20, 16).with_epochs(5);
    let mut outcome = NeuroFluxTrainer::new(config)
        .train(&mut rng, &spec, &ds)
        .unwrap();
    let nf_exit_acc = neuroflux::models::exit_accuracy(
        &mut outcome.model,
        &mut outcome.aux_heads,
        1,
        &ds.test,
        64,
    )
    .unwrap();

    assert!(
        (nf_exit_acc - ll_exit_acc).abs() < 0.25,
        "deep-exit accuracies diverge: NF {nf_exit_acc} vs LL {ll_exit_acc}"
    );
}

/// Training under a budget that forces multiple blocks must still work and
/// respect the budget in the planned footprint.
#[test]
fn multi_block_training_respects_budget() {
    let ds = SyntheticSpec::quick(3, 8, 96).generate();
    let spec = ModelSpec::tiny("blocks", 8, &[8, 8, 16, 16], 3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);

    // Find a budget that yields at least two blocks for this model.
    let mut chosen = None;
    for budget_kb in [64u64, 128, 256, 512, 1024, 4096] {
        let config = NeuroFluxConfig::new(budget_kb << 10, 16).with_epochs(2);
        if let Ok(blocks) = NeuroFluxTrainer::new(config).plan(&mut rng, &spec) {
            if blocks.len() >= 2 {
                chosen = Some((config, blocks));
                break;
            }
        }
    }
    let (config, planned) = chosen.expect("some budget must produce >= 2 blocks");
    let outcome = NeuroFluxTrainer::new(config)
        .train(&mut rng, &spec, &ds)
        .unwrap();
    assert_eq!(outcome.blocks, planned);
    // Every unit's planned footprint at its block batch fits the budget.
    let paradigm = neuroflux::memsim::TrainingParadigm::BlockLocal;
    let lines = neuroflux::core::profiler::profile(&spec, config.aux_policy, paradigm);
    for block in &outcome.blocks {
        for u in block.units.clone() {
            let predicted = lines[u].predict(block.batch);
            assert!(
                predicted <= config.budget_bytes as f64,
                "unit {u} at batch {} predicted {predicted} bytes > budget {}",
                block.batch,
                config.budget_bytes
            );
        }
    }
}

/// Quantized compute: training with the int8 cache codec *and* the int8
/// GEMM regeneration path (`int8_compute`) lands within 1 accuracy point
/// of the plain f32 run — the tentpole's accuracy acceptance criterion.
/// The budget is chosen to force ≥ 2 blocks so frozen-block regeneration
/// (the only path int8 compute touches) genuinely runs.
#[test]
fn int8_compute_accuracy_within_one_point_of_f32() {
    use neuroflux_core::CodecKind;

    let ds = SyntheticSpec::quick(3, 8, 480).with_noise(0.05).generate();
    let spec = ModelSpec::tiny("int8e2e", 8, &[8, 8, 16], 3);

    // Find a budget that yields at least two blocks for this model, so the
    // int8 regeneration path actually feeds later-block training.
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let base = (64u64..)
        .map(|kb| NeuroFluxConfig::new(kb << 10, 16).with_epochs(3))
        .take(8)
        .chain((0..6).map(|i| NeuroFluxConfig::new(64 << (10 + i), 16).with_epochs(3)))
        .find(|c| {
            NeuroFluxTrainer::new(*c)
                .plan(&mut rng, &spec)
                .map(|blocks| blocks.len() >= 2)
                .unwrap_or(false)
        })
        .expect("some budget must produce >= 2 blocks");

    let run = |config: NeuroFluxConfig| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut outcome = NeuroFluxTrainer::new(config)
            .train(&mut rng, &spec, &ds)
            .unwrap();
        outcome.selected_exit_accuracy(&ds.test).unwrap()
    };
    let f32_acc = run(base);
    let int8_acc = run(base
        .with_cache_codec(CodecKind::Int8Affine)
        .with_int8_compute(true));
    assert!(f32_acc > 0.5, "f32 run must beat chance: {f32_acc}");
    assert!(
        (int8_acc - f32_acc).abs() <= 0.01 + 1e-6,
        "int8-compute accuracy {int8_acc} deviates more than 1pp from f32 {f32_acc}"
    );
}

/// Determinism: two identical runs produce identical selected exits and
/// identical parameters.
#[test]
fn training_is_deterministic_for_fixed_seed() {
    let ds = SyntheticSpec::quick(2, 8, 48).generate();
    let spec = ModelSpec::tiny("det", 8, &[4, 8], 2);
    let config = NeuroFluxConfig::new(16 << 20, 8).with_epochs(2);

    let run = |seed: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        NeuroFluxTrainer::new(config)
            .train(&mut rng, &spec, &ds)
            .unwrap()
    };
    let mut a = run(9);
    let mut b = run(9);
    assert_eq!(
        a.selected_exit.map(|e| e.unit),
        b.selected_exit.map(|e| e.unit)
    );
    let mut pa = Vec::new();
    a.model.units[0].visit_params_pub(&mut pa);
    let mut pb = Vec::new();
    b.model.units[0].visit_params_pub(&mut pb);
    assert_eq!(pa, pb);
}

/// Helper trait to read parameters out of a unit in integration tests.
trait VisitParamsPub {
    fn visit_params_pub(&mut self, out: &mut Vec<Vec<f32>>);
}

impl VisitParamsPub for nf_nn::Sequential {
    fn visit_params_pub(&mut self, out: &mut Vec<Vec<f32>>) {
        use nf_nn::Layer;
        self.visit_params(&mut |p| out.push(p.value.data().to_vec()));
    }
}
