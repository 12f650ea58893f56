//! Cross-architecture consistency checks on the memory and timing models.

use nf_memsim::*;
use nf_models::{assign_aux, AuxPolicy, ModelSpec};
use proptest::prelude::*;

#[test]
fn all_architectures_have_positive_footprints() {
    for spec in [
        ModelSpec::vgg11(10),
        ModelSpec::vgg16(100),
        ModelSpec::vgg19(200),
        ModelSpec::resnet18(10),
        ModelSpec::mobilenet(10),
    ] {
        let inf = memory::inference(&spec, 8);
        let bp = memory::bp_training(&spec, 8);
        assert!(inf.total() > 0);
        assert!(bp.total() > inf.total(), "{}", spec.name);
        assert_eq!(inf.optimizer, 0);
        assert!(bp.optimizer > 0);
    }
}

#[test]
fn bigger_models_need_more_memory() {
    let v16 = memory::bp_training(&ModelSpec::vgg16(100), 32).total();
    let v19 = memory::bp_training(&ModelSpec::vgg19(100), 32).total();
    assert!(v19 > v16);
}

#[test]
fn block_local_is_never_larger_than_classic_residency() {
    for spec in [ModelSpec::vgg16(10), ModelSpec::resnet18(10)] {
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        let analytics = spec.analyze();
        for a in &analytics {
            for batch in [1usize, 16, 128] {
                let block =
                    memory::ll_unit_training(&spec, a, &aux, batch, TrainingParadigm::BlockLocal)
                        .total();
                let classic = memory::ll_unit_training(
                    &spec,
                    a,
                    &aux,
                    batch,
                    TrainingParadigm::LocalLearning,
                )
                .total();
                assert!(block <= classic, "{} unit {}", spec.name, a.index);
            }
        }
    }
}

#[test]
fn training_flops_exceed_inference_flops() {
    for spec in [ModelSpec::vgg16(10), ModelSpec::resnet18(10)] {
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        let train = timing::ll_train_flops_per_sample(&spec, &aux);
        assert!(train > spec.total_flops() as f64, "{}", spec.name);
        assert!(timing::bp_train_flops_per_sample(&spec) > spec.total_flops() as f64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Memory is monotone in batch size for every paradigm.
    #[test]
    fn memory_monotone_in_batch(b1 in 1usize..200, b2 in 1usize..200) {
        prop_assume!(b1 < b2);
        let spec = ModelSpec::vgg11(10);
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        prop_assert!(memory::bp_training(&spec, b1).total() <= memory::bp_training(&spec, b2).total());
        prop_assert!(memory::inference(&spec, b1).total() <= memory::inference(&spec, b2).total());
        let a = &spec.analyze()[0];
        prop_assert!(
            memory::ll_unit_training(&spec, a, &aux, b1, TrainingParadigm::BlockLocal).total()
                <= memory::ll_unit_training(&spec, a, &aux, b2, TrainingParadigm::BlockLocal).total()
        );
    }

    /// Epoch time is monotone decreasing in batch size (fewer overheads)
    /// and increasing in sample count.
    #[test]
    fn epoch_time_monotonicity(
        batch1 in 1usize..256, batch2 in 1usize..256, n in 1000usize..100_000
    ) {
        prop_assume!(batch1 < batch2);
        let d = DeviceProfile::agx_orin();
        let spec = ModelSpec::vgg11(10);
        let flops = timing::bp_train_flops_per_sample(&spec);
        let fast = timing::epoch_time_s(&d, flops, n, batch2);
        let slow = timing::epoch_time_s(&d, flops, n, batch1);
        prop_assert!(slow >= fast);
        prop_assert!(timing::epoch_time_s(&d, flops, n * 2, batch1) > slow);
    }

    /// Feasible max batch is monotone in budget.
    #[test]
    fn max_batch_monotone_in_budget(mb1 in 40u64..1000, mb2 in 40u64..1000) {
        prop_assume!(mb1 < mb2);
        let spec = ModelSpec::vgg11(10);
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        let line = memory::ll_unit_line(&spec, &spec.analyze()[0], &aux, TrainingParadigm::BlockLocal);
        let (b1, b2) = (line.max_batch(mb1 * 1_000_000), line.max_batch(mb2 * 1_000_000));
        match (b1, b2) {
            (Some(x), Some(y)) => prop_assert!(x <= y),
            (Some(_), None) => prop_assert!(false, "larger budget lost feasibility"),
            _ => {}
        }
    }
}
