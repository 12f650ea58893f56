//! Feedback Alignment (Lillicrap et al.): backprop with fixed random
//! feedback weights.
//!
//! FA resolves the "weight transport problem" by propagating error signals
//! through fixed random matrices `B` instead of the transposed forward
//! weights `Wᵀ`. Weight gradients are computed normally (from the incoming
//! error and the cached input), so FA's memory footprint matches BP's —
//! which is why Figure 3 places FA at high memory / low accuracy for CNNs.
//!
//! That is one operand of one product per layer, so FA here is the BP
//! model and the BP trainer: [`install_feedback`] hangs a `B` on every
//! weight matrix ([`Param::set_feedback`]) and [`crate::BpTrainer`] does
//! the rest.

use nf_models::BuiltModel;
use nf_nn::{Layer, Param};
use nf_tensor::he_normal;
use rand::Rng;

/// Installs a fixed random feedback matrix on every weight matrix (rank-2
/// parameter: conv filters and linear weights, shortcut convs included) of
/// `model`'s units and head, drawn from `rng` in visiting order. Biases
/// and batch-norm parameters have no input-gradient product and get none.
///
/// Each `B` is normal with the root-mean-square of the weights it stands in
/// for, so the error reaches every layer at the scale backprop would give
/// it whatever the layer's fan-in convention.
pub fn install_feedback<R: Rng>(rng: &mut R, model: &mut BuiltModel) {
    let mut install = |p: &mut Param| {
        if p.value.rank() != 2 {
            return;
        }
        let rms = p.value.norm() / (p.numel().max(1) as f32).sqrt();
        // `he_normal` at fan-in 2 is the standard normal.
        let mut b = he_normal(rng, p.value.shape(), 2);
        b.scale_inplace(rms);
        p.set_feedback(b).expect("feedback has the weight's shape");
    };
    for layer in model.units.iter_mut().chain([&mut model.head]) {
        layer.visit_params(&mut install);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BpTrainer;
    use nf_data::SyntheticSpec;
    use nf_models::ModelSpec;
    use rand::SeedableRng;

    #[test]
    fn feedback_lands_on_weight_matrices_only_at_their_scale() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let spec = ModelSpec::tiny("t", 8, &[6, 6], 2);
        let mut model = spec.build(&mut rng).unwrap();
        install_feedback(&mut rng, &mut model);
        let mut matrices = 0;
        let mut check = |p: &mut Param| match p.feedback() {
            Some(b) => {
                matrices += 1;
                assert_eq!(b.shape(), p.value.shape());
                assert_ne!(b, &p.value);
                let ratio = b.norm() / p.value.norm();
                assert!((0.5..2.0).contains(&ratio), "scale ratio {ratio}");
            }
            None => assert_eq!(p.value.rank(), 1),
        };
        for layer in model.units.iter_mut().chain([&mut model.head]) {
            layer.visit_params(&mut check);
        }
        assert_eq!(matrices, 3, "two convs and the head's linear");
    }

    #[test]
    fn fa_learns_something_on_easy_task() {
        // FA is weaker than BP but must still beat chance on an easy task
        // (that is its entire role in Figure 3).
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let ds = SyntheticSpec::quick(2, 8, 64).generate();
        let mut model = ModelSpec::tiny("t", 8, &[6, 6], 2).build(&mut rng).unwrap();
        install_feedback(&mut rng, &mut model);
        let report = BpTrainer::new(0.02, 6, 16)
            .train(&mut model, &ds.train, &ds.test)
            .unwrap();
        assert!(report.loss_improved());
        assert!(
            report.final_test_accuracy() > 0.55,
            "acc {:?}",
            report.test_accuracy
        );
    }
}
