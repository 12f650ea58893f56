//! Confidence-gated multi-exit inference.
//!
//! The paper ships a *single* selected exit (Section 5.4), but its early-
//! exit lineage (BranchyNet, HAPI — the paper's [40, 65]) runs **all**
//! trained heads as a cascade: each sample exits at the first head whose
//! softmax confidence clears a threshold, so easy inputs leave early and
//! hard inputs continue deeper. Because NeuroFlux trains an auxiliary head
//! at *every* layer, the trained model is already a full cascade — this
//! module adds the inference policy on top.

use crate::Result;
use nf_models::{AuxSpec, BuiltModel, ModelSpec};
use nf_nn::{Layer, Mode, Sequential};
use nf_tensor::{argmax_rows, softmax_rows, Tensor};

/// Per-sample outcome of cascade inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadePrediction {
    /// Predicted class.
    pub class: usize,
    /// Index of the exit that fired.
    pub exit: usize,
    /// Softmax confidence at the firing exit.
    pub confidence: f32,
}

/// Statistics of a cascade run over a dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CascadeReport {
    /// Fraction of samples exiting at each head (sums to 1).
    pub exit_fractions: Vec<f32>,
    /// Overall accuracy.
    pub accuracy: f32,
    /// Mean per-sample forward FLOPs under the cascade (full-size
    /// analytics), for comparing against always-deep inference.
    pub mean_flops: f64,
}

/// Confidence-gated cascade over a trained NeuroFlux model.
pub struct ConfidenceCascade<'m> {
    model: &'m mut BuiltModel,
    aux_heads: &'m mut [Sequential],
    /// Exit fires when max softmax probability ≥ this threshold.
    pub threshold: f32,
}

impl<'m> ConfidenceCascade<'m> {
    /// Wraps a trained model + heads with an exit threshold in `(0, 1]`.
    pub fn new(model: &'m mut BuiltModel, aux_heads: &'m mut [Sequential], threshold: f32) -> Self {
        ConfidenceCascade {
            model,
            aux_heads,
            threshold,
        }
    }

    /// Runs one batch through the cascade, returning a prediction per
    /// sample. Samples that clear no head exit at the deepest one.
    pub fn predict(&mut self, images: &Tensor) -> Result<Vec<CascadePrediction>> {
        let deepest = self.model.units.len().saturating_sub(1);
        let caps = vec![deepest; images.shape()[0]];
        self.predict_with_caps(images, &caps)
    }

    /// Runs one batch through the cascade with a **per-sample depth cap**
    /// (the serving path's SLO-tier knob): sample `i` exits at the first
    /// head whose confidence clears the threshold, or at unit `caps[i]`,
    /// whichever comes first. Caps deeper than the cascade clamp to the
    /// deepest head.
    ///
    /// Per-sample results are bit-identical to running the sample alone
    /// with the same cap — batching never changes predictions.
    pub fn predict_with_caps(
        &mut self,
        images: &Tensor,
        caps: &[usize],
    ) -> Result<Vec<CascadePrediction>> {
        let n = images.shape()[0];
        let n_units = self.model.units.len();
        if caps.len() != n {
            return Err(crate::NfError::Serve {
                cause: format!("{} depth caps for {n} samples", caps.len()),
            });
        }
        let mut out: Vec<Option<CascadePrediction>> = vec![None; n];
        // Active set: indices of samples still travelling; `cur` holds only
        // their activations, compacted after every exit.
        let mut active: Vec<usize> = (0..n).collect();
        let mut cur = images.clone();
        for unit_idx in 0..n_units {
            if active.is_empty() {
                break;
            }
            cur = self.model.units[unit_idx].forward(&cur, Mode::Eval)?;
            let logits = self.aux_heads[unit_idx].forward(&cur, Mode::Eval)?;
            let probs = softmax_rows(&logits)?;
            let preds = argmax_rows(&probs)?;
            let classes = probs.shape()[1];
            let mut staying_rows: Vec<usize> = Vec::new();
            let mut still_active: Vec<usize> = Vec::new();
            let last = unit_idx + 1 == n_units;
            for (row, &sample) in active.iter().enumerate() {
                let conf = probs.data()[row * classes + preds[row]];
                if conf >= self.threshold || last || unit_idx >= caps[sample] {
                    out[sample] = Some(CascadePrediction {
                        class: preds[row],
                        exit: unit_idx,
                        confidence: conf,
                    });
                } else {
                    staying_rows.push(row);
                    still_active.push(sample);
                }
            }
            if still_active.len() != active.len() && !still_active.is_empty() {
                // Compact the activation batch to the surviving samples.
                let parts: Vec<Tensor> = staying_rows
                    .iter()
                    .map(|&r| cur.slice_batch(r, r + 1))
                    .collect::<std::result::Result<_, _>>()?;
                let refs: Vec<&Tensor> = parts.iter().collect();
                cur = Tensor::cat_batch(&refs)?;
            }
            active = still_active;
        }
        Ok(out
            .into_iter()
            .map(|p| p.expect("every sample exits by the deepest head"))
            .collect())
    }

    /// Evaluates the cascade over a dataset, reporting accuracy, per-exit
    /// traffic, and the mean full-size FLOPs per sample implied by the exit
    /// distribution.
    pub fn evaluate(
        &mut self,
        data: &nf_data::Dataset,
        full_spec: &ModelSpec,
        full_aux: &[AuxSpec],
    ) -> Result<CascadeReport> {
        let n_units = self.model.units.len();
        let mut exit_counts = vec![0usize; n_units];
        let mut correct = 0usize;
        let mut seen = 0usize;
        for (images, labels) in data.batches(64) {
            let preds = self.predict(&images)?;
            for (p, &label) in preds.iter().zip(&labels) {
                exit_counts[p.exit] += 1;
                if p.class == label {
                    correct += 1;
                }
                seen += 1;
            }
        }
        if seen == 0 {
            return Ok(CascadeReport::default());
        }
        // Cost of exiting at unit k = backbone prefix + heads 0..=k (every
        // earlier head ran and declined).
        let mut mean_flops = 0.0f64;
        for (k, &count) in exit_counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let backbone = full_spec.flops_until(k) as f64;
            let heads: f64 = full_aux[..=k].iter().map(|a| a.flops() as f64).sum();
            mean_flops += (backbone + heads) * count as f64;
        }
        mean_flops /= seen as f64;
        Ok(CascadeReport {
            exit_fractions: exit_counts
                .iter()
                .map(|&c| c as f32 / seen as f32)
                .collect(),
            accuracy: correct as f32 / seen as f32,
            mean_flops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NeuroFluxConfig, NeuroFluxTrainer};
    use nf_data::SyntheticSpec;
    use nf_models::{assign_aux, AuxPolicy};
    use rand::SeedableRng;

    fn trained() -> (crate::NeuroFluxOutcome, nf_data::SplitDataset, ModelSpec) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let ds = SyntheticSpec::quick(3, 8, 96).generate();
        let spec = ModelSpec::tiny("casc", 8, &[8, 8, 16], 3);
        let config = NeuroFluxConfig::new(64 << 20, 16).with_epochs(4);
        let outcome = NeuroFluxTrainer::new(config)
            .train(&mut rng, &spec, &ds)
            .unwrap();
        (outcome, ds, spec)
    }

    #[test]
    fn threshold_one_uses_deepest_exit_only() {
        let (mut o, ds, _) = trained();
        let mut cascade = ConfidenceCascade::new(&mut o.model, &mut o.aux_heads, 1.1);
        let (images, _) = ds.test.batch(0, 8);
        let preds = cascade.predict(&images).unwrap();
        assert!(preds.iter().all(|p| p.exit == 2), "{preds:?}");
    }

    #[test]
    fn threshold_zero_exits_everyone_at_first_head() {
        let (mut o, ds, _) = trained();
        let mut cascade = ConfidenceCascade::new(&mut o.model, &mut o.aux_heads, 0.0);
        let (images, _) = ds.test.batch(0, 8);
        let preds = cascade.predict(&images).unwrap();
        assert!(preds.iter().all(|p| p.exit == 0));
    }

    #[test]
    fn cascade_accuracy_close_to_deepest_and_cheaper() {
        let (mut o, ds, spec) = trained();
        let deep_acc =
            nf_models::exit_accuracy(&mut o.model, &mut o.aux_heads, 2, &ds.test, 64).unwrap();
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        let mut cascade = ConfidenceCascade::new(&mut o.model, &mut o.aux_heads, 0.9);
        let report = cascade.evaluate(&ds.test, &spec, &aux).unwrap();
        assert!(
            report.accuracy >= deep_acc - 0.15,
            "cascade {} vs deep {deep_acc}",
            report.accuracy
        );
        // Exit fractions form a distribution.
        let total: f32 = report.exit_fractions.iter().sum();
        assert!((total - 1.0).abs() < 1e-5);
        // Some traffic leaves before the deepest exit on an easy task, so
        // the mean cost is below always-deep.
        let always_deep = spec.total_flops() as f64;
        assert!(
            report.mean_flops < always_deep * 1.5,
            "cascade cost {} vs deep {always_deep}",
            report.mean_flops
        );
    }

    #[test]
    fn depth_caps_bound_exits_per_sample() {
        let (mut o, ds, _) = trained();
        let (images, _) = ds.test.batch(0, 6);
        // Strict threshold so nothing exits on confidence; each sample must
        // exit exactly at its own cap.
        let mut cascade = ConfidenceCascade::new(&mut o.model, &mut o.aux_heads, 1.1);
        let caps = [0usize, 1, 2, 0, 2, 1];
        let preds = cascade.predict_with_caps(&images, &caps).unwrap();
        for (p, &cap) in preds.iter().zip(&caps) {
            assert_eq!(p.exit, cap, "{preds:?}");
        }
        // Oversized caps clamp to the deepest head.
        let preds = cascade.predict_with_caps(&images, &[99; 6]).unwrap();
        assert!(preds.iter().all(|p| p.exit == 2));
        // A cap count that does not match the batch is a typed error.
        assert!(cascade.predict_with_caps(&images, &[0; 2]).is_err());
    }

    #[test]
    fn capped_predictions_match_uncapped_when_cap_is_deepest() {
        let (mut o, ds, _) = trained();
        let (images, _) = ds.test.batch(0, 8);
        let mut cascade = ConfidenceCascade::new(&mut o.model, &mut o.aux_heads, 0.8);
        let free = cascade.predict(&images).unwrap();
        let capped = cascade.predict_with_caps(&images, &[2; 8]).unwrap();
        assert_eq!(free, capped);
    }

    #[test]
    fn lower_threshold_shifts_traffic_earlier() {
        let (mut o, ds, spec) = trained();
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        let early_mass = |o: &mut crate::NeuroFluxOutcome, thr: f32| -> f32 {
            let mut c = ConfidenceCascade::new(&mut o.model, &mut o.aux_heads, thr);
            let r = c.evaluate(&ds.test, &spec, &aux).unwrap();
            r.exit_fractions[0]
        };
        let loose = early_mass(&mut o, 0.5);
        let strict = early_mass(&mut o, 0.99);
        assert!(
            loose >= strict,
            "lower threshold must exit at least as much traffic early: {loose} vs {strict}"
        );
    }
}
