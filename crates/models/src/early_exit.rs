//! Early-exit model analytics (Section 5.4, Table 2).
//!
//! After NeuroFlux trains a model, every unit's auxiliary head is a
//! candidate exit. The deployed model at exit `k` consists of backbone
//! units `0..=k` plus auxiliary head `k`; everything deeper is discarded.
//! This module computes the analytic size/FLOPs of each candidate — the
//! numbers behind Table 2's compression factors and Table 3's throughput
//! gains — and measures every candidate's accuracy in one pass over a
//! dataset ([`exit_accuracies`]) or one candidate's alone
//! ([`exit_accuracy`]).

use crate::aux::AuxSpec;
use crate::build::BuiltModel;
use crate::spec::ModelSpec;
use nf_data::Dataset;
use nf_nn::loss::correct;
use nf_nn::{Layer, Mode, Sequential};
use nf_tensor::Tensor;

/// One candidate early-exit model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExitCandidate {
    /// Exit unit index (0-based).
    pub unit: usize,
    /// Parameters of the deployed model (backbone prefix + auxiliary head).
    pub params: usize,
    /// Forward FLOPs per sample of the deployed model.
    pub flops: u64,
    /// Validation accuracy measured for this exit (filled in by training;
    /// `None` for purely analytic candidates).
    pub val_accuracy: Option<f32>,
}

/// Enumerates every exit candidate for `spec` with heads `aux`.
///
/// # Panics
///
/// Panics if `aux.len() != spec.num_units()` (heads must cover every unit).
pub fn exit_candidates(spec: &ModelSpec, aux: &[AuxSpec]) -> Vec<ExitCandidate> {
    assert_eq!(
        aux.len(),
        spec.num_units(),
        "one auxiliary head per unit required"
    );
    let analytics = spec.analyze();
    let mut prefix_params = 0usize;
    let mut prefix_flops = 0u64;
    let mut out = Vec::with_capacity(aux.len());
    for (a, ax) in analytics.iter().zip(aux) {
        prefix_params += a.params;
        prefix_flops += a.flops;
        out.push(ExitCandidate {
            unit: a.index,
            params: prefix_params + ax.params(),
            flops: prefix_flops + ax.flops(),
            val_accuracy: None,
        });
    }
    out
}

/// Each exit's accuracy over `n` samples, scored by forward batches of at
/// most `batch` samples: `score(start, end, hits)` adds each exit's
/// correct predictions on samples `start..end`. The sum runs over chunks
/// of 64 samples, `(hits / len) · len` each, over `n` — fixed, so the bits
/// do not depend on `batch`, and the memory of a forward pass is bounded
/// by it. No samples score `0.0`.
fn accuracies(
    n: usize,
    exits: usize,
    batch: usize,
    mut score: impl FnMut(usize, usize, &mut [usize]) -> nf_nn::Result<()>,
) -> nf_nn::Result<Vec<f32>> {
    let (mut sums, mut hits) = (vec![0.0f32; exits], vec![0usize; exits]);
    let batch = batch.clamp(1, 64);
    for chunk in (0..n).step_by(64) {
        let end = (chunk + 64).min(n);
        hits.fill(0);
        for start in (chunk..end).step_by(batch) {
            score(start, (start + batch).min(end), &mut hits)?;
        }
        let len = (end - chunk) as f32;
        for (sum, &h) in sums.iter_mut().zip(&hits) {
            *sum += h as f32 / len * len;
        }
    }
    Ok(sums.into_iter().map(|s| s / n.max(1) as f32).collect())
}

/// Inference accuracy at **every** exit over `images` / `labels`, in one
/// pass at forward batches of at most `batch`: each batch goes through
/// the units once (eval mode), and head `i` scores the activation as it
/// leaves unit `i` — `units` forward passes per batch where measuring the
/// exits one by one re-runs units `0..=i` for each (`units·(units+1)/2`).
/// The same arithmetic as [`exit_accuracy`], so the two agree bit for bit.
pub fn exit_accuracies(
    model: &mut BuiltModel,
    aux_heads: &mut [Sequential],
    images: &Tensor,
    labels: &[usize],
    batch: usize,
) -> nf_nn::Result<Vec<f32>> {
    let (mut cur, mut out, mut logits) = (Tensor::default(), Tensor::default(), Tensor::default());
    accuracies(labels.len(), aux_heads.len(), batch, |start, end, hits| {
        images.slice_batch_into(start, end, &mut cur)?;
        let exits = model.units.iter_mut().zip(aux_heads.iter_mut());
        for ((unit, head), hits) in exits.zip(hits) {
            unit.forward_into(&cur, Mode::Eval, &mut out)?;
            std::mem::swap(&mut cur, &mut out);
            head.forward_into(&cur, Mode::Eval, &mut logits)?;
            *hits += correct(&logits, &labels[start..end])?;
        }
        Ok(())
    })
}

/// Inference accuracy at exit `exit` alone over `data`, at forward
/// batches of at most `batch`: units `0..=exit` (eval mode), then head
/// `exit`. The same arithmetic as [`exit_accuracies`].
pub fn exit_accuracy(
    model: &mut BuiltModel,
    aux_heads: &mut [Sequential],
    exit: usize,
    data: &Dataset,
    batch: usize,
) -> nf_nn::Result<f32> {
    let (images, labels) = (data.images(), data.labels());
    let (mut cur, mut out) = (Tensor::default(), Tensor::default());
    let acc = accuracies(labels.len(), 1, batch, |start, end, hits| {
        images.slice_batch_into(start, end, &mut cur)?;
        for unit in &mut model.units[..=exit] {
            unit.forward_into(&cur, Mode::Eval, &mut out)?;
            std::mem::swap(&mut cur, &mut out);
        }
        aux_heads[exit].forward_into(&cur, Mode::Eval, &mut out)?;
        hits[0] += correct(&out, &labels[start..end])?;
        Ok(())
    })?;
    Ok(acc[0])
}

/// Selects the paper's "best" exit: the candidate with the **smallest
/// parameter count** among those whose validation accuracy is within
/// `tolerance` of the maximum (Section 5.4: highest validation accuracy
/// while maintaining the smallest parameter count).
///
/// Candidates without a measured accuracy are ignored. Returns `None` when
/// nothing has been measured.
pub fn select_exit(candidates: &[ExitCandidate], tolerance: f32) -> Option<ExitCandidate> {
    let best_acc = candidates
        .iter()
        .filter_map(|c| c.val_accuracy)
        .fold(f32::NEG_INFINITY, f32::max);
    if best_acc == f32::NEG_INFINITY {
        return None;
    }
    candidates
        .iter()
        .filter(|c| c.val_accuracy.is_some_and(|a| a >= best_acc - tolerance))
        .min_by_key(|c| c.params)
        .copied()
}

/// Compression factor of `exit` relative to the full model
/// (Table 2's final column).
pub fn compression_factor(spec: &ModelSpec, exit: &ExitCandidate) -> f64 {
    spec.total_params() as f64 / exit.params.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aux::{assign_aux, AuxPolicy};

    fn with_acc(mut c: ExitCandidate, acc: f32) -> ExitCandidate {
        c.val_accuracy = Some(acc);
        c
    }

    #[test]
    fn candidate_params_grow_monotonically() {
        // Exit FLOPs need not be monotone (a deep unit's auxiliary head can
        // be cheaper than a shallow one's because its feature map is small),
        // but deployed parameter counts only grow with depth in VGG.
        let spec = ModelSpec::vgg16(10);
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        let cands = exit_candidates(&spec, &aux);
        assert_eq!(cands.len(), 13);
        for w in cands.windows(2) {
            assert!(w[1].params > w[0].params);
        }
        assert!(cands.iter().all(|c| c.flops > 0));
    }

    #[test]
    fn early_exits_are_much_smaller_than_full_model() {
        // Table 2's regime: an early-middle exit is >10x smaller.
        let spec = ModelSpec::vgg16(10);
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        let cands = exit_candidates(&spec, &aux);
        let factor = compression_factor(&spec, &cands[4]);
        assert!(factor > 10.0, "compression factor {factor}");
    }

    #[test]
    fn select_exit_prefers_smallest_within_tolerance() {
        let spec = ModelSpec::vgg11(10);
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        let cands = exit_candidates(&spec, &aux);
        let measured: Vec<ExitCandidate> = cands
            .iter()
            .enumerate()
            .map(|(i, c)| {
                // Accuracy saturates at unit 4 ("overthinking", Figure 10).
                let acc = [0.3, 0.5, 0.62, 0.70, 0.72, 0.721, 0.719, 0.72][i];
                with_acc(*c, acc)
            })
            .collect();
        let chosen = select_exit(&measured, 0.005).unwrap();
        assert_eq!(chosen.unit, 4, "first unit at the accuracy plateau");
    }

    #[test]
    fn select_exit_without_measurements_is_none() {
        let spec = ModelSpec::vgg11(10);
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        let cands = exit_candidates(&spec, &aux);
        assert!(select_exit(&cands, 0.01).is_none());
    }

    #[test]
    #[should_panic(expected = "one auxiliary head per unit")]
    fn mismatched_aux_length_panics() {
        let spec = ModelSpec::vgg11(10);
        let aux = assign_aux(&spec, AuxPolicy::Adaptive);
        exit_candidates(&spec, &aux[..3]);
    }
}
