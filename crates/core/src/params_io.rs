//! Parameter (de)serialisation for block eviction (§3.1).
//!
//! NeuroFlux keeps only the active block on the accelerator; trained blocks
//! move *wholly* to storage — parameters and optimizer state included, not
//! just activations. This module gives every layer a flat, deterministic
//! parameter encoding so the Worker can round-trip blocks through the same
//! storage device the activation cache uses.
//!
//! Format: for each parameter in `visit_params` order — the value as a
//! tensor record (the shape record, then the f32 LE data), one u64
//! state-tensor count, each state tensor's data (shapes match the value),
//! then the u64 step count. After the parameters, each persistent buffer
//! in `visit_buffers` order (batch-norm running statistics) as a tensor
//! record — so a restored layer reproduces *inference*, not just training
//! state. A blob is exactly these fields: bytes past the last one are an
//! error.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::reader::{read_shape, write_shape, Reader};
use crate::{NfError, Result};
use nf_models::BuiltModel;
use nf_nn::{Layer, Param, Sequential};
use nf_tensor::Tensor;

/// Most optimizer state tensors a decoded parameter may carry: momentum SGD
/// keeps one, and a larger count marks a corrupt blob.
const MAX_STATE: usize = 4;

fn write_f32s(out: &mut Vec<u8>, data: &[f32]) {
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends `t` as a tensor record: its shape record, then its data.
fn write_tensor(out: &mut Vec<u8>, t: &Tensor) {
    write_shape(out, t.shape());
    write_f32s(out, t.data());
}

/// Reads a tensor record into `t`, whose shape the stored one must equal.
fn read_tensor(r: &mut Reader<'_>, t: &mut Tensor, what: &str) -> std::result::Result<(), String> {
    let shape = read_shape(r)?;
    if shape != t.shape() {
        return Err(format!(
            "{what} shape mismatch: stored {shape:?}, layer has {:?}",
            t.shape()
        ));
    }
    Ok(r.f32s_into(t.data_mut())?)
}

fn read_param(r: &mut Reader<'_>, p: &mut Param) -> std::result::Result<(), String> {
    read_tensor(r, &mut p.value, "parameter")?;
    p.note_update();
    let n_state = r.u64()?;
    if n_state > MAX_STATE as u64 {
        return Err(format!("implausible optimizer state count {n_state}"));
    }
    p.state.clear();
    for _ in 0..n_state {
        let mut state = Tensor::zeros(p.value.shape());
        r.f32s_into(state.data_mut())?;
        p.state.push(state);
    }
    p.steps = r.u64()?;
    Ok(())
}

/// Serialises every parameter of `layer` (values + optimizer state).
pub fn serialize_params(layer: &mut dyn Layer) -> Vec<u8> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| {
        write_tensor(&mut out, &p.value);
        out.extend_from_slice(&(p.state.len() as u64).to_le_bytes());
        for s in &p.state {
            write_f32s(&mut out, s.data());
        }
        out.extend_from_slice(&p.steps.to_le_bytes());
    });
    layer.visit_buffers(&mut |t| write_tensor(&mut out, t));
    out
}

/// Restores parameters serialised by [`serialize_params`] into `layer`.
///
/// The layer must have the same architecture (same parameter shapes in the
/// same order), and `bytes` must be exactly one blob; mismatches,
/// truncation and trailing bytes are reported as errors. On error the
/// layer may be left partially restored — callers should treat it as
/// corrupt and rebuild (the Worker re-reads the blob or fails the run).
pub fn deserialize_params(layer: &mut dyn Layer, bytes: &[u8]) -> Result<()> {
    let mut r = Reader::new(bytes, "parameter blob");
    let mut outcome = Ok(());
    layer.visit_params(&mut |p| {
        if outcome.is_ok() {
            outcome = read_param(&mut r, p);
        }
    });
    layer.visit_buffers(&mut |t| {
        if outcome.is_ok() {
            outcome = read_tensor(&mut r, t, "buffer");
        }
    });
    outcome
        .and_then(|()| Ok(r.finish()?))
        .map_err(restore_failed)
}

fn restore_failed(msg: String) -> NfError {
    NfError::Cache {
        op: "read",
        block: usize::MAX,
        cause: format!("parameter restore failed: {msg}"),
    }
}

/// A model's layers in snapshot order: the units, the head, then the aux
/// heads.
fn layers<'m>(
    model: &'m mut BuiltModel,
    aux_heads: &'m mut [Sequential],
) -> impl Iterator<Item = &'m mut Sequential> {
    model
        .units
        .iter_mut()
        .chain([&mut model.head])
        .chain(aux_heads)
}

/// One [`serialize_params`] blob per layer of `model` + `aux_heads`, in
/// snapshot order (the units, the head, then the aux heads) — what a
/// checkpoint stores and a serving replica is loaded from.
pub fn snapshot_params(model: &mut BuiltModel, aux_heads: &mut [Sequential]) -> Vec<Vec<u8>> {
    layers(model, aux_heads)
        .map(|l| serialize_params(l))
        .collect()
}

/// Loads a [`snapshot_params`] list into a model of the same
/// architecture; a blob count other than the layer count is an error.
pub fn load_snapshot(
    model: &mut BuiltModel,
    aux_heads: &mut [Sequential],
    blobs: &[Vec<u8>],
) -> Result<()> {
    let expected = model.units.len() + 1 + aux_heads.len();
    if blobs.len() != expected {
        let n = blobs.len();
        return Err(restore_failed(format!("{n} blobs for {expected} layers")));
    }
    for (layer, blob) in layers(model, aux_heads).zip(blobs) {
        deserialize_params(layer, blob)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_nn::optim::Sgd;
    use nf_nn::{Linear, Mode, Sequential};
    use rand::SeedableRng;

    fn trained_unit(seed: u64) -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut seq = Sequential::new(vec![
            Box::new(Linear::new(&mut rng, 3, 5)),
            Box::new(nf_nn::relu::ReLU::new()),
            Box::new(Linear::new(&mut rng, 5, 2)),
        ]);
        // One training step so optimizer state exists.
        let x = Tensor::ones(&[2, 3]);
        let y = seq.forward(&x, Mode::Train).unwrap();
        let (_, grad) = nf_nn::loss::cross_entropy(&y, &[0, 1]).unwrap();
        seq.backward(&grad).unwrap();
        Sgd::new(0.1).with_momentum(0.9).step(&mut seq);
        seq
    }

    fn params_of(layer: &mut dyn Layer) -> Vec<(Vec<f32>, usize, u64)> {
        let mut out = Vec::new();
        layer.visit_params(&mut |p| out.push((p.value.data().to_vec(), p.state.len(), p.steps)));
        out
    }

    #[test]
    fn round_trip_preserves_values_state_and_steps() {
        let mut a = trained_unit(1);
        let before = params_of(&mut a);
        let bytes = serialize_params(&mut a);

        // Restore into a differently initialised clone of the architecture.
        let mut b = trained_unit(99);
        assert_ne!(before, params_of(&mut b));
        deserialize_params(&mut b, &bytes).unwrap();
        assert_eq!(before, params_of(&mut b));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut a = trained_unit(2);
        let bytes = serialize_params(&mut a);
        let mut b = trained_unit(2);
        assert!(deserialize_params(&mut b, &bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut a = trained_unit(3);
        let bytes = serialize_params(&mut a);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut wrong = Sequential::new(vec![Box::new(Linear::new(&mut rng, 4, 2))]);
        assert!(deserialize_params(&mut wrong, &bytes).is_err());
    }

    #[test]
    fn batchnorm_running_stats_round_trip() {
        // Running statistics are buffers, not params; eval-mode inference
        // depends on them, so the codec must carry them (checkpoint/resume
        // measures exits in eval mode).
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let make = |rng: &mut rand::rngs::StdRng| {
            Sequential::new(vec![
                Box::new(nf_nn::Conv2d::new(rng, 2, 3, 3, 1, 1).unwrap()) as Box<dyn Layer>,
                Box::new(nf_nn::BatchNorm2d::new(3)),
            ])
        };
        let mut a = make(&mut rng);
        // Train-mode forwards move the running stats off their init values.
        let x = Tensor::ones(&[4, 2, 5, 5]);
        for _ in 0..3 {
            a.forward(&x, Mode::Train).unwrap();
        }
        let bytes = serialize_params(&mut a);
        let mut b = make(&mut rng);
        deserialize_params(&mut b, &bytes).unwrap();
        let probe = Tensor::ones(&[2, 2, 5, 5]);
        assert_eq!(
            a.forward(&probe, Mode::Eval).unwrap(),
            b.forward(&probe, Mode::Eval).unwrap()
        );
    }

    #[test]
    fn feedback_matrices_stay_out_of_the_snapshot() {
        // Feedback alignment hangs a fixed matrix on each weight; it is
        // not a parameter, so the blobs — count, lengths, bytes — are the
        // ones a plain model writes, and either model loads them.
        use crate::serve::ServeEngine;
        use nf_models::{build_aux_heads, AuxPolicy, ModelSpec};
        let engine = |feedback: bool| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(6);
            let spec = ModelSpec::tiny("fa", 8, &[4, 8], 3);
            let mut model = spec.build(&mut rng).unwrap();
            let heads = build_aux_heads(&mut rng, &spec, AuxPolicy::Adaptive).unwrap();
            if feedback {
                for layer in model.units.iter_mut().chain([&mut model.head]) {
                    layer.visit_params(&mut |p| {
                        p.set_feedback(Tensor::ones(p.value.shape())).unwrap()
                    });
                }
            }
            ServeEngine::new(model, heads, 0.5).unwrap()
        };
        let (mut plain, mut fa) = (engine(false), engine(true));
        let blobs = fa.params_snapshot();
        assert_eq!(blobs, plain.params_snapshot());
        fa.load_params(&blobs).unwrap();
        plain.load_params(&blobs).unwrap();
        assert_eq!(fa.params_snapshot(), blobs);
    }

    #[test]
    fn restored_unit_computes_identically() {
        let mut a = trained_unit(4);
        let bytes = serialize_params(&mut a);
        let mut b = trained_unit(77);
        deserialize_params(&mut b, &bytes).unwrap();
        let x = Tensor::ones(&[1, 3]);
        let ya = a.forward(&x, Mode::Eval).unwrap();
        let yb = b.forward(&x, Mode::Eval).unwrap();
        assert_eq!(ya, yb);
    }
}
