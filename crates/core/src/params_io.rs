//! Parameter (de)serialisation for block eviction (§3.1).
//!
//! NeuroFlux keeps only the active block on the accelerator; trained blocks
//! move *wholly* to storage — parameters and optimizer state included, not
//! just activations. This module gives every layer a flat, deterministic
//! parameter encoding so the Worker can round-trip blocks through the same
//! storage device the activation cache uses.
//!
//! Format: for each parameter in `visit_params` order — rank (u64 LE), the
//! dims (u64 LE each), the value buffer (f32 LE), one u64 state-tensor
//! count, then each state tensor's buffer (shapes match the value). After
//! the parameters, each persistent buffer in `visit_buffers` order
//! (batch-norm running statistics): rank, dims, data — so a restored layer
//! reproduces *inference*, not just training state.

use crate::{NfError, Result};
use nf_nn::Layer;
use nf_tensor::Tensor;

/// Serialises every parameter of `layer` (values + optimizer state).
pub fn serialize_params(layer: &mut dyn Layer) -> Vec<u8> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| {
        let shape = p.value.shape();
        out.extend_from_slice(&(shape.len() as u64).to_le_bytes());
        for &d in shape {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for v in p.value.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(p.state.len() as u64).to_le_bytes());
        for s in &p.state {
            for v in s.data() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out.extend_from_slice(&p.steps.to_le_bytes());
    });
    layer.visit_buffers(&mut |t| {
        let shape = t.shape();
        out.extend_from_slice(&(shape.len() as u64).to_le_bytes());
        for &d in shape {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for v in t.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    });
    out
}

/// Restores parameters serialised by [`serialize_params`] into `layer`.
///
/// The layer must have the same architecture (same parameter shapes in the
/// same order); mismatches and truncation are reported as errors. On error
/// the layer may be left partially restored — callers should treat it as
/// corrupt and rebuild (the Worker re-reads the blob or fails the run).
pub fn deserialize_params(layer: &mut dyn Layer, bytes: &[u8]) -> Result<()> {
    let mut cursor = 0usize;
    let mut failure: Option<String> = None;
    let read_u64 = |bytes: &[u8], cursor: &mut usize| -> Option<u64> {
        let end = *cursor + 8;
        let chunk = bytes.get(*cursor..end)?;
        *cursor = end;
        Some(u64::from_le_bytes(chunk.try_into().ok()?))
    };
    let read_f32s = |bytes: &[u8], cursor: &mut usize, n: usize| -> Option<Vec<f32>> {
        let end = *cursor + n * 4;
        let chunk = bytes.get(*cursor..end)?;
        *cursor = end;
        Some(
            chunk
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        )
    };
    layer.visit_params(&mut |p| {
        if failure.is_some() {
            return;
        }
        let mut go = || -> std::result::Result<(), String> {
            let trunc = || "truncated parameter blob".to_string();
            let rank = read_u64(bytes, &mut cursor).ok_or_else(trunc)? as usize;
            if rank > 8 {
                return Err(format!("implausible rank {rank}"));
            }
            let mut shape = Vec::with_capacity(rank);
            for _ in 0..rank {
                shape.push(read_u64(bytes, &mut cursor).ok_or_else(trunc)? as usize);
            }
            if shape != p.value.shape() {
                return Err(format!(
                    "shape mismatch: stored {shape:?}, layer has {:?}",
                    p.value.shape()
                ));
            }
            let numel: usize = shape.iter().product();
            let value = read_f32s(bytes, &mut cursor, numel).ok_or_else(trunc)?;
            p.value = Tensor::from_vec(shape.clone(), value).map_err(|e| e.to_string())?;
            p.note_update();
            let n_state = read_u64(bytes, &mut cursor).ok_or_else(trunc)? as usize;
            if n_state > 4 {
                return Err(format!("implausible optimizer state count {n_state}"));
            }
            p.state.clear();
            for _ in 0..n_state {
                let data = read_f32s(bytes, &mut cursor, numel).ok_or_else(trunc)?;
                p.state
                    .push(Tensor::from_vec(shape.clone(), data).map_err(|e| e.to_string())?);
            }
            p.steps = read_u64(bytes, &mut cursor).ok_or_else(trunc)?;
            Ok(())
        };
        if let Err(msg) = go() {
            failure = Some(msg);
        }
    });
    layer.visit_buffers(&mut |t| {
        if failure.is_some() {
            return;
        }
        let mut go = || -> std::result::Result<(), String> {
            let trunc = || "truncated buffer blob".to_string();
            let rank = read_u64(bytes, &mut cursor).ok_or_else(trunc)? as usize;
            if rank > 8 {
                return Err(format!("implausible buffer rank {rank}"));
            }
            let mut shape = Vec::with_capacity(rank);
            for _ in 0..rank {
                shape.push(read_u64(bytes, &mut cursor).ok_or_else(trunc)? as usize);
            }
            if shape != t.shape() {
                return Err(format!(
                    "buffer shape mismatch: stored {shape:?}, layer has {:?}",
                    t.shape()
                ));
            }
            let numel: usize = shape.iter().product();
            let data = read_f32s(bytes, &mut cursor, numel).ok_or_else(trunc)?;
            *t = Tensor::from_vec(shape, data).map_err(|e| e.to_string())?;
            Ok(())
        };
        if let Err(msg) = go() {
            failure = Some(msg);
        }
    });
    if let Some(msg) = failure {
        return Err(NfError::Cache {
            op: "read",
            block: usize::MAX,
            cause: format!("parameter restore failed: {msg}"),
        });
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
        use nf_models::{assign_aux, build_aux_head, AuxPolicy, ModelSpec};
        let engine = |feedback: bool| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(6);
            let spec = ModelSpec::tiny("fa", 8, &[4, 8], 3);
            let mut model = spec.build(&mut rng).unwrap();
            let heads = assign_aux(&spec, AuxPolicy::Adaptive)
                .iter()
                .map(|a| build_aux_head(&mut rng, a).unwrap())
                .collect();
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
