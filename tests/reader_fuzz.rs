//! Every reader of outside bytes under hostile input.
//!
//! The document readers: random byte strings, random truncations and
//! random one-byte mutations of every committed `examples/*.toml` go
//! through `nf_value::toml::parse` and `nf_value::json::parse`, and every
//! document either reader accepts goes through `RunConfig::from_value`. A
//! failing case prints its seed, and `exercise(&input(seed))` replays it.
//!
//! The binary decoders: every strict truncation, and a one-byte flip at
//! every offset, of a valid cache blob file under each codec (read back
//! through a recovered `DiskStore`, whole and per batch: the header
//! parser, the length check at open, the decode and, for int8, the
//! quantized read), a parameter blob, a checkpoint, and
//! one serve request and response. A failing case names its decoder and
//! mutation.
//!
//! Each step must return `Ok` or a typed error, never panic; every strict
//! truncation of a binary record must be an error, and an accepted
//! parameter blob or wire record must re-encode to its own bytes.

use neuroflux_core::{
    deserialize_params, serialize_params, ActivationStore, Checkpoint, CodecKind, DiskStore,
    NfError, WorkerReport,
};
use nf_cli::proto::{self, ProtoError, RejectReason, Request, Response};
use nf_cli::{CliError, RunConfig};
use nf_models::{build_aux_heads, AuxPolicy, ModelSpec};
use nf_nn::{BatchNorm2d, Conv2d, Layer, Mode, Sequential};
use nf_tensor::{QuantTensor, Tensor};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// The committed documents the mutations start from.
fn corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut paths: Vec<_> = std::fs::read_dir(root.join("examples"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect();
        paths.sort();
        assert_eq!(paths.len(), 3, "{paths:?}");
        paths.iter().map(|p| std::fs::read(p).unwrap()).collect()
    })
}

/// A byte that is half the time one the readers give meaning to.
fn byte(rng: &mut StdRng) -> u8 {
    const SYNTAX: &[u8] = b"[]{}=\",.#:\\ \n-_0e9tfn";
    match rng.gen_bool(0.5) {
        true => SYNTAX[rng.gen_range(0..SYNTAX.len())],
        false => rng.gen_range(0..=u8::MAX),
    }
}

/// The input `seed` stands for: random bytes, or a truncation or a
/// one-byte mutation of a corpus document.
fn input(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let docs = corpus();
    let mut doc = docs[rng.gen_range(0..docs.len())].clone();
    match rng.gen_range(0..3) {
        0 => (0..rng.gen_range(0..256)).map(|_| byte(&mut rng)).collect(),
        1 => {
            doc.truncate(rng.gen_range(0..=doc.len()));
            doc
        }
        _ => {
            let at = rng.gen_range(0..doc.len());
            doc[at] = byte(&mut rng);
            doc
        }
    }
}

/// Feeds one input through both readers and the config extractor.
fn exercise(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let docs = [nf_value::toml::parse(&text), nf_value::json::parse(&text)];
    for doc in docs.into_iter().flatten() {
        if let Err(e) = RunConfig::from_value(&doc) {
            assert!(
                matches!(e, CliError::Config { .. } | CliError::Msg(_)),
                "{e}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]
    #[test]
    fn readers_and_extractors_never_panic(seed in 0u64..u64::MAX) {
        let bytes = input(seed);
        let outcome = std::panic::catch_unwind(|| exercise(&bytes));
        prop_assert!(
            outcome.is_ok(),
            "`exercise(&input({seed}))` panics on {:?}",
            String::from_utf8_lossy(&bytes)
        );
    }
}

#[test]
fn unmutated_corpus_documents_load() {
    // The committed documents themselves are the fuzz's fixed points.
    let docs = corpus();
    for doc in docs {
        let value = nf_value::toml::parse(std::str::from_utf8(doc).unwrap()).unwrap();
        RunConfig::from_value(&value).unwrap();
    }
}

/// Every strict truncation of `valid` (`true`), then `valid` with one
/// byte flipped at each offset (`false`).
fn mutants(valid: &[u8]) -> impl Iterator<Item = (bool, String, Vec<u8>)> + '_ {
    let cuts = (0..valid.len()).map(|n| (true, format!("cut to {n}"), valid[..n].to_vec()));
    let flips = (0..valid.len()).map(|at| {
        let mut bytes = valid.to_vec();
        bytes[at] ^= 0xFF;
        (false, format!("flip at {at}"), bytes)
    });
    cuts.chain(flips)
}

/// Runs `decode` on every mutant of `valid`: no panic, and every
/// truncation an error.
fn sweep<E: std::fmt::Debug>(
    name: &str,
    valid: &[u8],
    mut decode: impl FnMut(&[u8]) -> Result<(), E>,
) {
    decode(valid).unwrap_or_else(|e| panic!("{name}: the valid record fails: {e:?}"));
    for (truncated, how, bytes) in mutants(valid) {
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(&bytes)));
        let outcome = outcome.unwrap_or_else(|_| panic!("{name}, {how}: panics"));
        assert!(!truncated || outcome.is_err(), "{name}, {how}: accepted");
    }
}

#[test]
fn blob_files_never_panic_the_cache_reader() {
    let dir = std::env::temp_dir().join(format!("nf_blob_fuzz_{}", std::process::id()));
    let acts = vec![0.5, -1.0, 2.0, 0.0, 3.0, 1.5, -2.5, 4.0];
    let t = Tensor::from_vec(vec![2, 2, 1, 2], acts).unwrap();
    for codec in CodecKind::all() {
        let file = dir.join(format!("{codec}/block_0.acts"));
        let mut store = DiskStore::with_codec(file.parent().unwrap(), codec).unwrap();
        store.write(0, &t).unwrap();
        let valid = std::fs::read(&file).unwrap();
        let (mut out, mut q) = (Tensor::default(), QuantTensor::new());
        sweep(
            &format!("{codec} blob"),
            &valid,
            |bytes| -> Result<(), NfError> {
                std::fs::write(&file, bytes).unwrap();
                let mut store = DiskStore::recover_with_codec(file.parent().unwrap(), codec)?;
                store.read_into(0, &mut out)?;
                store.read_quant(0, &mut q)?;
                // Per batch, as the Worker reads: each one typed or correct.
                for s in 0..store.open(0)? {
                    store.read_batch_into(0, s..s + 1, &mut out)?;
                    store.read_batch_quant(0, s..s + 1, &mut q)?;
                }
                Ok(())
            },
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parameter_blobs_never_panic_the_restore() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut unit = Sequential::new(vec![
        Box::new(Conv2d::new(&mut rng, 1, 2, 1, 1, 0).unwrap()) as Box<dyn Layer>,
        Box::new(BatchNorm2d::new(2)),
    ]);
    // One momentum step, so the blob carries optimizer state and moved
    // running statistics.
    let x = Tensor::ones(&[2, 1, 1, 1]);
    let y = unit.forward(&x, Mode::Train).unwrap();
    unit.backward(&y).unwrap();
    nf_nn::optim::Sgd::new(0.1)
        .with_momentum(0.9)
        .step(&mut unit);
    let valid = serialize_params(&mut unit);
    // An accepted blob restores to a layer that serialises back to it.
    sweep("parameter blob", &valid, |bytes| {
        deserialize_params(&mut unit, bytes)?;
        assert_eq!(serialize_params(&mut unit), bytes);
        Ok::<_, NfError>(())
    });
}

#[test]
fn checkpoints_never_panic_the_loader() {
    let mut rng = StdRng::seed_from_u64(4);
    let spec = ModelSpec::tiny("fuzz", 4, &[1], 2);
    let mut model = spec.build(&mut rng).unwrap();
    let mut heads = build_aux_heads(&mut rng, &spec, AuxPolicy::Fixed(1)).unwrap();
    let report = WorkerReport {
        block_losses: vec![vec![0.5, 0.25]],
        block_batches: vec![4],
        ..WorkerReport::default()
    };
    let valid = Checkpoint::capture(1, false, &mut model, &mut heads, &report).to_bytes();
    sweep("checkpoint", &valid, |bytes| {
        Checkpoint::from_bytes(bytes)?.restore(&mut model, &mut heads)
    });
}

#[test]
fn wire_records_never_panic_the_decoders() {
    let request = proto::encode_request(&Request::Infer {
        id: 7,
        tier: neuroflux_core::SloTier::Balanced,
        pixels: vec![0.5, -1.0],
    });
    // An accepted request re-encodes to its bytes; a cut one is short.
    sweep(
        "infer request",
        &request,
        |bytes| match proto::decode_request(bytes) {
            Ok(req) => {
                assert_eq!(proto::encode_request(&req), bytes);
                Ok(())
            }
            Err(e @ (ProtoError::Truncated { .. } | ProtoError::LengthMismatch { .. })) => Err(e),
            Err(e) if bytes.len() < request.len() => panic!("cut to {}: {e:?}", bytes.len()),
            Err(e) => Err(e),
        },
    );
    // Random payloads, and each opcode / status byte before a random tail.
    let mut rng = StdRng::seed_from_u64(0xF0CC ^ 0xBEEF);
    for lead in (0u8..6).map(Some).chain([None]) {
        for _ in 0..1000 {
            let tail = (0..rng.gen_range(0usize..64)).map(|_| rng.gen_range(0..=u8::MAX));
            let bytes: Vec<u8> = lead.into_iter().chain(tail).collect();
            let outcome = catch_unwind(|| {
                (
                    proto::decode_request(&bytes),
                    proto::decode_response(&bytes),
                )
            });
            assert!(outcome.is_ok(), "{bytes:?} panics a decoder");
        }
    }
    for response in [
        Response::Infer {
            id: 7,
            class: 1,
            exit: 0,
            confidence: 0.75,
            server_us: 40,
        },
        Response::Rejected {
            id: 8,
            reason: RejectReason::Deadline,
        },
        Response::Error {
            message: "no".into(),
        },
    ] {
        sweep(
            &format!("{response:?}"),
            &proto::encode_response(&response),
            |bytes| {
                let back = proto::decode_response(bytes)?;
                assert_eq!(proto::encode_response(&back), bytes);
                Ok::<_, ProtoError>(())
            },
        );
    }
}

#[test]
fn appended_bytes_are_typed_errors() {
    // Every decoder reads exactly one record: a byte past its last field
    // is an error naming the record, not a silently ignored tail.
    let mut rng = StdRng::seed_from_u64(5);
    let spec = ModelSpec::tiny("tail", 4, &[1], 2);
    let mut model = spec.build(&mut rng).unwrap();
    let mut blob = serialize_params(&mut model.head);
    blob.push(0);
    let err = deserialize_params(&mut model.head, &blob).unwrap_err();
    assert!(
        matches!(&err, NfError::Cache { op: "read", cause, .. } if cause.contains("fields end at")),
        "{err}"
    );
    let mut checkpoint =
        Checkpoint::capture(0, false, &mut model, &mut [], &WorkerReport::default()).to_bytes();
    checkpoint.push(0);
    let err = Checkpoint::from_bytes(&checkpoint).unwrap_err();
    assert!(
        matches!(&err, NfError::Checkpoint { op: "read", cause } if cause.contains("fields end at")),
        "{err}"
    );
    let mut ping = proto::encode_request(&Request::Ping { id: 3 });
    ping.push(0xAA);
    let err = proto::decode_request(&ping).unwrap_err();
    assert!(matches!(err, ProtoError::LengthMismatch { .. }), "{err:?}");
}
