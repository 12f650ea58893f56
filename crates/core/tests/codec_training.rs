//! End-to-end contract of the activation-cache codecs (ISSUE 5's
//! acceptance criteria, scaled to test size):
//!
//! - training entirely through an `int8` cache reaches final accuracy
//!   within 1 percentage point of the `f32` run;
//! - the `int8` peak cache footprint is ≤ 0.30× the `f32` value
//!   (≥ 3.3× compression) — the §6.4 headline;
//! - `f32` remains the bit-exact reference: its encoded accounting equals
//!   the logical f32 accounting exactly;
//! - a Worker handed a store whose codec disagrees with its config fails
//!   with a typed mismatch instead of producing skewed telemetry.

use neuroflux_core::{
    ActivationStore, CodecKind, MemoryStore, NeuroFluxConfig, NeuroFluxTrainer, NfError, Worker,
};
use nf_data::{SplitDataset, SyntheticSpec};
use nf_models::ModelSpec;
use rand::SeedableRng;

fn dataset() -> SplitDataset {
    // A generous test split so accuracy granularity (1/len) is well below
    // the 1pp tolerance being asserted.
    let mut spec = SyntheticSpec::quick(3, 8, 120);
    spec.test = 240;
    spec.generate()
}

struct CodecRun {
    test_accuracy: f32,
    peak_bytes: u64,
    bytes_written: u64,
    logical_bytes: u64,
}

fn train_with_codec(codec: CodecKind, ds: &SplitDataset) -> CodecRun {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let spec = ModelSpec::tiny("codec-e2e", 8, &[6, 8, 8], 3);
    // ρ = 0 puts every unit in its own block, so later blocks genuinely
    // train from decoded cache contents (the path under test).
    let config = NeuroFluxConfig::new(1 << 30, 16)
        .with_epochs(3)
        .with_rho(0.0)
        .with_cache_codec(codec);
    let mut outcome = NeuroFluxTrainer::new(config)
        .train(&mut rng, &spec, ds)
        .unwrap();
    let test_accuracy = outcome.selected_exit_accuracy(&ds.test).unwrap();
    CodecRun {
        test_accuracy,
        peak_bytes: outcome.report.cache_peak_bytes,
        bytes_written: outcome.report.cache_bytes_written,
        logical_bytes: outcome.report.cache_logical_bytes,
    }
}

#[test]
fn quantized_cache_training_matches_f32_within_one_point() {
    let ds = dataset();
    let f32_run = train_with_codec(CodecKind::F32Raw, &ds);
    let f16_run = train_with_codec(CodecKind::F16, &ds);
    let int8_run = train_with_codec(CodecKind::Int8Affine, &ds);

    // The f32 run must learn for the comparison to mean anything.
    assert!(
        f32_run.test_accuracy > 0.6,
        "f32 accuracy {}",
        f32_run.test_accuracy
    );
    // Acceptance: final accuracy within 1pp of the f32 run.
    for (name, run) in [("f16", &f16_run), ("int8", &int8_run)] {
        let diff = (run.test_accuracy - f32_run.test_accuracy).abs();
        assert!(
            diff <= 0.0101,
            "{name} accuracy {} vs f32 {} (diff {diff})",
            run.test_accuracy,
            f32_run.test_accuracy
        );
    }

    // Acceptance: int8 peak ≤ 0.30× f32 peak (≥ 3.3× compression); f16 is
    // exactly half.
    let int8_ratio = int8_run.peak_bytes as f64 / f32_run.peak_bytes as f64;
    assert!(int8_ratio <= 0.30, "int8 peak ratio {int8_ratio}");
    let f16_ratio = f16_run.peak_bytes as f64 / f32_run.peak_bytes as f64;
    assert!(
        (0.49..=0.51).contains(&f16_ratio),
        "f16 peak ratio {f16_ratio}"
    );

    // Encoded-vs-logical accounting: f32 is the identity codec; the
    // quantized codecs report the same logical bytes but fewer encoded.
    assert_eq!(f32_run.bytes_written, f32_run.logical_bytes);
    assert_eq!(f16_run.logical_bytes, f32_run.logical_bytes);
    assert_eq!(f16_run.bytes_written * 2, f16_run.logical_bytes);
    assert!(int8_run.bytes_written * 3 < int8_run.logical_bytes);
}

#[test]
fn worker_rejects_store_codec_disagreeing_with_config() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let ds = SyntheticSpec::quick(3, 8, 24).generate();
    let spec = ModelSpec::tiny("mismatch", 8, &[4, 4], 3);
    let mut model = spec.build(&mut rng).unwrap();
    let mut heads =
        nf_models::build_aux_heads(&mut rng, &spec, nf_models::AuxPolicy::Fixed(4)).unwrap();
    let blocks = vec![
        neuroflux_core::Block {
            units: 0..1,
            batch: 8,
        },
        neuroflux_core::Block {
            units: 1..2,
            batch: 8,
        },
    ];
    // Config says int8, store encodes f16: the §6.4 telemetry would be
    // attributed to the wrong codec, so the run is refused up front.
    let config = NeuroFluxConfig::new(1 << 30, 8)
        .with_epochs(1)
        .with_cache_codec(CodecKind::Int8Affine);
    let mut store = MemoryStore::with_codec(CodecKind::F16);
    assert_eq!(ActivationStore::codec(&store), CodecKind::F16);
    let err = Worker::new(config, &mut store)
        .run(
            &mut model,
            &mut heads,
            &blocks,
            ds.train.images(),
            ds.train.labels(),
        )
        .unwrap_err();
    match err {
        NfError::CodecMismatch {
            expected, found, ..
        } => {
            assert_eq!(expected, "int8");
            assert_eq!(found, "f16");
        }
        other => panic!("expected CodecMismatch, got {other}"),
    }
}

#[test]
fn every_codec_round_trips_through_the_full_pipeline() {
    // Smoke over all codecs: the pipeline completes and selects an exit.
    let ds = SyntheticSpec::quick(3, 8, 48).generate();
    for codec in CodecKind::all() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let spec = ModelSpec::tiny("rt", 8, &[4, 8], 3);
        let config = NeuroFluxConfig::new(1 << 30, 8)
            .with_epochs(2)
            .with_rho(0.0)
            .with_cache_codec(codec);
        let outcome = NeuroFluxTrainer::new(config)
            .train(&mut rng, &spec, &ds)
            .unwrap_or_else(|e| panic!("{codec}: {e}"));
        assert!(outcome.selected_exit.is_some(), "{codec}");
        assert_eq!(outcome.report.cache_codec, codec);
        assert!(outcome.report.cache_bytes_written > 0, "{codec}");
    }
}
