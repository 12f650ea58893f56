//! Loss bits against history, not only against the code they replace.
//!
//! `fresh_process_bits.rs` proves two processes agree with each other;
//! the bit-identity tests of `nf-tensor` prove a new kernel agrees with
//! the one it replaced. Neither notices when both sides move together. This
//! table pins the `block_losses` of three test-sized runs shaped like the
//! repo benchmark's workloads, digested the way the benchmark digests them
//! (64-bit FNV-1a over every epoch loss's f32 bits, little-endian, block by
//! block). Every tile and both conv orientations are held to equal bits, so
//! the same table holds on AVX-512, AVX2 and portable hosts; a run that
//! disagrees is a finding, and changing a digest is a reviewed one-line
//! diff (a `KC` change would be one).

use neuroflux_core::{CodecKind, NeuroFluxConfig, NeuroFluxTrainer};
use nf_data::SyntheticSpec;
use nf_models::{HeadSpec, LayerKind, ModelSpec};
use rand::SeedableRng;

/// 64-bit FNV-1a, as the repo benchmark's `child.rs` computes it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One table row: how to train, how many blocks the plan must have, and
/// the digest of the run's `block_losses`.
struct Golden {
    name: &'static str,
    spec: fn() -> ModelSpec,
    data: (usize, usize, usize),
    config: fn() -> NeuroFluxConfig,
    blocks: usize,
    digest: &'static str,
}

/// `tiny` at 32² whose convs run at 32², 16² and 8², one of them at stride
/// 2: layers on both sides of the lane rule and one it never takes. The
/// last unit and its head multiply `K` = 32·9 = 288 > `KC`.
fn mixed_spec() -> ModelSpec {
    let mut spec = ModelSpec::tiny("golden-mixed", 32, &[8, 16, 16, 32, 32], 4);
    // Unit 3 downsamples by its stride instead of a pool.
    let LayerKind::Conv { stride, pool, .. } = &mut spec.units[3].kind else {
        unreachable!("tiny is all conv units")
    };
    (*stride, *pool) = (2, false);
    let (c, h, w) = spec.final_feature_shape();
    spec.head = HeadSpec::Linear {
        in_features: c * h * w,
        classes: spec.classes,
    };
    spec
}

/// 2–4 channels at 64², the benchmark's `cache_io` layer widths.
fn narrow_spec() -> ModelSpec {
    ModelSpec::tiny("golden-narrow", 64, &[2, 4, 4], 4)
}

/// `quant`'s widths at 24².
fn int8_spec() -> ModelSpec {
    ModelSpec::tiny("golden-int8", 24, &[8, 8, 12], 4)
}

const TABLE: [Golden; 3] = [
    Golden {
        name: "mixed 32²/16²/8² + stride 2, one block",
        spec: mixed_spec,
        data: (4, 32, 24),
        config: || NeuroFluxConfig::new(1 << 30, 8).with_epochs(2),
        blocks: 1,
        digest: "e150c1a6e3df02d9",
    },
    Golden {
        name: "narrow 64², one block per unit",
        spec: narrow_spec,
        data: (4, 64, 20),
        config: || NeuroFluxConfig::new(1_500_000, 8),
        blocks: 3,
        digest: "b9fd35e7386000c8",
    },
    Golden {
        name: "int8 codec + int8 compute, one block per unit",
        spec: int8_spec,
        data: (4, 24, 24),
        config: || {
            NeuroFluxConfig::new(800_000, 8)
                .with_cache_codec(CodecKind::Int8Affine)
                .with_int8_compute(true)
        },
        blocks: 3,
        digest: "c48bb80c6faa0e17",
    },
];

/// Trains one row at seed 1 and returns `(blocks, digest)`.
fn run(row: &Golden) -> (usize, String) {
    let (classes, hw, train) = row.data;
    let data = SyntheticSpec::quick(classes, hw, train).generate();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let outcome = NeuroFluxTrainer::new((row.config)())
        .train(&mut rng, &(row.spec)(), &data)
        .unwrap();
    let bytes: Vec<u8> = outcome
        .report
        .block_losses
        .iter()
        .flatten()
        .flat_map(|l| l.to_bits().to_le_bytes())
        .collect();
    (outcome.blocks.len(), format!("{:016x}", fnv1a(&bytes)))
}

#[test]
fn block_losses_match_the_committed_digests() {
    let got: Vec<(usize, String)> = TABLE.iter().map(run).collect();
    for (row, (blocks, digest)) in TABLE.iter().zip(&got) {
        println!("{}: {blocks} blocks, digest {digest}", row.name);
    }
    for (row, (blocks, digest)) in TABLE.iter().zip(got) {
        assert_eq!(blocks, row.blocks, "{}: block plan changed", row.name);
        assert_eq!(digest, row.digest, "{}: loss bits changed", row.name);
    }
}
