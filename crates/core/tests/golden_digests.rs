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
//!
//! The weight gradient on the positions axis (`kernels::positions_fit`)
//! was one: it sums each `dW` element in another order, so it moved the
//! `narrow` and `int8` digests. Its layers here — `mixed`: the units 3→8
//! and 8→16 @32², the heads 8→4 @32² and 16→4 @16²; `narrow`: every conv
//! (units 3→2, 2→4 @64² and 4→4 @32², heads 2→1 @64², 4→1 and 4→2 @32²);
//! `int8`: the units 3→8 and 8→8 @24² and the head 8→4 @24². The `mixed`
//! digest did not move: its one block trains three steps an epoch, too few
//! for last-bit gradient differences to reach a loss's bits.

use neuroflux_core::{
    serialize_params, ActivationStore, Checkpoint, CodecKind, DiskStore, NeuroFluxConfig,
    NeuroFluxTrainer, ServeEngine, ServeRequest, SloTier,
};
use nf_data::SyntheticSpec;
use nf_models::{assign_aux, build_aux_head, AuxPolicy, HeadSpec, LayerKind, ModelSpec};
use nf_tensor::Tensor;
use rand::{Rng, SeedableRng};

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
        digest: "8ea3f283d92b3bc7",
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
        digest: "b0ee0543c7e5f97b",
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

/// What the served replies of each golden spec digest to, in `TABLE`
/// order: untrained seed-1 weights with adaptive aux heads, behind a
/// threshold no untrained head clears, so every request runs to its tier's
/// cap (as in `serve_batch_bits.rs`). Only the forward pass and the exit
/// heads reach these bits, so a change to training alone leaves them.
const SERVED: [&str; 3] = ["287c9f34779ae9bd", "d8aeae0e2b556149", "d79b4aa0836a3935"];

/// Requests per served digest: two batches of 8, each also sent alone.
const SERVED_REQUESTS: usize = 16;

/// Serves one row's spec at batch 1 and at batch 8 and returns the digest
/// of every reply's `(id, class, exit, confidence bits)`, little-endian.
fn serve(row: &Golden) -> String {
    let spec = (row.spec)();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let model = spec.build(&mut rng).unwrap();
    let heads = assign_aux(&spec, AuxPolicy::Adaptive)
        .iter()
        .map(|a| build_aux_head(&mut rng, a).unwrap())
        .collect();
    let mut engine = ServeEngine::new(model, heads, 0.999).unwrap();
    let tiers = [SloTier::Exact, SloTier::Fast, SloTier::Balanced];
    let requests: Vec<ServeRequest> = (0..SERVED_REQUESTS)
        .map(|i| ServeRequest {
            id: i as u64,
            tier: tiers[i % tiers.len()],
            pixels: (0..engine.input_len())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
            arrival_us: 0,
            deadline_us: u64::MAX,
        })
        .collect();
    let mut bytes = Vec::new();
    for batch in [1, 8] {
        for chunk in requests.chunks(batch) {
            for reply in engine.infer_batch(chunk).unwrap() {
                bytes.extend(reply.id.to_le_bytes());
                bytes.extend((reply.class as u64).to_le_bytes());
                bytes.extend((reply.exit as u64).to_le_bytes());
                bytes.extend(reply.confidence.to_bits().to_le_bytes());
            }
        }
    }
    format!("{:016x}", fnv1a(&bytes))
}

#[test]
fn served_replies_match_the_committed_digests() {
    let got: Vec<String> = TABLE.iter().map(serve).collect();
    for (row, digest) in TABLE.iter().zip(&got) {
        println!("{}: served digest {digest}", row.name);
    }
    for ((row, digest), want) in TABLE.iter().zip(got).zip(SERVED) {
        assert_eq!(digest, want, "{}: served bits changed", row.name);
    }
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

/// What the stored bytes digest to: one cache blob file (header + payload)
/// per codec in `CodecKind::all()` order, over a seeded tensor of each
/// int8 grouping (NCHW per channel, rank-2 per row, rank-1 whole); then
/// `serialize_params` of every unit, the head and every aux head of a
/// seeded tiny run; then that run's `Checkpoint::to_bytes`. A format
/// change moves one of these, whatever the loss bits do.
const STORED: [&str; 5] = [
    "7a0add2413736ce6",
    "d71e86aba1b03a6e",
    "48468a81045ba1a9",
    "dd7ae8aee8a2e96d",
    "2064edcda552a989",
];

/// Every blob file a `DiskStore` under `codec` writes for the seeded
/// tensors, concatenated.
fn blob_files(codec: CodecKind) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("nf_golden_blob_{}_{codec}", std::process::id()));
    let mut store = DiskStore::with_codec(&dir, codec).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut bytes = Vec::new();
    for (block, shape) in [vec![2, 3, 4, 4], vec![3, 5], vec![7]]
        .into_iter()
        .enumerate()
    {
        let numel = shape.iter().product();
        let data = (0..numel).map(|_| rng.gen_range(-4.0..4.0)).collect();
        store
            .write(block, &Tensor::from_vec(shape, data).unwrap())
            .unwrap();
        bytes.extend(std::fs::read(dir.join(format!("block_{block}.acts"))).unwrap());
    }
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

#[test]
fn stored_bytes_match_the_committed_digests() {
    let mut got: Vec<String> = CodecKind::all()
        .into_iter()
        .map(|codec| format!("{:016x}", fnv1a(&blob_files(codec))))
        .collect();
    let data = SyntheticSpec::quick(3, 8, 16).generate();
    let spec = ModelSpec::tiny("golden-stored", 8, &[4, 8], 3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut run = NeuroFluxTrainer::new(NeuroFluxConfig::new(1 << 30, 8).with_epochs(1))
        .train(&mut rng, &spec, &data)
        .unwrap();
    let params: Vec<u8> = run
        .model
        .units
        .iter_mut()
        .chain([&mut run.model.head])
        .chain(run.aux_heads.iter_mut())
        .flat_map(|layer| serialize_params(layer))
        .collect();
    got.push(format!("{:016x}", fnv1a(&params)));
    let blocks = run.blocks.len();
    let checkpoint = Checkpoint::capture(
        blocks,
        true,
        &mut run.model,
        &mut run.aux_heads,
        &run.report,
    );
    got.push(format!("{:016x}", fnv1a(&checkpoint.to_bytes())));
    println!("stored digests {got:?}");
    let names = [
        "f32 blobs",
        "f16 blobs",
        "int8 blobs",
        "params",
        "checkpoint",
    ];
    for ((name, digest), want) in names.iter().zip(got).zip(STORED) {
        assert_eq!(digest, want, "{name}: stored bytes changed");
    }
}
