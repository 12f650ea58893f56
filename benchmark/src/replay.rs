//! The traced run's child: a training replay and a serving replay that
//! walk the real code paths from outside, one span per call into a layer,
//! followed by direct micro-measurements of the layers' public functions.
//!
//! The training replay is Algorithm 2 as `Worker::run_with` runs it, over
//! the real block plan and the real on-disk cache: `read_into` → unit
//! forward → aux forward → loss → backward → `Sgd::step` → regenerate →
//! `write` → evict → checkpoint, then the deep head and the exit
//! evaluation `nf train` finishes with. Units and heads are stepped layer
//! by layer (what `Sequential` does inside), so `nn.*` self time is time
//! inside layer code wherever the forward pass was started from.
//!
//! Everything is printed as `@m <metric> <value>` lines for the parent.

use crate::child::{plan_facts, request_pool};
use crate::stats::median;
use crate::trace::{allocations, Tracer};
use neuroflux_core::{
    ActivationCodec, ActivationStore, Block, CacheBlob, CheckpointSink, ConfidenceCascade,
    DiskStore, FileCheckpoint, MicroBatcher, NeuroFluxTrainer, ServeRequest, SloTier, WorkerReport,
};
use nf_cli::net::reactor::{FrameAssembler, WriteQueue};
use nf_cli::proto::{self, Request, Response};
use nf_cli::{RunConfig, RunDir, Table, Value};
use nf_models::{assign_aux, build_aux_head, exit_candidates, select_exit, BuiltModel};
use nf_nn::loss::{accuracy, cross_entropy};
use nf_nn::optim::Sgd;
use nf_nn::{Layer, Mode, Sequential};
use nf_tensor::kernels::int8;
use nf_tensor::{
    col2im_batch_into, im2col_batch_into, matmul_a_bt_into, matmul_at_b_into, matmul_into,
    Conv2dGeometry, KernelBackend, QuantTensor, Tensor,
};
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repetitions of every direct micro-measurement (median reported).
const MICRO_REPS: usize = 9;

type Res<T> = Result<T, String>;

fn s<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn emit(metric: &str, value: f64) {
    println!("@m {metric} {value}");
}

/// Span names of one `Sequential`'s layers, resolved once so the replay
/// never formats a layer name inside a measured region.
struct Kinds {
    fwd: Vec<&'static str>,
    bwd: Vec<&'static str>,
}

impl Kinds {
    fn of(seq: &Sequential) -> Kinds {
        let (fwd, bwd) = seq
            .layers()
            .iter()
            .map(|l| {
                let name = l.name();
                if name.starts_with("conv2d") {
                    ("nn.conv_fwd", "nn.conv_bwd")
                } else if name.starts_with("batchnorm") {
                    ("nn.bn_fwd", "nn.bn_bwd")
                } else if name.starts_with("linear") {
                    ("nn.linear_fwd", "nn.linear_bwd")
                } else {
                    // relu, pooling, flatten
                    ("nn.other_fwd", "nn.other_bwd")
                }
            })
            .unzip();
        Kinds { fwd, bwd }
    }
}

/// `Sequential::forward`, one span per layer.
fn forward(
    tr: &mut Tracer,
    seq: &mut Sequential,
    k: &Kinds,
    x: &Tensor,
    mode: Mode,
) -> Res<Tensor> {
    let mut cur = x.clone();
    for (layer, name) in seq.layers_mut().iter_mut().zip(&k.fwd) {
        tr.begin(name);
        cur = layer.forward(&cur, mode).map_err(s)?;
        tr.end();
    }
    Ok(cur)
}

/// `Sequential::forward_quant`: the entry layer takes the int8 input.
fn forward_quant(tr: &mut Tracer, seq: &mut Sequential, k: &Kinds, x: &QuantTensor) -> Res<Tensor> {
    let mut layers = seq.layers_mut().iter_mut().zip(&k.fwd);
    let Some((first, name)) = layers.next() else {
        return x.dequantize().map_err(s);
    };
    tr.begin(name);
    let mut cur = first.forward_quant(x, Mode::Eval).map_err(s)?;
    tr.end();
    for (layer, name) in layers {
        tr.begin(name);
        cur = layer.forward(&cur, Mode::Eval).map_err(s)?;
        tr.end();
    }
    Ok(cur)
}

/// `Sequential::backward`, one span per layer.
fn backward(tr: &mut Tracer, seq: &mut Sequential, k: &Kinds, grad: &Tensor) -> Res<Tensor> {
    let mut g = grad.clone();
    for (layer, name) in seq.layers_mut().iter_mut().zip(&k.bwd).rev() {
        tr.begin(name);
        g = layer.backward(&g).map_err(s)?;
        tr.end();
    }
    Ok(g)
}

/// The model under replay with the span names of all its parts.
struct Net {
    model: BuiltModel,
    aux: Vec<Sequential>,
    unit_kinds: Vec<Kinds>,
    aux_kinds: Vec<Kinds>,
    head_kinds: Kinds,
}

/// Accuracy when exiting at head `exit` — `controller::exit_accuracy`,
/// layer by layer.
fn exit_accuracy(tr: &mut Tracer, net: &mut Net, exit: usize, data: &nf_data::Dataset) -> Res<f32> {
    let (mut correct, mut seen) = (0.0f32, 0usize);
    for (images, labels) in data.batches(64) {
        let mut cur = images;
        for u in 0..=exit {
            cur = forward(
                tr,
                &mut net.model.units[u],
                &net.unit_kinds[u],
                &cur,
                Mode::Eval,
            )?;
        }
        let logits = forward(
            tr,
            &mut net.aux[exit],
            &net.aux_kinds[exit],
            &cur,
            Mode::Eval,
        )?;
        correct += accuracy(&logits, &labels).map_err(s)? * labels.len() as f32;
        seen += labels.len();
    }
    Ok(correct / seen.max(1) as f32)
}

/// What the training replay hands to the micro-measurements and the
/// parent.
struct TrainReplay {
    net: Net,
    data: nf_data::SplitDataset,
    blocks: Vec<Block>,
    /// Activations of the first block, as written to the cache.
    sample_acts: Tensor,
    /// `[cache] codec` and `[train] int8_compute` of the replayed config.
    codec: neuroflux_core::CodecKind,
    int8_compute: bool,
    wall_s: f64,
    steps: u64,
    step_allocs: u64,
    last_loss: f32,
    acc: f32,
    bytes_written: u64,
    logical_bytes: u64,
    peak_bytes: u64,
    checkpoint_bytes: u64,
}

/// The training replay. Set-up (config → data → plan → build) is spanned
/// but outside the replay wall, exactly as `train_wall_s` starts at the
/// first training step.
fn train_replay(tr: &mut Tracer, config: &Path) -> Res<TrainReplay> {
    tr.begin("cli.config.parse");
    let cfg = RunConfig::load(config).map_err(s)?;
    let (spec, data_spec, nf_config) = cfg.resolve().map_err(s)?;
    tr.end();
    tr.begin("cli.rundir.write");
    let run_dir = RunDir::create(&cfg.run.out_dir, &cfg.run.name).map_err(s)?;
    std::fs::remove_dir_all(run_dir.cache_dir()).ok();
    run_dir.write_config(&cfg).map_err(s)?;
    tr.end();
    tr.begin("data.generate");
    let data = data_spec.generate();
    tr.end();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.run.seed);
    let mut store = DiskStore::with_codec(run_dir.cache_dir(), nf_config.cache_codec).map_err(s)?;
    let mut sink = FileCheckpoint::new(run_dir.checkpoint_path());
    let trainer = NeuroFluxTrainer::new(nf_config);
    tr.begin("core.plan");
    let blocks = trainer.plan(&mut rng, &spec).map_err(s)?;
    tr.end();
    tr.begin("models.build");
    let model = spec.build(&mut rng).map_err(s)?;
    let aux_specs = assign_aux(&spec, nf_config.aux_policy);
    let mut aux = Vec::with_capacity(aux_specs.len());
    for a in &aux_specs {
        aux.push(build_aux_head(&mut rng, a).map_err(s)?);
    }
    tr.end();
    let mut net = Net {
        unit_kinds: model.units.iter().map(Kinds::of).collect(),
        aux_kinds: aux.iter().map(Kinds::of).collect(),
        head_kinds: Kinds::of(&model.head),
        model,
        aux,
    };

    // ---- the replay wall starts where `block 1/N` is printed ----------
    let wall = Instant::now();
    let backend = nf_config.kernel_backend;
    let ws_units = nf_tensor::shared_workspace();
    let ws_heads = nf_tensor::shared_workspace();
    for unit in &mut net.model.units {
        unit.set_kernel_backend(backend);
        unit.set_workspace(&ws_units);
    }
    for head in &mut net.aux {
        head.set_kernel_backend(backend);
        head.set_workspace(&ws_heads);
    }
    net.model.head.set_kernel_backend(backend);
    net.model.head.set_workspace(&ws_units);

    let sgd = Sgd::new(nf_config.lr).with_momentum(nf_config.momentum);
    let images = data.train.images();
    let labels = data.train.labels();
    let mut report = WorkerReport {
        cache_codec: nf_config.cache_codec,
        ..WorkerReport::default()
    };
    let mut cache_input = Tensor::default();
    let mut quant_input = QuantTensor::new();
    let mut qbatch = QuantTensor::new();
    let mut sample_acts = Tensor::default();
    let (mut steps, mut step_allocs, mut last_loss) = (0u64, 0u64, f32::NAN);

    for (b, block) in blocks.iter().enumerate() {
        let inputs: &Tensor = if b == 0 {
            images
        } else {
            tr.begin("core.cache.read");
            store.read_into(b - 1, &mut cache_input).map_err(s)?;
            tr.end();
            &cache_input
        };
        let n = inputs.shape()[0];
        let batch = block.batch.max(1);
        let mut losses = Vec::new();
        for _epoch in 0..nf_config.epochs_per_block {
            let mut epoch_losses = Vec::new();
            let mut start = 0usize;
            while start < n {
                let end = (start + batch).min(n);
                let mut cur = inputs.slice_batch(start, end).map_err(s)?;
                let batch_labels = &labels[start..end];
                for u in block.units.clone() {
                    let allocs0 = allocations();
                    tr.begin("core.worker.step");
                    tr.begin("core.worker.fwd");
                    let out = forward(
                        tr,
                        &mut net.model.units[u],
                        &net.unit_kinds[u],
                        &cur,
                        Mode::Train,
                    )?;
                    tr.end();
                    tr.begin("core.worker.aux");
                    let logits =
                        forward(tr, &mut net.aux[u], &net.aux_kinds[u], &out, Mode::Train)?;
                    tr.begin("nn.loss");
                    let (loss, grad_logits) = cross_entropy(&logits, batch_labels).map_err(s)?;
                    tr.end();
                    epoch_losses.push(loss);
                    let grad_out = backward(tr, &mut net.aux[u], &net.aux_kinds[u], &grad_logits)?;
                    tr.end();
                    tr.begin("core.worker.bwd");
                    backward(tr, &mut net.model.units[u], &net.unit_kinds[u], &grad_out)?;
                    tr.end();
                    tr.begin("core.worker.opt");
                    tr.begin("nn.sgd_step");
                    sgd.step(&mut net.model.units[u]);
                    sgd.step(&mut net.aux[u]);
                    tr.end();
                    tr.end();
                    tr.end();
                    steps += 1;
                    step_allocs += allocations() - allocs0;
                    cur = out;
                }
                start = end;
            }
            let mean = epoch_losses.iter().sum::<f32>() / epoch_losses.len().max(1) as f32;
            losses.push(mean);
            last_loss = mean;
        }
        report.block_losses.push(losses);
        report.block_batches.push(block.batch);

        // Regenerate the block's outputs over the whole training set: from
        // the int8 cache without decoding when the run is configured so
        // and the store can serve it, in f32 otherwise.
        tr.begin("core.worker.regen");
        let quantized = b > 0 && nf_config.int8_compute && {
            tr.begin("core.cache.read");
            let served = store.read_quant(b - 1, &mut quant_input).map_err(s)?;
            tr.end();
            served
        };
        let mut parts: Vec<Tensor> = Vec::new();
        let mut start = 0usize;
        while start < n {
            let end = (start + batch).min(n);
            let mut units = block.units.clone();
            let mut cur = if quantized {
                quant_input
                    .slice_batch_into(start, end, &mut qbatch)
                    .map_err(s)?;
                match units.next() {
                    Some(u) => {
                        forward_quant(tr, &mut net.model.units[u], &net.unit_kinds[u], &qbatch)?
                    }
                    None => qbatch.dequantize().map_err(s)?,
                }
            } else {
                inputs.slice_batch(start, end).map_err(s)?
            };
            for u in units {
                cur = forward(
                    tr,
                    &mut net.model.units[u],
                    &net.unit_kinds[u],
                    &cur,
                    Mode::Eval,
                )?;
            }
            parts.push(cur);
            start = end;
        }
        let refs: Vec<&Tensor> = parts.iter().collect();
        let acts = Tensor::cat_batch(&refs).map_err(s)?;
        tr.end();

        report.cache_logical_bytes += acts.numel() as u64 * 4;
        tr.begin("core.cache.write");
        report.cache_bytes_written += store.write(b, &acts).map_err(s)?;
        tr.end();
        if b == 0 {
            sample_acts = acts;
        }
        tr.begin("core.worker.evict");
        for u in block.units.clone() {
            net.model.units[u].clear_cache();
            net.aux[u].clear_cache();
            if nf_config.evict_params {
                for layer in [&mut net.model.units[u], &mut net.aux[u]] {
                    let blob = neuroflux_core::serialize_params(layer);
                    report.params_bytes_evicted += blob.len() as u64;
                    neuroflux_core::deserialize_params(layer, &blob).map_err(s)?;
                }
            }
        }
        tr.end();
        report.cache_peak_bytes = store.peak_bytes();
        tr.begin("core.checkpoint.save");
        sink.save_state(b + 1, false, &mut net.model, &mut net.aux, &report)
            .map_err(s)?;
        tr.end();
        if b > 0 {
            tr.begin("core.cache.delete");
            store.delete(b - 1).map_err(s)?;
            tr.end();
        }
    }

    // The deep head trains on the last block's cached activations.
    if let Some(last) = blocks.len().checked_sub(1) {
        tr.begin("core.cache.read");
        store.read_into(last, &mut cache_input).map_err(s)?;
        tr.end();
        tr.begin("core.worker.head");
        let batch = blocks[last].batch.max(1);
        let n = cache_input.shape()[0];
        for _ in 0..nf_config.epochs_per_block {
            let mut start = 0usize;
            while start < n {
                let end = (start + batch).min(n);
                let xb = cache_input.slice_batch(start, end).map_err(s)?;
                let logits = forward(tr, &mut net.model.head, &net.head_kinds, &xb, Mode::Train)?;
                tr.begin("nn.loss");
                let (_, grad) = cross_entropy(&logits, &labels[start..end]).map_err(s)?;
                tr.end();
                backward(tr, &mut net.model.head, &net.head_kinds, &grad)?;
                tr.begin("nn.sgd_step");
                sgd.step(&mut net.model.head);
                tr.end();
                start = end;
            }
        }
        tr.end();
        tr.begin("core.checkpoint.save");
        sink.save_state(blocks.len(), true, &mut net.model, &mut net.aux, &report)
            .map_err(s)?;
        tr.end();
        tr.begin("core.cache.delete");
        store.delete(last).map_err(s)?;
        tr.end();
    }

    // §4: measure every exit on the validation split, select, and score
    // the selected exit on the test split — what `nf train` ends with.
    tr.begin("core.exit.eval");
    let mut exits = exit_candidates(&spec, &aux_specs);
    for (i, cand) in exits.iter_mut().enumerate() {
        cand.val_accuracy = Some(exit_accuracy(tr, &mut net, i, &data.val)?);
    }
    let selected = select_exit(&exits, nf_config.exit_tolerance);
    let acc = match selected {
        Some(e) => exit_accuracy(tr, &mut net, e.unit, &data.test)?,
        None => 0.0,
    };
    tr.end();
    tr.begin("cli.rundir.write");
    let mut m = Table::new();
    m.insert("kind", Value::Str("train".into()));
    m.insert("name", Value::Str(cfg.run.name.clone()));
    m.insert("config", cfg.to_value());
    m.insert("test_accuracy", Value::Float(f64::from(acc)));
    run_dir.write_metrics(&m.build()).map_err(s)?;
    tr.end();
    let wall_s = wall.elapsed().as_secs_f64();

    let checkpoint_bytes = std::fs::metadata(run_dir.checkpoint_path()).map_or(0, |m| m.len());
    let peak_bytes = store.peak_bytes();
    let _ = std::fs::remove_dir_all(run_dir.root());
    Ok(TrainReplay {
        net,
        data,
        blocks,
        sample_acts,
        codec: nf_config.cache_codec,
        int8_compute: nf_config.int8_compute,
        wall_s,
        steps,
        step_allocs,
        last_loss,
        acc,
        bytes_written: report.cache_bytes_written,
        logical_bytes: report.cache_logical_bytes,
        peak_bytes,
        checkpoint_bytes,
    })
}

/// Median duration of `f` over [`MICRO_REPS`] calls after one warm-up
/// call (which also pays any first-use kernel tuning), in µs.
fn micro_us(mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

fn filled(shape: &[usize], salt: usize) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|i| ((i * 31 + salt * 17) % 97) as f32 / 97.0 - 0.5)
        .collect();
    Tensor::from_vec(shape.to_vec(), data).expect("shape matches data")
}

/// Direct calls into `nf_tensor` at the workload's dominant conv shape:
/// the unit with the most forward FLOPs, at its block's batch size.
fn tensor_micro(replay: &TrainReplay) -> Res<()> {
    let spec = &replay.net.model.spec;
    let analytics = spec.analyze();
    let dominant = analytics
        .iter()
        .max_by_key(|a| a.flops)
        .ok_or("model has no units")?;
    let unit = &spec.units[dominant.index];
    let (cin, cout) = (unit.in_channels(), unit.out_channels());
    let (h, w) = (dominant.in_shape.1, dominant.in_shape.2);
    let batch = replay
        .blocks
        .iter()
        .find(|b| b.units.contains(&dominant.index))
        .map_or(1, |b| b.batch);
    let geom = Conv2dGeometry::new(h, w, 3, 3, 1, 1).map_err(s)?;
    let (np, ckk) = (batch * geom.out_positions(), cin * 9);
    let backend = KernelBackend::default();

    let x = filled(&[batch, cin, h, w], 1);
    let wt = filled(&[ckk, cout], 2);
    let g = filled(&[np, cout], 3);
    let mut cols = Tensor::default();
    im2col_batch_into(&x, &geom, &mut cols).map_err(s)?;
    let (mut out, mut pack) = (Tensor::default(), Vec::new());

    let fwd = micro_us(|| matmul_into(backend, &cols, &wt, &mut out).expect("fwd shapes"));
    emit("tensor.gemm_fwd_us", fwd);
    emit(
        "tensor.gemm_fwd_gflops",
        2.0 * (np * ckk * cout) as f64 / fwd / 1e3,
    );
    emit(
        "tensor.gemm_wgrad_us",
        micro_us(|| {
            matmul_at_b_into(backend, &g, &cols, &mut out, &mut pack).expect("wgrad shapes")
        }),
    );
    emit(
        "tensor.gemm_dgrad_us",
        micro_us(|| matmul_a_bt_into(backend, &g, &wt, &mut out, &mut pack).expect("dgrad shapes")),
    );
    let mut lowered = Tensor::default();
    emit(
        "tensor.im2col_us",
        micro_us(|| im2col_batch_into(&x, &geom, &mut lowered).expect("im2col shapes")),
    );
    let mut image = Tensor::default();
    emit(
        "tensor.col2im_us",
        micro_us(|| {
            col2im_batch_into(&cols, batch, cin, &geom, &mut image).expect("col2im shapes")
        }),
    );
    let mut q = QuantTensor::new();
    emit("tensor.quantize_us", micro_us(|| q.quantize_from(&x)));
    // The u8×i8 GEMM only runs where the workload's training does.
    let int8_us = if replay.int8_compute {
        let (mut lhs, mut rhs, mut acc) = (
            int8::QuantizedLhs::default(),
            int8::QuantizedRhs::default(),
            Vec::new(),
        );
        lhs.quantize_from_f32(cols.data(), np, ckk);
        rhs.pack_from_f32(wt.data(), ckk, cout);
        micro_us(|| int8::gemm_i32(&lhs, &rhs, &mut acc))
    } else {
        0.0
    };
    emit("tensor.gemm_int8_us", int8_us);

    // Computed from shapes, not measured: one Algorithm-2 step over the
    // whole model costs about 3× its forward FLOPs (forward, input grad,
    // weight grad) per sample, and moves every activation and parameter
    // about three times.
    let step_batch = replay.blocks.first().map_or(1, |b| b.batch) as f64;
    emit(
        "tensor.step_flops",
        3.0 * spec.total_flops() as f64 * step_batch,
    );
    let act_elems: usize = analytics
        .iter()
        .map(|a| {
            a.in_shape.0 * a.in_shape.1 * a.in_shape.2
                + a.out_shape.0 * a.out_shape.1 * a.out_shape.2
        })
        .sum();
    emit(
        "tensor.step_bytes",
        3.0 * 4.0 * (act_elems as f64 * step_batch + spec.total_params() as f64),
    );
    emit("tensor.plan_digest", (plan_facts().0 & 0xFFFF_FFFF) as f64);
    Ok(())
}

/// Codec alone (no store), the cascade alone, and each unit's eval
/// forward, on the replay's trained model and real activations.
fn core_micro(replay: &mut TrainReplay, serve_threshold: f32) -> Res<()> {
    let codec = replay.codec;
    let acts = &replay.sample_acts;
    let gb = acts.numel() as f64 * 4.0 / 1e9;
    let mut blob = CacheBlob::new();
    emit(
        "core.cache.encode_gbps",
        gb / (micro_us(|| codec.encode(acts, &mut blob)) / 1e6),
    );
    let mut decoded = Tensor::default();
    emit(
        "core.cache.decode_gbps",
        gb / (micro_us(|| {
            codec
                .decode_into(&blob, &mut decoded)
                .expect("blob just encoded")
        }) / 1e6),
    );

    let batch = 8.min(replay.data.test.len()).max(1);
    let (images, _) = replay.data.test.batch(0, batch);
    let deepest = replay.net.model.units.len().saturating_sub(1);
    let caps = vec![deepest; batch];
    let mut depth_sum = 0usize;
    let predict = micro_us(|| {
        let mut cascade =
            ConfidenceCascade::new(&mut replay.net.model, &mut replay.net.aux, serve_threshold);
        let preds = cascade
            .predict_with_caps(&images, &caps)
            .expect("cascade shapes");
        depth_sum = preds.iter().map(|p| p.exit).sum();
    });
    emit("core.exit.predict_us", predict);
    emit("core.exit.mean_depth", depth_sum as f64 / batch as f64);

    let mut unit_total = 0.0;
    let mut cur = images;
    for unit in &mut replay.net.model.units {
        let mut next = Tensor::default();
        unit_total += micro_us(|| next = unit.forward(&cur, Mode::Eval).expect("unit shapes"));
        cur = next;
    }
    emit("models.unit_fwd_us", unit_total);
    Ok(())
}

/// The serving replay: one request's life in process, no sockets —
/// encode → reassemble → decode → submit → form batch → infer → encode →
/// write queue → decode — at batch 1 and at the batch cap.
fn serve_replay(tr: &mut Tracer, serve_config: &Path) -> Res<()> {
    let cfg = RunConfig::load(serve_config).map_err(s)?;
    let policy = cfg.resolve_serve().map_err(s)?;
    let pool = request_pool(&cfg)?;
    let mut engine = nf_cli::serve::build_engine(&cfg, true).map_err(s)?;
    let mut batcher = MicroBatcher::new(policy.queue_capacity);
    let mut asm = FrameAssembler::new();
    let mut outq = WriteQueue::new();
    let mut sink: Vec<u8> = Vec::new();
    let mut next_id = 0u64;

    for (batch, infer_span, rounds) in [
        (1usize, "core.serve.infer_batch.b1", 64usize),
        (policy.max_batch, "core.serve.infer_batch.bmax", 16),
    ] {
        // One untimed pass first: first-use kernel tuning of this batch
        // size is the warm-up's, as in the live sessions.
        for round in 0..=rounds {
            let timed = round > 0;
            let mut t = Tracer::new(false);
            let tr: &mut Tracer = if timed { tr } else { &mut t };
            let mut frames = Vec::new();
            for i in 0..batch {
                let pixels = pool[(next_id as usize + i) % pool.len()].clone();
                tr.begin("cli.proto.encode_req");
                let payload = proto::encode_request(&Request::Infer {
                    id: next_id,
                    tier: SloTier::Exact,
                    pixels,
                });
                let wire = proto::frame_bytes(&payload).map_err(s)?;
                tr.end();
                next_id += 1;
                tr.begin("cli.net.assemble.1");
                asm.push(&wire, &mut frames).map_err(s)?;
                tr.end();
            }
            for (i, payload) in frames.iter().enumerate() {
                tr.begin("cli.proto.decode_req");
                let req = proto::decode_request(payload).map_err(s)?;
                tr.end();
                let Request::Infer { id, tier, pixels } = req else {
                    return Err("decoded something other than the request sent".into());
                };
                tr.begin("core.serve.submit");
                batcher
                    .submit(ServeRequest {
                        id,
                        tier,
                        pixels,
                        arrival_us: i as u64,
                        deadline_us: u64::MAX,
                    })
                    .map_err(s)?;
                tr.end();
            }
            tr.begin("core.serve.form_batch");
            let plan = batcher.form_batch(0, policy.max_batch);
            tr.end();
            tr.begin(infer_span);
            let replies = engine.infer_batch(&plan.ready).map_err(s)?;
            tr.end();
            for r in replies {
                tr.begin("cli.proto.encode_resp");
                let payload = proto::encode_response(&Response::Infer {
                    id: r.id,
                    class: r.class as u16,
                    exit: r.exit as u8,
                    confidence: r.confidence,
                    server_us: 0,
                });
                let wire = proto::frame_bytes(&payload).map_err(s)?;
                tr.end();
                tr.begin("cli.net.writeq");
                outq.push(wire);
                outq.flush(&mut sink).map_err(s)?;
                tr.end();
                tr.begin("cli.proto.decode_resp");
                black_box(proto::decode_response(&payload).map_err(s)?);
                tr.end();
                sink.clear();
            }
        }
    }

    // Reassembly when one read delivers 16 frames at once.
    let pixels = pool[0].clone();
    let one = proto::frame_bytes(&proto::encode_request(&Request::Infer {
        id: 0,
        tier: SloTier::Fast,
        pixels,
    }))
    .map_err(s)?;
    let sixteen: Vec<u8> = one.iter().copied().cycle().take(one.len() * 16).collect();
    for _ in 0..32 {
        let mut frames = Vec::new();
        tr.begin("cli.net.assemble.16");
        asm.push(&sixteen, &mut frames).map_err(s)?;
        tr.end();
        if frames.len() != 16 {
            return Err(format!("16 frames in, {} out", frames.len()));
        }
    }
    Ok(())
}

/// How much of the replay child's work a run asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// Training replay only, spans off: the wall the overhead is taken
    /// against.
    Plain,
    /// Training replay only, spans on.
    Traced,
    /// Spans on, then the micro-measurements and the serving replay, and
    /// `trace.json` written.
    Full,
}

/// Entry point of `child replay`.
pub fn run(train_config: &Path, serve_config: &Path, depth: Depth, trace_out: &Path) -> Res<()> {
    let mut tr = Tracer::new(depth != Depth::Plain);
    let mut replay = train_replay(&mut tr, train_config)?;
    emit("trace.replay_wall_s", replay.wall_s);
    println!("@last_loss {}", replay.last_loss);
    println!("@acc {}", replay.acc);
    if depth != Depth::Full {
        return Ok(());
    }

    // Everything the training replay spanned, before the serving replay
    // adds its own spans.
    let totals = tr.totals();
    let self_us = |prefix: &str| -> f64 {
        totals
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.self_ns as f64 / 1e3)
            .sum()
    };
    let total_us = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3);
    let setup = [
        "cli.config.parse",
        "data.generate",
        "core.plan",
        "models.build",
    ];
    // Spans inside the replay wall: everything but the set-up spans and
    // the first `cli.rundir.write` (the config snapshot).
    let first_rundir = tr
        .durations("cli.rundir.write")
        .first()
        .copied()
        .unwrap_or(0.0)
        / 1e3;
    let in_wall_self: f64 = totals
        .iter()
        .filter(|(name, _)| !setup.contains(name))
        .map(|(_, t)| t.self_ns as f64 / 1e3)
        .sum::<f64>()
        - first_rundir;
    let wall_us = replay.wall_s * 1e6;
    emit("trace.self_sum_rel", in_wall_self / wall_us);
    emit("share.tensor_nn", self_us("nn.") / wall_us);
    emit(
        "share.cache_regen",
        (self_us("core.cache.") + total_us("core.worker.regen")) / wall_us,
    );

    // Totals over the replay: metric `<span>_us` for each of these spans.
    for span in [
        "nn.conv_fwd",
        "nn.conv_bwd",
        "nn.bn_fwd",
        "nn.bn_bwd",
        "nn.linear_fwd",
        "nn.loss",
        "nn.sgd_step",
        "models.build",
        "data.generate",
        "core.worker.fwd",
        "core.worker.aux",
        "core.worker.bwd",
        "core.worker.opt",
        "core.worker.regen",
        "core.worker.step",
        "core.cache.write",
        "core.cache.read",
        "core.checkpoint.save",
        "cli.config.parse",
        "cli.rundir.write",
    ] {
        emit(&format!("{span}_us"), total_us(span));
    }
    emit("core.plan.us", total_us("core.plan"));
    emit("core.plan.blocks", replay.blocks.len() as f64);
    emit("core.worker.steps", replay.steps as f64);
    emit(
        "nn.allocs_per_step",
        replay.step_allocs as f64 / replay.steps.max(1) as f64,
    );
    emit("core.cache.bytes_written", replay.bytes_written as f64);
    emit("core.cache.peak_bytes", replay.peak_bytes as f64);
    emit(
        "core.cache.compression",
        replay.logical_bytes as f64 / replay.bytes_written.max(1) as f64,
    );
    emit("core.checkpoint.bytes", replay.checkpoint_bytes as f64);

    let serve_cfg = RunConfig::load(serve_config).map_err(s)?;
    tensor_micro(&replay)?;
    core_micro(&mut replay, serve_cfg.serve().threshold as f32)?;

    let spans_before = tr.spans().len();
    serve_replay(&mut tr, serve_config)?;
    // Medians per call: (metric, span, ns per reported unit or per frame).
    for (metric, span, per) in [
        ("core.serve.submit_ns", "core.serve.submit", 1.0),
        ("core.serve.form_batch_ns", "core.serve.form_batch", 1.0),
        (
            "core.serve.infer_batch_us.b1",
            "core.serve.infer_batch.b1",
            1e3,
        ),
        (
            "core.serve.infer_batch_us.bmax",
            "core.serve.infer_batch.bmax",
            1e3,
        ),
        ("cli.proto.encode_req_ns", "cli.proto.encode_req", 1.0),
        ("cli.proto.decode_req_ns", "cli.proto.decode_req", 1.0),
        ("cli.proto.encode_resp_ns", "cli.proto.encode_resp", 1.0),
        ("cli.proto.decode_resp_ns", "cli.proto.decode_resp", 1.0),
        ("cli.net.assemble_ns.1", "cli.net.assemble.1", 1.0),
        ("cli.net.assemble_ns.16", "cli.net.assemble.16", 16.0),
        ("cli.net.writeq_ns", "cli.net.writeq", 1.0),
    ] {
        emit(metric, median(&tr.durations(span)) / per);
    }
    println!("@spans {} {}", spans_before, tr.spans().len());

    std::fs::write(trace_out, tr.to_json().to_line() + "\n")
        .map_err(|e| format!("writing {}: {e}", trace_out.display()))?;
    Ok(())
}
