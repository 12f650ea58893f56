//! The traced run (`--trace 1`): per-layer metrics from the replay child,
//! `cli.serve.*` from a live server session, and the reconciliation of
//! the replay with untraced `nf train` repetitions of the same config.

use crate::child::request_pool;
use crate::host;
use crate::json::Json;
use crate::proc::{Ctx, Proc};
use crate::run::{RunArgs, RunResult};
use crate::serve::{Load, Server};
use crate::stats::median;
use crate::train::run_rep;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Rounds of (untraced `nf train` repetition, plain replay, traced
/// replay): the three walls are compared by their medians, each sampled
/// over the same stretch of time.
const REFERENCE_REPS: usize = 3;
/// Slices of the live server session.
const LIVE_SLICES: usize = 4;
/// Self times must add up to the replay wall within this share.
const RECONCILE_TOL: f64 = 0.10;
/// The replay wall must match untraced `train_wall_s` within this share.
const REPLAY_TOL: f64 = 0.15;

/// The per-layer metrics, in `BENCHMARK.json` order, with their units.
/// `_us` metrics of `nn`, `models.build`, `data`, `core.plan`,
/// `core.worker`, `core.cache.{write,read}`, `core.checkpoint`,
/// `cli.config` and `cli.rundir` are totals over the training replay;
/// `tensor.*`, `core.serve.*`, `core.exit.*`, `cli.proto.*`, `cli.net.*`
/// and `models.unit_fwd_us` are medians of direct calls.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("tensor.gemm_fwd_us", "us"),
    ("tensor.gemm_wgrad_us", "us"),
    ("tensor.gemm_dgrad_us", "us"),
    ("tensor.gemm_fwd_gflops", "GFLOP/s"),
    ("tensor.gemm_int8_us", "us"),
    ("tensor.im2col_us", "us"),
    ("tensor.col2im_us", "us"),
    ("tensor.quantize_us", "us"),
    ("tensor.step_flops", "count"),
    ("tensor.step_bytes", "count"),
    ("tensor.plan_digest", "count"),
    ("nn.conv_fwd_us", "us"),
    ("nn.conv_bwd_us", "us"),
    ("nn.bn_fwd_us", "us"),
    ("nn.bn_bwd_us", "us"),
    ("nn.linear_fwd_us", "us"),
    ("nn.loss_us", "us"),
    ("nn.sgd_step_us", "us"),
    ("nn.allocs_per_step", "count"),
    ("models.build_us", "us"),
    ("models.unit_fwd_us", "us"),
    ("data.generate_us", "us"),
    ("core.plan.us", "us"),
    ("core.plan.blocks", "count"),
    ("core.worker.fwd_us", "us"),
    ("core.worker.aux_us", "us"),
    ("core.worker.bwd_us", "us"),
    ("core.worker.opt_us", "us"),
    ("core.worker.regen_us", "us"),
    ("core.worker.step_us", "us"),
    ("core.worker.steps", "count"),
    ("core.cache.write_us", "us"),
    ("core.cache.read_us", "us"),
    ("core.cache.encode_gbps", "GB/s"),
    ("core.cache.decode_gbps", "GB/s"),
    ("core.cache.bytes_written", "count"),
    ("core.cache.peak_bytes", "count"),
    ("core.cache.compression", "ratio"),
    ("core.checkpoint.save_us", "us"),
    ("core.checkpoint.bytes", "count"),
    ("core.exit.predict_us", "us"),
    ("core.exit.mean_depth", "count"),
    ("core.serve.submit_ns", "ns"),
    ("core.serve.form_batch_ns", "ns"),
    ("core.serve.infer_batch_us.b1", "us"),
    ("core.serve.infer_batch_us.bmax", "us"),
    ("cli.config.parse_us", "us"),
    ("cli.rundir.write_us", "us"),
    ("cli.proto.encode_req_ns", "ns"),
    ("cli.proto.decode_req_ns", "ns"),
    ("cli.proto.encode_resp_ns", "ns"),
    ("cli.proto.decode_resp_ns", "ns"),
    ("cli.net.assemble_ns.1", "ns"),
    ("cli.net.assemble_ns.16", "ns"),
    ("cli.net.writeq_ns", "ns"),
    ("cli.serve.busy_frac", "fraction"),
    ("cli.serve.batches", "count"),
    ("cli.serve.mean_batch", "count"),
    ("cli.serve.server_us_p50", "us"),
    ("cli.serve.wire_us_p50", "us"),
    ("cli.serve.rejected", "count"),
    ("share.tensor_nn", "fraction"),
    ("share.cache_regen", "fraction"),
    ("trace.replay_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.self_sum_rel", "fraction"),
    ("trace.wall_vs_untraced_rel", "fraction"),
    ("trace.overhead_rel", "fraction"),
];

/// A replay child's `@m` metrics and its other `@key value` facts.
type ReplayOutput = (BTreeMap<String, f64>, BTreeMap<String, Vec<String>>);

/// `|a − b| ≤ tol`, false when either is NaN (an unmeasured value is
/// never "within").
fn within(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Runs the replay child and returns its `@m` metrics plus other facts.
fn replay_child(
    ctx: &Ctx,
    train_cfg: &Path,
    serve_cfg: &Path,
    mode: &str,
    trace_out: &Path,
) -> Result<ReplayOutput, String> {
    let serve = serve_cfg.to_string_lossy();
    let out = trace_out.to_string_lossy();
    let extra = ["--serve", &*serve, "--traced", mode, "--trace-out", &*out];
    let child = Proc::spawn(ctx, "replay", train_cfg, &extra).map_err(|e| e.to_string())?;
    let facts = child.finish().map_err(|e| format!("replay child: {e}"))?;
    let mut metrics = BTreeMap::new();
    for line in facts.get("m").map(Vec::as_slice).unwrap_or_default() {
        if let Some((name, value)) = line.split_once(' ') {
            if let Ok(v) = value.trim().parse::<f64>() {
                metrics.insert(name.to_string(), v);
            }
        }
    }
    Ok((metrics, facts))
}

/// Runs `args.workload` once, traced.
pub fn traced(ctx: &Ctx, args: &RunArgs, nproc: usize) -> Result<RunResult, String> {
    let w = args.workload;
    let started = Instant::now();
    let mut problems = Vec::new();
    let out_dir = ctx.out_dir.to_string_lossy().to_string();

    let train_cfg = ctx.out_dir.join("replay.toml");
    std::fs::write(&train_cfg, w.train_toml(args.seed, &out_dir, "replay"))
        .map_err(|e| e.to_string())?;
    let serve_cfg = ctx.out_dir.join("serve.toml");
    std::fs::write(&serve_cfg, w.serve_toml(args.seed, &out_dir)).map_err(|e| e.to_string())?;
    let trace_out = Path::new(env!("CARGO_MANIFEST_DIR")).join("trace.json");

    // What `train_wall_s` reads for this config today, what the replay
    // takes with spans off, and with spans on — interleaved.
    let mut reference = Vec::new();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let wall_of = |m: &BTreeMap<String, f64>| m.get("trace.replay_wall_s").copied();
    for rep in 0..REFERENCE_REPS {
        match run_rep(ctx, w, args.seed, rep) {
            Ok(r) => reference.push(r),
            Err(e) => problems.push(format!("reference train rep {rep}: {e}")),
        }
        plain_walls.extend(wall_of(
            &replay_child(ctx, &train_cfg, &serve_cfg, "0", &trace_out)?.0,
        ));
        traced_walls.extend(wall_of(
            &replay_child(ctx, &train_cfg, &serve_cfg, "2", &trace_out)?.0,
        ));
    }
    let untraced_wall = median(&reference.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let reference_loss = reference.first().map_or(f64::NAN, |r| r.last_loss);
    let (mut m, facts) = replay_child(ctx, &train_cfg, &serve_cfg, "1", &trace_out)?;

    // The replay must be the training `nf train` does: same final loss
    // (to 1 %, kernel plans differ between processes) …
    let replay_loss: f64 = crate::proc::fact(&facts, "last_loss")?;
    if !within(replay_loss, reference_loss, 0.01 * reference_loss.abs()) {
        problems.push(format!(
            "replay's final loss {replay_loss} is not `nf train`'s {reference_loss}"
        ));
    }
    // … the same wall time, and no time the spans do not explain.
    let traced_wall = median(&traced_walls);
    let plain_wall = median(&plain_walls);
    m.insert("trace.untraced_wall_s".into(), untraced_wall);
    m.insert(
        "trace.wall_vs_untraced_rel".into(),
        (plain_wall - untraced_wall) / untraced_wall,
    );
    m.insert(
        "trace.overhead_rel".into(),
        (traced_wall - plain_wall) / plain_wall,
    );
    let self_sum = m.get("trace.self_sum_rel").copied().unwrap_or(f64::NAN);
    if !within(self_sum, 1.0, RECONCILE_TOL) {
        problems.push(format!(
            "per-layer self times add up to {self_sum:.3} of the replay wall (±{RECONCILE_TOL} allowed)"
        ));
    }
    // Medians and minima of the interleaved rounds must both be off for
    // the replay to count as unfaithful: on this host one of the three
    // rounds often sits in a slow stretch the other program's did not.
    let least = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let untraced_walls: Vec<f64> = reference.iter().map(|r| r.wall_s).collect();
    let off = |a: f64, b: f64| !within(a, b, REPLAY_TOL * b);
    // Reported, not failed: the verdict rests on six one-second timings,
    // and `correct` is about what the program computed.
    let replay_wall_off =
        off(plain_wall, untraced_wall) && off(least(&plain_walls), least(&untraced_walls));

    // Live server at `hi`: the counters the server itself exposes.
    let cfg = nf_cli::RunConfig::load(&serve_cfg).map_err(|e| e.to_string())?;
    let pool = request_pool(&cfg)?;
    let load = Load::Open {
        rate_rps: w.serve.hi_rps,
    };
    let mut server = Server::start(ctx, w, args.seed, &serve_cfg, &pool, load, 2)?;
    for _ in 0..LIVE_SLICES {
        server.slice()?;
    }
    let live = server.stop()?;
    let (server_p50, wire_p50) = live.server_and_wire_p50_us();
    m.insert("cli.serve.busy_frac".into(), live.busy_frac);
    m.insert("cli.serve.batches".into(), live.batches);
    m.insert(
        "cli.serve.mean_batch".into(),
        live.served / live.batches.max(1.0),
    );
    m.insert("cli.serve.server_us_p50".into(), server_p50);
    m.insert("cli.serve.wire_us_p50".into(), wire_p50);
    m.insert(
        "cli.serve.rejected".into(),
        (live.counts.queue_full + live.counts.deadline) as f64,
    );
    if live.counts.not_ok() > 0 {
        problems.push(format!(
            "live session: {} of {} requests were not served correctly",
            live.counts.not_ok(),
            live.counts.sent
        ));
    }

    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        match m.get(name) {
            Some(v) if v.is_finite() => metrics.push((name.to_string(), *v, unit.to_string())),
            _ => {
                problems.push(format!("{name} could not be measured"));
                metrics.push((name.to_string(), f64::NAN, unit.to_string()));
            }
        }
    }
    let info = Json::obj()
        .with("workload", w.name)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("smoke", args.smoke)
        .with("trace", true)
        .with("trace_file", trace_out.to_string_lossy().to_string())
        .with("trace.replay_wall_off", replay_wall_off)
        .with("wall_s", started.elapsed().as_secs_f64())
        .with("provenance", host::provenance(ctx, nproc));
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted: 3 * REFERENCE_REPS as u64 + 1 + live.counts.sent,
        failed: (REFERENCE_REPS - reference.len()) as u64 + live.counts.not_ok(),
        metrics,
        info,
        problems,
    })
}
