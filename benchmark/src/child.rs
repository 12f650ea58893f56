//! The measured programs, run as re-exec'd children of the benchmark.
//!
//! Each child is what a user starts — `nf train <config>` or
//! `nf serve <config>` — entered through the same library functions the
//! `nf` binary calls, pinned to the measured CPU set before any library
//! code runs (so `available_parallelism` sizes thread pools, kernel plans
//! and `replicas = 0` for that set). A child talks to its parent in
//! `@key value` lines on stdout; the parent stamps their arrival, which is
//! how set-up and training time are told apart without touching the
//! program.

use crate::host::proc_status;
use crate::workloads::REQUEST_POOL;
use neuroflux_core::{ServeRequest, SloTier};
use nf_cli::{RunConfig, TrainOptions};
use std::io::BufRead;
use std::path::Path;

/// Prints one `@key value` protocol line.
fn emit(key: &str, value: impl std::fmt::Display) {
    println!("@{key} {value}");
}

/// 64-bit FNV-1a, the digest used for kernel plans and loss streams.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The autotuner's table after the work, as a digest and as the answer
/// to "can batch size change f32 rounding?": it can only when two `A·B`
/// classes with `K` above the smallest `KC` candidate (128) chose
/// different `KC` splits.
pub fn plan_facts() -> (u64, bool) {
    let plans = nf_tensor::kernels::autotune::plan_snapshot();
    let text: String = plans
        .iter()
        .map(|p| {
            format!(
                "{}:{}:{}:{}={}/{}/{};",
                p.op, p.m_class, p.k_class, p.n_class, p.kc, p.nc, p.parallel
            )
        })
        .collect();
    let mut deep = plans.iter().filter(|p| p.op == "ab" && p.k_class > 7);
    let kc_uniform = match deep.next() {
        None => true,
        Some(first) => deep.all(|p| p.kc == first.kc),
    };
    (fnv1a(text.as_bytes()), kc_uniform)
}

/// `nf train <config>`: one fresh-process training run. The progress
/// lines `run_train` prints (`block 1/N: …` first) tell the parent when
/// set-up ended; `@done` when `metrics.json` was written.
pub fn train(config: &Path) -> Result<(), String> {
    let cfg = RunConfig::load(config).map_err(|e| e.to_string())?;
    let opts = TrainOptions {
        force: true,
        ..TrainOptions::default()
    };
    let summary = nf_cli::run_train(&cfg, &opts).map_err(|e| e.to_string())?;
    emit("done", "");
    let m = &summary.metrics;
    let float = |v: Option<&nf_cli::Value>| v.and_then(nf_cli::Value::as_float);
    emit("acc", float(m.get("test_accuracy")).unwrap_or(f64::NAN));
    let cache_peak = m
        .get("cache")
        .and_then(|c| c.get("peak_bytes"))
        .and_then(nf_cli::Value::as_int);
    emit("cache_peak_bytes", cache_peak.unwrap_or(-1));
    let blocks = m.get("blocks").and_then(nf_cli::Value::as_array);
    emit("blocks", blocks.map_or(0, <[_]>::len));
    // Every epoch loss of every block, as f32 bits: equal digests mean
    // the repetitions computed the same thing bit for bit.
    let losses: Vec<f32> = m
        .get("block_losses")
        .and_then(nf_cli::Value::as_array)
        .into_iter()
        .flatten()
        .filter_map(nf_cli::Value::as_array)
        .flatten()
        .filter_map(nf_cli::Value::as_float)
        .map(|l| l as f32)
        .collect();
    let bytes: Vec<u8> = losses
        .iter()
        .flat_map(|l| l.to_bits().to_le_bytes())
        .collect();
    emit("loss_digest", format!("{:016x}", fnv1a(&bytes)));
    emit("last_loss", losses.last().copied().unwrap_or(f32::NAN));
    emit("plan_digest", format!("{:016x}", plan_facts().0));
    emit("hwm_kb", proc_status("VmHWM"));
    Ok(())
}

/// The pooled request images of a serve config: the first
/// [`REQUEST_POOL`] test-split images, one flat pixel vector each. Parent
/// and child both derive them from the config, so only the seed crosses
/// the process boundary.
pub fn request_pool(cfg: &RunConfig) -> Result<Vec<Vec<f32>>, String> {
    let (_, data_spec, _) = cfg.resolve().map_err(|e| e.to_string())?;
    let data = data_spec.generate();
    let images = data.test.images();
    let per: usize = images.shape().iter().skip(1).product();
    let n = REQUEST_POOL.min(data.test.len());
    Ok((0..n)
        .map(|i| images.data()[i * per..(i + 1) * per].to_vec())
        .collect())
}

/// `nf serve <config>`: trains the served model, starts the server, says
/// `@ready <addr>`, and serves until its stdin yields a line (or closes).
/// After stopping it prints its own accounting and the offline reference
/// — every pooled image at every tier through
/// `ConfidenceCascade::predict_with_caps` alone, on a bit-identical
/// engine clone that never served — for the parent to hold replies to.
pub fn serve(config: &Path) -> Result<(), String> {
    let cfg = RunConfig::load(config).map_err(|e| e.to_string())?;
    let policy = cfg.resolve_serve().map_err(|e| e.to_string())?;
    let replicas = policy.effective_replicas(nf_tensor::host_cores());
    let primary = nf_cli::serve::build_engine(&cfg, true).map_err(|e| e.to_string())?;
    let mut engines =
        nf_cli::replicate_engines(&cfg, primary, replicas + 1).map_err(|e| e.to_string())?;
    let mut offline = engines.pop().ok_or("no engine built")?;
    let section = cfg.serve();
    let handle =
        nf_cli::start_server_with_engines(engines, policy, &section.addr, section.allow_shutdown)
            .map_err(|e| e.to_string())?;
    emit("ready", handle.addr);

    let mut line = String::new();
    let _ = std::io::stdin().lock().read_line(&mut line);

    let stats = handle.replica_stats();
    handle.stop();
    emit("hwm_kb", proc_status("VmHWM"));
    let n = stats.len().max(1) as f64;
    emit(
        "busy_frac",
        stats.iter().map(|s| s.busy_frac).sum::<f64>() / n,
    );
    emit("batches", stats.iter().map(|s| s.batches).sum::<u64>());
    emit("served", stats.iter().map(|s| s.served).sum::<u64>());

    for (i, pixels) in request_pool(&cfg)?.into_iter().enumerate() {
        for tier in SloTier::ALL {
            let reply = offline
                .infer_batch(&[ServeRequest {
                    id: 0,
                    tier,
                    pixels: pixels.clone(),
                    arrival_us: 0,
                    deadline_us: u64::MAX,
                }])
                .map_err(|e| e.to_string())?;
            let r = reply.first().ok_or("offline engine returned no reply")?;
            emit(
                "ref",
                format!(
                    "{i} {} {} {} {}",
                    tier.index(),
                    r.class,
                    r.exit,
                    r.confidence.to_bits()
                ),
            );
        }
    }
    let (digest, kc_uniform) = plan_facts();
    emit("plan_digest", format!("{digest:016x}"));
    emit("kc_uniform", kc_uniform);
    Ok(())
}
