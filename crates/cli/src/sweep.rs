//! `nf sweep <config>`: device-budget sweeps over the analytic
//! `nf-memsim` models (the paper's Figure 11/12 machinery), persisted as a
//! run artifact like any training run.

use crate::config::RunConfig;
use crate::error::{CliError, Result};
use crate::progress::say;
use crate::rundir::RunDir;
use neuroflux_core::codec::{ActivationCodec, CacheBlob, CodecKind};
use neuroflux_core::serve::SystemClock;
use neuroflux_core::simulate::{sweep_point, SimulatedRun};
use neuroflux_core::NeuroFluxConfig;
use nf_memsim::{DeviceProfile, MeasuredPrimitives};
use nf_value::{Table, Value};

/// Measures this machine's sustained GEMM throughput (the default kernel)
/// and `codec`'s encode/decode bandwidth: `nf sweep`'s `host` device,
/// priced from measured primitives instead of a Table 1 datasheet. Takes
/// ~a second; `tests/calibrated_cost.rs` fits its step-time line on it.
pub fn calibrate_host(codec: CodecKind) -> Result<(MeasuredPrimitives, DeviceProfile)> {
    use nf_tensor::KernelBackend;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let a = nf_tensor::uniform_init(&mut rng, &[128, 256], -1.0, 1.0);
    let b = nf_tensor::uniform_init(&mut rng, &[256, 128], -1.0, 1.0);
    let mut out = nf_tensor::Tensor::default();
    let backend = KernelBackend::default();
    nf_tensor::matmul_into(backend, &a, &b, &mut out)?;
    let iters = 8;
    let start = SystemClock::new();
    for _ in 0..iters {
        nf_tensor::matmul_into(backend, &a, &b, &mut out)?;
    }
    let gemm_gflops = 2.0 * 128.0 * 256.0 * 128.0 * iters as f64 / start.elapsed_seconds() / 1e9;

    // Codec bandwidth of the *configured* cache codec — that's what the
    // sweep's storage term models.
    let acts = nf_tensor::uniform_init(&mut rng, &[64, 8, 8, 8], -2.0, 2.0);
    let bytes = (acts.numel() * 4) as f64;
    let mut blob = CacheBlob::new();
    codec.encode(&acts, &mut blob);
    let start = SystemClock::new();
    for _ in 0..4 {
        codec.encode(&acts, &mut blob);
    }
    let encode_gbps = 4.0 * bytes / start.elapsed_seconds() / 1e9;
    let mut decoded = nf_tensor::Tensor::default();
    codec.decode_into(&blob, &mut decoded)?;
    let start = SystemClock::new();
    for _ in 0..4 {
        codec.decode_into(&blob, &mut decoded)?;
    }
    let decode_gbps = 4.0 * bytes / start.elapsed_seconds() / 1e9;

    let primitives = MeasuredPrimitives {
        gemm_gflops,
        encode_gbps,
        decode_gbps,
        host_cores: nf_tensor::host_cores(),
    };
    Ok((primitives, primitives.host_profile()))
}

/// Executes the `[sweep]` section; returns the run directory and metrics.
pub fn run_sweep(cfg: &RunConfig, quiet: bool) -> Result<(RunDir, Value)> {
    let sweep = cfg
        .sweep
        .clone()
        .ok_or_else(|| CliError::config("sweep", "missing section (required by `nf sweep`)"))?;
    let dataset = cfg.resolve_dataset()?;
    let spec = cfg.resolve_model(&dataset)?;
    // The run's own `[train]` inputs (not `resolve`, which refuses the
    // MobileNet a sweep prices): only the budget varies per point.
    let train = cfg.resolve_train()?;
    let run_dir = RunDir::create(&cfg.run.out_dir, &format!("{}-sweep", cfg.run.name))?;
    run_dir.write_config(cfg)?;
    let start = SystemClock::new();

    let mut device_tables = Vec::new();
    for slug in &sweep.devices {
        // `host` is special: not a Table 1 preset but *this* machine,
        // profiled live from its measured GEMM + codec primitives.
        let (calibration, device) = if slug == "host" {
            let (p, d) = calibrate_host(cfg.cache.codec)?;
            (Some(p), d)
        } else {
            let d = DeviceProfile::by_name(slug).ok_or_else(|| {
                CliError::new(format!(
                    "unknown device {slug:?} (expected host or one of {})",
                    DeviceProfile::preset_names().join(", ")
                ))
            })?;
            (None, d)
        };
        if !quiet {
            say(&format!(
                "{} — {} points",
                device.name,
                sweep.budgets_mb.len()
            ))?;
        }
        let mut points = Vec::new();
        for &budget_mb in &sweep.budgets_mb {
            let point_config = NeuroFluxConfig {
                budget_bytes: budget_mb.saturating_mul(1_000_000),
                ..train
            };
            let (bp, ll, nf) = sweep_point(&spec, &device, &point_config, cfg.dataset.train);
            let mut point = Table::new();
            point.insert("budget_mb", Value::Int(budget_mb as i64));
            point.insert("bp", run_value(&bp));
            point.insert("classic_ll", run_value(&ll));
            point.insert("neuroflux", run_value(&nf));
            if let (Some(bp), Some(nf)) = (&bp, &nf) {
                point.insert("speedup_vs_bp", Value::Float(bp.total_s() / nf.total_s()));
            }
            if let (Some(ll), Some(nf)) = (&ll, &nf) {
                point.insert("speedup_vs_ll", Value::Float(ll.total_s() / nf.total_s()));
            }
            if !quiet {
                let fmt = |r: &Option<SimulatedRun>| match r {
                    Some(r) => format!("{:.1} h", r.total_hours()),
                    None => "infeasible".to_string(),
                };
                say(&format!(
                    "  {budget_mb:>5} MB: bp {:>10}  ll {:>10}  neuroflux {:>10}",
                    fmt(&bp),
                    fmt(&ll),
                    fmt(&nf)
                ))?;
            }
            points.push(point.build());
        }
        let mut table = Table::new();
        table.insert("device", Value::Str(device.name.clone()));
        table.insert("slug", Value::Str(slug.clone()));
        if let Some(p) = calibration {
            let mut c = Table::new();
            c.insert("gemm_gflops", Value::Float(p.gemm_gflops));
            c.insert("encode_gbps", Value::Float(p.encode_gbps));
            c.insert("decode_gbps", Value::Float(p.decode_gbps));
            c.insert("host_cores", Value::Int(p.host_cores as i64));
            table.insert("calibration", c);
        }
        table.insert("points", Value::Array(points));
        device_tables.push(table.build());
    }

    let mut m = Table::new();
    m.insert("kind", Value::Str("sweep".into()));
    m.insert("name", Value::Str(cfg.run.name.clone()));
    m.insert("config", cfg.to_value());
    m.insert("model", Value::Str(spec.name.clone()));
    m.insert("devices", Value::Array(device_tables));
    m.insert("wall_seconds", Value::Float(start.elapsed_seconds()));
    let m = m.build();
    run_dir.write_metrics(&m)?;
    Ok((run_dir, m))
}

/// Serialises one simulated run (or `null` when infeasible at the budget —
/// the gaps in Figure 11).
fn run_value(run: &Option<SimulatedRun>) -> Value {
    match run {
        None => Value::Null,
        Some(r) => {
            let mut t = Table::new();
            t.insert("total_s", Value::Float(r.total_s()));
            t.insert("compute_s", Value::Float(r.compute_s));
            t.insert("overhead_s", Value::Float(r.overhead_s));
            t.insert("io_s", Value::Float(r.io_s));
            t.insert(
                "batches",
                Value::Array(r.batches.iter().map(|&b| Value::Int(b as i64)).collect()),
            );
            t.insert(
                "cache_bytes_written",
                Value::Int(r.cache_bytes_written as i64),
            );
            t.insert("cache_peak_bytes", Value::Int(r.cache_peak_bytes as i64));
            t.build()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_section_reaches_the_sweep() {
        // `examples/sweep.toml` at `ablation_rho`'s point: VGG-16 on
        // CIFAR-100 at 300 MB.
        let example = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/sweep.toml");
        let mut cfg = RunConfig::load(std::path::Path::new(example)).unwrap();
        let out_dir = std::env::temp_dir().join(format!("nf_sweep_train_{}", std::process::id()));
        cfg.run.out_dir = out_dir.display().to_string();
        cfg.dataset.preset = "cifar100".into();
        cfg.sweep.as_mut().unwrap().budgets_mb = vec![300];
        // BP's compute seconds and NeuroFlux's block count.
        let priced = |cfg: &RunConfig| {
            let (_, m) = run_sweep(cfg, true).unwrap();
            let devices = m.get("devices").and_then(Value::as_array).unwrap();
            let point = &devices[0].get("points").and_then(Value::as_array).unwrap()[0];
            let run = |paradigm: &str, key: &str| point.get(paradigm).unwrap().get(key).unwrap();
            let blocks = run("neuroflux", "batches").as_array().unwrap().len();
            (run("bp", "compute_s").as_float().unwrap(), blocks)
        };
        let (bp, blocks) = priced(&cfg);
        cfg.train.epochs_per_block *= 2;
        let (doubled, _) = priced(&cfg);
        assert!(
            (doubled - 2.0 * bp).abs() <= 1e-12 * doubled,
            "{doubled} vs 2 × {bp}"
        );
        // 3 blocks at the default ρ = 0.4, 7 at ρ = 0.1.
        cfg.train.rho = 0.1;
        assert_eq!((blocks, priced(&cfg).1), (3, 7));
        std::fs::remove_dir_all(&out_dir).ok();
    }
}
