//! CLI surface of the quantized-compute tentpole: `nf train` with
//! `int8_compute`, the `kernel` table it records, the `nf inspect`
//! rendering of it, and the `host`-calibrated `nf sweep`.

use nf_cli::{run_inspect, run_sweep, run_train, RunConfig, Table, TrainOptions, Value};
use std::path::PathBuf;

fn temp_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nf_cli_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn parse(toml: &str) -> RunConfig {
    RunConfig::from_value(&nf_value::toml::parse(toml).unwrap()).unwrap()
}

/// A small multi-block run with the int8 codec and int8 compute on the
/// default backend — the full quantized pipeline through the real CLI.
fn int8_config(out_dir: &std::path::Path) -> RunConfig {
    parse(&format!(
        r#"
[run]
name = "qint8"
seed = 7
out_dir = "{}"

[model]
preset = "tiny"
channels = [6, 8]

[dataset]
preset = "quick"
classes = 3
image_hw = 8
train = 48

[train]
budget_bytes = 131072
batch_limit = 8
epochs_per_block = 2
rho = 0.0
int8_compute = true

[cache]
codec = "int8"
"#,
        out_dir.display()
    ))
}

#[test]
fn int8_train_records_the_kernel_constants_and_inspect_renders_them() {
    use nf_tensor::kernels::{FAN_OUT_MIN_MACS, KC, NC};
    let base = temp_base("qint8");
    let cfg = int8_config(&base);
    let summary = run_train(&cfg, &TrainOptions::default()).unwrap();

    // The run completed and recorded what it computed on: the default
    // backend and the constants of its one plan.
    let kernel = summary.metrics.get("kernel").expect("kernel table");
    assert_eq!(
        kernel.get("backend").and_then(Value::as_str),
        Some("blocked")
    );
    assert_eq!(
        kernel.get("int8_compute").and_then(Value::as_bool),
        Some(true)
    );
    let int = |key: &str| kernel.get(key).and_then(Value::as_int);
    assert!(int("host_cores").unwrap_or(0) >= 1);
    assert_eq!(int("kc"), Some(KC as i64));
    assert_eq!(int("nc"), Some(NC as i64));
    assert_eq!(int("fan_out_min_macs"), Some(FAN_OUT_MIN_MACS as i64));
    assert!(kernel.get("plans").is_none(), "nothing is tuned per class");

    // `nf inspect` renders the kernel section from the artifact.
    let report = run_inspect(summary.run_dir.root()).unwrap();
    assert!(report.contains("## Compute kernels"), "{report}");
    assert!(report.contains("Backend `blocked`"), "{report}");
    assert!(report.contains("int8 frozen-block compute on"), "{report}");
    assert!(
        report.contains(&format!("One plan: cache blocks KC = {KC}, NC = {NC}")),
        "{report}"
    );

    // A run directory written by the autotuner era (`backend = "auto"`, a
    // per-class `plans` table, no constants) still renders — without them.
    let mut plan = Table::new();
    plan.insert("kc", Value::Int(128));
    plan.insert("nc", Value::Int(256));
    plan.insert("parallel", Value::Bool(false));
    let mut plans = Table::new();
    plans.insert("ab-m64-k256-n8", plan);
    let mut old_kernel = Table::new();
    old_kernel.insert("backend", Value::Str("auto".into()));
    old_kernel.insert("simd", Value::Str("avx2".into()));
    old_kernel.insert("host_cores", Value::Int(2));
    old_kernel.insert("plans", plans);
    let mut old = Table::new();
    for (key, value) in summary.metrics.entries().unwrap() {
        old.insert(key, value.clone());
    }
    old.insert("kernel", old_kernel);
    summary.run_dir.write_metrics(&old.build()).unwrap();
    let report = run_inspect(summary.run_dir.root()).unwrap();
    assert!(report.contains("Backend `auto` on 2 core(s)"), "{report}");
    assert!(!report.contains("One plan"), "{report}");
    assert!(!report.contains("ab-m64-k256-n8"), "{report}");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn sweep_host_device_uses_measured_primitives() {
    let base = temp_base("sweephost");
    let cfg = parse(&format!(
        r#"
[run]
name = "hostsweep"
out_dir = "{}"

[model]
preset = "tiny"
channels = [6, 8]

[dataset]
preset = "quick"
classes = 3
image_hw = 8
train = 1000

[train]
budget_mb = 1
batch_limit = 64
epochs_per_block = 1

[sweep]
devices = ["host", "pi4b"]
budgets_mb = [64]
"#,
        base.display()
    ));
    let (_, metrics) = run_sweep(&cfg, true).unwrap();
    let devices = metrics.get("devices").and_then(Value::as_array).unwrap();
    assert_eq!(devices.len(), 2);

    // The host entry carries its measured primitives; the preset doesn't.
    let host = &devices[0];
    assert_eq!(host.get("slug").and_then(Value::as_str), Some("host"));
    assert_eq!(
        host.get("device").and_then(Value::as_str),
        Some("Calibrated host")
    );
    let calib = host.get("calibration").expect("calibration table");
    let gflops = calib
        .get("gemm_gflops")
        .and_then(Value::as_float)
        .expect("measured gemm rate");
    assert!(gflops > 0.0, "measured rate must be positive: {gflops}");
    assert!(calib.get("encode_gbps").and_then(Value::as_float).unwrap() > 0.0);
    assert!(calib.get("decode_gbps").and_then(Value::as_float).unwrap() > 0.0);
    assert!(devices[1].get("calibration").is_none());

    // Both devices produced priced (or explicitly infeasible) points.
    for dev in devices {
        let points = dev.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(points.len(), 1);
    }

    std::fs::remove_dir_all(&base).ok();
}
