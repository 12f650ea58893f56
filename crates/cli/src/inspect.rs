//! `nf inspect <run-dir>`: renders a run's `metrics.json` as an
//! `EXPERIMENTS.md`-style paper-vs-measured report.
//!
//! Paper reference values (the bands the reproduction is judged against,
//! same constants the `neuroflux-core::simulate` tests assert):
//!
//! - training speedup vs BP at equal budgets: **2.3–6.1×** (Observation 1);
//! - training speedup vs classic LL: **3.3–10.3×**;
//! - activation-cache footprint: **1.5–5.3×** the dataset size (§6.4);
//! - early-exit selection: an intermediate exit beats or matches the
//!   deepest one ("overthinking", Figure 10), giving a compression
//!   factor > 1 (Table 2).

use crate::error::{CliError, Result};
use crate::rundir::RunDir;
use nf_value::Value;
use std::fmt::Write as _;
use std::path::Path;

/// Paper band: NeuroFlux speedup over BP (Observation 1).
pub const PAPER_BP_SPEEDUP: (f64, f64) = (2.3, 6.1);
/// Paper band: NeuroFlux speedup over classic LL.
pub const PAPER_LL_SPEEDUP: (f64, f64) = (3.3, 10.3);
/// Paper band: activation-cache bytes over dataset bytes (§6.4).
pub const PAPER_CACHE_RATIO: (f64, f64) = (1.5, 5.3);

/// Inspects the run directory at `path`, returning the rendered report.
pub fn run_inspect(path: &Path) -> Result<String> {
    let run_dir = RunDir::open(path)?;
    if !run_dir.is_complete() {
        let hint = if run_dir.is_resumable() {
            " (a checkpoint exists — finish the run with `nf train <config> --resume`)"
        } else {
            ""
        };
        return Err(CliError::new(format!(
            "{} has no metrics.json; the run never completed{hint}",
            path.display()
        )));
    }
    let metrics = run_dir.read_metrics()?;
    let kind = metrics.get("kind").and_then(Value::as_str).unwrap_or("?");
    match kind {
        "train" => Ok(render_train(&metrics)),
        "sweep" => Ok(render_sweep(&metrics)),
        "baseline" => Ok(render_baseline(&metrics)),
        "serve" => Ok(render_serve(&metrics)),
        other => Err(CliError::new(format!(
            "metrics.json has unknown kind {other:?}"
        ))),
    }
}

/// Renders the compute-kernel section of a train metrics document: the
/// backend, the detected SIMD paths and the blocked kernel's one plan.
/// Run directories written before the plan became constants carry no
/// `kc`/`nc`/`fan_out_min_macs` (and a per-class `plans` table this no
/// longer reads); they render without the plan sentence.
fn render_kernel_section(out: &mut String, m: &Value) {
    let kernel = match m.get("kernel") {
        Some(k) => k,
        None => return,
    };
    let s = |key: &str| kernel.get(key).and_then(Value::as_str).unwrap_or("?");
    let int = |key: &str| kernel.get(key).and_then(Value::as_int);
    let cores = int("host_cores").unwrap_or(1);
    let int8 = kernel
        .get("int8_compute")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let _ = writeln!(out, "\n## Compute kernels\n");
    let _ = writeln!(
        out,
        "Backend `{}` on {cores} core(s); f32 SIMD `{}`, int8 SIMD `{}`; \
         int8 frozen-block compute {}.",
        s("backend"),
        s("simd"),
        s("simd_int8"),
        if int8 { "on" } else { "off" }
    );
    if let (Some(kc), Some(nc), Some(floor)) = (int("kc"), int("nc"), int("fan_out_min_macs")) {
        let _ = writeln!(
            out,
            "One plan: cache blocks KC = {kc}, NC = {nc}; row panels fan out across \
             threads from {floor} multiply-accumulates per product on a multi-core host."
        );
    }
}

/// Renders the activation-cache section of a train metrics document
/// (codec, encoded bytes, peak, the process's own peak resident set,
/// achieved compression).
fn render_cache_section(out: &mut String, m: &Value) {
    let cache = match m.get("cache") {
        Some(c) => c,
        None => return,
    };
    let codec = cache.get("codec").and_then(Value::as_str).unwrap_or("f32");
    let bytes = |key: &str| cache.get(key).and_then(Value::as_int).unwrap_or(0);
    let _ = writeln!(out, "\n## Activation cache\n");
    let rss = m.get("peak_rss_bytes").and_then(Value::as_int);
    let rss = rss.map_or_else(|| "—".into(), |b| b.to_string());
    let _ = writeln!(
        out,
        "| codec | bytes written | peak bytes | process peak RSS | vs f32 |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    let ratio = cache
        .get("compression_vs_f32")
        .and_then(Value::as_float)
        .map(|r| {
            if (r - 1.0).abs() < 1e-9 {
                "baseline".to_string()
            } else {
                format!("{r:.2}× smaller")
            }
        })
        .unwrap_or_else(|| "—".into());
    let _ = writeln!(
        out,
        "| {codec} | {} | {} | {rss} | {ratio} |",
        bytes("bytes_written"),
        bytes("peak_bytes"),
    );
}

fn render_serve(m: &Value) -> String {
    let mut out = String::new();
    let model = m.get("model").and_then(Value::as_str).unwrap_or("?");
    let n_units = m.get("n_units").and_then(Value::as_int).unwrap_or(0);
    let cores = m.get("host_cores").and_then(Value::as_int).unwrap_or(1);
    let _ = writeln!(
        out,
        "# Serving `{model}` — early-exit inference load test ({n_units} exit \
         heads, {cores} core(s))\n"
    );
    let int = |key: &str| m.get(key).and_then(Value::as_int).unwrap_or(0);
    let _ = writeln!(
        out,
        "{} requests over {} connections (schedule seed {}): {} served, \
         {} rejected.",
        int("requests"),
        int("connections"),
        int("seed"),
        int("ok"),
        int("rejected"),
    );
    if m.get("replicas").is_some() {
        let _ = writeln!(
            out,
            "Server: {} replica(s), {} request(s) in flight client-side.",
            int("replicas"),
            int("inflight"),
        );
    }
    if let Some(busy) = m.get("busy_frac").and_then(Value::as_array) {
        if !busy.is_empty() {
            let rendered: Vec<String> = busy
                .iter()
                .map(|b| format!("{:.1}%", b.as_float().unwrap_or(0.0) * 100.0))
                .collect();
            let _ = writeln!(out, "Replica busy fractions: {}.", rendered.join(", "));
        }
    }
    let total = |key: &str| -> i64 {
        m.get(key)
            .and_then(Value::as_array)
            .map_or(0, |v| v.iter().filter_map(Value::as_int).sum())
    };
    let (batches, served) = (total("batches"), total("served"));
    if batches > 0 {
        let _ = writeln!(
            out,
            "Micro-batches: {batches} run, {served} request(s) served, mean batch {:.2}.",
            served as f64 / batches as f64
        );
    }
    if let Some(rps) = m.get("rps").and_then(Value::as_float) {
        let _ = writeln!(out, "Throughput: {rps:.1} requests/s.\n");
    }
    if let Some(lat) = m.get("latency_us") {
        let l = |key: &str| lat.get(key).and_then(Value::as_int).unwrap_or(0);
        let _ = writeln!(
            out,
            "Client latency: p50 {} µs, p95 {} µs, p99 {} µs.\n",
            l("p50"),
            l("p95"),
            l("p99")
        );
    }
    if let Some(hist) = m.get("exit_hist").and_then(Value::as_array) {
        let _ = writeln!(out, "## Exit-depth histogram\n");
        let _ = writeln!(out, "| exit head | served |");
        let _ = writeln!(out, "|---|---|");
        for (i, count) in hist.iter().enumerate() {
            let _ = writeln!(out, "| {i} | {} |", count.as_int().unwrap_or(0));
        }
        let _ = writeln!(out);
    }
    if let Some(tiers) = m.get("tiers").and_then(Value::as_array) {
        let _ = writeln!(out, "## SLO tiers\n");
        let _ = writeln!(
            out,
            "| tier | max exit | deadline (µs) | requests | ok | rejected | \
             p50 (µs) | p99 (µs) |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
        for t in tiers {
            let ti = |key: &str| t.get(key).and_then(Value::as_int).unwrap_or(0);
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} |",
                t.get("tier").and_then(Value::as_str).unwrap_or("?"),
                ti("max_exit"),
                ti("deadline_us"),
                ti("requests"),
                ti("ok"),
                ti("rejected"),
                ti("p50_us"),
                ti("p99_us"),
            );
        }
        let _ = writeln!(out);
    }
    if let Some(rej) = m.get("rejected_by_reason").and_then(Value::entries) {
        if !rej.is_empty() {
            let _ = writeln!(out, "Rejections by reason:");
            for (name, count) in rej {
                let _ = writeln!(out, "- {name}: {}", count.as_int().unwrap_or(0));
            }
            let _ = writeln!(out);
        }
    }
    let _ = writeln!(
        out,
        "The exit histogram and per-tier request counts are deterministic \
         for this config; latency and throughput depend on the host."
    );
    out
}

fn band_status(measured: f64, band: (f64, f64)) -> &'static str {
    if measured < band.0 {
        "below paper band"
    } else if measured > band.1 {
        "above paper band"
    } else {
        "within paper band"
    }
}

fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

fn render_train(m: &Value) -> String {
    let mut out = String::new();
    let name = m.get("name").and_then(Value::as_str).unwrap_or("?");
    let model = m
        .get("model")
        .and_then(|t| t.get("name"))
        .and_then(Value::as_str)
        .unwrap_or("?");
    let _ = writeln!(out, "# Run `{name}` — NeuroFlux training ({model})\n");

    // Paper-vs-measured table.
    let _ = writeln!(out, "| metric | measured | paper | status |");
    let _ = writeln!(out, "|---|---|---|---|");
    let n_units = m
        .get("model")
        .and_then(|t| t.get("units"))
        .and_then(Value::as_int)
        .unwrap_or(0);
    match m.get("selected_exit") {
        Some(Value::Table(_)) => {
            let unit = m
                .get("selected_exit")
                .and_then(|t| t.get("unit"))
                .and_then(Value::as_int)
                .unwrap_or(-1);
            let status = if unit + 1 < n_units {
                "reproduced: intermediate exit selected"
            } else {
                "deepest exit selected"
            };
            let _ = writeln!(
                out,
                "| selected exit | unit {unit} of {n_units} | Fig. 10: intermediate exits suffice (\"overthinking\") | {status} |"
            );
        }
        _ => {
            let _ = writeln!(
                out,
                "| selected exit | none | Fig. 10: intermediate exits suffice | not reproduced |"
            );
        }
    }
    if let Some(c) = m.get("compression_factor").and_then(Value::as_float) {
        let status = if c > 1.0 {
            "reproduced: streamlined model is smaller"
        } else {
            "not reproduced"
        };
        let _ = writeln!(
            out,
            "| compression factor | {c:.2}× | Table 2: > 1× (up to ~10×) | {status} |"
        );
    }
    // Cache footprint vs the dataset's f32 byte size.
    let cache_bytes = m
        .get("cache")
        .and_then(|t| t.get("bytes_written"))
        .and_then(Value::as_int)
        .unwrap_or(0) as f64;
    let dataset_bytes = dataset_f32_bytes(m);
    if cache_bytes > 0.0 && dataset_bytes > 0.0 {
        let ratio = cache_bytes / dataset_bytes;
        let _ = writeln!(
            out,
            "| activation cache / dataset | {ratio:.1}× | §6.4: {:.1}–{:.1}× | {} |",
            PAPER_CACHE_RATIO.0,
            PAPER_CACHE_RATIO.1,
            band_status(ratio, PAPER_CACHE_RATIO)
        );
    }
    if let Some(acc) = m.get("test_accuracy").and_then(Value::as_float) {
        let _ = writeln!(
            out,
            "| test accuracy (selected exit) | {} | — (synthetic stand-in data) | informational |",
            pct(acc)
        );
    }

    // Exit table.
    if let Some(exits) = m.get("exits").and_then(Value::as_array) {
        let selected = m
            .get("selected_exit")
            .and_then(|t| t.get("unit"))
            .and_then(Value::as_int);
        let _ = writeln!(out, "\n## Exit candidates\n");
        let _ = writeln!(out, "| unit | params | val accuracy | |");
        let _ = writeln!(out, "|---|---|---|---|");
        for e in exits {
            let unit = e.get("unit").and_then(Value::as_int).unwrap_or(-1);
            let params = e.get("params").and_then(Value::as_int).unwrap_or(0);
            let acc = e
                .get("val_accuracy")
                .and_then(Value::as_float)
                .map(pct)
                .unwrap_or_else(|| "—".into());
            let mark = if selected == Some(unit) {
                "← selected"
            } else {
                ""
            };
            let _ = writeln!(out, "| {unit} | {params} | {acc} | {mark} |");
        }
    }

    // Block plan.
    if let Some(blocks) = m.get("blocks").and_then(Value::as_array) {
        let _ = writeln!(out, "\n## Block plan (AB-LL)\n");
        let _ = writeln!(out, "| block | units | batch |");
        let _ = writeln!(out, "|---|---|---|");
        for (i, b) in blocks.iter().enumerate() {
            let units = b.get("units").and_then(Value::as_array);
            let (s, e) = match units {
                Some([a, b]) => (a.as_int().unwrap_or(0), b.as_int().unwrap_or(0)),
                _ => (0, 0),
            };
            let batch = b.get("batch").and_then(Value::as_int).unwrap_or(0);
            let _ = writeln!(out, "| {i} | {s}..{e} | {batch} |");
        }
    }
    render_kernel_section(&mut out, m);
    render_cache_section(&mut out, m);
    out
}

/// Dataset f32 byte size reconstructed from the config snapshot embedded in
/// the metrics (train samples × 3 channels × hw² × 4 bytes).
fn dataset_f32_bytes(m: &Value) -> f64 {
    let config = match m.get("config") {
        Some(c) => c,
        None => return 0.0,
    };
    let dataset = match config.get("dataset") {
        Some(d) => d,
        None => return 0.0,
    };
    let train = m
        .get("train_samples")
        .and_then(Value::as_int)
        .or_else(|| dataset.get("train").and_then(Value::as_int))
        .unwrap_or(0) as f64;
    let hw = dataset
        .get("image_hw")
        .and_then(Value::as_int)
        .unwrap_or(32) as f64;
    train * 3.0 * hw * hw * 4.0
}

fn render_sweep(m: &Value) -> String {
    let mut out = String::new();
    let name = m.get("name").and_then(Value::as_str).unwrap_or("?");
    let model = m.get("model").and_then(Value::as_str).unwrap_or("?");
    let _ = writeln!(out, "# Run `{name}` — device-budget sweep ({model})\n");
    let _ = writeln!(
        out,
        "Paper bands: {:.1}–{:.1}× vs BP, {:.1}–{:.1}× vs classic LL (Observation 1).\n",
        PAPER_BP_SPEEDUP.0, PAPER_BP_SPEEDUP.1, PAPER_LL_SPEEDUP.0, PAPER_LL_SPEEDUP.1
    );
    for device in m
        .get("devices")
        .and_then(Value::as_array)
        .unwrap_or_default()
    {
        let dev_name = device.get("device").and_then(Value::as_str).unwrap_or("?");
        let _ = writeln!(out, "## {dev_name}\n");
        let _ = writeln!(
            out,
            "| budget (MB) | bp (h) | classic-ll (h) | neuroflux (h) | vs BP | vs LL | status |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|");
        for p in device
            .get("points")
            .and_then(Value::as_array)
            .unwrap_or_default()
        {
            let budget = p.get("budget_mb").and_then(Value::as_int).unwrap_or(0);
            let hours = |key: &str| -> String {
                match p.get(key) {
                    Some(Value::Table(_)) => {
                        let s = p
                            .get(key)
                            .and_then(|t| t.get("total_s"))
                            .and_then(Value::as_float)
                            .unwrap_or(0.0);
                        format!("{:.1}", s / 3600.0)
                    }
                    _ => "infeasible".to_string(),
                }
            };
            let vs_bp = p.get("speedup_vs_bp").and_then(Value::as_float);
            let vs_ll = p.get("speedup_vs_ll").and_then(Value::as_float);
            let fmt_speedup =
                |s: Option<f64>| s.map(|s| format!("{s:.1}×")).unwrap_or_else(|| "—".into());
            let status = match vs_bp {
                Some(s) => band_status(s, PAPER_BP_SPEEDUP),
                None => "BP infeasible (NeuroFlux-only region)",
            };
            let _ = writeln!(
                out,
                "| {budget} | {} | {} | {} | {} | {} | {status} |",
                hours("bp"),
                hours("classic_ll"),
                hours("neuroflux"),
                fmt_speedup(vs_bp),
                fmt_speedup(vs_ll),
            );
        }
        let _ = writeln!(out);
    }
    out
}

fn render_baseline(m: &Value) -> String {
    let mut out = String::new();
    let name = m.get("name").and_then(Value::as_str).unwrap_or("?");
    let paradigm = m.get("paradigm").and_then(Value::as_str).unwrap_or("?");
    let _ = writeln!(out, "# Run `{name}` — baseline `{paradigm}`\n");
    let _ = writeln!(out, "| metric | value |");
    let _ = writeln!(out, "|---|---|");
    if let Some(acc) = m.get("final_test_accuracy").and_then(Value::as_float) {
        let _ = writeln!(out, "| final test accuracy | {} |", pct(acc));
    }
    let budget = m
        .get("config")
        .and_then(|c| c.get("train")?.get("budget_bytes")?.as_int());
    if let (Some(budget), Some(batch)) = (budget, m.get("batch").and_then(Value::as_int)) {
        let mb = budget as f64 / 1e6;
        let _ = writeln!(out, "| batch under {mb} MB budget | {batch} |");
    }
    if let Some(rss) = m.get("peak_rss_bytes").and_then(Value::as_int) {
        let _ = writeln!(out, "| process peak RSS | {rss} bytes |");
    }
    if let Some(losses) = m.get("epoch_loss").and_then(Value::as_array) {
        let first = losses.first().and_then(Value::as_float).unwrap_or(0.0);
        let last = losses.last().and_then(Value::as_float).unwrap_or(0.0);
        let _ = writeln!(out, "| epochs | {} |", losses.len());
        let _ = writeln!(out, "| loss first → last | {first:.4} → {last:.4} |");
    }
    let _ = writeln!(
        out,
        "\nCompare against a NeuroFlux run of the same config with \
         `nf train` + `nf inspect` (Figure 3's quadrant)."
    );
    out
}
