//! Config round-trip: TOML file → `RunConfig` → rendered snapshot →
//! `RunConfig`, asserting full equality (the property `runs/<name>/config.toml`
//! snapshots rely on).

use nf_cli::RunConfig;
use std::path::Path;

fn workspace_file(rel: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

#[test]
fn quickstart_example_round_trips() {
    let cfg = RunConfig::load(&workspace_file("examples/quickstart.toml")).unwrap();
    assert_eq!(cfg.run.name, "quickstart");
    let rendered = cfg.to_value().to_toml().unwrap();
    let reparsed = RunConfig::from_value(&nf_value::toml::parse(&rendered).unwrap()).unwrap();
    assert_eq!(cfg, reparsed, "snapshot:\n{rendered}");
}

/// Every shipped example loads under unknown-key rejection and its
/// snapshot is a fixed point; the optional sections each one exists to
/// show arrive typed.
#[test]
fn every_example_loads_and_round_trips() {
    for name in ["quickstart", "sweep", "serve"] {
        let cfg = RunConfig::load(&workspace_file(&format!("examples/{name}.toml")))
            .unwrap_or_else(|e| panic!("examples/{name}.toml: {e}"));
        let rendered = cfg.to_value().to_toml().unwrap();
        let reparsed = RunConfig::from_value(&nf_value::toml::parse(&rendered).unwrap()).unwrap();
        assert_eq!(cfg, reparsed, "examples/{name}.toml snapshot:\n{rendered}");
        assert_eq!(reparsed.to_value().to_toml().unwrap(), rendered);
    }
    let serve = RunConfig::load(&workspace_file("examples/serve.toml")).unwrap();
    assert_eq!(serve.serve().addr, "127.0.0.1:7471");
    assert!(serve.serve().allow_shutdown);
    assert_eq!(serve.loadgen().inflight, 8);
    serve.resolve_serve().unwrap();
}

#[test]
fn sweep_example_round_trips_and_resolves() {
    let cfg = RunConfig::load(&workspace_file("examples/sweep.toml")).unwrap();
    let sweep = cfg.sweep.as_ref().expect("sweep section");
    assert_eq!(sweep.devices, ["agx-orin"]);
    assert_eq!(sweep.budgets_mb.len(), 5);
    let rendered = cfg.to_value().to_toml().unwrap();
    let reparsed = RunConfig::from_value(&nf_value::toml::parse(&rendered).unwrap()).unwrap();
    assert_eq!(cfg, reparsed);
    // The model section resolves to the real VGG-16 at CIFAR geometry.
    let (model, dataset, _) = cfg.resolve().unwrap();
    assert_eq!(model.name, "vgg16");
    assert_eq!(dataset.classes, 10);
}

#[test]
fn json_config_parses_too() {
    let json = r#"{
        "run": {"name": "fromjson"},
        "model": {"preset": "tiny", "channels": [4, 8]},
        "dataset": {"preset": "quick", "classes": 3, "image_hw": 8, "train": 32},
        "train": {"budget_mb": 16, "batch_limit": 8}
    }"#;
    let value = nf_value::json::parse(json).unwrap();
    let cfg = RunConfig::from_value(&value).unwrap();
    assert_eq!(cfg.run.name, "fromjson");
    let (model, _, nf) = cfg.resolve().unwrap();
    assert_eq!(model.num_units(), 2);
    assert_eq!(nf.budget_bytes, 16_000_000);
}

#[test]
fn spec_serialization_survives_model_resolution() {
    // The resolved ModelSpec must be reconstructible purely from the
    // snapshot (same preset + knobs ⇒ same spec) — the property resume
    // relies on to rebuild the architecture in a fresh process.
    let cfg = RunConfig::load(&workspace_file("examples/quickstart.toml")).unwrap();
    let rendered = cfg.to_value().to_toml().unwrap();
    let reparsed = RunConfig::from_value(&nf_value::toml::parse(&rendered).unwrap()).unwrap();
    let (a, da, ca) = cfg.resolve().unwrap();
    let (b, db, cb) = reparsed.resolve().unwrap();
    assert_eq!(a, b);
    assert_eq!(da, db);
    assert_eq!(ca, cb);
    // Sanity on the metrics document model too.
    let mut doc = nf_cli::Table::new();
    doc.insert("config", cfg.to_value());
    let json = doc.build().to_json();
    let back = nf_value::json::parse(&json).unwrap();
    let from_json = RunConfig::from_value(back.get("config").unwrap()).unwrap();
    assert_eq!(from_json, cfg);
}
