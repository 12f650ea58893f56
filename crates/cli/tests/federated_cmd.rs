//! `nf federated` end-to-end: the run artifact layout, the per-round /
//! per-client metrics document, and the no-panic contract on degenerate
//! configs (empty shards surface as CLI diagnostics).

use nf_cli::{run_federated_cmd, RunConfig, Value};

fn temp_out_dir(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("nf_fed_cmd_{tag}_{}", std::process::id()))
        .to_string_lossy()
        .to_string()
}

fn config(out_dir: &str, train: usize, clients: usize) -> RunConfig {
    let doc = format!(
        r#"
[run]
name = "fedtest"
seed = 5
out_dir = "{out_dir}"

[model]
preset = "tiny"
channels = [4, 8]

[dataset]
preset = "quick"
classes = 3
image_hw = 8
train = {train}

[train]
budget_mb = 16
batch_limit = 8
epochs_per_block = 1

[federated]
clients = {clients}
rounds = 2
threads = 2
strategy = "by-label"
"#
    );
    RunConfig::from_value(&nf_value::toml::parse(&doc).unwrap()).unwrap()
}

#[test]
fn federated_run_writes_round_and_client_metrics() {
    let out_dir = temp_out_dir("ok");
    let cfg = config(&out_dir, 48, 3);
    let (run_dir, metrics) = run_federated_cmd(&cfg, false, true).unwrap();

    // The artifact is a complete run: snapshot + metrics re-read cleanly.
    assert!(run_dir.is_complete());
    assert_eq!(run_dir.read_metrics().unwrap(), metrics);
    assert_eq!(run_dir.read_config().unwrap(), cfg);

    assert_eq!(
        metrics.get("kind").and_then(Value::as_str),
        Some("federated")
    );
    assert_eq!(metrics.get("rounds_run").and_then(Value::as_int), Some(2));
    assert_eq!(metrics.get("threads_used").and_then(Value::as_int), Some(2));
    let rounds = metrics.get("rounds").and_then(Value::as_array).unwrap();
    assert_eq!(rounds.len(), 2);
    for round in rounds {
        let clients = round.get("clients").and_then(Value::as_array).unwrap();
        assert_eq!(clients.len(), 3);
        let samples: i64 = clients
            .iter()
            .map(|c| c.get("samples").and_then(Value::as_int).unwrap())
            .sum();
        assert_eq!(samples, 48, "every sample sharded exactly once");
        assert!(round.get("accuracy").and_then(Value::as_float).is_some());
    }
    // A completed run refuses to rerun without --force, and --force works.
    let err = run_federated_cmd(&cfg, false, true)
        .unwrap_err()
        .to_string();
    assert!(err.contains("--force"), "{err}");
    run_federated_cmd(&cfg, true, true).unwrap();
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn more_clients_than_samples_is_a_diagnostic_not_a_panic() {
    let out_dir = temp_out_dir("empty");
    // train = 8 but clients = 9: sharding cannot give everyone a sample.
    let cfg = config(&out_dir, 8, 9);
    let err = run_federated_cmd(&cfg, false, true)
        .unwrap_err()
        .to_string();
    assert!(err.contains("cannot shard"), "{err}");
    std::fs::remove_dir_all(&out_dir).ok();
}
