//! `nf baseline <bp|ll|fa|sp>` end-to-end: every paradigm leaves the same
//! three artifacts, learns on a quickstart-sized config, and is a pure
//! function of the seed; feedback alignment is the BP run with feedback
//! matrices drawn after the model is built.

use nf_cli::{run_baseline, Paradigm, RunConfig, Value};

const ALL: [Paradigm; 4] = [Paradigm::Bp, Paradigm::Ll, Paradigm::Fa, Paradigm::Sp];
const CLASSES: usize = 4;

fn temp_out_dir(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("nf_baseline_cmd_{tag}_{}", std::process::id()))
        .to_string_lossy()
        .to_string()
}

/// `examples/quickstart.toml` with a shorter channel plan; `batch` ≥
/// `train` makes an epoch one step.
fn config(out_dir: &str, train: usize, batch: usize) -> RunConfig {
    let doc = format!(
        r#"
[run]
name = "basetest"
seed = 42
out_dir = "{out_dir}"

[model]
preset = "tiny"
channels = [8, 16, 16]

[dataset]
preset = "quick"
classes = {CLASSES}
image_hw = 16
train = {train}

[train]
budget_mb = 1.0
batch_limit = 32
epochs_per_block = 5

[baseline]
epochs = 5
batch = {batch}
lr = 0.05
"#
    );
    RunConfig::from_value(&nf_value::toml::parse(&doc).unwrap()).unwrap()
}

/// A metrics series as bits, so equality means the same run.
fn series(metrics: &Value, key: &str) -> Vec<u64> {
    let xs = metrics.get(key).and_then(Value::as_array).unwrap();
    xs.iter().map(|x| x.as_float().unwrap().to_bits()).collect()
}

#[test]
fn every_paradigm_learns_and_leaves_a_complete_run_directory() {
    let out_dir = temp_out_dir("all");
    let cfg = config(&out_dir, 256, 16);
    for paradigm in ALL {
        let name = paradigm.name();
        let (run_dir, metrics) = run_baseline(&cfg, paradigm).unwrap();
        assert!(run_dir.root().ends_with(format!("basetest-{name}")));
        assert_eq!(run_dir.read_config().unwrap(), cfg, "{name}");
        assert_eq!(run_dir.read_metrics().unwrap(), metrics, "{name}");
        assert!(run_dir.checkpoint_path().is_file(), "{name}: checkpoint");
        assert_eq!(
            metrics.get("kind").and_then(Value::as_str),
            Some("baseline")
        );
        assert_eq!(metrics.get("paradigm").and_then(Value::as_str), Some(name));

        let loss = metrics.get("epoch_loss").and_then(Value::as_array).unwrap();
        assert_eq!(loss.len(), 5, "{name}");
        let (first, last) = (loss[0].as_float().unwrap(), loss[4].as_float().unwrap());
        assert!(last < first, "{name}: epoch_loss {first} -> {last}");
        let accuracy = metrics.get("final_test_accuracy").and_then(Value::as_float);
        if paradigm == Paradigm::Fa {
            // Twice chance: learning, not a lucky split.
            assert!(accuracy.unwrap() > 2.0 / CLASSES as f64, "fa: {accuracy:?}");
        }

        // Same seed, same run.
        let (_, again) = run_baseline(&cfg, paradigm).unwrap();
        for key in ["epoch_loss", "test_accuracy"] {
            assert_eq!(series(&again, key), series(&metrics, key), "{name} {key}");
        }
    }
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn fa_starts_from_bp_weights_and_parts_ways_at_the_first_update() {
    let out_dir = temp_out_dir("twin");
    // One step per epoch: epoch 0's loss is that of the initial weights.
    let cfg = config(&out_dir, 48, 64);
    let (_, bp) = run_baseline(&cfg, Paradigm::Bp).unwrap();
    let (_, fa) = run_baseline(&cfg, Paradigm::Fa).unwrap();
    let (bp, fa) = (series(&bp, "epoch_loss"), series(&fa, "epoch_loss"));
    assert_eq!(bp[0], fa[0], "feedback is drawn after the model is built");
    assert_ne!(bp[1..], fa[1..], "the error went back through B, not W");
    std::fs::remove_dir_all(&out_dir).ok();
}
