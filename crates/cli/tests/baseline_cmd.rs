//! `nf baseline <bp|ll|fa|sp>` end-to-end: every paradigm leaves the same
//! three artifacts, learns on a quickstart-sized config, and is a pure
//! function of the seed; feedback alignment is the BP run with feedback
//! matrices drawn after the model is built; BP's SGD takes `[train]
//! momentum`; a budget a paradigm cannot fit is a config error at the
//! budget.

use nf_cli::{run_baseline, CliError, Paradigm, RunConfig, Value};

const ALL: [Paradigm; 4] = [Paradigm::Bp, Paradigm::Ll, Paradigm::Fa, Paradigm::Sp];
const CLASSES: usize = 4;

fn temp_out_dir(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("nf_baseline_cmd_{tag}_{}", std::process::id()))
        .to_string_lossy()
        .to_string()
}

/// `examples/quickstart.toml` with a shorter channel plan and a budget
/// every paradigm fits `batch_limit` in; `batch_limit` ≥ `train` makes an
/// epoch one step.
fn config(out_dir: &str, train: usize, batch_limit: usize) -> RunConfig {
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
budget_mb = 64
batch_limit = {batch_limit}
epochs_per_block = 5
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

#[test]
fn bp_trains_at_the_configured_momentum() {
    let out_dir = temp_out_dir("momentum");
    // One step per epoch: the first update is the gradient at any
    // momentum, the second carries the first's velocity at 0.9.
    let cfg = config(&out_dir, 48, 64);
    let mut plain = cfg.clone();
    plain.train.momentum = 0.0;
    let (_, heavy) = run_baseline(&cfg, Paradigm::Bp).unwrap();
    let (_, plain) = run_baseline(&plain, Paradigm::Bp).unwrap();
    let (heavy, plain) = (series(&heavy, "epoch_loss"), series(&plain, "epoch_loss"));
    assert_eq!(heavy[..2], plain[..2]);
    assert_ne!(heavy[2..], plain[2..], "[train] momentum reached BP's SGD");
    std::fs::remove_dir_all(&out_dir).ok();
}

/// The quickstart's own budget: the recorded batch is each paradigm's
/// largest fit, and classic LL (every 256-filter head resident) or BP
/// below its fixed bytes cannot train at all — a typed error at the
/// budget, before any run directory exists.
#[test]
fn batches_come_from_the_budget_and_an_unfittable_one_is_a_config_error() {
    let out_dir = temp_out_dir("budget");
    let quickstart = include_str!("../../../examples/quickstart.toml")
        .replace("out_dir = \"runs\"", &format!("out_dir = \"{out_dir}\""))
        .replace("epochs_per_block = 5", "epochs_per_block = 1");
    let load = |doc: &str| RunConfig::from_value(&nf_value::toml::parse(doc).unwrap()).unwrap();
    let cfg = load(&quickstart);
    for (paradigm, batch) in [(Paradigm::Bp, 2), (Paradigm::Ll, 4), (Paradigm::Sp, 32)] {
        let (_, metrics) = run_baseline(&cfg, paradigm).unwrap();
        assert_eq!(metrics.get("batch").and_then(Value::as_int), Some(batch));
    }
    std::fs::remove_dir_all(&out_dir).unwrap();

    let classic = quickstart.replace("# aux_policy = \"adaptive\"", "aux_policy = \"classic\"");
    let below_intercept = quickstart.replace("budget_mb = 1.0", "budget_mb = 0.3");
    for (doc, paradigm) in [(classic, Paradigm::Ll), (below_intercept, Paradigm::Bp)] {
        let Err(CliError::Config { path, message }) = run_baseline(&load(&doc), paradigm) else {
            panic!("{}: expected a config error", paradigm.name());
        };
        assert_eq!(path, "train.budget_mb");
        assert!(message.contains(paradigm.name()), "{message}");
        assert!(!std::path::Path::new(&out_dir).exists());
    }
}
