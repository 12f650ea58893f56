//! Kill-and-resume integration test: an interrupted `nf train` run,
//! resumed in a "fresh process", must reproduce the uninterrupted run's
//! final metrics exactly. Also covers the end-to-end acceptance path:
//! train → artifacts on disk → inspect.

use nf_cli::{run_inspect, run_train, CliError, RunConfig, TrainOptions, Value};
use std::path::PathBuf;

/// A small 2+-block config (ρ = 0 keeps every unit in its own block so an
/// interruption after block 1 is genuinely mid-run).
fn test_config(out_dir: &std::path::Path, name: &str) -> RunConfig {
    test_config_with_codec(out_dir, name, "f32")
}

/// [`test_config`] with an explicit `[cache] codec`.
fn test_config_with_codec(out_dir: &std::path::Path, name: &str, codec: &str) -> RunConfig {
    let toml = format!(
        r#"
[run]
name = "{name}"
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

[cache]
codec = "{codec}"
"#,
        out_dir.display()
    );
    RunConfig::from_value(&nf_value::toml::parse(&toml).unwrap()).unwrap()
}

fn temp_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nf_cli_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The metrics fields that define the run's outcome (everything except
/// wall-clock time and the resume marker).
fn outcome_fields(metrics: &Value) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    for key in [
        "blocks",
        "block_losses",
        "exits",
        "selected_exit",
        "compression_factor",
        "test_accuracy",
    ] {
        out.push((key.to_string(), metrics.get(key).cloned().unwrap()));
    }
    // Cache totals must match too (peak may legitimately differ only if
    // the resumed process saw fewer simultaneous blocks — it does not
    // here, but bytes_written is the § 6.4 metric and must be identical).
    out.push((
        "cache_bytes_written".into(),
        metrics
            .get("cache")
            .and_then(|c| c.get("bytes_written"))
            .cloned()
            .unwrap(),
    ));
    out
}

#[test]
fn interrupted_run_resumed_matches_uninterrupted() {
    let base = temp_base("resume");
    let out_a = base.join("a");
    let out_b = base.join("b");

    // Reference: uninterrupted run.
    let cfg_a = test_config(&out_a, "ref");
    let opts = TrainOptions {
        quiet: true,
        ..TrainOptions::default()
    };
    let reference = run_train(&cfg_a, &opts).unwrap();
    let n_blocks = reference
        .metrics
        .get("blocks")
        .and_then(Value::as_array)
        .unwrap()
        .len();
    assert!(
        n_blocks >= 2,
        "test config must produce ≥ 2 blocks, got {n_blocks}"
    );

    // Interrupted run: cancelled after block 1 of n.
    let cfg_b = test_config(&out_b, "victim");
    let err = run_train(
        &cfg_b,
        &TrainOptions {
            quiet: true,
            interrupt_after_blocks: Some(1),
            ..TrainOptions::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            CliError::Interrupted {
                completed_blocks: 1
            }
        ),
        "{err}"
    );

    // The aborted run dir looks exactly like a kill: checkpoint + cache,
    // no metrics.
    let run_dir = out_b.join("victim");
    assert!(run_dir.join("checkpoint.nfck").is_file());
    assert!(run_dir.join("cache").is_dir());
    assert!(!run_dir.join("metrics.json").exists());
    // Inspecting an incomplete run points at --resume.
    let msg = run_inspect(&run_dir).unwrap_err().to_string();
    assert!(msg.contains("--resume"), "{msg}");

    // Resuming with an *edited* config is refused — earlier blocks were
    // trained under the snapshot's settings.
    let mut edited = cfg_b.clone();
    edited.train.lr = 0.123;
    let err = run_train(
        &edited,
        &TrainOptions {
            resume: true,
            quiet: true,
            ..TrainOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("snapshot"), "{err}");

    // A snapshot from before a key was deleted is refused too, naming the
    // key: no alias resumes it as if its earlier blocks had run under
    // today's schema.
    let snapshot_path = run_dir.join("config.toml");
    let snapshot_text = std::fs::read_to_string(&snapshot_path).unwrap();
    let stale = snapshot_text.replace("[train]\n", "[train]\nevict_params = true\n");
    std::fs::write(&snapshot_path, stale).unwrap();
    let opts = TrainOptions {
        resume: true,
        quiet: true,
        ..TrainOptions::default()
    };
    match run_train(&cfg_b, &opts).unwrap_err() {
        CliError::Config { path, .. } => assert_eq!(path, "train.evict_params"),
        other => panic!("expected a typed config error, got {other}"),
    }
    std::fs::write(&snapshot_path, snapshot_text).unwrap();

    // A cache entry torn between the kill and the resume fails the resume
    // with a typed read error when it is opened, before anything trains on
    // short data.
    let block = run_dir.join("cache/block_0.acts");
    let whole = std::fs::read(&block).unwrap();
    std::fs::write(&block, &whole[..whole.len() / 2]).unwrap();
    let err = run_train(&cfg_b, &opts).unwrap_err().to_string();
    assert!(
        err.contains("activation cache read failed for block 0"),
        "{err}"
    );
    assert!(!run_dir.join("metrics.json").exists());
    std::fs::write(&block, whole).unwrap();

    // Resume (a fresh RunConfig, as a new process would load it from the
    // snapshot) and compare outcomes.
    let snapshot = RunConfig::load(&run_dir.join("config.toml")).unwrap();
    assert_eq!(snapshot, cfg_b, "config snapshot must round-trip");
    let resumed = run_train(
        &snapshot,
        &TrainOptions {
            resume: true,
            quiet: true,
            ..TrainOptions::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.metrics.get("resumed"), Some(&Value::Bool(true)));
    assert_eq!(
        outcome_fields(&resumed.metrics),
        outcome_fields(&reference.metrics),
        "resumed run must reproduce the uninterrupted final metrics"
    );

    // Resuming a *completed* run is refused.
    let err = run_train(
        &snapshot,
        &TrainOptions {
            resume: true,
            quiet: true,
            ..TrainOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("already completed"), "{err}");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn interrupted_quantized_run_resumes_and_changed_codec_is_refused() {
    let base = temp_base("resume_codec");
    let out_ref = base.join("ref");
    let out_vic = base.join("vic");
    let opts = TrainOptions {
        quiet: true,
        ..TrainOptions::default()
    };

    // Reference: uninterrupted int8 run.
    let reference = run_train(&test_config_with_codec(&out_ref, "ref", "int8"), &opts).unwrap();

    // Interrupted int8 run (kill after block 1: checkpoint + int8-encoded
    // cache blobs are on disk).
    let cfg = test_config_with_codec(&out_vic, "victim", "int8");
    run_train(
        &cfg,
        &TrainOptions {
            quiet: true,
            interrupt_after_blocks: Some(1),
            ..TrainOptions::default()
        },
    )
    .unwrap_err();
    let run_dir = out_vic.join("victim");
    assert!(run_dir.join("checkpoint.nfck").is_file());

    // Resuming with the codec changed to f16 is refused: the config no
    // longer matches the interrupted run's snapshot.
    let edited = test_config_with_codec(&out_vic, "victim", "f16");
    let err = run_train(
        &edited,
        &TrainOptions {
            resume: true,
            quiet: true,
            ..TrainOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("snapshot"), "{err}");

    // Below the CLI guard, the core is also defended: recovering the int8
    // cache directory under f32 is a typed mismatch naming both codecs.
    let f32 = neuroflux_core::CodecKind::F32Raw;
    let mut wrong =
        neuroflux_core::DiskStore::recover_with_codec(run_dir.join("cache"), f32).unwrap();
    let msg = neuroflux_core::ActivationStore::read(&mut wrong, 0)
        .unwrap_err()
        .to_string();
    assert!(msg.contains("f32") && msg.contains("int8"), "{msg}");

    // Resuming with the original codec reproduces the uninterrupted run.
    let snapshot = RunConfig::load(&run_dir.join("config.toml")).unwrap();
    assert_eq!(snapshot, cfg);
    let resumed = run_train(
        &snapshot,
        &TrainOptions {
            resume: true,
            quiet: true,
            ..TrainOptions::default()
        },
    )
    .unwrap();
    assert_eq!(
        outcome_fields(&resumed.metrics),
        outcome_fields(&reference.metrics),
        "resumed int8 run must reproduce the uninterrupted final metrics"
    );
    // The artifact records the codec and its achieved compression.
    let cache = resumed.metrics.get("cache").unwrap();
    assert_eq!(
        cache.get("codec").and_then(Value::as_str),
        Some("int8"),
        "{cache:?}"
    );
    let ratio = cache
        .get("compression_vs_f32")
        .and_then(Value::as_float)
        .unwrap();
    assert!(ratio > 3.3, "compression {ratio}");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn train_writes_all_artifacts_and_inspect_renders() {
    let base = temp_base("artifacts");
    let cfg = test_config(&base, "arts");
    let summary = run_train(
        &cfg,
        &TrainOptions {
            quiet: true,
            ..TrainOptions::default()
        },
    )
    .unwrap();
    let root = summary.run_dir.root();
    assert!(root.join("config.toml").is_file());
    assert!(root.join("metrics.json").is_file());
    assert!(
        root.join("checkpoint.nfck").is_file(),
        "final model artifact"
    );
    // The activation cache drains on completion (§3.3 eviction).
    let leftover: Vec<_> = std::fs::read_dir(root.join("cache"))
        .map(|rd| rd.flatten().collect())
        .unwrap_or_default();
    assert!(leftover.is_empty(), "cache must drain: {leftover:?}");

    // The checkpoint is re-loadable and marks the run complete.
    let ck = neuroflux_core::Checkpoint::load(&root.join("checkpoint.nfck")).unwrap();
    assert!(ck.head_trained);
    assert_eq!(
        ck.completed_blocks,
        summary
            .metrics
            .get("blocks")
            .and_then(Value::as_array)
            .unwrap()
            .len()
    );

    // Refusing to clobber a completed run without --force.
    let err = run_train(
        &cfg,
        &TrainOptions {
            quiet: true,
            ..TrainOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("--force"), "{err}");

    // Inspect renders the paper-vs-measured report.
    let report = run_inspect(root).unwrap();
    assert!(
        report.contains("| metric | measured | paper | status |"),
        "{report}"
    );
    assert!(report.contains("Exit candidates"), "{report}");
    assert!(report.contains("Block plan"), "{report}");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn checkpoint_reload_reproduces_inference() {
    // Acceptance: the run's checkpoint is a usable model artifact — load
    // it into a freshly built model and get identical logits.
    use nf_models::assign_aux;
    use rand::SeedableRng;

    let base = temp_base("ckload");
    let cfg = test_config(&base, "ck");
    run_train(
        &cfg,
        &TrainOptions {
            quiet: true,
            ..TrainOptions::default()
        },
    )
    .unwrap();
    let (spec, _, nf) = cfg.resolve().unwrap();
    let ck = neuroflux_core::Checkpoint::load(&base.join("ck").join("checkpoint.nfck")).unwrap();

    let build = |seed: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let model = spec.build(&mut rng).unwrap();
        let heads: Vec<_> = assign_aux(&spec, nf.aux_policy)
            .iter()
            .map(|a| nf_models::build_aux_head(&mut rng, a).unwrap())
            .collect();
        (model, heads)
    };
    let (mut a, mut ha) = build(1);
    let (mut b, mut hb) = build(2);
    ck.restore(&mut a, &mut ha).unwrap();
    ck.restore(&mut b, &mut hb).unwrap();
    let x = nf_tensor::Tensor::ones(&[2, 3, 8, 8]);
    assert_eq!(a.infer(&x).unwrap(), b.infer(&x).unwrap());
    std::fs::remove_dir_all(&base).ok();
}

/// The quickstart at a budget no unit fits: a typed error at the budget,
/// planned before anything is written, so no run directory is left.
#[test]
fn an_unplannable_budget_is_a_config_error_and_writes_nothing() {
    let base = temp_base("tinybudget");
    let out_dir = base.join("runs");
    let doc = include_str!("../../../examples/quickstart.toml")
        .replace(
            "out_dir = \"runs\"",
            &format!("out_dir = {:?}", out_dir.display().to_string()),
        )
        .replace("budget_mb = 1.0", "budget_mb = 0.05");
    let cfg = RunConfig::from_value(&nf_value::toml::parse(&doc).unwrap()).unwrap();
    let Err(CliError::Config { path, message }) = run_train(&cfg, &TrainOptions::default()) else {
        panic!("expected a config error at the budget");
    };
    assert_eq!(path, "train.budget_mb");
    assert!(message.contains("NeuroFlux cannot train"), "{message}");
    assert!(!out_dir.exists(), "{} was created", out_dir.display());
    std::fs::remove_dir_all(&base).ok();
}
