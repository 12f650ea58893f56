//! Reproducibility across processes, on what users run: two fresh
//! `nf train` processes on the same config — default kernel backend, no
//! pin — must write the same `block_losses` bits. And one whose stdout
//! reader has gone (`nf sweep … | head -1`) still succeeds, unpanicked.
//! And a fresh process's own peak memory grows with its dataset, not with
//! the activations it caches.
//!
//! The config is sized so its products split on the blocked kernel's `K`
//! cache block (32 to 64 channels at 3×3 → `K` = 288 … 432 > `KC`, and
//! every unit's weight gradient sums over batch × positions ≥ 512 rows),
//! which is the one thing a product's f32 rounding depends on. Under the
//! first-use autotuner each process picked those splits with a stopwatch,
//! per shape class, and two runs of this config disagreed (6 of 6 tries at
//! the commit before it was deleted); with the one fixed plan they cannot.

use nf_cli::{RunDir, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Writes `name`'s config into `dir`; its `[sweep]` prices the host first.
fn write_config(dir: &Path, name: &str) -> PathBuf {
    let cfg_path = dir.join(format!("{name}.toml"));
    let doc = format!(
        r#"
[run]
name = "{name}"
seed = 31
out_dir = "{}"

[model]
preset = "tiny"
channels = [16, 32, 48, 64]

[dataset]
preset = "quick"
classes = 3
image_hw = 16
train = 24

[train]
budget_mb = 16
batch_limit = 8
epochs_per_block = 2

[sweep]
devices = ["host", "agx-orin"]
budgets_mb = [16, 64]
"#,
        dir.display()
    );
    std::fs::write(&cfg_path, doc).unwrap();
    cfg_path
}

/// Trains `name` in a fresh `nf` process and returns its per-block loss
/// histories as bit patterns.
fn train_in_fresh_process(dir: &Path, name: &str) -> Vec<Vec<u64>> {
    let cfg_path = write_config(dir, name);
    let status = Command::new(env!("CARGO_BIN_EXE_nf"))
        .args(["train", cfg_path.to_str().unwrap(), "--quiet"])
        .status()
        .unwrap();
    assert!(status.success(), "nf train {name} failed: {status}");
    let metrics = RunDir::open(&dir.join(name))
        .unwrap()
        .read_metrics()
        .unwrap();
    let losses = metrics.get("block_losses").and_then(Value::as_array);
    losses
        .expect("block_losses array")
        .iter()
        .map(|block| {
            let epochs = block.as_array().expect("one loss history per block");
            epochs
                .iter()
                .map(|l| l.as_float().expect("a loss").to_bits())
                .collect()
        })
        .collect()
}

#[test]
fn two_fresh_processes_write_the_same_loss_bits() {
    let dir = std::env::temp_dir().join(format!("nf_fresh_bits_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let first = train_in_fresh_process(&dir, "first");
    let second = train_in_fresh_process(&dir, "second");
    assert!(!first.is_empty() && first.iter().all(|block| block.len() == 2));
    assert_eq!(first, second, "loss bits differ between two processes");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_ends_output_quietly() {
    let dir = std::env::temp_dir().join(format!("nf_closed_stdout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = write_config(&dir, "piped");

    for command in ["sweep", "train"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_nf"))
            .args([command, cfg_path.to_str().unwrap()])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // The reader goes before the first line is written.
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let quiet = out.status.success() && !stderr.contains("panicked");
        assert!(quiet, "nf {command}: {}: {stderr}", out.status);
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The peak resident set a fresh `nf train` process records in its
/// `metrics.json`, for a 2-block config on `samples` 64×64 images under
/// cache `codec` (int8 with int8 frozen-block compute).
fn peak_rss_training(dir: &Path, samples: usize, codec: &str) -> i64 {
    let name = format!("slope{samples}{codec}");
    let cfg_path = dir.join(format!("{name}.toml"));
    let doc = format!(
        "[run]\nname = \"{name}\"\nout_dir = \"{}\"\n\n\
         [model]\npreset = \"tiny\"\nchannels = [8, 4]\n\n\
         [dataset]\npreset = \"quick\"\nclasses = 4\nimage_hw = 64\ntrain = {samples}\n\n\
         [train]\nbudget_mb = 2.0\nbatch_limit = 32\nepochs_per_block = 1\n\
         int8_compute = {}\n\n\
         [cache]\ncodec = \"{codec}\"\n",
        dir.display(),
        codec == "int8",
    );
    std::fs::write(&cfg_path, doc).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_nf"))
        .args(["train", cfg_path.to_str().unwrap(), "--quiet"])
        .status()
        .unwrap();
    assert!(status.success(), "nf train {name} failed: {status}");
    let metrics = RunDir::open(&dir.join(&name)).unwrap();
    let metrics = metrics.read_metrics().unwrap();
    let blocks = metrics.get("blocks").and_then(Value::as_array);
    assert_eq!(blocks.map(<[_]>::len), Some(2), "the config plans 2 blocks");
    let rss = metrics.get("peak_rss_bytes").and_then(Value::as_int);
    rss.expect("metrics.json records peak_rss_bytes")
}

#[test]
fn peak_memory_grows_with_the_images_not_the_cached_activations() {
    // The cache streams a batch at a time and exits are measured at the
    // plan's batch, so nothing but the dataset scales with the samples:
    // from 32 to 128 the peak may grow by at most twice the training
    // images' own growth (4.7 MB; the three splits together grow 7 MB).
    // Block 0's cached activations alone grow 2.7× as fast as the images.
    // The same holds for an int8 cache with int8 frozen-block compute,
    // whose whole-block table is found by a range pass over the block
    // rather than by holding the block's f32 output.
    let dir = std::env::temp_dir().join(format!("nf_rss_slope_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for codec in ["f32", "int8"] {
        let growth = peak_rss_training(&dir, 128, codec) - peak_rss_training(&dir, 32, codec);
        let images = (128 - 32) * 3 * 64 * 64 * 4;
        assert!(
            growth <= 2 * images,
            "{codec}: peak grew {growth} B, images {images} B"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
