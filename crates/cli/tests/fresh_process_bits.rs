//! Reproducibility across processes, on what users run: two fresh
//! `nf train` processes on the same config — default kernel backend, no
//! pin — must write the same `block_losses` bits.
//!
//! The config is sized so its products split on the blocked kernel's `K`
//! cache block (32 to 64 channels at 3×3 → `K` = 288 … 432 > `KC`, and
//! every unit's weight gradient sums over batch × positions ≥ 512 rows),
//! which is the one thing a product's f32 rounding depends on. Under the
//! first-use autotuner each process picked those splits with a stopwatch,
//! per shape class, and two runs of this config disagreed (6 of 6 tries at
//! the commit before it was deleted); with the one fixed plan they cannot.

use nf_cli::{RunDir, Value};
use std::process::Command;

/// Trains `name` in a fresh `nf` process and returns its per-block loss
/// histories as bit patterns.
fn train_in_fresh_process(dir: &std::path::Path, name: &str) -> Vec<Vec<u64>> {
    let cfg_path = dir.join(format!("{name}.toml"));
    std::fs::write(
        &cfg_path,
        format!(
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
"#,
            dir.display()
        ),
    )
    .unwrap();
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
