//! The run-artifact layer: everything a run leaves behind on disk.
//!
//! One run directory per run, `<out_dir>/<name>/`:
//!
//! | artifact | contents |
//! |---|---|
//! | `config.toml` | resolved config snapshot (re-parses to an identical [`crate::config::RunConfig`]) |
//! | `metrics.json` | final metrics (written once, atomically, at the end — its presence marks a *completed* run) |
//! | `checkpoint.nfck` | model + optimizer + progress snapshot, rewritten after every block ([`neuroflux_core::checkpoint`]) |
//! | `cache/` | the Worker's on-disk activation cache ([`neuroflux_core::DiskStore`]); drained on completion |
//!
//! `nf train --resume` needs exactly `config.toml` + `checkpoint.nfck` +
//! `cache/` — which is precisely what an interrupted run leaves.

use crate::error::{CliError, Result};
use nf_value::Value;
use std::path::{Path, PathBuf};

/// Handle to one `runs/<name>/` directory.
#[derive(Debug, Clone)]
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    /// Creates (or opens) the run directory `<out_dir>/<name>`.
    pub fn create(out_dir: &str, name: &str) -> Result<RunDir> {
        let root = Path::new(out_dir).join(name);
        std::fs::create_dir_all(&root)
            .map_err(|e| CliError::new(format!("creating {}: {e}", root.display())))?;
        Ok(RunDir { root })
    }

    /// Opens an existing run directory (for `nf inspect`).
    pub fn open(path: &Path) -> Result<RunDir> {
        if !path.is_dir() {
            return Err(CliError::new(format!(
                "{} is not a run directory",
                path.display()
            )));
        }
        Ok(RunDir {
            root: path.to_path_buf(),
        })
    }

    /// The run directory itself.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the resolved-config snapshot.
    pub fn config_path(&self) -> PathBuf {
        self.root.join("config.toml")
    }

    /// Path of the final metrics document.
    pub fn metrics_path(&self) -> PathBuf {
        self.root.join("metrics.json")
    }

    /// Path of the training checkpoint.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.root.join("checkpoint.nfck")
    }

    /// Directory of the on-disk activation cache.
    pub fn cache_dir(&self) -> PathBuf {
        self.root.join("cache")
    }

    /// Whether the run already completed (metrics were written).
    pub fn is_complete(&self) -> bool {
        self.metrics_path().is_file()
    }

    /// Whether the run has a checkpoint to resume from.
    pub fn is_resumable(&self) -> bool {
        self.checkpoint_path().is_file()
    }

    /// Writes the resolved-config snapshot.
    pub fn write_config(&self, config: &crate::config::RunConfig) -> Result<()> {
        let path = self.config_path();
        std::fs::write(&path, config.to_value().to_toml()?)
            .map_err(|e| CliError::new(format!("writing {}: {e}", path.display())))
    }

    /// Reads the config snapshot back.
    pub fn read_config(&self) -> Result<crate::config::RunConfig> {
        crate::config::RunConfig::load(&self.config_path())
    }

    /// Writes `metrics.json` atomically (temp + rename): a crash mid-write
    /// never leaves a half-written completion marker.
    pub fn write_metrics(&self, metrics: &Value) -> Result<()> {
        let path = self.metrics_path();
        let tmp = self.root.join("metrics.json.tmp");
        std::fs::write(&tmp, metrics.to_json())
            .map_err(|e| CliError::new(format!("writing {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| CliError::new(format!("renaming to {}: {e}", path.display())))
    }

    /// Reads `metrics.json` back.
    pub fn read_metrics(&self) -> Result<Value> {
        crate::config::read_file(&self.metrics_path(), nf_value::json::parse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_paths_and_metrics_round_trip() {
        let base = std::env::temp_dir().join(format!("nf_rundir_test_{}", std::process::id()));
        let out_dir = base.to_string_lossy().to_string();
        let rd = RunDir::create(&out_dir, "demo").unwrap();
        assert!(!rd.is_complete());
        assert!(!rd.is_resumable());

        let mut metrics = nf_value::Table::new();
        metrics.insert("kind", Value::Str("train".into()));
        metrics.insert("test_accuracy", Value::Float(0.75));
        let metrics = metrics.build();
        rd.write_metrics(&metrics).unwrap();
        assert!(rd.is_complete());
        assert_eq!(rd.read_metrics().unwrap(), metrics);

        let reopened = RunDir::open(rd.root()).unwrap();
        assert!(reopened.is_complete());
        assert!(RunDir::open(&rd.root().join("missing")).is_err());
        std::fs::remove_dir_all(&base).ok();
    }
}
