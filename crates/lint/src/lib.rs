//! `nf-lint`: the workspace invariant checker.
//!
//! Statically enforces the contracts the rest of the workspace only
//! checks dynamically: zero allocation in tensor kernels and `*_into`
//! bodies (PR 3's counting-allocator tests), panic-freedom in the
//! serve/proto/loadgen layer (PR 7), `unsafe` confined to the two SIMD
//! modules with `// SAFETY:` comments, wall-clock/sleep discipline
//! outside `Clock` impls (PR 8's idle-CPU test), `HashMap`-free code
//! where bit-identity is pinned, and crate-root lint hygiene.
//!
//! Depends only on `nf-value`, which depends on nothing: a hand-rolled
//! lexer ([`lexer`]) and the workspace's one TOML reader and JSON writer
//! (read into [`config`], rendered by [`report`]) mean the checker builds
//! wherever the toolchain does and is never skewed by the code it checks.
//! Driven by the committed `lint.toml`, whose every `[[allow]]` entry must
//! carry a justification string; an allow that suppresses nothing, or a
//! scope path that matches no scanned file, fails the run like a finding.
//!
//! This crate uses `BTreeMap`-style ordering throughout its own output:
//! findings sort by (file, line, rule), so runs are byte-identical.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod config;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

pub use config::{ConfigError, LintConfig};
pub use engine::{run, workspace_files, EngineError, RunResult};
pub use report::{render_human, render_json};
pub use rules::{Finding, Rule};

use std::path::Path;

/// Loads `lint.toml` from `root` and lints the workspace beneath it.
///
/// What the `nf-lint` binary runs; exit-code policy stays with it.
pub fn lint_workspace(root: &Path) -> Result<RunResult, String> {
    let cfg_path = root.join("lint.toml");
    let text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = config::parse(&text).map_err(|e| format!("{}: {e}", cfg_path.display()))?;
    engine::run(root, &cfg).map_err(|e| e.to_string())
}
