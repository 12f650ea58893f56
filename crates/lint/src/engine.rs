//! The drive loop: walk the workspace, lex + analyze + check each file,
//! then filter findings through the justified allowlist, and report the
//! config entries that no longer match anything.

use crate::analysis::analyze;
use crate::config::{AllowEntry, LintConfig};
use crate::lexer::lex;
use crate::rules::{check_file, FileContext, Finding};
use std::fs;
use std::path::{Path, PathBuf};

/// A fatal tool error (I/O, config) — distinct from findings.
#[derive(Debug)]
pub struct EngineError(pub String);

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Directory names never descended into: build output, vendored stubs,
/// integration tests (fixtures contain deliberate violations; test code
/// is exempt by contract), and bench harnesses.
const SKIP_DIRS: [&str; 8] = [
    "target", "vendor", ".git", "tests", "benches", "fixtures", "runs", ".github",
];

/// Recursively collects `.rs` files under `dir`, skipping [`SKIP_DIRS`].
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), EngineError> {
    let entries =
        fs::read_dir(dir).map_err(|e| EngineError(format!("read_dir {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| EngineError(format!("walk {}: {e}", dir.display())))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lists the workspace `.rs` files to lint, as sorted relative paths
/// with forward slashes. Only `src/` and `crates/*/src/**` are scanned —
/// the scopes in lint.toml all live under those roots.
pub fn workspace_files(root: &Path) -> Result<Vec<String>, EngineError> {
    let mut abs = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut abs)?;
        }
    }
    let mut rel: Vec<String> = abs
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| {
            p.components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        // Within crates/, only src/ trees (skip build.rs, examples/).
        .filter(|p| p.starts_with("src/") || p.contains("/src/"))
        .collect();
    rel.sort();
    Ok(rel)
}

/// The outcome of one lint run.
pub struct RunResult {
    /// Findings that survived the allowlist, sorted (file, line, rule).
    pub findings: Vec<Finding>,
    /// How many findings were suppressed by allows.
    pub allows_used: usize,
    /// Allow entries that matched nothing — stale suppressions rot — with
    /// their 1-based position among the `[[allow]]` entries.
    pub unused_allows: Vec<(usize, AllowEntry)>,
    /// Scope entries that match no scanned file, as (where the entry sits,
    /// e.g. `rules.no-panic.paths`, the entry): a moved file would
    /// otherwise leave its rule silently covering nothing.
    pub stale_paths: Vec<(String, String)>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

impl RunResult {
    /// No findings, no unused allows, no stale scope paths: exit 0.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.unused_allows.is_empty() && self.stale_paths.is_empty()
    }
}

/// Every scope entry in `cfg` that matches none of `files`: path lists
/// match by prefix, `[[unsafe-module]]` paths by suffix.
fn stale_paths(cfg: &LintConfig, files: &[String]) -> Vec<(String, String)> {
    let mut stale = Vec::new();
    let prefix: fn(&str, &str) -> bool = |file, entry| file.starts_with(entry);
    let suffix: fn(&str, &str) -> bool = |file, entry| file.ends_with(entry);
    let mut check = |key: String, entries: &[String], hit: fn(&str, &str) -> bool| {
        for entry in entries {
            if !files.iter().any(|file| hit(file, entry)) {
                stale.push((key.clone(), entry.clone()));
            }
        }
    };
    for rule in crate::rules::Rule::ALL {
        let scope = cfg.scope(rule);
        let key = |list: &str| format!("rules.{}.{list}", rule.name());
        check(key("paths"), &scope.paths, prefix);
        check(key("exclude"), &scope.exclude, prefix);
    }
    let hot = "rules.hot-path-alloc";
    check(format!("{hot}.kernel_paths"), &cfg.kernel_paths, prefix);
    check(format!("{hot}.into_paths"), &cfg.into_paths, prefix);
    for (k, m) in cfg.unsafe_modules.iter().enumerate() {
        let key = format!("[[unsafe-module]] #{} path", k + 1);
        check(key, std::slice::from_ref(&m.path), suffix);
    }
    stale
}

fn allow_matches(allow: &AllowEntry, f: &Finding) -> bool {
    allow.rule == f.rule
        && f.file.starts_with(allow.path.as_str())
        && allow
            .pattern
            .as_deref()
            .map(|p| f.excerpt.contains(p))
            .unwrap_or(true)
        && allow
            .func
            .as_deref()
            .map(|want| f.func.as_deref() == Some(want))
            .unwrap_or(true)
}

/// Lints every workspace file under `root` against `cfg`.
pub fn run(root: &Path, cfg: &LintConfig) -> Result<RunResult, EngineError> {
    let files = workspace_files(root)?;
    let files_scanned = files.len();
    let mut raw: Vec<Finding> = Vec::new();
    for rel in &files {
        // Skip files no enabled rule scopes to — saves lexing most files.
        let in_any_scope = crate::rules::Rule::ALL
            .into_iter()
            .any(|r| cfg.scope(r).contains(rel))
            || cfg.kernel_paths.iter().any(|p| rel.starts_with(p.as_str()))
            || cfg.into_paths.iter().any(|p| rel.starts_with(p.as_str()));
        if !in_any_scope {
            continue;
        }
        let abs = root.join(rel.replace('/', std::path::MAIN_SEPARATOR_STR));
        let src = fs::read_to_string(&abs)
            .map_err(|e| EngineError(format!("read {}: {e}", abs.display())))?;
        raw.extend(check_source(rel, &src, cfg));
    }

    let mut used = vec![false; cfg.allows.len()];
    let mut findings: Vec<Finding> = Vec::new();
    let mut allows_used = 0usize;
    for f in raw {
        let mut suppressed = false;
        for (k, allow) in cfg.allows.iter().enumerate() {
            if allow_matches(allow, &f) {
                used[k] = true;
                suppressed = true;
                allows_used += 1;
                break;
            }
        }
        if !suppressed {
            findings.push(f);
        }
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    let unused_allows = cfg
        .allows
        .iter()
        .zip(used)
        .enumerate()
        .filter(|(_, (_, u))| !u)
        .map(|(k, (a, _))| (k + 1, a.clone()))
        .collect();
    Ok(RunResult {
        findings,
        allows_used,
        unused_allows,
        stale_paths: stale_paths(cfg, &files),
        files_scanned,
    })
}

/// Lints a single source string as if it were at `path`. Public so the
/// fixture tests can drive rules without a filesystem walk.
pub fn check_source(path: &str, src: &str, cfg: &LintConfig) -> Vec<Finding> {
    let lexed = lex(src);
    let analysis = analyze(&lexed);
    let lines: Vec<&str> = src.lines().collect();
    let ctx = FileContext {
        path,
        lines: &lines,
        lexed: &lexed,
        analysis: &analysis,
    };
    check_file(&ctx, cfg)
}
