//! Rendering: machine-readable JSON and human-readable text.
//!
//! The JSON report is an `nf-value` document rendered by
//! [`Value::to_json`], the same writer `nf` uses for `metrics.json`.

use crate::engine::RunResult;
use nf_value::{Table, Value};
use std::fmt::Write as _;

/// Renders the run as a single JSON object.
pub fn render_json(result: &RunResult) -> String {
    let count = |n: usize| Value::Int(i64::try_from(n).unwrap_or(i64::MAX));
    let text = |s: &str| Value::Str(s.to_string());
    let row = |pairs: Vec<(&str, Value)>| {
        let mut row = Table::new();
        for (key, value) in pairs {
            row.insert(key, value);
        }
        row.build()
    };
    let unused = result.unused_allows.iter().map(|(k, a)| {
        row(vec![
            ("allow", count(*k)),
            ("rule", text(a.rule.name())),
            ("path", text(&a.path)),
        ])
    });
    let stale = result
        .stale_paths
        .iter()
        .map(|(key, entry)| row(vec![("key", text(key)), ("entry", text(entry))]));
    let findings = result.findings.iter().map(|f| {
        row(vec![
            ("rule", text(f.rule.name())),
            ("file", text(&f.file)),
            ("line", count(f.line)),
            ("fn", f.func.as_deref().map_or(Value::Null, text)),
            ("excerpt", text(&f.excerpt)),
            ("help", text(&f.help)),
        ])
    });
    row(vec![
        ("tool", text("nf-lint")),
        ("files_scanned", count(result.files_scanned)),
        ("allows_used", count(result.allows_used)),
        ("unused_allows", Value::Array(unused.collect())),
        ("stale_paths", Value::Array(stale.collect())),
        ("findings", Value::Array(findings.collect())),
    ])
    .to_json()
}

/// Renders the run as human-readable text.
pub fn render_human(result: &RunResult) -> String {
    let mut out = String::new();
    for f in &result.findings {
        let _ = writeln!(out, "{}: {}:{}", f.rule.name(), f.file, f.line);
        if !f.excerpt.is_empty() {
            let _ = writeln!(out, "    | {}", f.excerpt);
        }
        let _ = writeln!(out, "    = help: {}", f.help);
    }
    for (k, a) in &result.unused_allows {
        let (rule, path) = (a.rule.name(), &a.path);
        let _ = writeln!(
            out,
            "unused: [[allow]] #{k} (rule={rule} path={path}) matches no finding"
        );
    }
    for (key, entry) in &result.stale_paths {
        let _ = writeln!(out, "stale: {key} entry {entry:?} matches no scanned file");
    }
    let _ = writeln!(
        out,
        "{} file(s) scanned, {} finding(s), {} allow(s) used, {} unused allow(s), {} stale path(s)",
        result.files_scanned,
        result.findings.len(),
        result.allows_used,
        result.unused_allows.len(),
        result.stale_paths.len()
    );
    out
}
