//! Fixture-based rule tests: every rule has at least one fixture that
//! must fire and one that must stay clean, plus a lexer stress fixture
//! where every trigger token appears only inside strings/comments and
//! must produce zero findings.
//!
//! Fixtures live in `tests/fixtures/` as real `.rs` sources but are
//! lexed as data here — the workspace walker skips `tests/` directories,
//! so the deliberate violations never reach a real `nf-lint` run.

use nf_lint::config::{self, LintConfig};
use nf_lint::engine::{self, check_source};
use nf_lint::rules::Rule;
use nf_lint::RunResult;
use std::path::Path;

/// Reads one fixture file from `tests/fixtures/`.
fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// A config with every rule scoped over the whole workspace, kernel and
/// `*_into` policing over crates/tensor, and the two SIMD modules
/// declared via `[[unsafe-module]]` — mirroring the committed lint.toml
/// shape without its allow entries.
fn all_rules_config() -> LintConfig {
    config::parse(
        r#"
[rules.hot-path-alloc]
paths = ["crates/tensor/src/"]
kernel_paths = ["crates/tensor/src/kernels/"]
into_paths = ["crates/tensor/src/"]

[rules.no-panic]
paths = ["crates/", "src/"]

[rules.unsafe-confinement]
paths = ["crates/", "src/"]

[[unsafe-module]]
path = "kernels/simd.rs"
justification = "fixture: SIMD intrinsics"

[[unsafe-module]]
path = "kernels/simd_int8.rs"
justification = "fixture: SIMD intrinsics"

[rules.clock-discipline]
paths = ["crates/", "src/"]

[rules.determinism]
paths = ["crates/", "src/"]

[rules.lint-hygiene]
paths = ["crates/", "src/"]
"#,
    )
    .expect("test config parses")
}

/// Findings for `name` linted as if it lived at `path`, filtered to one
/// rule.
fn findings_for(name: &str, path: &str, rule: Rule) -> Vec<nf_lint::Finding> {
    let cfg = all_rules_config();
    check_source(path, &fixture(name), &cfg)
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

#[test]
fn hot_path_alloc_fires_in_kernel_modules() {
    let hits = findings_for(
        "hot_path_alloc_fire.rs",
        "crates/tensor/src/kernels/fixture.rs",
        Rule::HotPathAlloc,
    );
    // Vec::new, .to_vec, vec![, .collect, .clone — all five constructs.
    assert!(hits.len() >= 5, "expected >=5 alloc findings, got {hits:?}");
}

#[test]
fn hot_path_alloc_stays_clean_when_allocs_are_test_only() {
    let hits = findings_for(
        "hot_path_alloc_clean.rs",
        "crates/tensor/src/kernels/fixture.rs",
        Rule::HotPathAlloc,
    );
    assert!(hits.is_empty(), "unexpected findings: {hits:?}");
}

#[test]
fn hot_path_alloc_polices_into_fns_outside_kernels() {
    // Same firing fixture, but at a non-kernel tensor path: only the
    // allocations inside `gemm_into`'s body may fire.
    let hits = findings_for(
        "hot_path_alloc_fire.rs",
        "crates/tensor/src/fixture.rs",
        Rule::HotPathAlloc,
    );
    assert!(!hits.is_empty(), "gemm_into body should fire");
    assert!(
        hits.iter().all(|f| f.func.as_deref() == Some("gemm_into")),
        "only *_into bodies may fire outside kernels: {hits:?}"
    );
}

#[test]
fn no_panic_fires_on_all_constructs() {
    let hits = findings_for("no_panic_fire.rs", "crates/cli/src/serve.rs", Rule::NoPanic);
    // unwrap, expect, indexing, panic!, unreachable!, todo!.
    assert!(hits.len() >= 6, "expected >=6 findings, got {hits:?}");
}

#[test]
fn no_panic_stays_clean_on_typed_lookups() {
    let hits = findings_for(
        "no_panic_clean.rs",
        "crates/cli/src/serve.rs",
        Rule::NoPanic,
    );
    assert!(hits.is_empty(), "unexpected findings: {hits:?}");
}

#[test]
fn unsafe_fires_without_safety_comment_in_simd() {
    let hits = findings_for(
        "unsafe_fire.rs",
        "crates/tensor/src/kernels/simd.rs",
        Rule::UnsafeConfinement,
    );
    assert_eq!(hits.len(), 1, "one undocumented unsafe block: {hits:?}");
    assert!(hits[0].help.contains("SAFETY"));
}

#[test]
fn unsafe_fires_outside_allowed_modules_even_with_comment() {
    let hits = findings_for(
        "unsafe_clean.rs",
        "crates/core/src/anywhere.rs",
        Rule::UnsafeConfinement,
    );
    assert_eq!(hits.len(), 1, "confinement must fire elsewhere: {hits:?}");
    assert!(hits[0].help.contains("confined"));
}

#[test]
fn unsafe_stays_clean_with_safety_comment_in_simd() {
    let hits = findings_for(
        "unsafe_clean.rs",
        "crates/tensor/src/kernels/simd.rs",
        Rule::UnsafeConfinement,
    );
    assert!(hits.is_empty(), "unexpected findings: {hits:?}");
}

#[test]
fn unsafe_module_declaration_admits_new_modules() {
    // The same source fires at an undeclared path and stays clean once
    // the path is declared via [[unsafe-module]] with a justification —
    // the committed lint.toml uses exactly this to admit net/sys.rs.
    let bare = config::parse("[rules.unsafe-confinement]\npaths = [\"crates/\"]\n")
        .expect("config parses");
    let hits = check_source(
        "crates/cli/src/net/sys.rs",
        &fixture("unsafe_clean.rs"),
        &bare,
    );
    assert_eq!(hits.len(), 1, "undeclared module must fire: {hits:?}");
    assert!(hits[0].help.contains("confined"));

    let declared = config::parse(
        r#"
[rules.unsafe-confinement]
paths = ["crates/"]

[[unsafe-module]]
path = "crates/cli/src/net/sys.rs"
justification = "fixture: raw epoll bindings"
"#,
    )
    .expect("config parses");
    let hits = check_source(
        "crates/cli/src/net/sys.rs",
        &fixture("unsafe_clean.rs"),
        &declared,
    );
    assert!(hits.is_empty(), "declared module must be clean: {hits:?}");
}

#[test]
fn unsafe_module_justification_is_mandatory() {
    let err = config::parse("[[unsafe-module]]\npath = \"x.rs\"\n").unwrap_err();
    assert!(err.to_string().contains("justification"), "{err:?}");
}

#[test]
fn clock_fires_on_wall_time_and_sleep() {
    let hits = findings_for(
        "clock_fire.rs",
        "crates/core/src/fixture.rs",
        Rule::ClockDiscipline,
    );
    assert!(hits.len() >= 3, "Instant/SystemTime/sleep: {hits:?}");
}

#[test]
fn clock_stays_clean_inside_clock_impls() {
    let hits = findings_for(
        "clock_clean.rs",
        "crates/core/src/fixture.rs",
        Rule::ClockDiscipline,
    );
    assert!(hits.is_empty(), "unexpected findings: {hits:?}");
}

#[test]
fn determinism_fires_on_hash_containers() {
    let hits = findings_for(
        "determinism_fire.rs",
        "crates/core/src/fixture.rs",
        Rule::Determinism,
    );
    assert!(hits.len() >= 2, "HashMap and HashSet: {hits:?}");
}

#[test]
fn determinism_stays_clean_with_ordered_containers() {
    let hits = findings_for(
        "determinism_clean.rs",
        "crates/core/src/fixture.rs",
        Rule::Determinism,
    );
    assert!(hits.is_empty(), "unexpected findings: {hits:?}");
}

#[test]
fn hygiene_fires_on_missing_gates() {
    let hits = findings_for(
        "hygiene_fire.rs",
        "crates/fixture/src/lib.rs",
        Rule::LintHygiene,
    );
    assert_eq!(hits.len(), 2, "missing docs gate + unsafe gate: {hits:?}");
}

#[test]
fn hygiene_stays_clean_with_both_gates() {
    let hits = findings_for(
        "hygiene_clean.rs",
        "crates/fixture/src/lib.rs",
        Rule::LintHygiene,
    );
    assert!(hits.is_empty(), "unexpected findings: {hits:?}");
}

#[test]
fn hygiene_ignores_non_crate_roots() {
    let hits = findings_for(
        "hygiene_fire.rs",
        "crates/fixture/src/module.rs",
        Rule::LintHygiene,
    );
    assert!(hits.is_empty(), "non-roots are out of scope: {hits:?}");
}

#[test]
fn lexer_edges_produce_zero_findings_under_every_rule() {
    // The harshest path possible: a kernel module (alloc scope), with
    // every other rule also in scope. All trigger tokens in the fixture
    // sit inside strings/comments/char literals — nothing may fire.
    let cfg = all_rules_config();
    let hits = check_source(
        "crates/tensor/src/kernels/fixture.rs",
        &fixture("lexer_edges.rs"),
        &cfg,
    );
    assert!(hits.is_empty(), "lexer leaked tokens: {hits:?}");
}

#[test]
fn allowlist_suppresses_and_requires_justification() {
    // An allow with a pattern suppresses the matching finding only.
    let cfg = config::parse(
        r#"
[rules.determinism]
paths = ["crates/"]

[[allow]]
rule = "determinism"
path = "crates/core/src/fixture.rs"
pattern = "HashSet"
justification = "fixture: never iterated"
"#,
    )
    .expect("config parses");
    let all = check_source(
        "crates/core/src/fixture.rs",
        &fixture("determinism_fire.rs"),
        &cfg,
    );
    // check_source applies rules only; the engine applies allows. Verify
    // the allow machinery end-to-end via the matcher instead.
    assert!(all.iter().any(|f| f.excerpt.contains("HashSet")));

    // And a missing justification is a hard config error.
    let err = config::parse("[[allow]]\nrule = \"determinism\"\npath = \"x.rs\"\n").unwrap_err();
    assert!(err.to_string().contains("justification"), "{err:?}");
}

/// A clean config for the tree [`lint_tree`] writes: every scope entry
/// matches a file and nothing fires.
const TREE_CONFIG: &str = r#"
[rules.hot-path-alloc]
paths = ["crates/demo/src/"]
kernel_paths = ["crates/demo/src/kernels/"]
into_paths = ["crates/demo/src/"]

[rules.lint-hygiene]
paths = ["crates/"]
exclude = ["crates/demo/src/kernels/"]

[[unsafe-module]]
path = "kernels/simd.rs"
justification = "fixture: SIMD intrinsics"
"#;

/// Lints a two-file workspace (`crates/demo/src/{lib,kernels/simd}.rs`)
/// written under a fresh temp dir named after `tag`, against `toml`.
fn lint_tree(tag: &str, toml: &str) -> RunResult {
    let root = std::env::temp_dir().join(format!("nf_lint_{tag}_{}", std::process::id()));
    let kernels = root.join("crates/demo/src/kernels");
    std::fs::create_dir_all(&kernels).unwrap();
    let lib = "//! Demo.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n";
    std::fs::write(root.join("crates/demo/src/lib.rs"), lib).unwrap();
    std::fs::write(kernels.join("simd.rs"), "//! Kernels.\n").unwrap();
    let result = engine::run(&root, &config::parse(toml).unwrap()).unwrap();
    std::fs::remove_dir_all(&root).ok();
    result
}

/// [`TREE_CONFIG`] with the path in its `entry` line pointed at nothing
/// reports exactly that path, at `key`, in both renderings, and fails.
fn assert_stale(entry: &str, key: &str) {
    let gone = entry.replace("demo/src", "gone").replace("simd", "gone");
    let result = lint_tree(key, &TREE_CONFIG.replacen(entry, &gone, 1));
    let stale = gone.split('"').nth(1).unwrap().to_string();
    assert_eq!(result.stale_paths, [(key.to_string(), stale.clone())]);
    assert!(!result.is_clean());
    assert!(nf_lint::render_human(&result).contains(&format!("stale: {key} entry {stale:?}")));
    assert!(nf_lint::render_json(&result).contains(&format!("\"key\": \"{key}\"")));
}

#[test]
fn stale_rule_paths_fail_the_run() {
    assert_stale(
        r#"paths = ["crates/demo/src/"]"#,
        "rules.hot-path-alloc.paths",
    );
}

#[test]
fn stale_exclude_fails_the_run() {
    assert_stale(
        r#"exclude = ["crates/demo/src/kernels/"]"#,
        "rules.lint-hygiene.exclude",
    );
}

#[test]
fn stale_kernel_paths_fail_the_run() {
    assert_stale(
        r#"kernel_paths = ["crates/demo/src/kernels/"]"#,
        "rules.hot-path-alloc.kernel_paths",
    );
}

#[test]
fn stale_into_paths_fail_the_run() {
    assert_stale(
        r#"into_paths = ["crates/demo/src/"]"#,
        "rules.hot-path-alloc.into_paths",
    );
}

#[test]
fn stale_unsafe_module_path_fails_the_run() {
    assert_stale(r#"path = "kernels/simd.rs""#, "[[unsafe-module]] #1 path");
}

#[test]
fn unused_allow_is_reported_by_position_and_fails_the_run() {
    let allow = "[[allow]]\nrule = \"lint-hygiene\"\npath = \"crates/demo/src/lib.rs\"\n\
                 justification = \"fixture: matches nothing\"\n";
    let result = lint_tree("unused", &format!("{TREE_CONFIG}{allow}"));
    assert_eq!(
        result.unused_allows.iter().map(|u| u.0).collect::<Vec<_>>(),
        [1]
    );
    assert!(!result.is_clean());
    let human = nf_lint::render_human(&result);
    assert!(human.contains("[[allow]] #1 (rule=lint-hygiene path=crates/demo/src/lib.rs)"));
    assert!(nf_lint::render_json(&result).contains("\"allow\": 1"));
}

/// The committed `lint.toml` as the line-based parser read it at the
/// previous commit, minus the four allows deleted since (a `Vec::new` in
/// `kernels/blocked.rs`, three `determinism` `HashMap`s) and with
/// `no-panic`'s `cli/src/{toml,json,value}.rs` now `crates/value/src/`.
const COMMITTED: &str = r#"hot-path-alloc ["crates/tensor/src/", "crates/nn/src/"] -[]
no-panic ["crates/cli/src/serve.rs", "crates/cli/src/proto.rs", "crates/cli/src/loadgen.rs", "crates/cli/src/net/sys.rs", "crates/cli/src/net/reactor.rs", "crates/core/src/serve.rs", "crates/cli/src/config.rs", "crates/cli/src/schema.rs", "crates/value/src/"] -[]
unsafe-confinement ["crates/", "src/"] -[]
clock-discipline ["crates/", "src/"] -["crates/bench/"]
determinism ["crates/core/src/", "crates/nn/src/", "crates/cli/src/"] -[]
lint-hygiene ["crates/", "src/"] -[]
kernel_paths ["crates/tensor/src/kernels/"]
into_paths ["crates/tensor/src/", "crates/nn/src/"]
unsafe-module kernels/simd.rs
unsafe-module kernels/simd_int8.rs
unsafe-module crates/cli/src/net/sys.rs
allow lint-hygiene crates/tensor/src/lib.rs None
allow lint-hygiene crates/cli/src/lib.rs None
allow hot-path-alloc crates/tensor/src/conv.rs Some("lhs:")
allow hot-path-alloc crates/tensor/src/conv.rs Some("rhs:")
allow hot-path-alloc crates/tensor/src/matmul.rs Some("lhs:")
allow hot-path-alloc crates/tensor/src/matmul.rs Some("rhs:")
allow hot-path-alloc crates/tensor/src/quant.rs Some("index: vec!")
allow hot-path-alloc crates/tensor/src/quant.rs Some("self.shape.clone()")
allow clock-discipline crates/cli/src/loadgen.rs Some("Instant::now")
"#;

#[test]
fn committed_lint_toml_is_the_previous_config_minus_four_allows() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../lint.toml"));
    let cfg = config::parse(&text.unwrap()).unwrap();
    let mut read = String::new();
    for rule in Rule::ALL {
        let scope = cfg.scope(rule);
        assert!(scope.enabled, "{rule:?}");
        let (name, paths, exclude) = (rule.name(), &scope.paths, &scope.exclude);
        read += &format!("{name} {paths:?} -{exclude:?}\n");
    }
    read += &format!(
        "kernel_paths {:?}\ninto_paths {:?}\n",
        cfg.kernel_paths, cfg.into_paths
    );
    for m in &cfg.unsafe_modules {
        read += &format!("unsafe-module {}\n", m.path);
    }
    for a in &cfg.allows {
        read += &format!("allow {} {} {:?}\n", a.rule.name(), a.path, a.pattern);
        assert!(a.func.is_none() && !a.justification.is_empty());
    }
    assert_eq!(read, COMMITTED);
}
