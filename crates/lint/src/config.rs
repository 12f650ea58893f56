//! Typed lint configuration, read out of the committed `lint.toml`.
//!
//! `nf-value`'s TOML reader parses the text; this module extracts the
//! typed [`LintConfig`] from the document and rejects anything it does
//! not name. Unknown rule names, sections and keys are errors: a typo in
//! `lint.toml` must not silently disable a rule.

use crate::rules::Rule;
use nf_value::{join, Value};

/// A syntax error in `lint.toml` (with its line), or a typed error at a
/// key path (`rules.no-panic.paths`, `[[allow]] #3`).
pub type ConfigError = nf_value::Error;

/// Path scope shared by every rule: where it runs and where it doesn't.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Rule is skipped entirely when false.
    pub enabled: bool,
    /// Path prefixes (relative, forward slashes) the rule applies to.
    pub paths: Vec<String>,
    /// Path prefixes carved back out of `paths`.
    pub exclude: Vec<String>,
}

impl Scope {
    /// Whether `path` (relative, forward slashes) is inside this scope.
    pub fn contains(&self, path: &str) -> bool {
        self.enabled
            && self.paths.iter().any(|p| path.starts_with(p.as_str()))
            && !self.exclude.iter().any(|p| path.starts_with(p.as_str()))
    }
}

/// One `[[allow]]` entry: a justified, narrowly-scoped suppression.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Which rule the entry suppresses.
    pub rule: Rule,
    /// Path prefix the suppression applies to.
    pub path: String,
    /// Optional substring that must appear in the finding's source line.
    pub pattern: Option<String>,
    /// Optional enclosing-function name the finding must sit in.
    pub func: Option<String>,
    /// Mandatory human explanation; the tool refuses empty ones.
    pub justification: String,
}

/// One `[[unsafe-module]]` entry: a file where `unsafe` is permitted
/// (every use still needs a SAFETY comment), with a mandatory
/// justification for why this module gets the exemption at all.
#[derive(Debug, Clone)]
pub struct UnsafeModule {
    /// Path suffix (relative, forward slashes) of the exempted module.
    pub path: String,
    /// Mandatory human explanation; the tool refuses empty ones.
    pub justification: String,
}

/// The full typed configuration.
#[derive(Debug, Default)]
pub struct LintConfig {
    /// Scope for `hot-path-alloc` plus its rule-specific path lists.
    pub hot_path_alloc: Scope,
    /// Kernel modules where all allocation is forbidden.
    pub kernel_paths: Vec<String>,
    /// Paths where `*_into` function bodies are additionally policed.
    pub into_paths: Vec<String>,
    /// Scope for `no-panic`.
    pub no_panic: Scope,
    /// Scope for `unsafe-confinement`.
    pub unsafe_confinement: Scope,
    /// Modules where `unsafe` is permitted, each with a justification.
    pub unsafe_modules: Vec<UnsafeModule>,
    /// Scope for `clock-discipline`.
    pub clock_discipline: Scope,
    /// Scope for `determinism`.
    pub determinism: Scope,
    /// Scope for `lint-hygiene`.
    pub lint_hygiene: Scope,
    /// All `[[allow]]` entries in file order.
    pub allows: Vec<AllowEntry>,
}

impl LintConfig {
    /// The scope for a given rule.
    pub fn scope(&self, rule: Rule) -> &Scope {
        match rule {
            Rule::HotPathAlloc => &self.hot_path_alloc,
            Rule::NoPanic => &self.no_panic,
            Rule::UnsafeConfinement => &self.unsafe_confinement,
            Rule::ClockDiscipline => &self.clock_discipline,
            Rule::Determinism => &self.determinism,
            Rule::LintHygiene => &self.lint_hygiene,
        }
    }
}

/// Parses `lint.toml` text into a validated [`LintConfig`].
pub fn parse(text: &str) -> Result<LintConfig, ConfigError> {
    from_value(&nf_value::toml::parse(text)?)
}

/// Reads a validated [`LintConfig`] out of a parsed document.
pub fn from_value(doc: &Value) -> Result<LintConfig, ConfigError> {
    let mut cfg = LintConfig::default();
    for (section, v) in entries(doc, "")? {
        match section.as_str() {
            "rules" => {
                for (name, table) in entries(v, "rules")? {
                    let path = join("rules", name);
                    let rule = Rule::from_name(name).ok_or_else(|| unknown_rule(&path, name))?;
                    read_rule(&mut cfg, rule, table, &path)?;
                }
            }
            "allow" => {
                for (at, entry) in numbered(v, "allow")? {
                    let keys = ["rule", "path", "pattern", "fn", "justification"];
                    let [rule, path, pattern, func, why] = fields(entry, &at, keys)?;
                    let rule = required(&at, "rule", rule)?;
                    cfg.allows.push(AllowEntry {
                        rule: Rule::from_name(&rule).ok_or_else(|| unknown_rule(&at, &rule))?,
                        path: required(&at, "path", path)?,
                        pattern,
                        func,
                        justification: justified(&at, why, "suppression")?,
                    });
                }
            }
            "unsafe-module" => {
                for (at, entry) in numbered(v, "unsafe-module")? {
                    let [path, why] = fields(entry, &at, ["path", "justification"])?;
                    cfg.unsafe_modules.push(UnsafeModule {
                        path: required(&at, "path", path)?,
                        justification: justified(&at, why, "unsafe exemption")?,
                    });
                }
            }
            other => {
                let known = "the known ones are: rules, allow, unsafe-module";
                return Err(ConfigError::at(other, format!("unknown section; {known}")));
            }
        }
    }
    Ok(cfg)
}

/// Reads one `[rules.<name>]` table at `path` into `cfg`. Appearing in the
/// file turns the rule on unless it sets `enabled = false` explicitly.
fn read_rule(
    cfg: &mut LintConfig,
    rule: Rule,
    table: &Value,
    path: &str,
) -> Result<(), ConfigError> {
    let mut scope = Scope {
        enabled: true,
        ..Scope::default()
    };
    for (key, v) in entries(table, path)? {
        let at = join(path, key);
        let boolean = || v.as_bool().ok_or_else(|| mistyped(&at, "a boolean", v));
        match (rule, key.as_str()) {
            (_, "enabled") => scope.enabled = boolean()?,
            (_, "paths") => scope.paths = strings(v, &at)?,
            (_, "exclude") => scope.exclude = strings(v, &at)?,
            (Rule::HotPathAlloc, "kernel_paths") => cfg.kernel_paths = strings(v, &at)?,
            (Rule::HotPathAlloc, "into_paths") => cfg.into_paths = strings(v, &at)?,
            // The bare suffix list predates justifications; refuse it with
            // a pointer so a stale config fails loudly.
            (Rule::UnsafeConfinement, "allowed") => {
                let why =
                    "`allowed` was replaced by [[unsafe-module]] entries (path + justification)";
                Err(ConfigError::at(&at, why))?
            }
            _ => Err(ConfigError::at(
                &at,
                format!("unknown key for rule `{}`", rule.name()),
            ))?,
        }
    }
    *match rule {
        Rule::HotPathAlloc => &mut cfg.hot_path_alloc,
        Rule::NoPanic => &mut cfg.no_panic,
        Rule::UnsafeConfinement => &mut cfg.unsafe_confinement,
        Rule::ClockDiscipline => &mut cfg.clock_discipline,
        Rule::Determinism => &mut cfg.determinism,
        Rule::LintHygiene => &mut cfg.lint_hygiene,
    } = scope;
    Ok(())
}

fn mistyped(path: &str, wanted: &str, found: &Value) -> ConfigError {
    let found = found.type_name();
    ConfigError::at(path, format!("must be {wanted}, found {found}"))
}

fn unknown_rule(at: &str, name: &str) -> ConfigError {
    ConfigError::at(at, format!("unknown rule `{name}`"))
}

fn entries<'v>(v: &'v Value, path: &str) -> Result<&'v [(String, Value)], ConfigError> {
    v.entries().ok_or_else(|| mistyped(path, "a table", v))
}

fn strings(v: &Value, path: &str) -> Result<Vec<String>, ConfigError> {
    let wrong = || mistyped(path, "an array of strings", v);
    let item = |s: &Value| s.as_str().map(str::to_string).ok_or_else(wrong);
    v.as_array().ok_or_else(wrong)?.iter().map(item).collect()
}

/// The entries of the `[[name]]` array, each labelled `[[name]] #k`.
fn numbered<'v>(
    v: &'v Value,
    name: &'static str,
) -> Result<impl Iterator<Item = (String, &'v Value)>, ConfigError> {
    let wrong = || mistyped(name, "an array of tables (`[[...]]`)", v);
    let label = move |(k, entry)| (format!("[[{name}]] #{k}"), entry);
    Ok((1..).zip(v.as_array().ok_or_else(wrong)?).map(label))
}

/// The string fields `keys` of the `[[...]]` entry `at`, each if present;
/// any other key, or a value that is no string, is an error.
fn fields<const N: usize>(
    entry: &Value,
    at: &str,
    keys: [&str; N],
) -> Result<[Option<String>; N], ConfigError> {
    for (key, v) in entries(entry, at)? {
        let (known, found) = (keys.join(", "), v.type_name());
        if !keys.contains(&key.as_str()) {
            Err(ConfigError::at(
                at,
                format!("unknown key `{key}`; the known ones are: {known}"),
            ))?;
        }
        if v.as_str().is_none() {
            Err(ConfigError::at(
                at,
                format!("`{key}` must be a string, found {found}"),
            ))?;
        }
    }
    Ok(keys.map(|key| entry.get(key).and_then(Value::as_str).map(str::to_string)))
}

fn required(at: &str, key: &str, value: Option<String>) -> Result<String, ConfigError> {
    value.ok_or_else(|| ConfigError::at(at, format!("entry is missing `{key}`")))
}

fn justified(at: &str, why: Option<String>, what: &str) -> Result<String, ConfigError> {
    let message = format!("entry has no justification — every {what} must say why");
    why.filter(|why| !why.trim().is_empty())
        .ok_or_else(|| ConfigError::at(at, message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scopes_and_allows() {
        let cfg = parse(
            r#"
# comment
[rules.no-panic]
paths = ["crates/cli/src/serve.rs", "crates/core/src/serve.rs"]

[rules.clock-discipline]
paths = ["crates/"]
exclude = ["crates/bench/"]

[[allow]]
rule = "clock-discipline"
path = "crates/cli/src/loadgen.rs"
pattern = "Instant::now"
justification = "loadgen measures real client-observed latency"
"#,
        )
        .unwrap();
        assert!(cfg.no_panic.contains("crates/cli/src/serve.rs"));
        assert!(!cfg.no_panic.contains("crates/cli/src/main.rs"));
        assert!(cfg.clock_discipline.contains("crates/core/src/lib.rs"));
        assert!(!cfg.clock_discipline.contains("crates/bench/src/lib.rs"));
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].pattern.as_deref(), Some("Instant::now"));
        // Rules without a section stay disabled.
        assert!(!cfg.determinism.enabled);
    }

    #[test]
    fn unsafe_modules_parse_with_justifications() {
        let cfg = parse(
            r#"
[rules.unsafe-confinement]
paths = ["crates/"]

[[unsafe-module]]
path = "kernels/simd.rs"
justification = "SIMD intrinsics"

[[unsafe-module]]
path = "net/sys.rs"
justification = "epoll bindings"
"#,
        )
        .unwrap();
        assert_eq!(cfg.unsafe_modules.len(), 2);
        assert_eq!(cfg.unsafe_modules[1].path, "net/sys.rs");
        assert_eq!(cfg.unsafe_modules[1].justification, "epoll bindings");
    }

    #[test]
    fn legacy_allowed_key_points_at_unsafe_module() {
        let e = parse("[rules.unsafe-confinement]\nallowed = [\"kernels/simd.rs\"]\n").unwrap_err();
        assert!(e.to_string().contains("unsafe-module"), "{e}");
    }

    /// Asserts each (document, error path, part of the message) is rejected
    /// at that path with that message.
    fn assert_rejected(rows: &[(&str, &str, &str)]) {
        for &(doc, at, says) in rows {
            match parse(doc) {
                Err(ConfigError::At { path, message }) => {
                    assert_eq!(path, at, "{doc}");
                    assert!(message.contains(says), "{doc} -> {message}");
                }
                other => panic!("{doc}: expected an error at `{at}`, got {other:?}"),
            }
        }
    }

    #[test]
    #[rustfmt::skip]
    fn unsafe_module_without_justification_is_an_error() {
        assert_rejected(&[
            ("[[unsafe-module]]\npath = \"net/sys.rs\"", "[[unsafe-module]] #1", "no justification"),
            ("[[unsafe-module]]\npath = \"a.rs\"\njustification = \" \"", "[[unsafe-module]] #1", "no justification"),
            ("[[unsafe-module]]\njustification = \"why\"", "[[unsafe-module]] #1", "missing `path`"),
        ]);
    }

    #[test]
    #[rustfmt::skip]
    fn missing_justification_is_an_error() {
        assert_rejected(&[
            ("[[allow]]\nrule = \"no-panic\"\npath = \"x.rs\"", "[[allow]] #1", "no justification"),
            ("[[allow]]\nrule = \"no-panic\"\npath = \"x.rs\"\njustification = \"  \"", "[[allow]] #1", "no justification"),
        ]);
    }

    #[test]
    #[rustfmt::skip]
    fn unknown_rule_and_key_are_errors() {
        assert_rejected(&[
            ("[rules.no-such-rule]", "rules.no-such-rule", "unknown rule"),
            ("[rules.no-panic]\nbogus = true", "rules.no-panic.bogus", "unknown key"),
            ("[rules.no-panic]\nkernel_paths = []", "rules.no-panic.kernel_paths", "unknown key"),
            ("[lints]", "lints", "unknown section"),
            ("top = 1", "top", "unknown section"),
            ("[[allow]]\nrule = \"nope\"\npath = \"x.rs\"", "[[allow]] #1", "unknown rule `nope`"),
            ("[[allow]]\nrule = \"no-panic\"\npath = \"x.rs\"\nlines = 3", "[[allow]] #1", "unknown key `lines`"),
        ]);
    }

    #[test]
    #[rustfmt::skip]
    fn mistyped_and_incomplete_entries_are_errors() {
        assert_rejected(&[
            ("[rules.no-panic]\npaths = \"crates/\"", "rules.no-panic.paths", "array of strings"),
            ("[rules.no-panic]\npaths = [\"a\", 1]", "rules.no-panic.paths", "array of strings"),
            ("[rules.no-panic]\nenabled = \"yes\"", "rules.no-panic.enabled", "a boolean"),
            ("[rules]\nno-panic = 1", "rules.no-panic", "a table"),
            ("[allow]\nrule = \"no-panic\"", "allow", "array of tables"),
            ("[[allow]]\npath = \"x.rs\"\njustification = \"w\"", "[[allow]] #1", "missing `rule`"),
            ("[[allow]]\nrule = \"no-panic\"\njustification = \"w\"", "[[allow]] #1", "missing `path`"),
            ("[[allow]]\nrule = \"no-panic\"", "[[allow]] #1", "missing `path`"),
            ("[[allow]]\nrule = 3", "[[allow]] #1", "`rule` must be a string"),
            ("[[allow]]\nrule = \"no-panic\"\npath = \"x.rs\"\njustification = \"w\"\n[[allow]]", "[[allow]] #2", "missing `rule`"),
        ]);
        // Malformed text is a syntax error with its line.
        let e = parse("[rules.no-panic]\npaths = [\"a\"\n").unwrap_err();
        assert!(matches!(e, ConfigError::Syntax { line: 2, .. }), "{e}");
    }
}
