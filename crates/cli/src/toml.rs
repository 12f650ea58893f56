//! A minimal TOML parser covering the subset the `nf` config schema uses.
//!
//! Supported: `[section]` and `[nested.section]` headers, `key = value`
//! pairs, dotted keys (`model.name = "x"`), basic strings with the common
//! escapes, integers (with optional `_` separators), floats, booleans,
//! single-line arrays, `#` comments, and blank lines. Unsupported
//! (rejected with a line-numbered error, not silently misread):
//! multi-line strings/arrays, inline tables, dates, and array-of-tables
//! headers.
//!
//! Structural conflicts — a scalar assigned where a table is expected
//! (`model = 3` then `model.name = ...`, or a `[model]` header over that
//! scalar) — are typed [`CliError::Config`] errors carrying the offending
//! key path, never panics.
//!
//! The config schema (`DESIGN.md` §6) stays inside this subset on purpose:
//! the build is offline, and this parser is all the TOML `nf` needs. A
//! config file is input from outside the program, so nothing here panics
//! (`nf-lint`'s `no-panic` rule covers this file).

use crate::error::CliError;
use crate::value::Value;

/// Parses a TOML document into a [`Value::Table`].
pub fn parse(input: &str) -> Result<Value, CliError> {
    let mut root = Value::table();
    // Path of the currently open [section].
    let mut current: Vec<String> = Vec::new();
    for (idx, raw_line) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            if header.starts_with('[') {
                return Err(err(lineno, "array-of-tables ([[...]]) is not supported"));
            }
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| err(lineno, "unterminated section header"))?;
            if header.trim().is_empty() {
                return Err(err(lineno, "empty section header"));
            }
            current = header.split('.').map(|p| p.trim().to_string()).collect();
            if current.iter().any(|p| p.is_empty()) {
                return Err(err(lineno, "empty component in section path"));
            }
            // Materialise the section even if it stays empty.
            table_at(&mut root, &current, lineno)?;
            continue;
        }
        let (key, rest) = line
            .split_once('=')
            .ok_or_else(|| err(lineno, "expected `key = value` or `[section]`"))?;
        let key = key.trim();
        if key.is_empty() {
            return Err(err(lineno, "empty key"));
        }
        // Dotted keys extend the open section's path: under `[model]`,
        // `head.classes = 10` writes `model.head.classes`. A quoted key is
        // one literal component — dots inside it are not separators.
        let mut path: Vec<String> = current.clone();
        if key.contains('"') {
            let inner = key
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .filter(|k| !k.contains('"'))
                .ok_or_else(|| {
                    err(
                        lineno,
                        &format!(
                            "unsupported key {key:?} (quoted keys must be a single \
                             fully-quoted component)"
                        ),
                    )
                })?;
            path.push(inner.to_string());
        } else {
            path.extend(key.split('.').map(|p| p.trim().to_string()));
        }
        if path.iter().any(String::is_empty) {
            return Err(err(lineno, &format!("empty component in key {key:?}")));
        }
        let Some(leaf) = path.pop() else {
            return Err(err(lineno, "empty key"));
        };
        let (value, remainder) = parse_value(rest.trim(), lineno)?;
        if !remainder.trim().is_empty() {
            return Err(err(
                lineno,
                &format!("trailing content after value: {remainder:?}"),
            ));
        }
        let table = table_at(&mut root, &path, lineno)?;
        if table.get(&leaf).is_some() {
            return Err(err(lineno, &format!("duplicate key {key:?}")));
        }
        // `table_at` guarantees a table receiver, so this insert cannot
        // fail; `?` (not `expect`) keeps the no-panic guarantee anyway.
        table.insert(&leaf, value)?;
    }
    Ok(root)
}

/// Reads the TOML file at `path`.
pub fn parse_file(path: &std::path::Path) -> Result<Value, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("reading {}: {e}", path.display())))?;
    parse(&text).map_err(|e| CliError::new(format!("{}: {e}", path.display())))
}

fn err(lineno: usize, msg: &str) -> CliError {
    CliError::new(format!("TOML parse error on line {lineno}: {msg}"))
}

/// Strips a `#` comment, respecting `#` inside basic strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return line.get(..i).unwrap_or(line),
            _ => escaped = false,
        }
    }
    line
}

/// Walks (creating as needed) the nested table at `path`.
///
/// Hitting a non-table value along the way — a scalar where a table is
/// expected — is a typed [`CliError::Config`] naming the conflicting
/// path prefix.
fn table_at<'a>(
    root: &'a mut Value,
    path: &[String],
    lineno: usize,
) -> Result<&'a mut Value, CliError> {
    let mut cur = root;
    for (depth, part) in path.iter().enumerate() {
        // `cur` is a table: the root is one, and the walk only steps into
        // tables. The `None` arm keeps that a typed error, not a panic.
        let next = match cur {
            Value::Table(entries) => {
                let at = entries.iter().position(|(k, _)| k == part);
                let at = at.unwrap_or_else(|| {
                    entries.push((part.clone(), Value::table()));
                    entries.len() - 1
                });
                entries.get_mut(at).map(|(_, v)| v)
            }
            _ => None,
        };
        match next {
            Some(next @ Value::Table(_)) => cur = next,
            Some(next) => {
                let prefix = path.get(..=depth).unwrap_or(path).join(".");
                let found = next.type_name();
                let message = format!("line {lineno}: `{prefix}` is already {found}, not a table");
                return Err(CliError::config(path.join("."), message));
            }
            None => return Err(err(lineno, "lost the open section (parser bug)")),
        }
    }
    Ok(cur)
}

/// Parses one value from the front of `input`; returns it plus the rest.
fn parse_value(input: &str, lineno: usize) -> Result<(Value, &str), CliError> {
    let input = input.trim_start();
    if let Some(rest) = input.strip_prefix("true") {
        return Ok((Value::Bool(true), rest));
    }
    if let Some(rest) = input.strip_prefix("false") {
        return Ok((Value::Bool(false), rest));
    }
    match input.chars().next() {
        None => Err(err(lineno, "missing value")),
        Some('"') => parse_string(input, lineno),
        Some('[') => parse_array(input, lineno),
        _ => parse_number(input, lineno),
    }
}

fn parse_string(input: &str, lineno: usize) -> Result<(Value, &str), CliError> {
    debug_assert!(input.starts_with('"'));
    let mut out = String::new();
    let mut iter = input.char_indices().skip(1);
    while let Some((i, c)) = iter.next() {
        match c {
            '"' => return Ok((Value::Str(out), input.get(i + 1..).unwrap_or_default())),
            '\\' => {
                let (_, esc) = iter
                    .next()
                    .ok_or_else(|| err(lineno, "unterminated escape"))?;
                match esc {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    other => {
                        return Err(err(lineno, &format!("unsupported escape \\{other}")));
                    }
                }
            }
            c => out.push(c),
        }
    }
    Err(err(lineno, "unterminated string"))
}

fn parse_array(input: &str, lineno: usize) -> Result<(Value, &str), CliError> {
    debug_assert!(input.starts_with('['));
    let mut items = Vec::new();
    let mut rest = input.strip_prefix('[').unwrap_or(input);
    loop {
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix(']') {
            return Ok((Value::Array(items), after));
        }
        if rest.is_empty() {
            return Err(err(
                lineno,
                "unterminated array (multi-line arrays are not supported)",
            ));
        }
        let (value, after) = parse_value(rest, lineno)?;
        items.push(value);
        rest = after.trim_start();
        if let Some(after_comma) = rest.strip_prefix(',') {
            rest = after_comma;
        } else if !rest.starts_with(']') {
            return Err(err(lineno, "expected `,` or `]` in array"));
        }
    }
}

fn parse_number(input: &str, lineno: usize) -> Result<(Value, &str), CliError> {
    let end = input
        .find(|c: char| !(c.is_ascii_alphanumeric() || "+-._".contains(c)))
        .unwrap_or(input.len());
    let (token, rest) = input.split_at(end);
    let cleaned: String = token.chars().filter(|&c| c != '_').collect();
    if cleaned.is_empty() {
        return Err(err(lineno, &format!("expected a value, found {input:?}")));
    }
    if !cleaned.contains(['.', 'e', 'E'])
        || cleaned.starts_with("0x")
        || cleaned.starts_with("0o")
        || cleaned.starts_with("0b")
    {
        if let Ok(i) = cleaned.parse::<i64>() {
            return Ok((Value::Int(i), rest));
        }
    }
    match cleaned.parse::<f64>() {
        Ok(f) => Ok((Value::Float(f), rest)),
        Err(_) => Err(err(lineno, &format!("cannot parse value {token:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_scalars_and_arrays() {
        let doc = r#"
# a comment
top = 1

[run]
name = "quickstart"  # trailing comment
seed = 42
frac = 0.5
flag = true
channels = [8, 16, 32]
label = "a # not a comment"

[train.inner]
lr = 1e-2
"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("top"), Some(&Value::Int(1)));
        let run = v.get("run").unwrap();
        assert_eq!(run.get("name").and_then(Value::as_str), Some("quickstart"));
        assert_eq!(run.get("seed"), Some(&Value::Int(42)));
        assert_eq!(run.get("frac"), Some(&Value::Float(0.5)));
        assert_eq!(run.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(
            run.get("channels").unwrap().as_array().unwrap(),
            &[Value::Int(8), Value::Int(16), Value::Int(32)]
        );
        assert_eq!(
            run.get("label").and_then(Value::as_str),
            Some("a # not a comment")
        );
        let inner = v.get("train").unwrap().get("inner").unwrap();
        assert_eq!(inner.get("lr"), Some(&Value::Float(1e-2)));
    }

    #[test]
    fn underscored_integers_and_negatives() {
        let v = parse("big = 1_000_000\nneg = -3\nnegf = -0.25").unwrap();
        assert_eq!(v.get("big"), Some(&Value::Int(1_000_000)));
        assert_eq!(v.get("neg"), Some(&Value::Int(-3)));
        assert_eq!(v.get("negf"), Some(&Value::Float(-0.25)));
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#"s = "a\n\"b\"\\c""#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\n\"b\"\\c"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (doc, needle) in [
            ("x 1", "line 1"),
            ("[sec\nx = 1", "unterminated section"),
            ("x = 1\nx = 2", "duplicate key"),
            ("a = [1, 2", "array"),
            ("a = [", "unterminated array"),
            ("a = \"oops", "unterminated string"),
            ("a..b = 1", "empty component"),
            ("[[t]]\n", "not supported"),
            ("x = zebra", "cannot parse"),
        ] {
            let e = parse(doc).unwrap_err().to_string();
            assert!(e.contains(needle), "{doc:?} -> {e}");
        }
    }

    #[test]
    fn dotted_keys_nest() {
        let v = parse("model.name = \"vgg\"\nmodel.depth = 16\n[train]\nopt.lr = 0.1").unwrap();
        let model = v.get("model").unwrap();
        assert_eq!(model.get("name").and_then(Value::as_str), Some("vgg"));
        assert_eq!(model.get("depth"), Some(&Value::Int(16)));
        let lr = v.get("train").unwrap().get("opt").unwrap().get("lr");
        assert_eq!(lr, Some(&Value::Float(0.1)));
    }

    #[test]
    fn quoted_keys_are_single_literal_components() {
        // A dot inside a quoted key is part of the name, not a separator.
        let v = parse("\"a.b\" = 1\nplain = 2").unwrap();
        assert_eq!(v.get("a.b"), Some(&Value::Int(1)));
        assert_eq!(v.get("a"), None, "no `a` table must be created");
        // Mixed quoted/dotted keys are rejected, not silently misread.
        for doc in ["a.\"b.c\" = 1", "\"a\".b = 1", "\"a\"b\" = 1"] {
            let e = parse(doc).unwrap_err().to_string();
            assert!(e.contains("fully-quoted"), "{doc:?} -> {e}");
        }
    }

    #[test]
    fn scalar_where_table_expected_is_a_typed_config_error() {
        // The satellite case: `model = 3` then `model.name = ...` must be
        // a config error naming the path — never a panic/abort.
        let err = parse("model = 3\nmodel.name = \"x\"").unwrap_err();
        match &err {
            CliError::Config { path, message } => {
                assert_eq!(path, "model");
                assert!(message.contains("already an integer"), "{message}");
                assert!(message.contains("line 2"), "{message}");
            }
            other => panic!("expected Config error, got {other:?}"),
        }
        assert!(err.to_string().contains("config error at `model`"));
        // Same conflict via a section header over a scalar.
        let err = parse("model = 3\n[model]\nname = \"x\"").unwrap_err();
        assert!(matches!(err, CliError::Config { .. }), "{err}");
        // And via a deep dotted key whose prefix is a scalar.
        let err = parse("[a]\nb = true\n[x]\ny = 1\n\n[a.b.c]\nz = 2").unwrap_err();
        match err {
            CliError::Config { path, message } => {
                assert_eq!(path, "a.b.c");
                assert!(message.contains("`a.b` is already a boolean"), "{message}");
            }
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_with_value_to_toml() {
        let doc = "\
top = 3

[run]
name = \"x\"
ratio = 0.25
ints = [1, 2]
";
        let v = parse(doc).unwrap();
        let rendered = v.to_toml().unwrap();
        let reparsed = parse(&rendered).unwrap();
        assert_eq!(v, reparsed, "rendered:\n{rendered}");
    }
}
