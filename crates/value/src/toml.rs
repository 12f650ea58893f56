//! A minimal TOML reader covering the subset the workspace's configs use.
//!
//! Supported: `[section]` and `[nested.section]` headers, `key = value`
//! pairs, dotted keys (`model.name = "x"`), basic strings with the JSON
//! escapes, integers (with optional `_` separators), floats, booleans,
//! arrays (which may span lines, with comments between their items), `#`
//! comments, and blank lines. Unsupported (rejected with a line-numbered
//! error, not silently misread): `[[array-of-tables]]` headers, multi-line
//! strings, inline tables and dates. Values are read by the scanner the
//! JSON reader shares.
//!
//! Structural conflicts — a value other than a table where a table is
//! expected (`model = 3` then `model.name = ...`, or a `[model]` header
//! over that scalar) — are typed [`Error::At`] errors carrying the
//! offending key path, never panics.

use crate::scan::Scanner;
use crate::{Error, Value};

/// Parses a TOML document into a [`Value::Table`].
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut root = Entries::new();
    let mut s = Scanner::new(input, true);
    // Path of the currently open [section].
    let mut current: Vec<String> = Vec::new();
    loop {
        s.skip(true);
        let lineno = s.line;
        let Some(line) = s.rest().lines().next() else {
            return Ok(Value::Table(root));
        };
        if let Some(header) = line.strip_prefix('[') {
            if header.starts_with('[') {
                return Err(err(lineno, "arrays of tables are not supported"));
            }
            let unterminated = || err(lineno, "unterminated section header");
            let (header, after) = header.split_once(']').ok_or_else(unterminated)?;
            s.pos += line.len() - after.len();
            s.skip(false);
            if !matches!(s.peek(), None | Some(b'\n')) {
                return Err(unterminated());
            }
            current = header.split('.').map(|p| p.trim().to_string()).collect();
            if current.iter().any(|p| p.is_empty()) {
                return Err(err(lineno, "empty component in section path"));
            }
            // The section exists even if it stays empty.
            table_at(&mut root, &current, lineno)?;
            continue;
        }
        let (key, _) = strip_comment(line)
            .split_once('=')
            .ok_or_else(|| err(lineno, "expected `key = value` or `[section]`"))?;
        s.pos += key.len() + 1;
        let key = key.trim();
        if key.is_empty() {
            return Err(err(lineno, "empty key"));
        }
        // Dotted keys extend the open section's path: under `[model]`,
        // `head.classes = 10` writes `model.head.classes`. A quoted key is
        // one literal component — dots inside it are not separators.
        let mut path: Vec<String> = current.clone();
        if key.contains('"') {
            let quoted = key.strip_prefix('"').and_then(|k| k.strip_suffix('"'));
            let why = "quoted keys must be a single fully-quoted component";
            let unsupported = || err(lineno, &format!("unsupported key {key:?} ({why})"));
            let inner = quoted.filter(|k| !k.contains('"'));
            path.push(inner.ok_or_else(unsupported)?.to_string());
        } else {
            path.extend(key.split('.').map(|p| p.trim().to_string()));
        }
        if path.iter().any(String::is_empty) {
            return Err(err(lineno, &format!("empty component in key {key:?}")));
        }
        let Some(leaf) = path.pop() else {
            return Err(err(lineno, "empty key"));
        };
        s.skip(false);
        let value = s.value()?;
        s.skip(false);
        if !matches!(s.peek(), None | Some(b'\n')) {
            let remainder = s.rest().lines().next().unwrap_or_default();
            let message = format!("trailing content after value: {remainder:?}");
            return Err(s.err(&message));
        }
        let table = table_at(&mut root, &path, lineno)?;
        if table.iter().any(|(k, _)| *k == leaf) {
            return Err(err(lineno, &format!("duplicate key {key:?}")));
        }
        table.push((leaf, value));
    }
}

fn err(lineno: usize, msg: &str) -> Error {
    crate::scan::syntax(true, lineno, msg)
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

/// A table's entries, in document order.
type Entries = Vec<(String, Value)>;

/// Walks (creating as needed) the nested table at `path`.
///
/// Hitting any other value along the way — a scalar where a table is
/// expected — is a typed [`Error::At`] naming the conflicting path prefix.
fn table_at<'a>(
    mut cur: &'a mut Entries,
    path: &[String],
    lineno: usize,
) -> Result<&'a mut Entries, Error> {
    for (depth, part) in path.iter().enumerate() {
        let at = cur.iter().position(|(k, _)| k == part).unwrap_or_else(|| {
            cur.push((part.clone(), Value::table()));
            cur.len() - 1
        });
        let found = match cur.get_mut(at).map(|(_, v)| v) {
            Some(Value::Table(entries)) => {
                cur = entries;
                continue;
            }
            Some(other) => other.type_name(),
            None => return Err(err(lineno, "lost the open section (parser bug)")),
        };
        let prefix = path.get(..=depth).unwrap_or(path).join(".");
        let message = format!("line {lineno}: `{prefix}` is already {found}, not a table");
        return Err(Error::at(path.join("."), message));
    }
    Ok(cur)
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
            ("x = [1]\n[x]", "`x` is already an array, not a table"),
            ("x = 1\nx = 2", "duplicate key"),
            ("a = [1, 2", "array"),
            ("a = [", "unterminated array"),
            ("a = [1,\n 2 3]", "line 2: expected `,` or `]`"),
            ("a = \"oops", "unterminated string"),
            ("a..b = 1", "empty component"),
            ("x = zebra", "cannot parse"),
        ] {
            let e = parse(doc).unwrap_err().to_string();
            assert!(e.contains(needle), "{doc:?} -> {e}");
        }
    }

    #[test]
    fn array_of_tables_headers_are_typed_syntax_errors() {
        for (doc, at) in [
            ("[[t]]\nk = 1", 1),
            ("x = 1\n[[x]]", 2),
            ("[x]\n[[x.y]]", 2),
        ] {
            match parse(doc).unwrap_err() {
                Error::Syntax { line, message, .. } => {
                    assert!(
                        line == at && message.contains("arrays of tables"),
                        "{message}"
                    )
                }
                other => panic!("{doc:?}: expected a syntax error, got {other}"),
            }
        }
    }

    #[test]
    fn arrays_span_lines_with_comments_and_trailing_commas() {
        let doc = "paths = [\n  \"a]b\",  # ] and # in a string stay in it\n\n  # a comment\n  \"c#d\",\n]\n\
                   next = [\n  [1, 2],\n  [3]\n] # done\nlast = 1";
        let v = parse(doc).unwrap();
        let strs = [Value::Str("a]b".into()), Value::Str("c#d".into())];
        assert_eq!(v.get("paths").and_then(Value::as_array), Some(&strs[..]));
        let nested = v.get("next").and_then(Value::as_array).unwrap();
        assert_eq!(nested[1], Value::Array(vec![Value::Int(3)]));
        assert_eq!(v.get("last"), Some(&Value::Int(1)));
        // Unterminated: the error names the line the array opened on.
        let e = parse("x = 1\npaths = [\n  \"a\",\n  # only comments follow\n").unwrap_err();
        assert!(e.to_string().contains("line 2: unterminated array"), "{e}");
        let e = parse("paths = [\n \"a ]\"\n").unwrap_err();
        assert!(e.to_string().contains("unterminated array"), "{e}");
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
        // `model = 3` then `model.name = ...` must be a typed error naming
        // the path — never a panic/abort.
        let err = parse("model = 3\nmodel.name = \"x\"").unwrap_err();
        match &err {
            Error::At { path, message } => {
                assert_eq!(path, "model");
                assert!(message.contains("already an integer"), "{message}");
                assert!(message.contains("line 2"), "{message}");
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
        assert!(err.to_string().contains("at `model`"));
        // Same conflict via a section header over a scalar.
        let err = parse("model = 3\n[model]\nname = \"x\"").unwrap_err();
        assert!(matches!(err, Error::At { .. }), "{err}");
        // And via a deep dotted key whose prefix is a scalar.
        let err = parse("[a]\nb = true\n[x]\ny = 1\n\n[a.b.c]\nz = 2").unwrap_err();
        match err {
            Error::At { path, message } => {
                assert_eq!(path, "a.b.c");
                assert!(message.contains("`a.b` is already a boolean"), "{message}");
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_with_value_to_toml() {
        let doc = "\
top = 3

[run]
name = \"x\\u0001\\u001f\"
ratio = 0.25
ints = [1, 2]
";
        // Control characters (in `name`) render as `\u` escapes, which read back.
        let v = parse(doc).unwrap();
        let rendered = v.to_toml().unwrap();
        let reparsed = parse(&rendered).unwrap();
        assert_eq!(v, reparsed, "rendered:\n{rendered}");
    }
}
