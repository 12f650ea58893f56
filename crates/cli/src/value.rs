//! A small dynamic value model shared by the TOML and JSON front-ends.
//!
//! The build is offline (`vendor/README.md`), so the CLI carries its own
//! minimal document model: configs parse *into* a [`Value`] tree (from
//! TOML or JSON), the schema table in [`crate::config`] reads the typed
//! sections out of it, and run artifacts render back out of it (JSON for
//! `metrics.json`, TOML for the config snapshot).

use crate::error::CliError;
use std::fmt::Write as _;

/// A dynamically-typed configuration/metrics value.
///
/// Tables preserve insertion order (`Vec` of pairs, not a map) so
/// round-tripped documents stay diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// Integer (TOML integer, JSON number without fraction/exponent).
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Ordered array.
    Array(Vec<Value>),
    /// Ordered key → value table (TOML table, JSON object).
    Table(Vec<(String, Value)>),
    /// JSON `null` (never produced by the TOML parser).
    Null,
}

impl Value {
    /// An empty table.
    pub fn table() -> Value {
        Value::Table(Vec::new())
    }

    /// Short description of the value's kind, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "a boolean",
            Value::Int(_) => "an integer",
            Value::Float(_) => "a float",
            Value::Str(_) => "a string",
            Value::Array(_) => "an array",
            Value::Table(_) => "a table",
            Value::Null => "null",
        }
    }

    /// Inserts (or replaces) `key` in a table.
    ///
    /// Inserting into a non-table is a typed [`CliError::Config`] naming
    /// the offending key — never a panic: parsers hit this when a document
    /// assigns a scalar where a table is expected (`model = 3` followed by
    /// `model.name = ...`). Code building documents from scratch should
    /// use [`Table`], whose receiver is statically a table.
    pub fn insert(&mut self, key: &str, value: Value) -> Result<(), CliError> {
        match self {
            Value::Table(entries) => {
                if let Some(e) = entries.iter_mut().find(|(k, _)| k == key) {
                    e.1 = value;
                } else {
                    entries.push((key.to_string(), value));
                }
                Ok(())
            }
            other => Err(CliError::config(
                key,
                format!(
                    "cannot insert into {} (a table is required here)",
                    other.type_name()
                ),
            )),
        }
    }

    /// Looks up `key` in a table (`None` for missing keys or non-tables).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Table(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The table's entries, if this is a table.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Table(entries) => Some(entries),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer content, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric content as `f64` (integers coerce).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array content, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON (2-space indent).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_json(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => write_json_float(out, *f),
            Value::Str(s) => write_json_string(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    item.write_json(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                let _ = write!(out, "{pad}]");
            }
            Value::Table(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in entries.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    write_json_string(out, k);
                    out.push_str(": ");
                    v.write_json(out, indent + 1);
                    if i + 1 < entries.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }

    /// Renders a table as a TOML document: nested tables become `[section]`
    /// headers, scalar/array keys print before sub-tables. A root that is
    /// not a table, or a table inside an array, is a typed error.
    pub fn to_toml(&self) -> Result<String, CliError> {
        let mut out = String::new();
        let not_table = || CliError::new(format!("{} is no TOML document", self.type_name()));
        let entries = self.entries().ok_or_else(not_table)?;
        render_toml_table(&mut out, entries, "")?;
        Ok(out)
    }
}

/// An order-preserving table under construction.
///
/// The infallible counterpart of [`Value::insert`] for code that *builds*
/// documents (metrics, config snapshots): the receiver is statically a
/// table, so insertion cannot fail and no `Result` plumbing (or panic) is
/// needed. Convert into a [`Value`] with [`Table::build`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table(Vec<(String, Value)>);

impl Table {
    /// An empty table builder.
    pub fn new() -> Table {
        Table(Vec::new())
    }

    /// Inserts (or replaces) `key`.
    pub fn insert(&mut self, key: &str, value: impl Into<Value>) {
        let value = value.into();
        if let Some(e) = self.0.iter_mut().find(|(k, _)| k == key) {
            e.1 = value;
        } else {
            self.0.push((key.to_string(), value));
        }
    }

    /// Finishes the builder into a [`Value::Table`].
    pub fn build(self) -> Value {
        Value::Table(self.0)
    }
}

impl From<Table> for Value {
    fn from(t: Table) -> Value {
        t.build()
    }
}

/// `key` beneath the dotted `path` (which is empty at the document root).
pub(crate) fn join(path: &str, key: &str) -> String {
    match path {
        "" => key.to_string(),
        _ => format!("{path}.{key}"),
    }
}

fn render_toml_table(
    out: &mut String,
    entries: &[(String, Value)],
    prefix: &str,
) -> Result<(), CliError> {
    for (k, v) in entries {
        if !matches!(v, Value::Table(_)) {
            let _ = write!(out, "{k} = ");
            render_toml_value(out, v)
                .map_err(|message| CliError::config(join(prefix, k), message))?;
            out.push('\n');
        }
    }
    for (k, v) in entries {
        if let Value::Table(sub) = v {
            let path = join(prefix, k);
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "[{path}]");
            render_toml_table(out, sub, &path)?;
        }
    }
    Ok(())
}

/// Renders one inline TOML value; `Err` says what the subset cannot spell.
pub(crate) fn render_toml_value(out: &mut String, v: &Value) -> Result<(), &'static str> {
    match v {
        Value::Null => out.push_str("\"\""), // TOML has no null; unused
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => write_toml_float(out, *f),
        Value::Str(s) => write_json_string(out, s), // TOML basic strings share JSON escaping
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_toml_value(out, item)?;
            }
            out.push(']');
        }
        Value::Table(_) => return Err("a table inside an array has no rendering here"),
    }
    Ok(())
}

fn write_json_float(out: &mut String, f: f64) {
    if f.is_finite() {
        if f == f.trunc() && f.abs() < 1e15 {
            // Keep a fractional part so the value re-parses as a float.
            let _ = write!(out, "{f:.1}");
        } else {
            let _ = write!(out, "{f}");
        }
    } else {
        // JSON has no Inf/NaN; clamp to null like serde_json's lossy mode.
        out.push_str("null");
    }
}

fn write_toml_float(out: &mut String, f: f64) {
    if f.is_finite() {
        if f == f.trunc() && f.abs() < 1e15 {
            let _ = write!(out, "{f:.1}");
        } else {
            let _ = write!(out, "{f}");
        }
    } else if f.is_nan() {
        out.push_str("nan");
    } else if f > 0.0 {
        out.push_str("inf");
    } else {
        out.push_str("-inf");
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_insert_get_and_replace() {
        let mut t = Value::table();
        t.insert("a", Value::Int(1)).unwrap();
        t.insert("b", Value::Str("x".into())).unwrap();
        t.insert("a", Value::Int(2)).unwrap();
        assert_eq!(t.get("a"), Some(&Value::Int(2)));
        assert_eq!(t.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(t.get("c"), None);
        assert_eq!(t.entries().unwrap().len(), 2);
    }

    #[test]
    fn insert_on_non_table_is_a_typed_error_not_a_panic() {
        let mut v = Value::Int(3);
        let err = v.insert("name", Value::Str("x".into())).unwrap_err();
        match err {
            CliError::Config { path, message } => {
                assert_eq!(path, "name");
                assert!(message.contains("an integer"), "{message}");
            }
            other => panic!("expected Config error, got {other}"),
        }
        // The value is untouched after the failed insert.
        assert_eq!(v, Value::Int(3));
    }

    #[test]
    fn table_builder_matches_value_table() {
        let mut b = Table::new();
        b.insert("a", Value::Int(1));
        b.insert("a", Value::Int(2)); // replace, like Value::insert
        let mut nested = Table::new();
        nested.insert("x", Value::Bool(true));
        b.insert("inner", nested); // Table inserts directly via Into
        let v = b.build();
        assert_eq!(v.get("a"), Some(&Value::Int(2)));
        assert_eq!(
            v.get("inner").and_then(|t| t.get("x")),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn float_coercion_from_int() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(0.5).as_float(), Some(0.5));
        assert_eq!(Value::Str("3".into()).as_float(), None);
    }

    #[test]
    fn json_rendering_escapes_and_indents() {
        let mut t = Table::new();
        t.insert("s", Value::Str("a\"b\nc".into()));
        t.insert("xs", Value::Array(vec![Value::Int(1), Value::Float(2.0)]));
        let json = t.build().to_json();
        assert!(json.contains("\"a\\\"b\\nc\""));
        assert!(json.contains("2.0"), "whole floats keep a fraction: {json}");
    }

    #[test]
    fn toml_rendering_orders_scalars_before_sections() {
        let mut root = Table::new();
        let mut run = Table::new();
        run.insert("name", Value::Str("x".into()));
        run.insert("seed", Value::Int(7));
        root.insert("run", run);
        let toml = root.build().to_toml().unwrap();
        assert!(toml.contains("[run]"));
        assert!(toml.contains("name = \"x\""));
        assert!(toml.contains("seed = 7"));
        // What TOML cannot spell is a typed error, not a panic.
        assert!(Value::Int(3).to_toml().is_err());
        let mut root = Table::new();
        root.insert("xs", Value::Array(vec![Value::table()]));
        match root.build().to_toml().unwrap_err() {
            CliError::Config { path, .. } => assert_eq!(path, "xs"),
            other => panic!("expected Config error, got {other}"),
        }
    }
}
