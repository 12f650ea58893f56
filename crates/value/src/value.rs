//! The document tree the TOML and JSON front-ends share, and its writers.

use crate::{join, Error};
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
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => write_float(out, *f, false),
            Value::Str(s) => write_json_string(out, s),
            Value::Array(items) => {
                write_json_block(out, indent, "[]", items.iter().map(|v| (None, v)))
            }
            Value::Table(entries) => {
                let entries = entries.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_json_block(out, indent, "{}", entries)
            }
        }
    }

    /// Renders a table as a TOML document: nested tables become `[section]`
    /// headers, scalar/array keys print before sub-tables. A root that is
    /// not a table, or a table inside an array, is a typed error.
    pub fn to_toml(&self) -> Result<String, Error> {
        let mut out = String::new();
        let not_table = || Error::at("", format!("{} is no TOML document", self.type_name()));
        let entries = self.entries().ok_or_else(not_table)?;
        render_toml_table(&mut out, entries, "")?;
        Ok(out)
    }
}

/// An order-preserving table under construction, for code that *builds*
/// documents (metrics, config snapshots, reports): the receiver is
/// statically a table, so insertion cannot fail. Convert into a [`Value`]
/// with [`Table::build`].
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

fn render_toml_table(
    out: &mut String,
    entries: &[(String, Value)],
    prefix: &str,
) -> Result<(), Error> {
    for (k, v) in entries {
        if !matches!(v, Value::Table(_)) {
            let _ = write!(out, "{k} = ");
            render_toml_value(out, v).map_err(|message| Error::at(join(prefix, k), message))?;
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
fn render_toml_value(out: &mut String, v: &Value) -> Result<(), &'static str> {
    match v {
        Value::Null => out.push_str("\"\""), // TOML has no null; unused
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_float(out, *f, true),
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

/// An array (`brackets` `[]`) or object (`{}`): one entry per line,
/// indented one level deeper than the block.
fn write_json_block<'v>(
    out: &mut String,
    indent: usize,
    brackets: &str,
    entries: impl ExactSizeIterator<Item = (Option<&'v str>, &'v Value)>,
) {
    let (open, close) = brackets.split_at(1);
    let (last, pad) = (entries.len(), "  ".repeat(indent));
    out.push_str(open);
    for (i, (key, value)) in entries.enumerate() {
        out.push_str(&format!("\n{pad}  "));
        if let Some(key) = key {
            write_json_string(out, key);
            out.push_str(": ");
        }
        value.write_json(out, indent + 1);
        out.push_str(if i + 1 < last { "," } else { "\n" });
    }
    if last > 0 {
        out.push_str(&pad);
    }
    out.push_str(close);
}

/// Whole finite floats keep a fractional part so they re-parse as floats.
/// TOML spells the non-finite ones; JSON has none and writes `null`, like
/// serde_json's lossy mode.
fn write_float(out: &mut String, f: f64, toml: bool) {
    let _ = match (f.is_finite(), toml) {
        (true, _) if f == f.trunc() && f.abs() < 1e15 => write!(out, "{f:.1}"),
        (true, _) => write!(out, "{f}"),
        (false, false) => write!(out, "null"),
        (false, true) if f.is_nan() => write!(out, "nan"),
        (false, true) => write!(out, "{}inf", if f > 0.0 { "" } else { "-" }),
    };
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
        let mut t = Table::new();
        t.insert("a", Value::Int(1));
        t.insert("b", Value::Str("x".into()));
        t.insert("a", Value::Int(2));
        let t = t.build();
        assert_eq!(t.get("a"), Some(&Value::Int(2)));
        assert_eq!(t.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(t.get("c"), None);
        assert_eq!(t.entries().unwrap().len(), 2);
    }

    #[test]
    fn table_builder_matches_value_table() {
        let mut b = Table::new();
        b.insert("a", Value::Int(1));
        b.insert("a", Value::Int(2)); // replaces
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
            Error::At { path, .. } => assert_eq!(path, "xs"),
            other => panic!("expected a typed error, got {other}"),
        }
    }
}
