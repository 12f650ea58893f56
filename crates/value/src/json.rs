//! A minimal JSON reader (for `nf inspect` reading `metrics.json`, and
//! for `.json` configs).
//!
//! Writing JSON lives on [`Value::to_json`]; this is the other direction.
//! Standard JSON: objects, arrays, strings with escapes (including
//! `\uXXXX`), numbers, booleans, null — the scalars and arrays through the
//! scanner the TOML reader shares. Like the TOML module it is all the
//! offline build needs, and it never panics on its input.

use crate::scan::Scanner;
use crate::{Error, Table, Value};

/// Parses a JSON document. It is read leniently: a trailing comma in an
/// array or object is accepted.
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut s = Scanner::new(input, false);
    s.skip(true);
    let value = s.value()?;
    s.skip(true);
    match s.peek() {
        None => Ok(value),
        Some(_) => Err(s.err("trailing content after document")),
    }
}

/// An object, at its `{`.
pub(crate) fn object(s: &mut Scanner<'_>) -> Result<Value, Error> {
    s.pos += 1;
    let mut table = Table::new();
    loop {
        s.skip(true);
        if s.eat("}") {
            return Ok(table.build());
        }
        if s.peek() != Some(b'"') {
            return Err(s.err("expected a string key or `}` in object"));
        }
        let key = s.string()?;
        s.skip(true);
        if !s.eat(":") {
            return Err(s.err("expected `:` after the key"));
        }
        s.skip(true);
        table.insert(&key, s.value()?);
        s.skip(true);
        if !s.eat(",") && s.peek() != Some(b'}') {
            return Err(s.err("expected `,` or `}` in object"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, null, true], "b": {"c": "x\ny"}}"#).unwrap();
        let a = [
            Value::Int(1),
            Value::Float(2.5),
            Value::Null,
            Value::Bool(true),
        ];
        assert_eq!(v.get("a").and_then(Value::as_array), Some(&a[..]));
        let c = v.get("b").and_then(|b| b.get("c"));
        assert_eq!(c.and_then(Value::as_str), Some("x\ny"));
    }

    #[test]
    fn round_trips_own_rendering() {
        let mut t = Table::new();
        t.insert("name", Value::Str("run \"1\"".into()));
        t.insert(
            "losses",
            Value::Array(vec![Value::Float(1.5), Value::Float(0.25)]),
        );
        t.insert("n", Value::Int(-7));
        t.insert("none", Value::Null);
        let t = t.build();
        let json = t.to_json();
        assert_eq!(parse(&json).unwrap(), t);
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#"{"s": "\u0041\u00e9 é"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("Aé é"));
    }

    #[test]
    fn malformed_documents_error() {
        for doc in ["{", "[1,", "{\"a\" 1}", "tru", "{\"a\": 1} extra", ""] {
            assert!(parse(doc).is_err(), "{doc:?} should fail");
        }
        let e = parse("{\n  \"a\": 1,\n  \"b\" 2\n}").unwrap_err();
        assert!(e.to_string().contains("JSON parse error on line 3"), "{e}");
        // Nesting is bounded in both readers: an error, not a stack overflow.
        let deep = "[".repeat(100_000);
        assert!(parse(&deep)
            .unwrap_err()
            .to_string()
            .contains("nested too deeply"));
        let e = crate::toml::parse(&format!("x = {deep}")).unwrap_err();
        assert!(e.to_string().contains("nested too deeply"), "{e}");
        let depth = crate::scan::MAX_DEPTH;
        let ok = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&ok).is_ok() && crate::toml::parse(&format!("x = {ok}")).is_ok());
    }
}
