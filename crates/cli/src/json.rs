//! A minimal JSON parser (for `nf inspect` reading `metrics.json`, and
//! for `.json` configs).
//!
//! Writing JSON lives on [`crate::value::Value::to_json`]; this is the
//! other direction. Standard JSON: objects, arrays, strings with escapes
//! (including `\uXXXX`), numbers, booleans, null. Like the TOML module it
//! is all the offline build needs, and it never panics on its input.

use crate::error::CliError;
use crate::value::Value;

/// Parses a JSON document.
pub fn parse(input: &str) -> Result<Value, CliError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

/// Reads the JSON file at `path`.
pub fn parse_file(path: &std::path::Path) -> Result<Value, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("reading {}: {e}", path.display())))?;
    parse(&text).map_err(|e| CliError::new(format!("{}: {e}", path.display())))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> CliError {
        CliError::new(format!("JSON parse error at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> Result<(), CliError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {token:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, CliError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.eat("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Value::Bool(false)),
            Some(b'n') => self.eat("null").map(|_| Value::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, CliError> {
        self.pos += 1; // '{'
        let mut table = crate::value::Table::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(table.build());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            let value = self.value()?;
            table.insert(&key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(table.build());
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, CliError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, CliError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-path a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or_default())
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our own
                            // artifacts; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(self.err(&format!("unsupported escape \\{}", other as char)))
                        }
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, CliError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let token = std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or_default())
            .map_err(|_| self.err("bad number"))?;
        if !token.contains(['.', 'e', 'E']) {
            if let Ok(i) = token.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        token
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err(&format!("cannot parse number {token:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, null, true], "b": {"c": "x\ny"}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap(),
            &[
                Value::Int(1),
                Value::Float(2.5),
                Value::Null,
                Value::Bool(true)
            ]
        );
        assert_eq!(
            v.get("b").unwrap().get("c").and_then(Value::as_str),
            Some("x\ny")
        );
    }

    #[test]
    fn round_trips_own_rendering() {
        let mut t = crate::value::Table::new();
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
        let v = parse(r#"{"s": "Aé"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("Aé"));
    }

    #[test]
    fn malformed_documents_error() {
        for doc in ["{", "[1,", "{\"a\" 1}", "tru", "{\"a\": 1} extra", ""] {
            assert!(parse(doc).is_err(), "{doc:?} should fail");
        }
    }
}
