//! The scanner both readers share: a position in the text, and the values
//! TOML and JSON spell alike — strings, numbers, booleans and arrays. Each
//! format's own grammar (TOML's lines, headers and keys; JSON's objects
//! and `null`) sits in its module on top of it.

use crate::{Error, Value};

/// How deep arrays (and JSON objects) may nest: deeper input is an error,
/// not a stack overflow.
pub(crate) const MAX_DEPTH: usize = 128;

/// A syntax error on `line` of a TOML (else JSON) document.
pub(crate) fn syntax(toml: bool, line: usize, message: &str) -> Error {
    let format = if toml { "TOML" } else { "JSON" };
    let message = message.to_string();
    Error::Syntax {
        format,
        line,
        message,
    }
}

/// A read position in a document.
pub(crate) struct Scanner<'a> {
    text: &'a str,
    /// Byte offset of the next unread character.
    pub(crate) pos: usize,
    /// 1-based line of `pos`.
    pub(crate) line: usize,
    /// TOML (`#` comments, no objects or `null`) rather than JSON.
    toml: bool,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(text: &'a str, toml: bool) -> Scanner<'a> {
        Scanner {
            text,
            pos: 0,
            line: 1,
            toml,
            depth: 0,
        }
    }

    /// A syntax error at the read position.
    pub(crate) fn err(&self, message: &str) -> Error {
        syntax(self.toml, self.line, message)
    }

    /// The unread text.
    pub(crate) fn rest(&self) -> &'a str {
        self.text.get(self.pos..).unwrap_or_default()
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.rest().bytes().next()
    }

    /// Consumes `token` if the unread text starts with it.
    pub(crate) fn eat(&mut self, token: &str) -> bool {
        let found = self.rest().starts_with(token);
        self.pos += if found { token.len() } else { 0 };
        found
    }

    /// Skips blanks and, in TOML, a `#` comment up to its line's end; with
    /// `lines`, line breaks too (so also any comment lines in between).
    pub(crate) fn skip(&mut self, lines: bool) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'\n' if lines => {
                    self.pos += 1;
                    self.line += 1;
                }
                b'#' if self.toml => {
                    self.pos += self.rest().find('\n').unwrap_or(self.rest().len())
                }
                _ => break,
            }
        }
    }

    /// A string, an array, a boolean or a number (and, in JSON, an object
    /// or `null`).
    pub(crate) fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None | Some(b'\n') => Err(self.err("missing value")),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(self.err("nested too deeply")),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') if !self.toml => self.nested(crate::json::object),
            _ if self.eat("true") => Ok(Value::Bool(true)),
            _ if self.eat("false") => Ok(Value::Bool(false)),
            _ if !self.toml && self.eat("null") => Ok(Value::Null),
            _ => self.number(),
        }
    }

    fn nested(&mut self, read: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        self.depth += 1;
        let value = read(self);
        self.depth -= 1;
        value
    }

    /// An array, at its `[`: items may sit on lines of their own, with a
    /// trailing comma.
    fn array(&mut self) -> Result<Value, Error> {
        let opened = self.line;
        let unterminated =
            |s: &Self| syntax(s.toml, opened, "unterminated array (no `]` before the end)");
        self.pos += 1;
        let mut items = Vec::new();
        loop {
            self.skip(true);
            if self.peek().is_none() {
                return Err(unterminated(self));
            }
            if self.eat("]") {
                return Ok(Value::Array(items));
            }
            items.push(self.value()?);
            self.skip(true);
            if !self.eat(",") && !matches!(self.peek(), None | Some(b']')) {
                return Err(self.err("expected `,` or `]` in array"));
            }
        }
    }

    /// A string, at its `"`, with the escapes both formats share. A string
    /// ends on its line.
    pub(crate) fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let rest = self.rest();
            let run = rest.find(['"', '\\', '\n']).unwrap_or(rest.len());
            out.push_str(rest.get(..run).unwrap_or_default());
            self.pos += run;
            if self.eat("\"") {
                return Ok(out);
            }
            if !self.eat("\\") {
                return Err(self.err("unterminated string"));
            }
            let esc = self.rest().chars().next();
            self.pos += esc.map_or(0, char::len_utf8);
            out.push(match esc.ok_or_else(|| self.err("unterminated escape"))? {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                'b' => '\u{8}',
                'f' => '\u{c}',
                c @ ('"' | '\\' | '/') => c,
                'u' => {
                    let hex = self.rest().get(..4).unwrap_or_default();
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    // Lone surrogates (pairs are never written) become U+FFFD.
                    char::from_u32(code).unwrap_or('\u{FFFD}')
                }
                other => return Err(self.err(&format!("unsupported escape \\{other}"))),
            });
        }
    }

    /// A number: an integer unless it has a fraction or an exponent;
    /// `_` separators, `inf` and `nan` read as TOML spells them.
    fn number(&mut self) -> Result<Value, Error> {
        let rest = self.rest();
        let is_token = |c: char| c.is_ascii_alphanumeric() || "+-._".contains(c);
        let token = rest.get(..rest.find(|c| !is_token(c)).unwrap_or(rest.len()));
        let token = token.unwrap_or_default();
        if token.is_empty() {
            let found = rest.lines().next().unwrap_or_default();
            return Err(self.err(&format!("expected a value, found {found:?}")));
        }
        self.pos += token.len();
        let cleaned: String = token.chars().filter(|&c| c != '_').collect();
        if let Ok(i) = cleaned.parse() {
            return Ok(Value::Int(i));
        }
        let bad = || self.err(&format!("cannot parse value {token:?}"));
        cleaned.parse().map(Value::Float).map_err(|_| bad())
    }
}
