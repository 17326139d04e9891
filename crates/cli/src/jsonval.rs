//! A minimal JSON value parser/writer for the serve protocol.
//!
//! The repo is dependency-free by policy, and the server speaks
//! line-delimited JSON, so this module provides the smallest JSON
//! surface the protocol needs: parse one request line into a [`Value`],
//! and re-serialize scalars (the request `id` echo). It is a strict
//! recursive-descent parser — no trailing garbage, no unquoted keys,
//! depth-capped against hostile nesting.

use std::fmt;

use codesign_trace::json::quote;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys keep the last).
    Obj(Vec<(String, Value)>),
}

/// Parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Nesting cap: a request line has no business nesting deeper than this,
/// and the recursive parser must not let a hostile line overflow the
/// connection thread's stack.
const MAX_DEPTH: usize = 64;

impl Value {
    /// Parses exactly one JSON value (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// [`JsonError`] on any syntax error, depth overflow, or trailing
    /// non-whitespace.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (rejects fractions, negatives, and non-numbers).
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n) {
            Some(n as usize)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes this value back to JSON text.
    pub fn to_json(&self) -> String {
        match self {
            Value::Null => "null".to_owned(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) if n.is_finite() => format!("{n}"),
            // JSON has no NaN/Infinity; null is the conventional fallback.
            Value::Num(_) => "null".to_owned(),
            Value::Str(s) => quote(s),
            Value::Arr(items) => {
                let inner: Vec<String> = items.iter().map(Value::to_json).collect();
                format!("[{}]", inner.join(","))
            }
            Value::Obj(fields) => {
                let inner: Vec<String> =
                    fields.iter().map(|(k, v)| format!("{}:{}", quote(k), v.to_json())).collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: impl Into<String>) -> JsonError {
        JsonError { at: self.pos, what: what.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        let n: f64 = text.parse().map_err(|_| self.err(format!("bad number `{text}`")))?;
        if n.is_finite() {
            Ok(Value::Num(n))
        } else {
            Err(self.err(format!("number out of range `{text}`")))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates would need pairing; the protocol
                            // never emits them, so reject instead of
                            // silently mangling.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unpaired surrogate"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so slicing
                    // on char boundaries is safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    if let Some(c) = rest.chars().next() {
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_request_line() {
        let v = Value::parse(
            r#"{"id":"r1","cmd":"sweep","network":"tiny-darknet","arrays":[8,16],"jobs":2}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("r1"));
        assert_eq!(v.get("jobs").and_then(Value::as_usize), Some(2));
        let arrays: Vec<usize> =
            v.get("arrays").unwrap().as_arr().unwrap().iter().filter_map(Value::as_usize).collect();
        assert_eq!(arrays, vec![8, 16]);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn scalars_and_escapes_round_trip() {
        for text in [r#""hi \"there\"\n""#, "null", "true", "false", "-12.5", "[1,[2,[3]]]"] {
            let v = Value::parse(text).unwrap();
            assert_eq!(Value::parse(&v.to_json()).unwrap(), v, "{text}");
        }
        assert_eq!(Value::parse(r#""é""#).unwrap(), Value::Str("é".to_owned()));
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let v = Value::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{'a':1}",
            r#"{"a" 1}"#,
            "nul",
            "1 2",
            "\"unterminated",
            "\u{1}",
            r#""\ud800""#,
            "1e999",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Depth cap: 100 nested arrays overflow the limit, not the stack.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn as_usize_is_exact() {
        assert_eq!(Value::Num(3.0).as_usize(), Some(3));
        assert_eq!(Value::Num(3.5).as_usize(), None);
        assert_eq!(Value::Num(-1.0).as_usize(), None);
        assert_eq!(Value::Str("3".to_owned()).as_usize(), None);
    }
}
