//! A minimal JSON value parser/writer for the serve protocol.
//!
//! The repo is dependency-free by policy, and the server speaks
//! line-delimited JSON, so this module provides the smallest JSON
//! surface the protocol needs: parse one request line into a [`Value`],
//! and re-serialize the request `id` for its echo. It is a strict
//! recursive-descent parser — RFC 8259 numbers, no trailing garbage, no
//! unquoted keys, depth-capped against hostile nesting. Numbers keep
//! their source text, so an echoed `id` is byte for byte the one sent.

use std::fmt;

use codesign_trace::json::quote;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite JSON number, as its source text.
    Num(String),
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
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.text.len() {
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
            Value::Num(text) => text.parse().ok(),
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
            Value::Num(text) => text.clone(),
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

/// Recursive-descent state over one line. `pos` only ever advances over
/// ASCII bytes or whole runs of string characters that end before an
/// ASCII byte, so it always lies on a char boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: impl Into<String>) -> JsonError {
        JsonError { at: self.pos, what: what.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
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
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
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

    /// Advances over a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// One number in RFC 8259's grammar (`-? int frac? exp?`, no leading
    /// zeros), kept as its source text: the text is echoed back, so it
    /// must itself be valid JSON.
    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int = match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                1
            }
            _ => self.digits(),
        };
        let mut valid = int > 0;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            valid &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            valid &= self.digits() > 0;
        }
        let text = &self.text[start..self.pos];
        if !valid {
            return Err(self.err(format!("bad number `{text}`")));
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(text.to_owned())),
            _ => Err(self.err(format!("number out of range `{text}`"))),
        }
    }

    /// The four hex digits after the `u` at `pos`, leaving `pos` on the
    /// last of them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .text
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        // Exactly four hex digits: `from_str_radix` alone would also
        // accept a leading sign.
        if !hex.bytes().all(|h| h.is_ascii_hexdigit()) {
            return Err(self.err("bad \\u escape"));
        }
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// The character a `\u` escape at `pos` (on the `u`) names, leaving
    /// `pos` on its last hex digit. A high surrogate must be followed by
    /// a `\u` low surrogate, and the pair names one character outside the
    /// Basic Multilingual Plane.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&high) {
            if self.text.get(self.pos + 1..self.pos + 3) != Some("\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err(self.err("unpaired surrogate"));
            }
            0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
        } else {
            high
        };
        // A low surrogate on its own is no character.
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
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
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // A run of plain characters, copied in one piece. It
                    // ends at a quote, a backslash or a control byte, all
                    // ASCII and so never inside a multi-byte character.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
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
pub(crate) mod tests {
    use std::panic::catch_unwind;
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;

    /// Parses `text` on its own thread and waits at most `limit` for the
    /// answer, so a parser that is too slow fails at the bound instead of
    /// holding the test until the parse ends (the late thread is left to
    /// the test process's exit).
    fn parse_within(text: String, limit: Duration) -> Result<Value, JsonError> {
        let (tx, rx) = mpsc::channel();
        let parser = std::thread::spawn(move || {
            let _ = tx.send(Value::parse(&text));
        });
        let parsed =
            rx.recv_timeout(limit).unwrap_or_else(|e| panic!("no parse within {limit:?}: {e}"));
        parser.join().expect("the parser thread sent its result and returned");
        parsed
    }

    /// Valid lines covering every value kind, every escape, multi-byte
    /// text, nesting and number forms: the seeds of
    /// [`every_mutation_of_a_valid_line_parses_or_is_refused_typed`].
    const SEEDS: [&str; 3] = [
        r#"{"id":"r1","cmd":"sweep","network":"tiny-darknet","arrays":[8,16],"jobs":2,"prune":true,"x":null}"#,
        r#"[-12.5,0,1e3,-0.0,2.5E-3,[true,false,null],{},{"a":[{"b":[1]}]}]"#,
        r#"{"s":"q\" b\\ s\/ \b\f\n\r\t \u00e9\u0041 é ✓","deep":[[[[]]]],"n":-7}"#,
    ];

    /// Deterministic xorshift stream for the random edits of this
    /// module's and `args`' mutation tests.
    pub(crate) struct XorShift(pub(crate) u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// A draw from `0..n`.
        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

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
        // Numbers are written back as sent: an `f64` would turn the first
        // into 9007199254740992, another request's id, and rewrite the rest.
        for id in ["9007199254740993", "12345678901234567891", "1.50", "1e2", "-0", "2.5E-3"] {
            assert_eq!(Value::parse(id).unwrap().to_json(), id);
        }
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
            "01",
            "-01",
            "1.",
            "1.e5",
            "-",
            "1e",
            "1e+",
            "+1",
            ".5",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Depth cap: 100 nested arrays overflow the limit, not the stack.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn as_usize_is_exact() {
        let num = |text: &str| Value::parse(text).unwrap();
        assert_eq!(num("3").as_usize(), Some(3));
        assert_eq!(num("1e2").as_usize(), Some(100));
        assert_eq!(num("3.0").as_usize(), Some(3));
        assert_eq!(num("4294967295").as_usize(), Some(u32::MAX as usize));
        assert_eq!(num("4294967296").as_usize(), None);
        assert_eq!(num("3.5").as_usize(), None);
        assert_eq!(num("-1").as_usize(), None);
        assert_eq!(num("2.5E-3").as_f64(), Some(0.0025));
        assert_eq!(Value::Str("3".to_owned()).as_usize(), None);
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            Value::parse(r#""\u0041\u00e9\uFFFD""#),
            Ok(Value::Str("Aé\u{fffd}".to_owned()))
        );
        // `from_str_radix` accepts a sign, so "+041" once decoded to `A`.
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004g""#, r#""\u12é""#] {
            assert_eq!(Value::parse(bad).unwrap_err().what, "bad \\u escape", "{bad}");
        }
        for short in [r#""\u004"#, r#""\u"#, "\"\\u0\u{e9}"] {
            assert_eq!(Value::parse(short).unwrap_err().what, "truncated \\u escape", "{short}");
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        // Python's default `json.dumps({"id": "😀"})` escapes the emoji
        // as a UTF-16 pair.
        assert_eq!(Value::parse(r#""\ud83d\ude00""#), Ok(Value::Str("😀".to_owned())));
        assert_eq!(Value::parse(r#""a\uD834\uDD1Eb""#), Ok(Value::Str("a𝄞b".to_owned())));
        for (bad, what) in [
            (r#""\ud83d""#, "unpaired surrogate"),
            (r#""\ud83dx""#, "unpaired surrogate"),
            (r#""\ud83d\n""#, "unpaired surrogate"),
            (r#""\ud83d\ud83d""#, "unpaired surrogate"),
            (r#""\ude00""#, "unpaired surrogate"),
            (r#""\ude00\ud83d""#, "unpaired surrogate"),
            (r#""\ud83d\ude0""#, "bad \\u escape"),
            (r#""\ud83d\ude0"#, "truncated \\u escape"),
            (r#""\ud83d\u"#, "truncated \\u escape"),
        ] {
            assert_eq!(Value::parse(bad).unwrap_err().what, what, "{bad}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Serve's default line cap is 1 MiB. One string filling it, and a
        // line of many short strings, each parse well within a second
        // even unoptimized; a parser that rescans the rest of the line
        // for every character takes minutes.
        let limit = Duration::from_secs(1);
        let cap = 1 << 20;
        let long = format!(r#"{{"pad":"{}"}}"#, "é".repeat(cap / 2 - 8));
        assert!(long.len() < cap);
        let v = parse_within(long, limit).unwrap();
        assert_eq!(v.get("pad").and_then(Value::as_str).map(str::len), Some(cap - 16));
        let item = r#""abcdefgh","#;
        let count = (cap - 8) / item.len();
        let many = format!(r#"[{}"z"]"#, item.repeat(count));
        assert!(many.len() < cap);
        let v = parse_within(many, limit).unwrap();
        assert_eq!(v.as_arr().map(<[Value]>::len), Some(count + 1));
    }

    #[test]
    fn every_mutation_of_a_valid_line_parses_or_is_refused_typed() {
        // The fixed-seed mutation pattern of the snapshot and checkpoint
        // decoders: every truncation and single-bit flip of each seed,
        // random edits drawn from JSON syntax, hostile nesting, huge and
        // malformed numbers, and bad escapes. Each line ends in a value
        // or a `JsonError`, never a panic, and every value round-trips
        // through `to_json`.
        let mut lines: Vec<String> = Vec::new();
        for seed in SEEDS {
            let v = Value::parse(seed).unwrap_or_else(|e| panic!("seed must parse: {e}: {seed}"));
            assert_eq!(Value::parse(&v.to_json()), Ok(v), "seed must round-trip: {seed}");
            let bytes = seed.as_bytes();
            for cut in 0..bytes.len() {
                // A strict prefix of an object or array never closes it.
                let prefix = String::from_utf8_lossy(&bytes[..cut]).into_owned();
                assert!(Value::parse(&prefix).is_err(), "prefix parsed: {prefix}");
                lines.push(prefix);
            }
            for (i, bit) in (0..bytes.len()).flat_map(|i| (0..8).map(move |bit| (i, bit))) {
                let mut bad = bytes.to_vec();
                bad[i] ^= 1 << bit;
                // The connection loop decodes lines lossily, so do the same.
                lines.push(String::from_utf8_lossy(&bad).into_owned());
            }
        }
        let alphabet = [
            "{", "}", "[", "]", ",", ":", "\"", "\\", "u", "0", "9", "f", "-", "+", ".", "e", " ",
            "\u{1}", "é",
        ];
        let mut rng = XorShift(0x6a50_7a1d_f00d_5eed);
        for _ in 0..2_000 {
            let mut line = SEEDS[rng.below(SEEDS.len())].as_bytes().to_vec();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(line.len());
                let token = alphabet[rng.below(alphabet.len())].bytes();
                match rng.below(3) {
                    0 => {
                        line.remove(at);
                    }
                    1 => drop(line.splice(at..at, token)),
                    _ => drop(line.splice(at..at + 1, token)),
                }
            }
            lines.push(String::from_utf8_lossy(&line).into_owned());
        }
        for depth in [63, 64, 65, 66, 100, 100_000] {
            lines.push("[".repeat(depth) + &"]".repeat(depth));
            lines.push(r#"{"a":"#.repeat(depth) + "1" + &"}".repeat(depth));
            lines.push("[".repeat(depth));
        }
        let numbers = [
            "1e999",
            "-1e400",
            "1e-400",
            "5e-324",
            "1.7976931348623157e308",
            "18446744073709551616",
            "-0",
            "01",
            "1.",
            ".5",
            "+1",
            "--1",
            "1..2",
            "1e",
            "1e+",
            "1-2",
            "0x10",
            "-",
        ];
        for n in numbers {
            lines.push(n.to_owned());
            lines.push(format!(r#"{{"id":{n},"a":[{n}]}}"#));
        }
        lines.push("1".repeat(100_000));
        lines.push(format!("0.{}1", "0".repeat(100_000)));
        for escape in
            [r"\", r"\u", r"\u0", r"\ud800", r"\udfff", r"\x41", r"\'", r"\U0041", r"\u{41}"]
        {
            lines.push(format!(r#"["{escape}"]"#));
            lines.push(format!(r#""{escape}"#));
        }
        assert_eq!(lines.len(), 4_180, "every seed byte mutated, every extra case kept");
        let mut refused = 0;
        for line in &lines {
            match catch_unwind(|| Value::parse(line)) {
                Ok(Ok(v)) => {
                    let again = Value::parse(&v.to_json());
                    assert_eq!(again, Ok(v), "accepted value does not round-trip: {line}");
                }
                Ok(Err(_)) => refused += 1,
                Err(_) => panic!("parse panicked on {line:?}"),
            }
        }
        assert!(refused > lines.len() / 2, "only {refused} of {} lines were refused", lines.len());
    }
}
