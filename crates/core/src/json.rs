//! A minimal, dependency-free JSON value with a deterministic writer and a
//! strict parser.
//!
//! The build environment is fully offline, so the machine-readable sweep
//! reports ([`crate::sweep::SweepReport`]) cannot pull in `serde`. This
//! module implements the small JSON subset those reports need:
//!
//! * objects keep their **insertion order** (they are backed by a `Vec`),
//!   so serialising the same value twice yields byte-identical text — the
//!   property the sweep determinism tests assert on;
//! * non-finite numbers serialise as `null` (JSON has no NaN/∞);
//! * the parser accepts exactly the JSON this writer emits plus standard
//!   whitespace, escapes and nesting, and rejects trailing garbage.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. (Non-finite values are written as `null`.)
    Number(f64),
    /// An unsigned integer, written exactly (no f64 round-trip: u64 seeds
    /// above 2^53 must survive serialisation bit-for-bit).
    Uint(u64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion-ordered, duplicate keys are the caller's bug.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value of `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number payload, if any (integers convert lossily above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Uint(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The unsigned-integer payload: an exact `Uint`, or a `Number` that is
    /// integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Uint(n) => Some(*n),
            Value::Number(n) if n.fract() == 0.0 && (0.0..9.007_199_254_740_992e15).contains(n) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, if any.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value to compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => {
                if n.is_finite() {
                    // Rust's shortest round-trip formatting is deterministic
                    // and parses back to the same f64.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Uint(n) => {
                let _ = write!(out, "{n}");
            }
            Value::String(s) => write_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Uint(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Uint(n as u64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

fn write_string(s: &str, out: &mut String) {
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

/// The deepest array/object nesting [`parse`] accepts, far deeper than any
/// document this crate writes. The parser recurses once per level, so the
/// bound keeps hostile input from overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`].
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with the
/// byte offset at which it occurred. Nesting deeper than 128 arrays and
/// objects is an error too.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_whitespace();
    let value = p.parse_value()?;
    p.skip_whitespace();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(format!(
                "unexpected character {:?} at byte {}",
                c as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parses one array or object with `parse`, one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_literal(&mut self, literal: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        // Non-negative integer literals parse exactly; everything else
        // (fractions, exponents, negatives, > u64::MAX) becomes f64.
        if !text.starts_with('-') && !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Uint(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| {
                                    format!("truncated \\u escape at byte {}", self.pos)
                                })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are not needed by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Decode one multi-byte UTF-8 character from a 4-byte
                    // window (never the whole tail: re-validating the rest
                    // of the document per character would be O(n^2)).
                    let end = (self.pos + 4).min(self.bytes.len());
                    let window = &self.bytes[self.pos..end];
                    let valid = match std::str::from_utf8(window) {
                        Ok(s) => s,
                        // The window may truncate the *following* char;
                        // the prefix up to the error is still valid UTF-8.
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&window[..e.valid_up_to()]).expect("valid prefix")
                        }
                        Err(_) => return Err(format!("invalid UTF-8 at byte {}", self.pos)),
                    };
                    let c = valid.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_round_trip() {
        let value = Value::object([
            ("name", Value::from("sweep")),
            ("seed", Value::from(2014u64)),
            ("ratio", Value::from(1.5)),
            ("ok", Value::Bool(true)),
            ("missing", Value::Null),
            (
                "items",
                Value::Array(vec![Value::from(1u64), Value::from("two")]),
            ),
        ]);
        let text = value.to_json();
        assert_eq!(
            text,
            r#"{"name":"sweep","seed":2014,"ratio":1.5,"ok":true,"missing":null,"items":[1,"two"]}"#
        );
        assert_eq!(parse(&text).unwrap(), value);
    }

    #[test]
    fn u64_values_round_trip_exactly() {
        // 2^53 + 1 is not representable as f64; the Uint variant must
        // carry it through serialise -> parse bit-for-bit.
        let seed = 9_007_199_254_740_993u64;
        let v = Value::object([("plan_seed", Value::from(seed))]);
        let text = v.to_json();
        assert_eq!(text, format!("{{\"plan_seed\":{seed}}}"));
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.get("plan_seed").and_then(Value::as_u64), Some(seed));
        assert_eq!(parsed, v);
        // as_u64 also accepts integral in-range Numbers, but not others.
        assert_eq!(Value::Number(42.0).as_u64(), Some(42));
        assert_eq!(Value::Number(1.5).as_u64(), None);
        assert_eq!(Value::Number(-1.0).as_u64(), None);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Value::Number(f64::INFINITY).to_json(), "null");
        assert_eq!(Value::Number(f64::NAN).to_json(), "null");
        assert_eq!(Value::Number(f64::NEG_INFINITY).to_json(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let v = Value::from("a\"b\\c\nd\u{1}");
        let text = v.to_json();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn object_order_is_preserved() {
        let a = Value::object([("b", Value::from(1u64)), ("a", Value::from(2u64))]);
        assert_eq!(a.to_json(), r#"{"b":1,"a":2}"#);
        assert_eq!(a.get("a"), Some(&Value::Uint(2)));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    /// Nesting is bounded, so a hostile document is an error rather than a
    /// stack overflow.
    #[test]
    fn deep_nesting_is_an_error() {
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let err = parse(&format!("[{deepest}]")).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at byte 128");
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at byte 128");
        let err = parse(&format!("{}1", "{\"a\":".repeat(200))).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128 at byte "), "{err}");
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let text = " { \"a\" : [ 1 , { \"b\" : null } ] , \"c\" : -2.5e-1 } ";
        let v = parse(text).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_f64), Some(-0.25));
        let items = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(3.0).as_f64(), Some(3.0));
        assert!(Value::Null.as_array().is_none());
        assert!(Value::from(1.0).as_str().is_none());
    }
}
