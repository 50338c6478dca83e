//! A std-only codec for flat JSON objects.
//!
//! The fleetd wire protocol and the postmortem bundle header both speak
//! single flat objects of string / integer / float / bool values — rich
//! enough for every message they carry, small enough to parse by hand
//! without pulling in a dependency. [`ObjectWriter`] renders one field
//! at a time; [`parse_object`] reads one back. Numbers keep their raw
//! text until an accessor asks for `u64` or `f64`, so 64-bit seeds
//! survive without float rounding.
//!
//! The parser never panics: every malformed input is a [`JsonError`].
//!
//! # Examples
//!
//! ```
//! use vs_types::json::{parse_object, ObjectWriter};
//!
//! let text = ObjectWriter::new()
//!     .str("type", "done")
//!     .u64("seed", u64::MAX)
//!     .f64("mean", 0.5)
//!     .bool("ok", true)
//!     .finish();
//! assert_eq!(
//!     text,
//!     r#"{"type":"done","seed":18446744073709551615,"mean":0.5,"ok":true}"#
//! );
//! let fields = parse_object(&text).unwrap();
//! assert_eq!(fields["seed"].as_u64(), Some(u64::MAX));
//! assert_eq!(fields["type"].as_str(), Some("done"));
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// One value of a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A string, unescaped.
    Str(String),
    /// A number as its raw text (`null` is kept as the text `"null"`,
    /// which no numeric accessor accepts).
    Num(String),
    /// A boolean.
    Bool(bool),
}

impl Scalar {
    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is a number that fits one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Why a flat object failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Appends `s` to `out` escaped for a JSON string literal: quotes,
/// backslashes and control characters are escaped, everything else
/// (non-ASCII included) passes through.
fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Incrementally builds one flat JSON object, fields in call order.
#[derive(Debug)]
pub struct ObjectWriter {
    out: String,
}

impl Default for ObjectWriter {
    fn default() -> ObjectWriter {
        ObjectWriter::new()
    }
}

impl ObjectWriter {
    /// An empty object.
    pub fn new() -> ObjectWriter {
        let mut out = String::with_capacity(128);
        out.push('{');
        ObjectWriter { out }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        self.out.push('"');
        escape_into(key, &mut self.out);
        self.out.push_str("\":");
        &mut self.out
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> ObjectWriter {
        let out = self.key(key);
        out.push('"');
        escape_into(value, out);
        out.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> ObjectWriter {
        let out = self.key(key);
        out.push_str(&value.to_string());
        self
    }

    /// Adds a float field in Rust's shortest round-trip (`{:?}`) form.
    /// JSON has no NaN or infinity, so a non-finite value is written as
    /// `null` — which reads back as a mistyped field, the honest answer.
    pub fn f64(mut self, key: &str, value: f64) -> ObjectWriter {
        let out = self.key(key);
        if value.is_finite() {
            out.push_str(&format!("{value:?}"));
        } else {
            out.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> ObjectWriter {
        let out = self.key(key);
        out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Parses one flat JSON object (surrounding whitespace allowed, nothing
/// else after it). Duplicate keys keep the last value.
pub fn parse_object(text: &str) -> Result<BTreeMap<String, Scalar>, JsonError> {
    Parser {
        bytes: text.as_bytes(),
        pos: 0,
    }
    .object()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(msg: &str) -> JsonError {
        JsonError(msg.to_string())
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Self::err(&format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(Self::err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Self::err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Self::err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Self::err("bad \\u escape"))?;
                            // Surrogates would need pairing; the writer
                            // never emits them, so reject rather than
                            // guess.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Self::err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(Self::err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return Err(Self::err("raw control byte in string")),
                Some(_) => {
                    // Multi-byte UTF-8 is passed through; the input is a
                    // `&str`, so it is already valid UTF-8.
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| Self::err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn scalar(&mut self) -> Result<Scalar, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(Scalar::Str(self.string()?)),
            Some(b't') => self.literal("true").map(|()| Scalar::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Scalar::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Scalar::Num("null".into())),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Self::err("invalid UTF-8"))?;
                // Validate now so accessors can trust the text parses as
                // *some* number.
                text.parse::<f64>()
                    .map_err(|_| Self::err(&format!("bad number {text:?}")))?;
                Ok(Scalar::Num(text.to_string()))
            }
            _ => Err(Self::err("expected a scalar value")),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(Self::err(&format!("expected {word}")))
        }
    }

    fn object(&mut self) -> Result<BTreeMap<String, Scalar>, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                let value = self.scalar()?;
                map.insert(key, value);
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(Self::err("expected ',' or '}'")),
                }
            }
        }
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Self::err("trailing bytes after object"));
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_strings_round_trip() {
        let nasty = "quote \" backslash \\ nl \n cr \r tab \t nul \u{0} esc \u{1b} é 日本 🚀";
        let text = ObjectWriter::new().str("k\"ey", nasty).finish();
        assert!(!text.bytes().any(|b| b < 0x20), "no raw control bytes");
        let fields = parse_object(&text).unwrap();
        assert_eq!(fields["k\"ey"].as_str(), Some(nasty));
    }

    #[test]
    fn accessors_are_typed() {
        let fields = parse_object(r#"{"n":-1.5e3,"b":false,"s":"7","z":null}"#).unwrap();
        assert_eq!(fields["n"].as_f64(), Some(-1500.0));
        assert_eq!(fields["n"].as_u64(), None);
        assert_eq!(fields["b"].as_bool(), Some(false));
        assert_eq!(fields["s"].as_u64(), None, "strings are not numbers");
        assert_eq!(fields["z"].as_f64(), None, "null is no number");
        let inf = ObjectWriter::new().f64("x", f64::INFINITY).finish();
        assert_eq!(inf, r#"{"x":null}"#);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1]",
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{"a":1} x"#,
            r#"{"a":"\u12"}"#,
            r#"{"a":"\ud800"}"#,
            "{\"a\":\"raw\u{1}\"}",
            r#"{"a":tru}"#,
            r#"{"a":1e}"#,
        ] {
            assert!(parse_object(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
