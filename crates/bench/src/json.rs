//! A minimal JSON value, builder, and pretty-printer.
//!
//! Replaces `serde_json` for the harnesses' result files. The printer
//! matches `serde_json::to_string_pretty` byte-for-byte for the shapes the
//! figures emit: two-space indentation, keys sorted lexicographically,
//! floats in shortest-round-trip form with a trailing `.0` for integral
//! values, non-finite floats as `null`.
//!
//! # Example
//!
//! ```
//! use pard_bench::json::JsonValue;
//! let v = JsonValue::object()
//!     .field("rate", 0.5)
//!     .field("points", vec![1u64, 2, 3]);
//! assert_eq!(
//!     v.to_string_pretty(),
//!     "{\n  \"points\": [\n    1,\n    2,\n    3\n  ],\n  \"rate\": 0.5\n}"
//! );
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (covers every count the harnesses emit).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A double; non-finite values print as `null` like serde_json.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with lexicographically sorted keys.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// An empty object, ready for [`field`](JsonValue::field) chaining.
    pub fn object() -> JsonValue {
        JsonValue::Object(BTreeMap::new())
    }

    /// An empty array, ready for [`push`](JsonValue::push) chaining.
    pub fn array() -> JsonValue {
        JsonValue::Array(Vec::new())
    }

    /// Inserts `key` into an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> JsonValue {
        match &mut self {
            JsonValue::Object(map) => {
                map.insert(key.into(), value.into());
            }
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Appends to an array (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an array.
    pub fn push(mut self, value: impl Into<JsonValue>) -> JsonValue {
        match &mut self {
            JsonValue::Array(items) => items.push(value.into()),
            other => panic!("push() on non-array {other:?}"),
        }
        self
    }

    /// Serialises with two-space indentation (the `serde_json` pretty
    /// format the committed `fig*.json` files use).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Parses a JSON document (the inverse of the printer; accepts any
    /// standard JSON, not just printer output).
    ///
    /// Non-negative integers parse as [`JsonValue::UInt`], negative
    /// integers as [`JsonValue::Int`], everything else numeric as
    /// [`JsonValue::Float`]. Duplicate object keys keep the last value.
    ///
    /// # Errors
    ///
    /// Returns the byte offset and a description of the first syntax
    /// error, including trailing non-whitespace after the document.
    pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON document"));
        }
        Ok(v)
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(u) => Some(*u),
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::Float(f) => write_f64(out, *f),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

/// A JSON syntax error: where it happened and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            // The unescaped run is valid UTF-8 because the input is &str
            // and we only stop at ASCII delimiters.
            s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("input is UTF-8"));
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Decode a surrogate pair when one follows.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                None => return Err(self.err("unterminated string")),
                Some(_) => unreachable!("loop stops only at '\"' or '\\\\'"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| ParseError {
                offset: start,
                message: "invalid number".to_string(),
            })
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Shortest round-trip float text; integral finite values keep a `.0`
/// suffix and non-finite values become `null`, matching serde_json.
fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e16 {
        let _ = write!(out, "{f:.1}");
    } else {
        let _ = write!(out, "{f}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::UInt(v.into())
    }
}
impl From<u16> for JsonValue {
    fn from(v: u16) -> Self {
        JsonValue::UInt(v.into())
    }
}
impl From<u8> for JsonValue {
    fn from(v: u8) -> Self {
        JsonValue::UInt(v.into())
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}
impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<JsonValue> + Clone, const N: usize> From<[T; N]> for JsonValue {
    fn from(v: [T; N]) -> Self {
        JsonValue::Array(v.iter().cloned().map(Into::into).collect())
    }
}
impl<A: Into<JsonValue>, B: Into<JsonValue>> From<(A, B)> for JsonValue {
    fn from((a, b): (A, B)) -> Self {
        JsonValue::Array(vec![a.into(), b.into()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serde_json_shape() {
        // The exact shape of the committed fig11.json.
        let v = JsonValue::object()
            .field("baseline_mean_cycles", 14.6)
            .field("high_mean_cycles", 2.0)
            .field("inject_rate", 0.55)
            .field("low_mean_cycles", 15.2)
            .field("low_penalty_pct", 4.109589041095885)
            .field("speedup", 7.3);
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"baseline_mean_cycles\": 14.6,\n  \"high_mean_cycles\": 2.0,\n  \
             \"inject_rate\": 0.55,\n  \"low_mean_cycles\": 15.2,\n  \
             \"low_penalty_pct\": 4.109589041095885,\n  \"speedup\": 7.3\n}"
        );
    }

    #[test]
    fn keys_sort_regardless_of_insertion_order() {
        let v = JsonValue::object().field("b", 1u64).field("a", 2u64);
        assert_eq!(v.to_string_pretty(), "{\n  \"a\": 2,\n  \"b\": 1\n}");
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        let v = JsonValue::from(10.0);
        assert_eq!(v.to_string_pretty(), "10.0");
        assert_eq!(JsonValue::from(0.93243286).to_string_pretty(), "0.93243286");
        assert_eq!(JsonValue::from(f64::NAN).to_string_pretty(), "null");
    }

    #[test]
    fn tuples_series_and_options_nest() {
        let series: Vec<(f64, f64)> = vec![(0.0, 1.5)];
        let v = JsonValue::object()
            .field("series", series)
            .field("fired", Option::<f64>::None);
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"fired\": null,\n  \"series\": [\n    [\n      0.0,\n      1.5\n    ]\n  ]\n}"
        );
    }

    #[test]
    fn strings_escape() {
        let v = JsonValue::from("a\"b\\c\nd");
        assert_eq!(v.to_string_pretty(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_containers_are_compact() {
        assert_eq!(JsonValue::array().to_string_pretty(), "[]");
        assert_eq!(JsonValue::object().to_string_pretty(), "{}");
    }

    #[test]
    fn parse_round_trips_printer_output() {
        let v = JsonValue::object()
            .field("rate", 0.5)
            .field("n", 42u64)
            .field("neg", -7i64)
            .field("name", "llc \"shared\"\n")
            .field("flag", true)
            .field("missing", Option::<u64>::None)
            .field("points", vec![1u64, 2, 3]);
        let parsed = JsonValue::parse(&v.to_string_pretty()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn parse_handles_trace_lines_and_accessors() {
        let line = r#"{"time":2.25,"ds":3,"cat":"llc","event":"miss","addr":64,"hot":true}"#;
        let v = JsonValue::parse(line).unwrap();
        assert_eq!(v.get("ds").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("cat").and_then(JsonValue::as_str), Some("llc"));
        assert_eq!(v.get("time").and_then(JsonValue::as_f64), Some(2.25));
        assert_eq!(v.get("addr").and_then(JsonValue::as_u64), Some(64));
        assert_eq!(v.get("nope"), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1}x",
            "nan",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_decodes_escapes_and_number_shapes() {
        let v = JsonValue::parse(r#"["Aé😀", 1e3, -2.5, 18446744073709551615]"#).unwrap();
        let JsonValue::Array(items) = v else {
            panic!("expected array")
        };
        assert_eq!(items[0].as_str(), Some("Aé😀"));
        assert_eq!(items[1], JsonValue::Float(1000.0));
        assert_eq!(items[2], JsonValue::Float(-2.5));
        assert_eq!(items[3], JsonValue::UInt(u64::MAX));

        // \u escapes, including a surrogate pair.
        let s = JsonValue::parse(r#""\u0041\u00e9 \ud83d\ude00\t""#).unwrap();
        assert_eq!(s.as_str(), Some("Aé 😀\t"));
    }
}
