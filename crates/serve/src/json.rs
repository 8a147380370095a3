//! A minimal, hand-rolled JSON value with a hardened parser and a
//! canonical writer.
//!
//! The workspace has no registry access (PR 1), so the wire codec cannot
//! lean on serde. This module implements exactly the JSON subset the
//! serving protocol needs, with the same hostile-input discipline as the
//! snapshot decoder (PR 4): a **nesting-depth cap**, an **input-size cap**
//! enforced by the caller via HTTP body limits, full-input consumption
//! (no trailing garbage), and no recursion on attacker-controlled depth
//! beyond the cap — a truncated or malicious document errors, it never
//! panics or overflows the stack.
//!
//! Objects preserve insertion order (they are association lists, not
//! maps): the writer is deterministic, so encode → decode → encode is
//! byte-identical, which the wire round-trip tests rely on.

use std::fmt::{self, Write as _};

/// Maximum nesting depth the parser accepts. Deep enough for any protocol
/// message (the wire format nests < 8 levels), shallow enough that a
/// `[[[[…]]]]` bomb errors long before the stack is at risk.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`, like browser JSON).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an insertion-ordered association list.
    Obj(Vec<(String, Json)>),
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for a number value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Looks a key up in an object (first occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number holding one
    /// exactly (rejects fractions, negatives and magnitudes from 2^53 up,
    /// where `f64` stops being exact: `9007199254740993` parses to 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `Json::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parses a complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Serializes the value. Deterministic: object fields keep insertion
    /// order, and numbers and strings go through [`write_num`] and
    /// [`write_str`], the primitives the wire writer uses.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => write_arr(items, out, Json::write_into),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `n` as a JSON number: an integer below 10^15 without a
/// fraction, anything else in Rust's shortest form that round-trips
/// through `f64::from_str`. JSON has no NaN or infinity, so those degrade
/// to `null` rather than emit an unparseable token.
pub fn write_num(n: f64, out: &mut String) {
    // `fmt::Write` for `String` never fails.
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends `s` as a JSON string literal. Only `"`, `\` and the control
/// characters below U+0020 are escaped; every other character, non-BMP
/// ones included, is copied as it is.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so the runs copied between
    // escapes start and end on character boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(s.get(run..i).unwrap_or_default());
        run = i + 1;
        let _ = match b {
            b'"' => out.write_str("\\\""),
            b'\\' => out.write_str("\\\\"),
            b'\n' => out.write_str("\\n"),
            b'\r' => out.write_str("\\r"),
            b'\t' => out.write_str("\\t"),
            0x08 => out.write_str("\\b"),
            0x0c => out.write_str("\\f"),
            _ => write!(out, "\\u{b:04x}"),
        };
    }
    out.push_str(s.get(run..).unwrap_or_default());
    out.push('"');
}

/// Appends `items` as a JSON array, each element written by `item`.
pub fn write_arr<T>(items: &[T], out: &mut String, item: impl Fn(&T, &mut String)) {
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(x, out);
    }
    out.push(']');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn eat_literal(&mut self, lit: &'static str, value: Json) -> Result<Json, JsonError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a following \uXXXX low
                                // surrogate is mandatory.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                // Raw control bytes are invalid inside JSON strings.
                0x00..=0x1F => return Err(self.err("control character in string")),
                _ => {
                    // Re-validate multi-byte UTF-8 from the original
                    // input; `bytes` came from a `&str`, so slicing at a
                    // char boundary is safe by construction.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let Some(seq) = self.bytes.get(start..start + width).filter(|_| width != 0)
                    else {
                        return Err(self.err("invalid UTF-8"));
                    };
                    self.pos = start + width;
                    let s = std::str::from_utf8(seq).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .ok_or_else(|| self.err("malformed number bytes"))?;
        let n: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }
}

/// Expected byte width of a UTF-8 sequence starting with `b`, or 0 for an
/// invalid leading byte.
fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC2..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF4 => 4,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(doc: &str) -> Json {
        let v = Json::parse(doc).unwrap();
        let re = Json::parse(&v.write()).unwrap();
        assert_eq!(v, re, "write → parse diverged for {doc}");
        v
    }

    #[test]
    fn scalars_round_trip() {
        assert_eq!(round_trip("null"), Json::Null);
        assert_eq!(round_trip("true"), Json::Bool(true));
        assert_eq!(round_trip("false"), Json::Bool(false));
        assert_eq!(round_trip("42"), Json::Num(42.0));
        assert_eq!(round_trip("-3.5e2"), Json::Num(-350.0));
        assert_eq!(round_trip("\"你好\""), Json::str("你好"));
    }

    #[test]
    fn structures_round_trip_in_order() {
        let v = round_trip(r#"{"b":[1,2,{"x":null}],"a":"刘德华（歌手）","n":0.25}"#);
        assert_eq!(v.get("a").unwrap().as_str(), Some("刘德华（歌手）"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(0.25));
        let Json::Obj(fields) = &v else { panic!() };
        // Insertion order preserved ⇒ deterministic writer.
        assert_eq!(fields[0].0, "b");
        assert_eq!(v.write(), Json::parse(&v.write()).unwrap().write());
    }

    #[test]
    fn escapes_round_trip() {
        let v = round_trip(r#""line\n\ttab \"q\" back\\slash \u00e9 \ud83d\ude00""#);
        assert_eq!(v.as_str(), Some("line\n\ttab \"q\" back\\slash é 😀"));
        // Writer escapes control characters it emits.
        assert_eq!(Json::str("a\u{1}b").write(), r#""a\u0001b""#);
        assert_eq!(
            Json::parse(&Json::str("a\u{1}b").write()).unwrap(),
            Json::str("a\u{1}b")
        );
    }

    #[test]
    fn malformed_documents_error_cleanly() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "[1 2]",
            r#"{"a"}"#,
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{a:1}"#,
            "nul",
            "tru",
            "01x",
            "-",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\u12\"",
            "\"lone \\ud800 surrogate\"",
            "1 2",
            "[]extra",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn hostile_numbers_are_typed_errors_not_panics() {
        for bad in ["1e309", "-1e309", "1e999999999999999999999"] {
            let err = Json::parse(bad).unwrap_err();
            assert_eq!(err.message, "number out of range", "{bad}");
        }
        // Long-but-representable literals round to the nearest f64.
        let long = format!("0.{}", "3".repeat(60));
        assert_eq!(Json::parse(&long).unwrap().as_f64(), Some(1.0 / 3.0));
    }

    #[test]
    fn depth_bomb_is_rejected_not_overflowed() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        // Depths within the cap parse fine.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn u64_accessor_rejects_inexact_numbers() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None);
        let below = Json::parse("9007199254740991").unwrap();
        assert_eq!(below.as_u64(), Some(9_007_199_254_740_991));
        // 2^53 + 1 rounds to 2^53 on parse: a different number, refused.
        assert_eq!(Json::parse("9007199254740993").unwrap().as_u64(), None);
        assert_eq!(Json::Null.as_u64(), None);
    }

    #[test]
    fn nonfinite_numbers_degrade_to_null() {
        assert_eq!(Json::Num(f64::NAN).write(), "null");
        assert_eq!(Json::Num(f64::INFINITY).write(), "null");
    }
}
