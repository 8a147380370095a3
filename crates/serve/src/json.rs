//! A minimal, hand-rolled JSON value, one hardened grammar, and a
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
//! **One grammar.** [`Reader`] is a pull reader over a document's bytes:
//! it hands out the next [`Token`] (a string borrowed from the input when
//! it holds no escape), walks arrays and objects entry by entry, and skips
//! a value without allocating. It alone holds the rules: whitespace,
//! literals, RFC 8259 numbers (no leading zeros) and strings (escapes,
//! `\u` with exactly four hex digits, surrogate pairs, no raw control
//! characters), and [`MAX_DEPTH`]. [`Json::parse`] builds its tree on it,
//! and `wire`'s request readers decode queries on it with no tree, so both
//! accept the same documents and fail with the same [`JsonError`] at the
//! same byte. A reader that meets an invalid *request* keeps reading to
//! the end of the body first, so a syntax error anywhere in a body is
//! reported before any wire error, as it was when the body was parsed
//! whole.
//!
//! Objects preserve insertion order (they are association lists, not
//! maps): the writer is deterministic, so encode → decode → encode is
//! byte-identical, which the wire round-trip tests rely on.

use std::borrow::Cow;
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
        self.as_f64().and_then(exact_u64)
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
    /// error. Built on [`Reader`], so a document parses here exactly when
    /// it reads there, with the same error at the same byte.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut reader = Reader::new(input);
        let value = tree(&mut reader)?;
        reader.finish()?;
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

/// `n` as a non-negative integer, if it holds one exactly: no fraction, no
/// sign, and below 2^53, where `f64` stops being exact.
fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n < 9_007_199_254_740_992.0).then_some(n as u64)
}

/// Builds the tree of the value at `reader`'s position. Recursion is
/// bounded: [`Reader::value`] refuses a value nested deeper than
/// [`MAX_DEPTH`] before it opens it.
fn tree(reader: &mut Reader<'_>) -> Result<Json, JsonError> {
    Ok(match reader.value()? {
        Token::Null => Json::Null,
        Token::Bool(b) => Json::Bool(b),
        Token::Num(n) => Json::Num(n),
        Token::Str(s) => Json::Str(s.into_owned()),
        Token::Arr => {
            let mut items = Vec::new();
            while reader.next_item()? {
                items.push(tree(reader)?);
            }
            Json::Arr(items)
        }
        Token::Obj => {
            let mut fields = Vec::new();
            while let Some(key) = reader.next_key()? {
                let value = tree(reader)?;
                fields.push((key.into_owned(), value));
            }
            Json::Obj(fields)
        }
    })
}

/// What [`Reader::value`] read: a whole scalar, or the opening bracket of
/// a container whose contents [`Reader::next_item`] /
/// [`Reader::next_key`] walk.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string, borrowed from the input unless it holds an escape.
    Str(Cow<'a, str>),
    /// `[`.
    Arr,
    /// `{`.
    Obj,
}

impl<'a> Token<'a> {
    /// The string, if the token is one.
    pub fn into_str(self) -> Option<Cow<'a, str>> {
        match self {
            Token::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if the token is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Token::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as [`Json::as_u64`] reads it.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// The bool, if the token is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Token::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A pull reader over one JSON document: the grammar [`Json::parse`]
/// builds its tree with.
///
/// Read a value with [`value`](Reader::value); after a [`Token::Arr`] call
/// [`next_item`](Reader::next_item) before each item until it says the
/// array closed, after a [`Token::Obj`] call
/// [`next_key`](Reader::next_key) before each field's value until it
/// returns `None`. [`skip_value`](Reader::skip_value) and
/// [`skip_rest`](Reader::skip_rest) check what they pass over against the
/// same rules and allocate nothing; [`finish`](Reader::finish) refuses
/// trailing characters.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the position.
    depth: usize,
    /// Set by an opening bracket: the next entry is the container's first.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// Reads the next value: the whole of a scalar, the bracket of a
    /// container. A value inside more than [`MAX_DEPTH`] containers is an
    /// error.
    #[inline]
    pub fn value(&mut self) -> Result<Token<'a>, JsonError> {
        self.token(true)
    }

    /// Steps into an open array: `true` when an item follows (read it
    /// next), `false` when the array closed.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.more(b']', "expected ',' or ']'")
    }

    /// Steps into an open object: the next field's key (read its value
    /// next), or `None` when the object closed.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.key(true)
    }

    /// Checks and passes over the next value.
    #[inline]
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        let token = self.token(false)?;
        self.skip_rest(&token)
    }

    /// Checks and passes over what is left of a value whose first token
    /// was `token`: a container's contents, nothing after a scalar.
    pub fn skip_rest(&mut self, token: &Token<'a>) -> Result<(), JsonError> {
        match token {
            Token::Arr => {
                while self.next_item()? {
                    self.skip_value()?;
                }
            }
            Token::Obj => {
                while self.key(false)?.is_some() {
                    self.skip_value()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Ends the document: only whitespace may follow the value.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after document"))
        }
    }

    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    /// The input from `start` to `end`, two positions next to ASCII bytes.
    fn slice(&self, start: usize, end: usize) -> &'a str {
        self.text.get(start..end).unwrap_or_default()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    /// [`value`](Reader::value); with `decode` false a string is checked
    /// but not unescaped.
    fn token(&mut self, decode: bool) -> Result<Token<'a>, JsonError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Token::Null),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'"') => self.string(decode).map(Token::Str),
            Some(b'[') => Ok(self.open(Token::Arr)),
            Some(b'{') => Ok(self.open(Token::Obj)),
            Some(b'-' | b'0'..=b'9') => self.number().map(Token::Num),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn open(&mut self, token: Token<'a>) -> Token<'a> {
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        token
    }

    /// Steps to a container's next entry: `true` when one follows, `false`
    /// (and the container closed) at `close`.
    fn more(&mut self, close: u8, message: &'static str) -> Result<bool, JsonError> {
        self.skip_ws();
        let first = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.err(message)),
        }
    }

    fn key(&mut self, decode: bool) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.more(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string(decode)?;
        self.skip_ws();
        self.eat(b':', "expected ':'")?;
        Ok(Some(key))
    }

    fn literal(&mut self, lit: &str, token: Token<'a>) -> Result<Token<'a>, JsonError> {
        let rest = self.bytes().get(self.pos..).unwrap_or_default();
        if rest.starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(token)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Reads a string literal. With `decode`, its value, borrowed from the
    /// input when it holds no escape; without, the raw text between the
    /// quotes, checked all the same. The input is a `&str`, so every byte
    /// from 0x80 up belongs to a valid character.
    fn string(&mut self, decode: bool) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"', "expected string")?;
        let start = self.pos;
        // The decoded value once an escape is met; `run` is where the
        // input not yet copied into it starts.
        let mut decoded: Option<String> = None;
        let mut run = start;
        loop {
            let rest = self.bytes().get(self.pos..).unwrap_or_default();
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => {
                    let end = self.pos - 1;
                    return Ok(match decoded {
                        Some(mut s) => {
                            s.push_str(self.slice(run, end));
                            Cow::Owned(s)
                        }
                        None => Cow::Borrowed(self.slice(start, end)),
                    });
                }
                b'\\' => {
                    let backslash = self.pos - 1;
                    let c = self.escape()?;
                    if decode {
                        let s = decoded.get_or_insert_with(String::new);
                        s.push_str(self.slice(run, backslash));
                        s.push(c);
                    }
                    run = self.pos;
                }
                _ => return Err(self.err("control character in string")),
            }
        }
    }

    /// Reads the escape after a `\` and returns the character it stands
    /// for.
    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(esc) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a following \uXXXX low surrogate is
                    // mandatory.
                    self.eat(b'\\', "lone high surrogate")?;
                    self.eat(b'u', "lone high surrogate")?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    /// Exactly four hex digits: no sign, unlike `u32::from_str_radix`.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut value = 0;
        for &d in digits {
            let digit = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            value = value * 16 + digit;
        }
        self.pos += 4;
        Ok(value)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits();
        match int_digits {
            0 => return Err(self.err("expected digits")),
            1 => {}
            _ if self.bytes().get(int_start) == Some(&b'0') => {
                self.pos = int_start + 1;
                return Err(self.err("leading zero in number"));
            }
            _ => {}
        }
        if int_digits < 16 && !matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            // Below 10^15, so exact in an f64: the value `parse` gives.
            let digits = self.slice(int_start, self.pos).bytes();
            let n = digits.fold(0, |n, d| n * 10 + u64::from(d - b'0')) as f64;
            return Ok(if start == int_start { n } else { -n });
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        let n: f64 = self
            .slice(start, self.pos)
            .parse()
            .map_err(|_| self.err("number out of range"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(n)
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
            // RFC 8259: no leading zeros, and `\u` takes exactly four hex
            // digits (no sign).
            "01",
            "-01",
            "[00]",
            r#"{"limit":010}"#,
            "\"\\u+041\"",
            "\"\\u-041\"",
            "1 2",
            "[]extra",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn zero_leads_only_a_lone_integer_digit() {
        for (doc, n) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("-0e1", -0.0),
            ("10", 10.0),
        ] {
            assert_eq!(Json::parse(doc).unwrap(), Json::Num(n), "{doc}");
        }
        let err = Json::parse("[1,007]").unwrap_err();
        assert_eq!((err.offset, err.message), (4, "leading zero in number"));
        let err = Json::parse(r#""\u+041""#).unwrap_err();
        assert_eq!((err.offset, err.message), (3, "invalid \\u escape"));
    }

    #[test]
    fn reader_borrows_plain_strings_and_skips_what_it_is_told_to() {
        let mut r =
            Reader::new(r#" {"a":"x", "\u0062":"\u0041\ud83d\ude00", "c":[1,{"d":null}]} "#);
        assert_eq!(r.value().unwrap(), Token::Obj);
        let key = r.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Borrowed("a")));
        assert!(matches!(r.value().unwrap(), Token::Str(Cow::Borrowed("x"))));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("b"));
        assert_eq!(
            r.value().unwrap(),
            Token::Str(Cow::Owned("A😀".to_string()))
        );
        assert_eq!(r.next_key().unwrap().as_deref(), Some("c"));
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();

        // A skipped value is checked all the same, with the tree's error.
        let doc = r#"{"a":[1,{"b":"\q"}]}"#;
        let mut r = Reader::new(doc);
        assert_eq!(r.value().unwrap(), Token::Obj);
        r.next_key().unwrap();
        assert_eq!(r.skip_value(), Err(Json::parse(doc).unwrap_err()));
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
