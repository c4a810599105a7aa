//! A minimal, dependency-free JSON value type with a parser and writer.
//!
//! The container this workspace builds in has no network access, so
//! `serde`/`serde_json` are unavailable; the protocol only needs the small
//! subset implemented here (RFC 8259 values, UTF-8 input, `\uXXXX` escapes
//! including surrogate pairs). Numbers are kept as `f64`, which is exact
//! for every integer the protocol carries (row ids, session ids, counts
//! are all far below 2⁵³).

use std::collections::BTreeMap;
use std::fmt;

/// The most levels arrays and objects may nest. The parser recurses once
/// per level, and so do rendering and dropping a value, so deeper input is
/// refused with [`JsonError::TooDeep`] instead of overflowing the stack.
/// Protocol requests nest a handful of levels.
pub const MAX_JSON_DEPTH: usize = 64;

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The input is not well-formed JSON.
    Malformed(String),
    /// Arrays and objects nest deeper than [`MAX_JSON_DEPTH`].
    TooDeep {
        /// Byte offset of the bracket that crossed the bound.
        position: usize,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Malformed(message) => f.write_str(message),
            JsonError::TooDeep { position } => {
                write!(f, "nesting deeper than {MAX_JSON_DEPTH} levels at byte {position}")
            }
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Ordered map, so serialization is deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value.
    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }

    /// A member of an object (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects fractions
    /// and negatives — the shape of every id in the protocol).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (the whole input must be one value).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0, too_deep_at: None };
        p.skip_ws();
        let value = p.value().map_err(|e| match p.too_deep_at {
            Some(position) => JsonError::TooDeep { position },
            None => JsonError::Malformed(e),
        })?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::Malformed(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    // JSON has no NaN/Infinity; null is the conventional stand-in.
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current byte.
    depth: usize,
    /// Where the nesting bound was crossed, once it has been.
    too_deep_at: Option<usize>,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_JSON_DEPTH => {
                self.too_deep_at = Some(self.pos);
                Err(format!("nesting deeper than {MAX_JSON_DEPTH} levels"))
            }
            Some(b'{') => {
                self.depth += 1;
                let object = self.object();
                self.depth -= 1;
                object
            }
            Some(b'[') => {
                self.depth += 1;
                let array = self.array();
                self.depth -= 1;
                array
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a following \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run of plain characters at once.
                    // The input is a &str, so the bytes are valid UTF-8 by
                    // construction, and the run delimiters (`"`, `\`,
                    // control bytes) are all < 0x80 — they can never be a
                    // byte *inside* a multi-byte sequence, so stopping on
                    // them cannot split a character. (Per-character
                    // consumption here used to re-validate the entire
                    // remaining input each step: O(n²) on the large
                    // documents the `batch` command carries.)
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        if b < 0x20 {
                            return Err(format!("raw control character at byte {}", self.pos));
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Reads exactly four hex digits starting at the current position (the
    /// caller has already consumed the `\u` marker).
    fn hex4(&mut self) -> Result<u32, String> {
        let start = self.pos;
        let slice =
            self.bytes.get(start..start + 4).ok_or_else(|| "truncated \\u escape".to_string())?;
        let text = std::str::from_utf8(slice).map_err(|_| "invalid \\u escape".to_string())?;
        let code = u32::from_str_radix(text, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = start + 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(text: &str) -> String {
        Json::parse(text).unwrap().to_string()
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("  \"hi\"  ").unwrap(), Json::str("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":{"d":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(
            round_trip(r#"{"a":[1,2,{"b":null}],"c":{"d":true}}"#),
            r#"{"a":[1,2,{"b":null}],"c":{"d":true}}"#
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""line\nquote\"slash\\tab\tunicode\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "line\nquote\"slash\\tab\tunicodeé😀");
        let rendered = v.to_string();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\ud800\"",
            "nan",
            "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    /// Nesting past the bound is refused, not recursed into: this input
    /// overflowed a 2 MiB worker stack before the bound existed.
    #[test]
    fn deep_nesting_is_refused_on_a_worker_sized_stack() {
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let deep = format!("{}{}", "[".repeat(50_000), "]".repeat(50_000));
                let objects = format!("{}1{}", r#"{"a":"#.repeat(50_000), "}".repeat(50_000));
                (Json::parse(&deep), Json::parse(&objects))
            })
            .unwrap()
            .join()
            .expect("parsing must not overflow the stack");
        let limit = MAX_JSON_DEPTH;
        assert_eq!(parsed.0, Err(JsonError::TooDeep { position: limit }));
        assert_eq!(parsed.1, Err(JsonError::TooDeep { position: 5 * limit }));
        // Exactly at the bound still parses.
        let at_limit = format!("{}{}", "[".repeat(limit), "]".repeat(limit));
        assert!(Json::parse(&at_limit).is_ok());
        let past = format!("{}{}", "[".repeat(limit + 1), "]".repeat(limit + 1));
        assert!(Json::parse(&past).unwrap_err().to_string().contains("nesting deeper"));
    }

    #[test]
    fn number_rendering_is_integer_exact() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(3.25).to_string(), "3.25");
        assert_eq!(Json::Num(-0.0).to_string(), "0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(1e18).to_string(), "1000000000000000000");
    }

    #[test]
    fn typed_accessors() {
        let v = Json::parse(r#"{"n":7,"frac":7.5,"neg":-1,"s":"x","b":false,"a":[]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("frac").unwrap().as_u64(), None);
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        assert_eq!(v.get("frac").unwrap().as_f64(), Some(7.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert!(v.get("a").unwrap().as_array().unwrap().is_empty());
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("x").is_none());
    }
}
