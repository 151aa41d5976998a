//! Minimal JSON support: a value type, a recursive-descent parser, and
//! compact/pretty writers.
//!
//! The workspace serializes a handful of artifact types (networks, graphs,
//! geo points) for export and round-trip tests. Rather than pulling in a
//! serialization framework, each owning crate implements [`ToJson`] /
//! [`FromJson`] by hand against this small value model. Parsing never
//! panics: every malformed input surfaces as a [`JsonError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved sorted for deterministic output.
    Obj(BTreeMap<String, Json>),
}

/// Errors from parsing or decoding JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// The input text was not valid JSON.
    Syntax {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// The document parsed but did not match the expected shape.
    Shape(String),
    /// Nesting exceeded the parse limit (guards against stack overflow on
    /// crafted `[[[[…` payloads).
    TooDeep {
        /// The depth limit in force.
        limit: usize,
    },
    /// The input was larger than the parse limit allows (guards against
    /// unbounded allocation before a single byte is parsed).
    TooLarge {
        /// Input size in bytes.
        size: usize,
        /// The byte limit in force.
        limit: usize,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, message } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            JsonError::Shape(msg) => write!(f, "JSON shape error: {msg}"),
            JsonError::TooDeep { limit } => {
                write!(f, "JSON document exceeds nesting limit of {limit}")
            }
            JsonError::TooLarge { size, limit } => {
                write!(
                    f,
                    "JSON document of {size} bytes exceeds size limit of {limit}"
                )
            }
        }
    }
}

impl std::error::Error for JsonError {}

/// Resource limits applied while parsing untrusted input.
///
/// [`parse`] uses [`ParseLimits::STANDARD`] — generous bounds that every
/// artifact in the workspace fits — while network-facing callers (the
/// `riskroute serve` daemon) pass tighter caps so a crafted frame can
/// neither overflow the stack nor allocate without bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum container nesting depth.
    pub max_depth: usize,
    /// Maximum input size in bytes, checked before parsing starts.
    pub max_bytes: usize,
}

impl ParseLimits {
    /// The limits [`parse`] applies: 128 levels, 64 MiB.
    pub const STANDARD: ParseLimits = ParseLimits {
        max_depth: 128,
        max_bytes: 64 << 20,
    };

    /// Tight limits for untrusted wire input: 32 levels and a caller-chosen
    /// byte cap.
    #[must_use]
    pub fn strict(max_bytes: usize) -> ParseLimits {
        ParseLimits {
            max_depth: 32,
            max_bytes,
        }
    }
}

impl Json {
    /// Interpret as `f64`.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(JsonError::Shape(format!("expected number, got {other:?}"))),
        }
    }

    /// Interpret as a non-negative integer.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let n = self.as_f64()?;
        if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= usize::MAX as f64 {
            Ok(n as usize)
        } else {
            Err(JsonError::Shape(format!(
                "expected non-negative integer, got {n}"
            )))
        }
    }

    /// Interpret as `bool`.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::Shape(format!("expected bool, got {other:?}"))),
        }
    }

    /// Interpret as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::Shape(format!("expected string, got {other:?}"))),
        }
    }

    /// Interpret as an array.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(xs) => Ok(xs),
            other => Err(JsonError::Shape(format!("expected array, got {other:?}"))),
        }
    }

    /// Interpret as an object.
    pub fn as_obj(&self) -> Result<&BTreeMap<String, Json>, JsonError> {
        match self {
            Json::Obj(m) => Ok(m),
            other => Err(JsonError::Shape(format!("expected object, got {other:?}"))),
        }
    }

    /// Fetch a required object field.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.as_obj()?
            .get(key)
            .ok_or_else(|| JsonError::Shape(format!("missing field '{key}'")))
    }

    /// Build an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_json(self, &mut out, None, 0);
        out
    }

    /// Indented multi-line rendering.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_json(self, &mut out, Some(2), 0);
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Json;
}

/// Types that can be decoded from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decode from a JSON value.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serialize any [`ToJson`] type to a pretty-printed string.
pub fn to_string_pretty<T: ToJson>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Serialize any [`ToJson`] type to a compact string.
pub fn to_string<T: ToJson>(value: &T) -> String {
    value.to_json().to_string_compact()
}

/// Parse and decode a [`FromJson`] type from text.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

fn write_json(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if n.is_finite() {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            } else {
                // JSON has no NaN/Infinity; encode as null like serde_json's
                // lossy mode so degraded artifacts still export.
                out.push_str("null");
            }
        }
        Json::Str(s) => write_escaped(s, out),
        Json::Arr(xs) => {
            if xs.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_json(x, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Json::Obj(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, x)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_json(x, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a JSON document under [`ParseLimits::STANDARD`]. Never panics;
/// trailing garbage is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    parse_with_limits(text, ParseLimits::STANDARD)
}

/// Parse a JSON document under explicit resource limits. Never panics;
/// oversized input fails with [`JsonError::TooLarge`] before any work,
/// over-deep nesting with [`JsonError::TooDeep`], and trailing garbage is
/// a syntax error.
pub fn parse_with_limits(text: &str, limits: ParseLimits) -> Result<Json, JsonError> {
    if text.len() > limits.max_bytes {
        return Err(JsonError::TooLarge {
            size: text.len(),
            limit: limits.max_bytes,
        });
    }
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0, limits.max_depth)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(value)
}

fn err(offset: usize, message: &str) -> JsonError {
    JsonError::Syntax {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(
    b: &[u8],
    pos: &mut usize,
    depth: usize,
    max_depth: usize,
) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    // The limit counts container levels exactly: a document nested
    // `max_depth` deep parses, one level more is `TooDeep`.
    if depth >= max_depth && matches!(b.get(*pos), Some(b'{') | Some(b'[')) {
        return Err(JsonError::TooDeep { limit: max_depth });
    }
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(b, pos, depth, max_depth),
        Some(b'[') => parse_array(b, pos, depth, max_depth),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    if *pos == start {
        return Err(err(start, "expected value"));
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| err(start, "invalid utf-8"))?;
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        _ => Err(err(start, "invalid number")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogates decode to the replacement character;
                        // full surrogate-pair handling is not needed for our
                        // ASCII-dominated artifacts.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err(err(*pos, "control character in string")),
            Some(_) => {
                // Copy one UTF-8 scalar.
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && b[*pos] & 0xc0 == 0x80 {
                    *pos += 1;
                }
                let s = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| err(start, "invalid utf-8"))?;
                out.push_str(s);
            }
        }
    }
}

fn parse_array(
    b: &[u8],
    pos: &mut usize,
    depth: usize,
    max_depth: usize,
) -> Result<Json, JsonError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1, max_depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(
    b: &[u8],
    pos: &mut usize,
    depth: usize,
    max_depth: usize,
) -> Result<Json, JsonError> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected string key"));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':'"));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth + 1, max_depth)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-3.5", "\"hi\\nthere\""] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.to_string_compact()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn round_trips_structures() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x","d":true}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
        assert_eq!(parse(&v.to_string_pretty()).unwrap(), v);
        assert_eq!(v.field("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.field("c").unwrap().as_str().unwrap(), "x");
    }

    #[test]
    fn rejects_malformed_inputs() {
        for text in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\"}",
            "tru",
            "1 2",
            "{'a':1}",
            "[1,]",
            "nan",
            "01a",
        ] {
            assert!(parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn never_panics_on_garbled_bytes() {
        // Deterministic pseudo-random mutations of a valid document.
        let base = r#"{"nodes":[{"id":0,"lat":29.95,"lon":-90.07}],"name":"seed"}"#;
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..2_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut bytes = base.as_bytes().to_vec();
            let idx = (state >> 33) as usize % bytes.len();
            bytes[idx] = (state & 0xff) as u8;
            let truncated = (state >> 20) as usize % bytes.len();
            if let Ok(s) = std::str::from_utf8(&bytes[..truncated]) {
                let _ = parse(s); // must not panic
            }
            if let Ok(s) = std::str::from_utf8(&bytes) {
                let _ = parse(s);
            }
        }
    }

    #[test]
    fn numbers_render_cleanly() {
        assert_eq!(Json::Num(3.0).to_string_compact(), "3");
        assert_eq!(Json::Num(3.25).to_string_compact(), "3.25");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert_eq!(parse(&deep), Err(JsonError::TooDeep { limit: 128 }));
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn depth_limit_is_exact() {
        let limits = ParseLimits::strict(1 << 20);
        // depth counts containers: 32 nested arrays are allowed, 33 are not.
        let at_limit = "[".repeat(32) + &"]".repeat(32);
        assert!(parse_with_limits(&at_limit, limits).is_ok());
        let over = "[".repeat(33) + &"]".repeat(33);
        assert_eq!(
            parse_with_limits(&over, limits),
            Err(JsonError::TooDeep { limit: 32 })
        );
        // Objects count the same way.
        let over_obj = "{\"k\":".repeat(33) + "null" + &"}".repeat(33);
        assert_eq!(
            parse_with_limits(&over_obj, limits),
            Err(JsonError::TooDeep { limit: 32 })
        );
    }

    #[test]
    fn size_limit_rejects_before_parsing() {
        let limits = ParseLimits::strict(16);
        let big = format!("\"{}\"", "x".repeat(64));
        assert_eq!(
            parse_with_limits(&big, limits),
            Err(JsonError::TooLarge {
                size: 66,
                limit: 16
            })
        );
        // Even syntactically invalid oversized input fails with TooLarge —
        // the cap is checked before any parsing work happens.
        let junk = "\u{1}".repeat(64);
        assert_eq!(
            parse_with_limits(&junk, limits),
            Err(JsonError::TooLarge {
                size: 64,
                limit: 16
            })
        );
        assert!(parse_with_limits("[1,2,3]", limits).is_ok());
    }

    /// Seeded fuzz over the adversarial classes the serve daemon faces:
    /// malformed mutations, truncations, and deeply nested payloads. The
    /// parser must never panic and every failure must be a typed error.
    #[test]
    fn fuzz_adversarial_documents() {
        let base = r#"{"op":"route","network":"Sprint","src":"0","dst":"5","deadline_ms":250}"#;
        let limits = ParseLimits::strict(4096);
        let mut state = 0x5851f42d4c957f2du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for round in 0..4_000u32 {
            let r = next();
            let doc: String = match r % 4 {
                // Byte mutations of a valid frame.
                0 => {
                    let mut bytes = base.as_bytes().to_vec();
                    for _ in 0..1 + (r >> 32) % 4 {
                        let k = next();
                        let idx = (k >> 33) as usize % bytes.len();
                        bytes[idx] = (k & 0xff) as u8;
                    }
                    match String::from_utf8(bytes) {
                        Ok(s) => s,
                        Err(_) => continue,
                    }
                }
                // Truncations (the wire sees these on mid-frame disconnects).
                1 => base[..(r >> 16) as usize % (base.len() + 1)].to_string(),
                // Deep nesting around the strict limit.
                2 => {
                    let depth = 24 + (r >> 16) as usize % 24;
                    let open: String = (0..depth)
                        .map(|i| if i % 2 == 0 { "[" } else { "{\"k\":" })
                        .collect();
                    let close: String = (0..depth)
                        .rev()
                        .map(|i| if i % 2 == 0 { "]" } else { "}" })
                        .collect();
                    format!("{open}0{close}")
                }
                // Random printable garbage.
                _ => (0..(r >> 16) % 96)
                    .map(|i| {
                        let k = next();
                        char::from_u32(0x20 + ((k >> (i % 32)) & 0x5e) as u32).unwrap_or('?')
                    })
                    .collect(),
            };
            // Must not panic, and failures must be typed.
            match parse_with_limits(&doc, limits) {
                Ok(_) => {}
                Err(
                    JsonError::Syntax { .. }
                    | JsonError::TooDeep { .. }
                    | JsonError::TooLarge { .. },
                ) => {}
                Err(other) => panic!("round {round}: unexpected error class {other:?}"),
            }
        }
    }
}
