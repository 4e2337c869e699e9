//! A minimal JSON reader/writer for the interchange formats.
//!
//! The coverage interchange files only ever contain objects, strings, and
//! unsigned integers (counts are `u64`, which a float-based JSON number
//! representation would silently corrupt above 2^53). This module
//! implements exactly that subset — plus arrays, booleans, and `null` for
//! forward compatibility — with no external dependencies, since this
//! workspace builds fully offline.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. Numbers are restricted to unsigned integers,
/// which keeps `u64` counts exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer (the only number form coverage files use).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; key order is preserved via `BTreeMap` (sorted), which is
    /// also the order [`CoverageMap`](crate::CoverageMap) iterates in.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The integer value, if this is a `UInt`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The members, if this is an `Object`.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Error from [`parse`]: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Description of the problem.
    pub message: String,
    /// Byte offset in the input where it was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Append `s` to `out` as a quoted, escaped JSON string.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

impl fmt::Display for Json {
    /// Compact (single-line) serialization.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Str(s) => {
                let mut buf = String::new();
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::new();
                    write_escaped(&mut buf, key);
                    write!(f, "{buf}:{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parse a JSON document (the subset described in the module docs).
///
/// # Errors
///
/// Returns a [`JsonError`] with a byte offset on malformed input,
/// non-integer numbers, or trailing garbage.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", expected as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_literal("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat_literal("null").map(|()| Json::Null),
            Some(b'0'..=b'9') => self.number(),
            Some(b'-') => Err(self.error("negative numbers are not part of the coverage format")),
            Some(other) => Err(self.error(format!("unexpected byte `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.error("non-integer numbers are not part of the coverage format"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        text.parse::<u64>()
            .map(Json::UInt)
            .map_err(|_| self.error("integer overflows u64"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // copy the whole run up to the next `"` or `\`; both are
                    // ASCII, so the slice ends on a char boundary of the
                    // (already valid UTF-8) input
                    let start = self.pos;
                    self.pos = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |run| start + run);
                    out.push_str(&self.input[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            members.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#" { "version": 1, "name": "a\"b\\c", "items": [1, 2, 3], "ok": true,
                       "nothing": null, "empty": {} } "#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("a\"b\\c"));
        assert_eq!(
            v.get("items").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("nothing"), Some(&Json::Null));
        assert_eq!(
            v.get("empty").and_then(Json::as_object).map(BTreeMap::len),
            Some(0)
        );
    }

    #[test]
    fn display_roundtrips() {
        let doc = r#"{"a":{"x":18446744073709551615},"b":[true,false,null],"s":"line\nbreak"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        // u64::MAX survives exactly (a float representation would not)
        assert_eq!(
            v.get("a").unwrap().get("x").and_then(Json::as_u64),
            Some(u64::MAX)
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "1.5",
            "-3",
            "{\"a\":1} extra",
            "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn multibyte_utf8_next_to_escapes_round_trips() {
        // 2-, 3- and 4-byte characters on both sides of every escape kind
        for s in [
            "é\"€\\𝄞",
            "\"é\\€\u{1}𝄞\"",
            "\\𝄞\"",
            "€\n\u{1f}é\t",
            "top.ünït.\"q\".𝄞\\€",
            "",
        ] {
            let v = Json::Str(s.to_string());
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{s:?}");
            let obj = Json::Object(BTreeMap::from([(s.to_string(), v.clone())]));
            assert_eq!(parse(&obj.to_string()).unwrap(), obj, "{s:?}");
        }
        assert_eq!(
            parse(r#""é\u00e9€\"𝄞\\""#).unwrap().as_str(),
            Some("éé€\"𝄞\\")
        );
    }

    #[test]
    fn malformed_strings_still_fail() {
        for bad in [
            "\"abc€",
            "\"𝄞",
            "\"é\\",
            "\"\\x\"",
            "\"€\\u12\"",
            "\"\\u12",
            "\"\\uzzzz\"",
            "\"\\ud800\"",
            "\"\\u00é\"",
            "{\"é\":\"𝄞}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn long_string_parses_in_linear_time() {
        // 1 MiB of mixed-width text: rescanning the rest of the document
        // for every character takes minutes, a linear scan milliseconds
        let unit = "ab€𝄞é\"\\";
        let text: String = unit.repeat((1 << 20) / unit.len());
        let doc = Json::Str(text.clone()).to_string();
        let start = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let took = start.elapsed();
        assert_eq!(parsed.as_str(), Some(text.as_str()));
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }

    #[test]
    fn escapes_control_characters() {
        let mut buf = String::new();
        write_escaped(&mut buf, "tab\there\u{1}");
        assert_eq!(buf, "\"tab\\there\\u0001\"");
        let back = parse(&buf).unwrap();
        assert_eq!(back.as_str(), Some("tab\there\u{1}"));
    }
}
