//! Minimal JSON: a value type, a strict recursive-descent parser, and a
//! renderer whose `f64` output is Rust's shortest-roundtrip `Display` form.
//!
//! The renderer's float format is what makes persisted calibration tables
//! and the daemon's wire results *bit-exact*: `f64::Display` prints the
//! shortest decimal string that parses back to the identical bits, so a
//! reader with any correctly-rounded `strtod` recovers exactly the floats
//! the estimator computed. This module started life in `ape-serve`; it
//! lives here so calibration persistence and the wire protocol share one
//! canonical encoding (`ape-serve` re-exports it as `ape_serve::json`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are sorted (BTreeMap): rendering is deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders this value as compact JSON (no whitespace, sorted keys,
    /// shortest-roundtrip floats). Non-finite numbers render as strings
    /// (`"inf"`, `"-inf"`, `"NaN"`) — JSON has no literal for them.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    let _ = write!(out, "\"{v}\"");
                }
            }
            Value::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Shorthand for a string value.
pub fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// Shorthand for a numeric value.
pub fn n(v: f64) -> Value {
    Value::Num(v)
}

/// An `Option<f64>` as number-or-null.
pub fn opt(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Num)
}

fn escape_into(s: &str, out: &mut String) {
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
}

/// Parses one complete JSON document, rejecting trailing garbage.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

/// Nesting bound: hostile input like `[[[[...` must not overflow the
/// parser's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.depth += 1;
        self.expect(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            // Duplicate keys: last one wins.
            members.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.depth += 1;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Lone surrogates map to U+FFFD; the daemon
                            // never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` at once.
                    // Both are ASCII, so the run ends on a char boundary.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |k| self.pos + k);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
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
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [
            0.1,
            1.0 / 3.0,
            5.420_921_003_163_208e-5,
            f64::MIN_POSITIVE,
            -2.2e-308,
            9.878_887_654e300,
        ] {
            let text = Value::Num(v).render();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{text}");
        }
    }

    #[test]
    fn renders_deterministically_with_sorted_keys() {
        let a = obj([("zeta", n(1.0)), ("alpha", s("x"))]);
        assert_eq!(a.render(), r#"{"alpha":"x","zeta":1}"#);
    }

    #[test]
    fn escapes_and_unescapes() {
        let v = s("a\"b\\c\nd\u{1}");
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_nested_document() {
        let doc = parse(
            r#"{"bench": "x", "n": 3, "neg": -1.5e2, "ok": true,
                "arr": [1, 2, {"k": null}], "esc": "a\"b\\c\nd"}"#,
        )
        .unwrap();
        assert_eq!(doc.get("bench").and_then(Value::as_str), Some("x"));
        assert_eq!(doc.get("n").and_then(Value::as_f64), Some(3.0));
        assert_eq!(doc.get("neg").and_then(Value::as_f64), Some(-150.0));
        assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
        let arr = doc.get("arr").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("k"), Some(&Value::Null));
        assert_eq!(doc.get("esc").and_then(Value::as_str), Some("a\"b\\c\nd"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn rejects_hostile_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("nul").is_err());
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err(), "depth bound must trip");
    }

    /// String scanning must stay linear in the input: a ~200 KiB string
    /// mixing ASCII, 2- and 4-byte characters and escapes parses well
    /// inside a second, even in a debug build.
    #[test]
    fn long_mixed_strings_parse_in_linear_time() {
        let (mut doc, mut want) = (String::from("\""), String::new());
        for k in 0..10_240 {
            doc.push_str(r#"ab é😀\n\"\u00e9 "#);
            want.push_str("ab é😀\n\"é ");
            if k % 1024 == 0 {
                doc.push_str("\\\\");
                want.push('\\');
            }
        }
        doc.push('"');
        assert!(doc.len() > 200 * 1024);
        let t0 = std::time::Instant::now();
        let got = parse(&doc).unwrap();
        let took = t0.elapsed();
        assert_eq!(got, Value::Str(want));
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
    }

    #[test]
    fn non_finite_numbers_render_as_strings() {
        assert_eq!(n(f64::INFINITY).render(), "\"inf\"");
        assert_eq!(n(f64::NAN).render(), "\"NaN\"");
    }
}
