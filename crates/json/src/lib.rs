//! Dependency-free JSON for the isax suite.
//!
//! The workspace compiles in environments with no crate registry, so it
//! cannot pull in `serde`/`serde_json`. The machine-description files
//! and benchmark reports the suite emits are small and have fixed
//! schemas, so this hand-rolled [`Value`] tree with a recursive-descent
//! parser and a pretty printer covers everything needed.
//!
//! Numbers keep their lexical class: integers parse to [`Value::Int`] /
//! [`Value::UInt`] and only decimals or exponents become
//! [`Value::Float`]. Floats print with Rust's shortest-roundtrip
//! formatting, so a parse → print → parse cycle is lossless.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer that fits in `i64` (always used for negatives).
    Int(i64),
    /// A non-negative integer too large for `i64`.
    UInt(u64),
    /// A number written with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved for printing.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(i) if i >= 0 => Some(i as u64),
            Value::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::UInt(u) => i64::try_from(u).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`; integers widen.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object's field list.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up a field of an object (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Serializes compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation, like
    /// `serde_json::to_string_pretty`.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::UInt(u) => out.push_str(&u.to_string()),
            Value::Float(f) => write_f64(out, *f),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// Builds an object value from `(key, value)` pairs, preserving order.
pub fn object(fields: impl IntoIterator<Item = (impl Into<String>, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Builds an array value.
pub fn array(items: impl IntoIterator<Item = Value>) -> Value {
    Value::Array(items.into_iter().collect())
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v as i64)
    }
}
impl From<u64> for Value {
    /// Normalizes to [`Value::Int`] when the value fits, matching what
    /// [`parse`] produces for the same number, so constructed values
    /// round-trip through serialization with `==` intact. `UInt` is
    /// reserved for the `i64`-overflow range.
    fn from(v: u64) -> Value {
        match i64::try_from(v) {
            Ok(i) => Value::Int(i),
            Err(_) => Value::UInt(v),
        }
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::from(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
}

/// Writes `f` so it parses back to the identical bits: Rust's `{}` is
/// shortest-roundtrip, but bare integral floats like `3` must keep a
/// `.0` to stay in the float lexical class.
fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        let s = f.to_string();
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no Inf/NaN; serde_json errors here, we emit null.
        out.push_str("null");
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse or schema error, with byte offset for parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    /// Byte offset of the error in the input, when known.
    pub offset: Option<usize>,
}

impl Error {
    /// Builds a schema-level error (no input offset).
    pub fn msg(msg: impl Into<String>) -> Error {
        Error {
            msg: msg.into(),
            offset: None,
        }
    }

    fn at(msg: impl Into<String>, offset: usize) -> Error {
        Error {
            msg: msg.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "{} at byte {}", self.msg, o),
            None => f.write_str(&self.msg),
        }
    }
}

impl std::error::Error for Error {}

/// Parses a complete JSON document; trailing garbage is an error.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::at("trailing characters after JSON value", p.pos));
    }
    Ok(v)
}

/// Deepest nesting the parser accepts; guards against stack overflow on
/// adversarial inputs like ten thousand `[`s.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::at(format!("expected '{}'", b as char), self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(Error::at("nesting too deep", self.pos));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(Error::at("unexpected character", self.pos)),
            None => Err(Error::at("unexpected end of input", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::at(format!("expected '{word}'"), self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error::at("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::at("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::at("invalid UTF-8 in string", start))?,
            );
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
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            s.push(c);
                            continue;
                        }
                        _ => return Err(Error::at("bad escape", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(Error::at("control character in string", self.pos)),
                None => return Err(Error::at("unterminated string", self.pos)),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hex4 = |p: &mut Self| -> Result<u32, Error> {
            let end = p.pos + 4;
            let digits = p
                .bytes
                .get(p.pos..end)
                .and_then(|d| std::str::from_utf8(d).ok())
                .ok_or_else(|| Error::at("truncated \\u escape", p.pos))?;
            let v =
                u32::from_str_radix(digits, 16).map_err(|_| Error::at("bad \\u escape", p.pos))?;
            p.pos = end;
            Ok(v)
        };
        let hi = hex4(self)?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: require the low half.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = hex4(self)?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| Error::at("bad surrogate", self.pos));
                }
            }
            return Err(Error::at("unpaired surrogate", self.pos));
        }
        char::from_u32(hi).ok_or_else(|| Error::at("bad \\u escape", self.pos))
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut lexical_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    lexical_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !lexical_float {
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(if let Ok(i) = i64::try_from(u) {
                    Value::Int(i)
                } else {
                    Value::UInt(u)
                });
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::at("invalid number", start))
    }
}

/// An object's fields, read one typed rule at a time: the strict decoder
/// behind the serve protocol, the MDES and the provenance report. Every key a rule
/// asks for is remembered, so [`Fields::finish`] can refuse the fields no
/// rule read. Errors are short messages naming the field, for the caller
/// to wrap with where the object sits.
///
/// ```
/// let v = isax_json::parse(r#"{"n": 3, "x": true}"#).unwrap();
/// let mut f = isax_json::Fields::of(&v).unwrap();
/// assert_eq!(f.req("n", "an integer", isax_json::Value::as_u64), Ok(3));
/// assert_eq!(f.finish(), Err("unknown field `x`".to_string()));
/// ```
pub struct Fields<'a> {
    pairs: &'a [(String, Value)],
    read: Vec<&'static str>,
}

impl<'a> Fields<'a> {
    /// The fields of `v`.
    ///
    /// # Errors
    ///
    /// `not a JSON object` when `v` is not an object.
    pub fn of(v: &'a Value) -> Result<Fields<'a>, String> {
        v.as_object()
            .map(|pairs| Fields {
                pairs,
                read: Vec::new(),
            })
            .ok_or_else(|| "not a JSON object".to_string())
    }

    /// The field `key` under `rule`: absent is `Ok(None)`; present but
    /// refused by the rule is an error naming `key` and `want`.
    ///
    /// # Errors
    ///
    /// `` bad `key` field (want …) `` when `rule` refuses the value.
    pub fn opt<T>(
        &mut self,
        key: &'static str,
        want: &str,
        rule: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.read.push(key);
        match self.pairs.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => rule(v)
                .map(Some)
                .ok_or_else(|| format!("bad `{key}` field (want {want})")),
        }
    }

    /// Like [`Fields::opt`], for a field that must be present.
    ///
    /// # Errors
    ///
    /// As [`Fields::opt`], and `` missing `key` field `` when absent.
    pub fn req<T>(
        &mut self,
        key: &'static str,
        want: &str,
        rule: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        self.opt(key, want, rule)?
            .ok_or_else(|| format!("missing `{key}` field"))
    }

    /// Refuses a field no rule read, or one given twice.
    ///
    /// # Errors
    ///
    /// `` unknown field `key` `` or `` repeated field `key` ``.
    pub fn finish(self) -> Result<(), String> {
        for (i, (key, _)) in self.pairs.iter().enumerate() {
            if !self.read.contains(&key.as_str()) {
                return Err(format!("unknown field `{key}`"));
            }
            if self.pairs[..i].iter().any(|(k, _)| k == key) {
                return Err(format!("repeated field `{key}`"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "42",
            "18446744073709551615",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_string_compact(), text, "{text}");
        }
        assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(parse("-2e3").unwrap(), Value::Float(-2000.0));
        assert_eq!(
            parse("9223372036854775808").unwrap(),
            Value::UInt(9223372036854775808)
        );
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for f in [0.1, 1.0 / 3.0, 2.5e-17, 123456.789, 3.0, f64::MIN_POSITIVE] {
            let mut s = String::new();
            write_f64(&mut s, f);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} -> {s}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Value::Str("a\"b\\c\nd\tе".into());
        let text = v.to_string_compact();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(
            parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap(),
            Value::Str("Aé😀".into())
        );
    }

    #[test]
    fn nested_structures_pretty_print() {
        let v = object([
            ("name", Value::from("cfu0")),
            ("ports", array([Value::from(1u64), Value::from(2u64)])),
            ("empty", Value::Array(vec![])),
            ("meta", object([("ok", Value::Bool(true))])),
        ]);
        let pretty = v.to_string_pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  \"ports\": [\n    1,\n    2\n  ]"));
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{не json",
            "[1]]",
            "\"\\q\"",
            "nul",
            "--3",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err(), "over-deep nesting must be rejected");
    }

    #[test]
    fn accessors_and_get() {
        let v = parse(r#"{"a": 3, "b": -1, "c": 2.5, "d": "x", "e": [1], "f": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("a").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("b").unwrap().as_i64(), Some(-1));
        assert_eq!(v.get("b").unwrap().as_u64(), None);
        assert_eq!(v.get("c").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("d").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("e").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("f").unwrap().as_bool(), Some(true));
        assert!(v.get("zz").is_none());
    }
}
