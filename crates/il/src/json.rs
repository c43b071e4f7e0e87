//! A dependency-free JSON layer for the interfaces that are JSON.
//!
//! The compile server's protocol, `--opt-report=json` and `--trace-json`
//! are JSON documents, and the build must work hermetically (no external
//! crates). This module provides a small document model ([`Json`]), a
//! writer, a recursive-descent parser, and the [`ToJson`]/[`FromJson`]
//! conversions the protocol types are built from ([`crate::struct_json!`]).
//! Nothing is stored as JSON: every cache file and every §7 catalog is
//! [`crate::wire`] bytes.

use std::fmt;

/// A parsed JSON document.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// An integer literal (no `.`/exponent in the source).
    Int(i64),
    /// A floating literal (also covers `NaN`/`inf`/`-inf`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A serialization or parse failure, with a byte offset for parse errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input (parse errors only).
    pub offset: usize,
}

impl JsonError {
    fn new(message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field, as an error rather than an option.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// The value as `i64`.
    pub fn as_i64(&self) -> Result<i64, JsonError> {
        match self {
            Json::Int(v) => Ok(*v),
            _ => Err(JsonError::new("expected integer")),
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Int(v) => Ok(*v as f64),
            Json::Float(v) => Ok(*v),
            _ => Err(JsonError::new("expected number")),
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::new("expected bool")),
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(JsonError::new("expected string")),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(v) => Ok(v),
            _ => Err(JsonError::new("expected array")),
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                // `{:?}` is the shortest representation that round-trips;
                // non-finite values print as NaN/inf, which the parser
                // accepts as an extension (strict JSON has no spelling).
                out.push_str(&format!("{v:?}"));
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
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

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so without a cap a line of `[[[[…` overflows the stack of
/// whichever thread reads it; no document this repository writes nests
/// past a few dozen levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first problem;
/// nesting deeper than [`MAX_DEPTH`] is one.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            message: msg.to_string(),
            offset: self.pos,
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_word("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_word("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_word("null") => Ok(Json::Null),
            Some(b'N') if self.eat_word("NaN") => Ok(Json::Float(f64::NAN)),
            Some(b'i') if self.eat_word("inf") => Ok(Json::Float(f64::INFINITY)),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-inf") => {
                self.pos += 4;
                Ok(Json::Float(f64::NEG_INFINITY))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object, a level deeper than its parent.
    fn nested(
        &mut self,
        container: fn(&mut Parser<'a>) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // fast-forward over the plain run
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
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
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

/// Conversion into a [`Json`] document.
pub trait ToJson {
    /// Encodes `self`.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] document.
pub trait FromJson: Sized {
    /// Decodes a value, reporting the first structural mismatch.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when `v` does not encode a `Self`.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.as_str()?.to_string())
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::Int(*self)
    }
}

impl FromJson for i64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_i64()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a plain struct as an object
/// with one key per listed field, in order. Every field type must itself
/// implement both traits; the field list must be exhaustive (decode
/// constructs the struct literally). The compile server's protocol types
/// use this; what the session cache stores is [`crate::wire::Wire`].
#[macro_export]
macro_rules! struct_json {
    ($ty:ty, [$($field:ident),+ $(,)?]) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj(vec![
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $($field: $crate::json::FromJson::from_json(v.field(stringify!($field))?)?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let doc = Json::obj(vec![
            ("name", Json::Str("blas \"1\"\n".into())),
            ("n", Json::Int(-42)),
            ("x", Json::Float(2.5)),
            (
                "items",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Int(7)]),
            ),
        ]);
        let text = doc.to_string_compact();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , 2.0 ] , \"s\" : \"x\\ty\\u0041\" } ").unwrap();
        assert_eq!(v.field("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.field("s").unwrap().as_str().unwrap(), "x\tyA");
    }

    #[test]
    fn float_precision_roundtrips() {
        for f in [0.1, 1.0 / 3.0, f64::MAX, 1e-300, -2.5] {
            let text = Json::Float(f).to_string_compact();
            match parse(&text).unwrap() {
                Json::Float(back) => assert_eq!(f, back, "{text}"),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn nonfinite_floats_roundtrip() {
        for f in [f64::INFINITY, f64::NEG_INFINITY] {
            let text = Json::Float(f).to_string_compact();
            assert_eq!(parse(&text).unwrap(), Json::Float(f), "{text}");
        }
        let nan = parse(&Json::Float(f64::NAN).to_string_compact()).unwrap();
        match nan {
            Json::Float(v) => assert!(v.is_nan()),
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("12 34").is_err());
    }

    #[test]
    fn nesting_is_capped_and_never_overflows_the_stack() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.message, "nested too deeply");
        assert_eq!(err.offset, MAX_DEPTH);
        // objects count too, and an unclosed run of any length is an error
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&objects).unwrap_err().message, "nested too deeply");
        assert!(parse(&"[".repeat(2_000_000)).is_err());
    }
}
