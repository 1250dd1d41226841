//! The JSON value tree, its text form, the decoder that reads text both
//! into typed values and into trees, and the shared error type.

use std::borrow::Cow;

use core::fmt;
use core::ops::Index;

/// A JSON number; integers keep full 64-bit precision.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
}

impl Number {
    /// The value as `f64` (lossy for huge integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U64(n) => n as f64,
            Number::I64(n) => n as f64,
            Number::F64(x) => x,
        }
    }

    /// The value as `u64` when exactly representable.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::U64(n) => Some(n),
            Number::I64(n) => u64::try_from(n).ok(),
            // strict upper bound: `u64::MAX as f64` rounds UP to 2^64, so
            // `<=` would admit 2^64 and the cast would saturate silently
            Number::F64(x) if x >= 0.0 && x.fract() == 0.0 && x < 18_446_744_073_709_551_616.0 => {
                Some(x as u64)
            }
            Number::F64(_) => None,
        }
    }

    /// The value as `i64` when exactly representable.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::U64(n) => i64::try_from(n).ok(),
            Number::I64(n) => Some(n),
            // `i64::MIN as f64` is exact (-2^63); the upper bound must be
            // strict because `i64::MAX as f64` rounds up to 2^63
            Number::F64(x)
                if x.fract() == 0.0 && x >= i64::MIN as f64 && x < 9_223_372_036_854_775_808.0 =>
            {
                Some(x as i64)
            }
            Number::F64(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Number::U64(a), Number::U64(b)) => a == b,
            (Number::I64(a), Number::I64(b)) => a == b,
            _ => self.as_f64() == other.as_f64(),
        }
    }
}

/// A JSON document tree.
///
/// Objects preserve insertion order (a `Vec` of pairs), which keeps
/// serialized output deterministic — campaign reports rely on that.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Member lookup; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Element lookup; `None` out of bounds or for non-arrays.
    pub fn get_index(&self, idx: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(idx),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if possible.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as an exact `i64`, if possible.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// Compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty JSON text (two-space indent).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_string(out, s),
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
            Value::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
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

    /// Parses JSON text into a tree.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] on malformed or too deeply nested input.
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut decoder = Decoder::new(text);
        let v = decoder.value()?;
        decoder.end()?;
        Ok(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: Number) {
    match n {
        Number::U64(v) => out.push_str(&v.to_string()),
        Number::I64(v) => out.push_str(&v.to_string()),
        Number::F64(v) => {
            if v.is_finite() {
                // `{}` on f64 is the shortest representation that parses
                // back bit-identically — required by the replay tests
                out.push_str(&v.to_string());
            } else {
                out.push_str("null");
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
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

/// Deepest array/object nesting a [`Decoder`] accepts. Decoding
/// recurses once per level, so without a bound a hostile document (a
/// request body of nothing but `[`) would overflow the stack. The
/// deepest document this workspace writes, a `--per-scenario` campaign
/// report, nests 5 levels.
const MAX_DEPTH: usize = 128;

/// A cursor over JSON text that typed decoding and the tree parser
/// share: [`Deserialize`](crate::Deserialize) impls read their values
/// straight from it, [`Decoder::value`] builds a [`Value`] tree from it,
/// and both accept exactly the same grammar.
///
/// Every read skips the whitespace before its token. Keys, and strings
/// without escapes, borrow from the text instead of allocating. Nesting
/// deeper than 128 arrays/objects is an error wherever it occurs,
/// skipped values included.
///
/// Every method fails with an [`Error`] on malformed input or on a
/// value of the wrong shape, and leaves the decoder mid-document:
/// callers stop at the first error.
pub struct Decoder<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
    /// Set right after a `[` or `{`: the first element or key needs no
    /// comma before it. Every other token clears it.
    opened: bool,
}

impl<'a> Decoder<'a> {
    /// A decoder at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
            opened: false,
        }
    }

    /// Checks that nothing but whitespace follows the decoded value.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error_at("trailing input")),
        }
    }

    /// Consumes a `null` if one comes next, returning whether it did.
    pub fn null(&mut self) -> Result<bool, Error> {
        if self.peek() == Some(b'n') {
            self.literal("null")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Reads a boolean.
    pub fn boolean(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.mismatch("bool")),
        }
    }

    /// Reads a number, keeping integers at full 64-bit precision;
    /// `expected` names the wanted type in a mismatch error.
    pub fn number(&mut self, expected: &str) -> Result<Number, Error> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number_token(),
            _ => Err(self.mismatch(expected)),
        }
    }

    /// Reads a string, borrowed from the text when it has no escapes;
    /// `expected` names the wanted type in a mismatch error.
    pub fn string(&mut self, expected: &str) -> Result<Cow<'a, str>, Error> {
        match self.peek() {
            Some(b'"') => self.string_token(),
            _ => Err(self.mismatch(expected)),
        }
    }

    /// Opens an array; read its elements with
    /// [`next_element`](Self::next_element).
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.open(b'[', "array")
    }

    /// Steps to the next element of the innermost open array: `true`
    /// when one follows (the decoder then sits at it), `false` once the
    /// closing `]` is consumed.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            _ if self.opened => {
                self.opened = false;
                Ok(true)
            }
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.error_at("bad array")),
        }
    }

    /// Steps to the next element of a tuple of `arity` elements, opened
    /// with [`begin_array`](Self::begin_array) and closed with
    /// [`end_tuple`](Self::end_tuple).
    pub fn element(&mut self, arity: usize) -> Result<(), Error> {
        if self.next_element()? {
            Ok(())
        } else {
            Err(Error(format!(
                "expected array of {arity} elements, found fewer"
            )))
        }
    }

    /// Closes a tuple of `arity` elements.
    pub fn end_tuple(&mut self, arity: usize) -> Result<(), Error> {
        if self.next_element()? {
            Err(Error(format!(
                "expected array of {arity} elements, found more"
            )))
        } else {
            Ok(())
        }
    }

    /// Opens an object; read its members with
    /// [`next_key`](Self::next_key).
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.open(b'{', "object")
    }

    /// Steps to the next member of the innermost open object: its key,
    /// with the decoder at the member's value, or `None` once the
    /// closing `}` is consumed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        match self.peek() {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            _ if self.opened => {}
            Some(b',') => self.pos += 1,
            _ => return Err(self.error_at("bad object")),
        }
        if self.peek() != Some(b'"') {
            return Err(self.error_at("expected '\"'"));
        }
        let key = self.string_token()?;
        if self.peek() != Some(b':') {
            return Err(self.error_at("expected ':'"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Reads an externally tagged enum's tag: a string names a unit
    /// variant (`true`); an object names any other variant by its one
    /// key, and the decoder then sits at the payload, to be closed with
    /// [`end_variant`](Self::end_variant).
    pub fn variant(&mut self, enum_name: &str) -> Result<(Cow<'a, str>, bool), Error> {
        match self.peek() {
            Some(b'"') => Ok((self.string_token()?, true)),
            Some(b'{') => {
                self.begin_object()?;
                match self.next_key()? {
                    Some(tag) => Ok((tag, false)),
                    None => Err(no_variant(enum_name, "object")),
                }
            }
            _ => Err(no_variant(enum_name, self.kind())),
        }
    }

    /// Closes a tagged variant's object.
    pub fn end_variant(&mut self, enum_name: &str) -> Result<(), Error> {
        match self.next_key()? {
            None => Ok(()),
            Some(_) => Err(no_variant(enum_name, "object")),
        }
    }

    /// Validates and discards one value of any shape.
    pub fn skip(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => self.string_token().map(drop),
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
            _ => self.value().map(drop),
        }
    }

    /// Builds the [`Value`] tree of the value at the current position.
    pub fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string_token()?.into_owned())),
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    let v = self.value()?;
                    pairs.push((key.into_owned(), v));
                }
                Ok(Value::Object(pairs))
            }
            Some(b'-' | b'0'..=b'9') => Ok(Value::Number(self.number_token()?)),
            _ => Err(self.error_at("unexpected input")),
        }
    }

    /// Skips whitespace and returns the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                return Some(b);
            }
        }
        None
    }

    /// A one-word description of the next value, for error messages.
    fn kind(&mut self) -> &'static str {
        match self.peek() {
            Some(b'n') => "null",
            Some(b't' | b'f') => "bool",
            Some(b'-' | b'0'..=b'9') => "number",
            Some(b'"') => "string",
            Some(b'[') => "array",
            Some(b'{') => "object",
            _ => "invalid input",
        }
    }

    fn mismatch(&mut self, expected: &str) -> Error {
        let found = self.kind();
        Error::type_mismatch(expected, found)
    }

    fn error_at(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.pos))
    }

    /// Consumes the opening bracket of an array or object one nesting
    /// level deeper, failing past [`MAX_DEPTH`].
    fn open(&mut self, bracket: u8, kind: &str) -> Result<(), Error> {
        if self.peek() != Some(bracket) {
            return Err(self.mismatch(kind));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error_at(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        self.opened = true;
        Ok(())
    }

    /// Consumes the closing bracket at the current position.
    fn close(&mut self) {
        self.depth -= 1;
        self.pos += 1;
        self.opened = false;
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            self.opened = false;
            Ok(())
        } else {
            Err(self.error_at("invalid literal"))
        }
    }

    /// The string starting at the current `"`.
    fn string_token(&mut self) -> Result<Cow<'a, str>, Error> {
        self.opened = false;
        let bytes = self.text.as_bytes();
        self.pos += 1;
        let mut out: Option<String> = None;
        loop {
            // take the whole run up to the next quote or backslash at
            // once: every byte is scanned once, so decoding stays linear
            // in the input. Both delimiters are ASCII, so the run ends on
            // a character boundary.
            let start = self.pos;
            let run = bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(bytes.len() - start);
            self.pos += run;
            let text = &self.text[start..self.pos];
            match bytes.get(self.pos) {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(text),
                        Some(mut owned) => {
                            owned.push_str(text);
                            Cow::Owned(owned)
                        }
                    });
                }
                Some(_) => {
                    // a backslash: one escape sequence
                    let owned = out.get_or_insert_with(String::new);
                    owned.push_str(text);
                    self.pos += 1;
                    let c = match bytes.get(self.pos) {
                        None => return Err(Error::msg("unterminated string")),
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(Error::msg("bad escape")),
                    };
                    owned.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    /// The character of the `\u` escape whose `u` is at the current
    /// position, leaving the position on its last hex digit. A
    /// character outside the Basic Multilingual Plane arrives as a
    /// high surrogate escape followed by a low one; a surrogate in any
    /// other arrangement is an error.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let code = self.hex4(self.pos + 1)?;
        self.pos += 4;
        let code = match code {
            0xD800..=0xDBFF if self.text.as_bytes()[self.pos + 1..].starts_with(b"\\u") => {
                let low = self.hex4(self.pos + 3)?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(Error::msg("bad \\u code point"));
                }
                self.pos += 6;
                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
            }
            code => code,
        };
        char::from_u32(code).ok_or_else(|| Error::msg("bad \\u code point"))
    }

    /// The four hex digits starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, Error> {
        let hex = self
            .text
            .get(at..at + 4)
            .ok_or_else(|| Error::msg("truncated \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| Error::msg("bad \\u escape"))
    }

    /// The number token at the current position.
    fn number_token(&mut self) -> Result<Number, Error> {
        self.opened = false;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        // integers keep exact 64-bit precision; anything with a fraction,
        // an exponent, or too many digits (f64 Display never uses
        // scientific notation, so huge floats print as long integers)
        // falls back to f64, and so does `-0`, which is how the writer
        // prints a negative zero
        let n = if is_float {
            None
        } else if text.starts_with('-') {
            match text.parse::<i64>() {
                Ok(0) => Some(Number::F64(-0.0)),
                n => n.ok().map(Number::I64),
            }
        } else {
            text.parse::<u64>().ok().map(Number::U64)
        };
        match n {
            Some(n) => Ok(n),
            None => text
                .parse::<f64>()
                .map(Number::F64)
                .map_err(|_| Error::msg(format!("bad number '{text}'"))),
        }
    }
}

fn no_variant(enum_name: &str, found: &str) -> Error {
    Error(format!("no variant of {enum_name} matches {found}"))
}

// ---- indexing and comparisons (serde_json ergonomics) ----------------

impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        self.get_index(idx).unwrap_or(&NULL)
    }
}

impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}
impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}
impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}
impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}
impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        matches!(self, Value::Bool(b) if b == other)
    }
}
macro_rules! eq_int {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.as_i64() == i64::try_from(*other).ok()
            }
        }
    )*};
}
eq_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

/// Serialization / deserialization failure.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// An error from a message.
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }

    /// The standard shape-mismatch error: `found` describes the value
    /// met instead (`"null"`, `"string"`, ...).
    pub fn type_mismatch(expected: &str, found: &str) -> Self {
        Error(format!("expected {expected}, found {found}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_shortest_f64() {
        for x in [0.1, 1.0 / 3.0, 39.0, -2.5e-11, f64::MAX, -0.0, 5e-324] {
            let v = Value::Number(Number::F64(x));
            let text = v.to_json();
            let back = Value::parse(&text).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn parses_nested_documents() {
        let v = Value::parse(r#"{"a": [1, -2, 3.5], "b": {"c": "x\ny", "d": null}}"#).unwrap();
        assert_eq!(v["a"][0], 1u64);
        assert_eq!(v["a"][1], -2);
        assert_eq!(v["a"][2], 3.5);
        assert_eq!(v["b"]["c"], "x\ny");
        assert_eq!(v["b"]["d"], Value::Null);
    }

    #[test]
    fn pretty_output_reparses() {
        let v = Value::parse(r#"[{"k": [true, false]}, "s"]"#).unwrap();
        assert_eq!(Value::parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn strings_round_trip_around_escapes_and_multibyte_text() {
        // (JSON escape, the text it decodes to); `\/` and the `\u`
        // escapes are read but never written
        let escapes = [
            (r#"\""#, "\""),
            (r"\\", "\\"),
            (r"\n", "\n"),
            (r"\/", "/"),
            (r"\u00e9", "é"),
            (r"\ud83d\ude42", "🙂"),
        ];
        // raw control characters parse as they stand; written, they go
        // out escaped
        let controls: String = (0u8..0x20).chain([0x7f]).map(char::from).collect();
        let mut table: Vec<(String, String)> =
            vec![(String::new(), String::new()), (controls.clone(), controls)];
        for (escape, decoded) in escapes {
            table.push((escape.into(), decoded.into()));
            table.push((format!("{escape}x{escape}"), format!("{decoded}x{decoded}")));
            for wide in ["é", "中", "🙂"] {
                table.push((format!("{wide}{escape}"), format!("{wide}{decoded}")));
                table.push((format!("{escape}{wide}"), format!("{decoded}{wide}")));
                table.push((
                    format!("a{wide}{escape}{wide}{escape}{wide}b"),
                    format!("a{wide}{decoded}{wide}{decoded}{wide}b"),
                ));
            }
        }
        for (json, text) in &table {
            let parsed = Value::parse(&format!("\"{json}\"")).unwrap();
            assert_eq!(parsed, Value::String(text.clone()), "{json}");
            let mut written = String::new();
            write_string(&mut written, text);
            let back = Value::parse(&written).unwrap();
            assert_eq!(back, Value::String(text.clone()), "{written}");
        }
    }

    #[test]
    fn unterminated_strings_are_errors() {
        for text in [
            r#"""#,
            r#""abc"#,
            r#""中🙂"#,
            r#""abc\"#,
            r#""\""#,
            r#"["a\"#,
        ] {
            assert!(Value::parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // one pass per byte parses 1 MiB far inside the bound even in a
        // debug build; a parse quadratic in the string length overshoots
        // it by more than ten times
        let unit = r#"abcdefghijklmné中🙂\""#;
        let repeats = (1 << 20) / unit.len() + 1;
        let text = format!("{{\"k\": \"{}\"}}", unit.repeat(repeats));
        let started = std::time::Instant::now();
        let v = Value::parse(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(v["k"], "abcdefghijklmné中🙂\"".repeat(repeats));
        assert!(elapsed.as_secs_f64() < 2.0, "1 MiB string took {elapsed:?}");
    }

    #[test]
    fn nesting_past_the_limit_is_an_error() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Value::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&nest(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Value::parse(&objects).is_err());
        // a body of nothing but `[` returns an error instead of
        // overflowing the stack of the thread that parses it
        let hostile = std::thread::spawn(|| Value::parse(&"[".repeat(100_000)).is_err());
        assert!(hostile.join().unwrap());
    }
}
