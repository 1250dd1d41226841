//! The JSON value tree, its text form, and the shared error type.

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

    /// Member lookup that reports a useful [`Error`] (missing members act
    /// as `null` so optional fields deserialize to `None`).
    pub fn expect_field(&self, key: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(_) => Ok(self.get(key).unwrap_or(&NULL)),
            other => Err(Error::type_mismatch("object", other)),
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

    /// A one-word description used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
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

    /// Parses JSON text.
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::msg(format!("trailing input at byte {}", p.pos)));
        }
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

/// Deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so without a bound a hostile document (a
/// request body of nothing but `[`) would overflow the stack. The
/// deepest document this workspace writes, a `--per-scenario` campaign
/// report, nests 5 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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
            Err(Error::msg(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error::msg(format!("unexpected input at byte {}", self.pos))),
        }
    }

    /// Parses one array or object a nesting level deeper, failing past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::msg(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::msg(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(Error::msg(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // copy the whole run up to the next quote or backslash at
            // once, validating only that run: every byte is scanned once,
            // so parsing stays linear in the input
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            out.push_str(
                core::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::msg("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // a backslash: one escape sequence
                    self.pos += 1;
                    match self.peek() {
                        None => return Err(Error::msg("unterminated string")),
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
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                core::str::from_utf8(hex)
                                    .map_err(|_| Error::msg("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::msg("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::msg("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
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
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // integers keep exact 64-bit precision; anything with a fraction,
        // an exponent, or too many digits (f64 Display never uses
        // scientific notation, so huge floats print as long integers)
        // falls back to f64
        let n = if is_float {
            None
        } else if text.starts_with('-') {
            text.parse::<i64>().ok().map(Number::I64)
        } else {
            text.parse::<u64>().ok().map(Number::U64)
        };
        let n = match n {
            Some(n) => n,
            None => Number::F64(
                text.parse::<f64>()
                    .map_err(|_| Error::msg(format!("bad number '{text}'")))?,
            ),
        };
        Ok(Value::Number(n))
    }
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

    /// The standard shape-mismatch error.
    pub fn type_mismatch(expected: &str, found: &Value) -> Self {
        Error(format!("expected {expected}, found {}", found.kind()))
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
        for x in [0.1, 1.0 / 3.0, 39.0, -2.5e-11, f64::MAX] {
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
        // (JSON escape, the text it decodes to); `\/` and `\u00e9` are
        // read but never written
        let escapes = [
            (r#"\""#, "\""),
            (r"\\", "\\"),
            (r"\n", "\n"),
            (r"\/", "/"),
            (r"\u00e9", "é"),
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
