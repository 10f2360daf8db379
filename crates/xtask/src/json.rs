//! The dependency-free JSON reader and writer shared by the artifact gates.
//!
//! The workspace's machine-readable artifacts share one deliberately flat
//! dialect. `BENCH_*.json` artifacts are written by [`to_string`] (through
//! `bench_check::BenchDoc::to_json`); `tagspin-metrics/v1` exports are
//! hand-rolled by the observability layer, which cannot depend on this
//! crate. The dialect is strings, numbers, bools, `null`, arrays and
//! objects, nothing exotic (no unicode escapes, no duplicate-key policy
//! beyond first-wins lookup). This module exists so the gate binaries stay
//! dependency-free, and it is public so the bench crate writes through it
//! and the workspace's round-trip tests can parse what the serializers
//! emit.

/// A parsed JSON value, covering exactly the artifact dialect.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always read as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match wins); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Serialize a value in the artifact dialect: pretty-printed with
/// two-space indents, keys in document order, numbers in shortest-f64
/// form. Everything this emits round-trips through [`parse`]; JSON has no
/// spelling for NaN or ±inf, so non-finite numbers are written as `null`.
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, 0, &mut out);
    out.push('\n');
    out
}

fn write_value(value: &Value, indent: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_num(*n, out),
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                push_indent(indent + 1, out);
                write_value(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Value::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                push_indent(indent + 1, out);
                write_str(key, out);
                out.push_str(": ");
                write_value(val, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
    }
}

fn push_indent(levels: usize, out: &mut String) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one complete JSON document (trailing garbage is an error).
///
/// # Errors
///
/// A human-readable description with a byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    Parser::new(text).document()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected `{}` at byte {}, found {:?}",
                byte as char,
                self.pos,
                other.map(|b| b as char)
            )),
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    // The artifact dialect rarely emits escapes, but
                    // tolerate the simple ones so hand-edited files parse.
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        other => {
                            return Err(format!(
                                "unsupported escape {:?} at byte {}",
                                other.map(|b| *b as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    out.push(b as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number bytes at {start}"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
    }

    fn document(mut self) -> Result<Value, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind() {
        let v = parse(
            r#"{"s": "x", "n": -1.5e3, "b": true, "z": null, "a": [1, false, "y"], "o": {}}"#,
        )
        .expect("parse");
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Value::as_num), Some(-1500.0));
        assert_eq!(v.get("b"), Some(&Value::Bool(true)));
        assert_eq!(v.get("z"), Some(&Value::Null));
        assert_eq!(
            v.get("a"),
            Some(&Value::Arr(vec![
                Value::Num(1.0),
                Value::Bool(false),
                Value::Str("y".into())
            ]))
        );
        assert_eq!(v.get("o"), Some(&Value::Obj(Vec::new())));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        assert!(parse("{\"a\": 1").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn unescapes_simple_escapes() {
        let v = parse(r#"{"k": "a\"b\\c\nd"}"#).expect("parse");
        assert_eq!(v.get("k").and_then(Value::as_str), Some("a\"b\\c\nd"));
    }

    #[test]
    fn emitter_round_trips() {
        let v = Value::Obj(vec![
            ("s".to_string(), Value::Str("a\"b\\c\nd".to_string())),
            ("n".to_string(), Value::Num(-1.5)),
            ("i".to_string(), Value::Num(42.0)),
            ("b".to_string(), Value::Bool(true)),
            ("z".to_string(), Value::Null),
            (
                "a".to_string(),
                Value::Arr(vec![Value::Num(1.0), Value::Str("x".to_string())]),
            ),
            ("eo".to_string(), Value::Obj(Vec::new())),
            ("ea".to_string(), Value::Arr(Vec::new())),
        ]);
        let text = to_string(&v);
        assert_eq!(parse(&text).expect("round-trip"), v);
    }

    /// What a number should read back as after `to_string` then `parse`.
    fn read_back(n: f64) -> Value {
        if n.is_finite() {
            Value::Num(n)
        } else {
            Value::Null
        }
    }

    #[test]
    fn numbers_round_trip_and_non_finite_reads_back_null() {
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            1e300,
            -1e300,
            f64::MAX,
            1e-7,
            1e15,
            0.1,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for n in edges {
            let text = to_string(&Value::Arr(vec![Value::Num(n)]));
            let back = parse(&text).unwrap_or_else(|e| panic!("{n:e} wrote {text:?}: {e}"));
            assert_eq!(back, Value::Arr(vec![read_back(n)]), "{n:e}");
        }
    }

    proptest::proptest! {
        #[test]
        fn any_bit_pattern_round_trips(bits in proptest::num::u64::ANY) {
            let n = f64::from_bits(bits);
            let back = parse(&to_string(&Value::Num(n)));
            proptest::prop_assert_eq!(back, Ok(read_back(n)));
        }
    }
}
