//! A minimal JSON value model with a hand-rolled writer and parser.
//!
//! The build environment has no serde_json, so the exporters emit JSON
//! by hand. The JSONL capture codec needs a *generic* value model on
//! both sides: the capture reader parses files it did not write, and
//! round-trip tests compare full documents. It is the workspace's one
//! JSON codec — the plan server's wire format and `BENCH_sched.json` go
//! through it too.
//!
//! Integers are exact: a number token of digits alone that fits a `u64`
//! parses as [`Value::Int`], so what a writer put down as `Value::Int`
//! reads back bit for bit above 2^53 too. Every other number is a
//! [`Value::Num`].
//!
//! Objects preserve insertion order (a `Vec` of pairs, not a map): the
//! exporters emit keys in a canonical order and the round-trip tests
//! compare documents structurally.

use std::fmt::Write as _;

/// A parsed or to-be-written JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A JSON number that is not an all-digit `u64` token (parsed as
    /// `f64`; written in the shortest form that round-trips, `3.0` for an
    /// integral value).
    Num(f64),
    /// An integer without sign, fraction or exponent (`3`), written and
    /// read back exactly.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number behind a `Num` or an `Int`, if that is what this is.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is one (finite, integral, in range).
    pub fn as_u64(&self) -> Option<u64> {
        if let Value::Int(n) = self {
            return Some(*n);
        }
        let x = self.as_f64()?;
        // `u64::MAX as f64` is 2^64 itself, one past the range.
        (x >= 0.0 && x < u64::MAX as f64 && x.fract() == 0.0).then_some(x as u64)
    }

    /// The string behind a `Str`, if that is what this is.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements behind an `Arr`, if that is what this is.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value on one line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => {
                // JSON has no NaN/Inf; the exporters never feed them, but
                // a defensive null beats emitting an unparsable token.
                if x.is_finite() {
                    // `{:?}` on f64 is the shortest round-tripping form.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document, requiring nothing but whitespace after
    /// it.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut r = Parser::new(text);
        let v = r.value()?;
        r.end()?;
        Ok(v)
    }
}

/// Writes `s` as a JSON string literal (quotes and escapes included).
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Containers may nest this deep and no deeper. The parser recurses
/// once per level, so without a bound a frame of `[` bytes overflows the
/// stack of whichever thread parses it.
pub const MAX_DEPTH: usize = 128;

/// The parser behind [`Value::parse`] — the crate's one JSON grammar.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while self
            .bytes()
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    /// Requires nothing but whitespace up to the end of the text.
    fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing content at byte {}", self.pos)),
        }
    }

    /// Enters a container — `open` is `b'['` or `b'{'` — and says
    /// whether it has a first element. Read that element, then ask
    /// `next` for each further one.
    fn begin(&mut self, open: u8) -> Result<bool, String> {
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        // `open + 2` is the matching bracket for both `[` and `{`.
        if self.peek() == Some(open + 2) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After an element of a container closed by `close` (`b']'` or
    /// `b'}'`): `true` past a comma, `false` past the closing bracket.
    fn next(&mut self, close: u8) -> Result<bool, String> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(format!(
                "expected ',' or {:?} at byte {}",
                close as char, self.pos
            )),
        }
    }

    /// An object member's key, up to and including its colon.
    fn key(&mut self) -> Result<String, String> {
        let key = self.string()?;
        self.expect(b':')?;
        Ok(key)
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Any value, as a tree.
    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                let mut more = self.begin(b'[')?;
                while more {
                    items.push(self.value()?);
                    more = self.next(b']')?;
                }
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                let mut more = self.begin(b'{')?;
                while more {
                    pairs.push((self.key()?, self.value()?));
                    more = self.next(b'}')?;
                }
                Ok(Value::Obj(pairs))
            }
            Some(_) => self.number(),
        }
    }

    /// A string literal, unescaped.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // `"` and `\\` are ASCII, so both cut the text on char
            // boundaries.
            let run = self.pos;
            while !matches!(self.bytes().get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let Some(&stop) = self.bytes().get(self.pos) else {
                return Err("unterminated string".into());
            };
            out.push_str(&self.text[run..self.pos]);
            if stop == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            let esc = *self
                .bytes()
                .get(self.pos + 1)
                .ok_or("unterminated escape")?;
            self.pos += 2;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'r' => out.push('\r'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .bytes()
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                    self.pos += 4;
                    // Surrogate pairs are not needed for our own
                    // output (we only \u-escape control chars);
                    // map lone surrogates to the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("unsupported escape \\{}", other as char)),
            }
        }
    }

    /// A number: an all-digit token that fits a `u64` — every index on
    /// the plan wire, every timestamp in a capture — is a [`Value::Int`]
    /// and skips the general float parser; any other a [`Value::Num`].
    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        // `None` once the token has a non-digit or outgrows a `u64`.
        let mut n = Some(0u64);
        while let Some(&b) = self.bytes().get(self.pos) {
            match b {
                b'0'..=b'9' => {
                    n = n.and_then(|n| n.checked_mul(10)?.checked_add((b - b'0') as u64))
                }
                b'.' | b'-' | b'+' | b'e' | b'E' => n = None,
                _ => break,
            }
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        match n {
            Some(n) if !token.is_empty() => Ok(Value::Int(n)),
            _ => token
                .parse()
                .map(Value::Num)
                .map_err(|_| format!("bad number {token:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("sched/round \"3\"".into())),
            ("n".into(), Value::Num(42.0)),
            ("frac".into(), Value::Num(0.125)),
            ("ok".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            (
                "xs".into(),
                Value::Arr(vec![Value::Num(1.0), Value::Num(2.5)]),
            ),
        ]);
        let text = v.to_json();
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = Value::parse(
            r#"{"a": 3, "b": "x", "c": [1], "d": -1, "e": 1.5,
                "f": 18446744073709551615, "g": 18446744073709551616}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Value::as_arr).map(|a| a.len()), Some(1));
        assert_eq!(v.get("d").and_then(Value::as_u64), None);
        assert_eq!(v.get("e").and_then(Value::as_u64), None);
        // `u64::MAX` is an integer; 2^64 reads as a float no `u64` holds.
        assert_eq!(v.get("f").and_then(Value::as_u64), Some(u64::MAX));
        assert_eq!(v.get("g").and_then(Value::as_u64), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Num(1.0).get("a"), None);
        // Integers: no fraction on the wire, read back as `Int`.
        let n = Value::Int(3);
        assert_eq!((n.as_u64(), n.as_f64()), (Some(3), Some(3.0)));
        assert_eq!(n.to_json(), "3");
        assert_eq!(Value::parse(&n.to_json()).unwrap(), n);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Value::Str("tab\there \u{1} ünïcode".into());
        let text = v.to_json();
        assert!(text.contains("\\t"));
        assert!(text.contains("\\u0001"));
        assert_eq!(Value::parse(&text).unwrap(), v);
        assert_eq!(Value::parse(r#""A\n""#).unwrap(), Value::Str("A\n".into()));
    }

    #[test]
    fn nesting_is_bounded_not_recursed_into() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // The frame that used to overflow a 2 MiB thread stack: 200 KB
        // of `[`, and the same depth alternating arrays and objects.
        assert!(Value::parse(&"[".repeat(200_000)).is_err());
        assert!(Value::parse(&"[{\"k\":".repeat(100_000)).is_err());
        // Depth counts open containers, not containers seen: siblings
        // past the bound in number are fine.
        let wide = format!("[{}[]]", "[[]],".repeat(10 * MAX_DEPTH));
        assert!(Value::parse(&wide).is_ok());
    }

    #[test]
    fn parses_nested_arrays_and_members() {
        let v =
            Value::parse(r#" {"m": [[1, 2.5], [], [3e2]], "s": "a\tb", "k": "plain"} "#).unwrap();
        let rows: Vec<Vec<f64>> = v
            .get("m")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|row| {
                row.as_arr()
                    .unwrap()
                    .iter()
                    .map(|x| x.as_f64().unwrap())
                    .collect()
            })
            .collect();
        assert_eq!(rows, vec![vec![1.0, 2.5], vec![], vec![300.0]]);
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\tb"));
        assert_eq!(v.get("k").and_then(Value::as_str), Some("plain"));
    }

    #[test]
    fn numbers_take_the_same_value_on_either_path() {
        // All-digit tokens that fit a `u64` are exact integers; the ones
        // that do not fall back to the float parser rather than wrap.
        for token in [
            "0",
            "7",
            "007",
            "123456789012345",
            "9007199254740993",
            "18446744073709551615",
        ] {
            let int = Parser::new(token).number().unwrap();
            assert_eq!(int, Value::Int(token.parse().unwrap()), "{token}");
        }
        for token in [
            "18446744073709551616",
            "99999999999999999999",
            "3.0",
            "-1",
            "1e2",
        ] {
            let num = Parser::new(token).number().unwrap();
            assert_eq!(num, Value::Num(token.parse().unwrap()), "{token}");
        }
        for bad in ["", "-", "1e", "--1", "1.2.3"] {
            assert!(Parser::new(bad).number().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
