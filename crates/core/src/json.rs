//! The workspace's one JSON reader.
//!
//! The workspace carries no JSON library. Everything the program reads
//! back as JSON goes through [`parse`]: cell-journal payloads,
//! campaign-journal rows, and the reports and traces the tests check
//! for well-formedness. Numbers keep their source text, so a `u64`
//! above 2^53 reads back exactly instead of rounding through `f64`.

use std::str::FromStr;

/// Nesting deeper than this is rejected rather than risking the stack
/// on a hostile line.
const MAX_DEPTH: usize = 128;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// A number, as its source text.
    Num(String),
    Str(String),
    Arr(Vec<Value>),
    /// An object's members, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object (the first one, if repeated).
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Obj(members) = self else { return None };
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        if let Value::Str(s) = self { Some(s) } else { None }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        if let Value::Arr(items) = self { Some(items) } else { None }
    }

    /// The number read as a `T` (`u64`, `f64`, ...), if this is a
    /// number that `T` holds: `2.5` is no `u64`, and `2^53 + 1` stays
    /// exact as one.
    pub fn num<T: FromStr>(&self) -> Option<T> {
        if let Value::Num(text) = self { text.parse().ok() } else { None }
    }
}

/// Parses `s` as exactly one JSON value with optional surrounding
/// whitespace. Strict enough to catch what a hand-built writer gets
/// wrong: unbalanced brackets, bad escapes, raw control bytes in
/// strings, trailing commas, unquoted keys and trailing garbage.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { src: s, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != s.len() {
        return p.fail("trailing garbage");
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return self.fail("nesting too deep");
        }
        match self.peek() {
            Some(b'[') => self.seq(b']', |p| p.value(depth + 1)).map(Value::Arr),
            Some(b'{') => {
                let member = |p: &mut Self| {
                    p.skip_ws();
                    if p.peek() != Some(b'"') {
                        return p.fail("expected object key");
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return p.fail("expected ':'");
                    }
                    Ok((key, p.value(depth + 1)?))
                };
                self.seq(b'}', member).map(Value::Obj)
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.fail("unexpected byte"),
            None => self.fail("unexpected end of input"),
        }
    }

    /// The comma-separated items of an array or object, from its
    /// opening bracket through `close`.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1; // the opening bracket
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return self.fail("expected ',' or a closing bracket");
            }
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if !self.src[self.pos..].starts_with(word) {
            return self.fail("bad literal");
        }
        self.pos += word.len();
        Ok(v)
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        // No leading zeros: `0` alone, or digits starting at 1-9.
        if !(self.eat(b'0') || self.digits()) {
            return self.fail("bad number");
        }
        if self.eat(b'.') && !self.digits() {
            return self.fail("bad fraction");
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if !self.digits() {
                return self.fail("bad exponent");
            }
        }
        Ok(Value::Num(self.src[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // the opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte. All three are ASCII, so the run ends on a char
            // boundary.
            let start = self.pos;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return self.fail("raw control byte in string"),
                None => return self.fail("unterminated string"),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            // The writers escape only control characters this way, so
            // surrogate pairs are not decoded.
            Some(b'u') => {
                let hex = self.src.get(self.pos + 1..self.pos + 5).unwrap_or("");
                if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return self.fail("bad \\u escape");
                }
                self.pos += 5;
                let code = u32::from_str_radix(hex, 16).unwrap_or_default();
                return char::from_u32(code).map_or_else(|| self.fail("surrogate escape"), Ok);
            }
            _ => return self.fail("bad escape"),
        };
        self.pos += 1;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_and_rejects() {
        assert!(parse("{\"a\":[1,2.5,-3e4,\"x\\n\",true,null]}").is_ok());
        assert!(parse(" { } ").is_ok());
        for bad in ["", "{", "{\"a\":1,}", "[1 2]", "{\"a\":1} extra", "{\"bad\":\"\\x\"}", "{a:1}", "[01]"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert!(parse("\"raw\ttab\"").is_err(), "control bytes must be escaped");
        assert!(parse(&"[".repeat(MAX_DEPTH + 2)).is_err(), "deep nesting is refused");
    }

    #[test]
    fn reads_values_back() {
        let v = parse(r#"{"s":"a \"q\" \u00e9\u0001 é \\","n":-2.5,"big":18446744073709551615,"xs":[null,1]}"#)
            .unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a \"q\" é\u{1} é \\"));
        assert_eq!(v.get("n").and_then(Value::num), Some(-2.5));
        assert_eq!(v.get("n").and_then(Value::num::<u64>), None, "not an unsigned integer");
        assert_eq!(v.get("big").and_then(Value::num), Some(u64::MAX), "exact beyond 2^53");
        assert_eq!(v.get("xs").and_then(Value::as_array).map(<[Value]>::len), Some(2));
        assert_eq!(v.get("missing"), None);
    }
}
