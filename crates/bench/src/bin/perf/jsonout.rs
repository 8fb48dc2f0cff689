//! The benchmark's own JSON: a value tree, object-building helpers, a
//! compact printer (the driver's result line), an indented printer (the
//! results file) and a parser (child records, `BENCHMARK.json`). Own code
//! because the harness may use no crate `ptsbe_bench` does not depend on.

/// A JSON number; integers stay exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    U(u64),
    F(f64),
}

impl Number {
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U(u) => u as f64,
            Number::F(f) => f,
        }
    }
}

/// JSON value tree; objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// Ordered JSON object under construction.
#[derive(Debug, Default, Clone)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&mut self, key: &str, value: Value) -> &mut Self {
        self.0.push((key.to_string(), value));
        self
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.set(key, Value::String(v.to_string()))
    }

    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.set(key, Value::Number(Number::F(v)))
    }

    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.set(key, Value::Number(Number::U(v)))
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.set(key, Value::Bool(v))
    }

    pub fn build(self) -> Value {
        Value::Object(self.0)
    }
}

/// Field of an object value (`None` on non-objects and missing keys).
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Numeric field as `f64`.
pub fn get_f64(v: &Value, key: &str) -> Option<f64> {
    match get(v, key)? {
        Value::Number(n) => Some(n.as_f64()),
        _ => None,
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_compact(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(Number::U(u)) => out.push_str(&u.to_string()),
        // `{:?}` prints the shortest text that reads back to the same
        // f64, always with a `.` or an exponent; JSON has no NaN or inf.
        Value::Number(Number::F(f)) if f.is_finite() => out.push_str(&format!("{f:?}")),
        Value::Number(Number::F(_)) => out.push_str("null"),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                write_compact(out, item);
            }
            out.push('}');
        }
    }
}

/// Compact one-line form (the driver's result line).
pub fn compact(v: &Value) -> String {
    let mut out = String::new();
    write_compact(&mut out, v);
    out
}

/// Indented form: scalars and arrays/objects of scalars stay on one
/// line, so a metric reads `{"value": 1.2, "unit": "s", ...}`.
pub fn pretty(v: &Value) -> String {
    let mut out = String::new();
    write_pretty(&mut out, v, 0);
    out.push('\n');
    out
}

fn is_flat(v: &Value) -> bool {
    match v {
        Value::Array(items) => items
            .iter()
            .all(|i| !matches!(i, Value::Array(_) | Value::Object(_))),
        Value::Object(fields) => fields
            .iter()
            .all(|(_, i)| !matches!(i, Value::Array(_) | Value::Object(_))),
        _ => true,
    }
}

fn write_pretty(out: &mut String, v: &Value, indent: usize) {
    if is_flat(v) {
        // Compact text with a space after separators for readability.
        let mut in_string = false;
        let mut escaped = false;
        for c in compact(v).chars() {
            out.push(c);
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                }
            } else if c == '"' {
                in_string = true;
            } else if c == ',' || c == ':' {
                out.push(' ');
            }
        }
        return;
    }
    let pad = "  ".repeat(indent + 1);
    let (open, close) = match v {
        Value::Array(_) => ('[', ']'),
        _ => ('{', '}'),
    };
    out.push(open);
    out.push('\n');
    match v {
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                write_pretty(out, item, indent + 1);
                out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
            }
        }
        Value::Object(fields) => {
            for (i, (key, item)) in fields.iter().enumerate() {
                out.push_str(&pad);
                out.push_str(&compact(&Value::String(key.clone())));
                out.push_str(": ");
                write_pretty(out, item, indent + 1);
                out.push_str(if i + 1 == fields.len() { "\n" } else { ",\n" });
            }
        }
        _ => unreachable!("scalars are flat"),
    }
    out.push_str(&"  ".repeat(indent));
    out.push(close);
}

/// Parse one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.error("trailing text"));
    }
    Ok(v)
}

/// Nesting the parser follows before refusing (its input is files this
/// program wrote, but a corrupt one must not overflow the stack).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(literal.as_bytes());
        if hit {
            self.at += literal.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nested too deeply"));
        }
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Array(items));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected , or ]"));
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.error("expected :"));
                    }
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Object(fields));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected , or }"));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        while matches!(
            self.bytes.get(self.at),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII digits");
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::Number(Number::U(u)));
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::F(f)))
            .map_err(|_| self.error("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.at) else {
                return Err(self.error("unterminated string"));
            };
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.at) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.at += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            // The printer only escapes control characters;
                            // surrogate pairs are refused, not decoded.
                            let c = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.at += 4;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        let mut metric = Obj::new();
        metric.f64("value", 1.2034).str("unit", "ms");
        let mut o = Obj::new();
        o.bool("correct", true)
            .u64("attempted", 1000)
            .str("note", "a \"quoted\", tricky: string\\")
            .set("metric", metric.build())
            .set(
                "nested",
                Value::Array(vec![Value::Array(vec![Value::Null]), Value::Bool(false)]),
            )
            .set("claim", Value::Null);
        o.build()
    }

    #[test]
    fn pretty_and_compact_round_trip_through_the_parser() {
        let v = sample();
        for text in [pretty(&v), compact(&v)] {
            let back = parse(&text).expect("valid JSON");
            assert_eq!(back, v, "round trip of {text}");
        }
        let p = pretty(&v);
        assert!(
            p.contains("\"metric\": {\"value\": 1.2034, \"unit\": \"ms\"}"),
            "{p}"
        );
        assert!(p.trim_end().ends_with("\"claim\": null\n}"), "{p}");
        assert!(!compact(&v).contains('\n'));
    }

    #[test]
    fn numbers_keep_every_digit_and_strings_their_escapes() {
        for x in [
            1.2034,
            0.1 + 0.2,
            1e-7,
            6.02e23,
            -3.5,
            4.0,
            f64::MIN_POSITIVE,
        ] {
            let text = compact(&Value::Number(Number::F(x)));
            assert_eq!(parse(&text), Ok(Value::Number(Number::F(x))), "{text}");
        }
        assert_eq!(compact(&Value::Number(Number::F(f64::NAN))), "null");
        assert_eq!(
            parse("18446744073709551615"),
            Ok(Value::Number(Number::U(u64::MAX)))
        );
        let odd = Value::String("tab\t nl\n bell\u{7} é \"q\" \\".into());
        assert_eq!(parse(&compact(&odd)), Ok(odd));
        assert_eq!(parse(" [ ] "), Ok(Value::Array(vec![])));
        assert_eq!(parse("{}"), Ok(Value::Object(vec![])));
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "\"open",
            "\"\\x\"",
            "--",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
        assert!(parse(&"[".repeat(1000)).is_err());
    }

    #[test]
    fn accessors() {
        let v = sample();
        assert_eq!(get_f64(get(&v, "metric").unwrap(), "value"), Some(1.2034));
        assert_eq!(get_f64(&v, "attempted"), Some(1000.0));
        assert!(get(&v, "missing").is_none());
        assert!(get(&Value::Null, "x").is_none());
    }
}
