//! Minimal hand-rolled JSON reader/writer.
//!
//! The workspace deliberately vendors no serde (see DESIGN.md's dependency
//! policy), so everything that persists — kernel telemetry, the tuning
//! cache, trained selector models in `dls-learn` — serialises by hand. This
//! module centralises the *parsing* side: a small recursive-descent parser
//! producing a [`JsonValue`] tree, plus the string-escaping helpers both
//! directions need. Writers stay hand-rolled per type (each type knows its
//! own schema); readers share this module so quoting/number edge cases are
//! handled once.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; integers round-trip exactly up to
    /// 2^53, far beyond any count this workspace stores).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (duplicate keys keep the last value on
    /// lookup, like most parsers).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object from key/value pairs, in the given order.
    pub fn obj(members: impl IntoIterator<Item = (impl Into<String>, JsonValue)>) -> JsonValue {
        JsonValue::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(items: impl IntoIterator<Item = JsonValue>) -> JsonValue {
        JsonValue::Arr(items.into_iter().collect())
    }

    /// Serialises compactly (no whitespace). Round-trips through [`parse`]:
    /// strings are escaped via `escape` and finite numbers written in
    /// shortest-exact form via [`number`] (non-finite become `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises with newlines and two-space indentation — the style the
    /// committed `BENCH_*.json` artefacts use so diffs stay reviewable.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let (open_sep, item_sep, pad) = match indent {
            Some(w) => ("\n".to_string(), ",\n".to_string(), " ".repeat(w * (level + 1))),
            None => (String::new(), ",".to_string(), String::new()),
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Integral values (counts, sizes) print without a fractional
            // part; everything else uses the shortest-exact float form.
            JsonValue::Num(x)
                if x.fract() == 0.0
                    && x.abs() <= 2f64.powi(53)
                    && !(*x == 0.0 && x.is_sign_negative()) =>
            {
                out.push_str(&format!("{}", *x as i64));
            }
            JsonValue::Num(x) => out.push_str(&number(*x)),
            JsonValue::Str(s) => out.push_str(&escape(s)),
            JsonValue::Arr(items) if items.is_empty() => out.push_str("[]"),
            JsonValue::Arr(items) => {
                out.push('[');
                out.push_str(&open_sep);
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(&item_sep);
                    }
                    out.push_str(&pad);
                    v.write(out, indent, level + 1);
                }
                close(out, indent, level, ']');
            }
            JsonValue::Obj(members) if members.is_empty() => out.push_str("{}"),
            JsonValue::Obj(members) => {
                out.push('{');
                out.push_str(&open_sep);
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(&item_sep);
                    }
                    out.push_str(&pad);
                    out.push_str(&escape(k));
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                close(out, indent, level, '}');
            }
        }
    }

    /// Member lookup on an object (last occurrence wins), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as `usize` if it is a non-negative integral number.
    pub(crate) fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice if it is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Required-member lookup with a path-flavoured error, for loaders.
    pub fn req(&self, key: &str) -> Result<&JsonValue, String> {
        self.get(key).ok_or_else(|| format!("missing key \"{key}\""))
    }
}

fn close(out: &mut String, indent: Option<usize>, level: usize, bracket: char) {
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * level));
    }
    out.push(bracket);
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Num(x)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

/// Escapes a string for embedding in a JSON document (quotes included).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Serialises an `f64` so it parses back to the identical bit pattern for
/// all finite values (`{:?}` is Rust's shortest round-trip float form).
/// Non-finite values serialise as `null` — JSON has no NaN/∞.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so without a cap a file of 200,000 `[` overflows the stack —
/// an abort, not an `Err`. Far above any document this workspace writes
/// (a depth-12 tree nests 2 levels per split: under 40).
const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Errors carry a byte offset and a short message.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not paired — this parser reads
                            // only documents this workspace writes, which
                            // never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>().map(JsonValue::Num).map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Num(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::Num(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":{"d":"e"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_str(), Some("e"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_usize(), Some(1));
        assert!(v.get("missing").is_none());
        assert!(v.req("missing").is_err());
    }

    #[test]
    fn parses_real_telemetry_output() {
        // The exact shape `telemetry::kernel_json` emits.
        let doc = r#"{"total_calls":3,"allocs_avoided":0,"block_hist":[3,0,0,0,0,0,0,0],"multi_vector_blocks":0,"formats":[{"format":"CSR","calls":3,"nanos":500,"bytes":128}]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("total_calls").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("block_hist").unwrap().as_arr().unwrap().len(), 8);
        let row = &v.get("formats").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("format").unwrap().as_str(), Some("CSR"));
        assert_eq!(row.get("nanos").unwrap().as_u64(), Some(500));
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "a \"quoted\" \\ back\nnew\ttab \u{1}ctl é";
        let doc = format!("{{{}:{}}}", escape("k"), escape(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for x in [0.0, -0.0, 1.0, 1.0 / 3.0, 6.02214076e23, 5e-324, f64::MAX, -123.456789] {
            let v = parse(&number(x)).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "tru", "\"unterminated", "{\"a\" 1}", "1 2", "{'a':1}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        let objects = |n: usize| format!("{}{{}}{}", "{\"k\":".repeat(n - 1), "}".repeat(n - 1));
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        let err = parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Mixed containers count together, and an unclosed flood is refused
        // at the cap rather than recursed into.
        assert!(parse(&"[{\"k\":".repeat(MAX_DEPTH)).is_err());
        assert!(parse(&"[".repeat(200_000)).unwrap_err().contains("nesting deeper"));
        // Siblings do not accumulate depth.
        assert!(parse(&format!("[{}[]]", "[],".repeat(1000))).is_ok());
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let err = parse("[1, @]").unwrap_err();
        assert!(err.contains("byte 4"), "{err}");
    }

    #[test]
    fn writer_round_trips_through_parser() {
        let doc = JsonValue::obj([
            ("name", JsonValue::from("bench \"serve\"")),
            ("count", JsonValue::from(42u64)),
            ("ratio", JsonValue::from(1.0 / 3.0)),
            ("flags", JsonValue::arr([JsonValue::from(true), JsonValue::Null])),
            ("empty_arr", JsonValue::Arr(vec![])),
            ("empty_obj", JsonValue::Obj(vec![])),
            ("nested", JsonValue::obj([("k", JsonValue::from("v"))])),
        ]);
        for text in [doc.to_json(), doc.to_json_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc, "{text}");
        }
        assert!(!doc.to_json().contains('\n'));
    }

    #[test]
    fn pretty_writer_indents_two_spaces() {
        let doc = JsonValue::obj([("rows", JsonValue::arr([JsonValue::from(1u64)]))]);
        assert_eq!(doc.to_json_pretty(), "{\n  \"rows\": [\n    1\n  ]\n}\n");
    }

    #[test]
    fn writer_handles_non_finite_numbers_as_null() {
        assert_eq!(JsonValue::Num(f64::NAN).to_json(), "null");
        assert_eq!(JsonValue::arr([JsonValue::Num(f64::INFINITY)]).to_json(), "[null]");
    }

    #[test]
    fn duplicate_keys_keep_last() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(2.0));
    }
}
