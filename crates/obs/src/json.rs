//! A dependency-free JSON parser for the repo's own machine-readable
//! artifacts (Chrome-trace exports).
//!
//! The build environment is offline, so there is no serde; this is full JSON
//! *syntax* with a deliberately small value model (all numbers are `f64`,
//! objects preserve key order as a `Vec`). It exists to let exporters be
//! *validated by tests* — `chrome::validate_chrome_trace` parses real
//! exports through it.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    /// Key/value pairs in document order (duplicate keys are kept as-is;
    /// [`JsonValue::get`] returns the first).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Path lookup through nested objects: `v.at(&["tiers", "fast", "p50_ms"])`.
    pub fn at(&self, path: &[&str]) -> Option<&JsonValue> {
        let mut cur = self;
        for key in path {
            cur = cur.get(key)?;
        }
        Some(cur)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Number(n) => Some(n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parse a complete JSON document (trailing non-whitespace is an error).
pub fn parse(doc: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: doc.as_bytes(), pos: 0 };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected '{}' at offset {}, got '{}'",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek()? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Ok(JsonValue::String(self.parse_string()?)),
            b't' => self.parse_lit("true", JsonValue::Bool(true)),
            b'f' => self.parse_lit("false", JsonValue::Bool(false)),
            b'n' => self.parse_lit("null", JsonValue::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Number)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Raw run up to the next quote or escape, decoded as UTF-8.
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let run = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|e| format!("invalid UTF-8 in string at offset {start}: {e}"))?;
            s.push_str(run);
            if self.bytes.get(self.pos).ok_or("unterminated string")? == &b'"' {
                self.pos += 1;
                return Ok(s);
            }
            let esc = *self.bytes.get(self.pos + 1).ok_or("unterminated escape")?;
            self.pos += 2;
            match esc {
                b'"' => s.push('"'),
                b'\\' => s.push('\\'),
                b'/' => s.push('/'),
                b'n' => s.push('\n'),
                b't' => s.push('\t'),
                b'r' => s.push('\r'),
                b'b' => s.push('\u{8}'),
                b'f' => s.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or("bad \\u escape")?;
                    self.pos += 4;
                    s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("bad escape '\\{}'", other as char)),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                other => return Err(format!("expected ',' or ']' got '{}'", other as char)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            fields.push((key, self.parse_value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                other => return Err(format!("expected ',' or '}}' got '{}'", other as char)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_values_and_paths() {
        let doc = r#"{"a": {"b": [1, 2.5, -3e1]}, "s": "x\ny", "t": true, "n": null,
            "é": "x é→\u00e9"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.at(&["a", "b"]).unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.at(&["a", "b"]).unwrap().as_array().unwrap()[2].as_f64(), Some(-30.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("t").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("n"), Some(&JsonValue::Null));
        assert_eq!(v.get("é").unwrap().as_str(), Some("x é→é"), "strings decode as UTF-8");
        assert_eq!(parse("\"é\""), Ok(JsonValue::String("é".into())));
        assert!(v.get("missing").is_none());
        assert!(v.at(&["a", "missing", "b"]).is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "{\"a\":1} x", "\"unterminated"]
        {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn type_accessors_are_strict() {
        let v = parse("[0]").unwrap();
        assert!(v.as_object().is_none());
        assert!(v.get("k").is_none(), "get on a non-object is None");
        assert!(v.as_array().unwrap()[0].as_str().is_none());
    }
}
