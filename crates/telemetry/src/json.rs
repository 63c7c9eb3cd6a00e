//! The workspace's one JSON reader, plus the string escaper every writer
//! shares.
//!
//! The workspace is registry-offline (no serde). Its artifacts — campaign
//! reports and JSON-Lines point streams (`noc-explore`), telemetry traces
//! (this crate) and persisted VF2 match caches (`noc-synthesis`) — are
//! written by hand-rolled writers with a stable key order, and all of
//! them are read back through [`JsonValue::parse`]: a small
//! recursive-descent parser producing a [`JsonValue`] tree that each
//! artifact's reader then walks with its own schema rules.
//!
//! Two properties make it safe for every artifact:
//!
//! * **Exact integers.** A non-negative integer lexeme (digits only)
//!   reads as an exact [`JsonValue::U64`], so 64-bit seeds and counters
//!   survive `write → parse → write`. Every other number — a sign, a
//!   fraction, an exponent, or an integer beyond `u64` — reads as
//!   [`JsonValue::F64`] through Rust's correctly rounded `f64` parser,
//!   which recovers the exact bits of the writers' shortest-round-trip
//!   `Display` output.
//! * **Bounded nesting.** Arrays and objects nest at most [`MAX_DEPTH`]
//!   levels; deeper input is an error, never a stack overflow.

use std::fmt;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. Every
/// artifact in the workspace nests under a dozen levels; the cap only
/// exists so hostile input cannot exhaust the stack.
pub const MAX_DEPTH: usize = 128;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (the writers use it for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer lexeme that fits in a `u64`, exactly.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as an ordered key/value list (artifacts never repeat
    /// keys, and preserving order lets readers check the writer's key
    /// order).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (surrounding whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at the first malformed construct, or when
    /// nesting exceeds [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser { text, at: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.at != text.len() {
            return Err(p.error("trailing characters after JSON document"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The number as a float (integers convert, possibly rounding above
    /// 2⁵³).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::U64(n) => Some(*n as f64),
            JsonValue::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The number, if it was written as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// [`as_u64`](Self::as_u64) narrowed to `usize` (`None` if it does
    /// not fit).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The ordered key/value list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// `true` for `null` (writers emit it where a float was non-finite).
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// Appends `s` as a quoted JSON string literal: `"` and `\` are escaped,
/// newline, tab and carriage return use their short escapes (`\n`, `\t`,
/// `\r`), and every other control character is written as `\u00XX`.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with its byte offset into the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where parsing stopped.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.at,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.text[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    /// One value at nesting `depth` (the number of enclosing containers).
    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte in
            // one go; those are all ASCII, so the run ends on a char
            // boundary.
            let run = self.text.as_bytes()[self.at..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.text.len() - self.at);
            out.push_str(&self.text[self.at..self.at + run]);
            self.at += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let escape = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.at += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{0008}',
                        b'f' => '\u{000c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        other => {
                            return Err(self.error(format!("invalid escape '\\{}'", other as char)))
                        }
                    });
                }
                Some(_) => return Err(self.error("raw control character in string")),
            }
        }
    }

    /// The scalar of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a UTF-16 surrogate pair into one character.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        let code = match code {
            0xd800..=0xdbff => {
                if !self.text[self.at..].starts_with("\\u") {
                    return Err(self.error("unpaired surrogate in \\u escape"));
                }
                self.at += 2;
                let low = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&low) {
                    return Err(self.error("unpaired surrogate in \\u escape"));
                }
                0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
            }
            _ => code,
        };
        char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate in \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .text
            .get(self.at..self.at + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("invalid \\u escape digits"))?;
        let code = u32::from_str_radix(digits, 16).expect("four hex digits");
        self.at += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.at;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.at += 1;
        }
        let text = &self.text[start..self.at];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::U64(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::F64)
            .map_err(|_| self.error(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse(" -1.5e3 ").unwrap(),
            JsonValue::F64(-1500.0)
        );
        assert_eq!(
            JsonValue::parse("\"a\\\"b\\nc\"").unwrap(),
            JsonValue::String("a\"b\nc".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"xs": [1, 2, {"k": "v"}], "empty": [], "o": {}}"#).unwrap();
        let xs = v.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].get("k").unwrap().as_str(), Some("v"));
        assert_eq!(v.get("empty").unwrap().as_array(), Some(&[][..]));
        assert_eq!(v.get("o"), Some(&JsonValue::Object(vec![])));
    }

    #[test]
    fn integer_lexemes_are_exact() {
        for n in [0, 42, (1 << 53) + 1, u64::MAX] {
            let v = JsonValue::parse(&n.to_string()).unwrap();
            assert_eq!(v, JsonValue::U64(n));
            assert_eq!(v.as_u64(), Some(n));
        }
        // Beyond u64 an integer lexeme is still a number, just a float.
        assert_eq!(
            JsonValue::parse("18446744073709551616").unwrap(),
            JsonValue::F64(18446744073709551616.0)
        );
    }

    #[test]
    fn integer_accessors_reject_fractions() {
        assert_eq!(JsonValue::parse("42").unwrap().as_u64(), Some(42));
        for text in ["42.5", "-1", "-0", "3.0", "1e3"] {
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.as_u64(), None, "{text}");
            assert!(v.as_f64().is_some(), "{text}");
        }
        assert_eq!(JsonValue::parse("7").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn float_display_round_trips() {
        // The writers format floats with Rust's shortest-round-trip
        // Display; parsing must recover the exact bits — including
        // f64::MAX, whose Display is an integer lexeme beyond u64.
        for v in [0.1, 1.5e-9, 12.25, f64::MAX, 5e-324, -0.0, 1e20] {
            let text = format!("{v}");
            let parsed = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn control_escapes_round_trip() {
        assert_eq!(
            JsonValue::parse("\"\\u0007x\"").unwrap().as_str(),
            Some("\u{0007}x")
        );
    }

    #[test]
    fn escaper_and_reader_agree_on_every_control_character() {
        let all: String = (0u8..0x20)
            .map(char::from)
            .chain("\"\\/é😀".chars())
            .collect();
        let mut text = String::new();
        push_string(&mut text, &all);
        assert!(text.contains("\\t") && text.contains("\\r") && text.contains("\\u0001"));
        assert_eq!(
            JsonValue::parse(&text).unwrap().as_str(),
            Some(all.as_str())
        );
        // Both spellings of tab and carriage return read back the same.
        assert_eq!(
            JsonValue::parse("\"\\u0009\\u000d\\t\\r\"")
                .unwrap()
                .as_str(),
            Some("\t\r\t\r")
        );
    }

    #[test]
    fn surrogate_pairs_join_and_lone_surrogates_fail() {
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("😀")
        );
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"k\" 1}",
            "tru",
            "1 2",
            "\"\\q\"",
            "\"unterminated",
            "\"raw\ttab\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "-",
            "1e",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&at_cap).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = JsonValue::parse(&over).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = "{\"a\":".repeat(100_000);
        assert!(JsonValue::parse(&objects).is_err());
    }

    #[test]
    fn errors_carry_offsets() {
        let err = JsonValue::parse("[1, }").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}
