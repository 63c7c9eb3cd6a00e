//! The telemetry event model and its JSON-Lines codec.
//!
//! Events are flat, schema-stable records: a fixed header (`seq`, `t_us`,
//! `kind`, `name`), two optional numeric payloads (`dur_us` for spans,
//! `value` for counter/gauge snapshots) and an ordered bag of typed
//! `fields`. The writer emits keys in a fixed order and the reader
//! preserves field order, so `write → read → write` reproduces a stream
//! byte for byte — the invariant the round-trip tests lock.
//!
//! Like every artifact format in this workspace the codec is hand-rolled
//! (the build environment has no registry access, so there is no serde):
//! lines are parsed by the shared [`json`](crate::json) reader, and
//! [`Event::from_json`] checks the event schema on the parsed tree.

use std::fmt;

use crate::json::{self, JsonValue};

/// A typed field value on an [`Event`].
///
/// The closed set keeps the codec exact: `u64` for ids and counts, `f64`
/// for rates and metrics, strings for labels, bools for flags. Non-finite
/// floats serialize as `null` (JSON has no NaN) and read back as NaN.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// An unsigned integer (ids, counts, ordinals).
    U64(u64),
    /// A float (rates, metric values). Written with a decimal point so it
    /// re-reads as a float.
    F64(f64),
    /// A label or path.
    Str(String),
    /// A flag.
    Bool(bool),
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}

impl From<u32> for Field {
    fn from(v: u32) -> Self {
        Field::U64(u64::from(v))
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}

impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F64(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_string())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}

impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}

impl Field {
    /// The value as a u64, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Field::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a float (floats and integers both qualify).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Field::F64(v) => Some(*v),
            Field::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A point-in-time occurrence (a wave dealt, a cutoff tripped).
    Event,
    /// A scoped duration; carries [`Event::dur_us`].
    Span,
    /// A counter snapshot; carries [`Event::value`].
    Counter,
    /// A gauge snapshot; carries [`Event::value`].
    Gauge,
    /// A histogram snapshot; `count`/`min`/`max`/`sum` ride in the fields.
    Hist,
}

impl EventKind {
    /// The wire label (`"event"`, `"span"`, …).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Event => "event",
            EventKind::Span => "span",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Hist => "hist",
        }
    }

    /// Parses a wire label back.
    pub fn from_label(label: &str) -> Option<Self> {
        Some(match label {
            "event" => EventKind::Event,
            "span" => EventKind::Span,
            "counter" => EventKind::Counter,
            "gauge" => EventKind::Gauge,
            "hist" => EventKind::Hist,
            _ => return None,
        })
    }
}

/// One telemetry record: what happened (`kind` + `name`), when (`t_us`
/// microseconds since the [`Telemetry`](crate::Telemetry) handle's epoch),
/// in what order (`seq`, strictly increasing per handle), and the typed
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Strictly increasing sequence number (deterministic for a
    /// deterministic instrumented program; timestamps are not).
    pub seq: u64,
    /// Microseconds since the emitting handle's epoch.
    pub t_us: u64,
    /// Record kind.
    pub kind: EventKind,
    /// Dotted event name, e.g. `campaign.synthesize`.
    pub name: String,
    /// Span duration in microseconds (spans only).
    pub dur_us: Option<u64>,
    /// Snapshot value (counter/gauge records only).
    pub value: Option<u64>,
    /// Ordered typed fields.
    pub fields: Vec<(String, Field)>,
}

impl Event {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Field> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Serializes to one JSON line (no trailing newline), with the fixed
    /// key order the round-trip invariant relies on.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"t_us\":");
        out.push_str(&self.t_us.to_string());
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.label());
        out.push_str("\",\"name\":");
        json::push_string(&mut out, &self.name);
        if let Some(dur) = self.dur_us {
            out.push_str(",\"dur_us\":");
            out.push_str(&dur.to_string());
        }
        if let Some(value) = self.value {
            out.push_str(",\"value\":");
            out.push_str(&value.to_string());
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (key, value)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_string(&mut out, key);
                out.push(':');
                match value {
                    Field::U64(v) => out.push_str(&v.to_string()),
                    Field::F64(v) => push_json_f64(&mut out, *v),
                    Field::Str(s) => json::push_string(&mut out, s),
                    Field::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parses one JSON line produced by [`Event::to_json`]: the header
    /// keys are fixed (`seq`, `t_us`, `kind`, `name` required; `dur_us`,
    /// `value`, `fields` optional; anything else rejected), and field
    /// values must be scalars. Integer lexemes read as [`Field::U64`],
    /// other numbers as [`Field::F64`] and `null` as NaN.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the first malformed construct.
    pub fn from_json(line: &str) -> Result<Event, ParseError> {
        let fail = |message: String| ParseError { message };
        let tree = JsonValue::parse(line).map_err(|e| fail(e.to_string()))?;
        let JsonValue::Object(header) = tree else {
            return Err(fail("expected an event object".into()));
        };
        let u64_of = |key: &str, v: JsonValue| {
            v.as_u64()
                .ok_or_else(|| fail(format!("'{key}' must be an unsigned integer")))
        };
        let string_of = |key: &str, v: JsonValue| match v {
            JsonValue::String(s) => Ok(s),
            _ => Err(fail(format!("'{key}' must be a string"))),
        };
        let (mut seq, mut t_us, mut kind, mut name) = (None, None, None, None);
        let (mut dur_us, mut value, mut fields) = (None, None, Vec::new());
        for (key, v) in header {
            match key.as_str() {
                "seq" => seq = Some(u64_of(&key, v)?),
                "t_us" => t_us = Some(u64_of(&key, v)?),
                "kind" => {
                    let label = string_of(&key, v)?;
                    kind = Some(
                        EventKind::from_label(&label)
                            .ok_or_else(|| fail(format!("unknown kind '{label}'")))?,
                    );
                }
                "name" => name = Some(string_of(&key, v)?),
                "dur_us" => dur_us = Some(u64_of(&key, v)?),
                "value" => value = Some(u64_of(&key, v)?),
                "fields" => {
                    let JsonValue::Object(pairs) = v else {
                        return Err(fail("'fields' must be an object".into()));
                    };
                    fields = pairs
                        .into_iter()
                        .map(|(k, v)| match field(v) {
                            Some(f) => Ok((k, f)),
                            None => Err(fail(format!("field '{k}' must be a scalar"))),
                        })
                        .collect::<Result<_, ParseError>>()?;
                }
                other => return Err(fail(format!("unknown event key '{other}'"))),
            }
        }
        let missing = |key: &str| fail(format!("event missing '{key}'"));
        Ok(Event {
            seq: seq.ok_or_else(|| missing("seq"))?,
            t_us: t_us.ok_or_else(|| missing("t_us"))?,
            kind: kind.ok_or_else(|| missing("kind"))?,
            name: name.ok_or_else(|| missing("name"))?,
            dur_us,
            value,
            fields,
        })
    }
}

/// A scalar JSON value as a typed field: non-finite floats were written
/// as `null`, so `null` reads back as NaN.
fn field(v: JsonValue) -> Option<Field> {
    Some(match v {
        JsonValue::U64(n) => Field::U64(n),
        JsonValue::F64(x) => Field::F64(x),
        JsonValue::Null => Field::F64(f64::NAN),
        JsonValue::String(s) => Field::Str(s),
        JsonValue::Bool(b) => Field::Bool(b),
        JsonValue::Array(_) | JsonValue::Object(_) => return None,
    })
}

/// Renders events as a JSON-Lines document (one event per line, trailing
/// newline).
pub fn write_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_json());
        out.push('\n');
    }
    out
}

/// Parses a JSON-Lines event stream (blank lines ignored).
///
/// # Errors
///
/// Returns the first line-level [`ParseError`], tagged with its line
/// number.
pub fn read_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = Event::from_json(line).map_err(|e| ParseError {
            message: format!("line {}: {}", lineno + 1, e.message),
        })?;
        events.push(event);
    }
    Ok(events)
}

/// A malformed event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// Appends a float so it re-reads as a float: Rust's shortest-round-trip
/// `Display`, forced to carry a decimal point (or exponent); non-finite
/// values become `null` (read back as NaN).
fn push_json_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event {
            seq: 7,
            t_us: 1234,
            kind: EventKind::Span,
            name: "campaign.measure".into(),
            dur_us: Some(456),
            value: None,
            fields: vec![
                ("scenario_id".into(), Field::U64(3)),
                ("rate".into(), Field::F64(0.25)),
                ("label".into(), Field::Str("fig5 \"quoted\"\npath".into())),
                ("reused".into(), Field::Bool(true)),
            ],
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let events = vec![
            sample(),
            Event {
                seq: 8,
                t_us: 2000,
                kind: EventKind::Counter,
                name: "decompose.nodes_visited".into(),
                dur_us: None,
                value: Some(99),
                fields: Vec::new(),
            },
        ];
        let text = write_jsonl(&events);
        let reread = read_jsonl(&text).unwrap();
        assert_eq!(reread, events);
        assert_eq!(write_jsonl(&reread), text);
    }

    #[test]
    fn integral_floats_keep_their_decimal_point() {
        let event = Event {
            seq: 0,
            t_us: 0,
            kind: EventKind::Event,
            name: "x".into(),
            dur_us: None,
            value: None,
            fields: vec![("rate".into(), Field::F64(2.0))],
        };
        let line = event.to_json();
        assert!(line.contains("\"rate\":2.0"), "{line}");
        let reread = Event::from_json(&line).unwrap();
        assert_eq!(reread.field("rate"), Some(&Field::F64(2.0)));
        assert_eq!(reread.to_json(), line);
    }

    #[test]
    fn non_finite_floats_become_null_and_read_back_nan() {
        let event = Event {
            seq: 0,
            t_us: 0,
            kind: EventKind::Event,
            name: "x".into(),
            dur_us: None,
            value: None,
            fields: vec![("bad".into(), Field::F64(f64::INFINITY))],
        };
        let line = event.to_json();
        assert!(line.contains("\"bad\":null"), "{line}");
        let reread = Event::from_json(&line).unwrap();
        assert!(reread.field("bad").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(reread.to_json(), line);
    }

    #[test]
    fn negative_and_exponent_numbers_parse_as_floats() {
        let line = r#"{"seq":0,"t_us":0,"kind":"event","name":"x","fields":{"a":-2.5,"b":1e3}}"#;
        let event = Event::from_json(line).unwrap();
        assert_eq!(event.field("a"), Some(&Field::F64(-2.5)));
        assert_eq!(event.field("b"), Some(&Field::F64(1000.0)));
    }

    #[test]
    fn malformed_lines_error_with_position() {
        for bad in [
            "{",
            "{}",
            r#"{"seq":1}"#,
            r#"{"seq":1,"t_us":2,"kind":"nope","name":"x"}"#,
            r#"{"seq":1,"t_us":2,"kind":"event","name":"x","bogus":3}"#,
            r#"{"seq":1,"t_us":2,"kind":"event","name":"x"} trailing"#,
        ] {
            assert!(Event::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn u64_extremes_round_trip_exactly() {
        let event = Event {
            seq: u64::MAX,
            t_us: (1 << 53) + 1,
            kind: EventKind::Gauge,
            name: "x".into(),
            dur_us: None,
            value: Some(u64::MAX),
            fields: vec![("id".into(), Field::U64(u64::MAX))],
        };
        let line = event.to_json();
        let reread = Event::from_json(&line).unwrap();
        assert_eq!(reread, event);
        assert_eq!(reread.to_json(), line);
    }

    #[test]
    fn integer_lexemes_beyond_u64_read_as_float_fields() {
        let line =
            r#"{"seq":0,"t_us":0,"kind":"event","name":"x","fields":{"big":18446744073709551616}}"#;
        let event = Event::from_json(line).unwrap();
        assert_eq!(
            event.field("big"),
            Some(&Field::F64(18446744073709551616.0))
        );
        // Header integers stay strict.
        let header = r#"{"seq":18446744073709551616,"t_us":0,"kind":"event","name":"x"}"#;
        assert!(Event::from_json(header).is_err());
    }

    #[test]
    fn field_values_must_be_scalars_and_surrogate_pairs_decode() {
        for bad in [
            r#"{"seq":0,"t_us":0,"kind":"event","name":"x","fields":{"a":[1]}}"#,
            r#"{"seq":0,"t_us":0,"kind":"event","name":"x","fields":{"a":{}}}"#,
            r#"{"seq":0,"t_us":0,"kind":"event","name":"x","fields":[]}"#,
            r#"[{"seq":0,"t_us":0,"kind":"event","name":"x"}]"#,
            r#"{"seq":1.0,"t_us":0,"kind":"event","name":"x"}"#,
        ] {
            assert!(Event::from_json(bad).is_err(), "accepted: {bad}");
        }
        let line = r#"{"seq":0,"t_us":0,"kind":"event","name":"\ud83d\ude00"}"#;
        assert_eq!(Event::from_json(line).unwrap().name, "😀");
    }

    #[test]
    fn blank_lines_are_ignored() {
        let text = format!("\n{}\n\n", sample().to_json());
        assert_eq!(read_jsonl(&text).unwrap().len(), 1);
    }

    #[test]
    fn control_characters_escape_and_round_trip() {
        let event = Event {
            seq: 0,
            t_us: 0,
            kind: EventKind::Event,
            name: "weird\u{0001}name".into(),
            dur_us: None,
            value: None,
            fields: vec![("k".into(), Field::Str("tab\there".into()))],
        };
        let line = event.to_json();
        assert!(line.contains("\\u0001"), "{line}");
        let reread = Event::from_json(&line).unwrap();
        assert_eq!(reread, event);
        assert_eq!(reread.to_json(), line);
    }
}
