//! Point-in-time registry state and the one capture codec.
//!
//! A [`Snapshot`] is everything a [`crate::Registry`] recorded, frozen:
//! the ordered event log of spans and instants. A capture file holds
//! one as JSONL ([`Snapshot::to_jsonl`] / [`Snapshot::from_jsonl`]): one
//! self-describing JSON object per line, machine-diffable, and exact —
//! `from_jsonl(snap.to_jsonl()) == snap` for every snapshot whose `F64`
//! attributes are finite. Every capture written or read (`--obs`, flight
//! dumps, `explain --capture`, `explain --input`, `obs-diff`) goes
//! through these two, and [`check_capture_path`] refuses any file name
//! that does not end in `.jsonl`.

use crate::json::Value;
use crate::trace::{self, TraceContext};
use crate::AttrValue;

/// Checks that `path` names a capture file: its extension must be
/// `.jsonl` (in any case). Callers check before doing any work, so a
/// `.json`, `.trace`, `.csv` or `.prom` path fails up front with an
/// [`std::io::ErrorKind::InvalidInput`] error.
pub fn check_capture_path(path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    let extension = path
        .as_ref()
        .extension()
        .map(|e| format!(".{}", e.to_string_lossy().to_ascii_lowercase()))
        .unwrap_or_default();
    if extension == ".jsonl" {
        return Ok(());
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        format!("unsupported capture format {extension:?} (supported: .jsonl)"),
    ))
}

/// A completed span: a named wall-clock interval on a thread track.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Phase name (`schedule`, `replan`, `transfer`, …).
    pub name: String,
    /// Thread/track id.
    pub tid: u64,
    /// Start, microseconds since the registry epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Key/value attributes.
    pub attrs: Vec<(String, AttrValue)>,
    /// Cross-process trace position (`None` for untraced spans).
    pub trace: Option<TraceContext>,
}

/// A point-in-time event on a thread track.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantRecord {
    /// Event name.
    pub name: String,
    /// Thread/track id.
    pub tid: u64,
    /// Timestamp, microseconds since the registry epoch.
    pub ts_us: u64,
    /// Key/value attributes.
    pub attrs: Vec<(String, AttrValue)>,
}

/// One entry of the ordered event log.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A completed span.
    Span(SpanRecord),
    /// An instant event.
    Instant(InstantRecord),
}

/// Everything a registry recorded, frozen for export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Spans and instants in commit order.
    pub events: Vec<Event>,
}

fn attrs_to_json(attrs: &[(String, AttrValue)]) -> Value {
    Value::Obj(
        attrs
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect(),
    )
}

fn attrs_from_json(v: Option<&Value>) -> Result<Vec<(String, AttrValue)>, String> {
    let Some(Value::Obj(pairs)) = v else {
        return Ok(Vec::new());
    };
    pairs
        .iter()
        .map(|(k, v)| {
            AttrValue::from_json(v)
                .map(|a| (k.clone(), a))
                .ok_or_else(|| format!("attr {k:?} has a non-scalar value"))
        })
        .collect()
}

/// Trace ids serialize as 16-hex-digit strings, as on the plan wire.
fn trace_to_json(t: &Option<TraceContext>) -> Option<Value> {
    t.as_ref().map(|t| {
        let mut fields = vec![
            ("id".into(), Value::Str(trace::id_to_hex(t.trace_id))),
            ("span".into(), Value::Str(trace::id_to_hex(t.span_id))),
        ];
        if let Some(parent) = t.parent_id {
            fields.push(("parent".into(), Value::Str(trace::id_to_hex(parent))));
        }
        Value::Obj(fields)
    })
}

fn trace_from_json(v: Option<&Value>) -> Result<Option<TraceContext>, String> {
    let Some(v) = v else {
        return Ok(None);
    };
    let id = |field: &str| -> Result<u64, String> {
        v.get(field)
            .and_then(Value::as_str)
            .and_then(trace::id_from_hex)
            .ok_or_else(|| format!("trace field {field:?} must be 16 hex digits"))
    };
    let parent_id = match v.get("parent") {
        None => None,
        Some(_) => Some(id("parent")?),
    };
    Ok(Some(TraceContext {
        trace_id: id("id")?,
        span_id: id("span")?,
        parent_id,
    }))
}

impl Snapshot {
    /// The span records of the event log, in commit order.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.events.iter().filter_map(|e| match e {
            Event::Span(s) => Some(s),
            Event::Instant(_) => None,
        })
    }

    /// The instant records of the event log, in commit order.
    pub fn instants(&self) -> impl Iterator<Item = &InstantRecord> {
        self.events.iter().filter_map(|e| match e {
            Event::Instant(i) => Some(i),
            Event::Span(_) => None,
        })
    }

    /// Serializes as JSONL: one JSON object per line, each carrying a
    /// `type` discriminator (`span` or `instant`). Tracks, timestamps,
    /// durations and `U64` attributes are JSON integers, `F64`
    /// attributes numbers with a fraction or an exponent.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let obj = match e {
                Event::Span(s) => {
                    let mut fields = vec![
                        ("type".into(), Value::Str("span".into())),
                        ("name".into(), Value::Str(s.name.clone())),
                        ("tid".into(), Value::Int(s.tid)),
                        ("start_us".into(), Value::Int(s.start_us)),
                        ("dur_us".into(), Value::Int(s.dur_us)),
                        ("attrs".into(), attrs_to_json(&s.attrs)),
                    ];
                    if let Some(t) = trace_to_json(&s.trace) {
                        fields.push(("trace".into(), t));
                    }
                    Value::Obj(fields)
                }
                Event::Instant(i) => Value::Obj(vec![
                    ("type".into(), Value::Str("instant".into())),
                    ("name".into(), Value::Str(i.name.clone())),
                    ("tid".into(), Value::Int(i.tid)),
                    ("ts_us".into(), Value::Int(i.ts_us)),
                    ("attrs".into(), attrs_to_json(&i.attrs)),
                ]),
            };
            out.push_str(&obj.to_json());
            out.push('\n');
        }
        out
    }

    /// Parses a document produced by [`Snapshot::to_jsonl`]. Exact:
    /// `from_jsonl(snap.to_jsonl()) == snap` (finite `F64`s). Older
    /// captures, written with `3.0`-style numbers, still read: an
    /// integral number is accepted wherever an integer is expected, and
    /// such an attribute reads back as `F64`. A line of any other `type`
    /// — the `counter`, `gauge`, `histogram` and `series` records older
    /// captures carry — is an error naming the line.
    pub fn from_jsonl(text: &str) -> Result<Snapshot, String> {
        let mut snap = Snapshot::default();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Value::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let kind = v
                .get("type")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: missing \"type\"", lineno + 1))?;
            let name = |field: &str| -> Result<String, String> {
                v.get(field)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("line {}: missing {field:?}", lineno + 1))
            };
            let uint = |field: &str| -> Result<u64, String> {
                v.get(field)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("line {}: missing integer {field:?}", lineno + 1))
            };
            match kind {
                "span" => {
                    // No recorder writes a span whose end overflows, and
                    // every reader lays spans out by their end.
                    let (start_us, dur_us) = (uint("start_us")?, uint("dur_us")?);
                    if start_us.checked_add(dur_us).is_none() {
                        return Err(format!(
                            "line {}: span end {start_us} + {dur_us} us overflows u64",
                            lineno + 1
                        ));
                    }
                    snap.events.push(Event::Span(SpanRecord {
                        name: name("name")?,
                        tid: uint("tid")?,
                        start_us,
                        dur_us,
                        attrs: attrs_from_json(v.get("attrs"))?,
                        trace: trace_from_json(v.get("trace"))
                            .map_err(|e| format!("line {}: {e}", lineno + 1))?,
                    }))
                }
                "instant" => snap.events.push(Event::Instant(InstantRecord {
                    name: name("name")?,
                    tid: uint("tid")?,
                    ts_us: uint("ts_us")?,
                    attrs: attrs_from_json(v.get("attrs"))?,
                })),
                other => return Err(format!("line {}: unknown type {other:?}", lineno + 1)),
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            events: vec![
                Event::Span(SpanRecord {
                    name: "schedule".into(),
                    tid: 1,
                    start_us: 10,
                    dur_us: 100,
                    attrs: vec![("algorithm".into(), AttrValue::Str("openshop".into()))],
                    trace: None,
                }),
                Event::Span(SpanRecord {
                    name: "round".into(),
                    tid: 1,
                    start_us: 20,
                    dur_us: 30,
                    attrs: vec![("round".into(), AttrValue::U64(0))],
                    trace: None,
                }),
                Event::Instant(InstantRecord {
                    name: "replan".into(),
                    tid: 2,
                    ts_us: 55,
                    attrs: vec![("deviation".into(), AttrValue::F64(0.25))],
                }),
            ],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let snap = sample();
        let text = snap.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        let back = Snapshot::from_jsonl(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn traced_spans_round_trip_jsonl() {
        let root = TraceContext::root("tenant-a", 4);
        let child = root.child(1);
        let snap = Snapshot {
            events: vec![
                Event::Span(SpanRecord {
                    name: "request".into(),
                    tid: 1,
                    start_us: 0,
                    dur_us: 50,
                    attrs: vec![],
                    trace: Some(root),
                }),
                Event::Span(SpanRecord {
                    name: "serve".into(),
                    tid: 1,
                    start_us: 5,
                    dur_us: 30,
                    attrs: vec![],
                    trace: Some(child),
                }),
            ],
        };
        // Trace ids included.
        let back = Snapshot::from_jsonl(&snap.to_jsonl()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn a_span_ending_past_u64_is_a_decode_error_naming_its_line() {
        let start = u64::MAX - 2047;
        let jsonl = format!(
            "{{\"type\":\"instant\",\"name\":\"a\",\"tid\":1,\"ts_us\":0}}\n\
             {{\"type\":\"span\",\"name\":\"transfer\",\"tid\":1,\"start_us\":{start},\"dur_us\":4096}}\n"
        );
        let err = Snapshot::from_jsonl(&jsonl).unwrap_err();
        assert!(err.starts_with("line 2: span end"), "{err}");
        // The same span one microsecond short of the top still decodes.
        let fits = jsonl.replace("4096", "2047");
        assert_eq!(Snapshot::from_jsonl(&fits).unwrap().spans().count(), 1);
    }

    #[test]
    fn unknown_extensions_get_a_typed_error() {
        for (path, extension) in [
            ("run.json", ".json"),
            ("run.trace", ".trace"),
            ("dump.csv", ".csv"),
            ("metrics.prom", ".prom"),
            ("noextension", ""),
        ] {
            let err = check_capture_path(path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert_eq!(
                err.to_string(),
                format!("unsupported capture format {extension:?} (supported: .jsonl)")
            );
        }
    }

    #[test]
    fn every_extension_reads_back_what_it_writes() {
        // The one extension, in any case and after any other dot.
        for name in ["x.jsonl", "RUN.JSONL", "run.trace.Jsonl"] {
            assert!(check_capture_path(name).is_ok(), "{name}");
        }
        let snap = sample();
        assert_eq!(Snapshot::from_jsonl(&snap.to_jsonl()), Ok(snap));
    }

    #[test]
    fn jsonl_rejects_an_unknown_record_type_naming_its_line() {
        // `counter` and `series` lines are records older captures carry.
        let instant = r#"{"type":"instant","name":"a","tid":1,"ts_us":0}"#;
        for line in [
            r#"{"type":"counter","name":"sched.matching.rounds","value":8}"#,
            r#"{"type":"series","name":"link.0-1.bandwidth_kbps","capacity":64,"points":[[0,1000]]}"#,
            r#"{"type":"gizmo","name":"x"}"#,
        ] {
            let err = Snapshot::from_jsonl(&format!("{instant}\n{line}\n")).unwrap_err();
            let kind = Value::parse(line).unwrap();
            let kind = kind.get("type").and_then(Value::as_str).unwrap();
            assert_eq!(err, format!("line 2: unknown type {kind:?}"));
        }
    }
}
