//! Point-in-time registry state and the one capture codec.
//!
//! A [`Snapshot`] is everything a [`crate::Registry`] recorded, frozen:
//! the ordered event log of spans and instants. A capture file holds
//! one in one of two [`Format`]s, and
//! [`Format::of_path`] picks it from the file name by one extension
//! table, for writing and reading alike:
//!
//! * **JSONL** (`.jsonl`; [`Snapshot::to_jsonl`] / [`Snapshot::from_jsonl`])
//!   — one self-describing JSON object per line, machine-diffable, read
//!   back losslessly;
//! * **Chrome `trace_event` JSON** (`.json`, `.trace`;
//!   [`Snapshot::to_chrome_trace`]) — loadable in `chrome://tracing` /
//!   Perfetto. Spans become balanced `B`/`E` duration events on their
//!   track, instants become `i` events.
//!
//! [`Format::decode`] is the only reader of both and the only
//! `B`/`E`/`X`/`i` matcher in the workspace: the explain and diff planes
//! both work on the `Snapshot` it returns.

use crate::json::Value;
use crate::trace::{self, TraceContext};
use crate::AttrValue;

/// A capture file's format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// One JSON object per line ([`Snapshot::to_jsonl`]).
    Jsonl,
    /// A Chrome `trace_event` document ([`Snapshot::to_chrome_trace`]).
    Chrome,
}

/// The one extension table: which format a capture file name means,
/// whether the file is being written or read.
const EXTENSIONS: &[(&str, Format)] = &[
    (".jsonl", Format::Jsonl),
    (".json", Format::Chrome),
    (".trace", Format::Chrome),
];

/// A capture file name whose extension is not in the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFormat {
    /// The offending extension, lowercased, with its dot (empty when the
    /// name has none).
    pub extension: String,
}

impl std::fmt::Display for UnknownFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let known: Vec<&str> = EXTENSIONS.iter().map(|(ext, _)| *ext).collect();
        write!(
            f,
            "unsupported capture format {:?} (supported: {})",
            self.extension,
            known.join(", ")
        )
    }
}

impl std::error::Error for UnknownFormat {}

impl Format {
    /// The format `path`'s extension names (case-insensitive).
    pub fn of_path(path: impl AsRef<std::path::Path>) -> Result<Format, UnknownFormat> {
        let extension = path
            .as_ref()
            .extension()
            .map(|e| format!(".{}", e.to_string_lossy().to_ascii_lowercase()))
            .unwrap_or_default();
        EXTENSIONS
            .iter()
            .find(|(ext, _)| *ext == extension)
            .map(|&(_, format)| format)
            .ok_or(UnknownFormat { extension })
    }

    /// `snap` as this format's text.
    pub fn encode(self, snap: &Snapshot) -> String {
        match self {
            Format::Jsonl => snap.to_jsonl(),
            Format::Chrome => snap.to_chrome_trace(),
        }
    }

    /// Reads this format's text back.
    pub fn decode(self, text: &str) -> Result<Snapshot, String> {
        match self {
            Format::Jsonl => Snapshot::from_jsonl(text),
            Format::Chrome => Snapshot::from_chrome_trace(text),
        }
    }
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

impl SpanRecord {
    /// The span's end in µs, saturating at `u64::MAX`: the decoders reject
    /// an end that overflows, but a re-derived timestamp (`explain
    /// --capture` rounds f64 ms back to µs) can still reach the top.
    fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
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

/// Trace ids serialize as 16-hex-digit strings — JSON numbers are f64
/// and would silently round u64 ids.
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

/// A decoded span's end, or an error when it overflows a `u64`: no
/// recorder writes one, and every reader lays spans out by their end.
fn checked_span_end(start_us: u64, dur_us: u64) -> Result<u64, String> {
    (start_us.checked_add(dur_us))
        .ok_or_else(|| format!("span end {start_us} + {dur_us} us overflows u64"))
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
    /// `type` discriminator (`span` or `instant`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let obj = match e {
                Event::Span(s) => {
                    let mut fields = vec![
                        ("type".into(), Value::Str("span".into())),
                        ("name".into(), Value::Str(s.name.clone())),
                        ("tid".into(), Value::Num(s.tid as f64)),
                        ("start_us".into(), Value::Num(s.start_us as f64)),
                        ("dur_us".into(), Value::Num(s.dur_us as f64)),
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
                    ("tid".into(), Value::Num(i.tid as f64)),
                    ("ts_us".into(), Value::Num(i.ts_us as f64)),
                    ("attrs".into(), attrs_to_json(&i.attrs)),
                ]),
            };
            out.push_str(&obj.to_json());
            out.push('\n');
        }
        out
    }

    /// Parses a document produced by [`Snapshot::to_jsonl`]. Lossless:
    /// `from_jsonl(snap.to_jsonl()) == snap`. A line of any other `type`
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
                    let (start_us, dur_us) = (uint("start_us")?, uint("dur_us")?);
                    checked_span_end(start_us, dur_us)
                        .map_err(|e| format!("line {}: {e}", lineno + 1))?;
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

    /// Parses a Chrome `{"traceEvents": [...]}` document: `B`/`E` pairs
    /// matched per tid (innermost first) and complete `X` events become
    /// spans in closing order, `i` events instants; other phases are
    /// skipped. Timestamps are read as whole microseconds
    /// — what [`Snapshot::to_chrome_trace`] writes. An `E` with no open
    /// `B` on its tid is an error, and so is an `X` whose end overflows a
    /// `u64`; a `B` that never closes (a truncated capture) has no
    /// knowable duration and is left out of `events`.
    fn from_chrome_trace(text: &str) -> Result<Snapshot, String> {
        let doc = Value::parse(text)?;
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .ok_or("missing \"traceEvents\" array")?;
        let mut snap = Snapshot::default();
        let mut open: Vec<SpanRecord> = Vec::new();
        for (index, e) in events.iter().enumerate() {
            let ph = e.get("ph").and_then(Value::as_str).unwrap_or("");
            let tid = e.get("tid").and_then(Value::as_u64).unwrap_or(0);
            let ts = e.get("ts").and_then(Value::as_f64).unwrap_or(0.0);
            let name = || {
                e.get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string()
            };
            let span = |dur_us: u64| {
                let (attrs, trace) = chrome_args(e.get("args"));
                SpanRecord {
                    name: name(),
                    tid,
                    start_us: ts as u64,
                    dur_us,
                    attrs,
                    trace,
                }
            };
            match ph {
                "B" => open.push(span(0)),
                "E" => {
                    let idx = open
                        .iter()
                        .rposition(|s| s.tid == tid)
                        .ok_or_else(|| format!("unbalanced \"E\" on tid {tid}"))?;
                    let mut closed = open.remove(idx);
                    closed.dur_us = (ts as u64).saturating_sub(closed.start_us);
                    snap.events.push(Event::Span(closed));
                }
                "X" => {
                    let dur = e.get("dur").and_then(Value::as_f64).unwrap_or(0.0) as u64;
                    checked_span_end(ts as u64, dur)
                        .map_err(|e| format!("traceEvents[{index}]: {e}"))?;
                    snap.events.push(Event::Span(span(dur)));
                }
                "i" | "I" => snap.events.push(Event::Instant(InstantRecord {
                    name: name(),
                    tid,
                    ts_us: ts as u64,
                    attrs: chrome_args(e.get("args")).0,
                })),
                _ => {}
            }
        }
        Ok(snap)
    }

    /// Serializes the event log as a Chrome `trace_event` JSON document
    /// (`{"traceEvents": [...]}`), loadable in `chrome://tracing` and
    /// Perfetto.
    ///
    /// Spans are emitted as **balanced `B`/`E` pairs** per thread track.
    /// Within a track, spans are laid out by `(start ascending, end
    /// descending)` and closed with an explicit stack, so properly
    /// nesting input (what RAII spans guarantee per thread) produces a
    /// well-formed `B…B…E…E` sequence.
    pub fn to_chrome_trace(&self) -> String {
        Value::Obj(vec![
            ("traceEvents".into(), Value::Arr(self.chrome_events())),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ])
        .to_json()
    }

    /// The event list of [`Snapshot::to_chrome_trace`].
    fn chrome_events(&self) -> Vec<Value> {
        let mut events: Vec<Value> = Vec::new();
        // Group span intervals per tid, preserving u64 precision.
        let mut spans: Vec<&SpanRecord> = self.spans().collect();
        spans.sort_by(|a, b| {
            a.tid
                .cmp(&b.tid)
                .then(a.start_us.cmp(&b.start_us))
                .then(b.end_us().cmp(&a.end_us()))
        });
        let mut i = 0usize;
        while i < spans.len() {
            let tid = spans[i].tid;
            let mut stack: Vec<&SpanRecord> = Vec::new();
            while i < spans.len() && spans[i].tid == tid {
                let s = spans[i];
                while let Some(top) = stack.last() {
                    if top.end_us() <= s.start_us {
                        events.push(chrome_end(top));
                        stack.pop();
                    } else {
                        break;
                    }
                }
                events.push(chrome_begin(s));
                stack.push(s);
                i += 1;
            }
            while let Some(top) = stack.pop() {
                events.push(chrome_end(top));
            }
        }
        for inst in self.instants() {
            events.push(Value::Obj(vec![
                ("name".into(), Value::Str(inst.name.clone())),
                ("ph".into(), Value::Str("i".into())),
                ("ts".into(), Value::Num(inst.ts_us as f64)),
                ("pid".into(), Value::Num(1.0)),
                ("tid".into(), Value::Num(inst.tid as f64)),
                ("s".into(), Value::Str("t".into())),
                ("args".into(), attrs_to_json(&inst.attrs)),
            ]));
        }
        events
    }
}

/// The inverse of what [`chrome_begin`] does to a span's attributes:
/// scalar `args` come back as attrs, and the `trace_id` / `span_id` /
/// `parent_id` hex strings as the span's [`TraceContext`]. Non-scalar
/// args of foreign traces are skipped.
fn chrome_args(args: Option<&Value>) -> (Vec<(String, AttrValue)>, Option<TraceContext>) {
    let Some(Value::Obj(pairs)) = args else {
        return (Vec::new(), None);
    };
    let id = |key: &str| {
        args.and_then(|a| a.get(key))
            .and_then(Value::as_str)
            .and_then(trace::id_from_hex)
    };
    let trace = match (id("trace_id"), id("span_id")) {
        (Some(trace_id), Some(span_id)) => Some(TraceContext {
            trace_id,
            span_id,
            parent_id: id("parent_id"),
        }),
        _ => None,
    };
    let attrs = pairs
        .iter()
        .filter(|(k, _)| {
            trace.is_none() || !matches!(k.as_str(), "trace_id" | "span_id" | "parent_id")
        })
        .filter_map(|(k, v)| Some((k.clone(), AttrValue::from_json(v)?)))
        .collect();
    (attrs, trace)
}

fn chrome_begin(s: &SpanRecord) -> Value {
    let mut args = s.attrs.clone();
    if let Some(t) = &s.trace {
        args.push((
            "trace_id".into(),
            AttrValue::Str(trace::id_to_hex(t.trace_id)),
        ));
        args.push((
            "span_id".into(),
            AttrValue::Str(trace::id_to_hex(t.span_id)),
        ));
        if let Some(parent) = t.parent_id {
            args.push(("parent_id".into(), AttrValue::Str(trace::id_to_hex(parent))));
        }
    }
    Value::Obj(vec![
        ("name".into(), Value::Str(s.name.clone())),
        ("ph".into(), Value::Str("B".into())),
        ("ts".into(), Value::Num(s.start_us as f64)),
        ("pid".into(), Value::Num(1.0)),
        ("tid".into(), Value::Num(s.tid as f64)),
        ("args".into(), attrs_to_json(&args)),
    ])
}

fn chrome_end(s: &SpanRecord) -> Value {
    Value::Obj(vec![
        ("ph".into(), Value::Str("E".into())),
        ("ts".into(), Value::Num(s.end_us() as f64)),
        ("pid".into(), Value::Num(1.0)),
        ("tid".into(), Value::Num(s.tid as f64)),
    ])
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
    fn chrome_trace_is_balanced_and_nested() {
        let text = sample().to_chrome_trace();
        let v = Value::parse(&text).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        // Spans: B(schedule) B(round) E E, then the instant.
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(phases, ["B", "B", "E", "E", "i"]);
        assert_eq!(
            events[0].get("name").and_then(Value::as_str),
            Some("schedule")
        );
        assert_eq!(events[1].get("name").and_then(Value::as_str), Some("round"));
        // The inner span closes first (ts 50 vs 110).
        assert_eq!(events[2].get("ts").and_then(Value::as_f64), Some(50.0));
        assert_eq!(events[3].get("ts").and_then(Value::as_f64), Some(110.0));
    }

    #[test]
    fn sibling_spans_close_before_the_next_opens() {
        let snap = Snapshot {
            events: vec![
                Event::Span(SpanRecord {
                    name: "a".into(),
                    tid: 1,
                    start_us: 0,
                    dur_us: 10,
                    attrs: vec![],
                    trace: None,
                }),
                Event::Span(SpanRecord {
                    name: "b".into(),
                    tid: 1,
                    start_us: 10,
                    dur_us: 10,
                    attrs: vec![],
                    trace: None,
                }),
            ],
        };
        let v = Value::parse(&snap.to_chrome_trace()).unwrap();
        let phases: Vec<&str> = v
            .get("traceEvents")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|e| e.get("ph").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(phases, ["B", "E", "B", "E"]);
    }

    #[test]
    fn traced_spans_round_trip_jsonl_and_reach_chrome_args() {
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
        // Lossless JSONL round trip, trace ids included.
        let back = Snapshot::from_jsonl(&snap.to_jsonl()).unwrap();
        assert_eq!(back, snap);
        // The Chrome view exposes the ids as hex-string args.
        let v = Value::parse(&snap.to_chrome_trace()).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        let args = events[1].get("args").unwrap();
        assert_eq!(
            args.get("trace_id").and_then(Value::as_str),
            Some(trace::id_to_hex(root.trace_id).as_str())
        );
        assert_eq!(
            args.get("parent_id").and_then(Value::as_str),
            Some(trace::id_to_hex(root.span_id).as_str())
        );
    }

    #[test]
    fn one_snapshot_reads_back_equal_from_jsonl_and_chrome() {
        let root = TraceContext::root("tenant-a", 4);
        let mut snap = sample();
        let transfer = |src: u64, dst: u64, start_us, dur_us, trace| {
            let mut span =
                crate::causal::transfer_span(src as usize, dst as usize, start_us, dur_us);
            span.attrs.push(("modeled_ms".into(), AttrValue::F64(5.25)));
            span.trace = trace;
            Event::Span(span)
        };
        snap.events.push(transfer(0, 1, 20, 500, Some(root)));
        snap.events
            .push(transfer(2, 1, 530, 500, Some(root.child(1))));
        let jsonl = Format::Jsonl.decode(&snap.to_jsonl()).unwrap();
        let chrome = Format::Chrome.decode(&snap.to_chrome_trace()).unwrap();
        assert_eq!(jsonl, snap);
        // The Chrome document orders spans per track, not by commit.
        let spans = |s: &Snapshot| {
            let mut v: Vec<SpanRecord> = s.spans().cloned().collect();
            v.sort_by_key(|x| (x.tid, x.start_us));
            v
        };
        assert_eq!(spans(&chrome), spans(&jsonl));
        assert_eq!(
            chrome.instants().collect::<Vec<_>>(),
            jsonl.instants().collect::<Vec<_>>()
        );
        let transfers = crate::causal::transfers_from_snapshot;
        assert_eq!(transfers(&chrome), transfers(&jsonl));
        assert_eq!(transfers(&jsonl).len(), 2);
    }

    #[test]
    fn truncated_chrome_trace_drops_the_unclosed_span() {
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":0,"pid":1,"tid":1},
            {"ph":"E","ts":50,"pid":1,"tid":1},
            {"name":"b","ph":"B","ts":60,"pid":1,"tid":1}]}"#;
        // The closed span decodes; the one that never closed has no
        // duration to report and is left out, not a hard error.
        let snap = Format::Chrome.decode(text).unwrap();
        let names: Vec<&str> = snap.spans().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a"]);
        assert_eq!(snap.spans().next().unwrap().dur_us, 50);
        // A genuinely malformed trace (E with no B) still errors.
        let bad = r#"{"traceEvents":[{"ph":"E","ts":5,"pid":1,"tid":9}]}"#;
        assert!(Format::Chrome.decode(bad).is_err());
    }

    #[test]
    fn a_span_ending_past_u64_is_a_decode_error_naming_its_line() {
        let start = u64::MAX - 2047;
        let jsonl = format!(
            "{{\"type\":\"instant\",\"name\":\"a\",\"tid\":1,\"ts_us\":0}}\n\
             {{\"type\":\"span\",\"name\":\"transfer\",\"tid\":1,\"start_us\":{start},\"dur_us\":4096}}\n"
        );
        let err = Format::Jsonl.decode(&jsonl).unwrap_err();
        assert!(err.starts_with("line 2: span end"), "{err}");
        // The same span one microsecond short of the top still decodes.
        let fits = jsonl.replace("4096", "2047");
        assert_eq!(Format::Jsonl.decode(&fits).unwrap().spans().count(), 1);
        let chrome = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0,"dur":5,"pid":1,"tid":1},
            {"name":"b","ph":"X","ts":1.8446744073709552e19,"dur":4096,"pid":1,"tid":1}]}"#;
        let err = Format::Chrome.decode(chrome).unwrap_err();
        assert!(err.starts_with("traceEvents[1]: span end"), "{err}");
    }

    #[test]
    fn the_chrome_encoder_saturates_span_ends() {
        // An end at the top of the range, as a re-derived timestamp can
        // produce: the `E` events sit at `u64::MAX`, in nesting order.
        let span = |name: &str, start_us, dur_us| {
            Event::Span(SpanRecord {
                name: name.into(),
                tid: 1,
                start_us,
                dur_us,
                attrs: vec![],
                trace: None,
            })
        };
        let snap = Snapshot {
            events: vec![
                span("outer", u64::MAX - 10, 10),
                span("inner", u64::MAX - 5, 20),
            ],
        };
        let v = Value::parse(&snap.to_chrome_trace()).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(phases, ["B", "B", "E", "E"]);
        assert_eq!(
            events[3].get("ts").and_then(Value::as_f64),
            Some(u64::MAX as f64)
        );
    }

    #[test]
    fn unknown_extensions_get_a_typed_error() {
        let err = Format::of_path("dump.csv").unwrap_err();
        assert_eq!(
            err,
            UnknownFormat {
                extension: ".csv".into()
            }
        );
        let msg = err.to_string();
        for (ext, _) in EXTENSIONS {
            assert!(msg.contains(ext), "{msg} should name {ext}");
        }
        assert_eq!(Format::of_path("noextension").unwrap_err().extension, "");
        // The table is case-insensitive and reads the last extension.
        assert_eq!(Format::of_path("dir.v2/RUN.Trace"), Ok(Format::Chrome));
        assert_eq!(Format::of_path("run.trace.jsonl"), Ok(Format::Jsonl));
        assert_eq!(
            Format::of_path("metrics.prom").unwrap_err().extension,
            ".prom"
        );
        // A recognized extension still surfaces parse failures.
        let jsonl = Format::of_path("x.jsonl").unwrap();
        assert!(jsonl.decode("{\"type\":\"nope\"}").is_err());
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
            let err = Format::Jsonl
                .decode(&format!("{instant}\n{line}\n"))
                .unwrap_err();
            let kind = Value::parse(line).unwrap();
            let kind = kind.get("type").and_then(Value::as_str).unwrap();
            assert_eq!(err, format!("line 2: unknown type {kind:?}"));
        }
    }

    #[test]
    fn every_extension_reads_back_what_it_writes() {
        // The Chrome document lays spans out per track and closes them
        // innermost first, so its decode may order spans differently:
        // compare both decodes with every span in (track, start) order.
        let by_track = |s: Snapshot| {
            let mut events = s.events;
            events.sort_by_key(|e| match e {
                Event::Span(s) => (0, s.tid, s.start_us),
                Event::Instant(i) => (1, i.tid, i.ts_us),
            });
            events
        };
        let snap = sample();
        let jsonl = Format::Jsonl.decode(&snap.to_jsonl()).unwrap();
        assert_eq!(jsonl, snap);
        for &(ext, format) in EXTENSIONS {
            assert_eq!(Format::of_path(format!("capture{ext}")), Ok(format));
            let back = format.decode(&format.encode(&snap)).unwrap();
            assert_eq!(by_track(back), by_track(jsonl.clone()), "{ext}");
        }
    }
}
