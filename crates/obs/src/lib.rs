//! `adaptcomm-obs` — the unified observability layer.
//!
//! The paper's premise is *run-time network awareness* (§2, §6.4):
//! decisions are only as good as the measurements behind them. This
//! crate makes the stack's own decisions observable the same way —
//! schedule construction, runtime replans, faults and every delivered
//! transfer flow into one [`Registry`] event log of nested wall-clock
//! spans and instants, written and read back exactly by one codec, a
//! JSONL event stream ([`Snapshot::to_jsonl`] / [`Snapshot::from_jsonl`]).
//! What the registry
//! records is what `explain` and `obs-diff` read; a count the caller
//! needs travels in a typed field (`SolveStats`, `AdaptReport`, …).
//!
//! # Global or local
//!
//! Library code instruments through [`global`], a process-wide registry
//! that starts **disabled**: every instrumentation site first loads one
//! relaxed atomic and bails, so the hot paths guarded by the perf gate
//! pay nothing until someone opts in with
//! `obs::global().set_enabled(true)` (the CLI `--obs` flag does).
//! Tests and embedders can instead create an independent
//! [`Registry::new`] and record into it directly.
//!
//! # Naming conventions
//!
//! Span names are the phase names shown in trace viewers: `schedule`,
//! `replan`, `transfer`. Instant names are lowercase dotted paths,
//! `<layer>.<event>`: `runtime.replan`, `chaos.inject`, `flight.dump`.

pub mod causal;
pub mod detect;
pub mod flight;
pub mod fnv;
pub mod json;
pub mod snapshot;
pub mod trace;

pub use detect::{Cusum, CusumConfig, DriftDirection};
pub use flight::{flight, FlightRecorder};
pub use fnv::Fnv1a;
pub use snapshot::{Event, InstantRecord, Snapshot, SpanRecord};
pub use trace::TraceContext;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One key/value attribute on a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl AttrValue {
    /// The attribute as a JSON value: a `U64` is a [`json::Value::Int`],
    /// an `F64` a [`json::Value::Num`] (written with a fraction or an
    /// exponent, `12.0`), so each reads back as what it was.
    pub fn to_json(&self) -> json::Value {
        match self {
            AttrValue::U64(v) => json::Value::Int(*v),
            AttrValue::F64(v) => json::Value::Num(*v),
            AttrValue::Str(s) => json::Value::Str(s.clone()),
        }
    }

    /// The inverse of [`AttrValue::to_json`]: `Int` → `U64`, `Num` →
    /// `F64`, `Str` → `Str`.
    pub fn from_json(v: &json::Value) -> Option<AttrValue> {
        match v {
            json::Value::Int(u) => Some(AttrValue::U64(*u)),
            json::Value::Num(x) => Some(AttrValue::F64(*x)),
            json::Value::Str(s) => Some(AttrValue::Str(s.clone())),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Inner {
    enabled: AtomicBool,
    epoch: Instant,
    events: Mutex<Vec<Event>>,
}

impl Inner {
    fn new(enabled: bool) -> Self {
        Inner {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }
}

/// A thread-safe instrumentation registry. Cloning shares the storage.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// A small, stable per-thread id (1, 2, … in first-use order) for span
/// track assignment — `std::thread::ThreadId` has no stable integer
/// form.
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

impl Registry {
    /// A fresh, enabled registry.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Inner::new(true)),
        }
    }

    /// A fresh registry with recording off (every call is a no-op until
    /// [`Registry::set_enabled`]).
    pub fn disabled() -> Self {
        Registry {
            inner: Arc::new(Inner::new(false)),
        }
    }

    /// Whether recording is on. Instrumentation sites check this first;
    /// it is a single relaxed atomic load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Microseconds since this registry was created (the trace epoch).
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Opens a wall-clock span; it records itself when dropped. Spans
    /// opened while another span on the same thread is live nest inside
    /// it (RAII drop order guarantees proper nesting per thread).
    pub fn span(&self, name: &str) -> Span {
        if !self.is_enabled() {
            return Span { live: None };
        }
        Span {
            live: Some(LiveSpan {
                registry: self.clone(),
                name: name.to_string(),
                tid: current_tid(),
                start_us: self.now_us(),
                attrs: Vec::new(),
                trace: None,
            }),
        }
    }

    /// Records a completed span with explicit timestamps — for spans
    /// that do not open and close on one thread (e.g. the runtime's
    /// transfers, granted and completed by the kernel's policy).
    pub fn record_span(&self, record: SpanRecord) {
        if !self.is_enabled() {
            return;
        }
        // Mirror into the always-on flight recorder so the last seconds
        // before a trigger are replayable post-mortem.
        flight::flight().record(Event::Span(record.clone()));
        self.inner.events.lock().unwrap().push(Event::Span(record));
    }

    /// Records an instant event with explicit timestamps.
    pub fn record_instant(&self, record: InstantRecord) {
        if !self.is_enabled() {
            return;
        }
        flight::flight().record(Event::Instant(record.clone()));
        self.inner
            .events
            .lock()
            .unwrap()
            .push(Event::Instant(record));
    }

    /// A point-in-time copy of everything recorded so far, ready for the
    /// exporters.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            events: self.inner.events.lock().unwrap().clone(),
        }
    }

    /// Drops every event recorded so far. The enabled flag and epoch
    /// are kept, so a driver can emit one trace per work item from one
    /// registry.
    pub fn clear(&self) {
        self.inner.events.lock().unwrap().clear();
    }
}

/// The process-wide registry library code instruments into. Starts
/// disabled; `obs::global().set_enabled(true)` opts in.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::disabled)
}

#[derive(Debug)]
struct LiveSpan {
    registry: Registry,
    name: String,
    tid: u64,
    start_us: u64,
    attrs: Vec<(String, AttrValue)>,
    trace: Option<TraceContext>,
}

/// An open span; records itself (name, duration, attributes) into the
/// registry when dropped.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    live: Option<LiveSpan>,
}

impl Span {
    /// Attaches a key/value attribute.
    pub fn attr(mut self, key: &str, value: impl Into<AttrValue>) -> Self {
        if let Some(live) = &mut self.live {
            live.attrs.push((key.to_string(), value.into()));
        }
        self
    }

    /// Places the span in a cross-process request tree: the recorded
    /// span carries `ctx`'s trace/span/parent ids, so a reader of two
    /// processes' captures can stitch it to its parent in the other.
    pub fn trace(mut self, ctx: TraceContext) -> Self {
        if let Some(live) = &mut self.live {
            live.trace = Some(ctx);
        }
        self
    }

    /// Closes the span now (otherwise scope end does).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let end_us = live.registry.now_us();
            live.registry.record_span(SpanRecord {
                name: live.name,
                tid: live.tid,
                start_us: live.start_us,
                dur_us: end_us.saturating_sub(live.start_us),
                attrs: live.attrs,
                trace: live.trace,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::disabled();
        reg.span("s").attr("k", 1u64).end();
        reg.record_instant(InstantRecord {
            name: "m".into(),
            tid: current_tid(),
            ts_us: reg.now_us(),
            attrs: vec![],
        });
        assert!(reg.snapshot().events.is_empty());
        // Flipping it on starts recording.
        reg.set_enabled(true);
        assert!(reg.is_enabled());
        reg.span("s").end();
        assert_eq!(reg.snapshot().spans().count(), 1);
    }

    #[test]
    fn spans_nest_and_record_attrs() {
        let reg = Registry::new();
        {
            let _outer = reg.span("outer").attr("p", 8u64);
            let _inner = reg.span("inner");
        }
        let snap = reg.snapshot();
        let spans: Vec<&SpanRecord> = snap.spans().collect();
        // Drop order: inner closes first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].attrs[0].0, "p");
        assert!(spans[1].start_us <= spans[0].start_us);
        assert!(
            spans[1].start_us + spans[1].dur_us >= spans[0].start_us + spans[0].dur_us,
            "outer must cover inner"
        );
        assert_eq!(spans[0].tid, spans[1].tid);
    }

    #[test]
    fn clear_resets_state() {
        let reg = Registry::new();
        reg.span("s").end();
        reg.clear();
        assert!(reg.snapshot().events.is_empty());
        assert!(reg.is_enabled(), "clear keeps the enabled flag");
    }

    #[test]
    fn global_starts_disabled() {
        assert!(!global().is_enabled());
    }

    #[test]
    fn tids_are_stable_per_thread() {
        let here = current_tid();
        assert_eq!(here, current_tid());
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(here, other);
    }
}
