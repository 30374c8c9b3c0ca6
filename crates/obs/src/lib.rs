//! `adaptcomm-obs` — the unified observability layer.
//!
//! The paper's premise is *run-time network awareness* (§2, §6.4):
//! decisions are only as good as the measurements behind them. This
//! crate makes the stack's own decisions observable the same way —
//! scheduler rounds, directory staleness, warm-start hits, and runtime
//! replans all flow into one [`Registry`] of counters, gauges,
//! fixed-bucket histograms, and nested wall-clock spans, written and
//! read back by one codec as a JSONL event stream or a Chrome
//! `trace_event` file loadable in `chrome://tracing` / Perfetto (see
//! [`Format`]).
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
//! Metric names are lowercase dotted paths, `<layer>.<thing>.<aspect>`:
//! `sched.matching.rounds`, `directory.publish`,
//! `runtime.replan.triggered`. Span names are the phase names shown in
//! trace viewers: `schedule`, `replan`, `transfer`.

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
pub use snapshot::{
    CounterSnapshot, Event, Format, GaugeSnapshot, HistogramSnapshot, InstantRecord, Snapshot,
    SpanRecord, UnknownFormat,
};
pub use trace::TraceContext;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default duration buckets (milliseconds) for timing histograms:
/// roughly logarithmic from 10 µs to 10 s.
pub const MS_BUCKETS: &[f64] = &[
    0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1_000.0, 10_000.0,
];

/// Default small-count buckets (queue depths, heap sizes).
pub const DEPTH_BUCKETS: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

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
    /// The attribute as a JSON value.
    pub fn to_json(&self) -> json::Value {
        match self {
            AttrValue::U64(v) => json::Value::Num(*v as f64),
            AttrValue::F64(v) => json::Value::Num(*v),
            AttrValue::Str(s) => json::Value::Str(s.clone()),
        }
    }

    /// The inverse of [`AttrValue::to_json`]. Integral non-negative
    /// numbers come back as `U64` (the exporters' convention).
    pub fn from_json(v: &json::Value) -> Option<AttrValue> {
        match v {
            json::Value::Num(_) => Some(match v.as_u64() {
                Some(u) => AttrValue::U64(u),
                None => AttrValue::F64(v.as_f64().unwrap()),
            }),
            json::Value::Str(s) => Some(AttrValue::Str(s.clone())),
            _ => None,
        }
    }
}

/// A histogram's shared storage: fixed upper bounds plus an overflow
/// bucket, all lock-free.
#[derive(Debug)]
struct HistogramCell {
    /// Ascending inclusive upper bounds; values above the last land in
    /// the overflow bucket.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets, the last one being overflow.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values, stored as f64 bits (CAS loop).
    sum_bits: AtomicU64,
}

impl HistogramCell {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        HistogramCell {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }
}

#[derive(Debug, Default)]
struct EventLog {
    events: Vec<Event>,
}

#[derive(Debug)]
struct Inner {
    enabled: AtomicBool,
    epoch: Instant,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
    events: Mutex<EventLog>,
}

impl Inner {
    fn new(enabled: bool) -> Self {
        Inner {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            events: Mutex::new(EventLog::default()),
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

    /// A counter handle for hot loops: the name is resolved once, each
    /// [`Counter::add`] is then one atomic op. Disabled registries hand
    /// out inert handles.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.is_enabled() {
            return Counter { cell: None };
        }
        let mut map = self.inner.counters.lock().unwrap();
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Counter { cell: Some(cell) }
    }

    /// One-shot counter increment (`counter(name).add(delta)`).
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).add(delta);
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.inner
            .gauges
            .lock()
            .unwrap()
            .insert(name.to_string(), value);
    }

    /// A histogram handle with the given bucket bounds (ascending upper
    /// bounds; an overflow bucket is implicit). The bounds of the first
    /// registration win.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        if !self.is_enabled() {
            return Histogram { cell: None };
        }
        let mut map = self.inner.histograms.lock().unwrap();
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCell::new(bounds)))
            .clone();
        Histogram { cell: Some(cell) }
    }

    /// One-shot histogram observation.
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        self.histogram(name, bounds).observe(value);
    }

    /// Opens a wall-clock span; it records itself when dropped. Spans
    /// opened while another span on the same thread is live nest under
    /// it in the Chrome-trace view (RAII drop order guarantees proper
    /// nesting per thread).
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
        self.inner
            .events
            .lock()
            .unwrap()
            .events
            .push(Event::Span(record));
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
            .events
            .push(Event::Instant(record));
    }

    /// A point-in-time copy of everything recorded so far, ready for the
    /// exporters.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, cell)| CounterSnapshot {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, &value)| GaugeSnapshot {
                name: name.clone(),
                value,
            })
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, cell)| {
                let buckets: Vec<u64> = cell
                    .buckets
                    .iter()
                    .take(cell.bounds.len())
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect();
                HistogramSnapshot {
                    name: name.clone(),
                    bounds: cell.bounds.clone(),
                    buckets,
                    overflow: cell.buckets[cell.bounds.len()].load(Ordering::Relaxed),
                    count: cell.count.load(Ordering::Relaxed),
                    sum: f64::from_bits(cell.sum_bits.load(Ordering::Relaxed)),
                }
            })
            .collect();
        let events = self.inner.events.lock().unwrap().events.clone();
        Snapshot {
            counters,
            gauges,
            histograms,
            events,
        }
    }

    /// Drops everything recorded so far (counter values, gauges,
    /// histograms, events). The enabled flag and epoch are kept, so a
    /// driver can emit one trace per work item from one registry.
    pub fn clear(&self) {
        self.inner.counters.lock().unwrap().clear();
        self.inner.gauges.lock().unwrap().clear();
        self.inner.histograms.lock().unwrap().clear();
        self.inner.events.lock().unwrap().events.clear();
    }
}

/// The process-wide registry library code instruments into. Starts
/// disabled; `obs::global().set_enabled(true)` opts in.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::disabled)
}

/// A resolved counter handle (inert if the registry was disabled at
/// resolution time).
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value (0 for inert handles).
    pub fn value(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A resolved histogram handle (inert if the registry was disabled).
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: f64) {
        if let Some(cell) = &self.cell {
            cell.observe(value);
        }
    }
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
    fn counters_gauges_histograms_record() {
        let reg = Registry::new();
        let c = reg.counter("a.b");
        c.add(2);
        c.incr();
        reg.add("a.b", 1);
        reg.gauge_set("g", 1.5);
        reg.gauge_set("g", 2.5);
        let h = reg.histogram("h", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(100.0); // overflow
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.b"), Some(4));
        assert_eq!(snap.gauges[0].value, 2.5);
        let hist = &snap.histograms[0];
        assert_eq!(hist.buckets, vec![1, 1]);
        assert_eq!(hist.overflow, 1);
        assert_eq!(hist.count, 3);
        assert!((hist.sum - 105.5).abs() < 1e-9);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::disabled();
        reg.add("x", 5);
        reg.gauge_set("g", 1.0);
        reg.observe("h", MS_BUCKETS, 3.0);
        reg.span("s").attr("k", 1u64).end();
        reg.record_instant(InstantRecord {
            name: "m".into(),
            tid: current_tid(),
            ts_us: reg.now_us(),
            attrs: vec![],
        });
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.events.is_empty());
        // Flipping it on starts recording.
        reg.set_enabled(true);
        assert!(reg.is_enabled());
        reg.add("x", 5);
        assert_eq!(reg.snapshot().counter("x"), Some(5));
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
        reg.add("x", 1);
        reg.span("s").end();
        reg.clear();
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.events.is_empty());
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
