//! Per-phase rollups of a recorded capture, for `adaptcomm obs-summary`.
//!
//! A [`Summary`] is built from a [`Snapshot`] in any capture format (see
//! [`crate::snapshot::Format`]) and aggregates spans by name into
//! [`PhaseTotal`] rows (count, total/min/max duration), alongside any
//! counters and gauges the capture carried.

use crate::snapshot::Snapshot;

/// A non-fatal defect found while reading a capture. The summary is
/// still produced; warnings tell the reader what it cannot include.
#[derive(Debug, Clone, PartialEq)]
pub enum SummaryWarning {
    /// A span began but its end event is missing (truncated capture);
    /// the span is excluded from the per-phase totals.
    UnclosedSpan {
        /// Span name.
        name: String,
        /// Thread/track id it opened on.
        tid: u64,
    },
}

impl std::fmt::Display for SummaryWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SummaryWarning::UnclosedSpan { name, tid } => write!(
                f,
                "span {name:?} on tid {tid} never closed (truncated capture?); excluded"
            ),
        }
    }
}

/// Aggregated timing for one span name ("phase").
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTotal {
    /// Span name (`schedule`, `transfer`, …).
    pub name: String,
    /// How many spans carried this name.
    pub count: u64,
    /// Summed duration, milliseconds.
    pub total_ms: f64,
    /// Shortest single span, milliseconds.
    pub min_ms: f64,
    /// Longest single span, milliseconds.
    pub max_ms: f64,
    /// Mean span duration, milliseconds.
    pub mean_ms: f64,
    /// Nearest-rank 95th-percentile span duration, milliseconds — with
    /// `min`/`max` it distinguishes one 500 ms span from 500 spans of
    /// 1 ms, which read identically as totals.
    pub p95_ms: f64,
}

/// A rendered-ready rollup of one trace file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Per-phase totals, descending by total time.
    pub phases: Vec<PhaseTotal>,
    /// Counters carried by the capture (JSONL only), name-ascending.
    pub counters: Vec<(String, u64)>,
    /// Gauges carried by the capture (JSONL only), name-ascending.
    pub gauges: Vec<(String, f64)>,
    /// Instant-event counts by name, name-ascending.
    pub instants: Vec<(String, u64)>,
    /// Non-fatal defects found while reading the capture.
    pub warnings: Vec<SummaryWarning>,
    /// Per-phase span durations retained during aggregation, drained by
    /// `finish()` into the percentile fields.
    durations: Vec<(String, Vec<f64>)>,
}

impl Summary {
    /// Rolls up a parsed snapshot. Spans a truncated Chrome capture
    /// never closed are tolerated (their durations are unknowable) and
    /// reported as [`SummaryWarning::UnclosedSpan`].
    pub fn from_snapshot(snap: &Snapshot) -> Summary {
        let mut summary = Summary::default();
        for span in snap.spans() {
            summary.add_span(&span.name, span.dur_us as f64 / 1_000.0);
        }
        for inst in snap.instants() {
            summary.add_instant(&inst.name);
        }
        summary.counters = snap
            .counters
            .iter()
            .map(|c| (c.name.clone(), c.value))
            .collect();
        summary.gauges = snap
            .gauges
            .iter()
            .map(|g| (g.name.clone(), g.value))
            .collect();
        summary.warnings = snap
            .unclosed
            .iter()
            .map(|(name, tid)| SummaryWarning::UnclosedSpan {
                name: name.clone(),
                tid: *tid,
            })
            .collect();
        summary.finish();
        summary
    }

    fn add_span(&mut self, name: &str, dur_ms: f64) {
        match self.durations.iter_mut().find(|(n, _)| n == name) {
            Some((_, durs)) => durs.push(dur_ms),
            None => self.durations.push((name.to_string(), vec![dur_ms])),
        }
        match self.phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.count += 1;
                p.total_ms += dur_ms;
                p.min_ms = p.min_ms.min(dur_ms);
                p.max_ms = p.max_ms.max(dur_ms);
            }
            None => self.phases.push(PhaseTotal {
                name: name.to_string(),
                count: 1,
                total_ms: dur_ms,
                min_ms: dur_ms,
                max_ms: dur_ms,
                mean_ms: dur_ms,
                p95_ms: dur_ms,
            }),
        }
    }

    fn add_instant(&mut self, name: &str) {
        match self.instants.iter_mut().find(|(n, _)| n == name) {
            Some((_, c)) => *c += 1,
            None => self.instants.push((name.to_string(), 1)),
        }
    }

    fn finish(&mut self) {
        for (name, durs) in std::mem::take(&mut self.durations) {
            let Some(phase) = self.phases.iter_mut().find(|p| p.name == name) else {
                continue;
            };
            phase.mean_ms = phase.total_ms / phase.count as f64;
            let mut sorted = durs;
            sorted.sort_by(f64::total_cmp);
            // Nearest-rank percentile: ceil(0.95 · n)-th smallest.
            let rank = ((0.95 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            phase.p95_ms = sorted[rank - 1];
        }
        self.phases
            .sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));
        self.counters.sort();
        self.gauges
            .sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        self.instants.sort();
    }

    /// A fixed-width table of per-phase totals, counters, and instant
    /// counts — what `adaptcomm obs-summary` prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.phases.is_empty() {
            out.push_str("no spans recorded\n");
        } else {
            let width = self
                .phases
                .iter()
                .map(|p| p.name.len())
                .max()
                .unwrap_or(5)
                .max(5);
            let _ = writeln!(
                out,
                "{:<width$}  {:>8}  {:>12}  {:>10}  {:>10}  {:>10}  {:>10}",
                "phase", "count", "total_ms", "mean_ms", "p95_ms", "min_ms", "max_ms"
            );
            for p in &self.phases {
                let _ = writeln!(
                    out,
                    "{:<width$}  {:>8}  {:>12.3}  {:>10.3}  {:>10.3}  {:>10.3}  {:>10.3}",
                    p.name, p.count, p.total_ms, p.mean_ms, p.p95_ms, p.min_ms, p.max_ms
                );
            }
        }
        for w in &self.warnings {
            let _ = writeln!(out, "warning: {w}");
        }
        if !self.instants.is_empty() {
            out.push('\n');
            let _ = writeln!(out, "instants:");
            for (name, count) in &self.instants {
                let _ = writeln!(out, "  {name}: {count}");
            }
        }
        if !self.counters.is_empty() {
            out.push('\n');
            let _ = writeln!(out, "counters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name}: {value}");
            }
        }
        if !self.gauges.is_empty() {
            out.push('\n');
            let _ = writeln!(out, "gauges:");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name}: {value}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Format, InstantRecord};
    use crate::Registry;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.add("sched.rounds", 4);
        for _ in 0..3 {
            reg.span("transfer").end();
        }
        reg.span("schedule").end();
        reg.record_instant(InstantRecord {
            name: "replan".into(),
            tid: 1,
            ts_us: reg.now_us(),
            attrs: vec![],
        });
        reg
    }

    #[test]
    fn summarizes_jsonl() {
        let text = sample_registry().snapshot().to_jsonl();
        let summary = Summary::from_snapshot(&Format::Jsonl.decode(&text).unwrap());
        let transfer = summary
            .phases
            .iter()
            .find(|p| p.name == "transfer")
            .unwrap();
        assert_eq!(transfer.count, 3);
        assert_eq!(summary.counters, vec![("sched.rounds".to_string(), 4)]);
        assert_eq!(summary.instants, vec![("replan".to_string(), 1)]);
        let rendered = summary.render();
        assert!(rendered.contains("transfer"));
        assert!(rendered.contains("sched.rounds: 4"));
    }

    #[test]
    fn summarizes_chrome_trace() {
        let text = sample_registry().snapshot().to_chrome_trace();
        let summary = Summary::from_snapshot(&Format::Chrome.decode(&text).unwrap());
        let transfer = summary
            .phases
            .iter()
            .find(|p| p.name == "transfer")
            .unwrap();
        assert_eq!(transfer.count, 3);
        assert!(summary.phases.iter().any(|p| p.name == "schedule"));
        assert_eq!(summary.instants, vec![("replan".to_string(), 1)]);
    }

    #[test]
    fn chrome_and_jsonl_agree_on_counts() {
        let snap = sample_registry().snapshot();
        let a = Summary::from_snapshot(&Format::Jsonl.decode(&snap.to_jsonl()).unwrap());
        let b = Summary::from_snapshot(&Format::Chrome.decode(&snap.to_chrome_trace()).unwrap());
        let counts = |s: &Summary| {
            let mut v: Vec<(String, u64)> =
                s.phases.iter().map(|p| (p.name.clone(), p.count)).collect();
            v.sort();
            v
        };
        assert_eq!(counts(&a), counts(&b));
    }

    #[test]
    fn truncated_chrome_trace_warns_instead_of_failing() {
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":0,"pid":1,"tid":1},
            {"ph":"E","ts":50,"pid":1,"tid":1},
            {"name":"b","ph":"B","ts":60,"pid":1,"tid":1}]}"#;
        let summary = Summary::from_snapshot(&Format::Chrome.decode(text).unwrap());
        // The closed span still aggregates; the truncated one is a
        // typed warning, not a silent drop or a hard error.
        assert_eq!(summary.phases.len(), 1);
        assert_eq!(summary.phases[0].name, "a");
        assert_eq!(
            summary.warnings,
            vec![SummaryWarning::UnclosedSpan {
                name: "b".into(),
                tid: 1
            }]
        );
        let rendered = summary.render();
        assert!(rendered.contains("never closed"), "{rendered}");
        // A genuinely malformed trace (E with no B) still errors.
        let bad = r#"{"traceEvents":[{"ph":"E","ts":5,"pid":1,"tid":9}]}"#;
        assert!(Format::Chrome.decode(bad).is_err());
    }

    #[test]
    fn mean_and_p95_separate_span_shapes() {
        // One 500 ms span vs 500 spans of 1 ms: identical totals,
        // distinguishable mean/p95.
        let span = |name: &str, dur_us: u64, start: u64| {
            crate::snapshot::Event::Span(crate::snapshot::SpanRecord {
                name: name.into(),
                tid: 1,
                start_us: start,
                dur_us,
                attrs: vec![],
                trace: None,
            })
        };
        let mut events = vec![span("lump", 500_000, 0)];
        for i in 0..500 {
            events.push(span("grains", 1_000, 500_000 + i * 1_000));
        }
        let snap = crate::snapshot::Snapshot {
            events,
            ..Default::default()
        };
        let summary = Summary::from_snapshot(&snap);
        let lump = summary.phases.iter().find(|p| p.name == "lump").unwrap();
        let grains = summary.phases.iter().find(|p| p.name == "grains").unwrap();
        assert_eq!(lump.total_ms, grains.total_ms);
        assert_eq!(lump.mean_ms, 500.0);
        assert_eq!(lump.p95_ms, 500.0);
        assert_eq!(grains.mean_ms, 1.0);
        assert_eq!(grains.p95_ms, 1.0);
        let rendered = summary.render();
        assert!(rendered.contains("mean_ms"), "{rendered}");
        assert!(rendered.contains("p95_ms"), "{rendered}");
    }

    #[test]
    fn empty_inputs_render() {
        let summary = Summary::from_snapshot(&Format::Jsonl.decode("").unwrap());
        assert!(summary.phases.is_empty());
        assert_eq!(summary.render(), "no spans recorded\n");
    }
}
