//! Bridging [`RunTrace`] events into the observability layer.
//!
//! The runtime's own trace ([`crate::trace`]) is the source of truth
//! for what a live run did; this module projects it into an
//! [`adaptcomm_obs::Registry`] so one Chrome-trace file shows the
//! schedule/replan spans *and* every transfer on its sender's track:
//!
//! * each `Grant` → `Complete` pair becomes a `transfer` span on track
//!   `src + 1` (track 0 belongs to the driver), spanning the wall-clock
//!   interval and carrying `src`/`dst`/`bytes`/`modeled_ms` attributes;
//! * each `Request` becomes a `request` instant on the same track.

use crate::trace::{EventKind, RunTrace};
use adaptcomm_obs::{InstantRecord, Registry, SpanRecord};
use std::collections::HashMap;

/// The obs track a sender's transfers land on (track 0 is the driver).
fn track(src: usize) -> u64 {
    src as u64 + 1
}

/// Projects `trace` into `registry` as `transfer` spans (one per
/// completed grant/complete pair, on the sender's track) plus `request`
/// instants. Returns the number of spans recorded.
///
/// A `Complete` pairs with the latest `Grant` of its link that precedes
/// it in trace order: an adaptive run concatenates its attempts' traces
/// (wall clocks restart per attempt), so a message lost in flight and
/// re-sent has two grants, and the completion belongs to the second.
pub fn record_transfers(trace: &RunTrace, registry: &Registry) -> usize {
    if !registry.is_enabled() {
        return 0;
    }
    let mut spans = 0usize;
    let mut granted_us: HashMap<(usize, usize), u64> = HashMap::new();
    for e in &trace.events {
        match e.kind {
            EventKind::Request => registry.record_instant(InstantRecord {
                name: "request".to_string(),
                tid: track(e.src),
                ts_us: e.wall_us,
                attrs: vec![
                    ("src".to_string(), e.src.into()),
                    ("dst".to_string(), e.dst.into()),
                ],
            }),
            EventKind::Grant => {
                granted_us.insert((e.src, e.dst), e.wall_us);
            }
            EventKind::Complete => {
                let start_us = *granted_us.get(&(e.src, e.dst)).unwrap_or(&e.wall_us);
                registry.record_span(SpanRecord {
                    name: "transfer".to_string(),
                    tid: track(e.src),
                    start_us,
                    dur_us: e.wall_us.saturating_sub(start_us),
                    attrs: vec![
                        ("src".to_string(), e.src.into()),
                        ("dst".to_string(), e.dst.into()),
                        ("bytes".to_string(), e.bytes.as_u64().into()),
                        ("modeled_ms".to_string(), e.modeled.as_ms().into()),
                    ],
                    trace: None,
                });
                spans += 1;
            }
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RuntimeEvent;
    use adaptcomm_model::units::{Bytes, Millis};

    fn sample_trace() -> RunTrace {
        let ev = |kind, src, dst, modeled: f64, wall_us| RuntimeEvent {
            kind,
            src,
            dst,
            bytes: Bytes::from_kb(20),
            modeled: Millis::new(modeled),
            wall_us,
        };
        RunTrace {
            events: vec![
                ev(EventKind::Request, 0, 1, 0.0, 10),
                ev(EventKind::Grant, 0, 1, 0.0, 20),
                ev(EventKind::Request, 2, 1, 0.0, 15),
                ev(EventKind::Complete, 0, 1, 5.25, 520),
                ev(EventKind::Grant, 2, 1, 5.25, 530),
                ev(EventKind::Complete, 2, 1, 11.5, 1_030),
            ],
        }
    }

    #[test]
    fn transfers_become_spans_on_sender_tracks() {
        let reg = Registry::new();
        let spans = record_transfers(&sample_trace(), &reg);
        assert_eq!(spans, 2);
        let snap = reg.snapshot();
        let spans: Vec<&SpanRecord> = snap.spans().collect();
        assert_eq!(spans.len(), 2);
        // 0 -> 1 transfer: track 1, wall 20..520.
        assert_eq!(spans[0].tid, 1);
        assert_eq!(spans[0].start_us, 20);
        assert_eq!(spans[0].dur_us, 500);
        // 2 -> 1 transfer: track 3.
        assert_eq!(spans[1].tid, 3);
        assert_eq!(spans[1].dur_us, 500);
        // Requests arrive as instants on the same tracks.
        assert_eq!(snap.instants().count(), 2);
        // The trace exports as a valid Chrome document.
        let doc = adaptcomm_obs::json::Value::parse(&snap.to_chrome_trace()).unwrap();
        assert!(doc.get("traceEvents").is_some());
    }

    #[test]
    fn a_resent_message_starts_at_its_second_grant() {
        // Lost in flight on the first attempt, granted again on the
        // next: the one completion belongs to the second grant.
        let ev = |kind, wall_us| RuntimeEvent {
            kind,
            src: 0,
            dst: 1,
            bytes: Bytes::from_kb(20),
            modeled: Millis::new(wall_us as f64),
            wall_us,
        };
        let trace = RunTrace {
            events: vec![
                ev(EventKind::Grant, 10),
                ev(EventKind::Grant, 50),
                ev(EventKind::Complete, 60),
            ],
        };
        let reg = Registry::new();
        assert_eq!(record_transfers(&trace, &reg), 1);
        let snap = reg.snapshot();
        let spans: Vec<&SpanRecord> = snap.spans().collect();
        assert_eq!((spans[0].start_us, spans[0].dur_us), (50, 10));
    }

    #[test]
    fn unpaired_grants_produce_no_span() {
        let trace = RunTrace {
            events: sample_trace().events[..3].to_vec(),
        };
        let reg = Registry::new();
        assert_eq!(record_transfers(&trace, &reg), 0);
        assert_eq!(reg.snapshot().spans().count(), 0);
        assert_eq!(trace.makespan().as_ms(), 0.0);
    }

    #[test]
    fn disabled_registry_receives_nothing() {
        let reg = Registry::disabled();
        assert_eq!(record_transfers(&sample_trace(), &reg), 0);
        assert!(reg.snapshot().events.is_empty());
    }
}
