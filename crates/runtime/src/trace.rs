//! Structured per-event run traces: wall-clock *and* modeled time.
//!
//! Every backend emits the same three event kinds per transfer —
//! request, grant (transfer start), completion — each stamped twice:
//! with the modeled clock (the paper's `T_ij + m/B_ij` virtual time the
//! schedulers reason in) and with the wall clock (microseconds since the
//! run began). The modeled view converts losslessly into
//! [`adaptcomm_sim::TransferRecord`]s, so the whole `sim::metrics`
//! toolbox — busy/idle accounting, lower-bound ratios, bottleneck
//! detection — applies unchanged to live runs, and a cross-validation
//! harness can diff a runtime trace against a simulator prediction
//! event by event.

use adaptcomm_core::schedule::ScheduledEvent;
use adaptcomm_model::units::{Bytes, Millis};
use adaptcomm_sim::executor::SimRun;
use adaptcomm_sim::{SimMetrics, TransferRecord};

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The sender asked the receiver for a grant (control message).
    Request,
    /// The receiver granted the transfer; data started moving.
    Grant,
    /// The transfer completed and the payload was delivered.
    Complete,
}

/// One trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeEvent {
    /// Event kind.
    pub kind: EventKind,
    /// Sending processor.
    pub src: usize,
    /// Receiving processor.
    pub dst: usize,
    /// Payload size.
    pub bytes: Bytes,
    /// Modeled (virtual) time of the event.
    pub modeled: Millis,
    /// Wall-clock time of the event, microseconds since the run epoch.
    pub wall_us: u64,
}

/// The full trace of one run.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// Events in the order the runtime committed them.
    pub events: Vec<RuntimeEvent>,
}

impl RunTrace {
    /// An empty trace.
    pub fn new() -> Self {
        RunTrace { events: Vec::new() }
    }

    /// Completed transfers in modeled time, sorted by `(finish, src,
    /// dst)` — the exact shape the simulator produces, so
    /// [`SimMetrics::from_records`] and per-event diffs work on both.
    ///
    /// Each `Grant` is matched with its `Complete`; transfers that never
    /// completed (a failed run) are omitted.
    pub fn to_records(&self) -> Vec<TransferRecord> {
        let mut records: Vec<TransferRecord> = Vec::new();
        for e in &self.events {
            if e.kind != EventKind::Complete {
                continue;
            }
            let start = self
                .events
                .iter()
                .find(|g| g.kind == EventKind::Grant && g.src == e.src && g.dst == e.dst)
                .map(|g| g.modeled)
                .unwrap_or(e.modeled);
            records.push(TransferRecord {
                src: e.src,
                dst: e.dst,
                bytes: e.bytes,
                start,
                finish: e.modeled,
            });
        }
        SimRun::from_records(records).records
    }

    /// The realized events as core [`ScheduledEvent`]s (modeled time),
    /// e.g. for `adaptcomm_core::export::events_to_json`.
    pub fn to_scheduled_events(&self) -> Vec<ScheduledEvent> {
        self.to_records()
            .iter()
            .map(|r| ScheduledEvent {
                src: r.src,
                dst: r.dst,
                start: r.start,
                finish: r.finish,
            })
            .collect()
    }

    /// The realized transfers (modeled time) as explain-plane records,
    /// ready for `adaptcomm_obs::causal::CausalDag::new` — the same
    /// critical-path/blame analysis `adaptcomm explain` runs on
    /// captures, without an export round trip.
    pub fn causal_transfers(&self) -> Vec<adaptcomm_obs::causal::Transfer> {
        self.to_records()
            .iter()
            .map(|r| adaptcomm_obs::causal::Transfer {
                src: r.src,
                dst: r.dst,
                start_ms: r.start.as_ms(),
                dur_ms: (r.finish - r.start).as_ms(),
            })
            .collect()
    }

    /// Aggregated metrics over the completed transfers.
    pub fn metrics(&self, processors: usize) -> SimMetrics {
        SimMetrics::from_records(processors, &self.to_records())
    }

    /// Modeled completion time (last completion; zero for empty traces).
    pub fn makespan(&self) -> Millis {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Complete)
            .map(|e| e.modeled)
            .fold(Millis::ZERO, Millis::max)
    }

    /// Wall-clock duration of the traced activity, in microseconds.
    pub fn wall_elapsed_us(&self) -> u64 {
        self.events.iter().map(|e| e.wall_us).max().unwrap_or(0)
    }

    /// How far wall-clock and modeled orderings agree: the fraction of
    /// completion pairs whose wall order matches their modeled order.
    /// 1.0 means the live execution realized the modeled timeline
    /// faithfully; paced backends should score near 1, unpaced ones
    /// (virtual time, instant wall-clock) may not.
    pub fn ordering_fidelity(&self) -> f64 {
        let completes: Vec<&RuntimeEvent> = self
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Complete)
            .collect();
        let n = completes.len();
        if n < 2 {
            return 1.0;
        }
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            for j in i + 1..n {
                let (a, b) = (completes[i], completes[j]);
                if a.modeled.as_ms() == b.modeled.as_ms() {
                    continue;
                }
                total += 1;
                let modeled_first = a.modeled.as_ms() < b.modeled.as_ms();
                let wall_first = a.wall_us <= b.wall_us;
                if modeled_first == wall_first {
                    agree += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            agree as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, src: usize, dst: usize, modeled: f64, wall_us: u64) -> RuntimeEvent {
        RuntimeEvent {
            kind,
            src,
            dst,
            bytes: Bytes::KB,
            modeled: Millis::new(modeled),
            wall_us,
        }
    }

    #[test]
    fn records_pair_grants_with_completions() {
        let trace = RunTrace {
            events: vec![
                ev(EventKind::Request, 0, 1, 0.0, 1),
                ev(EventKind::Grant, 0, 1, 0.0, 2),
                ev(EventKind::Request, 1, 2, 0.0, 3),
                ev(EventKind::Grant, 1, 2, 0.0, 4),
                ev(EventKind::Complete, 1, 2, 7.0, 5),
                ev(EventKind::Complete, 0, 1, 5.0, 6),
            ],
        };
        let records = trace.to_records();
        assert_eq!(records.len(), 2);
        // Sorted by modeled finish, not commit order.
        assert_eq!((records[0].src, records[0].dst), (0, 1));
        assert_eq!(records[0].start.as_ms(), 0.0);
        assert_eq!(records[0].finish.as_ms(), 5.0);
        assert_eq!(trace.makespan().as_ms(), 7.0);
        assert_eq!(trace.wall_elapsed_us(), 6);
        let m = trace.metrics(3);
        assert_eq!(m.makespan.as_ms(), 7.0);
        assert_eq!(trace.to_scheduled_events().len(), 2);
    }

    #[test]
    fn incomplete_transfers_are_omitted() {
        let trace = RunTrace {
            events: vec![
                ev(EventKind::Request, 0, 1, 0.0, 1),
                ev(EventKind::Grant, 0, 1, 0.0, 2),
            ],
        };
        assert!(trace.to_records().is_empty());
        assert_eq!(trace.makespan().as_ms(), 0.0);
    }

    #[test]
    fn ordering_fidelity_bounds() {
        let faithful = RunTrace {
            events: vec![
                ev(EventKind::Complete, 0, 1, 5.0, 10),
                ev(EventKind::Complete, 1, 2, 9.0, 20),
            ],
        };
        assert_eq!(faithful.ordering_fidelity(), 1.0);
        let inverted = RunTrace {
            events: vec![
                ev(EventKind::Complete, 0, 1, 5.0, 30),
                ev(EventKind::Complete, 1, 2, 9.0, 20),
            ],
        };
        assert_eq!(inverted.ordering_fidelity(), 0.0);
        assert_eq!(RunTrace::new().ordering_fidelity(), 1.0);
    }
}
