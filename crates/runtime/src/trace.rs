//! Structured per-event run traces: wall-clock *and* modeled time.
//!
//! Every backend emits the same three event kinds per transfer —
//! request, grant (transfer start), completion — each stamped twice:
//! with the modeled clock (the paper's `T_ij + m/B_ij` virtual time the
//! schedulers reason in) and with the wall clock (microseconds since the
//! run began). The modeled view of a run's *completed* transfers is the
//! `records` its report carries (`ShapedOutcome`, `RunReport`,
//! `AdaptReport`): the same [`adaptcomm_sim::TransferRecord`]s the
//! simulator produces, so the whole `sim::metrics` toolbox applies
//! unchanged to live runs. The trace adds what the records cannot say:
//! requests, grants that never completed, and the wall clock.

use adaptcomm_model::units::{Bytes, Millis};

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
    fn makespan_and_wall_clock_read_the_completions() {
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
        assert_eq!(trace.makespan().as_ms(), 7.0);
        assert_eq!(trace.wall_elapsed_us(), 6);
        // A grant that never completed adds no makespan; the wall clock
        // still saw it.
        let pending = RunTrace {
            events: trace.events[..2].to_vec(),
        };
        assert_eq!(pending.makespan().as_ms(), 0.0);
        assert_eq!(pending.wall_elapsed_us(), 2);
    }
}
