//! Generalized collective schedules.
//!
//! Unlike the total-exchange [`adaptcomm_core::schedule::Schedule`],
//! collective patterns have pattern-specific event sets (a broadcast has
//! `P−1` events, a scatter `P−1`, an all-to-some `|S|·|R|`-ish). This
//! container enforces only the universal model constraints — one send and
//! one receive at a time — and leaves coverage checks to each pattern's
//! constructor.

use adaptcomm_core::schedule::ScheduledEvent;
use adaptcomm_model::units::Millis;
use std::fmt;

/// Why a collective plan is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// Two events with the same sender overlap.
    SenderOverlap(usize),
    /// Two events with the same receiver overlap.
    ReceiverOverlap(usize),
    /// An event references a processor outside `0..P`.
    OutOfRange(usize),
    /// An event starts before time zero.
    NegativeStart,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::SenderOverlap(k) => write!(f, "sender {k} overlaps itself"),
            PlanError::ReceiverOverlap(k) => write!(f, "receiver {k} overlaps itself"),
            PlanError::OutOfRange(k) => write!(f, "processor {k} out of range"),
            PlanError::NegativeStart => write!(f, "event starts before time zero"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A validated set of timed events implementing one collective.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveSchedule {
    p: usize,
    events: Vec<ScheduledEvent>,
}

impl CollectiveSchedule {
    /// Builds and validates a plan over `p` processors.
    pub fn new(p: usize, mut events: Vec<ScheduledEvent>) -> Result<Self, PlanError> {
        events.sort_by(|a, b| {
            a.start
                .as_ms()
                .total_cmp(&b.start.as_ms())
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
        });
        let mut last_send: Vec<Option<ScheduledEvent>> = vec![None; p];
        let mut last_recv: Vec<Option<ScheduledEvent>> = vec![None; p];
        for e in &events {
            if e.src >= p || e.dst >= p {
                return Err(PlanError::OutOfRange(e.src.max(e.dst)));
            }
            if e.start.as_ms() < 0.0 {
                return Err(PlanError::NegativeStart);
            }
            if let Some(prev) = last_send[e.src] {
                if prev.overlaps(e) {
                    return Err(PlanError::SenderOverlap(e.src));
                }
            }
            if let Some(prev) = last_recv[e.dst] {
                if prev.overlaps(e) {
                    return Err(PlanError::ReceiverOverlap(e.dst));
                }
            }
            let keep_later = |slot: &mut Option<ScheduledEvent>, e: &ScheduledEvent| {
                *slot = Some(match *slot {
                    Some(prev) if prev.finish.as_ms() > e.finish.as_ms() => prev,
                    _ => *e,
                });
            };
            keep_later(&mut last_send[e.src], e);
            keep_later(&mut last_recv[e.dst], e);
        }
        Ok(CollectiveSchedule { p, events })
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.p
    }

    /// The events, sorted by start time.
    pub fn events(&self) -> &[ScheduledEvent] {
        &self.events
    }

    /// Completion time of the collective.
    pub fn completion_time(&self) -> Millis {
        self.events
            .iter()
            .map(|e| e.finish)
            .fold(Millis::ZERO, Millis::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: usize, dst: usize, start: f64, dur: f64) -> ScheduledEvent {
        ScheduledEvent {
            src,
            dst,
            start: Millis::new(start),
            finish: Millis::new(start + dur),
        }
    }

    #[test]
    fn valid_plan_accepted() {
        let plan = CollectiveSchedule::new(
            3,
            vec![ev(0, 1, 0.0, 5.0), ev(0, 2, 5.0, 3.0), ev(1, 2, 0.0, 2.0)],
        )
        .unwrap();
        assert_eq!(plan.completion_time().as_ms(), 8.0);
        assert_eq!(plan.processors(), 3);
        assert_eq!(plan.events().len(), 3);
    }

    #[test]
    fn sender_overlap_rejected() {
        let r = CollectiveSchedule::new(2, vec![ev(0, 1, 0.0, 5.0), ev(0, 1, 3.0, 4.0)]);
        assert_eq!(r.unwrap_err(), PlanError::SenderOverlap(0));
    }

    #[test]
    fn receiver_overlap_rejected() {
        let r = CollectiveSchedule::new(3, vec![ev(0, 2, 0.0, 5.0), ev(1, 2, 3.0, 4.0)]);
        assert_eq!(r.unwrap_err(), PlanError::ReceiverOverlap(2));
    }

    #[test]
    fn out_of_range_rejected() {
        let r = CollectiveSchedule::new(2, vec![ev(0, 5, 0.0, 1.0)]);
        assert_eq!(r.unwrap_err(), PlanError::OutOfRange(5));
    }

    #[test]
    fn negative_start_rejected() {
        let r = CollectiveSchedule::new(2, vec![ev(0, 1, -1.0, 1.0)]);
        assert_eq!(r.unwrap_err(), PlanError::NegativeStart);
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", PlanError::ReceiverOverlap(3)).contains("receiver 3"));
    }
}
