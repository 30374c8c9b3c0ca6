//! Communication schedules and their validity rules.
//!
//! A schedule assigns a start time to every communication event. The
//! paper's validity conditions (§3.4): events sharing a *sender* must not
//! overlap in time (one send at a time), and events sharing a *receiver*
//! must not overlap (one receive at a time). Messages are never combined
//! at intermediate nodes and never partitioned.

use crate::matrix::CommMatrix;
use adaptcomm_model::units::Millis;
use std::fmt;

/// One scheduled communication event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledEvent {
    /// Sending processor.
    pub src: usize,
    /// Receiving processor.
    pub dst: usize,
    /// Scheduled start time.
    pub start: Millis,
    /// Scheduled finish time (`start` + predicted cost).
    pub finish: Millis,
}

impl ScheduledEvent {
    /// The event's duration.
    #[inline]
    pub fn duration(&self) -> Millis {
        self.finish - self.start
    }

    /// True if two events overlap in time (half-open intervals, so
    /// back-to-back events do not overlap).
    #[inline]
    pub fn overlaps(&self, other: &ScheduledEvent) -> bool {
        self.start.as_ms() < other.finish.as_ms() && other.start.as_ms() < self.finish.as_ms()
    }
}

/// Why a schedule failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// Two events with the same sender overlap in time.
    SenderOverlap {
        /// The sender in conflict.
        src: usize,
        /// The two overlapping events.
        events: (ScheduledEvent, ScheduledEvent),
    },
    /// Two events with the same receiver overlap in time.
    ReceiverOverlap {
        /// The receiver in conflict.
        dst: usize,
        /// The two overlapping events.
        events: (ScheduledEvent, ScheduledEvent),
    },
    /// An expected transfer is missing, duplicated, or references an
    /// out-of-range processor.
    MalformedEventSet {
        /// Human-readable description of the defect.
        detail: String,
    },
    /// An event's duration does not match the communication matrix.
    WrongDuration {
        /// The offending event.
        event: ScheduledEvent,
        /// The duration the matrix prescribes.
        expected: Millis,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::SenderOverlap { src, events } => write!(
                f,
                "sender {src} has overlapping events {:?} and {:?}",
                events.0, events.1
            ),
            ScheduleError::ReceiverOverlap { dst, events } => write!(
                f,
                "receiver {dst} has overlapping events {:?} and {:?}",
                events.0, events.1
            ),
            ScheduleError::MalformedEventSet { detail } => {
                write!(f, "malformed event set: {detail}")
            }
            ScheduleError::WrongDuration { event, expected } => write!(
                f,
                "event {event:?} has duration {} but the matrix says {expected}",
                event.duration()
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Sorts `items` by `(instant, tie)`, stably. Input that is ascending by
/// instant already, as an event loop emits it, costs one pass and a sort
/// of each instant's ties; anything else is sorted whole.
pub(crate) fn sort_by_instant<T>(
    items: &mut [T],
    instant: impl Fn(&T) -> f64,
    tie: impl Fn(&T) -> (usize, usize),
) {
    let by_instant = |a: &T, b: &T| instant(a).total_cmp(&instant(b));
    let by_key = |a: &T, b: &T| by_instant(a, b).then(tie(a).cmp(&tie(b)));
    if !items.is_sorted_by(|a, b| by_instant(a, b).is_le()) {
        return items.sort_by(by_key);
    }
    (items.chunk_by_mut(|a, b| by_instant(a, b).is_eq())).for_each(|ties| ties.sort_by(by_key));
}

/// A complete communication schedule for a `P`-processor total exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    p: usize,
    /// All events, kept sorted by `(start, src, dst)` for determinism.
    events: Vec<ScheduledEvent>,
    /// The matrix the schedule was built against (for validation).
    matrix: CommMatrix,
}

impl Schedule {
    /// Builds a schedule from events. Events are re-sorted internally.
    pub fn new(matrix: CommMatrix, mut events: Vec<ScheduledEvent>) -> Self {
        sort_by_instant(&mut events, |e| e.start.as_ms(), |e| (e.src, e.dst));
        Schedule {
            p: matrix.len(),
            events,
            matrix,
        }
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.p
    }

    /// The scheduled events, sorted by start time.
    pub fn events(&self) -> &[ScheduledEvent] {
        &self.events
    }

    /// The communication matrix this schedule targets.
    pub fn matrix(&self) -> &CommMatrix {
        &self.matrix
    }

    /// The completion time `t_max`: when the last event finishes.
    pub fn completion_time(&self) -> Millis {
        self.events
            .iter()
            .map(|e| e.finish)
            .fold(Millis::ZERO, Millis::max)
    }

    /// Ratio of completion time to the matrix lower bound `t_lb`
    /// (≥ 1 for any valid schedule; 1 means provably optimal).
    pub fn lb_ratio(&self) -> f64 {
        let lb = self.matrix.lower_bound();
        if lb.as_ms() == 0.0 {
            1.0
        } else {
            self.completion_time() / lb
        }
    }

    /// Events sent by one processor, in start order.
    pub fn events_from(&self, src: usize) -> impl Iterator<Item = &ScheduledEvent> {
        self.events.iter().filter(move |e| e.src == src)
    }

    /// Events received by one processor, in start order.
    pub fn events_to(&self, dst: usize) -> impl Iterator<Item = &ScheduledEvent> {
        self.events.iter().filter(move |e| e.dst == dst)
    }

    /// Checks the paper's validity conditions against the matrix:
    /// exactly one event per off-diagonal ordered pair, correct durations,
    /// no sender overlap, no receiver overlap.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        let p = self.p;
        // Event-set completeness: every off-diagonal pair exactly once.
        let mut seen = vec![false; p * p];
        for e in &self.events {
            if e.src >= p || e.dst >= p {
                return Err(ScheduleError::MalformedEventSet {
                    detail: format!("event {e:?} references processor ≥ {p}"),
                });
            }
            if e.src == e.dst {
                return Err(ScheduleError::MalformedEventSet {
                    detail: format!("self-send {e:?} must not be scheduled"),
                });
            }
            if seen[e.src * p + e.dst] {
                return Err(ScheduleError::MalformedEventSet {
                    detail: format!("duplicate event {} -> {}", e.src, e.dst),
                });
            }
            seen[e.src * p + e.dst] = true;
            let expected = self.matrix.cost(e.src, e.dst);
            if (e.duration().as_ms() - expected.as_ms()).abs() > 1e-6 {
                return Err(ScheduleError::WrongDuration {
                    event: *e,
                    expected,
                });
            }
            if e.start.as_ms() < 0.0 {
                return Err(ScheduleError::MalformedEventSet {
                    detail: format!("event {e:?} starts before time zero"),
                });
            }
        }
        for src in 0..p {
            for dst in 0..p {
                if src != dst && !seen[src * p + dst] {
                    return Err(ScheduleError::MalformedEventSet {
                        detail: format!("missing event {src} -> {dst}"),
                    });
                }
            }
        }
        // Port constraints.
        self.check_no_overlap(|e| e.src, true)?;
        self.check_no_overlap(|e| e.dst, false)?;
        Ok(())
    }

    fn check_no_overlap(
        &self,
        key: impl Fn(&ScheduledEvent) -> usize,
        sender_side: bool,
    ) -> Result<(), ScheduleError> {
        // Events are sorted by start; per endpoint track the previous event.
        let mut last: Vec<Option<ScheduledEvent>> = vec![None; self.p];
        for e in &self.events {
            let k = key(e);
            if let Some(prev) = last[k] {
                if prev.overlaps(e) {
                    return Err(if sender_side {
                        ScheduleError::SenderOverlap {
                            src: k,
                            events: (prev, *e),
                        }
                    } else {
                        ScheduleError::ReceiverOverlap {
                            dst: k,
                            events: (prev, *e),
                        }
                    });
                }
            }
            // Keep the later-finishing event as the conflict candidate:
            // with zero-length events, an earlier long event can overlap a
            // later one even if an intermediate zero-length event did not.
            last[k] = Some(match last[k] {
                Some(prev) if prev.finish.as_ms() > e.finish.as_ms() => prev,
                _ => *e,
            });
        }
        Ok(())
    }
}

/// The *abstract* schedule produced by the algorithms: per-sender ordered
/// destination lists, before start times are fixed by an execution policy.
///
/// "Although the schedule finds the communication events step by step,
/// the communication phase does not impose a synchronization among the
/// processors after each step" (§4.3) — so the list order, not the step
/// boundaries, is the real output of a scheduling algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendOrder {
    /// `order[src]` = destinations in transmission order.
    pub order: Vec<Vec<usize>>,
}

impl SendOrder {
    /// Builds a send order, checking each list is a permutation of the
    /// other processors.
    pub fn new(order: Vec<Vec<usize>>) -> Self {
        let p = order.len();
        for (src, list) in order.iter().enumerate() {
            assert_eq!(list.len(), p - 1, "sender {src} must send P-1 messages");
            let mut seen = vec![false; p];
            for &dst in list {
                assert!(dst < p, "sender {src} targets out-of-range {dst}");
                assert!(dst != src, "sender {src} must not send to itself");
                assert!(!seen[dst], "sender {src} targets {dst} twice");
                seen[dst] = true;
            }
        }
        SendOrder { order }
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.order.len()
    }

    /// Builds a send order from a sequence of *steps*, each a partial map
    /// `step[src] = Some(dst)`. Steps are concatenated per sender;
    /// self-sends (`step[src] == Some(src)`) are dropped as no-ops.
    pub fn from_steps(p: usize, steps: &[Vec<Option<usize>>]) -> Self {
        let mut order = vec![Vec::with_capacity(p.saturating_sub(1)); p];
        for step in steps {
            assert_eq!(step.len(), p, "step width must equal P");
            for (src, dst) in step.iter().enumerate() {
                if let Some(d) = dst {
                    if *d != src {
                        order[src].push(*d);
                    }
                }
            }
        }
        Self::new(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> CommMatrix {
        CommMatrix::from_rows(&[
            vec![0.0, 2.0, 3.0],
            vec![4.0, 0.0, 5.0],
            vec![6.0, 7.0, 0.0],
        ])
    }

    fn ev(src: usize, dst: usize, start: f64, dur: f64) -> ScheduledEvent {
        ScheduledEvent {
            src,
            dst,
            start: Millis::new(start),
            finish: Millis::new(start + dur),
        }
    }

    /// Three events of which two collide at receiver 2:
    /// (0→2) runs 2–5 while (1→2) runs 0–5.
    fn valid_events() -> Vec<ScheduledEvent> {
        vec![ev(0, 1, 0.0, 2.0), ev(0, 2, 2.0, 3.0), ev(1, 2, 0.0, 5.0)]
    }

    #[test]
    fn overlap_detection() {
        let a = ev(0, 1, 0.0, 5.0);
        let b = ev(0, 2, 5.0, 3.0);
        let c = ev(0, 2, 4.0, 3.0);
        assert!(!a.overlaps(&b), "back-to-back events do not overlap");
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&a));
        assert_eq!(a.duration().as_ms(), 5.0);
    }

    #[test]
    fn receiver_overlap_is_caught() {
        let m = matrix();
        let mut events = valid_events();
        events.extend([ev(1, 0, 5.0, 4.0), ev(2, 0, 0.0, 6.0), ev(2, 1, 6.0, 7.0)]);
        let s = Schedule::new(m, events);
        match s.validate() {
            Err(ScheduleError::ReceiverOverlap { dst: 2, .. }) => {}
            other => panic!("expected receiver overlap at P2, got {other:?}"),
        }
    }

    #[test]
    fn valid_schedule_passes_and_reports_metrics() {
        let m = matrix();
        // Send totals: 5, 9, 13. Recv totals: 10, 9, 8. lb = 13.
        let events = vec![
            ev(0, 1, 0.0, 2.0),
            ev(0, 2, 5.0, 3.0),
            ev(1, 0, 0.0, 4.0),
            ev(1, 2, 8.0, 5.0),
            ev(2, 0, 4.0, 6.0),
            ev(2, 1, 10.0, 7.0),
        ];
        let s = Schedule::new(m, events);
        s.validate().expect("schedule should be valid");
        assert_eq!(s.completion_time().as_ms(), 17.0);
        assert!((s.lb_ratio() - 17.0 / 13.0).abs() < 1e-12);
        assert_eq!(s.events_from(0).count(), 2);
        assert_eq!(s.events_to(0).count(), 2);
        assert_eq!(s.processors(), 3);
    }

    #[test]
    fn missing_event_is_caught() {
        let m = matrix();
        let events = vec![ev(0, 1, 0.0, 2.0)];
        let s = Schedule::new(m, events);
        match s.validate() {
            Err(ScheduleError::MalformedEventSet { detail }) => {
                assert!(detail.contains("missing"), "{detail}");
            }
            other => panic!("expected malformed set, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_event_is_caught() {
        let m = matrix();
        let mut events = vec![ev(0, 1, 0.0, 2.0), ev(0, 1, 10.0, 2.0)];
        events.push(ev(0, 2, 2.0, 3.0));
        let s = Schedule::new(m, events);
        assert!(matches!(
            s.validate(),
            Err(ScheduleError::MalformedEventSet { .. })
        ));
    }

    #[test]
    fn wrong_duration_is_caught() {
        let m = matrix();
        let events = vec![ev(0, 1, 0.0, 99.0)];
        let s = Schedule::new(m, events);
        assert!(matches!(
            s.validate(),
            Err(ScheduleError::WrongDuration { .. })
        ));
    }

    #[test]
    fn sender_overlap_is_caught() {
        let m = matrix();
        let events = vec![
            ev(0, 1, 0.0, 2.0),
            ev(0, 2, 1.0, 3.0), // overlaps previous send of P0
            ev(1, 0, 0.0, 4.0),
            ev(1, 2, 4.0, 5.0),
            ev(2, 0, 4.0, 6.0),
            ev(2, 1, 10.0, 7.0),
        ];
        let s = Schedule::new(m, events);
        assert!(matches!(
            s.validate(),
            Err(ScheduleError::SenderOverlap { src: 0, .. })
        ));
    }

    #[test]
    fn send_order_construction_and_steps() {
        let o = SendOrder::from_steps(
            3,
            &[
                vec![Some(0), Some(2), Some(1)], // self-send of P0 dropped
                vec![Some(1), Some(0), Some(2)], // self-send of P1 dropped
                vec![Some(2), Some(1), Some(0)], // self-send of P2 dropped
            ],
        );
        assert_eq!(o.order[0], vec![1, 2]);
        assert_eq!(o.order[1], vec![2, 0]);
        assert_eq!(o.order[2], vec![1, 0]);
        assert_eq!(o.processors(), 3);
    }

    #[test]
    #[should_panic(expected = "targets 1 twice")]
    fn send_order_rejects_duplicates() {
        let _ = SendOrder::new(vec![vec![1, 1], vec![0, 2], vec![0, 1]]);
    }

    #[test]
    #[should_panic(expected = "must not send to itself")]
    fn send_order_rejects_self_send() {
        let _ = SendOrder::new(vec![vec![0, 1], vec![0, 2], vec![0, 1]]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ScheduleError::MalformedEventSet {
            detail: "missing event 1 -> 2".into(),
        };
        assert!(format!("{e}").contains("missing event"));
    }
}
