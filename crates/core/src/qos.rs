//! QoS-constrained scheduling (§6.4).
//!
//! In data-staging settings (the paper cites DARPA's BADD program) each
//! message carries a *deadline* and a *priority*: "The communication
//! schedule must ensure that data items reach their destinations by the
//! specified real-time deadlines. When multiple communication events
//! contend for a communication link, the scheduling algorithm must
//! sequence them based on their respective deadlines and priorities."
//!
//! [`QosScheduler`] is a deadline/priority-aware variant of the open shop
//! list scheduler: the sender/receiver availability machinery is
//! unchanged, but instead of pairing the earliest-available sender with
//! its earliest-available receiver, each dispatch picks the most *urgent*
//! feasible event — higher priority first, then earlier deadline (EDF),
//! then earlier possible start time. [`QosReport`] scores the result.

use crate::algorithms::OpenShop;
use crate::matrix::CommMatrix;
use crate::schedule::{Schedule, ScheduledEvent};
use adaptcomm_model::units::Millis;

/// QoS requirements of one message.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QosRequirement {
    /// Absolute deadline; `None` = best effort.
    pub deadline: Option<Millis>,
    /// Priority; larger is more important. Best-effort default is 0.
    pub priority: u8,
}

/// Per-message QoS requirements for a total exchange.
#[derive(Debug, Clone)]
pub struct QosMatrix {
    p: usize,
    reqs: Vec<QosRequirement>,
}

impl QosMatrix {
    /// All-best-effort requirements.
    pub fn best_effort(p: usize) -> Self {
        QosMatrix {
            p,
            reqs: vec![QosRequirement::default(); p * p],
        }
    }

    /// Builds from a function of `(src, dst)`.
    pub fn from_fn(p: usize, mut f: impl FnMut(usize, usize) -> QosRequirement) -> Self {
        let mut reqs = Vec::with_capacity(p * p);
        for s in 0..p {
            for d in 0..p {
                reqs.push(f(s, d));
            }
        }
        QosMatrix { p, reqs }
    }

    /// The requirement for one message.
    pub fn get(&self, src: usize, dst: usize) -> QosRequirement {
        self.reqs[src * self.p + dst]
    }

    /// Overwrites the requirement for one message.
    pub fn set(&mut self, src: usize, dst: usize, r: QosRequirement) {
        self.reqs[src * self.p + dst] = r;
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.p
    }
}

/// Outcome metrics of a schedule against QoS requirements.
#[derive(Debug, Clone, PartialEq)]
pub struct QosReport {
    /// Messages that finished after their deadline.
    pub missed: Vec<ScheduledEvent>,
    /// Total tardiness (sum of `finish − deadline` over missed messages).
    pub total_tardiness: Millis,
    /// Largest single tardiness.
    pub max_tardiness: Millis,
    /// Completion time of the whole exchange.
    pub completion: Millis,
}

impl QosReport {
    /// Evaluates a schedule against requirements.
    pub fn evaluate(schedule: &Schedule, qos: &QosMatrix) -> Self {
        let mut missed = Vec::new();
        let mut total = 0.0f64;
        let mut worst = 0.0f64;
        for e in schedule.events() {
            if let Some(deadline) = qos.get(e.src, e.dst).deadline {
                let late = e.finish.as_ms() - deadline.as_ms();
                if late > 1e-9 {
                    missed.push(*e);
                    total += late;
                    worst = worst.max(late);
                }
            }
        }
        QosReport {
            missed,
            total_tardiness: Millis::new(total),
            max_tardiness: Millis::new(worst),
            completion: schedule.completion_time(),
        }
    }

    /// True if every deadline was met.
    pub fn all_met(&self) -> bool {
        self.missed.is_empty()
    }
}

/// Deadline/priority-aware list scheduler.
#[derive(Debug, Clone)]
pub struct QosScheduler {
    qos: QosMatrix,
}

impl QosScheduler {
    /// Creates a scheduler for the given per-message requirements.
    pub fn new(qos: QosMatrix) -> Self {
        QosScheduler { qos }
    }

    /// Builds the schedule in two phases.
    ///
    /// **Phase 1 (constrained traffic):** every message carrying a
    /// deadline or a non-zero priority is dispatched in *global* urgency
    /// order — priority descending, then deadline ascending (EDF), then
    /// `(src, dst)` for determinism — each starting at the earliest time
    /// its sender and receiver ports allow. Global ordering matters: a
    /// best-effort message must never grab a contended receiver ahead of
    /// an urgent message from another sender.
    ///
    /// **Phase 2 (best effort):** the remaining messages are scheduled
    /// with the open shop rule (earliest-available sender to its
    /// earliest-available receiver), seeded with the port availability
    /// profile phase 1 left behind.
    pub fn build(&self, matrix: &CommMatrix) -> Schedule {
        let p = matrix.len();
        assert_eq!(self.qos.processors(), p, "QoS matrix does not match P");
        let mut send_avail = vec![0.0f64; p];
        let mut recv_avail = vec![0.0f64; p];
        let mut events = Vec::with_capacity(p.saturating_mul(p.saturating_sub(1)));

        // Phase 1: constrained events in global urgency order.
        let mut constrained: Vec<(usize, usize)> = Vec::new();
        for src in 0..p {
            for dst in 0..p {
                if src == dst {
                    continue;
                }
                let q = self.qos.get(src, dst);
                if q.deadline.is_some() || q.priority > 0 {
                    constrained.push((src, dst));
                }
            }
        }
        constrained.sort_by(|&(sa, da), &(sb, db)| {
            let qa = self.qos.get(sa, da);
            let qb = self.qos.get(sb, db);
            qb.priority
                .cmp(&qa.priority)
                .then_with(|| {
                    let ta = qa.deadline.map(|d| d.as_ms()).unwrap_or(f64::INFINITY);
                    let tb = qb.deadline.map(|d| d.as_ms()).unwrap_or(f64::INFINITY);
                    ta.total_cmp(&tb)
                })
                .then(sa.cmp(&sb))
                .then(da.cmp(&db))
        });
        // `owes[src * p + dst]`: not yet scheduled — what phase 2 inherits.
        let mut owes: Vec<bool> = (0..p * p).map(|k| k / p != k % p).collect();
        for (src, dst) in constrained {
            let start = send_avail[src].max(recv_avail[dst]);
            let fin = start + matrix.cost(src, dst).as_ms();
            events.push(ScheduledEvent {
                src,
                dst,
                start: Millis::new(start),
                finish: Millis::new(fin),
            });
            send_avail[src] = send_avail[src].max(fin);
            recv_avail[dst] = recv_avail[dst].max(fin);
            owes[src * p + dst] = false;
        }

        // Phase 2: the open shop rule over the best-effort remainder,
        // from the availability profile phase 1 left behind.
        events.extend(OpenShop::list_schedule(
            owes,
            send_avail,
            recv_avail,
            |i, j| matrix.cost(i, j).as_ms(),
        ));
        Schedule::new(matrix.clone(), events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{OpenShop, Scheduler};

    fn heterogeneous(p: usize) -> CommMatrix {
        CommMatrix::from_fn(p, |s, d| {
            if s == d {
                0.0
            } else {
                ((s * 11 + d * 29) % 13 + 2) as f64
            }
        })
    }

    #[test]
    fn best_effort_schedule_is_valid() {
        let m = heterogeneous(6);
        let s = QosScheduler::new(QosMatrix::best_effort(6)).build(&m);
        s.validate().unwrap();
        let report = QosReport::evaluate(&s, &QosMatrix::best_effort(6));
        assert!(report.all_met(), "no deadlines → none missed");
        assert_eq!(report.total_tardiness.as_ms(), 0.0);
    }

    #[test]
    fn urgent_message_is_dispatched_first() {
        let m = heterogeneous(5);
        let mut qos = QosMatrix::best_effort(5);
        // P0's message to P3 is top priority with a tight deadline.
        qos.set(
            0,
            3,
            QosRequirement {
                deadline: Some(m.cost(0, 3)),
                priority: 255,
            },
        );
        let s = QosScheduler::new(qos.clone()).build(&m);
        s.validate().unwrap();
        let e = s
            .events()
            .iter()
            .find(|e| e.src == 0 && e.dst == 3)
            .unwrap();
        assert_eq!(e.start.as_ms(), 0.0, "urgent message must go first");
        assert!(QosReport::evaluate(&s, &qos).all_met());
    }

    #[test]
    fn edf_meets_deadlines_that_openshop_misses() {
        // Receiver 0 is contended; give P1→0 a deadline only EDF honours.
        let m = CommMatrix::from_rows(&[
            vec![0.0, 1.0, 1.0],
            vec![6.0, 0.0, 1.0],
            vec![6.0, 1.0, 0.0],
        ]);
        let mut qos = QosMatrix::best_effort(3);
        // P2→0 must land by 6ms: it has to win receiver 0 first.
        qos.set(
            2,
            0,
            QosRequirement {
                deadline: Some(Millis::new(6.0)),
                priority: 10,
            },
        );
        let qos_sched = QosScheduler::new(qos.clone()).build(&m);
        let open_sched = OpenShop.schedule(&m);
        let qos_report = QosReport::evaluate(&qos_sched, &qos);
        let open_report = QosReport::evaluate(&open_sched, &qos);
        assert!(qos_report.all_met(), "QoS scheduler must meet the deadline");
        assert!(
            !open_report.all_met(),
            "open shop (QoS-oblivious) should miss it on this instance"
        );
        assert!(open_report.total_tardiness.as_ms() > 0.0);
        assert!(open_report.max_tardiness.as_ms() > 0.0);
    }

    #[test]
    fn priorities_dominate_deadlines() {
        let m = heterogeneous(4);
        let mut qos = QosMatrix::best_effort(4);
        qos.set(
            1,
            0,
            QosRequirement {
                deadline: Some(Millis::new(5.0)),
                priority: 1,
            },
        );
        qos.set(
            1,
            2,
            QosRequirement {
                deadline: Some(Millis::new(500.0)),
                priority: 9,
            },
        );
        let s = QosScheduler::new(qos).build(&m);
        let first_of_p1 = s.events_from(1).next().unwrap();
        assert_eq!(
            (first_of_p1.src, first_of_p1.dst),
            (1, 2),
            "higher priority outranks the earlier deadline"
        );
    }

    #[test]
    fn phase_two_equals_the_linear_scan_loop_it_replaced() {
        // `heterogeneous(6)` with eight constrained messages that contend
        // for ports (so phase 1 leaves an uneven availability profile), as
        // emitted by the double linear scan phase 2 was before it became
        // `OpenShop::list_schedule` (captured at 5d7b115).
        let req = |deadline: Option<f64>, priority| QosRequirement {
            deadline: deadline.map(Millis::new),
            priority,
        };
        let mut qos = QosMatrix::best_effort(6);
        qos.set(0, 3, req(Some(20.0), 2));
        qos.set(4, 1, req(Some(15.0), 2));
        qos.set(2, 5, req(None, 5));
        qos.set(1, 0, req(Some(30.0), 0));
        qos.set(5, 2, req(Some(12.0), 0));
        qos.set(3, 4, req(Some(60.0), 1));
        qos.set(0, 1, req(Some(25.0), 3));
        qos.set(2, 3, req(Some(50.0), 1));
        let expected: [(usize, usize, f64, f64); 30] = [
            (0, 1, 0.0, 5.0),
            (1, 0, 0.0, 13.0),
            (2, 5, 0.0, 13.0),
            (3, 4, 0.0, 8.0),
            (5, 2, 0.0, 11.0),
            (0, 3, 5.0, 16.0),
            (4, 1, 5.0, 15.0),
            (3, 2, 11.0, 13.0),
            (5, 4, 11.0, 15.0),
            (1, 2, 13.0, 19.0),
            (3, 0, 13.0, 22.0),
            (4, 5, 15.0, 24.0),
            (5, 1, 15.0, 23.0),
            (0, 4, 16.0, 30.0),
            (2, 3, 16.0, 23.0),
            (1, 3, 23.0, 32.0),
            (2, 0, 23.0, 34.0),
            (3, 1, 23.0, 35.0),
            (4, 2, 24.0, 37.0),
            (0, 5, 30.0, 34.0),
            (1, 4, 32.0, 44.0),
            (5, 3, 32.0, 46.0),
            (2, 1, 35.0, 49.0),
            (3, 5, 35.0, 46.0),
            (0, 2, 37.0, 45.0),
            (4, 0, 37.0, 44.0),
            (1, 5, 46.0, 48.0),
            (4, 3, 46.0, 49.0),
            (5, 0, 46.0, 51.0),
            (2, 4, 49.0, 59.0),
        ];
        let s = QosScheduler::new(qos).build(&heterogeneous(6));
        let got: Vec<_> = s
            .events()
            .iter()
            .map(|e| (e.src, e.dst, e.start.as_ms(), e.finish.as_ms()))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn report_counts_tardiness_correctly() {
        let m = CommMatrix::from_rows(&[vec![0.0, 10.0], vec![10.0, 0.0]]);
        let mut qos = QosMatrix::best_effort(2);
        qos.set(
            0,
            1,
            QosRequirement {
                deadline: Some(Millis::new(4.0)),
                priority: 0,
            },
        );
        let s = QosScheduler::new(qos.clone()).build(&m);
        let r = QosReport::evaluate(&s, &qos);
        assert_eq!(r.missed.len(), 1);
        assert!((r.total_tardiness.as_ms() - 6.0).abs() < 1e-9); // finishes at 10, deadline 4
        assert_eq!(r.max_tardiness, r.total_tardiness);
    }
}
