//! Critical-resource scheduling (§6.4).
//!
//! "One of the processors in the heterogeneous system could be a critical
//! resource (e.g., an expensive supercomputer). The schedule should
//! complete the communication events of this processor as early as
//! possible, even if it delays the other processors."
//!
//! The critical processor `c` participates in `2(P−1)` events: its sends
//! and its receives. Sends and receives use independent ports, so `c` can
//! transmit and receive simultaneously; the earliest possible time at
//! which *all* of `c`'s events can finish is therefore
//! `max(send_total(c), recv_total(c))`. [`CriticalResource`] achieves
//! exactly that optimum: phase 1 packs `c`'s sends back-to-back from time
//! zero and streams the other processors' messages into `c` back-to-back
//! (each sender's *first* transmission is its message to `c`); phase 2
//! schedules every remaining event with the open shop heuristic, starting
//! from the availability profile phase 1 left behind.

use crate::algorithms::OpenShop;
use crate::matrix::CommMatrix;
use crate::schedule::{Schedule, ScheduledEvent};
use adaptcomm_model::units::Millis;

/// Scheduler that finishes one designated processor's traffic first.
#[derive(Debug, Clone, Copy)]
pub struct CriticalResource {
    /// The processor whose communication must finish earliest.
    pub critical: usize,
}

impl CriticalResource {
    /// Creates a scheduler prioritizing processor `critical`.
    pub fn new(critical: usize) -> Self {
        CriticalResource { critical }
    }

    /// The earliest feasible completion of the critical processor's own
    /// events under the one-send/one-receive port model.
    pub fn critical_optimum(matrix: &CommMatrix, critical: usize) -> Millis {
        matrix.send_total(critical).max(matrix.recv_total(critical))
    }

    /// Time at which a schedule finishes every event involving `proc`.
    pub fn involvement_finish(schedule: &Schedule, proc: usize) -> Millis {
        schedule
            .events()
            .iter()
            .filter(|e| e.src == proc || e.dst == proc)
            .map(|e| e.finish)
            .fold(Millis::ZERO, Millis::max)
    }

    /// Builds the two-phase schedule.
    pub fn build(&self, matrix: &CommMatrix) -> Schedule {
        let p = matrix.len();
        let c = self.critical;
        assert!(c < p, "critical processor {c} out of range (P = {p})");
        let mut events = Vec::with_capacity(p.saturating_mul(p.saturating_sub(1)));
        let mut send_avail = vec![0.0f64; p];
        let mut recv_avail = vec![0.0f64; p];

        // Phase 1a: c's sends, back-to-back, longest first (order among
        // them is irrelevant to c's finish; longest-first helps phase 2).
        let mut out_dsts: Vec<usize> = (0..p).filter(|&d| d != c).collect();
        out_dsts.sort_by(|&a, &b| {
            matrix
                .cost(c, b)
                .as_ms()
                .total_cmp(&matrix.cost(c, a).as_ms())
                .then(a.cmp(&b))
        });
        let mut t = 0.0f64;
        for d in out_dsts {
            let fin = t + matrix.cost(c, d).as_ms();
            events.push(ScheduledEvent {
                src: c,
                dst: d,
                start: Millis::new(t),
                finish: Millis::new(fin),
            });
            recv_avail[d] = fin; // d's receive port was busy taking c's message
            t = fin;
        }
        send_avail[c] = t;

        // Phase 1b: everyone's message *to* c, streamed back-to-back into
        // c's receive port, longest first.
        let mut in_srcs: Vec<usize> = (0..p).filter(|&s| s != c).collect();
        in_srcs.sort_by(|&a, &b| {
            matrix
                .cost(b, c)
                .as_ms()
                .total_cmp(&matrix.cost(a, c).as_ms())
                .then(a.cmp(&b))
        });
        let mut t = 0.0f64;
        for s in in_srcs {
            let fin = t + matrix.cost(s, c).as_ms();
            events.push(ScheduledEvent {
                src: s,
                dst: c,
                start: Millis::new(t),
                finish: Millis::new(fin),
            });
            send_avail[s] = fin; // s's send port was busy feeding c
            t = fin;
        }
        recv_avail[c] = t;

        // Phase 2: the open shop rule over the remaining (non-c) events,
        // from the availability profile phase 1 left behind.
        let owes = (0..p * p)
            .map(|k| k / p != k % p && k / p != c && k % p != c)
            .collect();
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
    use crate::algorithms::Scheduler;

    fn heterogeneous(p: usize) -> CommMatrix {
        CommMatrix::from_fn(p, |s, d| {
            if s == d {
                0.0
            } else {
                ((s * 19 + d * 23) % 31 + 2) as f64
            }
        })
    }

    #[test]
    fn schedule_is_valid() {
        for c in 0..5 {
            let m = heterogeneous(5);
            let s = CriticalResource::new(c).build(&m);
            s.validate().unwrap_or_else(|e| panic!("critical={c}: {e}"));
        }
    }

    #[test]
    fn critical_processor_finishes_at_its_optimum() {
        for p in [3, 5, 8] {
            let m = heterogeneous(p);
            for c in 0..p {
                let s = CriticalResource::new(c).build(&m);
                let finish = CriticalResource::involvement_finish(&s, c);
                let optimum = CriticalResource::critical_optimum(&m, c);
                assert!(
                    (finish.as_ms() - optimum.as_ms()).abs() < 1e-9,
                    "P={p} c={c}: finish {finish} != optimum {optimum}"
                );
            }
        }
    }

    #[test]
    fn beats_openshop_on_the_critical_metric() {
        let m = heterogeneous(7);
        let c = 3;
        let crit = CriticalResource::new(c).build(&m);
        let open = OpenShop.schedule(&m);
        let crit_finish = CriticalResource::involvement_finish(&crit, c);
        let open_finish = CriticalResource::involvement_finish(&open, c);
        assert!(
            crit_finish.as_ms() <= open_finish.as_ms() + 1e-9,
            "critical-aware {crit_finish} vs open shop {open_finish}"
        );
    }

    #[test]
    fn overall_completion_is_still_bounded() {
        // Prioritizing c may delay others, but the schedule is still a
        // complete, valid total exchange with finite makespan ≥ lb.
        let m = heterogeneous(6);
        let s = CriticalResource::new(0).build(&m);
        assert!(s.completion_time().as_ms() >= m.lower_bound().as_ms() - 1e-9);
        // Sanity ceiling: serializing everything is the worst imaginable.
        assert!(s.completion_time().as_ms() <= m.total_cost().as_ms() + 1e-9);
    }

    #[test]
    fn phase_two_equals_the_linear_scan_loop_it_replaced() {
        // `heterogeneous(6)`, critical = 2, as emitted by the double
        // linear scan this module carried before phase 2 became
        // `OpenShop::list_schedule` (captured at 1a41724).
        let expected: [(usize, usize, f64, f64); 30] = [
            (2, 1, 0.0, 32.0),
            (4, 2, 0.0, 31.0),
            (5, 2, 31.0, 50.0),
            (2, 5, 32.0, 63.0),
            (4, 1, 32.0, 40.0),
            (0, 2, 50.0, 67.0),
            (5, 1, 50.0, 77.0),
            (2, 3, 63.0, 79.0),
            (4, 5, 63.0, 70.0),
            (3, 2, 67.0, 79.0),
            (0, 5, 70.0, 94.0),
            (1, 2, 79.0, 84.0),
            (2, 0, 79.0, 88.0),
            (3, 1, 79.0, 99.0),
            (4, 3, 79.0, 102.0),
            (2, 4, 88.0, 96.0),
            (5, 0, 88.0, 92.0),
            (1, 0, 92.0, 113.0),
            (5, 4, 96.0, 99.0),
            (0, 1, 99.0, 124.0),
            (3, 5, 99.0, 118.0),
            (5, 3, 102.0, 113.0),
            (1, 4, 113.0, 133.0),
            (4, 0, 113.0, 129.0),
            (0, 3, 124.0, 133.0),
            (3, 0, 129.0, 157.0),
            (0, 4, 133.0, 165.0),
            (1, 5, 133.0, 145.0),
            (1, 3, 145.0, 173.0),
            (3, 4, 165.0, 192.0),
        ];
        let s = CriticalResource::new(2).build(&heterogeneous(6));
        let got: Vec<_> = s
            .events()
            .iter()
            .map(|e| (e.src, e.dst, e.start.as_ms(), e.finish.as_ms()))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn two_processor_degenerate_case() {
        let m = CommMatrix::from_rows(&[vec![0.0, 5.0], vec![3.0, 0.0]]);
        let s = CriticalResource::new(1).build(&m);
        s.validate().unwrap();
        assert_eq!(
            CriticalResource::involvement_finish(&s, 1).as_ms(),
            5.0 // max(send_total(1)=3, recv_total(1)=5)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_critical_index_rejected() {
        let m = heterogeneous(3);
        let _ = CriticalResource::new(9).build(&m);
    }
}
