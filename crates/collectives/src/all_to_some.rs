//! All-to-some: a subset of senders each owes a distinct message to a
//! subset of receivers.
//!
//! This is the partial-exchange pattern behind the paper's BADD data
//! staging discussion (§2, §6.4) — data items move from holder nodes to
//! requester nodes. The scheduling machinery is the open shop rule from
//! §4.5, generalized to an arbitrary demand relation instead of the full
//! all-pairs set. The paper's Theorem-3 argument carries over: a sender
//! idles only while its remaining receivers are busy, so completion stays
//! within a row-sum plus a column-sum of the demand matrix.

use crate::plan::CollectiveSchedule;
use adaptcomm_core::algorithms::OpenShop;
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_model::units::Millis;

/// A demand: which ordered pairs must communicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Demand {
    p: usize,
    /// `wants[src]` = receivers src owes a message.
    wants: Vec<Vec<usize>>,
}

impl Demand {
    /// Builds a demand set over `p` processors. Duplicate or self pairs
    /// are rejected.
    pub fn new(p: usize, pairs: &[(usize, usize)]) -> Self {
        let mut wants = vec![Vec::new(); p];
        let mut seen = vec![false; p * p];
        for &(s, d) in pairs {
            assert!(s < p && d < p, "pair ({s},{d}) out of range");
            assert!(s != d, "self pair ({s},{s})");
            assert!(!seen[s * p + d], "duplicate pair ({s},{d})");
            seen[s * p + d] = true;
            wants[s].push(d);
        }
        Demand { p, wants }
    }

    /// Everyone-to-subset demand: each processor sends to every receiver
    /// in `receivers` (except itself).
    pub fn all_to(p: usize, receivers: &[usize]) -> Self {
        let mut pairs = Vec::new();
        for s in 0..p {
            for &r in receivers {
                if r != s {
                    pairs.push((s, r));
                }
            }
        }
        Self::new(p, &pairs)
    }

    /// The demanded pairs, sender-major.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.wants
            .iter()
            .enumerate()
            .flat_map(|(s, ds)| ds.iter().map(move |&d| (s, d)))
    }

    /// Number of demanded messages.
    pub fn len(&self) -> usize {
        self.wants.iter().map(|w| w.len()).sum()
    }

    /// True if nothing is demanded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lower bound for this demand under `matrix`: the largest
    /// per-processor send or receive workload.
    pub fn lower_bound(&self, matrix: &CommMatrix) -> Millis {
        let mut send = vec![0.0f64; self.p];
        let mut recv = vec![0.0f64; self.p];
        for (s, d) in self.pairs() {
            let c = matrix.cost(s, d).as_ms();
            send[s] += c;
            recv[d] += c;
        }
        Millis::new(send.iter().chain(recv.iter()).copied().fold(0.0, f64::max))
    }
}

/// Schedules a demand with the generalized open shop rule.
pub fn schedule_demand(matrix: &CommMatrix, demand: &Demand) -> CollectiveSchedule {
    let p = matrix.len();
    assert_eq!(demand.p, p, "demand does not match the matrix");
    let mut owes = vec![false; p * p];
    for (s, d) in demand.pairs() {
        owes[s * p + d] = true;
    }
    let events = OpenShop::list_schedule(owes, vec![0.0; p], vec![0.0; p], |i, j| {
        matrix.cost(i, j).as_ms()
    });
    CollectiveSchedule::new(p, events).expect("open shop respects ports by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hetero(p: usize) -> CommMatrix {
        CommMatrix::from_fn(p, |s, d| {
            if s == d {
                0.0
            } else {
                ((s * 7 + d * 11) % 13 + 1) as f64
            }
        })
    }

    #[test]
    fn demand_construction() {
        let d = Demand::new(4, &[(0, 1), (2, 1), (3, 0)]);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        let pairs: Vec<_> = d.pairs().collect();
        assert!(pairs.contains(&(2, 1)));
    }

    #[test]
    fn all_to_subset() {
        let d = Demand::all_to(5, &[0, 1]);
        // Senders 0..5 to receivers {0,1} minus self: 4 + 4 = 8? No:
        // sender 0 → {1}, sender 1 → {0}, senders 2,3,4 → {0,1} = 2 each.
        assert_eq!(d.len(), 1 + 1 + 2 + 2 + 2);
    }

    #[test]
    fn schedule_covers_demand_exactly() {
        let m = hetero(6);
        let d = Demand::all_to(6, &[0, 2, 4]);
        let plan = schedule_demand(&m, &d);
        assert_eq!(plan.events().len(), d.len());
        let mut want: Vec<_> = d.pairs().collect();
        let mut got: Vec<_> = plan.events().iter().map(|e| (e.src, e.dst)).collect();
        want.sort();
        got.sort();
        assert_eq!(want, got);
    }

    #[test]
    fn equals_the_linear_scan_loop_it_replaced() {
        // `hetero(6)`, everyone to {0, 2, 4}, as emitted by the double
        // linear scan `schedule_demand` carried before it became
        // `OpenShop::list_schedule` (captured at 1a41724).
        let expected: [(usize, usize, f64, f64); 15] = [
            (0, 2, 0.0, 10.0),
            (1, 0, 0.0, 8.0),
            (2, 4, 0.0, 7.0),
            (3, 4, 7.0, 8.0),
            (4, 0, 8.0, 11.0),
            (5, 4, 8.0, 10.0),
            (0, 4, 10.0, 16.0),
            (1, 2, 10.0, 14.0),
            (2, 0, 11.0, 13.0),
            (3, 0, 13.0, 22.0),
            (5, 2, 14.0, 20.0),
            (1, 4, 16.0, 29.0),
            (4, 2, 20.0, 32.0),
            (5, 0, 22.0, 32.0),
            (3, 2, 32.0, 37.0),
        ];
        let plan = schedule_demand(&hetero(6), &Demand::all_to(6, &[0, 2, 4]));
        let got: Vec<_> = plan
            .events()
            .iter()
            .map(|e| (e.src, e.dst, e.start.as_ms(), e.finish.as_ms()))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn stays_within_twice_the_demand_lower_bound() {
        for seed in 0..10usize {
            let m = hetero(8);
            let receivers: Vec<usize> = (0..8).filter(|r| (r + seed) % 3 != 0).collect();
            let d = Demand::all_to(8, &receivers);
            if d.is_empty() {
                continue;
            }
            let plan = schedule_demand(&m, &d);
            let lb = d.lower_bound(&m).as_ms();
            assert!(
                plan.completion_time().as_ms() <= 2.0 * lb + 1e-9,
                "seed {seed}: {} > 2·{lb}",
                plan.completion_time()
            );
        }
    }

    #[test]
    fn empty_demand_yields_empty_plan() {
        let m = hetero(3);
        let d = Demand::new(3, &[]);
        let plan = schedule_demand(&m, &d);
        assert!(plan.events().is_empty());
        assert_eq!(plan.completion_time().as_ms(), 0.0);
    }

    #[test]
    fn single_receiver_demand_serializes_like_gather() {
        let m = hetero(5);
        let d = Demand::all_to(5, &[3]);
        let plan = schedule_demand(&m, &d);
        // Receiver 3 is the bottleneck: completion = its receive load.
        assert!((plan.completion_time().as_ms() - d.lower_bound(&m).as_ms()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "duplicate pair")]
    fn duplicate_pair_rejected() {
        let _ = Demand::new(3, &[(0, 1), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "self pair")]
    fn self_pair_rejected() {
        let _ = Demand::new(3, &[(1, 1)]);
    }
}
