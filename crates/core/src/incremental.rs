//! Incremental dynamic scheduling (§6.2).
//!
//! "In many sensor-based applications, a series of continuously arriving
//! data sets are processed in an identical manner. In such cases, the
//! overhead for repeatedly calculating the communication schedule at
//! run-time can be expensive." The incremental approach computes a
//! schedule once and then *refines* it as the directory reports bandwidth
//! changes, instead of recomputing from scratch.
//!
//! [`IncrementalScheduler`] keeps the current send order and, on each
//! update:
//!
//! 1. measures the largest relative cost change since the last accepted
//!    matrix;
//! 2. up to 10 % drift it keeps the order verbatim (events keep their
//!    relative sequence; only the start times shift) — `O(P² log P)` for
//!    the re-execution instead of `O(P³)`/`O(P⁴)` for a recompute;
//! 3. up to 75 % it repairs the order locally: at most 150 hill-climbing
//!    moves from the *current* order under the new costs
//!    ([`crate::improve`]), which keeps the scheduler's cross-sender
//!    coordination and can never lose to the stale order;
//! 4. beyond that it falls back to a full recompute with the scheduler.

use crate::algorithms::Scheduler;
use crate::execution::execute_listed;
use crate::improve::improve;
use crate::matrix::CommMatrix;
use crate::schedule::{Schedule, SendOrder};

/// What an update decided to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateAction {
    /// Costs barely moved; the order was kept.
    Kept,
    /// Moderate drift; the order was repaired by local search.
    Repaired,
    /// Heavy drift; the full scheduler was re-run.
    Recomputed,
}

/// Largest relative per-event cost change tolerated without touching
/// the order.
const REFRESH_THRESHOLD: f64 = 0.10;
/// Relative change beyond which a full recompute is performed.
const RECOMPUTE_THRESHOLD: f64 = 0.75;
/// Most hill-climbing moves a repair between the thresholds makes.
const REPAIR_MOVES: usize = 150;

/// Maintains a schedule across a stream of directory updates.
pub struct IncrementalScheduler<S: Scheduler> {
    scheduler: S,
    matrix: CommMatrix,
    order: SendOrder,
    recomputes: usize,
    repairs: usize,
    keeps: usize,
}

impl<S: Scheduler> IncrementalScheduler<S> {
    /// Computes the initial schedule for `matrix` with `scheduler`.
    pub fn new(scheduler: S, matrix: CommMatrix) -> Self {
        let order = scheduler.send_order(&matrix);
        IncrementalScheduler {
            scheduler,
            matrix,
            order,
            recomputes: 1,
            repairs: 0,
            keeps: 0,
        }
    }

    /// The current send order.
    pub fn order(&self) -> &SendOrder {
        &self.order
    }

    /// The matrix the current order was tuned for.
    pub fn matrix(&self) -> &CommMatrix {
        &self.matrix
    }

    /// Counts of (kept, repaired, recomputed) updates so far. The initial
    /// computation counts as one recompute.
    pub fn stats(&self) -> (usize, usize, usize) {
        (self.keeps, self.repairs, self.recomputes)
    }

    /// Largest relative per-event cost change between two matrices.
    pub fn relative_drift(old: &CommMatrix, new: &CommMatrix) -> f64 {
        assert_eq!(old.len(), new.len(), "matrices cover different systems");
        let mut worst = 0.0f64;
        for (src, dst, c_old) in old.events() {
            let c_new = new.cost(src, dst);
            let base = c_old.as_ms().max(1e-12);
            worst = worst.max((c_new.as_ms() - c_old.as_ms()).abs() / base);
        }
        worst
    }

    /// Ingests an updated communication matrix and returns the schedule
    /// for the next invocation along with what was done to obtain it.
    pub fn update(&mut self, new_matrix: CommMatrix) -> (Schedule, UpdateAction) {
        let drift = Self::relative_drift(&self.matrix, &new_matrix);
        let action = if drift <= REFRESH_THRESHOLD {
            self.keeps += 1;
            UpdateAction::Kept
        } else if drift <= RECOMPUTE_THRESHOLD {
            self.repairs += 1;
            self.order = improve(&self.order, &new_matrix, REPAIR_MOVES).order;
            UpdateAction::Repaired
        } else {
            self.recomputes += 1;
            self.order = self.scheduler.send_order(&new_matrix);
            UpdateAction::Recomputed
        };
        self.matrix = new_matrix;
        (execute_listed(&self.order, &self.matrix), action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::OpenShop;

    fn base_matrix(p: usize) -> CommMatrix {
        CommMatrix::from_fn(p, |s, d| {
            if s == d {
                0.0
            } else {
                ((s * 23 + d * 7) % 15 + 5) as f64
            }
        })
    }

    fn scaled(m: &CommMatrix, factor: f64, only: Option<(usize, usize)>) -> CommMatrix {
        CommMatrix::from_fn(m.len(), |s, d| {
            let c = m.cost(s, d).as_ms();
            match only {
                Some((os, od)) if (s, d) != (os, od) => c,
                _ => c * factor,
            }
        })
    }

    #[test]
    fn tiny_drift_keeps_the_order() {
        let m = base_matrix(6);
        let mut inc = IncrementalScheduler::new(OpenShop, m.clone());
        let before = inc.order().clone();
        let (sched, action) = inc.update(scaled(&m, 1.05, None));
        assert_eq!(action, UpdateAction::Kept);
        assert_eq!(inc.order(), &before);
        sched.validate().unwrap();
        assert_eq!(inc.stats(), (1, 0, 1));
    }

    #[test]
    fn moderate_drift_triggers_repair() {
        let m = base_matrix(6);
        let mut inc = IncrementalScheduler::new(OpenShop, m.clone());
        // One pair slows down 50%: repair, not recompute.
        let (sched, action) = inc.update(scaled(&m, 1.5, Some((0, 1))));
        assert_eq!(action, UpdateAction::Repaired);
        sched.validate().unwrap();
        assert_eq!(inc.stats(), (0, 1, 1));
    }

    #[test]
    fn heavy_drift_triggers_recompute() {
        let m = base_matrix(5);
        let mut inc = IncrementalScheduler::new(OpenShop, m.clone());
        let (sched, action) = inc.update(scaled(&m, 3.0, None));
        assert_eq!(action, UpdateAction::Recomputed);
        sched.validate().unwrap();
        assert_eq!(inc.stats(), (0, 0, 2));
    }

    #[test]
    fn kept_schedule_still_executes_with_new_costs() {
        let m = base_matrix(4);
        let mut inc = IncrementalScheduler::new(OpenShop, m.clone());
        let slower = scaled(&m, 1.08, None);
        let (sched, _) = inc.update(slower.clone());
        // Completion reflects the *new* costs even though the order is old.
        assert_eq!(sched.matrix(), &slower);
        assert!(sched.completion_time().as_ms() > 0.0);
    }

    #[test]
    fn drift_measure() {
        let a = base_matrix(4);
        assert_eq!(
            IncrementalScheduler::<OpenShop>::relative_drift(&a, &a),
            0.0
        );
        let b = scaled(&a, 2.0, Some((1, 2)));
        let d = IncrementalScheduler::<OpenShop>::relative_drift(&a, &b);
        assert!(
            (d - 1.0).abs() < 1e-12,
            "doubling one event = 100% drift, got {d}"
        );
    }

    #[test]
    fn local_search_repair_never_loses_to_keeping_the_stale_order() {
        let m = base_matrix(8);
        let drifted = scaled(&m, 1.5, Some((0, 1)));
        // Frozen reference: the original order executed on new costs.
        let frozen = {
            let inc = IncrementalScheduler::new(OpenShop, m.clone());
            let stale = inc.order().clone();
            drop(inc);
            crate::execution::execute_listed(&stale, &drifted)
                .completion_time()
                .as_ms()
        };
        let mut inc = IncrementalScheduler::new(OpenShop, m.clone());
        let (sched, action) = inc.update(drifted.clone());
        assert_eq!(action, UpdateAction::Repaired);
        sched.validate().unwrap();
        assert!(
            sched.completion_time().as_ms() <= frozen + 1e-9,
            "hill climbing from the current order cannot lose to it"
        );
    }
}
