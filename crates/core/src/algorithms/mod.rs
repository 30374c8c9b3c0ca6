//! The paper's scheduling algorithms for total exchange.
//!
//! All algorithms consume a [`CommMatrix`] and produce an abstract
//! [`SendOrder`] (per-sender ordered destination lists); the shared
//! [`Scheduler::schedule`] entry point then fixes start times with the
//! ASAP execution semantics of [`crate::execution`]. The open shop
//! heuristic constructs explicit start times as part of its own logic and
//! overrides `schedule` accordingly.

pub mod baseline;
pub mod greedy;
pub mod matching;
pub mod openshop;
pub mod optimal;

pub use baseline::Baseline;
pub use greedy::Greedy;
pub use matching::{MatchingKind, MatchingPlan, MatchingScheduler, REPLAN_GAP};
pub use openshop::OpenShop;
pub use optimal::BestOrderSearch;

use crate::execution::execute_listed;
use crate::matrix::CommMatrix;
use crate::schedule::{Schedule, SendOrder};

/// A total-exchange scheduling algorithm.
///
/// `Send + Sync` are supertraits so `Box<dyn Scheduler>` collections can
/// be shared across worker threads by parallel experiment sweeps; every
/// scheduler is a stateless (or immutable-config) value, so the bounds
/// cost implementors nothing.
pub trait Scheduler: Send + Sync {
    /// Short identifier used in experiment output ("baseline",
    /// "openshop", ...).
    fn name(&self) -> &'static str;

    /// Computes the per-sender transmission orders for the given
    /// communication matrix.
    fn send_order(&self, matrix: &CommMatrix) -> SendOrder;

    /// Computes a concrete schedule: the send order executed under the
    /// paper's ASAP/FCFS semantics.
    fn schedule(&self, matrix: &CommMatrix) -> Schedule {
        execute_listed(&self.send_order(matrix), matrix)
    }

    /// How the most recent construction was produced, for schedulers
    /// that distinguish reuse paths (`"cold"`, `"warm"`,
    /// `"incremental"`, `"hit"` for the matching scheduler). `None`
    /// when the scheduler has no reuse surface or has not run yet.
    fn construction_disposition(&self) -> Option<&'static str> {
        None
    }
}

/// Every built-in scheduler, for experiment sweeps. The returned
/// collection matches the algorithm set evaluated in the paper's §5:
/// baseline, max matching, min matching, greedy, open shop.
pub fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    all_schedulers_threaded(1)
}

/// [`all_schedulers`] with the matching schedulers running their LAP
/// solves on `threads` workers. Plans are bit-identical at any thread
/// count, so this only changes construction latency.
pub fn all_schedulers_threaded(threads: usize) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Baseline),
        Box::new(MatchingScheduler::with_threads(MatchingKind::Max, threads)),
        Box::new(MatchingScheduler::with_threads(MatchingKind::Min, threads)),
        Box::new(Greedy),
        Box::new(OpenShop),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schedulers_produce_valid_schedules() {
        let m = CommMatrix::from_fn(6, |s, d| {
            if s == d {
                0.0
            } else {
                ((s * 13 + d * 7) % 10 + 1) as f64
            }
        });
        for s in all_schedulers() {
            let sched = s.schedule(&m);
            sched
                .validate()
                .unwrap_or_else(|e| panic!("{} produced invalid schedule: {e}", s.name()));
            assert!(
                sched.completion_time().as_ms() >= m.lower_bound().as_ms() - 1e-9,
                "{} beat the lower bound?!",
                s.name()
            );
        }
    }

    #[test]
    fn degenerate_processor_counts_are_handled() {
        // P = 0 (no processors) and P = 1 (nothing to exchange) are legal
        // inputs: every registered scheduler must return an empty
        // schedule instead of underflowing `p - 1` somewhere.
        for p in [0usize, 1] {
            let m = CommMatrix::from_fn(p, |_, _| 0.0);
            assert_eq!(m.len(), p);
            assert_eq!(m.lower_bound().as_ms(), 0.0);
            for s in all_schedulers() {
                let order = s.send_order(&m);
                assert_eq!(order.processors(), p, "{} at P={p}", s.name());
                assert!(
                    order.order.iter().all(|l| l.is_empty()),
                    "{} scheduled a message at P={p}",
                    s.name()
                );
                let sched = s.schedule(&m);
                sched
                    .validate()
                    .unwrap_or_else(|e| panic!("{} invalid at P={p}: {e}", s.name()));
                assert!(sched.events().is_empty(), "{} at P={p}", s.name());
                assert_eq!(sched.completion_time().as_ms(), 0.0);
                assert_eq!(sched.lb_ratio(), 1.0);
            }
        }
    }

    #[test]
    fn scheduler_names_are_unique() {
        let names: Vec<_> = all_schedulers().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
