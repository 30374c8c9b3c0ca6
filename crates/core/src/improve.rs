//! Local-search schedule refinement.
//!
//! The paper's heuristics build a schedule in one pass; this module adds
//! an *improver* that polishes any [`SendOrder`] by hill climbing on the
//! executed completion time. Two move types:
//!
//! * **adjacent swap** — exchange two consecutive sends of one sender;
//! * **promotion** — move the send feeding the *bottleneck receiver*
//!   (the receiver whose last event defines the makespan) earlier in its
//!   sender's list.
//!
//! Each accepted move strictly reduces the ASAP completion time, so the
//! search terminates; a move budget caps worst-case work. This is the
//! natural tool for §6.2-style reuse too: refine yesterday's schedule
//! instead of recomputing it.

use crate::execution::execute_listed;
use crate::matrix::CommMatrix;
use crate::schedule::{Schedule, SendOrder};

/// The move budget the refinement study gives [`improve`].
pub const MAX_MOVES: usize = 200;

/// Outcome of an improvement run.
#[derive(Debug, Clone)]
pub struct Improvement {
    /// The refined order.
    pub order: SendOrder,
    /// Its executed schedule.
    pub schedule: Schedule,
    /// Completion before refinement.
    pub before: f64,
    /// Completion after refinement.
    pub after: f64,
    /// Number of accepted moves.
    pub moves: usize,
}

/// Hill-climbs `order` under ASAP execution against `matrix`, accepting
/// at most `max_moves` moves (each re-executes the order:
/// `O(P² log P)`). It stops after the first full neighborhood sweep that
/// finds no improvement.
pub fn improve(order: &SendOrder, matrix: &CommMatrix, max_moves: usize) -> Improvement {
    let p = matrix.len();
    let mut current = order.clone();
    let mut schedule = execute_listed(&current, matrix);
    let before = schedule.completion_time().as_ms();
    let mut best = before;
    let mut moves = 0usize;

    while moves < max_moves {
        let mut improved_this_sweep = false;

        // Move 1: adjacent swaps, all senders, all positions.
        'outer: for src in 0..p {
            for k in 0..current.order[src].len().saturating_sub(1) {
                let mut cand = current.clone();
                cand.order[src].swap(k, k + 1);
                let s = execute_listed(&cand, matrix);
                let t = s.completion_time().as_ms();
                if t < best - 1e-9 {
                    current = cand;
                    schedule = s;
                    best = t;
                    moves += 1;
                    improved_this_sweep = true;
                    if moves >= max_moves {
                        break 'outer;
                    }
                }
            }
        }

        // Move 2: promote the makespan-defining event to the front of
        // its sender's list.
        if moves < max_moves {
            if let Some(last) = schedule
                .events()
                .iter()
                .max_by(|a, b| a.finish.as_ms().total_cmp(&b.finish.as_ms()))
            {
                let (src, dst) = (last.src, last.dst);
                if let Some(pos) = current.order[src].iter().position(|&d| d == dst) {
                    if pos > 0 {
                        let mut cand = current.clone();
                        let d = cand.order[src].remove(pos);
                        cand.order[src].insert(0, d);
                        let s = execute_listed(&cand, matrix);
                        let t = s.completion_time().as_ms();
                        if t < best - 1e-9 {
                            current = cand;
                            schedule = s;
                            best = t;
                            moves += 1;
                            improved_this_sweep = true;
                        }
                    }
                }
            }
        }

        if !improved_this_sweep {
            break;
        }
    }

    Improvement {
        order: current,
        schedule,
        before,
        after: best,
        moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Baseline, Greedy, OpenShop, RandomOrder, Scheduler};

    fn matrix(p: usize, seed: u64) -> CommMatrix {
        CommMatrix::from_fn(p, |s, d| {
            if s == d {
                0.0
            } else {
                ((s as u64 * 19 + d as u64 * 5 + seed * 31) % 50 + 1) as f64
            }
        })
    }

    #[test]
    fn never_makes_a_schedule_worse() {
        for seed in 0..6u64 {
            let m = matrix(8, seed);
            for scheduler in [
                Box::new(Baseline) as Box<dyn Scheduler>,
                Box::new(Greedy),
                Box::new(OpenShop),
                Box::new(RandomOrder::new(seed)),
            ] {
                let order = scheduler.send_order(&m);
                let result = improve(&order, &m, MAX_MOVES);
                assert!(result.after <= result.before + 1e-9);
                result.schedule.validate().unwrap();
            }
        }
    }

    #[test]
    fn improves_random_orders_substantially() {
        let mut total_gain = 0.0;
        for seed in 0..8u64 {
            let m = matrix(9, seed);
            let order = RandomOrder::new(seed).send_order(&m);
            let result = improve(&order, &m, MAX_MOVES);
            total_gain += 1.0 - result.after / result.before;
        }
        assert!(
            total_gain / 8.0 > 0.02,
            "local search should shave a few percent off random orders, got {}",
            total_gain / 8.0
        );
    }

    #[test]
    fn respects_the_move_budget() {
        let m = matrix(10, 1);
        let order = RandomOrder::new(1).send_order(&m);
        let r = improve(&order, &m, 3);
        assert!(r.moves <= 3);
    }

    #[test]
    fn fixed_point_terminates_immediately() {
        // A 2-processor exchange has a single possible order; the search
        // must stop without moves.
        let m = CommMatrix::from_rows(&[vec![0.0, 4.0], vec![6.0, 0.0]]);
        let order = OpenShop.send_order(&m);
        let r = improve(&order, &m, MAX_MOVES);
        assert_eq!(r.moves, 0);
        assert_eq!(r.before, r.after);
    }

    #[test]
    fn refined_openshop_stays_within_theorem_3() {
        let m = matrix(12, 7);
        let order = OpenShop.send_order(&m);
        let r = improve(&order, &m, MAX_MOVES);
        assert!(r.after <= 2.0 * m.lower_bound().as_ms() + 1e-9);
    }
}
