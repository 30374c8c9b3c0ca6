//! The greedy scheduling technique (§4.4).
//!
//! A cheaper approximation of the matching approach, `O(P³)` instead of
//! `O(P⁴)`. Each processor rank-orders its outgoing messages by
//! decreasing communication time. Steps are then composed one at a time:
//! processors take turns (in a rotating priority order) claiming the
//! first destination from their rank list that they have not already
//! used and that no other processor has claimed in the current step. A
//! processor that finds no destination idles for the step. Fairness
//! rules from the paper:
//!
//! * a processor that idled in a step picks *first* in the next step;
//! * otherwise, the processor that picked last goes first next.

use super::Scheduler;
use crate::matrix::CommMatrix;
use crate::schedule::SendOrder;

/// The greedy rank-ordered scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy;

impl Greedy {
    /// The step structure the greedy composition produces. Unlike the
    /// matching steps these may be *incomplete* (idle processors), so the
    /// number of steps can exceed `P−1`.
    ///
    /// The per-row argsorts (rank-ordered destination lists) are built
    /// exactly once up front over [`CommMatrix::row`] slices; each
    /// sender then consumes its list in place — a claimed destination is
    /// removed, so later steps never re-scan already-sent prefixes the
    /// way the retained `greedy_steps` formulation of
    /// `tests/reference/mod.rs` (a `sent` bitmap filter over the full
    /// list; `tests/reference_equiv.rs` holds the two equal) does.
    pub fn steps(matrix: &CommMatrix) -> Vec<Vec<Option<usize>>> {
        let p = matrix.len();
        // Rank-ordered destination lists: decreasing cost, ties by lower
        // destination id for determinism. `rank_left[src]` holds the
        // destinations src still owes, in rank order.
        let mut rank_left: Vec<Vec<usize>> = (0..p)
            .map(|src| {
                let row = matrix.row(src);
                let mut dsts: Vec<usize> = (0..p).filter(|&d| d != src).collect();
                dsts.sort_by(|&a, &b| row[b].total_cmp(&row[a]).then(a.cmp(&b)));
                dsts
            })
            .collect();

        let mut priority: Vec<usize> = (0..p).collect();
        let mut steps = Vec::new();

        while rank_left.iter().any(|l| !l.is_empty()) {
            let mut step: Vec<Option<usize>> = vec![None; p];
            let mut claimed = vec![false; p];
            let mut idled: Vec<usize> = Vec::new();
            let mut last_picker: Option<usize> = None;

            for &src in &priority {
                if rank_left[src].is_empty() {
                    continue;
                }
                let pick = rank_left[src].iter().position(|&d| !claimed[d]);
                match pick {
                    Some(pos) => {
                        let d = rank_left[src].remove(pos);
                        step[src] = Some(d);
                        claimed[d] = true;
                        last_picker = Some(src);
                    }
                    None => idled.push(src),
                }
            }

            // Fairness rotation for the next step.
            if !idled.is_empty() {
                let idle_set: Vec<usize> = idled
                    .iter()
                    .copied()
                    .filter(|&s| !rank_left[s].is_empty())
                    .collect();
                if !idle_set.is_empty() {
                    let rest: Vec<usize> = priority
                        .iter()
                        .copied()
                        .filter(|s| !idle_set.contains(s))
                        .collect();
                    priority = idle_set.into_iter().chain(rest).collect();
                }
            } else if let Some(last) = last_picker {
                let rest: Vec<usize> = priority.iter().copied().filter(|&s| s != last).collect();
                priority = std::iter::once(last).chain(rest).collect();
            }

            assert!(
                step.iter().any(|d| d.is_some()),
                "greedy step made no progress; scheduling stuck"
            );
            steps.push(step);
        }
        steps
    }
}

impl Scheduler for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn send_order(&self, matrix: &CommMatrix) -> SendOrder {
        SendOrder::from_steps(matrix.len(), &Self::steps(matrix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heterogeneous(p: usize) -> CommMatrix {
        CommMatrix::from_fn(p, |s, d| {
            if s == d {
                0.0
            } else {
                ((s * 29 + d * 13) % 19 + 1) as f64
            }
        })
    }

    #[test]
    fn every_message_sent_exactly_once() {
        let m = heterogeneous(7);
        let order = Greedy.send_order(&m);
        // SendOrder::new already validates permutations; double-check
        // counts here.
        assert_eq!(order.order.iter().map(|l| l.len()).sum::<usize>(), 42);
    }

    #[test]
    fn steps_have_no_receiver_conflicts() {
        let m = heterogeneous(6);
        for step in Greedy::steps(&m) {
            let mut dsts: Vec<usize> = step.into_iter().flatten().collect();
            let before = dsts.len();
            dsts.sort();
            dsts.dedup();
            assert_eq!(
                dsts.len(),
                before,
                "a destination was claimed twice in one step"
            );
        }
    }

    #[test]
    fn lists_start_with_longest_message() {
        let m = heterogeneous(5);
        let order = Greedy.send_order(&m);
        for (src, list) in order.order.iter().enumerate() {
            let first_cost = m.cost(src, list[0]).as_ms();
            // The first pick of the first step (for the first-priority
            // processor) is its longest message; later processors may be
            // blocked from theirs, so only check the global property that
            // the first listed message is within the processor's top picks
            // allowed by contention. Weak but deterministic check: the
            // first message is at least as long as the processor's
            // *shortest* message.
            let min_cost = list
                .iter()
                .map(|&d| m.cost(src, d).as_ms())
                .fold(f64::INFINITY, f64::min);
            assert!(first_cost >= min_cost);
        }
        // The first-priority processor (P0) gets exactly its longest.
        let p0_longest = (1..5).map(|d| m.cost(0, d).as_ms()).fold(0.0, f64::max);
        assert_eq!(m.cost(0, order.order[0][0]).as_ms(), p0_longest);
    }

    #[test]
    fn schedule_is_valid_and_bounded() {
        let m = heterogeneous(9);
        let s = Greedy.schedule(&m);
        s.validate().unwrap();
        assert!(s.lb_ratio() >= 1.0 - 1e-12);
        // Greedy is adaptive; on this instance it should beat ⌈P/2⌉·lb
        // comfortably.
        assert!(s.completion_time().as_ms() < 4.5 * m.lower_bound().as_ms());
    }

    #[test]
    fn homogeneous_costs_degenerate_gracefully() {
        let m = CommMatrix::from_fn(5, |s, d| if s == d { 0.0 } else { 2.0 });
        let s = Greedy.schedule(&m);
        s.validate().unwrap();
        // With all events equal the greedy composition can leave a
        // processor idle in some step (its remaining destinations all
        // claimed), so it may need one extra step beyond the optimal 4 —
        // but never more than that on a uniform matrix.
        let lb = m.lower_bound().as_ms(); // 8.0
        let t = s.completion_time().as_ms();
        assert!(t >= lb);
        assert!(t <= lb + 2.0, "one extra 2ms step at most, got {t}");
    }

    #[test]
    fn idle_processor_priority_is_honoured() {
        // Craft a 3-processor case that forces an idle step: with P=3
        // each step can hold at most 3 events but conflicts arise.
        let m = CommMatrix::from_rows(&[
            vec![0.0, 9.0, 1.0],
            vec![9.0, 0.0, 1.0],
            vec![5.0, 5.0, 0.0],
        ]);
        // Rank lists: P0: [1, 2]; P1: [0, 2]; P2: [0 or 1 (tie→0), then other].
        // Step 1 (priority 0,1,2): P0→1, P1→0, P2 wants 0 (taken), 1
        // (taken) → idle. Step 2: P2 first.
        let steps = Greedy::steps(&m);
        assert_eq!(steps[0][2], None, "P2 must idle in step 1");
        assert!(steps[1][2].is_some(), "P2 must pick first in step 2");
        let s = Greedy.schedule(&m);
        s.validate().unwrap();
    }

    #[test]
    fn two_processors() {
        let m = CommMatrix::from_rows(&[vec![0.0, 3.0], vec![4.0, 0.0]]);
        let s = Greedy.schedule(&m);
        s.validate().unwrap();
        assert_eq!(s.completion_time().as_ms(), 4.0);
    }
}
