//! Retained pre-optimization scheduler implementations — the correctness
//! oracles for the large-`P` fast paths.
//!
//! The production `algorithms::{matching, openshop, greedy}` modules of
//! `adaptcomm-core` were rewritten around warm-started LAP
//! solves, indexed binary heaps and cached row slices. These functions
//! preserve the original (simpler, slower) formulations *verbatim*;
//! property tests assert the optimized paths emit bit-identical
//! schedules (same event sets, same completion times) on random GUSTO
//! matrices. They are `O(P⁴)` / `O(P³)` respectively and intended for
//! `P ≲ 64` test instances only.

use adaptcomm_core::algorithms::MatchingKind;
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_core::schedule::{Schedule, ScheduledEvent};
use adaptcomm_lap::{solve_max, solve_min, DenseCost};
use adaptcomm_model::units::Millis;

/// The original matching-step extraction: one *cold* LAP solve per
/// round, rebuilding the max-complement from scratch each time.
pub fn matching_steps(kind: MatchingKind, matrix: &CommMatrix) -> Vec<Vec<Option<usize>>> {
    let p = matrix.len();
    let big = (p as f64 + 1.0) * (matrix.max_cost().as_ms() + 1.0);
    let deleted_weight = match kind {
        MatchingKind::Max => -big,
        MatchingKind::Min => big,
    };
    let mut weights = DenseCost::from_fn(p, |src, dst| matrix.cost(src, dst).as_ms());
    let mut deleted = vec![false; p * p];
    let mut steps = Vec::with_capacity(p);
    for _round in 0..p {
        let assignment = match kind {
            MatchingKind::Max => solve_max(&weights),
            MatchingKind::Min => solve_min(&weights),
        };
        let mut step = Vec::with_capacity(p);
        for (src, &dst) in assignment.row_to_col.iter().enumerate() {
            assert!(
                !deleted[src * p + dst],
                "matching reused the deleted edge {src} -> {dst}"
            );
            deleted[src * p + dst] = true;
            step.push(Some(dst));
            weights.set(src, dst, deleted_weight);
        }
        steps.push(step);
    }
    steps
}

/// The original open shop construction: an `O(P)` linear scan over the
/// sender and receiver availability lists per event.
pub fn openshop_build(matrix: &CommMatrix) -> Schedule {
    let p = matrix.len();
    let mut send_avail = vec![0.0f64; p];
    let mut recv_avail = vec![0.0f64; p];
    // Receiver sets: receivers[i] = destinations i still owes.
    let mut receivers: Vec<Vec<usize>> = (0..p)
        .map(|i| (0..p).filter(|&j| j != i).collect())
        .collect();
    let mut remaining: Vec<usize> = if p > 1 { (0..p).collect() } else { Vec::new() };
    let mut events = Vec::with_capacity(p * p.saturating_sub(1));

    while !remaining.is_empty() {
        // Earliest-available sender; ties to the lowest id.
        let (pos, &i) = remaining
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| send_avail[a].total_cmp(&send_avail[b]).then(a.cmp(&b)))
            .expect("remaining is non-empty");

        // Earliest-available receiver in i's set; ties to lowest id.
        let (rpos, &j) = receivers[i]
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| recv_avail[a].total_cmp(&recv_avail[b]).then(a.cmp(&b)))
            .expect("sender with no receivers should have been removed");

        let t = send_avail[i].max(recv_avail[j]);
        let finish = t + matrix.cost(i, j).as_ms();
        events.push(ScheduledEvent {
            src: i,
            dst: j,
            start: Millis::new(t),
            finish: Millis::new(finish),
        });
        send_avail[i] = finish;
        recv_avail[j] = finish;
        receivers[i].swap_remove(rpos);
        if receivers[i].is_empty() {
            remaining.swap_remove(pos);
        }
    }
    Schedule::new(matrix.clone(), events)
}

/// The original greedy composition: rank lists scanned from the start
/// each step through a `sent` bitmap.
pub fn greedy_steps(matrix: &CommMatrix) -> Vec<Vec<Option<usize>>> {
    let p = matrix.len();
    // Rank-ordered destination lists: decreasing cost, ties by lower
    // destination id for determinism.
    let ranked: Vec<Vec<usize>> = (0..p)
        .map(|src| {
            let mut dsts: Vec<usize> = (0..p).filter(|&d| d != src).collect();
            dsts.sort_by(|&a, &b| {
                matrix
                    .cost(src, b)
                    .as_ms()
                    .total_cmp(&matrix.cost(src, a).as_ms())
                    .then(a.cmp(&b))
            });
            dsts
        })
        .collect();

    let mut sent = vec![vec![false; p]; p]; // sent[src][dst]
    let mut remaining: Vec<usize> = vec![p.saturating_sub(1); p];
    let mut priority: Vec<usize> = (0..p).collect();
    let mut steps = Vec::new();

    while remaining.iter().any(|&r| r > 0) {
        let mut step: Vec<Option<usize>> = vec![None; p];
        let mut claimed = vec![false; p];
        let mut idled: Vec<usize> = Vec::new();
        let mut last_picker: Option<usize> = None;

        for &src in &priority {
            if remaining[src] == 0 {
                continue;
            }
            let pick = ranked[src]
                .iter()
                .copied()
                .find(|&d| !sent[src][d] && !claimed[d]);
            match pick {
                Some(d) => {
                    step[src] = Some(d);
                    claimed[d] = true;
                    sent[src][d] = true;
                    remaining[src] -= 1;
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
                .filter(|&s| remaining[s] > 0)
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
