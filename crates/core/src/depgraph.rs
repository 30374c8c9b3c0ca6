//! Dependence graphs of step-structured schedules (Theorem 2 machinery).
//!
//! For a step-structured schedule the paper builds a directed graph
//! **DG** with one node per communication event; edges run from an event
//! to its immediate successors that share the same sender (vertical) or
//! the same receiver (diagonal). Under *step-ordered* execution (each
//! event waits for its predecessors in the step structure) the completion
//! time equals the weight of the longest path in **DG**. This module
//! keeps the baseline-specific closed-form recursion used in the proof of
//! Theorem 2; for an arbitrary step structure that execution is
//! [`crate::execution::execute_steps_pairwise`], and its longest path is
//! [`crate::analyze::dag_of`]`(..).critical_path()`.
//!
//! Step-ordered execution is the model Theorem 2 reasons about. The ASAP
//! semantics of [`crate::execution`] usually finish earlier (events start
//! as soon as ports free up), though FCFS receiver grants can reorder
//! access across steps, so neither semantics dominates the other on every
//! instance.

use crate::matrix::CommMatrix;
use adaptcomm_model::units::Millis;

/// Completion time of the caterpillar baseline under step-ordered
/// execution, including the step-0 self-sends (whose cost is the matrix
/// diagonal — normally zero, but Theorem 2's tightness instance uses it).
///
/// Recursion: `finish(i, j) = cost(i, (i+j) mod P) +
/// max(finish(i, j−1), finish((i+1) mod P, j−1))` — an event waits for
/// the same sender's previous step (vertical edge) and for the event that
/// used its receiver in the previous step (diagonal edge; in step `j−1`
/// receiver `(i+j) mod P` was fed by sender `(i+1) mod P`).
pub fn baseline_step_ordered_completion(matrix: &CommMatrix) -> Millis {
    let p = matrix.len();
    if p == 1 {
        return matrix.cost(0, 0);
    }
    let mut prev = vec![0.0f64; p];
    let mut cur = vec![0.0f64; p];
    // Step 0: self-sends.
    for i in 0..p {
        prev[i] = matrix.cost(i, i).as_ms();
    }
    let mut overall = prev.iter().copied().fold(0.0, f64::max);
    for j in 1..p {
        for i in 0..p {
            let dst = (i + j) % p;
            let dep = prev[i].max(prev[(i + 1) % p]);
            cur[i] = matrix.cost(i, dst).as_ms() + dep;
        }
        overall = overall.max(cur.iter().copied().fold(0.0, f64::max));
        std::mem::swap(&mut prev, &mut cur);
    }
    Millis::new(overall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Baseline;
    use crate::analyze::dag_of;
    use crate::execution::execute_steps_pairwise;

    #[test]
    fn homogeneous_baseline_completion() {
        let m = CommMatrix::from_fn(5, |s, d| if s == d { 0.0 } else { 2.0 });
        // 4 real steps of 2ms each, step 0 free.
        assert_eq!(baseline_step_ordered_completion(&m).as_ms(), 8.0);
    }

    #[test]
    fn critical_path_is_consistent_with_completion() {
        let m = CommMatrix::from_fn(6, |s, d| {
            if s == d {
                0.0
            } else {
                ((s * 11 + d * 5) % 9 + 1) as f64
            }
        });
        // The same DG, executed: its critical path has one event per
        // real step (the zero-cost self-sends of step 0 are not events).
        let dag = dag_of(&execute_steps_pairwise(&Baseline::steps(6), &m));
        let path: Vec<(usize, usize)> = (dag.critical_path().iter())
            .map(|hop| (hop.transfer.src, hop.transfer.dst))
            .collect();
        assert_eq!(path.len(), 5, "one event per step");
        let path_weight: f64 = path.iter().map(|&(s, d)| m.cost(s, d).as_ms()).sum();
        assert!(
            (path_weight - baseline_step_ordered_completion(&m).as_ms()).abs() < 1e-9,
            "critical path weight must equal the completion time"
        );
        // Adjacent path events share a sender or a receiver (the DG edge
        // condition: same column or same row of C).
        for w in path.windows(2) {
            let (s0, d0) = w[0];
            let (s1, d1) = w[1];
            assert!(s0 == s1 || d0 == d1, "path events must be dependent");
        }
    }

    #[test]
    fn step_ordered_matches_baseline_recursion() {
        let m = CommMatrix::from_fn(7, |s, d| {
            if s == d {
                0.0
            } else {
                ((s * 3 + d * 19) % 12 + 1) as f64
            }
        });
        let via_steps = {
            // Baseline steps plus the explicit self-send step 0.
            let mut steps = vec![(0..7).map(Some).collect::<Vec<_>>()];
            steps.extend(Baseline::steps(7));
            // Self-sends have zero cost here, so including step 0 changes
            // nothing.
            execute_steps_pairwise(&steps, &m).completion_time()
        };
        assert!((via_steps.as_ms() - baseline_step_ordered_completion(&m).as_ms()).abs() < 1e-9);
    }

    #[test]
    fn step_ordered_general_schedule() {
        let m = CommMatrix::from_rows(&[
            vec![0.0, 2.0, 3.0],
            vec![4.0, 0.0, 5.0],
            vec![6.0, 7.0, 0.0],
        ]);
        // One step at a time: every event serializes through its
        // sender/receiver chain.
        let steps = vec![
            vec![Some(1), None, None],
            vec![None, Some(0), None],
            vec![None, None, Some(0)],
            vec![Some(2), None, None],
            vec![None, Some(2), None],
            vec![None, None, Some(1)],
        ];
        let t = execute_steps_pairwise(&steps, &m).completion_time();
        // (0→1):0-2, (1→0):0-4, (2→0):4-10, (0→2):2-5, (1→2):5-10, (2→1):10-17.
        assert_eq!(t.as_ms(), 17.0);
    }

    #[test]
    fn single_processor_degenerates() {
        let m = CommMatrix::from_rows(&[vec![0.0]]);
        assert_eq!(baseline_step_ordered_completion(&m).as_ms(), 0.0);
    }
}
