//! Theoretical bounds: the lower bound `t_lb`, the Theorem-2 baseline
//! bound `⌈P/2⌉·t_lb` with its tightness instance, and the Theorem-3 open
//! shop bound `2·t_lb`.

use crate::matrix::CommMatrix;

/// The Theorem-2 multiplier: the baseline (caterpillar) completion time
/// never exceeds `⌈P/2⌉ · t_lb` under step-ordered execution.
///
/// (The paper states the bound as `P/2`; the pairing argument in its
/// proof groups the `P` nodes of the critical path two at a time, which
/// for odd `P` leaves one unpaired node and yields the ceiling.)
pub fn baseline_bound_factor(p: usize) -> f64 {
    p.div_ceil(2) as f64
}

/// The Theorem-3 multiplier for the open shop heuristic.
pub const OPENSHOP_BOUND_FACTOR: f64 = 2.0;

/// The paper's Theorem-2 tightness instance (`P = 4`), parameterized by
/// the arbitrarily small `ε`:
///
/// ```text
///       C = ⎡ ε ε ε ε ⎤      (paper orientation:
///           ⎢ ε 1 ε ε ⎥       C_{i,j} = time of P_j → P_i)
///           ⎢ 1 1 ε ε ⎥
///           ⎣ 1 ε ε ε ⎦
/// ```
///
/// Its lower bound is `2 + 2ε` while the baseline's critical path strings
/// together all four unit-time events, so the ratio approaches
/// `4 / 2 = P/2` as `ε → 0`. Note the instance deliberately uses a
/// non-zero *diagonal* entry (`C_{1,1} = 1`) — the self-send slot of the
/// caterpillar's step 0 participates in the dependence chain.
pub fn theorem2_tightness_instance(epsilon: f64) -> CommMatrix {
    assert!(epsilon > 0.0, "ε must be positive");
    let e = epsilon;
    CommMatrix::from_paper_c(&[
        vec![e, e, e, e],
        vec![e, 1.0, e, e],
        vec![1.0, 1.0, e, e],
        vec![1.0, e, e, e],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Baseline, OpenShop, Scheduler};
    use crate::depgraph;

    #[test]
    fn bound_factors() {
        assert_eq!(baseline_bound_factor(4), 2.0);
        assert_eq!(baseline_bound_factor(5), 3.0);
        assert_eq!(baseline_bound_factor(50), 25.0);
    }

    #[test]
    fn tightness_instance_lower_bound() {
        let eps = 1e-6;
        let m = theorem2_tightness_instance(eps);
        assert!((m.lower_bound().as_ms() - (2.0 + 2.0 * eps)).abs() < 1e-12);
    }

    #[test]
    fn tightness_instance_achieves_factor_two() {
        // Under the paper's dependence-graph (step-ordered) semantics the
        // baseline takes 4 units on this instance: ratio → P/2 = 2.
        let eps = 1e-9;
        let m = theorem2_tightness_instance(eps);
        let completion = depgraph::baseline_step_ordered_completion(&m);
        assert!((completion.as_ms() - 4.0).abs() < 1e-6, "got {completion}");
        let ratio = completion / m.lower_bound();
        assert!(
            (ratio - 2.0).abs() < 1e-5,
            "ratio {ratio} should approach 2"
        );
    }

    #[test]
    fn baseline_respects_theorem_2_on_random_matrices() {
        for seed in 0..30u64 {
            let p = 3 + (seed as usize % 8);
            let m = CommMatrix::from_fn(p, |s, d| {
                if s == d {
                    0.0
                } else {
                    ((s as u64 * 17 + d as u64 * 29 + seed * 97) % 50 + 1) as f64
                }
            });
            let completion = depgraph::baseline_step_ordered_completion(&m);
            let bound = baseline_bound_factor(p) * m.lower_bound().as_ms();
            assert!(
                completion.as_ms() <= bound + 1e-9,
                "P={p} seed={seed}: {completion} exceeds ⌈P/2⌉·t_lb = {bound}"
            );
            // The pairwise execution is exactly the Theorem-2 model.
            let pairwise = Baseline::schedule_pairwise(&m).completion_time();
            assert!((pairwise.as_ms() - completion.as_ms()).abs() < 1e-9);
        }
    }

    #[test]
    fn openshop_respects_theorem_3_on_random_matrices() {
        for seed in 0..30u64 {
            let p = 3 + (seed as usize % 10);
            let m = CommMatrix::from_fn(p, |s, d| {
                if s == d {
                    0.0
                } else {
                    ((s as u64 * 13 + d as u64 * 41 + seed * 61) % 80 + 1) as f64
                }
            });
            let s = OpenShop.schedule(&m);
            assert!(
                s.completion_time().as_ms()
                    <= OPENSHOP_BOUND_FACTOR * m.lower_bound().as_ms() + 1e-9,
                "P={p} seed={seed}: open shop broke Theorem 3"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_epsilon_rejected() {
        let _ = theorem2_tightness_instance(0.0);
    }
}
