//! Property tests: the LAP solvers must agree — with each other and with
//! the exhaustive oracle.

use adaptcomm_lap::{brute, hungarian, jv, solve_max, solve_min, solve_min_warm, DenseCost, Duals};
use proptest::prelude::*;

fn cost_matrix(max_n: usize) -> impl Strategy<Value = DenseCost> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(0.0f64..1_000.0, n * n)
            .prop_map(move |data| DenseCost::from_flat(n, data))
    })
}

/// Adversarial matrices for degenerate-optimum coverage: entries are
/// quantized to a handful of levels (ties everywhere), and with
/// probability ~1/2 one row is zeroed out (the matching scheduler's
/// all-self-send degenerate shape). `zero_pick == n` means no zero row.
fn degenerate_matrix(max_n: usize) -> impl Strategy<Value = DenseCost> {
    (1..=max_n, 1usize..=4).prop_flat_map(|(n, levels)| {
        (proptest::collection::vec(0usize..levels, n * n), 0..=2 * n).prop_map(
            move |(data, zero_pick)| {
                let mut m = DenseCost::from_flat(n, data.iter().map(|&v| v as f64).collect());
                if zero_pick < n {
                    for j in 0..n {
                        m.set(zero_pick, j, 0.0);
                    }
                }
                m
            },
        )
    })
}

/// The shared three-way cross-check: JV, Hungarian and (on instances
/// small enough to enumerate) brute force must produce assignments of
/// equal cost, for both the minimizing and maximizing entry points.
fn cross_validate(c: &DenseCost) {
    let a = jv::solve(c);
    let b = hungarian::solve(c);
    assert!(a.is_permutation());
    assert!(b.is_permutation());
    assert!(
        (a.cost - b.cost).abs() < 1e-6,
        "jv={} hungarian={}",
        a.cost,
        b.cost
    );
    if c.dim() <= 6 {
        let exact = brute::solve_min(c);
        assert!(
            (a.cost - exact.cost).abs() < 1e-6,
            "jv={} brute={}",
            a.cost,
            exact.cost
        );
        let mx = solve_max(c);
        let mx_exact = brute::solve_max(c);
        assert!(mx.is_permutation());
        assert!(
            (mx.cost - mx_exact.cost).abs() < 1e-6,
            "max={} brute={}",
            mx.cost,
            mx_exact.cost
        );
    }
}

proptest! {
    #[test]
    fn solvers_agree_on_random_matrices(c in cost_matrix(24)) {
        cross_validate(&c);
    }

    #[test]
    fn solvers_agree_on_ties_and_zero_rows(c in degenerate_matrix(12)) {
        cross_validate(&c);
    }

    #[test]
    fn min_never_exceeds_max(c in cost_matrix(10)) {
        let mn = solve_min(&c);
        let mx = solve_max(&c);
        prop_assert!(mn.cost <= mx.cost + 1e-9);
    }

    #[test]
    fn integer_costs_solved_exactly(n in 1usize..=6, seed in 0u64..1000) {
        // Integral costs: optimal value must be integral and exact.
        let c = DenseCost::from_fn(n, |i, j| {
            let h = (i as u64 * 31 + j as u64 * 17 + seed * 1009) % 100;
            h as f64
        });
        let fast = jv::solve(&c);
        let exact = brute::solve_min(&c);
        prop_assert_eq!(fast.cost, exact.cost);
        prop_assert_eq!(fast.cost.fract(), 0.0);
    }

    /// The warm-started path is exact: across the matching scheduler's
    /// round pattern (solve, sentinel out the matched entries, repeat),
    /// every warm solve matches a cold solve of the same matrix.
    #[test]
    fn warm_rounds_match_cold(c in cost_matrix(10)) {
        let n = c.dim();
        let mut work = c.clone();
        let hi = 1e7; // strictly dominates any real assignment
        let mut duals = Duals::new();
        for round in 0..n {
            let warm = solve_min_warm(&work, &mut duals);
            let cold = solve_min(&work);
            prop_assert!(warm.is_permutation());
            prop_assert!((warm.cost - cold.cost).abs() < 1e-6,
                "round {round}: warm={} cold={}", warm.cost, cold.cost);
            for (i, &j) in warm.row_to_col.iter().enumerate() {
                work.set(i, j, hi);
            }
        }
    }

    /// Warm solves stay exact on fully degenerate (tie-ridden) inputs.
    #[test]
    fn warm_rounds_match_cold_on_degenerate(c in degenerate_matrix(8)) {
        let n = c.dim();
        let mut work = c.clone();
        let mut duals = Duals::new();
        for _ in 0..n.min(4) {
            let warm = solve_min_warm(&work, &mut duals);
            let cold = solve_min(&work);
            prop_assert!(warm.is_permutation());
            prop_assert!((warm.cost - cold.cost).abs() < 1e-6);
            for (i, &j) in warm.row_to_col.iter().enumerate() {
                work.set(i, j, 1e6);
            }
        }
    }
}
